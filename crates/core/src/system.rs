//! The TTW system model (Sec. III of the paper): nodes, tasks, messages,
//! applications and operation modes.

use crate::error::ModelError;
use crate::ids::{AppId, MessageId, ModeId, NodeId, TaskId};
use crate::spec::ApplicationSpec;
use crate::time::{lcm_all, Micros};
use std::collections::{HashMap, HashSet};

/// A device of the wireless multi-hop network that executes tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Node name, unique within the system.
    pub name: String,
}

/// A task `τ`: a piece of computation mapped to one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Task name, unique within the system.
    pub name: String,
    /// Node the task executes on (`τ.map`).
    pub node: NodeId,
    /// Worst-case execution time in microseconds (`τ.e`).
    pub wcet: Micros,
    /// Application the task belongs to; the task period `τ.p` is the
    /// application period.
    pub app: AppId,
    /// Messages that must be received before the task can start (`τ.prec`).
    pub preceding_messages: Vec<MessageId>,
}

/// A message `m`: data produced by one or more tasks on a single node and
/// consumed by tasks on arbitrary nodes (unicast, multicast or broadcast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Message name, unique within the system.
    pub name: String,
    /// Application the message belongs to; its period `m.p` equals the
    /// application period.
    pub app: AppId,
    /// Tasks that must finish before the message can be sent (`m.prec`).
    pub preceding_tasks: Vec<TaskId>,
    /// Tasks that wait for the message.
    pub successor_tasks: Vec<TaskId>,
    /// Node that transmits the message (the node of all preceding tasks).
    pub source_node: NodeId,
}

/// A distributed application `a`: a periodic precedence graph of tasks and
/// messages with an end-to-end deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Application {
    /// Application name, unique within the system.
    pub name: String,
    /// Period `a.p` in microseconds.
    pub period: Micros,
    /// Relative end-to-end deadline `a.d ≤ a.p` in microseconds.
    pub deadline: Micros,
    /// Tasks of the application.
    pub tasks: Vec<TaskId>,
    /// Messages of the application.
    pub messages: Vec<MessageId>,
}

/// An operation mode `M`: a set of applications executed concurrently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mode {
    /// Mode name, unique within the system.
    pub name: String,
    /// Applications executed in this mode.
    pub applications: Vec<AppId>,
}

/// A directed precedence edge of an application graph.
///
/// Edges connect tasks and messages in alternation: a task precedes the
/// messages it produces, and a message precedes the tasks that wait for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrecedenceEdge {
    /// `task` must finish before `message` can be transmitted.
    TaskToMessage {
        /// The producing task.
        task: TaskId,
        /// The produced message.
        message: MessageId,
    },
    /// `message` must be delivered before `task` can start.
    MessageToTask {
        /// The awaited message.
        message: MessageId,
        /// The consuming task.
        task: TaskId,
    },
}

/// The complete specification of a TTW deployment: network nodes, applications
/// (with their tasks, messages and precedence constraints) and operation modes.
///
/// A `System` is immutable once built except through its `add_*` methods, and
/// every `add_*` method validates the rules of the paper's system model before
/// mutating anything.
///
/// Two systems are equal when they hold the same entities under the same
/// ids; this is how a re-synthesis, a codec round trip or a seeded generator
/// decides that two models are the same.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct System {
    nodes: Vec<Node>,
    tasks: Vec<Task>,
    messages: Vec<Message>,
    applications: Vec<Application>,
    modes: Vec<Mode>,
    node_names: HashMap<String, NodeId>,
    task_names: HashMap<String, TaskId>,
    message_names: HashMap<String, MessageId>,
    app_names: HashMap<String, AppId>,
    mode_names: HashMap<String, ModeId>,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a network node.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateName`] if a node with this name exists.
    pub fn add_node(&mut self, name: impl Into<String>) -> Result<NodeId, ModelError> {
        let name = name.into();
        if self.node_names.contains_key(&name) {
            return Err(ModelError::DuplicateName { name, kind: "node" });
        }
        let id = NodeId(self.nodes.len());
        self.node_names.insert(name.clone(), id);
        self.nodes.push(Node { name });
        Ok(id)
    }

    /// Adds an application from its specification, creating its tasks and
    /// messages and resolving all name references.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the specification violates the system model
    /// of Sec. III: unknown node/task names, duplicate names, zero durations,
    /// deadline larger than the period, WCET larger than the period, messages
    /// without a sender, senders on different nodes, or a cyclic precedence
    /// graph.
    pub fn add_application(&mut self, spec: &ApplicationSpec) -> Result<AppId, ModelError> {
        let local_tasks = self.check_application_spec(spec)?;

        let app_id = AppId(self.applications.len());
        // The spec's tasks get consecutive ids from here, in spec order.
        let first_task = self.tasks.len();
        let task_id = |name: &String| TaskId(first_task + local_tasks[name.as_str()]);
        let mut task_ids = Vec::with_capacity(spec.tasks.len());

        for t in &spec.tasks {
            let node = self.node_names[&t.node];
            let id = TaskId(self.tasks.len());
            self.task_names.insert(t.name.clone(), id);
            self.tasks.push(Task {
                name: t.name.clone(),
                node,
                wcet: t.wcet,
                app: app_id,
                preceding_messages: Vec::new(),
            });
            task_ids.push(id);
        }

        let mut message_ids = Vec::with_capacity(spec.messages.len());
        for m in &spec.messages {
            let preceding_tasks: Vec<TaskId> = m.sources.iter().map(task_id).collect();
            let successor_tasks: Vec<TaskId> = m.destinations.iter().map(task_id).collect();
            let source_node = self.tasks[preceding_tasks[0].index()].node;
            let id = MessageId(self.messages.len());
            self.message_names.insert(m.name.clone(), id);
            for &t in &successor_tasks {
                self.tasks[t.index()].preceding_messages.push(id);
            }
            self.messages.push(Message {
                name: m.name.clone(),
                app: app_id,
                preceding_tasks,
                successor_tasks,
                source_node,
            });
            message_ids.push(id);
        }

        self.app_names.insert(spec.name.clone(), app_id);
        self.applications.push(Application {
            name: spec.name.clone(),
            period: spec.period,
            deadline: spec.deadline,
            tasks: task_ids,
            messages: message_ids,
        });
        Ok(app_id)
    }

    /// Adds an operation mode containing the given applications.
    ///
    /// Applications may be shared between modes — that is the premise of the
    /// paper's multi-mode design (Sec. V): an application running in two modes
    /// keeps executing across a mode change between them, which is why the
    /// synthesis pipeline must give it the *same* offsets in both schedules
    /// (see [`crate::modegraph`]). A mode may not list the same application
    /// twice.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] if the name is taken, the application list is
    /// empty, or an application is listed twice in the same mode.
    pub fn add_mode(
        &mut self,
        name: impl Into<String>,
        applications: &[AppId],
    ) -> Result<ModeId, ModelError> {
        let name = name.into();
        if self.mode_names.contains_key(&name) {
            return Err(ModelError::DuplicateName { name, kind: "mode" });
        }
        if applications.is_empty() {
            return Err(ModelError::EmptyMode { name });
        }
        let mut seen = HashSet::new();
        for &app in applications {
            if !seen.insert(app) {
                return Err(ModelError::ApplicationReuse { app });
            }
        }
        let id = ModeId(self.modes.len());
        self.mode_names.insert(name.clone(), id);
        self.modes.push(Mode {
            name,
            applications: applications.to_vec(),
        });
        Ok(id)
    }

    /// Changes the WCET of an existing task in place — the canonical
    /// "online admission" edit: ids, names and precedence all stay put, so
    /// a predecessor schedule remains diffable against the edited system.
    ///
    /// # Errors
    ///
    /// [`ModelError::ZeroDuration`] for a zero WCET and
    /// [`ModelError::WcetExceedsPeriod`] for a WCET larger than the task's
    /// application period — the two WCETs [`System::add_application`]
    /// rejects. The task is left as it was.
    pub fn set_task_wcet(&mut self, task: TaskId, wcet: Micros) -> Result<(), ModelError> {
        let name = &self.tasks[task.index()].name;
        if wcet == 0 {
            return Err(ModelError::ZeroDuration {
                what: format!("WCET of task `{name}`"),
            });
        }
        let period = self.task_period(task);
        if wcet > period {
            return Err(ModelError::WcetExceedsPeriod {
                task: name.clone(),
                wcet,
                period,
            });
        }
        self.tasks[task.index()].wcet = wcet;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the task with the given id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Returns the message with the given id.
    pub fn message(&self, id: MessageId) -> &Message {
        &self.messages[id.index()]
    }

    /// Returns the application with the given id.
    pub fn application(&self, id: AppId) -> &Application {
        &self.applications[id.index()]
    }

    /// Returns the mode with the given id.
    pub fn mode(&self, id: ModeId) -> &Mode {
        &self.modes[id.index()]
    }

    /// Looks up a node by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.node_names.get(name).copied()
    }

    /// Looks up a task by name.
    pub fn task_id(&self, name: &str) -> Option<TaskId> {
        self.task_names.get(name).copied()
    }

    /// Looks up a message by name.
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_names.get(name).copied()
    }

    /// Looks up an application by name.
    pub fn application_id(&self, name: &str) -> Option<AppId> {
        self.app_names.get(name).copied()
    }

    /// Looks up a mode by name.
    pub fn mode_id(&self, name: &str) -> Option<ModeId> {
        self.mode_names.get(name).copied()
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterates over all tasks.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Iterates over all messages.
    pub fn messages(&self) -> impl Iterator<Item = (MessageId, &Message)> {
        self.messages
            .iter()
            .enumerate()
            .map(|(i, m)| (MessageId(i), m))
    }

    /// Iterates over all applications.
    pub fn applications(&self) -> impl Iterator<Item = (AppId, &Application)> {
        self.applications
            .iter()
            .enumerate()
            .map(|(i, a)| (AppId(i), a))
    }

    /// Iterates over all modes.
    pub fn modes(&self) -> impl Iterator<Item = (ModeId, &Mode)> {
        self.modes.iter().enumerate().map(|(i, m)| (ModeId(i), m))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    // ------------------------------------------------------------------
    // Derived quantities
    // ------------------------------------------------------------------

    /// Period of a task (its application period).
    pub fn task_period(&self, id: TaskId) -> Micros {
        self.applications[self.tasks[id.index()].app.index()].period
    }

    /// Period of a message (its application period).
    pub fn message_period(&self, id: MessageId) -> Micros {
        self.applications[self.messages[id.index()].app.index()].period
    }

    /// Hyperperiod of a mode: least common multiple of its application periods.
    pub fn hyperperiod(&self, mode: ModeId) -> Micros {
        lcm_all(
            self.modes[mode.index()]
                .applications
                .iter()
                .map(|a| self.applications[a.index()].period),
        )
    }

    /// Tasks executed in a mode, in deterministic (application, task) order.
    pub fn tasks_in_mode(&self, mode: ModeId) -> Vec<TaskId> {
        self.modes[mode.index()]
            .applications
            .iter()
            .flat_map(|a| self.applications[a.index()].tasks.iter().copied())
            .collect()
    }

    /// Messages exchanged in a mode, in deterministic (application, message) order.
    pub fn messages_in_mode(&self, mode: ModeId) -> Vec<MessageId> {
        self.modes[mode.index()]
            .applications
            .iter()
            .flat_map(|a| self.applications[a.index()].messages.iter().copied())
            .collect()
    }

    /// Modes that contain `app`, in mode-id order.
    ///
    /// An application in more than one mode keeps running across a change
    /// between those modes; the synthesis pipeline must therefore schedule it
    /// identically in all of them (switch consistency, paper Sec. V).
    pub fn modes_of_application(&self, app: AppId) -> Vec<ModeId> {
        self.modes
            .iter()
            .enumerate()
            .filter(|(_, m)| m.applications.contains(&app))
            .map(|(i, _)| ModeId(i))
            .collect()
    }

    /// Applications contained in both `a` and `b` (the applications that keep
    /// running across a mode change between the two), in id order.
    pub fn shared_applications(&self, a: ModeId, b: ModeId) -> Vec<AppId> {
        let other: HashSet<AppId> = self.modes[b.index()].applications.iter().copied().collect();
        let mut shared: Vec<AppId> = self.modes[a.index()]
            .applications
            .iter()
            .copied()
            .filter(|app| other.contains(app))
            .collect();
        shared.sort_unstable();
        shared
    }

    /// All precedence edges of an application.
    pub fn precedence_edges(&self, app: AppId) -> Vec<PrecedenceEdge> {
        let mut edges = Vec::new();
        for &m in &self.applications[app.index()].messages {
            let msg = &self.messages[m.index()];
            for &t in &msg.preceding_tasks {
                edges.push(PrecedenceEdge::TaskToMessage {
                    task: t,
                    message: m,
                });
            }
            for &t in &msg.successor_tasks {
                edges.push(PrecedenceEdge::MessageToTask {
                    message: m,
                    task: t,
                });
            }
        }
        edges
    }

    /// Tasks of an application that have no preceding message (chain sources).
    pub fn source_tasks(&self, app: AppId) -> Vec<TaskId> {
        self.applications[app.index()]
            .tasks
            .iter()
            .copied()
            .filter(|t| self.tasks[t.index()].preceding_messages.is_empty())
            .collect()
    }

    // ------------------------------------------------------------------
    // Validation helpers
    // ------------------------------------------------------------------

    /// Checks `spec` against the model rules [`System::add_application`]
    /// documents and returns the index of its task names: each name's
    /// position in `spec.tasks`, what the cycle test and the build share.
    fn check_application_spec<'s>(
        &self,
        spec: &'s ApplicationSpec,
    ) -> Result<TaskIndex<'s>, ModelError> {
        if spec.period == 0 {
            return Err(ModelError::ZeroDuration {
                what: format!("period of application `{}`", spec.name),
            });
        }
        if spec.deadline == 0 {
            return Err(ModelError::ZeroDuration {
                what: format!("deadline of application `{}`", spec.name),
            });
        }
        if spec.deadline > spec.period {
            return Err(ModelError::DeadlineExceedsPeriod {
                application: spec.name.clone(),
                deadline: spec.deadline,
                period: spec.period,
            });
        }
        if self.app_names.contains_key(&spec.name) {
            return Err(ModelError::DuplicateName {
                name: spec.name.clone(),
                kind: "application",
            });
        }

        let mut local_tasks = TaskIndex::with_capacity(spec.tasks.len());
        for (i, t) in spec.tasks.iter().enumerate() {
            if t.wcet == 0 {
                return Err(ModelError::ZeroDuration {
                    what: format!("WCET of task `{}`", t.name),
                });
            }
            if t.wcet > spec.period {
                return Err(ModelError::WcetExceedsPeriod {
                    task: t.name.clone(),
                    wcet: t.wcet,
                    period: spec.period,
                });
            }
            if !self.node_names.contains_key(&t.node) {
                return Err(ModelError::UnknownName {
                    name: t.node.clone(),
                    kind: "node",
                });
            }
            if self.task_names.contains_key(&t.name)
                || local_tasks.insert(t.name.as_str(), i).is_some()
            {
                return Err(ModelError::DuplicateName {
                    name: t.name.clone(),
                    kind: "task",
                });
            }
        }

        let mut local_messages: HashSet<&str> = HashSet::new();
        for m in &spec.messages {
            if self.message_names.contains_key(&m.name) || !local_messages.insert(m.name.as_str()) {
                return Err(ModelError::DuplicateName {
                    name: m.name.clone(),
                    kind: "message",
                });
            }
            if m.sources.is_empty() {
                return Err(ModelError::MessageWithoutSender {
                    message: m.name.clone(),
                });
            }
            for reference in m.sources.iter().chain(m.destinations.iter()) {
                if !local_tasks.contains_key(reference.as_str()) {
                    return Err(ModelError::UnknownName {
                        name: reference.clone(),
                        kind: "task",
                    });
                }
            }
            let node_of = |name: &String| &spec.tasks[local_tasks[name.as_str()]].node;
            let first_node = node_of(&m.sources[0]);
            if m.sources.iter().any(|s| node_of(s) != first_node) {
                return Err(ModelError::SendersOnDifferentNodes {
                    message: m.name.clone(),
                });
            }
        }

        if has_cycle(spec, &local_tasks) {
            return Err(ModelError::CyclicPrecedence {
                application: spec.name.clone(),
            });
        }
        Ok(local_tasks)
    }
}

/// The position of each task of an [`ApplicationSpec`] in its `tasks`, by
/// name.
type TaskIndex<'s> = HashMap<&'s str, usize>;

/// Cycle detection over the bipartite task/message precedence graph of a
/// spec whose every message endpoint `task_index` names.
fn has_cycle(spec: &ApplicationSpec, task_index: &TaskIndex<'_>) -> bool {
    // Vertices: tasks 0..T, messages T..T+M (by index in the spec).
    let t = spec.tasks.len();
    let total = t + spec.messages.len();
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (mi, m) in spec.messages.iter().enumerate() {
        for s in &m.sources {
            adjacency[task_index[s.as_str()]].push(t + mi);
        }
        for d in &m.destinations {
            adjacency[t + mi].push(task_index[d.as_str()]);
        }
    }

    // Iterative DFS with colours: 0 = unvisited, 1 = on stack, 2 = done.
    let mut colour = vec![0u8; total];
    for start in 0..total {
        if colour[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        colour[start] = 1;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adjacency[v].len() {
                let w = adjacency[v][*next];
                *next += 1;
                match colour[w] {
                    0 => {
                        colour[w] = 1;
                        stack.push((w, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                colour[v] = 2;
                stack.pop();
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ApplicationSpec;
    use crate::time::millis;

    fn two_node_system() -> System {
        let mut sys = System::new();
        sys.add_node("sensor").unwrap();
        sys.add_node("actuator").unwrap();
        sys
    }

    fn simple_app() -> ApplicationSpec {
        ApplicationSpec::new("app", millis(100), millis(80))
            .with_task("sense", "sensor", millis(2))
            .with_task("act", "actuator", millis(1))
            .with_message("m", ["sense"], ["act"])
    }

    #[test]
    fn builds_simple_application() {
        let mut sys = two_node_system();
        let app = sys.add_application(&simple_app()).unwrap();
        assert_eq!(sys.application(app).tasks.len(), 2);
        assert_eq!(sys.application(app).messages.len(), 1);
        let m = sys.message_id("m").unwrap();
        assert_eq!(sys.message(m).preceding_tasks.len(), 1);
        assert_eq!(sys.message(m).successor_tasks.len(), 1);
        let act = sys.task_id("act").unwrap();
        assert_eq!(sys.task(act).preceding_messages, vec![m]);
        assert_eq!(sys.message_period(m), millis(100));
        assert_eq!(sys.task_period(act), millis(100));
    }

    #[test]
    fn rejects_duplicate_node() {
        let mut sys = System::new();
        sys.add_node("n").unwrap();
        assert!(matches!(
            sys.add_node("n"),
            Err(ModelError::DuplicateName { .. })
        ));
    }

    #[test]
    fn rejects_deadline_larger_than_period() {
        let mut sys = two_node_system();
        let spec = ApplicationSpec::new("bad", millis(10), millis(20));
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::DeadlineExceedsPeriod { .. })
        ));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut sys = two_node_system();
        let spec = ApplicationSpec::new("a", 10, 10).with_task("t", "nowhere", 1);
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::UnknownName { .. })
        ));
    }

    #[test]
    fn rejects_message_without_sender() {
        let mut sys = two_node_system();
        let spec = ApplicationSpec::new("a", 10, 10)
            .with_task("t", "sensor", 1)
            .with_message("m", Vec::<String>::new(), ["t"]);
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::MessageWithoutSender { .. })
        ));
    }

    #[test]
    fn rejects_senders_on_different_nodes() {
        let mut sys = two_node_system();
        let spec = ApplicationSpec::new("a", 10, 10)
            .with_task("t1", "sensor", 1)
            .with_task("t2", "actuator", 1)
            .with_task("t3", "actuator", 1)
            .with_message("m", ["t1", "t2"], ["t3"]);
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::SendersOnDifferentNodes { .. })
        ));
    }

    #[test]
    fn rejects_cyclic_precedence() {
        let mut sys = two_node_system();
        let spec = ApplicationSpec::new("a", 10, 10)
            .with_task("t1", "sensor", 1)
            .with_task("t2", "actuator", 1)
            .with_message("m1", ["t1"], ["t2"])
            .with_message("m2", ["t2"], ["t1"]);
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::CyclicPrecedence { .. })
        ));
    }

    #[test]
    fn rejects_zero_wcet_and_zero_period() {
        let mut sys = two_node_system();
        let spec = ApplicationSpec::new("a", 10, 10).with_task("t", "sensor", 0);
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::ZeroDuration { .. })
        ));
        let spec = ApplicationSpec::new("b", 0, 0);
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::ZeroDuration { .. })
        ));
    }

    #[test]
    fn rejects_wcet_exceeding_period() {
        let mut sys = two_node_system();
        let spec = ApplicationSpec::new("a", 10, 10).with_task("t", "sensor", 20);
        assert!(matches!(
            sys.add_application(&spec),
            Err(ModelError::WcetExceedsPeriod { .. })
        ));
    }

    #[test]
    fn set_task_wcet_rejects_a_wcet_above_the_period() {
        let (mut sys, _) = crate::fixtures::fig3_system();
        let tau1 = sys.task_id("ctrl.tau1").unwrap();
        let before = sys.clone();
        assert!(matches!(
            sys.set_task_wcet(tau1, millis(100) + 1),
            Err(ModelError::WcetExceedsPeriod {
                wcet: 100_001,
                period: 100_000,
                ..
            })
        ));
        assert!(matches!(
            sys.set_task_wcet(tau1, 0),
            Err(ModelError::ZeroDuration { .. })
        ));
        assert_eq!(sys, before);

        // A WCET of exactly the period is accepted, and the edited system
        // still round-trips through its JSON codec.
        sys.set_task_wcet(tau1, millis(100)).unwrap();
        assert_eq!(sys.task(tau1).wcet, millis(100));
        assert_ne!(sys, before);
        let json = crate::export::system_to_json(&sys).unwrap();
        assert_eq!(crate::export::system_from_json(&json).unwrap(), sys);
    }

    #[test]
    fn mode_creation_and_hyperperiod() {
        let mut sys = two_node_system();
        let a1 = sys
            .add_application(
                &ApplicationSpec::new("a1", millis(20), millis(20)).with_task("t1", "sensor", 10),
            )
            .unwrap();
        let a2 = sys
            .add_application(
                &ApplicationSpec::new("a2", millis(50), millis(50)).with_task("t2", "sensor", 10),
            )
            .unwrap();
        let mode = sys.add_mode("normal", &[a1, a2]).unwrap();
        assert_eq!(sys.hyperperiod(mode), millis(100));
        assert_eq!(sys.tasks_in_mode(mode).len(), 2);
        assert_eq!(sys.messages_in_mode(mode).len(), 0);
    }

    #[test]
    fn modes_may_share_applications() {
        let mut sys = two_node_system();
        let a1 = sys.add_application(&simple_app()).unwrap();
        let m1 = sys.add_mode("m1", &[a1]).unwrap();
        let m2 = sys
            .add_mode("m2", &[a1])
            .expect("modes may share applications");
        assert_eq!(sys.modes_of_application(a1), vec![m1, m2]);
        assert_eq!(sys.shared_applications(m1, m2), vec![a1]);
    }

    #[test]
    fn a_mode_rejects_a_duplicated_application() {
        let mut sys = two_node_system();
        let a1 = sys.add_application(&simple_app()).unwrap();
        assert!(matches!(
            sys.add_mode("m1", &[a1, a1]),
            Err(ModelError::ApplicationReuse { .. })
        ));
    }

    #[test]
    fn empty_mode_rejected() {
        let mut sys = two_node_system();
        assert!(matches!(
            sys.add_mode("m", &[]),
            Err(ModelError::EmptyMode { .. })
        ));
    }

    #[test]
    fn source_tasks() {
        let mut sys = two_node_system();
        let app = sys.add_application(&simple_app()).unwrap();
        let sense = sys.task_id("sense").unwrap();
        assert_eq!(sys.source_tasks(app), vec![sense]);
    }

    #[test]
    fn precedence_edges_cover_both_directions() {
        let mut sys = two_node_system();
        let app = sys.add_application(&simple_app()).unwrap();
        let edges = sys.precedence_edges(app);
        assert_eq!(edges.len(), 2);
        assert!(edges
            .iter()
            .any(|e| matches!(e, PrecedenceEdge::TaskToMessage { .. })));
        assert!(edges
            .iter()
            .any(|e| matches!(e, PrecedenceEdge::MessageToTask { .. })));
    }

    #[test]
    fn failed_add_leaves_system_unchanged() {
        let mut sys = two_node_system();
        let bad = ApplicationSpec::new("a", 10, 10)
            .with_task("t", "sensor", 1)
            .with_message("m", ["missing"], ["t"]);
        assert!(sys.add_application(&bad).is_err());
        assert_eq!(sys.num_tasks(), 0);
        assert!(sys.messages().next().is_none());
        assert!(sys.applications().next().is_none());
    }
}
