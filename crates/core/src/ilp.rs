//! ILP formulation of the co-scheduling problem (Sec. IV and Appendix).
//!
//! For a fixed number of communication rounds `R_M`, [`build_ilp_inherited`]
//! (with [`InheritedOffsets::none`] when no offset is pinned) produces a
//! mixed-integer linear program whose feasible points are exactly the valid
//! mode schedules, and whose objective is the sum of application end-to-end
//! latencies (Eq. 49). The constraint classes follow the paper's appendix:
//!
//! * **C1** application constraints — precedence (C1.1) and end-to-end
//!   deadlines (C1.2);
//! * **C2** round constraints — non-overlap (C2.1) and bounded inter-round
//!   gap (C2.2);
//! * **C3** validity of the task mapping — one task at a time per node,
//!   linearized with binary `λ` variables and a big-M constant;
//! * **C4** validity of the message allocation — every message instance is
//!   served after its release (C4.1) and before its deadline (C4.2), at most
//!   `B` slots per round (C4.3), and as many slots as instances over one
//!   hyperperiod (C4.4). C4.1/C4.2 use the arrival/demand/service counting
//!   argument of the paper (Eq. 8–12), which resolves the non-linear coupling
//!   between message offsets and round allocations.
//!
//! Internally all times are normalized to units of the round length `T_r`
//! (exactly like Table II, where `T_r = 1` time unit), which keeps the
//! coefficients of the MILP well-scaled.

use crate::config::SchedulerConfig;
use crate::error::ScheduleError;
use crate::ids::{AppId, MessageId, ModeId, TaskId};
use crate::modegraph::InheritedOffsets;
use crate::schedule::{ModeSchedule, ScheduledRound, SynthesisStats};
use crate::system::{PrecedenceEdge, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use ttw_milp::{
    Basis, ConstraintId, LinExpr, Model, Sense, SimplexWorkspace, Solution, SolveError, VarId,
    VarKind,
};

/// The constant `mm` that turns the paper's strict inequalities into `≤`
/// rows, in internal time units (`T_r = 1`); the paper uses `1e-4`.
const MM: f64 = 1e-4;
/// Big-M of the task non-overlap rows (C3) as a multiple of the hyperperiod;
/// the paper uses 10.
const BIG_M_FACTOR: f64 = 10.0;

/// Mapping from model entities to MILP decision variables.
#[derive(Debug, Clone, Default)]
struct VariableMap {
    task_offset: BTreeMap<TaskId, VarId>,
    message_offset: BTreeMap<MessageId, VarId>,
    message_deadline: BTreeMap<MessageId, VarId>,
    round_start: Vec<VarId>,
    /// `alloc[j][m]` is the binary allocation of message `m` to round `j`.
    alloc: Vec<BTreeMap<MessageId, VarId>>,
    app_latency: BTreeMap<AppId, VarId>,
}

/// A fully built ILP instance for one `(mode, R_M)` pair.
///
/// Instances are *growable*: [`IlpInstance::add_round`] appends one more
/// communication round in place — only the round-count-dependent variables and
/// rows are added, while the (much larger) round-independent part of the model
/// (precedence, deadlines, the quadratic task non-overlap block C3) is reused.
/// This is what makes the `R_M = min..max` sweep of Algorithm 1 incremental
/// instead of rebuilding the whole model per attempt.
///
/// An instance also owns the one [`SimplexWorkspace`] every LP of its mode
/// runs in: the branch-and-bound trees of its `R_M` attempts
/// ([`IlpInstance::solve`]) and the LP that polishes the optimum
/// ([`extract_schedule`]). Their simplex, factorization and node buffers
/// are allocated once per mode instead of once per attempt and per node;
/// every answer is the one a fresh workspace gives, bit for bit.
#[derive(Debug)]
pub struct IlpInstance {
    /// The underlying MILP; exposed so callers can inspect or audit it.
    pub model: Model,
    vars: VariableMap,
    /// Microseconds per internal time unit (= the round length `T_r`).
    scale: f64,
    num_rounds: usize,
    /// Mode hyperperiod in internal time units.
    hyper: f64,
    /// Base objective weight of the anchoring tie-break terms.
    tie_break: f64,
    /// Anchor-sequence index of the first round-start variable (the offset
    /// and deadline anchors come first); with `anchor_terms` it gives every
    /// incrementally added round its distinct anchor weight.
    anchor_base: usize,
    /// Total anchor-term count the weights are normalized against.
    anchor_terms: f64,
    /// Per-message wrap-around ("leftover") binaries `r0`.
    leftover: BTreeMap<MessageId, VarId>,
    /// Per-message total-allocation equality rows (C4.4); new rounds join
    /// these rows in place.
    c44: BTreeMap<MessageId, ConstraintId>,
    /// Root-LP basis of the previous [`IlpInstance::solve`] call; feeds the
    /// next solve so the grown model warm-starts instead of re-running the
    /// two-phase simplex from scratch.
    warm_basis: Option<Basis>,
    /// The buffers every solve of this instance reuses. A cell, so that
    /// [`extract_schedule`], which reads the instance, can polish in it.
    workspace: RefCell<SimplexWorkspace>,
}

impl IlpInstance {
    /// Number of communication rounds this instance schedules.
    pub fn num_rounds(&self) -> usize {
        self.num_rounds
    }

    /// Solves the instance, warm-starting from the basis of the previous
    /// solve when one exists.
    ///
    /// This is the preferred entry point for the incremental `R_M` sweep:
    /// after [`IlpInstance::add_round`] grows the model, the stored basis is
    /// extended (new columns at a bound, new rows on their logical column)
    /// and feasibility is repaired from there — `Model::solve_with_basis`'s
    /// warm-start contract — which typically costs a few simplex pivots
    /// instead of a fresh two-phase solve per attempt.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`ttw_milp::Model::solve`].
    pub fn solve(&mut self) -> Result<Solution, SolveError> {
        let workspace = self.workspace.get_mut();
        let (solution, basis) =
            (self.model).solve_with_basis_in(self.warm_basis.as_ref(), workspace)?;
        if let Some(basis) = basis {
            self.warm_basis = Some(basis);
        }
        Ok(solution)
    }

    /// Seeds the next solve's warm start from an externally cached basis
    /// (e.g. the root basis the schedule cache persisted for this mode),
    /// replacing whatever basis chained from a previous attempt.
    ///
    /// The seed is only taken when its snapshot dimensions fit the current
    /// model; returns whether it was installed. An oversized snapshot would
    /// be rejected by the solver's warm install anyway, so refusing it here
    /// merely preserves the (applicable) chained basis instead.
    pub fn seed_warm_basis(&mut self, basis: Basis) -> bool {
        let (nstruct, nrows) = basis.dims();
        if nstruct <= self.model.num_vars() && nrows <= self.model.num_constraints() {
            self.warm_basis = Some(basis);
            true
        } else {
            false
        }
    }

    /// The root basis left behind by the last [`IlpInstance::solve`] call
    /// (or seeded via [`IlpInstance::seed_warm_basis`]), if any.
    pub fn root_basis(&self) -> Option<&Basis> {
        self.warm_basis.as_ref()
    }

    /// Re-solves the instance's LP with every integral variable fixed to its
    /// rounded value in `solution`, yielding canonical continuous values (see
    /// the comment in [`extract_schedule`]). Returns `None` when the polish
    /// solve does not reach an optimum — the caller then keeps the raw
    /// branch-and-bound values.
    ///
    /// The model is solved as it is, under a bounds slice that fixes the
    /// integral columns — binaries clamped into `[0, 1]` as
    /// [`Model::fix_var`] would — in the instance's workspace: the answer of
    /// a copy of the model pinned by `fix_var`, without the copy.
    pub fn polish(&self, solution: &Solution) -> Option<Solution> {
        let bounds: Vec<(f64, f64)> = (self.model.variables())
            .map(|(id, var)| {
                if !var.kind.is_integral() {
                    return (var.lower, var.upper);
                }
                let fixed = solution.value(id).round().clamp(var.lower, var.upper);
                match var.kind {
                    VarKind::Binary => (fixed.clamp(0.0, 1.0), fixed.clamp(0.0, 1.0)),
                    _ => (fixed, fixed),
                }
            })
            .collect();
        let workspace = &mut self.workspace.borrow_mut();
        (self.model.solve_relaxation_in(&bounds, workspace))
            .ok()
            .filter(Solution::is_optimal)
    }

    /// Appends one more communication round to the instance in place.
    ///
    /// Adds the round-start variable, its ordering/gap rows against the
    /// previous round, the per-message allocation binaries with their
    /// arrival/demand counting rows (C4.1/C4.2 and Eq. 42/44), the slot-limit
    /// row (C4.3), and joins the new allocation binaries to the existing
    /// total-count equality rows (C4.4). Everything else — variables, C1–C3,
    /// pinned bounds — is untouched.
    ///
    /// `system`, `mode` and `config` must be the ones the instance was built
    /// with.
    pub fn add_round(&mut self, system: &System, mode: ModeId, config: &SchedulerConfig) {
        debug_assert_eq!(self.scale, config.round_duration as f64);
        let j = self.num_rounds;
        let tr = self.scale;
        let hyper_us = system.hyperperiod(mode);
        let messages = system.messages_in_mode(mode);

        // Round-start variable, anchored by the same tie-break as the rest.
        let r_j = self
            .model
            .add_continuous(format!("r[{j}]"), 0.0, (self.hyper - 1.0).max(0.0));
        self.vars.round_start.push(r_j);
        let anchor =
            self.tie_break * (1.0 + (self.anchor_base + j + 1) as f64 / (self.anchor_terms + 1.0));
        self.model.add_objective_term(r_j, anchor);

        // C2 — rounds are ordered and (optionally) gap-bounded (Eq. 24, 25).
        if j > 0 {
            let prev = self.vars.round_start[j - 1];
            let mut expr = LinExpr::term(prev, 1.0);
            expr.add_term(r_j, -1.0);
            self.model.add_constraint(
                format!("round_order[{}]", j - 1),
                expr,
                ttw_milp::ConstraintOp::Le,
                -1.0,
            );
            if let Some(gap) = config.max_inter_round_gap {
                let mut expr = LinExpr::term(r_j, 1.0);
                expr.add_term(prev, -1.0);
                self.model.add_constraint(
                    format!("round_gap[{}]", j - 1),
                    expr,
                    ttw_milp::ConstraintOp::Le,
                    gap as f64 / tr,
                );
            }
        }

        // Allocation binaries of the new round.
        let mut row = BTreeMap::new();
        for &m in &messages {
            let v = self
                .model
                .add_binary(format!("y[{j}][{}]", system.message(m).name));
            row.insert(m, v);
        }
        self.vars.alloc.push(row);

        // (C4.3) at most B slots in the new round.
        let expr = LinExpr::from_terms(self.vars.alloc[j].values().map(|&v| (v, 1.0)));
        self.model.add_constraint(
            format!("c43[{j}]"),
            expr,
            ttw_milp::ConstraintOp::Le,
            config.slots_per_round as f64,
        );

        for &m in &messages {
            let p = system.message_period(m) as f64 / tr;
            let n_inst = (hyper_us / system.message_period(m)) as f64;
            let o = self.vars.message_offset[&m];
            let d = self.vars.message_deadline[&m];
            let r0 = self.leftover[&m];
            let name = system.message(m).name.clone();

            // The new allocation binary joins the C4.4 equality row in place.
            self.model
                .add_term_to_constraint(self.c44[&m], self.vars.alloc[j][&m], 1.0);

            let ka = self
                .model
                .add_integer(format!("ka[{name}][{j}]"), 0.0, n_inst);
            let kd = self
                .model
                .add_integer(format!("kd[{name}][{j}]"), -1.0, n_inst);

            // (Eq. 42) 0 ≤ r_j − o − (ka − 1)p ≤ p − mm  ⇔  ka = af(r_j)
            let mut af_lb = LinExpr::term(r_j, -1.0);
            af_lb.add_term(o, 1.0);
            af_lb.add_term(ka, p);
            self.model.add_constraint(
                format!("af_lb[{name}][{j}]"),
                af_lb,
                ttw_milp::ConstraintOp::Le,
                p,
            );
            let mut af_ub = LinExpr::term(r_j, 1.0);
            af_ub.add_term(o, -1.0);
            af_ub.add_term(ka, -p);
            self.model.add_constraint(
                format!("af_ub[{name}][{j}]"),
                af_ub,
                ttw_milp::ConstraintOp::Le,
                -MM,
            );

            // (Eq. 44) mm ≤ r_j + T_r − o − d − (kd − 1)p ≤ p  ⇔  kd = df(r_j + T_r)
            let mut df_lb = LinExpr::term(r_j, -1.0);
            df_lb.add_term(o, 1.0);
            df_lb.add_term(d, 1.0);
            df_lb.add_term(kd, p);
            self.model.add_constraint(
                format!("df_lb[{name}][{j}]"),
                df_lb,
                ttw_milp::ConstraintOp::Le,
                1.0 + p - MM,
            );
            let mut df_ub = LinExpr::term(r_j, 1.0);
            df_ub.add_term(o, -1.0);
            df_ub.add_term(d, -1.0);
            df_ub.add_term(kd, -p);
            self.model.add_constraint(
                format!("df_ub[{name}][{j}]"),
                df_ub,
                ttw_milp::ConstraintOp::Le,
                -1.0,
            );

            // (Eq. 11 / C4.1) service by the end of round j never exceeds arrivals.
            let mut service_le_arrival = LinExpr::new();
            for alloc_row in self.vars.alloc.iter().take(j + 1) {
                service_le_arrival.add_term(alloc_row[&m], 1.0);
            }
            service_le_arrival.add_term(r0, -1.0);
            service_le_arrival.add_term(ka, -1.0);
            self.model.add_constraint(
                format!("c41[{name}][{j}]"),
                service_le_arrival,
                ttw_milp::ConstraintOp::Le,
                0.0,
            );

            // (Eq. 12 / C4.2) service before round j covers every expired deadline.
            let mut service_ge_demand = LinExpr::new();
            for alloc_row in self.vars.alloc.iter().take(j) {
                service_ge_demand.add_term(alloc_row[&m], -1.0);
            }
            service_ge_demand.add_term(r0, 1.0);
            service_ge_demand.add_term(kd, 1.0);
            self.model.add_constraint(
                format!("c42[{name}][{j}]"),
                service_ge_demand,
                ttw_milp::ConstraintOp::Le,
                0.0,
            );
        }

        self.num_rounds += 1;
    }
}

/// Builds the ILP for scheduling `mode` with exactly `num_rounds` rounds,
/// with the offsets of inherited applications *pinned* to the values an
/// earlier mode's schedule assigned them (minimal inheritance, paper Sec. V).
///
/// Pinning uses the solver's bound-tightening API ([`ttw_milp::Model::fix_var`])
/// rather than extra equality rows: the pinned columns simply lose their
/// freedom, which also shrinks the branch-and-bound search space.
///
/// # Errors
///
/// Returns [`ScheduleError::InvalidConfig`] if the configuration fails
/// validation.
pub fn build_ilp_inherited(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
    num_rounds: usize,
    inherited: &InheritedOffsets,
) -> Result<IlpInstance, ScheduleError> {
    config.validate()?;

    let tr = config.round_duration as f64;
    let hyper_us = system.hyperperiod(mode);
    let hyper = hyper_us as f64 / tr;
    let big_m = BIG_M_FACTOR * hyper.max(1.0);

    let tasks = system.tasks_in_mode(mode);
    let messages = system.messages_in_mode(mode);
    let apps = system.mode(mode).applications.clone();

    let mut model = Model::new(format!("ttw_{}", system.mode(mode).name));
    model.params_mut().clone_from(&config.solver);
    let mut vars = VariableMap::default();

    // ------------------------------------------------------------------
    // Round-independent decision variables (Table II). Round starts and
    // allocation binaries are added by `IlpInstance::add_round`.
    // ------------------------------------------------------------------
    for &t in &tasks {
        let p = system.task_period(t) as f64 / tr;
        let v = model.add_continuous(format!("o[{}]", system.task(t).name), 0.0, p);
        vars.task_offset.insert(t, v);
    }
    for &m in &messages {
        let p = system.message_period(m) as f64 / tr;
        let name = &system.message(m).name;
        let o = model.add_continuous(format!("om[{name}]"), 0.0, p);
        let d = model.add_continuous(format!("dm[{name}]"), 0.0, p);
        vars.message_offset.insert(m, o);
        vars.message_deadline.insert(m, d);
    }
    let mut leftover: BTreeMap<MessageId, VarId> = BTreeMap::new();
    for &m in &messages {
        let v = model.add_binary(format!("r0[{}]", system.message(m).name));
        leftover.insert(m, v);
    }
    for &a in &apps {
        let v = model.add_continuous(format!("delta[{}]", system.application(a).name), 0.0, hyper);
        vars.app_latency.insert(a, v);
    }

    // One σ binary per precedence edge, shared by every chain using the edge.
    let mut sigma: BTreeMap<(AppId, PrecedenceEdge), VarId> = BTreeMap::new();
    for &a in &apps {
        for edge in system.precedence_edges(a) {
            let name = match edge {
                PrecedenceEdge::TaskToMessage { task, message } => format!(
                    "sigma[{}->{}]",
                    system.task(task).name,
                    system.message(message).name
                ),
                PrecedenceEdge::MessageToTask { message, task } => format!(
                    "sigma[{}->{}]",
                    system.message(message).name,
                    system.task(task).name
                ),
            };
            let v = model.add_binary(name);
            sigma.insert((a, edge), v);
        }
    }

    // ------------------------------------------------------------------
    // Objective: minimize the sum of application latencies (Eq. 49).
    //
    // A tiny tie-breaking term on the task offsets, message offsets and
    // deadlines, and round starts anchors otherwise translation-equivalent
    // optima at the beginning of the hyperperiod, which makes the synthesized
    // schedules deterministic and easier to read — and, crucially,
    // *search-path independent*: solver features that only reshape the
    // branch-and-bound tree (cutting planes, branching order, warm starts)
    // land on the same vertex, which the differential harness checks
    // byte-for-byte. The weight is small enough never to trade latency for
    // offset (latencies are ≥ 1 round = 1 time unit, the tie-break sums to
    // far less than 1e-3 time units). It is normalized against the *largest*
    // round count the instance could grow to, so incrementally added rounds
    // keep the same weight as a from-scratch build.
    // ------------------------------------------------------------------
    let mut objective = LinExpr::from_terms(vars.app_latency.values().map(|&v| (v, 1.0)));
    let max_rounds = (hyper_us / config.round_duration) as usize;
    let num_anchor_terms =
        (vars.task_offset.len() + 2 * vars.message_offset.len() + max_rounds).max(1) as f64;
    let tie_break = 1e-4 / (num_anchor_terms * hyper.max(1.0));
    // Every anchored variable gets a *distinct* weight (all within a factor
    // of two of `tie_break`): under one uniform weight, permutation-symmetric
    // optima — two tasks trading the 0 and hyperperiod ends of a wrap, say —
    // have equal anchor sums and the vertex stays ambiguous, defeating the
    // search-path independence the anchoring exists to provide.
    let anchor_weight = |k: usize| tie_break * (1.0 + (k + 1) as f64 / (num_anchor_terms + 1.0));
    let mut anchor_index = 0usize;
    for &v in vars.task_offset.values() {
        objective.add_term(v, anchor_weight(anchor_index));
        anchor_index += 1;
    }
    for &v in vars.message_offset.values() {
        objective.add_term(v, anchor_weight(anchor_index));
        anchor_index += 1;
    }
    for &v in vars.message_deadline.values() {
        objective.add_term(v, anchor_weight(anchor_index));
        anchor_index += 1;
    }
    model.set_objective_expr(Sense::Minimize, objective);

    // ------------------------------------------------------------------
    // C1.1 — precedence constraints (Eq. 21, 22).
    // ------------------------------------------------------------------
    for &a in &apps {
        let p = system.application(a).period as f64 / tr;
        for edge in system.precedence_edges(a) {
            let s = sigma[&(a, edge)];
            match edge {
                PrecedenceEdge::TaskToMessage { task, message } => {
                    // o_τ + e_τ ≤ p·σ + o_m
                    let e = system.task(task).wcet as f64 / tr;
                    let mut expr = LinExpr::term(vars.task_offset[&task], 1.0);
                    expr.add_term(vars.message_offset[&message], -1.0);
                    expr.add_term(s, -p);
                    model.add_constraint(
                        format!("prec_tm[{}->{}]", task, message),
                        expr,
                        ttw_milp::ConstraintOp::Le,
                        -e,
                    );
                }
                PrecedenceEdge::MessageToTask { message, task } => {
                    // o_m + d_m ≤ p·σ + o_τ
                    let mut expr = LinExpr::term(vars.message_offset[&message], 1.0);
                    expr.add_term(vars.message_deadline[&message], 1.0);
                    expr.add_term(vars.task_offset[&task], -1.0);
                    expr.add_term(s, -p);
                    model.add_constraint(
                        format!("prec_mt[{}->{}]", message, task),
                        expr,
                        ttw_milp::ConstraintOp::Le,
                        0.0,
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // C1.2 — end-to-end deadlines (Eq. 23) and latency linearization (Eq. 47–48).
    // ------------------------------------------------------------------
    for &a in &apps {
        let app = system.application(a);
        let p = app.period as f64 / tr;
        let d = app.deadline as f64 / tr;
        for (ci, chain) in system.chains(a).iter().enumerate() {
            let first = chain.first_task();
            let last = chain.last_task();
            let e_last = system.task(last).wcet as f64 / tr;

            let mut expr = LinExpr::term(vars.task_offset[&last], 1.0);
            expr.add_term(vars.task_offset[&first], -1.0);
            for (from, to) in chain.hops() {
                let edge = match (from, to) {
                    (
                        crate::chains::ChainElement::Task(t),
                        crate::chains::ChainElement::Message(m),
                    ) => PrecedenceEdge::TaskToMessage {
                        task: t,
                        message: m,
                    },
                    (
                        crate::chains::ChainElement::Message(m),
                        crate::chains::ChainElement::Task(t),
                    ) => PrecedenceEdge::MessageToTask {
                        message: m,
                        task: t,
                    },
                    _ => unreachable!("chain elements alternate"),
                };
                expr.add_term(sigma[&(a, edge)], p);
            }

            // Chain latency ≤ application deadline.
            model.add_constraint(
                format!("deadline[{}][c{ci}]", app.name),
                expr.clone(),
                ttw_milp::ConstraintOp::Le,
                d - e_last,
            );
            // δ_a ≥ chain latency.
            let mut lat = expr;
            lat.add_term(vars.app_latency[&a], -1.0);
            model.add_constraint(
                format!("latency[{}][c{ci}]", app.name),
                lat,
                ttw_milp::ConstraintOp::Le,
                -e_last,
            );
        }
    }

    // ------------------------------------------------------------------
    // C3 — at most one task at a time per node (Eq. 28, 29).
    // ------------------------------------------------------------------
    for (i_idx, &ti) in tasks.iter().enumerate() {
        for &tj in tasks.iter().skip(i_idx + 1) {
            if system.task(ti).node != system.task(tj).node {
                continue;
            }
            let p_i = system.task_period(ti) as f64 / tr;
            let p_j = system.task_period(tj) as f64 / tr;
            let e_i = system.task(ti).wcet as f64 / tr;
            let e_j = system.task(tj).wcet as f64 / tr;
            let n_i = (hyper_us / system.task_period(ti)) as usize;
            let n_j = (hyper_us / system.task_period(tj)) as usize;
            for ki in 0..n_i {
                for kj in 0..n_j {
                    let lambda = model.add_binary(format!(
                        "lambda[{}][{}][{ki}][{kj}]",
                        system.task(ti).name,
                        system.task(tj).name
                    ));
                    // o_i + e_i + p_i·k_i ≤ o_j + p_j·k_j + M(1 − λ)
                    let mut first = LinExpr::term(vars.task_offset[&ti], 1.0);
                    first.add_term(vars.task_offset[&tj], -1.0);
                    first.add_term(lambda, big_m);
                    model.add_constraint(
                        format!("noexec1[{ti}][{tj}][{ki}][{kj}]"),
                        first,
                        ttw_milp::ConstraintOp::Le,
                        -e_i - p_i * ki as f64 + p_j * kj as f64 + big_m,
                    );
                    // o_j + e_j + p_j·k_j ≤ o_i + p_i·k_i + M·λ
                    let mut second = LinExpr::term(vars.task_offset[&tj], 1.0);
                    second.add_term(vars.task_offset[&ti], -1.0);
                    second.add_term(lambda, -big_m);
                    model.add_constraint(
                        format!("noexec2[{ti}][{tj}][{ki}][{kj}]"),
                        second,
                        ttw_milp::ConstraintOp::Le,
                        -e_j - p_j * kj as f64 + p_i * ki as f64,
                    );
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // C4 — round-independent part of the message-allocation validity:
    // leftover linking and the total-count equality rows (C4.4), which start
    // empty and are joined by every round added later.
    // ------------------------------------------------------------------
    let mut c44: BTreeMap<MessageId, ConstraintId> = BTreeMap::new();
    for &m in &messages {
        let p = system.message_period(m) as f64 / tr;
        let n_inst = (hyper_us / system.message_period(m)) as f64;
        let o = vars.message_offset[&m];
        let d = vars.message_deadline[&m];
        let r0 = leftover[&m];
        let name = system.message(m).name.clone();

        // Leftover linking: r0 = 1 ⇔ o + d > p.
        // o + d ≥ r0·(p + mm)
        let mut lower = LinExpr::term(o, -1.0);
        lower.add_term(d, -1.0);
        lower.add_term(r0, p + MM);
        model.add_constraint(
            format!("leftover_lb[{name}]"),
            lower,
            ttw_milp::ConstraintOp::Le,
            0.0,
        );
        // o + d ≤ p + p·r0
        let mut upper = LinExpr::term(o, 1.0);
        upper.add_term(d, 1.0);
        upper.add_term(r0, -p);
        model.add_constraint(
            format!("leftover_ub[{name}]"),
            upper,
            ttw_milp::ConstraintOp::Le,
            p,
        );

        // (C4.4) as many slots as instances over one hyperperiod (Eq. 46).
        let id = model.add_constraint(
            format!("c44[{name}]"),
            LinExpr::new(),
            ttw_milp::ConstraintOp::Eq,
            n_inst,
        );
        c44.insert(m, id);
    }

    let mut instance = IlpInstance {
        model,
        vars,
        scale: tr,
        num_rounds: 0,
        hyper,
        tie_break,
        anchor_base: anchor_index,
        anchor_terms: num_anchor_terms,
        leftover,
        c44,
        warm_basis: None,
        workspace: RefCell::default(),
    };
    for _ in 0..num_rounds {
        instance.add_round(system, mode, config);
    }

    // ------------------------------------------------------------------
    // Minimal inheritance: pin the offsets of inherited applications to the
    // values already committed by an earlier mode's schedule. Entities not
    // part of this mode are ignored.
    // ------------------------------------------------------------------
    for (t, &offset) in &inherited.task_offsets {
        if let Some(&v) = instance.vars.task_offset.get(t) {
            instance.model.fix_var(v, offset / tr);
        }
    }
    for (m, &offset) in &inherited.message_offsets {
        if let Some(&v) = instance.vars.message_offset.get(m) {
            instance.model.fix_var(v, offset / tr);
        }
    }
    for (m, &deadline) in &inherited.message_deadlines {
        if let Some(&v) = instance.vars.message_deadline.get(m) {
            instance.model.fix_var(v, deadline / tr);
        }
    }

    Ok(instance)
}

/// Converts an optimal MILP solution back into a [`ModeSchedule`].
///
/// # Panics
///
/// Panics if `solution` is not optimal (it carries no variable values).
pub fn extract_schedule(
    system: &System,
    mode: ModeId,
    config: &SchedulerConfig,
    instance: &IlpInstance,
    solution: &Solution,
    stats: SynthesisStats,
) -> ModeSchedule {
    assert!(
        solution.is_optimal(),
        "extract_schedule requires an optimal solution"
    );
    let tr = instance.scale;
    let vars = &instance.vars;

    // Canonical continuous values: the branch-and-bound path (warm starts,
    // cutting planes, branching order) leaves path-dependent float noise in
    // the offsets. With the integer assignment fixed, a cold LP re-solve is
    // deterministic in the model alone, so every solver configuration that
    // reaches the same integers exports byte-identical schedules (the
    // differential harness compares them byte-for-byte). Falls back to the
    // raw solution values if the polish solve fails for any reason.
    let polished = instance.polish(solution);
    let solution = polished.as_ref().unwrap_or(solution);

    let task_offsets = vars
        .task_offset
        .iter()
        .map(|(&t, &v)| (t, solution.value(v) * tr))
        .collect();
    let message_offsets = vars
        .message_offset
        .iter()
        .map(|(&m, &v)| (m, solution.value(v) * tr))
        .collect();
    let message_deadlines = vars
        .message_deadline
        .iter()
        .map(|(&m, &v)| (m, solution.value(v) * tr))
        .collect();
    let app_latencies: BTreeMap<_, _> = vars
        .app_latency
        .iter()
        .map(|(&a, &v)| (a, solution.value(v) * tr))
        .collect();

    let mut rounds: Vec<ScheduledRound> = (0..instance.num_rounds)
        .map(|j| {
            let start = solution.value(vars.round_start[j]) * tr;
            let slots: Vec<MessageId> = vars.alloc[j]
                .iter()
                .filter(|(_, &v)| solution.int_value(v) == 1)
                .map(|(&m, _)| m)
                .collect();
            ScheduledRound { start, slots }
        })
        .collect();
    rounds.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite round starts"));

    let total_latency = app_latencies.values().sum();

    ModeSchedule {
        mode,
        hyperperiod: system.hyperperiod(mode),
        round_duration: config.round_duration,
        slots_per_round: config.slots_per_round,
        task_offsets,
        message_offsets,
        message_deadlines,
        rounds,
        app_latencies,
        total_latency,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use crate::fixtures;
    use crate::time::millis;

    fn fig3_config() -> SchedulerConfig {
        // 10 ms rounds with 5 slots keep the fixture instance small and fast.
        SchedulerConfig::new(millis(10), 5)
    }

    #[test]
    fn build_produces_expected_variable_classes() {
        let (sys, mode) = fixtures::fig3_system();
        let instance =
            build_ilp_inherited(&sys, mode, &fig3_config(), 2, &InheritedOffsets::none())
                .expect("valid instance");
        // Offsets, allocations, sigma, ka/kd and latency variables all appear.
        let names: Vec<String> = instance
            .model
            .variables()
            .map(|(_, v)| v.name.clone())
            .collect();
        for marker in [
            "o[", "om[", "dm[", "r[0]", "y[0][", "sigma[", "ka[", "kd[", "delta[",
        ] {
            assert!(
                names
                    .iter()
                    .any(|n| n.starts_with(marker) || n.contains(marker)),
                "model missing a `{marker}` variable"
            );
        }
        assert_eq!(instance.num_rounds(), 2);
        assert!(instance.model.num_constraints() > 20);
    }

    #[test]
    fn zero_round_instance_with_messages_is_infeasible() {
        let (sys, mode) = fixtures::fig3_system();
        let instance =
            build_ilp_inherited(&sys, mode, &fig3_config(), 0, &InheritedOffsets::none())
                .expect("valid instance");
        let solution = instance.model.solve().expect("solver runs");
        assert!(!solution.is_optimal());
    }

    #[test]
    fn one_round_is_infeasible_for_fig3() {
        // m1/m2 must be served before τ3 which produces m3, so a single round
        // cannot carry all three messages.
        let (sys, mode) = fixtures::fig3_system();
        let instance =
            build_ilp_inherited(&sys, mode, &fig3_config(), 1, &InheritedOffsets::none())
                .expect("valid instance");
        let solution = instance.model.solve().expect("solver runs");
        assert!(!solution.is_optimal());
    }

    #[test]
    fn two_rounds_are_feasible_for_fig3() {
        let (sys, mode) = fixtures::fig3_system();
        let instance =
            build_ilp_inherited(&sys, mode, &fig3_config(), 2, &InheritedOffsets::none())
                .expect("valid instance");
        let solution = instance.model.solve().expect("solver runs");
        assert!(solution.is_optimal(), "Fig. 3 schedules with 2 rounds");
        let schedule = extract_schedule(
            &sys,
            mode,
            &fig3_config(),
            &instance,
            &solution,
            SynthesisStats::default(),
        );
        assert_eq!(schedule.num_rounds(), 2);
        assert_eq!(schedule.total_slots_used(), 3);
        assert!(schedule.total_latency > 0.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (sys, mode) = fixtures::fig3_system();
        let bad = SchedulerConfig::new(0, 5);
        assert!(build_ilp_inherited(&sys, mode, &bad, 1, &InheritedOffsets::none()).is_err());
    }

    #[test]
    fn growing_an_instance_matches_a_from_scratch_build() {
        let (sys, mode) = fixtures::fig3_system();
        let config = fig3_config();
        let mut grown = build_ilp_inherited(&sys, mode, &config, 1, &InheritedOffsets::none())
            .expect("valid instance");
        grown.add_round(&sys, mode, &config);
        let fresh = build_ilp_inherited(&sys, mode, &config, 2, &InheritedOffsets::none())
            .expect("valid instance");
        assert_eq!(grown.num_rounds(), 2);
        assert_eq!(grown.model.num_vars(), fresh.model.num_vars());
        assert_eq!(grown.model.num_constraints(), fresh.model.num_constraints());
        // Both reach the same optimum (the grown model adds the same rows,
        // only in a different order).
        let a = grown.model.solve().expect("solver runs");
        let b = fresh.model.solve().expect("solver runs");
        assert!(a.is_optimal() && b.is_optimal());
        assert!(
            (a.objective - b.objective).abs() < 1e-6,
            "grown {} vs fresh {}",
            a.objective,
            b.objective
        );
    }

    #[test]
    fn inherited_offsets_are_pinned_in_the_solution() {
        let (sys, mode) = fixtures::fig3_system();
        let config = fig3_config();
        // Synthesize once, then rebuild with every ctrl offset pinned to the
        // synthesized values: the new solution must reproduce them exactly.
        let schedule = crate::synthesis::synthesize_mode(&sys, mode, &config).expect("feasible");
        let app = sys.application_id("ctrl").expect("app exists");
        let mut pins = InheritedOffsets::none();
        pins.import_application(&sys, app, &schedule);
        let instance = build_ilp_inherited(&sys, mode, &config, schedule.num_rounds(), &pins)
            .expect("valid instance");
        let solution = instance.model.solve().expect("solver runs");
        assert!(solution.is_optimal(), "pinned instance stays feasible");
        let pinned = extract_schedule(
            &sys,
            mode,
            &config,
            &instance,
            &solution,
            SynthesisStats::default(),
        );
        for (t, &offset) in &schedule.task_offsets {
            assert!(
                (pinned.task_offsets[t] - offset).abs() < 1e-6,
                "task {t} moved from {offset} to {}",
                pinned.task_offsets[t]
            );
        }
        for (m, &offset) in &schedule.message_offsets {
            assert!((pinned.message_offsets[m] - offset).abs() < 1e-6);
        }
    }

    #[test]
    fn warm_started_sweep_matches_fresh_builds() {
        // Algorithm 1's R_M sweep as the ILP backend runs it: one instance
        // grown 0 → 1 → 2 rounds and solved warm at every step, against fresh
        // cold builds of the same sizes. Every attempt reaches the same
        // verdict, the sweep stops at the same round count, and the winners
        // have the same optimum and latency.
        let (sys, mode) = fixtures::fig3_system();
        let config = fig3_config();
        let latency = |instance: &IlpInstance, solution: &Solution| {
            extract_schedule(
                &sys,
                mode,
                &config,
                instance,
                solution,
                SynthesisStats::default(),
            )
            .total_latency
        };
        let mut grown = build_ilp_inherited(&sys, mode, &config, 0, &InheritedOffsets::none())
            .expect("valid instance");
        let (mut warm_iterations, mut cold_iterations) = (0usize, 0usize);
        let mut winner = None;
        for rounds in 0..=3usize {
            while grown.num_rounds() < rounds {
                grown.add_round(&sys, mode, &config);
            }
            let warm = grown.solve().expect("solver runs");
            let fresh = build_ilp_inherited(&sys, mode, &config, rounds, &InheritedOffsets::none())
                .expect("valid instance");
            let cold = fresh.model.solve().expect("solver runs");
            warm_iterations += warm.simplex_iterations;
            cold_iterations += cold.simplex_iterations;
            assert_eq!(
                warm.is_optimal(),
                cold.is_optimal(),
                "verdicts at R={rounds}"
            );
            if warm.is_optimal() {
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-6,
                    "warm {} vs cold {}",
                    warm.objective,
                    cold.objective
                );
                winner = Some((rounds, latency(&grown, &warm), latency(&fresh, &cold)));
                break;
            }
        }
        let (rounds, warm_latency, cold_latency) = winner.expect("Fig. 3 is feasible");
        assert_eq!(rounds, 2, "Fig. 3 schedules with 2 rounds");
        assert!(
            (warm_latency - cold_latency).abs() < 1e-6,
            "warm latency {warm_latency} vs cold {cold_latency}"
        );
        // On an instance this small the warm basis can land on a different
        // (equally optimal) vertex and branch differently, so the pivot
        // counts need not be strictly smaller — but a warm start must never
        // be catastrophically worse than rebuilding.
        assert!(
            warm_iterations <= cold_iterations * 2,
            "warm sweep pivoted far more than cold rebuilds ({warm_iterations} vs {cold_iterations})"
        );
    }

    #[test]
    fn pinned_warm_sweep_survives_presolve_shape_changes() {
        // Regression guard: with inherited pins, presolve eliminates the
        // pinned columns, so the root basis stored by `IlpInstance::solve`
        // references a reduced shape that changes when `add_round` grows the
        // model. The re-fed snapshot must be sanitized (stale entries fall
        // back to the row's logical column, or to a cold start), never
        // surfaced as an error — and the optimum must match a cold build.
        let (sys, mode) = fixtures::fig3_system();
        let config = fig3_config();
        let schedule = crate::synthesis::synthesize_mode(&sys, mode, &config).expect("feasible");
        let app = sys.application_id("ctrl").expect("app exists");
        let mut pins = InheritedOffsets::none();
        pins.import_application(&sys, app, &schedule);

        let mut grown = build_ilp_inherited(&sys, mode, &config, 0, &pins).expect("valid instance");
        let mut last = None;
        for rounds in 0..=3usize {
            while grown.num_rounds() < rounds {
                grown.add_round(&sys, mode, &config);
            }
            let warm = grown.solve().expect("solver runs despite stale snapshots");
            let cold = build_ilp_inherited(&sys, mode, &config, rounds, &pins)
                .expect("valid instance")
                .model
                .solve()
                .expect("cold solve runs");
            assert_eq!(warm.is_optimal(), cold.is_optimal(), "R={rounds}");
            if warm.is_optimal() {
                assert!(
                    (warm.objective - cold.objective).abs() < 1e-6,
                    "warm {} vs cold {} at R={rounds}",
                    warm.objective,
                    cold.objective
                );
                assert!(
                    warm.presolve_cols_removed > 0,
                    "pins must eliminate columns ({} removed at R={rounds})",
                    warm.presolve_cols_removed
                );
            }
            last = Some(warm);
        }
        assert!(last.expect("attempts ran").is_optimal());
    }

    #[test]
    fn pins_for_foreign_entities_are_ignored() {
        let (sys, mode) = fixtures::fig3_system();
        let mut pins = InheritedOffsets::none();
        pins.task_offsets
            .insert(crate::ids::TaskId::from_index(999), 1234.0);
        pins.message_offsets
            .insert(crate::ids::MessageId::from_index(999), 1234.0);
        let instance =
            build_ilp_inherited(&sys, mode, &fig3_config(), 2, &pins).expect("valid instance");
        assert!(instance.model.solve().expect("solver runs").is_optimal());
    }
}
