//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out once, as JSONL,
//! when the workload ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One timed interval: which layer call, when, caused by which span, for
/// which op of the lap.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `protocol.encode_reply`.
    pub name: &'static str,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span; `None` for an op's root span.
    pub parent: Option<usize>,
    /// Index of the op in the lap's op list — the identifier every span of
    /// one request shares.
    pub op: usize,
}

impl Span {
    /// Length of the interval in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on one thread — or, switched off, records nothing
/// and reads no clock, so traced and untraced laps run one and the same op
/// code.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            recording: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// The tracer of an untraced lap: `span` only runs its body.
    pub fn off() -> Self {
        Tracer {
            recording: false,
            ..Tracer::default()
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64 / 1e3
    }

    /// Sets the op identifier the following spans carry.
    pub fn set_op(&mut self, op: usize) {
        self.op = op;
    }

    /// Runs `body` inside a new span named `name`, a child of whichever span
    /// is open; `body` gets the tracer back to open children of its own.
    pub fn span<T>(&mut self, name: &'static str, body: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return body(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let value = body(self);
        self.open.pop();
        self.spans[index].end_us = self.now_us();
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part its direct children
    /// cover (children of one span never overlap — one thread records them).
    pub fn self_time_us(&self, index: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(index))
            .map(Span::duration_us)
            .sum();
        self.spans[index].duration_us() - children
    }

    /// Per op, the summed duration of the spans called `name`, in op order;
    /// ops without such a span are left out.
    pub fn per_op_us(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<usize, f64> = BTreeMap::new();
        for span in self.spans.iter().filter(|span| span.name == name) {
            *sums.entry(span.op).or_insert(0.0) += span.duration_us();
        }
        sums.into_values().collect()
    }

    /// `true` when every child lies inside its parent and siblings do not
    /// overlap — the condition under which a span's children plus its self
    /// time equal its duration exactly, so per-op shares add up to the op.
    pub fn nesting_is_sound(&self) -> bool {
        let mut last_child_end: BTreeMap<usize, f64> = BTreeMap::new();
        self.spans.iter().all(|span| {
            let Some(parent) = span.parent else {
                return span.start_us <= span.end_us;
            };
            let outer = &self.spans[parent];
            let after_sibling = last_child_end
                .insert(parent, span.end_us)
                .map_or(true, |end| end <= span.start_us);
            after_sibling && outer.start_us <= span.start_us && span.end_us <= outer.end_us
        })
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_us, span.end_us, span.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::default()
        }
    }

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, op: usize) -> Span {
        Span {
            name,
            start_us: start,
            end_us: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let tracer = fixed(vec![
            span("op", 0.0, 100.0, None, 0),
            span("a", 10.0, 40.0, Some(0), 0),
            span("a.inner", 15.0, 25.0, Some(1), 0),
            span("b", 50.0, 90.0, Some(0), 0),
        ]);
        assert_eq!(tracer.self_time_us(0), 30.0);
        assert_eq!(tracer.self_time_us(1), 20.0);
        assert_eq!(tracer.self_time_us(2), 10.0);
        assert!(tracer.nesting_is_sound());
        let children = tracer.spans()[1].duration_us() + tracer.spans()[3].duration_us();
        assert_eq!(
            children + tracer.self_time_us(0),
            tracer.spans()[0].duration_us()
        );
    }

    #[test]
    fn per_op_sums_group_by_op_and_name() {
        let tracer = fixed(vec![
            span("op", 0.0, 10.0, None, 0),
            span("x", 1.0, 3.0, Some(0), 0),
            span("x", 4.0, 5.0, Some(0), 0),
            span("op", 10.0, 20.0, None, 1),
            span("x", 11.0, 15.0, Some(3), 1),
        ]);
        assert_eq!(tracer.per_op_us("x"), vec![3.0, 4.0]);
        assert!(tracer.per_op_us("y").is_empty());
    }

    #[test]
    fn overlapping_or_escaping_children_are_unsound() {
        let overlapping = fixed(vec![
            span("op", 0.0, 10.0, None, 0),
            span("a", 1.0, 6.0, Some(0), 0),
            span("b", 5.0, 9.0, Some(0), 0),
        ]);
        assert!(!overlapping.nesting_is_sound());
        let escaping = fixed(vec![
            span("op", 0.0, 10.0, None, 0),
            span("a", 8.0, 12.0, Some(0), 0),
        ]);
        assert!(!escaping.nesting_is_sound());
    }

    #[test]
    fn a_tracer_switched_off_runs_the_body_and_records_nothing() {
        let mut tracer = Tracer::off();
        assert_eq!(tracer.span("op", |t| t.span("child", |_| 41) + 1), 42);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn live_spans_nest_and_serialize() {
        let mut tracer = Tracer::default();
        tracer.set_op(7);
        let value = tracer.span("op", |t| t.span("child", |_| 41) + 1);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"name\":\"op\""));
        assert!(text.contains("\"parent\":0,\"op\":7}"));
    }
}
