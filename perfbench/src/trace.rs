//! Spans the benchmark records around its own calls into the stack, plus
//! one `coolnet-obs` snapshot delta per operation.
//!
//! An *operation* is one unit of benchmark work (one `evaluate_problem1`
//! call, one `run_scenario` call, one serve batch). Spans nest inside
//! operations; every span carries the id of the operation that encloses
//! it. A disabled tracer records nothing and reads no clock, so an
//! untraced pass runs the same calls as a traced one.

use coolnet::obs::{snapshot, MetricsDelta};
use serde::Serialize;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    /// What was called (`evaluate.build`, `netscore.p1`, ...).
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Id of the enclosing operation (`0` outside any operation).
    pub op: u64,
}

impl SpanRecord {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// One operation and the `coolnet-obs` counters it moved.
#[derive(Debug, Clone, Serialize)]
pub struct OpRecord {
    /// Operation id, 1-based in start order.
    pub id: u64,
    /// The operation's span name.
    pub name: String,
    /// Free-form label (case or preset name).
    pub label: String,
    /// Wall time in seconds.
    pub secs: f64,
    /// Counter and histogram growth inside the operation.
    pub delta: MetricsDelta,
}

/// Records spans and per-operation metric deltas when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    ops: Vec<OpRecord>,
    current_op: u64,
}

impl Tracer {
    /// A tracer; a disabled one is inert.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: Vec::new(),
            current_op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns_since_origin(Instant::now());
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.current_op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns_since_origin(Instant::now());
        out
    }

    /// Records a span whose clock readings were taken elsewhere (e.g. on a
    /// thread blocked in a `wait`), under the current span and operation.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(SpanRecord {
            name: name.to_owned(),
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent: self.stack.last().copied(),
            op: self.current_op,
        });
    }

    /// Runs `f` as a new operation: a span plus the `coolnet-obs` delta
    /// it caused. Operations do not nest.
    pub fn op<T>(&mut self, name: &str, label: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.ops.len() as u64 + 1;
        self.current_op = id;
        let before = snapshot();
        let started = Instant::now();
        let out = self.span(name, f);
        let secs = started.elapsed().as_secs_f64();
        let delta = snapshot().delta_since(&before);
        self.current_op = 0;
        self.ops.push(OpRecord {
            id,
            name: name.to_owned(),
            label: label.to_owned(),
            secs,
            delta,
        });
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Every recorded operation, in start order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Sum of every operation's delta of counter `name`.
    pub fn op_counter_sum(&self, name: &str) -> u64 {
        self.ops.iter().map(|o| o.delta.counter(name)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_operation() {
        let mut tr = Tracer::new(true);
        tr.op("outer", "a", |tr| {
            tr.span("inner", |_| ());
        });
        tr.span("loose", |_| ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[0].op), (None, 1));
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 1));
        assert_eq!((spans[2].parent, spans[2].op), (None, 0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tr.ops().len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.op("op", "", |tr| tr.span("s", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty() && tr.ops().is_empty());
    }
}
