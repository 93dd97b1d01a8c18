//! Spans around the calls into each layer, kept in memory and aggregated
//! when the run ends.
//!
//! A span is named `layer.detail`; the part before the first dot is the
//! layer its self time is charged to.  Spans nest: a span's self time is
//! its duration minus the time its child spans cover.  Every span opened
//! inside [`Tracer::op`] belongs to that operation; the share of the
//! operation's wall time no top-level span covers is its unattributed
//! time.  A disabled tracer times operations but records no spans, which
//! is how the tracing overhead is measured.

use crate::metrics::Kind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The layers a per-kind breakdown reports, in the order of a request's
/// path through the program.
pub const LAYERS: [&str; 8] = [
    "service", "codec", "logic", "plan", "index", "engine", "solver", "delta",
];

struct SpanRec {
    op: Option<usize>,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

struct OpRec {
    kind: Kind,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    ops: Vec<OpRec>,
    stack: Vec<usize>,
    current_op: Option<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Self time and call count of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameStats {
    pub self_time: Duration,
    pub calls: u64,
}

impl NameStats {
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_time.as_secs_f64() * 1e3 / self.calls as f64
        }
    }
}

/// The aggregate of all spans of one traced replay.
#[derive(Default)]
pub struct Aggregate {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Self time per (operation kind, layer).
    pub by_kind_layer: BTreeMap<(Kind, &'static str), Duration>,
    /// (operation count, wall time, wall time covered by top-level spans).
    pub by_kind: BTreeMap<Kind, (u64, Duration, Duration)>,
}

impl Aggregate {
    pub fn name(&self, name: &str) -> NameStats {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per operation of `kind` spent in `layer`, in ms.
    pub fn kind_layer_ms(&self, kind: Kind, layer: &str) -> f64 {
        let Some(&(ops, _, _)) = self.by_kind.get(&kind) else {
            return 0.0;
        };
        let t = self
            .by_kind_layer
            .iter()
            .filter(|((k, l), _)| *k == kind && *l == layer)
            .map(|(_, d)| *d)
            .sum::<Duration>();
        t.as_secs_f64() * 1e3 / ops as f64
    }

    /// Share of the wall time of `kind`'s operations no span covers.
    pub fn unattributed_frac(&self, kind: Kind) -> f64 {
        match self.by_kind.get(&kind) {
            Some(&(_, wall, covered)) if !wall.is_zero() => {
                wall.saturating_sub(covered).as_secs_f64() / wall.as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            stack: Vec::new(),
            current_op: None,
            counters: BTreeMap::new(),
        }
    }

    /// Run one operation of `kind`, timing its wall clock.
    pub fn op<T>(&mut self, kind: Kind, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = self.epoch.elapsed();
        self.current_op = Some(self.ops.len());
        self.ops.push(OpRec {
            kind,
            start,
            end: start,
        });
        let out = f(self);
        let idx = self.current_op.take().expect("operation still open");
        self.ops[idx].end = self.epoch.elapsed();
        out
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_named(f, |_| name)
    }

    /// Run `f` inside a span whose name is chosen from its result (an
    /// index lookup that had to build, a program fetch that compiled).
    pub fn span_named<T>(
        &mut self,
        f: impl FnOnce(&mut Tracer) -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(SpanRec {
            op: self.current_op,
            name: "",
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let rec = &mut self.spans[idx];
        rec.end = self.epoch.elapsed();
        rec.name = name(&out);
        out
    }

    /// Add to a named counter (work counts, bytes, probe results).
    pub fn add(&mut self, counter: &'static str, value: f64) {
        *self.counters.entry(counter).or_default() += value;
    }

    pub fn counter(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0.0)
    }

    /// Total wall time of the operations.
    pub fn op_wall(&self) -> Duration {
        self.ops.iter().map(|o| o.end - o.start).sum()
    }

    pub fn aggregate(&self) -> Aggregate {
        let mut agg = Aggregate::default();
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        for op in &self.ops {
            let e = agg.by_kind.entry(op.kind).or_default();
            e.0 += 1;
            e.1 += op.end - op.start;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let self_time = dur.saturating_sub(child_time[i]);
            let n = agg.by_name.entry(s.name).or_default();
            n.self_time += self_time;
            n.calls += 1;
            if let Some(op) = s.op {
                let kind = self.ops[op].kind;
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *agg.by_kind_layer.entry((kind, layer)).or_default() += self_time;
                if s.parent.is_none() {
                    agg.by_kind.entry(kind).or_default().2 += dur;
                }
            }
        }
        agg
    }
}
