//! The measured window, the traced replay and the per-layer report shared
//! by the single-threaded `Engine` workloads.

use crate::common::TierMix;
use crate::layers::{self, Compiled, Output};
use crate::metrics::{self, Kind, Metric, Recorder};
use crate::trace::{Aggregate, Tracer, LAYERS};
use cq_core::{CacheStats, Engine, EngineConfig, IndexStats, PrepStats, PreparedQuery};
use cq_solver::program_compilation_count;
use cq_structures::{Structure, StructureIndex};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one run prints: the result line's fields plus human-readable
/// notes printed before it.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    pub notes: Vec<String>,
}

/// Work a traced operation leaves to be measured after it closes.
pub enum Probe {
    Fingerprint(Structure),
    Compile(Arc<PreparedQuery>, Arc<StructureIndex>, Compiled),
}

impl Probe {
    pub fn run(self, t: &mut Tracer) {
        match self {
            Probe::Fingerprint(q) => layers::fingerprint_probe(t, &q),
            Probe::Compile(plan, index, c) => layers::compile_probe(t, &plan, &index, c),
        }
    }
}

/// `Engine::solve`, replayed layer by layer, with its probes queued.
pub fn replay_decide(
    t: &mut Tracer,
    engine: &Engine,
    query: &Structure,
    db: &Structure,
    probes: &mut Vec<Probe>,
) -> Output {
    let (report, compiled, plan, index) = layers::decide(t, engine, query, db);
    probes.push(Probe::Fingerprint(query.clone()));
    if let Some(c) = compiled {
        probes.push(Probe::Compile(plan, index, c));
    }
    Output::Decision(report)
}

/// `Engine::count_instance`, replayed layer by layer.
pub fn replay_count(
    t: &mut Tracer,
    engine: &Engine,
    query: &Structure,
    db: &Structure,
    probes: &mut Vec<Probe>,
) -> Output {
    let (report, compiled, plan, index) = layers::count(t, engine, query, db);
    probes.push(Probe::Fingerprint(query.clone()));
    if let Some(c) = compiled {
        probes.push(Probe::Compile(plan, index, c));
    }
    Output::Count(report)
}

/// A single-threaded workload over one in-process [`Engine`].
pub trait EngineWorkload {
    type Op;
    type State;
    /// Set-up repetitions whose median is `setup_s`.
    const SETUP_REPS: usize;
    /// A fresh engine with its indexes built, plans prepared and programs
    /// warm: the program set-up `setup_s` times.
    fn setup(&self) -> Self::State;
    fn engine<'a>(&self, state: &'a Self::State) -> &'a Engine;
    /// The operations of block `b`, deterministic in the seed and `b`.
    /// Every block holds the same mix, so a window of whole blocks has
    /// the same composition whatever its length.
    fn block(&self, b: usize) -> Vec<Self::Op>;
    fn kind(&self, op: &Self::Op) -> Kind;
    /// One operation through the public `Engine` API.
    fn run(&self, state: &mut Self::State, op: &Self::Op) -> Output;
    /// The same operation split into layer calls.
    fn replay(
        &self,
        state: &mut Self::State,
        op: &Self::Op,
        t: &mut Tracer,
        probes: &mut Vec<Probe>,
    ) -> Output;
    /// Compare the outputs of the executed operations, in order, with an
    /// oracle; returns the number of comparisons.
    fn check(&self, executed: &[(Self::Op, Output)]) -> Result<usize, String>;
    /// The distinct query structures, for the preparation probes.
    fn queries(&self) -> Vec<Structure>;
    /// The databases the set-up indexes, for the index probes.
    fn resident(&self) -> Vec<Structure>;
}

struct Window<Op> {
    rec: Recorder,
    executed: Vec<(Op, Output)>,
    /// Latency of every executed operation, in order (failed ones too).
    latencies: Vec<Duration>,
    blocks: usize,
    mix: TierMix,
    compilations: u64,
}

/// Run whole blocks until `budget` of measured time has passed.
fn window<W: EngineWorkload>(w: &W, state: &mut W::State, budget: Duration) -> Window<W::Op> {
    let mut win = Window {
        rec: Recorder::default(),
        executed: Vec::new(),
        latencies: Vec::new(),
        blocks: 0,
        mix: TierMix::default(),
        compilations: 0,
    };
    let mut measured = Duration::ZERO;
    while measured < budget {
        let ops = w.block(win.blocks);
        let compilations = program_compilation_count();
        let block_start = Instant::now();
        let mut succeeded = 0;
        for op in ops {
            let kind = w.kind(&op);
            let start = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| w.run(state, &op)));
            let latency = start.elapsed();
            win.latencies.push(latency);
            match out {
                Ok(out) => {
                    win.rec.ok(kind, latency);
                    win.mix.observe(&out);
                    win.executed.push((op, out));
                    succeeded += 1;
                }
                Err(_) => win.rec.fail(kind),
            }
        }
        let wall = block_start.elapsed();
        win.rec.block(succeeded, wall);
        measured += wall;
        win.compilations += program_compilation_count() - compilations;
        win.blocks += 1;
    }
    win.rec.window = measured;
    win
}

fn median_duration(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

pub fn frac(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The hit and tier counters printed next to a workload's timings.
pub fn counter_notes(
    cache: &CacheStats,
    index: &IndexStats,
    mix: &TierMix,
    compilations: u64,
) -> String {
    let mut s = format!(
        "counters: plan.hit_frac {:.4} index.hit_frac {:.4} solver.compilations {compilations}",
        frac(cache.hits, cache.lookups),
        frac(index.hits, index.lookups)
    );
    for (name, share) in mix.shares() {
        s += &format!(" {name} {share:.4}");
    }
    s
}

/// The untraced run: set-up repetitions, the measured window, the checks.
pub fn measure<W: EngineWorkload>(w: &W, seconds: u64) -> Report {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..W::SETUP_REPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(w.setup());
        setups.push(start.elapsed());
    }
    let mut state = state.expect("at least one set-up");
    let setup_s = median_duration(setups).as_secs_f64();
    let win = window(w, &mut state, Duration::from_secs(seconds));
    let mut notes = vec![format!(
        "window: {:.2} s, {} blocks; setup_s is the median of {} set-ups",
        win.rec.window.as_secs_f64(),
        win.blocks,
        W::SETUP_REPS
    )];
    let engine = w.engine(&state);
    notes.push(counter_notes(
        &engine.cache_stats(),
        &engine.index_stats(),
        &win.mix,
        win.compilations,
    ));
    drop(state);
    let (metrics, kind_notes) = metrics::end_to_end(&win.rec, setup_s);
    notes.extend(kind_notes);
    let check_start = Instant::now();
    let correct = match w.check(&win.executed) {
        Ok(n) => {
            notes.push(format!(
                "checks: {n} comparisons agree ({:.2} s)",
                check_start.elapsed().as_secs_f64()
            ));
            true
        }
        Err(e) => {
            notes.push(format!("CHECK FAILED: {e}"));
            false
        }
    };
    Report {
        correct,
        attempted: win.rec.attempted(),
        failed: win.rec.failed(),
        metrics,
        notes,
    }
}

/// The traced run: an untraced pass for half the budget, then the same
/// operations replayed layer by layer, with spans, on a fresh set-up.
pub fn trace<W: EngineWorkload>(w: &W, seconds: u64) -> Report {
    let mut t = Tracer::new(true);
    probe_preparation(&mut t, &w.queries(), &w.resident());
    let mut state = w.setup();
    let win = window(w, &mut state, Duration::from_secs(seconds).div_f64(2.0));
    drop(state);

    let mut state = w.setup();
    let before = EngineCounters::of(w.engine(&state));
    let mut replayed = Vec::new();
    let mut mix = TierMix::default();
    let mut compilations = 0;
    let mut probes = Vec::new();
    let mut failed = 0;
    for b in 0..win.blocks {
        for op in w.block(b) {
            let kind = w.kind(&op);
            let before = program_compilation_count();
            let out = catch_unwind(AssertUnwindSafe(|| {
                t.op(kind, |t| w.replay(&mut state, &op, t, &mut probes))
            }));
            compilations += program_compilation_count() - before;
            for p in probes.drain(..) {
                p.run(&mut t);
            }
            match out {
                Ok(out) => {
                    mix.observe(&out);
                    replayed.push((op, out));
                }
                Err(_) => failed += 1,
            }
        }
    }
    let after = EngineCounters::of(w.engine(&state));
    drop(state);

    let mut m = layer_metrics(&t, &mix, compilations);
    m.extend(metrics::kind_latencies(&win.rec).0);
    after.set_since(&before, &mut m);
    let untraced: Duration = win.latencies.iter().sum();
    set(
        &mut m,
        "trace.overhead_frac",
        t.op_wall().as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );

    let mut notes = vec![format!(
        "traced replay of {} blocks ({} operations)",
        win.blocks,
        replayed.len()
    )];
    let mut correct = true;
    for (what, executed) in [("untraced", &win.executed), ("replayed", &replayed)] {
        match w.check(executed) {
            Ok(n) => notes.push(format!("checks ({what}): {n} comparisons agree")),
            Err(e) => {
                notes.push(format!("CHECK FAILED ({what}): {e}"));
                correct = false;
            }
        }
    }
    Report {
        correct,
        attempted: (replayed.len() + failed) as u64 + win.rec.attempted(),
        failed: failed as u64 + win.rec.failed(),
        metrics: m,
        notes,
    }
}

/// An engine's plan-cache, index-cache and preparation counters.
pub struct EngineCounters(CacheStats, IndexStats, PrepStats);

impl EngineCounters {
    pub fn of(engine: &Engine) -> EngineCounters {
        EngineCounters(
            engine.cache_stats(),
            engine.index_stats(),
            engine.prep_stats(),
        )
    }

    /// Set the cache hit shares and the work counts accrued since `before`.
    pub fn set_since(&self, before: &EngineCounters, m: &mut BTreeMap<String, Metric>) {
        let (cache, index, prep) = (&self.0, &self.1, &self.2);
        let lookups = cache.lookups - before.0.lookups;
        set(
            m,
            "plan.hit_frac",
            frac(cache.hits - before.0.hits, lookups),
        );
        set(
            m,
            "plan.width_dp_calls",
            (prep.total_width_calls() - before.2.total_width_calls()) as f64,
        );
        let lookups = index.lookups - before.1.lookups;
        set(
            m,
            "index.hit_frac",
            frac(index.hits - before.1.hits, lookups),
        );
        set(
            m,
            "index.hash_computes",
            (index.hash_computes - before.1.hash_computes) as f64,
        );
    }
}

pub fn set(m: &mut BTreeMap<String, Metric>, name: &str, value: f64) {
    m.get_mut(name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
        .value = value;
}

/// The preparation probes of a traced run, outside any operation: the
/// structural analysis and a cold `Engine::prepare` of every distinct
/// query, and an index build of every resident database.
pub fn probe_preparation(t: &mut Tracer, queries: &[Structure], resident: &[Structure]) {
    let cold = Engine::new(EngineConfig::default());
    for q in queries {
        t.span("decomp.analyze", |_| cq_decomp::analyze_structure(q));
        t.span("plan.prepare_cold", |_| cold.prepare(q));
    }
    let mut heap = 0usize;
    for db in resident {
        let index = t.span("index.build", |_| StructureIndex::new(db));
        heap += index.heap_bytes();
    }
    t.add("index.heap_bytes", heap as f64);
}

/// Every per-layer metric, with the names and units `BENCHMARK.json`
/// lists; the ones a workload's traffic never reaches stay 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.request_bytes", "bytes"),
    ("service.ping_rtt_ms", "ms"),
    ("service.coalesced_frac", "ratio"),
    ("service.refused_frac", "ratio"),
    ("service.unattributed_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.decode_ns_per_tuple", "ns"),
    ("codec.encode_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.lookup_ms", "ms"),
    ("index.hit_frac", "ratio"),
    ("index.hash_computes", "count"),
    ("index.heap_mb", "MB"),
    ("delta.apply_ms", "ms"),
    ("delta.tuple_ops", "count"),
    ("delta.index_builds", "count"),
    ("plan.prepare_cold_ms", "ms"),
    ("plan.prepare_warm_ms", "ms"),
    ("plan.hit_frac", "ratio"),
    ("plan.width_dp_calls", "count"),
    ("engine.dispatch_ms", "ms"),
    ("engine.tier_treedepth_frac", "ratio"),
    ("engine.tier_path_frac", "ratio"),
    ("engine.tier_tree_frac", "ratio"),
    ("engine.tier_backtrack_frac", "ratio"),
    ("engine.count_forest_frac", "ratio"),
    ("engine.count_tree_frac", "ratio"),
    ("engine.count_brute_frac", "ratio"),
    ("decomp.analyze_ms", "ms"),
    ("logic.fingerprint_us", "us"),
    ("solver.compile_ms", "ms"),
    ("solver.compilations", "count"),
    ("solver.forest_eval_ms", "ms"),
    ("solver.forest_assignments", "count"),
    ("solver.tree_eval_ms", "ms"),
    ("solver.stair_eval_ms", "ms"),
    ("solver.first_answer_ms", "ms"),
    ("solver.page_ms_per_row", "ms"),
    ("solver.answer_count_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// The per-kind breakdown metric names: mean self time per operation in
/// each layer, and the unattributed share of the operations' wall time.
pub fn breakdown_names() -> Vec<String> {
    let mut names = Vec::new();
    for kind in Kind::ALL {
        for layer in LAYERS {
            names.push(format!("{}.{layer}_ms", kind.name()));
        }
        names.push(format!("{}.unattributed_frac", kind.name()));
    }
    names
}

/// All per-layer metrics at 0, then the ones spans and counters give.
/// The per-kind latencies (`<kind>_p50_ms`, `<kind>_tail_ms`) of the
/// traced run's untraced pass are set by the caller.
pub fn layer_metrics(t: &Tracer, mix: &TierMix, compilations: u64) -> BTreeMap<String, Metric> {
    let mut m: BTreeMap<String, Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), Metric { value: 0.0, unit }))
        .collect();
    for kind in Kind::ALL {
        for stat in ["p50", "tail"] {
            let name = format!("{}_{stat}_ms", kind.name());
            m.insert(
                name,
                Metric {
                    value: 0.0,
                    unit: "ms",
                },
            );
        }
    }
    for name in breakdown_names() {
        let unit = if name.ends_with("_frac") {
            "ratio"
        } else {
            "ms"
        };
        m.insert(name, Metric { value: 0.0, unit });
    }
    let agg: Aggregate = t.aggregate();
    let mean = |name: &str| agg.name(name).mean_ms();
    set(&mut m, "codec.decode_ms", mean("codec.decode_request"));
    set(&mut m, "codec.encode_ms", mean("codec.encode_request"));
    let decoded = t.counter("codec.tuples_decoded");
    if decoded > 0.0 {
        let total = agg.name("codec.decode_request").self_time.as_secs_f64();
        set(&mut m, "codec.decode_ns_per_tuple", total * 1e9 / decoded);
    }
    set(&mut m, "index.build_ms", mean("index.build"));
    set(&mut m, "index.lookup_ms", mean("index.lookup"));
    set(
        &mut m,
        "index.heap_mb",
        t.counter("index.heap_bytes") / (1024.0 * 1024.0),
    );
    set(&mut m, "delta.apply_ms", mean("delta.apply"));
    let deltas = agg.name("delta.apply").calls as f64;
    if deltas > 0.0 {
        set(
            &mut m,
            "delta.tuple_ops",
            t.counter("delta.tuple_ops") / deltas,
        );
    }
    set(
        &mut m,
        "delta.index_builds",
        t.counter("delta.index_builds"),
    );
    set(&mut m, "plan.prepare_cold_ms", mean("plan.prepare_cold"));
    set(&mut m, "plan.prepare_warm_ms", mean("plan.prepare"));
    set(&mut m, "engine.dispatch_ms", mean("engine.dispatch"));
    for (name, share) in mix.shares() {
        set(&mut m, name, share);
    }
    set(&mut m, "decomp.analyze_ms", mean("decomp.analyze"));
    set(
        &mut m,
        "logic.fingerprint_us",
        mean("logic.fingerprint") * 1e3,
    );
    set(&mut m, "solver.compile_ms", mean("solver.compile"));
    set(&mut m, "solver.compilations", compilations as f64);
    set(&mut m, "solver.forest_eval_ms", mean("solver.forest"));
    let forest_runs = t.counter("solver.forest_runs");
    if forest_runs > 0.0 {
        set(
            &mut m,
            "solver.forest_assignments",
            t.counter("solver.forest_assignments") / forest_runs,
        );
    }
    set(&mut m, "solver.tree_eval_ms", mean("solver.tree"));
    set(&mut m, "solver.stair_eval_ms", mean("solver.stair"));
    set(
        &mut m,
        "solver.first_answer_ms",
        mean("solver.cursor_first"),
    );
    let steps = t.counter("solver.cursor_steps");
    if steps > 0.0 {
        let total = agg.name("solver.cursor_steps").self_time.as_secs_f64() * 1e3;
        set(&mut m, "solver.page_ms_per_row", total / steps);
    }
    set(
        &mut m,
        "solver.answer_count_ms",
        mean("solver.answer_count"),
    );
    for kind in Kind::ALL {
        for layer in LAYERS {
            set(
                &mut m,
                &format!("{}.{layer}_ms", kind.name()),
                agg.kind_layer_ms(kind, layer),
            );
        }
        set(
            &mut m,
            &format!("{}.unattributed_frac", kind.name()),
            agg.unattributed_frac(kind),
        );
    }
    m
}
