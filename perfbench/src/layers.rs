//! The traced replay of each `Engine` call, split into calls to each
//! layer's public functions in the order the engine makes them, with a
//! span around each call.
//!
//! The split mirrors `Engine::solve`, `count_instance`, `count_answers`,
//! `answers` and `apply_delta[_chained]`: plan-cache lookup (`plan`), tier
//! dispatch through the engine's registries (`engine`), the index cache
//! (`index`), and the kernel call the chosen tier makes (`solver`).  A
//! kernel call compiles its program the first time it meets an index, so
//! its span then includes the compile; [`compile_probe`] times that
//! compile again outside the operation.  Work that the engine does inside
//! one call but that a layer metric names on its own (the query
//! fingerprint) is probed after the operation, outside its wall time.

use crate::trace::Tracer;
use cq_core::{
    AnswerCountReport, AnswerMethod, AnswerPage, CountMethod, CountReport, Degree, DeltaReport,
    Engine, EngineReport, PreparedQuery, SolverChoice,
};
use cq_solver::{
    program_compilation_count, ForestProgram, SearchProgram, StairProgram, TreeDpProgram,
};
use cq_structures::{index_build_count, ConjunctiveQuery, DeltaBatch, Structure, StructureIndex};
use std::sync::Arc;

/// What one operation returned, compared against an oracle after the
/// measured window.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    Decision(EngineReport),
    Count(CountReport),
    AnswerCount(AnswerCountReport),
    Page(AnswerPage),
    /// Tuple operations a delta applied.
    Applied(usize),
}

/// Which program a kernel call compiled, for [`compile_probe`].
#[derive(Debug, Clone, Copy)]
pub enum Compiled {
    DecideForest,
    DecideStair,
    DecideTree,
    DecideSearch(bool),
    CountForest,
    CountTree,
}

/// Plan-cache lookup, then the engine's index lookup, named `index.build`
/// when the lookup had to build.
fn plan_and_index(
    t: &mut Tracer,
    engine: &Engine,
    query: &Structure,
    db: &Structure,
) -> (Arc<PreparedQuery>, Arc<StructureIndex>) {
    let plan = t.span("plan.prepare", |_| engine.prepare(query));
    let index = lookup_index(t, engine, db);
    (plan, index)
}

pub fn lookup_index(t: &mut Tracer, engine: &Engine, db: &Structure) -> Arc<StructureIndex> {
    let (index, built) = t.span_named(
        |_| {
            let before = index_build_count();
            let index = engine.instance_index(db);
            (index, index_build_count() > before)
        },
        |(_, built)| {
            if *built {
                "index.build"
            } else {
                "index.lookup"
            }
        },
    );
    if built {
        t.add("index.builds", 1.0);
    }
    index
}

/// `Engine::solve`, layer by layer.  Returns the report and the program
/// the kernel call compiled, if it compiled one.
pub fn decide(
    t: &mut Tracer,
    engine: &Engine,
    query: &Structure,
    db: &Structure,
) -> (
    EngineReport,
    Option<Compiled>,
    Arc<PreparedQuery>,
    Arc<StructureIndex>,
) {
    let (plan, index) = plan_and_index(t, engine, query, db);
    let solver = t.span("engine.dispatch", |_| {
        engine
            .registry()
            .select(&plan, engine.config())
            .expect("the standard registry admits every query")
    });
    let choice = solver.choice();
    let before = program_compilation_count();
    let outcome = match choice {
        SolverChoice::TreeDepth => t.span("solver.forest", |_| solver.solve(&plan, db, &index)),
        SolverChoice::PathDecomposition => {
            t.span("solver.stair", |_| solver.solve(&plan, db, &index))
        }
        SolverChoice::TreeDecomposition => {
            t.span("solver.tree", |_| solver.solve(&plan, db, &index))
        }
        SolverChoice::Backtracking => t.span("solver.search", |_| solver.solve(&plan, db, &index)),
    };
    if choice == SolverChoice::TreeDepth {
        t.add("solver.forest_runs", 1.0);
        t.add(
            "solver.forest_assignments",
            outcome.work.unwrap_or(0) as f64,
        );
    }
    let compiled = (program_compilation_count() > before).then_some(match choice {
        SolverChoice::TreeDepth => Compiled::DecideForest,
        SolverChoice::PathDecomposition => Compiled::DecideStair,
        SolverChoice::TreeDecomposition => Compiled::DecideTree,
        SolverChoice::Backtracking => {
            Compiled::DecideSearch(engine.config().backtrack.fail_first_ordering)
        }
    });
    let report = EngineReport {
        exists: outcome.exists,
        choice,
        degree_hint: plan.degree_hint(),
        widths: plan.widths(),
        evaluated_query_size: plan.evaluated_size(),
    };
    (report, compiled, plan, index)
}

/// `Engine::count_instance`, layer by layer.
pub fn count(
    t: &mut Tracer,
    engine: &Engine,
    query: &Structure,
    db: &Structure,
) -> (
    CountReport,
    Option<Compiled>,
    Arc<PreparedQuery>,
    Arc<StructureIndex>,
) {
    let (plan, index) = plan_and_index(t, engine, query, db);
    let (widths, solver) = t.span("engine.dispatch", |_| {
        assert!(
            plan.counts_for(query),
            "a cached plan for a distinct non-isomorphic query (fingerprint collision)"
        );
        let widths = plan.counting_widths();
        let solver = engine
            .count_registry()
            .select(&plan, engine.config())
            .expect("the standard counting registry admits every query");
        (widths, solver)
    });
    let method = solver.method();
    let before = program_compilation_count();
    let evaluation = match method {
        CountMethod::ForestSumProduct => {
            t.span("solver.forest", |_| solver.count(&plan, db, &index))
        }
        CountMethod::TreeDecompositionDp => {
            t.span("solver.tree", |_| solver.count(&plan, db, &index))
        }
        CountMethod::BruteForce => t.span("solver.brute", |_| solver.count(&plan, db, &index)),
    };
    if method == CountMethod::ForestSumProduct {
        t.add("solver.forest_runs", 1.0);
        t.add(
            "solver.forest_assignments",
            evaluation.work.unwrap_or(0) as f64,
        );
    }
    let compiled = (program_compilation_count() > before).then_some(match method {
        CountMethod::ForestSumProduct => Compiled::CountForest,
        _ => Compiled::CountTree,
    });
    let report = CountReport {
        count: evaluation.outcome,
        method,
        degree_hint: degree(engine, widths),
        widths,
        counted_query_size: plan.original().universe_size(),
    };
    (report, compiled, plan, index)
}

/// Compile again, outside any operation, the program a kernel call just
/// compiled, inside a `solver.compile` span.
pub fn compile_probe(t: &mut Tracer, plan: &PreparedQuery, index: &StructureIndex, c: Compiled) {
    t.span("solver.compile", |_| match c {
        Compiled::DecideForest => {
            ForestProgram::compile(plan.evaluated(), index, &plan.analysis().elimination_forest);
        }
        Compiled::DecideStair => {
            StairProgram::compile(plan.evaluated(), index, plan.staircase());
        }
        Compiled::DecideTree => {
            TreeDpProgram::compile(plan.evaluated(), index, &plan.analysis().tree_decomposition);
        }
        Compiled::DecideSearch(fail_first) => {
            SearchProgram::compile(plan.evaluated(), index, fail_first);
        }
        Compiled::CountForest => {
            ForestProgram::compile(
                plan.original(),
                index,
                &plan.counting_analysis().elimination_forest,
            );
        }
        Compiled::CountTree => {
            TreeDpProgram::compile(
                plan.original(),
                index,
                &plan.counting_analysis().tree_decomposition,
            );
        }
    });
}

/// What the front half of an answer call hands the kernel.
struct AnswerFront {
    index: Arc<StructureIndex>,
    program: Arc<cq_solver::AnswerProgram>,
    widths: cq_decomp::WidthProfile,
    free_count: usize,
}

/// The shared front half of `Engine::count_answers` and `Engine::answers`:
/// canonical structure, plan, licence check, index and answer program.
/// `None` when the query is beyond the treewidth threshold (the engine's
/// brute-force fallback, which the workloads never take).
fn answer_front(
    t: &mut Tracer,
    engine: &Engine,
    query: &ConjunctiveQuery,
    db: &Structure,
) -> Option<AnswerFront> {
    let canonical = t.span("logic.canonical", |_| {
        query
            .canonical_structure()
            .expect("workload queries are well formed")
    });
    let free = query.free_element_indices();
    let plan = t.span("plan.prepare", |_| engine.prepare(&canonical));
    assert!(
        *plan.original() == canonical,
        "the cached answer plan must be the submitted structure"
    );
    let widths = t.span("engine.dispatch", |_| plan.counting_widths());
    if widths.treewidth > engine.config().treewidth_threshold {
        return None;
    }
    let index = lookup_index(t, engine, db);
    let (program, _) = t.span_named(
        |_| {
            let before = program_compilation_count();
            let program = plan.answer_program(&index, &free);
            (program, program_compilation_count() > before)
        },
        |(_, compiled)| {
            if *compiled {
                "solver.compile"
            } else {
                "plan.answer_program"
            }
        },
    );
    Some(AnswerFront {
        index,
        program,
        widths,
        free_count: free.len(),
    })
}

fn degree(engine: &Engine, widths: cq_decomp::WidthProfile) -> Degree {
    let c = engine.config();
    Degree::from_boundedness(
        widths.treewidth <= c.treewidth_threshold,
        widths.pathwidth <= c.pathwidth_threshold,
        widths.treedepth <= c.treedepth_threshold,
    )
}

/// `Engine::count_answers`, layer by layer.
pub fn count_answers(
    t: &mut Tracer,
    engine: &Engine,
    query: &ConjunctiveQuery,
    db: &Structure,
) -> AnswerCountReport {
    let Some(front) = answer_front(t, engine, query, db) else {
        return t.span("engine.fallback", |_| engine.count_answers(query, db));
    };
    let answers = t.span("solver.answer_count", |_| {
        front.program.count_answers(&front.index)
    });
    AnswerCountReport {
        answers,
        method: AnswerMethod::TreeDecompositionDp,
        degree_hint: degree(engine, front.widths),
        widths: front.widths,
        answer_width: front.program.answer_width(),
        free_count: front.free_count,
    }
}

/// `Engine::answers`, layer by layer: the cursor's first step (the descent
/// to the least answer) and its remaining steps (skipped rows, page rows
/// and the one look-ahead step behind `has_more`) in two spans.
pub fn page(
    t: &mut Tracer,
    engine: &Engine,
    query: &ConjunctiveQuery,
    db: &Structure,
    offset: u64,
    limit: usize,
) -> AnswerPage {
    let Some(front) = answer_front(t, engine, query, db) else {
        return t.span("engine.fallback", |_| {
            engine.answers(query, db, offset, limit)
        });
    };
    let mut cursor = front.program.cursor(&front.index);
    let end = offset + limit as u64;
    let mut rows = Vec::new();
    let take = |i: u64, row: Vec<u32>, rows: &mut Vec<Vec<u32>>| {
        if i >= offset && i < end {
            rows.push(row);
        }
    };
    let first = t.span("solver.cursor_first", |_| cursor.next());
    let mut has_more = false;
    if let Some(row) = first {
        take(0, row, &mut rows);
        let mut steps = 0u64;
        has_more = t.span("solver.cursor_steps", |_| {
            let mut i = 1u64;
            while i <= end {
                steps += 1;
                match cursor.next() {
                    Some(row) if i < end => take(i, row, &mut rows),
                    Some(_) => return true,
                    None => return false,
                }
                i += 1;
            }
            false
        });
        t.add("solver.cursor_steps", steps as f64);
    }
    AnswerPage {
        rows,
        offset,
        has_more,
        method: AnswerMethod::TreeDecompositionDp,
    }
}

/// `Engine::apply_delta` (first round) or `apply_delta_chained`.
pub fn apply_delta(
    t: &mut Tracer,
    engine: &Engine,
    base: &Structure,
    previous: Option<DeltaReport>,
    batch: &DeltaBatch,
) -> DeltaReport {
    let before = index_build_count();
    let report = t.span("delta.apply", |_| match previous {
        None => engine.apply_delta(base, batch),
        Some(prev) => engine.apply_delta_chained(prev, batch),
    });
    t.add("delta.tuple_ops", batch.len() as f64);
    t.add("delta.index_builds", (index_build_count() - before) as f64);
    report.expect("workload deltas are valid for the content they apply to")
}

/// The query fingerprint, probed outside the operation that paid for it
/// inside `Engine::prepare`.
pub fn fingerprint_probe(t: &mut Tracer, query: &Structure) {
    t.span("logic.fingerprint", |_| cq_logic::query_fingerprint(query));
}
