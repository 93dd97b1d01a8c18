//! `bulk`: decide and count the bulk family over a stream of distinct
//! warehouse-shaped databases of ~10^3 tuples, through one in-process
//! `Engine`; no (query, database) pair repeats within a run.

use crate::common::{chain_endpoints_query, derive, Rng};
use crate::layers::{self, Output};
use crate::metrics::Kind;
use crate::runner::{replay_count, replay_decide, EngineWorkload, Probe};
use crate::trace::Tracer;
use cq_core::{CountOutcome, DeltaReport, Engine, EngineConfig, PreparedQuery};
use cq_structures::{
    answers_bruteforce, count_homomorphisms_bruteforce, ConjunctiveQuery, DeltaBatch, Structure,
    StructureIndex,
};
use cq_workloads::{mutation_traffic, scale_corpus, scale_join_queries};
use std::sync::Arc;

pub const ELEMS: usize = 250;
pub const FACT_TUPLES: usize = 330;
pub const SELECTIVE_TUPLES: usize = 30;
/// The database stream is fixed: block `b` reads the same databases in
/// every run, so runs compare like with like; the run seed draws the
/// update batches and the order of each block.  With a seeded stream the
/// median block cost moved 8% between seeds.
pub const STREAM_SEED: u64 = 0xB01C;
/// Fresh databases per block.
pub const DBS_PER_BLOCK: usize = 4;
pub const LIMIT: usize = 16;
/// The star of `scale_join_queries`, the one query the workload decides.
/// Decides stop at their first witness, and where the chain's and the
/// cycle's first witness lies varies with the content and with the
/// engine's hash order from run to run (their decide latencies spread
/// 0.05–1.5 ms, their tail by a quarter between runs); the star's is
/// almost always the first candidate, so its decides are a steady cost.
/// All three queries are counted.
const STAR: usize = 1;
/// Databases whose counts are also compared with brute force.
const BRUTE_FORCE_DBS: usize = 2;

#[derive(Debug, Clone)]
pub enum Op {
    Decide(usize, Arc<Structure>),
    Count(usize, Arc<Structure>),
    AnswerCount(Arc<Structure>),
    Page(Arc<Structure>, u64),
    Delta(Arc<Structure>, Arc<DeltaBatch>),
    /// Decide a query on the content the preceding delta left.
    DecideUpdated(usize),
}

pub struct Bulk {
    seed: u64,
    queries: Vec<Structure>,
    answer_query: ConjunctiveQuery,
    /// A database outside the measured stream, for the set-up warm-up.
    warm_db: Structure,
}

pub struct State {
    engine: Engine,
    report: Option<DeltaReport>,
}

fn database(seed: u64) -> Structure {
    scale_corpus(ELEMS, 3, FACT_TUPLES, SELECTIVE_TUPLES, seed)
}

impl Bulk {
    pub fn new(seed: u64) -> Bulk {
        Bulk {
            seed,
            queries: scale_join_queries(3),
            answer_query: chain_endpoints_query(),
            warm_db: database(derive(STREAM_SEED, 1)),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "bulk: {DBS_PER_BLOCK} fresh databases of ~{} tuples per block, {} queries",
            self.warm_db.tuple_count(),
            self.queries.len()
        )
    }

    fn delta(
        &self,
        st: &mut State,
        db: &Structure,
        batch: &DeltaBatch,
        t: Option<&mut Tracer>,
    ) -> Output {
        let report = match t {
            Some(t) => layers::apply_delta(t, &st.engine, db, None, batch),
            None => st.engine.apply_delta(db, batch).expect("valid batch"),
        };
        let applied = report.applied().deletions().len() + report.applied().insertions().len();
        st.report = Some(report);
        Output::Applied(applied)
    }

    fn updated(st: &State) -> &Structure {
        st.report
            .as_ref()
            .expect("a delta precedes every decide of updated content")
            .database()
    }
}

impl EngineWorkload for Bulk {
    type Op = Op;
    type State = State;
    const SETUP_REPS: usize = 9;

    fn setup(&self) -> State {
        let engine = Engine::new(EngineConfig::default());
        for q in &self.queries {
            engine.prepare(q).counting_widths();
            engine.solve(q, &self.warm_db);
            engine.count_instance(q, &self.warm_db);
        }
        engine.count_answers(&self.answer_query, &self.warm_db);
        State {
            engine,
            report: None,
        }
    }

    fn engine<'a>(&self, st: &'a State) -> &'a Engine {
        &st.engine
    }

    /// The databases in a seeded order, each one's reads in a seeded order
    /// and then its delta and the decide of the updated content.
    fn block(&self, b: usize) -> Vec<Op> {
        let mut rng = Rng::new(derive(self.seed, 1000 + b as u64));
        let mut groups = Vec::new();
        for i in 0..DBS_PER_BLOCK {
            let n = (b * DBS_PER_BLOCK + i) as u64;
            let db = Arc::new(database(derive(STREAM_SEED, 5000 + n)));
            let batch = mutation_traffic(&db, 1, 0.01, derive(self.seed, 9000 + n))
                .pop()
                .expect("one round");
            let mut ops: Vec<Op> = (0..self.queries.len())
                .map(|q| Op::Count(q, Arc::clone(&db)))
                .collect();
            ops.push(Op::Decide(STAR, Arc::clone(&db)));
            ops.push(Op::AnswerCount(Arc::clone(&db)));
            ops.push(Op::Page(Arc::clone(&db), 0));
            rng.shuffle(&mut ops);
            ops.push(Op::Delta(db, Arc::new(batch)));
            ops.push(Op::DecideUpdated(STAR));
            groups.push(ops);
        }
        rng.shuffle(&mut groups);
        groups.concat()
    }

    fn kind(&self, op: &Op) -> Kind {
        match op {
            Op::Decide(..) | Op::DecideUpdated(_) => Kind::Decide,
            Op::Count(..) => Kind::Count,
            Op::AnswerCount(_) => Kind::AnswerCount,
            Op::Page(..) => Kind::Page,
            Op::Delta(..) => Kind::Delta,
        }
    }

    fn run(&self, st: &mut State, op: &Op) -> Output {
        let e = &st.engine;
        match op {
            Op::Decide(q, db) => Output::Decision(e.solve(&self.queries[*q], db)),
            Op::Count(q, db) => Output::Count(e.count_instance(&self.queries[*q], db)),
            Op::AnswerCount(db) => Output::AnswerCount(e.count_answers(&self.answer_query, db)),
            Op::Page(db, offset) => Output::Page(e.answers(&self.answer_query, db, *offset, LIMIT)),
            Op::Delta(db, batch) => self.delta(st, db, batch, None),
            Op::DecideUpdated(q) => Output::Decision(e.solve(&self.queries[*q], Self::updated(st))),
        }
    }

    fn replay(&self, st: &mut State, op: &Op, t: &mut Tracer, probes: &mut Vec<Probe>) -> Output {
        let e = &st.engine;
        match op {
            Op::Decide(q, db) => replay_decide(t, e, &self.queries[*q], db, probes),
            Op::Count(q, db) => replay_count(t, e, &self.queries[*q], db, probes),
            Op::AnswerCount(db) => {
                Output::AnswerCount(layers::count_answers(t, e, &self.answer_query, db))
            }
            Op::Page(db, offset) => {
                Output::Page(layers::page(t, e, &self.answer_query, db, *offset, LIMIT))
            }
            Op::Delta(db, batch) => self.delta(st, db, batch, Some(t)),
            Op::DecideUpdated(q) => {
                let st: &State = st;
                replay_decide(t, &st.engine, &self.queries[*q], Self::updated(st), probes)
            }
        }
    }

    /// Counts against `PreparedQuery::count_via_tree` on a fresh index and,
    /// on the smallest databases, brute force; decides against the counts;
    /// answers against brute-force projection; the decide after a delta
    /// against a cold engine on the updated content.
    fn check(&self, executed: &[(Op, Output)]) -> Result<usize, String> {
        let config = EngineConfig::default();
        let plans: Vec<PreparedQuery> = self
            .queries
            .iter()
            .map(|q| PreparedQuery::prepare(q, &config))
            .collect();
        let canonical = self
            .answer_query
            .canonical_structure()
            .expect("well-formed query");
        let free = self.answer_query.free_element_indices();
        let mut smallest: Vec<Arc<Structure>> = executed
            .iter()
            .filter_map(|(op, _)| match op {
                Op::AnswerCount(db) => Some(Arc::clone(db)),
                _ => None,
            })
            .collect();
        smallest.sort_by_key(|db| db.tuple_count());
        smallest.truncate(BRUTE_FORCE_DBS);
        let mut comparisons = 0;
        let mut last: Option<(Arc<Structure>, Arc<DeltaBatch>)> = None;
        let tree_count = |q: usize, db: &Structure| -> CountOutcome {
            plans[q]
                .count_via_tree(&StructureIndex::new(db))
                .count
                .into()
        };
        for (op, out) in executed {
            let ok = match (op, out) {
                (Op::Count(q, db), Output::Count(r)) => {
                    let want = tree_count(*q, db);
                    let brute = smallest.iter().any(|s| Arc::ptr_eq(s, db));
                    if brute {
                        comparisons += 1;
                        if r.count != count_homomorphisms_bruteforce(&self.queries[*q], db) {
                            return Err(format!("brute-force count of query {q}: {r:?}"));
                        }
                    }
                    r.count == want
                }
                (Op::Decide(q, db), Output::Decision(r)) => {
                    r.exists == tree_count(*q, db).positive()
                }
                (Op::AnswerCount(db), Output::AnswerCount(r)) => {
                    r.answers == answers_bruteforce(&canonical, db, &free).len() as u64
                }
                (Op::Page(db, offset), Output::Page(p)) => {
                    let rows: Vec<Vec<u32>> = answers_bruteforce(&canonical, db, &free)
                        .into_iter()
                        .map(|row| row.into_iter().map(|e| e as u32).collect())
                        .collect();
                    let start = (*offset as usize).min(rows.len());
                    let end = (start + LIMIT).min(rows.len());
                    p.rows.as_slice() == &rows[start..end] && p.has_more == (end < rows.len())
                }
                (Op::Delta(db, batch), Output::Applied(n)) => {
                    last = Some((Arc::clone(db), Arc::clone(batch)));
                    *n == batch.len()
                }
                (Op::DecideUpdated(q), Output::Decision(r)) => {
                    let (db, batch) = last.as_ref().ok_or("decide before any delta")?;
                    let mut updated = (**db).clone();
                    updated.apply_delta(batch).map_err(|e| e.to_string())?;
                    *r == Engine::new(config).solve(&self.queries[*q], &updated)
                }
                _ => false,
            };
            if !ok {
                return Err(format!("{op:?} returned {out:?}"));
            }
            comparisons += 1;
        }
        Ok(comparisons)
    }

    fn queries(&self) -> Vec<Structure> {
        self.queries.clone()
    }

    fn resident(&self) -> Vec<Structure> {
        vec![self.warm_db.clone()]
    }
}
