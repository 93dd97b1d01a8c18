//! `churn`: rounds of 1% epoch-safe mutations on the 10^5-tuple warehouse
//! corpus, each followed by decides and counts of long fact-relation
//! chains and of the selective family, through one in-process `Engine`.

use crate::common::{derive, round_trip_stream, Rng};
use crate::layers::{self, Output};
use crate::metrics::Kind;
use crate::runner::{replay_count, replay_decide, EngineWorkload, Probe};
use crate::trace::Tracer;
use cq_core::{DeltaReport, Engine, EngineConfig};
use cq_structures::{ConjunctiveQuery, DeltaBatch, Structure};
use cq_workloads::{chain_join_query, mutation_traffic, scale_corpus, selective_join_queries};

/// The corpus is E21's (its corpus seed and sizes); the run seed draws
/// the update stream and the order of each round's reads.
pub const CORPUS_SEED: u64 = 0xE21;
pub const ELEMS: usize = 4_000;
pub const FACT_TUPLES: usize = 35_500;
pub const SELECTIVE_TUPLES: usize = 100;
/// Forward rounds of the bounded stream; it then runs back to the start.
pub const FORWARD_ROUNDS: usize = 6;
pub const CHURN: f64 = 0.01;
/// Atoms of the long fact-relation chains (tree depth above the
/// threshold: decides take the staircase tier, counts the tree DP).
pub const CHAIN_ATOMS: [usize; 3] = [8, 9, 10];
/// Every `CHECK_EVERY`-th round (from round 1) is compared with a cold
/// engine.
const CHECK_EVERY: usize = 16;
pub const LIMIT: usize = 16;

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Delta(usize),
    Decide(usize),
    Count(usize),
    AnswerCount,
    Page(u64),
}

pub struct Churn {
    seed: u64,
    corpus: Structure,
    stream: Vec<DeltaBatch>,
    /// Chains first, then the selective family.
    queries: Vec<Structure>,
    answer_query: ConjunctiveQuery,
}

pub struct State {
    engine: Engine,
    report: Option<DeltaReport>,
}

impl State {
    fn db<'a>(&'a self, w: &'a Churn) -> &'a Structure {
        self.report.as_ref().map_or(&w.corpus, |r| r.database())
    }
}

/// `R0(x0,x1) ∧ R1(x1,x2)` with `x0` free: which elements start a two-hop
/// path through the churned fact relations.  Its first answers are the
/// smallest elements, which a 1% churn of dense relations rarely moves.
fn answer_query() -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    q.atom("R0", &["x0", "x1"]);
    q.atom("R1", &["x1", "x2"]);
    q.mark_free("x0").expect("declared");
    q
}

impl Churn {
    pub fn new(seed: u64) -> Churn {
        let corpus = scale_corpus(ELEMS, 3, FACT_TUPLES, SELECTIVE_TUPLES, CORPUS_SEED);
        let forward = mutation_traffic(&corpus, FORWARD_ROUNDS, CHURN, derive(seed, 2));
        let mut queries: Vec<Structure> = CHAIN_ATOMS
            .iter()
            .map(|&n| {
                chain_join_query(n, 3)
                    .canonical_structure()
                    .expect("non-empty chain")
            })
            .collect();
        queries.extend(selective_join_queries().into_iter().take(2));
        Churn {
            seed,
            corpus,
            stream: round_trip_stream(forward),
            queries,
            answer_query: answer_query(),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "churn: corpus of {} tuples, {} rounds per cycle of ~{} tuple ops, chains of {CHAIN_ATOMS:?} atoms",
            self.corpus.tuple_count(),
            self.stream.len(),
            self.stream[0].len()
        )
    }

    fn delta(&self, st: &mut State, round: usize, t: Option<&mut Tracer>) -> Output {
        let batch = &self.stream[round % self.stream.len()];
        let prev = st.report.take();
        let report = match t {
            Some(t) => layers::apply_delta(t, &st.engine, &self.corpus, prev, batch),
            None => match prev {
                None => st.engine.apply_delta(&self.corpus, batch),
                Some(p) => st.engine.apply_delta_chained(p, batch),
            }
            .expect("valid batch"),
        };
        let applied = report.applied().deletions().len() + report.applied().insertions().len();
        st.report = Some(report);
        Output::Applied(applied)
    }
}

impl EngineWorkload for Churn {
    type Op = Op;
    type State = State;
    const SETUP_REPS: usize = 5;

    fn setup(&self) -> State {
        let engine = Engine::new(EngineConfig::default());
        engine.instance_index(&self.corpus);
        for q in &self.queries {
            engine.solve(q, &self.corpus);
            engine.count_instance(q, &self.corpus);
        }
        engine.count_answers(&self.answer_query, &self.corpus);
        engine.answers(&self.answer_query, &self.corpus, 0, 1);
        State {
            engine,
            report: None,
        }
    }

    fn engine<'a>(&self, st: &'a State) -> &'a Engine {
        &st.engine
    }

    /// One round: the delta first, then the reads in a seeded order.
    fn block(&self, b: usize) -> Vec<Op> {
        let mut reads: Vec<Op> = (0..self.queries.len())
            .flat_map(|q| [Op::Decide(q), Op::Count(q)])
            .chain([Op::AnswerCount, Op::Page(0)])
            .collect();
        Rng::new(derive(self.seed, 1000 + b as u64)).shuffle(&mut reads);
        std::iter::once(Op::Delta(b)).chain(reads).collect()
    }

    fn kind(&self, op: &Op) -> Kind {
        match op {
            Op::Delta(_) => Kind::Delta,
            Op::Decide(_) => Kind::Decide,
            Op::Count(_) => Kind::Count,
            Op::AnswerCount => Kind::AnswerCount,
            Op::Page(_) => Kind::Page,
        }
    }

    fn run(&self, st: &mut State, op: &Op) -> Output {
        match *op {
            Op::Delta(round) => self.delta(st, round, None),
            Op::Decide(q) => Output::Decision(st.engine.solve(&self.queries[q], st.db(self))),
            Op::Count(q) => Output::Count(st.engine.count_instance(&self.queries[q], st.db(self))),
            Op::AnswerCount => {
                Output::AnswerCount(st.engine.count_answers(&self.answer_query, st.db(self)))
            }
            Op::Page(offset) => {
                Output::Page(
                    st.engine
                        .answers(&self.answer_query, st.db(self), offset, LIMIT),
                )
            }
        }
    }

    fn replay(&self, st: &mut State, op: &Op, t: &mut Tracer, probes: &mut Vec<Probe>) -> Output {
        match *op {
            Op::Delta(round) => self.delta(st, round, Some(t)),
            Op::Decide(q) => replay_decide(t, &st.engine, &self.queries[q], st.db(self), probes),
            Op::Count(q) => replay_count(t, &st.engine, &self.queries[q], st.db(self), probes),
            Op::AnswerCount => Output::AnswerCount(layers::count_answers(
                t,
                &st.engine,
                &self.answer_query,
                st.db(self),
            )),
            Op::Page(offset) => Output::Page(layers::page(
                t,
                &st.engine,
                &self.answer_query,
                st.db(self),
                offset,
                LIMIT,
            )),
        }
    }

    /// Every delta applied its whole batch; at sampled rounds every read
    /// matches a cold engine on the same content.
    fn check(&self, executed: &[(Op, Output)]) -> Result<usize, String> {
        let mut comparisons = 0;
        let mut content = self.corpus.clone();
        let mut round = 0usize;
        let mut cold: Option<Engine> = None;
        for (op, out) in executed {
            if let Op::Delta(r) = *op {
                let batch = &self.stream[r % self.stream.len()];
                if *out != Output::Applied(batch.len()) {
                    return Err(format!("round {r}: {out:?}, want {} ops", batch.len()));
                }
                content.apply_delta(batch).map_err(|e| e.to_string())?;
                round = r;
                cold = (round % CHECK_EVERY == 1).then(|| Engine::new(EngineConfig::default()));
                comparisons += 1;
                continue;
            }
            let Some(engine) = &cold else { continue };
            let want = match *op {
                Op::Decide(q) => Output::Decision(engine.solve(&self.queries[q], &content)),
                Op::Count(q) => Output::Count(engine.count_instance(&self.queries[q], &content)),
                Op::AnswerCount => {
                    Output::AnswerCount(engine.count_answers(&self.answer_query, &content))
                }
                Op::Page(offset) => {
                    Output::Page(engine.answers(&self.answer_query, &content, offset, LIMIT))
                }
                Op::Delta(_) => unreachable!("handled above"),
            };
            if *out != want {
                return Err(format!(
                    "round {round}, {op:?}: {out:?}, cold engine {want:?}"
                ));
            }
            comparisons += 1;
        }
        Ok(comparisons)
    }

    fn queries(&self) -> Vec<Structure> {
        self.queries.clone()
    }

    fn resident(&self) -> Vec<Structure> {
        vec![self.corpus.clone()]
    }
}
