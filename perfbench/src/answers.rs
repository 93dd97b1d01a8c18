//! `answers`: answer pages and answer counts of the E22 endpoint query on
//! the two sparsest E22-shaped corpora, through one in-process `Engine`.

use crate::common::{derive, endpoint_query, Rng};
use crate::layers::{self, Output};
use crate::metrics::Kind;
use crate::runner::{replay_count, replay_decide, EngineWorkload, Probe};
use crate::trace::Tracer;
use cq_core::{AnswerMethod, DeltaReport, Engine, EngineConfig};
use cq_structures::{answers_bruteforce, ConjunctiveQuery, DeltaBatch, Structure};
use cq_workloads::{mutation_traffic, scale_corpus, subsample_database};

/// The corpora are E22's (its corpus seed), so every run reads the same
/// answer sets; the run seed draws the updates and the operation order.
pub const CORPUS_SEED: u64 = 0xE22;
/// Universe size of each corpus.
pub const ELEMS: usize = 1_000;
/// Tuples of each of the three dense fact relations.
pub const FACT_TUPLES: usize = 3_000;
/// Densities of the sparse selective relation `S`: the sparsest E22
/// variant and the 4x denser one.
pub const DENSITIES: [usize; 2] = [25, 100];
/// Page offsets of a block on each corpus.
pub const OFFSETS: [&[u64]; 2] = [&[0, 32], &[16]];
pub const LIMIT: usize = 16;
/// Rows an oracle needs to check every page of a block.
const PREFIX: usize = 32 + LIMIT;
/// Operations of every other kind per block on each corpus.  With two in
/// three on the sparsest corpus and one in three on the denser, each
/// kind's median is a cost on the sparsest and its tail (a percentile
/// between 75 and 90 at this window's sample counts) one on the denser.
const SHARES: [usize; 2] = [2, 1];

#[derive(Debug, Clone, Copy)]
pub enum Op {
    Page(usize, u64),
    AnswerCount(usize),
    Decide(usize),
    Count(usize),
    Delta(usize),
}

pub struct Answers {
    seed: u64,
    query: ConjunctiveQuery,
    canonical: Structure,
    /// `S(x0,x1) ∧ R0(x1,x2) ∧ R1(x2,x0)`: does a selective edge close a
    /// triangle through the fact relations?  Rarely, so its decide walks
    /// the whole search rather than stopping at a witness whose position
    /// an update can move.
    closed: Structure,
    corpora: Vec<Structure>,
    /// Per corpus: a 1% epoch-safe mutation and its inverse; an update
    /// operation applies both, so every read sees the corpus as generated.
    batches: Vec<[DeltaBatch; 2]>,
}

/// The oracle's answers on one content state of one corpus: the rows of
/// every page a block can ask for, and the total behind `has_more`.
struct Expected {
    prefix: Vec<Vec<u32>>,
    total: u64,
    decide: cq_core::EngineReport,
    count: cq_core::CountReport,
}

pub struct State {
    engine: Engine,
    reports: Vec<Option<DeltaReport>>,
}

impl State {
    fn db<'a>(&'a self, w: &'a Answers, c: usize) -> &'a Structure {
        match &self.reports[c] {
            Some(r) => r.database(),
            None => &w.corpora[c],
        }
    }
}

fn closed_query() -> Structure {
    let mut q = ConjunctiveQuery::new();
    q.atom("S", &["x0", "x1"]);
    q.atom("R0", &["x1", "x2"]);
    q.atom("R1", &["x2", "x0"]);
    q.canonical_structure().expect("well-formed query")
}

impl Answers {
    pub fn new(seed: u64) -> Answers {
        let query = endpoint_query();
        let canonical = query.canonical_structure().expect("well-formed query");
        let corpora: Vec<Structure> = DENSITIES
            .iter()
            .map(|&s| scale_corpus(ELEMS, 3, FACT_TUPLES, s, CORPUS_SEED))
            .collect();
        let batches = corpora
            .iter()
            .enumerate()
            .map(|(i, db)| {
                let b = mutation_traffic(db, 1, 0.01, derive(seed, 20 + i as u64))
                    .pop()
                    .expect("one round");
                let inv = crate::common::inverse(&b);
                [b, inv]
            })
            .collect();
        Answers {
            seed,
            query,
            canonical,
            closed: closed_query(),
            corpora,
            batches,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "answers: corpora of {:?} tuples (|S| = {DENSITIES:?}), page offsets {OFFSETS:?}, limit {LIMIT}",
            self.corpora.iter().map(Structure::tuple_count).collect::<Vec<_>>()
        )
    }

    /// One update round trip: the batch, then its inverse.
    fn delta(&self, st: &mut State, c: usize, mut t: Option<&mut Tracer>) -> Output {
        let mut applied = 0;
        for batch in &self.batches[c] {
            let prev = st.reports[c].take();
            let report = match t.as_deref_mut() {
                Some(t) => layers::apply_delta(t, &st.engine, &self.corpora[c], prev, batch),
                None => match prev {
                    None => st.engine.apply_delta(&self.corpora[c], batch),
                    Some(p) => st.engine.apply_delta_chained(p, batch),
                }
                .expect("valid batch"),
            };
            applied += report.applied().deletions().len() + report.applied().insertions().len();
            st.reports[c] = Some(report);
        }
        Output::Applied(applied)
    }

    fn reference_rows(&self, db: &Structure) -> Vec<Vec<u32>> {
        answers_bruteforce(&self.canonical, db, &self.query.free_element_indices())
            .into_iter()
            .map(|row| row.into_iter().map(|e| e as u32).collect())
            .collect()
    }
}

impl EngineWorkload for Answers {
    type Op = Op;
    type State = State;
    const SETUP_REPS: usize = 5;

    fn setup(&self) -> State {
        let engine = Engine::new(EngineConfig::default());
        for db in &self.corpora {
            engine.instance_index(db);
            engine.answers(&self.query, db, 0, 1);
            engine.solve(&self.closed, db);
            engine.count_instance(&self.canonical, db);
        }
        State {
            engine,
            reports: self.corpora.iter().map(|_| None).collect(),
        }
    }

    fn engine<'a>(&self, st: &'a State) -> &'a Engine {
        &st.engine
    }

    fn block(&self, b: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for c in 0..self.corpora.len() {
            ops.extend(OFFSETS[c].iter().map(|&o| Op::Page(c, o)));
            for _ in 0..SHARES[c] {
                ops.extend([
                    Op::AnswerCount(c),
                    Op::Decide(c),
                    Op::Count(c),
                    Op::Delta(c),
                ]);
            }
        }
        Rng::new(derive(self.seed, 1000 + b as u64)).shuffle(&mut ops);
        ops
    }

    fn kind(&self, op: &Op) -> Kind {
        match op {
            Op::Page(..) => Kind::Page,
            Op::AnswerCount(_) => Kind::AnswerCount,
            Op::Decide(_) => Kind::Decide,
            Op::Count(_) => Kind::Count,
            Op::Delta(_) => Kind::Delta,
        }
    }

    fn run(&self, st: &mut State, op: &Op) -> Output {
        match *op {
            Op::Page(c, offset) => {
                Output::Page(
                    st.engine
                        .answers(&self.query, st.db(self, c), offset, LIMIT),
                )
            }
            Op::AnswerCount(c) => {
                Output::AnswerCount(st.engine.count_answers(&self.query, st.db(self, c)))
            }
            Op::Decide(c) => Output::Decision(st.engine.solve(&self.closed, st.db(self, c))),
            Op::Count(c) => {
                Output::Count(st.engine.count_instance(&self.canonical, st.db(self, c)))
            }
            Op::Delta(c) => self.delta(st, c, None),
        }
    }

    fn replay(&self, st: &mut State, op: &Op, t: &mut Tracer, probes: &mut Vec<Probe>) -> Output {
        match *op {
            Op::Page(c, offset) => Output::Page(layers::page(
                t,
                &st.engine,
                &self.query,
                st.db(self, c),
                offset,
                LIMIT,
            )),
            Op::AnswerCount(c) => Output::AnswerCount(layers::count_answers(
                t,
                &st.engine,
                &self.query,
                st.db(self, c),
            )),
            Op::Decide(c) => replay_decide(t, &st.engine, &self.closed, st.db(self, c), probes),
            Op::Count(c) => replay_count(t, &st.engine, &self.canonical, st.db(self, c), probes),
            Op::Delta(c) => self.delta(st, c, Some(t)),
        }
    }

    fn check(&self, executed: &[(Op, Output)]) -> Result<usize, String> {
        let mut comparisons = 0;
        // Pages must tile the brute-force enumeration on seeded induced
        // subsamples of every corpus.
        let engine = Engine::new(EngineConfig::default());
        for (c, db) in self.corpora.iter().enumerate() {
            let slice = subsample_database(db, 300, derive(self.seed, 30 + c as u64));
            let expected = self.reference_rows(&slice);
            let mut offset = 0usize;
            loop {
                let page = engine.answers(&self.query, &slice, offset as u64, 7);
                let end = (offset + 7).min(expected.len());
                if page.rows.as_slice() != &expected[offset..end]
                    || page.has_more != (end < expected.len())
                {
                    return Err(format!("subsample page at offset {offset} of corpus {c}"));
                }
                comparisons += 1;
                offset = end;
                if !page.has_more {
                    break;
                }
            }
        }
        // Every read against an oracle on the corpus as generated (every
        // update is undone within its operation): brute force for the
        // answers on the full sparsest corpus, a cold engine on the denser
        // one (brute force there takes longer than the measured window).
        let expected: Vec<Expected> = self
            .corpora
            .iter()
            .enumerate()
            .map(|(c, db)| {
                let cold = Engine::new(EngineConfig::default());
                let (prefix, total) = if c == 0 {
                    let mut rows = self.reference_rows(db);
                    let total = rows.len() as u64;
                    rows.truncate(PREFIX);
                    (rows, total)
                } else {
                    let total = cold.count_answers(&self.query, db).answers;
                    (cold.answers(&self.query, db, 0, PREFIX).rows, total)
                };
                Expected {
                    prefix,
                    total,
                    decide: cold.solve(&self.closed, db),
                    count: cold.count_instance(&self.canonical, db),
                }
            })
            .collect();
        for (op, out) in executed {
            let c = match *op {
                Op::Page(c, _) | Op::AnswerCount(c) | Op::Decide(c) | Op::Count(c) => c,
                Op::Delta(c) => {
                    let want: usize = self.batches[c].iter().map(DeltaBatch::len).sum();
                    if *out != Output::Applied(want) {
                        return Err(format!("delta on corpus {c}: {out:?}, want {want} ops"));
                    }
                    comparisons += 1;
                    continue;
                }
            };
            let e = &expected[c];
            let rows = &e.prefix;
            let ok = match (op, out) {
                (Op::Page(_, offset), Output::Page(p)) => {
                    let start = (*offset as usize).min(rows.len());
                    let end = (start + LIMIT).min(rows.len());
                    p.rows.as_slice() == &rows[start..end]
                        && p.has_more == ((end as u64) < e.total)
                        && p.method == AnswerMethod::TreeDecompositionDp
                }
                (Op::AnswerCount(_), Output::AnswerCount(r)) => {
                    r.answers == e.total && r.method == AnswerMethod::TreeDecompositionDp
                }
                (Op::Decide(_), Output::Decision(r)) => *r == e.decide,
                (Op::Count(_), Output::Count(r)) => *r == e.count,
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
        vec![self.canonical.clone(), self.closed.clone()]
    }

    fn resident(&self) -> Vec<Structure> {
        self.corpora.clone()
    }
}
