//! Inputs shared by the workloads: a seeded generator, query shapes and
//! delta helpers.

use cq_core::{CountMethod, SolverChoice};
use cq_structures::{ConjunctiveQuery, DeltaBatch};

/// SplitMix64: the benchmark's own seeded stream for choosing operations
/// (the input structures come from the `cq-workloads` generators).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A seed derived from the run seed and a stream label, so that each
/// input of a workload draws from its own stream.
pub fn derive(seed: u64, label: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x1000_0000_01B3) ^ label).next_u64()
}

/// The E22 endpoint query `S(x0,x1) ∧ R0(x1,x2) ∧ R1(x2,x3)` with `x0, x3`
/// free: which pairs a selective edge and a two-hop fact path join.
pub fn endpoint_query() -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    q.atom("S", &["x0", "x1"]);
    q.atom("R0", &["x1", "x2"]);
    q.atom("R1", &["x2", "x3"]);
    q.mark_free("x0").expect("declared by the S atom");
    q.mark_free("x3").expect("declared by the R1 atom");
    q
}

/// A two-hop path `rel(x0,x1) ∧ rel(x1,x2)` with both ends free.
pub fn two_hop_query(rel: &str) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new();
    q.atom(rel, &["x0", "x1"]);
    q.atom(rel, &["x1", "x2"]);
    q.mark_free("x0").expect("declared");
    q.mark_free("x2").expect("declared");
    q
}

/// The bulk chain `R0(x0,x1) ∧ R1(x1,x2) ∧ R2(x2,x3)` with its ends free.
pub fn chain_endpoints_query() -> ConjunctiveQuery {
    let mut q = cq_workloads::chain_join_query(3, 3);
    q.mark_free("x0").expect("declared");
    q.mark_free("x3").expect("declared");
    q
}

/// The batch that undoes an applied mutation batch: every inserted row
/// deleted, every deleted row inserted back.
pub fn inverse(batch: &DeltaBatch) -> DeltaBatch {
    let mut inv = DeltaBatch::new();
    for (sym, row) in batch.insertions() {
        inv.delete(*sym, row.clone());
    }
    for (sym, row) in batch.deletions() {
        inv.insert(*sym, row.clone());
    }
    inv
}

/// A bounded update stream replayed forward and then inverted: applying
/// the returned batches in order walks the content through every forward
/// state and back to where it started, so the cycle can repeat.
pub fn round_trip_stream(forward: Vec<DeltaBatch>) -> Vec<DeltaBatch> {
    let back: Vec<DeltaBatch> = forward.iter().rev().map(inverse).collect();
    forward.into_iter().chain(back).collect()
}

/// Shares of a tier (or counting method) among the choices made.
#[derive(Default, Debug, Clone)]
pub struct TierMix {
    pub decide: [u64; 4],
    pub count: [u64; 3],
}

impl TierMix {
    pub fn decide(&mut self, c: SolverChoice) {
        self.decide[match c {
            SolverChoice::TreeDepth => 0,
            SolverChoice::PathDecomposition => 1,
            SolverChoice::TreeDecomposition => 2,
            SolverChoice::Backtracking => 3,
        }] += 1;
    }

    pub fn count(&mut self, m: CountMethod) {
        self.count[match m {
            CountMethod::ForestSumProduct => 0,
            CountMethod::TreeDecompositionDp => 1,
            CountMethod::BruteForce => 2,
        }] += 1;
    }

    /// `(metric name, share)` rows for the per-layer report.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let frac = |n: u64, total: u64| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        };
        let d: u64 = self.decide.iter().sum();
        let c: u64 = self.count.iter().sum();
        vec![
            ("engine.tier_treedepth_frac", frac(self.decide[0], d)),
            ("engine.tier_path_frac", frac(self.decide[1], d)),
            ("engine.tier_tree_frac", frac(self.decide[2], d)),
            ("engine.tier_backtrack_frac", frac(self.decide[3], d)),
            ("engine.count_forest_frac", frac(self.count[0], c)),
            ("engine.count_tree_frac", frac(self.count[1], c)),
            ("engine.count_brute_frac", frac(self.count[2], c)),
        ]
    }

    pub fn observe(&mut self, out: &crate::layers::Output) {
        match out {
            crate::layers::Output::Decision(r) => self.decide(r.choice),
            crate::layers::Output::Count(r) => self.count(r.method),
            _ => {}
        }
    }
}
