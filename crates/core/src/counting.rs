//! Counting dispatch: the [`CountMethod`] tiers in priority order — the
//! counting half of the classification (Theorem 6.1), mirrored on the
//! decision tiers of [`crate::registry`].
//!
//! Theorem 6.1 classifies `p-#HOM(A)` by the widths of the class members
//! **themselves**: counting is not invariant under taking cores (a query
//! and its proper core have equal decision answers but different counts),
//! so unlike decision — which keys on the core's widths —
//! [`CountMethod::admits`] keys on [`PreparedQuery::counting_widths`], the
//! width profile of the query exactly as submitted, and
//! [`CountMethod::count`] runs on [`PreparedQuery::original`] with the
//! original-structure certificates of [`PreparedQuery::counting_analysis`].
//! Weighted aggregates ([`CountMethod::evaluate`]) share these licences
//! and tiers exactly: a core collapses distinct homomorphisms that may have
//! distinct costs.
//!
//! The standard [`CountRegistry`] order follows the theorem's algorithmic
//! tiers:
//!
//! 1. [`CountMethod::ForestSumProduct`] — the sum–product recursion over
//!    the elimination forest (Theorem 6.1 (3), bounded tree depth);
//! 2. [`CountMethod::TreeDecompositionDp`] — the extension-counting DP over
//!    the tree decomposition (the tractable tier of the counting
//!    classification, bounded treewidth);
//! 3. [`CountMethod::BruteForce`] — exhaustive enumeration, admitting every
//!    query, so a registry walk always terminates.
//!
//! Ablations are registry edits ([`CountRegistry::without`]), exactly as
//! for decision.

use crate::aggregates::AggregateObjective;
use crate::engine::EngineConfig;
use crate::prepared::{PreparedQuery, Side};
use crate::service::Engine;
use crate::Degree;
use cq_decomp::WidthProfile;
use cq_solver::{MaxWeightSemiring, MinCostSemiring, Nat, Semiring};
use cq_structures::{count_homomorphisms_bruteforce, Structure, StructureIndex, TupleWeights};

/// Which counting algorithm the engine picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountMethod {
    /// Sum–product recursion over the elimination forest
    /// (Theorem 6.1 (3)).
    ForestSumProduct,
    /// Extension-counting dynamic programming over the tree decomposition.
    TreeDecompositionDp,
    /// Exhaustive enumeration (no structural guarantee).
    BruteForce,
}

/// A homomorphism count that cannot silently lie: either the exact number,
/// or a typed admission that it exceeded `u64::MAX`.
///
/// This replaces the old saturating `u64` — saturated counts fed into the
/// Lemma 6.2 inclusion–exclusion produced confidently wrong answers, while
/// `Overflow` poisons every arithmetic context it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CountOutcome {
    /// The exact number of homomorphisms.
    Exact(u64),
    /// The count exceeds `u64::MAX`; no numeric value is reported.
    Overflow,
}

impl CountOutcome {
    /// The exact count, or `None` on overflow.
    pub fn exact(self) -> Option<u64> {
        match self {
            CountOutcome::Exact(n) => Some(n),
            CountOutcome::Overflow => None,
        }
    }

    /// The exact count; panics with `msg` on overflow.  For callers that
    /// have already established the instance cannot overflow (tests,
    /// closed-form comparisons).
    pub fn expect_exact(self, msg: &str) -> u64 {
        match self {
            CountOutcome::Exact(n) => n,
            CountOutcome::Overflow => panic!("{msg}: count overflowed u64"),
        }
    }

    /// Whether at least one homomorphism exists.  Sound on overflow: a
    /// count past `u64::MAX` is certainly positive.
    pub fn positive(self) -> bool {
        match self {
            CountOutcome::Exact(n) => n > 0,
            CountOutcome::Overflow => true,
        }
    }
}

impl From<Nat> for CountOutcome {
    fn from(n: Nat) -> CountOutcome {
        match n {
            Nat::Finite(v) => CountOutcome::Exact(v),
            Nat::Overflow => CountOutcome::Overflow,
        }
    }
}

impl From<u64> for CountOutcome {
    fn from(n: u64) -> CountOutcome {
        CountOutcome::Exact(n)
    }
}

/// Counts compare naturally against literals (`report.count == 24`); an
/// overflowed count equals no `u64`.
impl PartialEq<u64> for CountOutcome {
    fn eq(&self, other: &u64) -> bool {
        matches!(self, CountOutcome::Exact(n) if n == other)
    }
}

impl std::fmt::Display for CountOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountOutcome::Exact(n) => write!(f, "{n}"),
            CountOutcome::Overflow => write!(f, "overflow"),
        }
    }
}

/// What one counting-tier evaluation produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountEvaluation {
    /// The number of homomorphisms, or a typed overflow.
    pub outcome: CountOutcome,
    /// A tier-specific work figure for the experiment reports; `None`
    /// when the tier meters nothing.
    pub work: Option<u64>,
}

/// What the engine did and found on one counting instance.
///
/// `PartialEq`/`Eq` so batch results can be compared wholesale — the
/// determinism tests assert that [`Engine::count_batch`] under any worker
/// count returns a sequence identical to the sequential path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountReport {
    /// The number of homomorphisms from the query **as submitted** into the
    /// database, or a typed overflow past `u64::MAX`.
    pub count: CountOutcome,
    /// The counting algorithm chosen.
    pub method: CountMethod,
    /// The degree the single query would contribute to a Theorem 6.1
    /// counting classification — judged on its **own** widths (not its
    /// core's) against the thresholds, because counting is not
    /// core-invariant.
    pub degree_hint: Degree,
    /// Width profile of the original query (what
    /// [`CountMethod::admits`] keyed on).
    pub widths: WidthProfile,
    /// Universe size of the counted (original) query.
    pub counted_query_size: usize,
}

impl CountMethod {
    /// The tier itself.  [`CountRegistry::select`] returns the tier, and
    /// callers read it back by this name (perfbench's traced replay does).
    pub fn method(self) -> CountMethod {
        self
    }

    /// Whether this tier's structural licence covers the prepared query
    /// under the given thresholds — keyed on the *original* query's widths
    /// ([`PreparedQuery::counting_widths`]).
    pub fn admits(self, query: &PreparedQuery, config: &EngineConfig) -> bool {
        match self {
            CountMethod::ForestSumProduct => {
                query.counting_widths().treedepth <= config.treedepth_threshold
            }
            CountMethod::TreeDecompositionDp => {
                query.counting_widths().treewidth <= config.treewidth_threshold
            }
            CountMethod::BruteForce => true,
        }
    }

    /// Count homomorphisms from the prepared query's original structure
    /// into one database through its cached [`StructureIndex`]:
    ///
    /// * forest — the recursion `N_{r→b} = Π_i Σ_{b'} N_{t_i→b'}` with one
    ///   image per ancestor in memory;
    /// * tree DP — retained across in-place deltas
    ///   ([`PreparedQuery::count_via_tree`]);
    /// * brute force — deliberately the un-indexed reference enumeration:
    ///   this tier doubles as the oracle of the counting differential
    ///   tests.  The underlying search hoists its symbol translation once
    ///   per call and visits complete assignments by reference, so the
    ///   enumeration runs with no per-assignment map allocation while
    ///   staying reference-pure.
    pub fn count(
        self,
        query: &PreparedQuery,
        database: &Structure,
        index: &StructureIndex,
    ) -> CountEvaluation {
        let (outcome, work) = match self {
            CountMethod::ForestSumProduct => {
                let run = query.forest(index, Side::Original).count(index);
                (run.count.into(), run.assignments)
            }
            CountMethod::TreeDecompositionDp => {
                let run = query.count_via_tree(index);
                (run.count.into(), run.peak_table as u64)
            }
            CountMethod::BruteForce => {
                // Enumeration visits each homomorphism once: the count is
                // the work.
                let count = count_homomorphisms_bruteforce(query.original(), database);
                (CountOutcome::Exact(count), count)
            }
        };
        CountEvaluation {
            outcome,
            work: Some(work),
        }
    }

    /// Optimize `objective` over all homomorphisms from the prepared
    /// query's original structure into the database, reading tuple weights
    /// from `weights` (which must align with the database's rows).  The
    /// compiled counting programs are reused — a program is
    /// semiring-agnostic, only the run differs — and the fallback tier is
    /// the indexed exhaustive kernel search over the original structure.
    pub fn evaluate(
        self,
        query: &PreparedQuery,
        _database: &Structure,
        index: &StructureIndex,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> Option<u64> {
        match objective {
            AggregateObjective::MinCost => self.aggregate::<MinCostSemiring>(query, index, weights),
            AggregateObjective::MaxWeight => {
                self.aggregate::<MaxWeightSemiring>(query, index, weights)
            }
        }
    }

    fn aggregate<S: Semiring>(
        self,
        query: &PreparedQuery,
        index: &StructureIndex,
        weights: &TupleWeights,
    ) -> S::Value {
        let weights = Some(weights);
        match self {
            CountMethod::ForestSumProduct => query
                .forest(index, Side::Original)
                .eval::<S>(index, weights, &mut 0),
            CountMethod::TreeDecompositionDp => {
                query
                    .tree(index, Side::Original)
                    .eval::<S>(index, weights)
                    .0
            }
            CountMethod::BruteForce => {
                query
                    .search(index, Side::Original)
                    .aggregate::<S>(index, weights)
                    .0
            }
        }
    }
}

/// A priority-ordered list of counting tiers; dispatch picks the first that
/// admits the query.  Serves counting and weighted aggregates alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountRegistry {
    tiers: Vec<CountMethod>,
}

impl CountRegistry {
    /// The standard order of Theorem 6.1: forest sum–product (bounded tree
    /// depth), then the tree-DP (bounded treewidth), then brute force.
    pub fn standard() -> CountRegistry {
        CountRegistry {
            tiers: vec![
                CountMethod::ForestSumProduct,
                CountMethod::TreeDecompositionDp,
                CountMethod::BruteForce,
            ],
        }
    }

    /// This registry minus the given tier — the counting analogue of the
    /// E12 ablation edit.
    pub fn without(mut self, method: CountMethod) -> CountRegistry {
        self.tiers.retain(|&t| t != method);
        self
    }

    /// The first tier admitting the query, in priority order.
    pub fn select(&self, query: &PreparedQuery, config: &EngineConfig) -> Option<CountMethod> {
        self.tiers.iter().copied().find(|t| t.admits(query, config))
    }

    /// The tiers in priority order.
    pub fn tiers(&self) -> &[CountMethod] {
        &self.tiers
    }
}

/// Count the homomorphisms of a single `p-#HOM` instance with the algorithm
/// its structure licenses.
///
/// Compatibility wrapper over the prepared-query engine, mirroring
/// [`crate::solve_instance`]: builds a throwaway [`Engine`], prepares `a`
/// once and counts.  Repeated-query callers should hold an [`Engine`] and
/// use [`Engine::count_instance`] / [`Engine::count_batch`] so plans (and
/// their counting certificates) are reused.
pub fn count_instance(a: &Structure, b: &Structure, config: EngineConfig) -> CountReport {
    Engine::new(config).count_instance(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::families;

    fn prepared(a: &Structure) -> PreparedQuery {
        PreparedQuery::prepare(a, &EngineConfig::default())
    }

    #[test]
    fn standard_registry_selects_in_priority_order() {
        let cfg = EngineConfig::default();
        let registry = CountRegistry::standard();
        assert_eq!(registry.tiers().len(), 3);
        let cases = [
            (families::star(5), CountMethod::ForestSumProduct),
            // P9 cores to an edge, but counting keys on the original: tree
            // depth of P9 is 4 (above the threshold 3) while its treewidth
            // is 1.
            (families::path(9), CountMethod::TreeDecompositionDp),
            (families::clique(5), CountMethod::BruteForce),
        ];
        for (a, expected) in cases {
            let q = prepared(&a);
            let s = registry.select(&q, &cfg).expect("fallback admits");
            assert_eq!(s, expected, "{a}");
        }
    }

    #[test]
    fn without_removes_a_tier_and_dispatch_falls_through() {
        let cfg = EngineConfig::default();
        let registry = CountRegistry::standard().without(CountMethod::ForestSumProduct);
        assert_eq!(registry.tiers().len(), 2);
        let q = prepared(&families::star(5));
        let s = registry.select(&q, &cfg).expect("fallback admits");
        assert_eq!(s, CountMethod::TreeDecompositionDp);
    }

    #[test]
    fn all_registry_solvers_agree_with_the_reference() {
        let registry = CountRegistry::standard();
        // Queries every tier admits, including one with a proper core
        // (P4): the counts must be those of the original structure.
        for a in [families::star(3), families::path(4)] {
            let q = prepared(&a);
            for b in [families::clique(3), families::cycle(6), families::path(4)] {
                let expected = count_homomorphisms_bruteforce(&a, &b);
                let index = StructureIndex::new(&b);
                for &s in registry.tiers() {
                    assert_eq!(
                        s.count(&q, &b, &index).outcome,
                        expected,
                        "{s:?} on {a} -> {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn count_instance_wrapper_counts_the_original() {
        // #hom(P4, K3) = 3·2·2·2 = 24, even though the decision path
        // evaluates the core K2 (#hom(K2, K3) = 6).
        let report = count_instance(
            &families::path(4),
            &families::clique(3),
            EngineConfig::default(),
        );
        assert_eq!(report.count, 24);
        assert_eq!(report.counted_query_size, 4);
        assert_eq!(report.widths.treewidth, 1);
    }
}
