//! Weighted aggregates — the semiring generalization of
//! [`crate::counting`].
//!
//! The kernel's DPs are one sum-of-products generic over a
//! [`Semiring`](cq_solver::Semiring); instantiated at
//! [`MinCostSemiring`](cq_solver::MinCostSemiring) /
//! [`MaxWeightSemiring`](cq_solver::MaxWeightSemiring) they compute the
//! cheapest (resp. heaviest) homomorphism under a per-tuple
//! [`TupleWeights`](cq_structures::TupleWeights) table instead of the
//! number of homomorphisms.  The structural licences are **identical** to
//! counting's — aggregates, like counts, are not invariant under taking
//! cores (a core collapses distinct homomorphisms that may have distinct
//! costs) — so aggregates dispatch over the same [`CountMethod`] tiers and
//! [`crate::CountRegistry`], keyed on
//! [`PreparedQuery::counting_widths`](crate::PreparedQuery::counting_widths),
//! and run on the original structure with the counting certificates
//! ([`CountMethod::evaluate`]), reusing the compiled counting programs: a
//! compiled program is semiring-agnostic, only the run differs.

use crate::counting::CountMethod;
use crate::Degree;
use cq_decomp::WidthProfile;

/// Which ⊕-objective an aggregate evaluation optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateObjective {
    /// Minimum total tuple weight over all homomorphisms (tropical
    /// `(min, +)` semiring).
    MinCost,
    /// Maximum total tuple weight over all homomorphisms (`(max, +)`
    /// semiring, saturating at `u64::MAX`).
    MaxWeight,
}

impl std::fmt::Display for AggregateObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateObjective::MinCost => write!(f, "min-cost"),
            AggregateObjective::MaxWeight => write!(f, "max-weight"),
        }
    }
}

/// What the engine found on one weighted-aggregate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateReport {
    /// The optimal total weight, or `None` when no homomorphism exists
    /// (the ⊕-identity of both weighted semirings).
    pub value: Option<u64>,
    /// The objective that was optimized.
    pub objective: AggregateObjective,
    /// The algorithmic tier that ran (the counting tiers, reused).
    pub method: CountMethod,
    /// The degree the query's **own** widths would earn in the counting
    /// classification (aggregates share counting's non-core-invariance).
    pub degree_hint: Degree,
    /// Width profile of the original query (what
    /// [`CountMethod::admits`] keyed on).
    pub widths: WidthProfile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountRegistry, Engine, EngineConfig, PreparedQuery};
    use cq_structures::{families, Structure, StructureIndex, TupleWeights};

    fn prepared(a: &Structure) -> PreparedQuery {
        PreparedQuery::prepare(a, &EngineConfig::default())
    }

    #[test]
    fn standard_registry_selects_the_counting_tiers() {
        // Aggregates dispatch over the counting tiers: every engine report
        // carries the tier counting picks.
        let cases = [
            (families::star(5), CountMethod::ForestSumProduct),
            // P9's own tree depth exceeds the threshold; its treewidth is 1.
            (families::path(9), CountMethod::TreeDecompositionDp),
            (families::clique(5), CountMethod::BruteForce),
        ];
        let b = families::clique(3);
        let weights = TupleWeights::uniform(&b, 1);
        let engine = Engine::new(EngineConfig::default());
        for (a, expected) in cases {
            let report = engine.evaluate_min_cost(&a, &b, &weights);
            assert_eq!(report.method, expected, "{a}");
            assert_eq!(engine.count_instance(&a, &b).method, expected, "{a}");
        }
    }

    #[test]
    fn without_removes_a_tier() {
        // Ablating a tier of the shared counting list moves aggregates
        // and counts alike to the next tier.
        let registry = CountRegistry::standard().without(CountMethod::ForestSumProduct);
        assert_eq!(registry.tiers().len(), 2);
        let engine = Engine::new(EngineConfig::default()).with_count_registry(registry);
        let a = families::star(5);
        let b = families::clique(3);
        let weights = TupleWeights::uniform(&b, 1);
        let report = engine.evaluate_min_cost(&a, &b, &weights);
        assert_eq!(report.method, CountMethod::TreeDecompositionDp);
        assert_eq!(
            engine.count_instance(&a, &b).method,
            CountMethod::TreeDecompositionDp
        );
    }

    #[test]
    fn every_tier_agrees_on_uniform_weights() {
        // Uniform weight w: every homomorphism costs exactly
        // `w · #query-tuples`, so min and max coincide on every tier.
        let registry = CountRegistry::standard();
        for a in [families::star(3), families::path(4)] {
            let q = prepared(&a);
            let expected = Some(3 * a.tuple_count() as u64);
            for b in [families::clique(3), families::cycle(6)] {
                let index = StructureIndex::new(&b);
                let weights = TupleWeights::uniform(&b, 3);
                for &s in registry.tiers() {
                    for objective in [AggregateObjective::MinCost, AggregateObjective::MaxWeight] {
                        assert_eq!(
                            s.evaluate(&q, &b, &index, &weights, objective),
                            expected,
                            "{s:?} {objective} on {a} -> {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_homomorphism_reports_none_on_every_tier() {
        let registry = CountRegistry::standard();
        // An odd cycle has no homomorphism into an even one (bipartite).
        let a = families::cycle(3);
        let b = families::cycle(4);
        let q = prepared(&a);
        let index = StructureIndex::new(&b);
        let weights = TupleWeights::uniform(&b, 1);
        for &s in registry.tiers() {
            for objective in [AggregateObjective::MinCost, AggregateObjective::MaxWeight] {
                assert_eq!(s.evaluate(&q, &b, &index, &weights, objective), None);
            }
        }
    }
}
