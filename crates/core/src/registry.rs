//! Decision dispatch: the [`SolverChoice`] tiers in priority order.
//!
//! The Classification Theorem licenses a per-query algorithm choice: the
//! para-L tree-depth evaluation when the (core's) tree depth is bounded, the
//! PATH sweep when the pathwidth is bounded, the TREE dynamic program when
//! the treewidth is bounded, and plain backtracking otherwise.  Instead of a
//! hard-coded `if`/`else` chain, the engine walks a priority-ordered
//! [`SolverRegistry`] of tiers and dispatches to the first whose
//! [`SolverChoice::admits`] accepts the prepared query — so ablation
//! experiments (E12) are registry edits ([`SolverRegistry::without`])
//! rather than code forks.
//!
//! Every tier consumes the *certificates* carried by the [`PreparedQuery`]
//! (elimination forest, staircase decomposition, tree decomposition) plus
//! the **instance index** of the database ([`StructureIndex`], built once
//! per database and cached by the engine) and runs the flat evaluation
//! kernel of [`cq_solver::kernel`] through the plan's per-index program
//! cache, so a warm `(plan, database)` pair recompiles nothing.  The
//! reference implementations (`cq_solver::treedec`, `cq_solver::pathdp`,
//! the raw backtracking searches) are retained as the oracle of the
//! differential tests, not dispatched here.
//!
//! Counting and weighted aggregates dispatch the same way over
//! [`crate::CountMethod`] tiers, keyed on the original query's widths
//! ([`crate::CountRegistry`]).

use crate::engine::{EngineConfig, SolverChoice};
use crate::prepared::{PreparedQuery, Side};
use cq_structures::{Structure, StructureIndex};

/// What one tier evaluation produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOutcome {
    /// Whether a homomorphism exists.
    pub exists: bool,
    /// A tier-specific work/space figure for the experiment reports:
    /// candidate assignments for the forest evaluation and the backtracking
    /// search, peak frontier size for the path sweep, peak viable-row table
    /// for the tree DP.  `None` when the tier reports nothing.
    pub work: Option<u64>,
}

impl SolverChoice {
    /// The tier itself.  [`SolverRegistry::select`] returns the tier, and
    /// callers read it back by this name (perfbench's traced replay does).
    pub fn choice(self) -> SolverChoice {
        self
    }

    /// Whether this tier's structural licence covers the prepared query
    /// under the given thresholds (keyed on the evaluated structure's
    /// widths — decision is core-invariant).
    pub fn admits(self, query: &PreparedQuery, config: &EngineConfig) -> bool {
        let widths = query.widths();
        match self {
            SolverChoice::TreeDepth => widths.treedepth <= config.treedepth_threshold,
            SolverChoice::PathDecomposition => widths.pathwidth <= config.pathwidth_threshold,
            SolverChoice::TreeDecomposition => widths.treewidth <= config.treewidth_threshold,
            SolverChoice::Backtracking => true,
        }
    }

    /// Decide the prepared query against one database through its index:
    ///
    /// * tree depth — the kernel sum–product recursion over the
    ///   elimination-forest certificate with first-witness early exit
    ///   (Lemma 3.3; `O(td)` images in memory);
    /// * pathwidth — the kernel staircase sweep (Theorem 4.6);
    /// * treewidth — the kernel tree DP, retained across in-place deltas
    ///   ([`PreparedQuery::decide_via_tree`]);
    /// * backtracking — the whole query as one kernel bag program searched
    ///   for a first witness in fail-first order (no structural guarantee).
    pub fn solve(
        self,
        query: &PreparedQuery,
        _database: &Structure,
        index: &StructureIndex,
    ) -> SolveOutcome {
        let (exists, work) = match self {
            SolverChoice::TreeDepth => {
                let run = query.forest(index, Side::Evaluated).decide(index);
                (run.exists, run.assignments)
            }
            SolverChoice::PathDecomposition => {
                let report = query.stair(index).run(index);
                (report.exists, report.peak_frontier as u64)
            }
            SolverChoice::TreeDecomposition => {
                let run = query.decide_via_tree(index);
                (run.exists, run.peak_table as u64)
            }
            SolverChoice::Backtracking => {
                let (hom, stats) = query.search(index, Side::Evaluated).run(index);
                (hom.is_some(), stats.assignments)
            }
        };
        SolveOutcome {
            exists,
            work: Some(work),
        }
    }
}

/// A priority-ordered list of decision tiers; dispatch picks the first that
/// admits the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverRegistry {
    tiers: Vec<SolverChoice>,
}

impl SolverRegistry {
    /// The standard order of Theorem 3.1: tree depth, then pathwidth, then
    /// treewidth, then the backtracking fallback.
    pub fn standard() -> SolverRegistry {
        SolverRegistry {
            tiers: vec![
                SolverChoice::TreeDepth,
                SolverChoice::PathDecomposition,
                SolverChoice::TreeDecomposition,
                SolverChoice::Backtracking,
            ],
        }
    }

    /// This registry minus the given tier — the E12 ablation edit ("what
    /// happens without the path sweep?").
    pub fn without(mut self, choice: SolverChoice) -> SolverRegistry {
        self.tiers.retain(|&t| t != choice);
        self
    }

    /// The first tier admitting the query, in priority order.
    pub fn select(&self, query: &PreparedQuery, config: &EngineConfig) -> Option<SolverChoice> {
        self.tiers.iter().copied().find(|t| t.admits(query, config))
    }

    /// The tiers in priority order.
    pub fn tiers(&self) -> &[SolverChoice] {
        &self.tiers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::{families, star_expansion};

    fn prepared(a: &Structure) -> PreparedQuery {
        PreparedQuery::prepare(a, &EngineConfig::default())
    }

    #[test]
    fn standard_registry_selects_in_priority_order() {
        let cfg = EngineConfig::default();
        let registry = SolverRegistry::standard();
        assert_eq!(registry.tiers().len(), 4);
        let cases = [
            (families::star(5), SolverChoice::TreeDepth),
            (
                star_expansion(&families::path(9)),
                SolverChoice::PathDecomposition,
            ),
            (families::clique(5), SolverChoice::Backtracking),
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
        let registry = SolverRegistry::standard().without(SolverChoice::TreeDepth);
        assert_eq!(registry.tiers().len(), 3);
        // A star has tree depth 2; with the tree-depth tier ablated the
        // path sweep (pathwidth 1) picks it up.
        let q = prepared(&families::star(5));
        let s = registry.select(&q, &cfg).expect("fallback admits");
        assert_eq!(s, SolverChoice::PathDecomposition);
    }

    #[test]
    fn all_registry_solvers_agree_with_the_reference() {
        let registry = SolverRegistry::standard();
        // A query every tier admits: a star (td 2, pw 1, tw 1).
        let a = families::star(3);
        let q = prepared(&a);
        for b in [families::clique(3), families::cycle(6), families::path(4)] {
            let expected = cq_structures::homomorphism_exists(&a, &b);
            let index = StructureIndex::new(&b);
            for &s in registry.tiers() {
                assert_eq!(
                    s.solve(&q, &b, &index).exists,
                    expected,
                    "{s:?} on {a} -> {b}"
                );
            }
        }
    }
}
