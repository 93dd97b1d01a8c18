//! The [`PreparedQuery`] artifact: everything the engine needs to evaluate
//! one query against arbitrarily many databases, computed **once**.
//!
//! Preparation performs the per-query exponential work the Classification
//! Theorem licenses spending (it depends only on the parameter): the core
//! computation (Theorem 3.1 classifies by cores), the Gaifman graph, and the
//! single-pass structural analysis of [`cq_decomp::analyze`] — the three
//! width measures **with** their certificates (elimination forest, path
//! decomposition, tree decomposition).  The engine's evaluation tiers
//! consume those certificates directly, so nothing exponential in the query runs
//! again at evaluation time; the regression tests assert this through the
//! call counters of [`cq_decomp::stats`] and
//! [`cq_structures::core_computation_count`].
//!
//! Three derived per-query artifacts are materialized lazily on first use
//! and then shared by every subsequent evaluation:
//!
//! * the Lemma 3.3 `{∧,∃}`-sentence (the differential oracle's tree-depth
//!   reference), compiled from the elimination-forest certificate;
//! * the staircase normal form of the path decomposition (path-sweep
//!   tier);
//! * the **counting certificates**: the structural analysis of the
//!   *original* query.  Counting is **not** invariant under taking cores
//!   (a query and its core have the same decision answer but different
//!   homomorphism counts), so the counting tiers of
//!   [`crate::counting::CountRegistry`] must run on the query exactly as
//!   submitted — with certificates of *its* Gaifman graph, not the core's.
//!   When the evaluated structure already equals the original (core
//!   preprocessing disabled, or the query is its own core) the decision
//!   certificates are reused and no extra width DP ever runs.
//!
//! Compiled kernel programs are cached per database index: one program per
//! (program kind, side) — forest, staircase, tree DP and whole-query
//! search, over the evaluated or the original structure.

use crate::engine::EngineConfig;
use crate::lru::Lru;
use crate::Degree;
use cq_decomp::{PathDecomposition, StructuralAnalysis, WidthProfile};
use cq_graphs::{gaifman_graph, Graph};
use cq_logic::canonical::query_fingerprint;
use cq_logic::treedepth_sentence::{corresponding_sentence_with_forest, TreeDepthSentence};
use cq_solver::kernel::{
    AnswerProgram, ForestProgram, SearchProgram, StairProgram, TreeDpProgram, TreeDpRun,
    TreeIncrementalState,
};
use cq_solver::{BoolSemiring, CheckedNatSemiring, Nat, Semiring};
use cq_structures::codec::{encode_option_ref, Decode, DecodeError, Encode, Reader};
use cq_structures::{
    core_of, embedding_exists, homomorphism_exists, Element, Structure, StructureIndex,
};
use std::sync::{Arc, Mutex, OnceLock};

/// Cap on memoized count-verified relabelled forms per plan (a client
/// cycling more distinct orderings than this re-verifies the overflow
/// ones).
const MAX_COUNT_VERIFIED_ALIASES: usize = 16;

/// Cap on compiled kernel-program bundles retained per plan — one bundle
/// per distinct cached database index, least-recently-used beyond this (a
/// client cycling more hot databases than this recompiles the overflow
/// ones; compilation is query-sized work, so an eviction costs
/// milliseconds, never correctness).
const MAX_KERNEL_BUNDLES: usize = 8;

/// Cap on compiled answer programs retained per kernel bundle, keyed by
/// free-element list — clients normally ask one query for answers under one
/// free list, so this stays tiny; cycling more lists recompiles the
/// overflow ones.
const MAX_ANSWER_PROGRAMS: usize = 4;

/// Which of a plan's two structures a compiled program evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The evaluated structure (the core under `use_core`) with the
    /// decision certificates.
    Evaluated = 0,
    /// The query as submitted with the counting certificates — counts,
    /// aggregates and answers are not core-invariant.
    Original = 1,
}

/// The compiled kernel programs of one `(plan, database index)` pair: one
/// slot per (program kind, [`Side`]), materialized on first use and reused
/// by every later evaluation against the same index (bundles are keyed by
/// `(`[`StructureIndex::id`]`, `[`StructureIndex::domain_epoch`]`)` —
/// compiled programs bake per-position prefilter domains, which stay sound
/// supersets across in-place deltas *within* an epoch but must be
/// recompiled when a delta grows a domain and bumps the epoch).
///
/// Decision programs compile the **evaluated** structure with the decision
/// certificates; counting, aggregate and answer programs compile the
/// **original** with the counting certificates — counting is not
/// core-invariant, so the two sides never share a program even when both
/// are warm.  Compiled programs are semiring-agnostic: aggregates run the
/// counting programs with per-call weights.
///
/// The two `*_retained` slots carry the incremental DP join tables of
/// [`TreeDpProgram::eval_retained`]: after [`crate::Engine::apply_delta`]
/// mutates the index in place, the next tree-DP decide/count patches or
/// selectively recomputes only the bags a touched relation reaches instead
/// of re-running the whole DP.  `try_lock` keeps concurrent evaluations
/// wait-free: a contended caller falls back to a plain stateless pass.
struct IndexKernels {
    forest: [OnceLock<Arc<ForestProgram>>; 2],
    tree: [OnceLock<Arc<TreeDpProgram>>; 2],
    search: [OnceLock<Arc<SearchProgram>>; 2],
    /// Path sweeps are a decision tier only: evaluated side.
    stair: OnceLock<Arc<StairProgram>>,
    /// Decision stays on [`bool`] deliberately: `CheckedNat` would make
    /// deltas patchable (⊖ exists), but it prices every *recomputed* bag
    /// at full counting arithmetic — measurably slower than Bool's
    /// absorbing ⊕ whenever churn dirties most bags (E21's bulk family).
    /// Bool recomputes dirty bags cheaply and reuses clean ones, which is
    /// the better trade on both ends of the churn spectrum.
    tree_decide_retained: Mutex<Option<TreeIncrementalState<bool>>>,
    tree_count_retained: Mutex<Option<TreeIncrementalState<Nat>>>,
    /// Compiled [`AnswerProgram`]s keyed by free-element list (declared
    /// order matters — it is the answer-column order).  A plan may serve
    /// answers under several free lists; each compiles its own
    /// adjoined-decomposition DP, LRU-retained up to
    /// [`MAX_ANSWER_PROGRAMS`].
    answers: Mutex<Lru<(Vec<Element>, Arc<AnswerProgram>)>>,
}

impl Default for IndexKernels {
    fn default() -> IndexKernels {
        IndexKernels {
            forest: Default::default(),
            tree: Default::default(),
            search: Default::default(),
            stair: OnceLock::new(),
            tree_decide_retained: Mutex::new(None),
            tree_count_retained: Mutex::new(None),
            answers: Mutex::new(Lru::new(MAX_ANSWER_PROGRAMS)),
        }
    }
}

impl std::fmt::Debug for IndexKernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn compiled<P>(slots: &[OnceLock<Arc<P>>]) -> Vec<bool> {
            slots.iter().map(|slot| slot.get().is_some()).collect()
        }
        f.debug_struct("IndexKernels")
            .field("forest", &compiled(&self.forest))
            .field("tree", &compiled(&self.tree))
            .field("search", &compiled(&self.search))
            .field("stair", &self.stair.get().is_some())
            .finish_non_exhaustive()
    }
}

/// A query prepared for repeated evaluation: the core, its Gaifman graph,
/// the width profile, and the decomposition certificates — computed once,
/// reused for every database.
///
/// Obtained from [`crate::Engine::prepare`] (which caches prepared queries
/// by [fingerprint](cq_logic::canonical::query_fingerprint)) or directly
/// from [`PreparedQuery::prepare`].
#[derive(Debug)]
pub struct PreparedQuery {
    fingerprint: u64,
    original: Structure,
    evaluated: Structure,
    core_applied: bool,
    gaifman: Graph,
    analysis: StructuralAnalysis,
    degree_hint: Degree,
    sentence: OnceLock<TreeDepthSentence>,
    staircase: OnceLock<PathDecomposition>,
    /// Structural analysis of the **original** structure, for the counting
    /// path (counting is not core-invariant).  Populated lazily on the
    /// first counting evaluation; `None` forever when `evaluated ==
    /// original`, in which case [`Self::counting_analysis`] serves the
    /// decision analysis instead of duplicating it.
    counting: OnceLock<StructuralAnalysis>,
    /// Non-identical submitted forms (relabellings) already verified
    /// **isomorphic** to the original — so repeat counting lookups of the
    /// same form cost a structural equality check instead of two
    /// exponential embedding searches per count (the counting analogue of
    /// the cache's decision-level alias memoization).
    count_verified_aliases: Mutex<Vec<Structure>>,
    /// Compiled kernel programs per cached database index, keyed by
    /// `(`[`StructureIndex::id`]`, `[`StructureIndex::domain_epoch`]`)` and
    /// LRU-retained up to [`MAX_KERNEL_BUNDLES`] — an in-place delta that grows
    /// a position domain bumps the epoch and transparently recompiles, while
    /// same-epoch deltas keep every warm program (their baked domains remain
    /// sound supersets).  A runtime cache of compilation work, never
    /// persisted (a warm-started plan recompiles on first evaluation,
    /// exactly like a cold one).
    kernels: Mutex<Lru<(KernelCacheKey, Arc<IndexKernels>)>>,
}

/// Cache key for [`PreparedQuery`]'s per-index program bundles: the index's
/// [`StructureIndex::id`] plus its domain epoch (an epoch bump invalidates
/// programs whose baked position domains may have grown).
type KernelCacheKey = (u64, u64);

impl PreparedQuery {
    /// Prepare a query under the given configuration.  This is the one-time
    /// per-query cost: core computation (when `config.use_core`), Gaifman
    /// graph, and the single structural-analysis pass.
    pub fn prepare(a: &Structure, config: &EngineConfig) -> PreparedQuery {
        Self::prepare_with_fingerprint(a, config, query_fingerprint(a))
    }

    /// As [`prepare`](Self::prepare) with a caller-supplied fingerprint (the
    /// engine computes the fingerprint first for its cache lookup and avoids
    /// hashing twice).
    pub(crate) fn prepare_with_fingerprint(
        a: &Structure,
        config: &EngineConfig,
        fingerprint: u64,
    ) -> PreparedQuery {
        let evaluated = if config.use_core {
            core_of(a).core
        } else {
            a.clone()
        };
        let gaifman = gaifman_graph(&evaluated);
        let analysis = cq_decomp::analyze(&gaifman);
        let degree_hint = config.degree_hint(analysis.widths);
        PreparedQuery {
            fingerprint,
            original: a.clone(),
            evaluated,
            core_applied: config.use_core,
            gaifman,
            analysis,
            degree_hint,
            sentence: OnceLock::new(),
            staircase: OnceLock::new(),
            counting: OnceLock::new(),
            count_verified_aliases: Mutex::new(Vec::new()),
            kernels: Mutex::new(Lru::new(MAX_KERNEL_BUNDLES)),
        }
    }

    /// The isomorphism-invariant fingerprint of the original query (the plan
    /// cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The query exactly as submitted.
    pub fn original(&self) -> &Structure {
        &self.original
    }

    /// The structure actually evaluated: the core of the original when the
    /// configuration enables core preprocessing, the original otherwise.
    pub fn evaluated(&self) -> &Structure {
        &self.evaluated
    }

    /// Whether `evaluated` is the core of `original`.
    pub fn core_applied(&self) -> bool {
        self.core_applied
    }

    /// Universe size of the evaluated structure.
    pub fn evaluated_size(&self) -> usize {
        self.evaluated.universe_size()
    }

    /// The Gaifman graph of the evaluated structure.
    pub fn gaifman(&self) -> &Graph {
        &self.gaifman
    }

    /// The structural analysis: widths plus certificates.
    pub fn analysis(&self) -> &StructuralAnalysis {
        &self.analysis
    }

    /// The width profile of the evaluated structure.
    pub fn widths(&self) -> WidthProfile {
        self.analysis.widths
    }

    /// The degree this single query would contribute to a class
    /// classification, judged against the preparing configuration's
    /// thresholds.
    pub fn degree_hint(&self) -> Degree {
        self.degree_hint
    }

    /// The Lemma 3.3 `{∧,∃}`-sentence corresponding to the evaluated
    /// structure, compiled on first use from the elimination-forest
    /// certificate (no tree-depth recomputation) and cached for every later
    /// evaluation.
    pub fn sentence(&self) -> &TreeDepthSentence {
        self.sentence.get_or_init(|| {
            corresponding_sentence_with_forest(
                &self.evaluated,
                &self.analysis.elimination_forest,
                self.analysis.widths.treedepth,
            )
        })
    }

    /// The staircase normal form of the optimal path decomposition,
    /// normalized on first use and cached (the Theorem 4.6 sweep consumes
    /// staircase form).
    pub fn staircase(&self) -> &PathDecomposition {
        self.staircase
            .get_or_init(|| self.analysis.path_decomposition.normalize_staircase())
    }

    /// Whether the counting path can reuse the decision certificates: true
    /// exactly when the evaluated structure is the original structure
    /// (core preprocessing off, or the query is its own core).
    fn counting_reuses_decision_analysis(&self) -> bool {
        self.evaluated == self.original
    }

    /// The structural analysis of the **original** query — the certificates
    /// the counting solvers consume.
    ///
    /// Counting is not invariant under taking cores: `#hom(A, B)` differs
    /// from `#hom(core(A), B)` whenever the core is proper (e.g.
    /// `#hom(P₄, K₃) = 24` but the core of `P₄` is an edge with
    /// `#hom(K₂, K₃) = 6`).  The decision path may therefore evaluate the
    /// core while the counting path must run on `original`; this accessor
    /// serves the matching certificates, computing them lazily on first use
    /// (and reusing the decision analysis outright when the two structures
    /// coincide, so no width DP runs twice).
    ///
    /// Engine-managed plans should be counted through
    /// [`crate::Engine::count_prepared`], which folds the width-DP work of
    /// this lazy computation into [`crate::Engine::prep_stats`].
    pub fn counting_analysis(&self) -> &StructuralAnalysis {
        self.counting_analysis_tracked().0
    }

    /// As [`Self::counting_analysis`], additionally reporting whether *this*
    /// call performed the one-time computation (`true` at most once per
    /// plan, and never when the decision analysis is reused) — the engine
    /// uses the flag to attribute the width-DP delta to its [`crate::PrepStats`].
    pub(crate) fn counting_analysis_tracked(&self) -> (&StructuralAnalysis, bool) {
        if self.counting_reuses_decision_analysis() {
            return (&self.analysis, false);
        }
        let mut computed = false;
        let analysis = self.counting.get_or_init(|| {
            computed = true;
            cq_decomp::analyze(&gaifman_graph(&self.original))
        });
        (analysis, computed)
    }

    /// The width profile of the **original** query (counting-solver
    /// selection keys on these widths, not the core's — Theorem 6.1
    /// classifies counting by the members themselves).
    pub fn counting_widths(&self) -> WidthProfile {
        self.counting_analysis().widths
    }

    /// The kernel-program bundle for one database index **at its current
    /// domain epoch**, created on first sight and LRU-retained up to
    /// [`MAX_KERNEL_BUNDLES`] distinct `(index, epoch)` pairs.  A bundle
    /// compiled before a domain-growing delta keys under the old epoch and
    /// ages out of the LRU naturally.  A poisoned lock only means a panic
    /// elsewhere while the list was held; the cached programs are still
    /// valid.
    fn kernels_for(&self, index: &StructureIndex) -> Arc<IndexKernels> {
        let key = (index.id(), index.domain_epoch());
        let mut cache = self
            .kernels
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, bundle)) = cache.get(|(k, _)| *k == key) {
            return Arc::clone(bundle);
        }
        let bundle = Arc::new(IndexKernels::default());
        cache.push((key, Arc::clone(&bundle)));
        bundle
    }

    /// The structure and certificates programs for `side` compile.
    fn side(&self, side: Side) -> (&Structure, &StructuralAnalysis) {
        match side {
            Side::Evaluated => (&self.evaluated, &self.analysis),
            Side::Original => (&self.original, self.counting_analysis()),
        }
    }

    /// The kernel forest evaluation (tree-depth tiers) of `side`, compiled
    /// on first use against `index` and reused afterwards (as are the
    /// programs of the lookups below).
    pub(crate) fn forest(&self, index: &StructureIndex, side: Side) -> Arc<ForestProgram> {
        let kernels = self.kernels_for(index);
        Arc::clone(kernels.forest[side as usize].get_or_init(|| {
            let (a, certificates) = self.side(side);
            Arc::new(ForestProgram::compile(
                a,
                index,
                &certificates.elimination_forest,
            ))
        }))
    }

    /// The kernel tree DP (treewidth tiers) of `side`.
    pub(crate) fn tree(&self, index: &StructureIndex, side: Side) -> Arc<TreeDpProgram> {
        self.tree_in(&self.kernels_for(index), index, side)
    }

    fn tree_in(
        &self,
        kernels: &IndexKernels,
        index: &StructureIndex,
        side: Side,
    ) -> Arc<TreeDpProgram> {
        Arc::clone(kernels.tree[side as usize].get_or_init(|| {
            let (a, certificates) = self.side(side);
            Arc::new(TreeDpProgram::compile(
                a,
                index,
                &certificates.tree_decomposition,
            ))
        }))
    }

    /// The kernel whole-query search of `side` in fail-first order (the
    /// structure-agnostic fallback tiers).
    pub(crate) fn search(&self, index: &StructureIndex, side: Side) -> Arc<SearchProgram> {
        let kernels = self.kernels_for(index);
        Arc::clone(
            kernels.search[side as usize]
                .get_or_init(|| Arc::new(SearchProgram::compile(self.side(side).0, index, true))),
        )
    }

    /// The kernel staircase sweep (pathwidth tier) of the evaluated
    /// structure.
    pub(crate) fn stair(&self, index: &StructureIndex) -> Arc<StairProgram> {
        let kernels = self.kernels_for(index);
        Arc::clone(kernels.stair.get_or_init(|| {
            Arc::new(StairProgram::compile(
                &self.evaluated,
                index,
                self.staircase(),
            ))
        }))
    }

    /// The tree DP of `side`, evaluated **retained**: the per-edge DP join
    /// tables of the last run stay in `state`'s slot of the bundle, so
    /// after an in-place [`crate::Engine::apply_delta`] only the bags whose
    /// constraints mention a touched relation re-run.  A concurrent
    /// evaluation holding the retained state falls back to a plain
    /// stateless pass.  Returns the aggregate and the peak table.
    fn tree_retained<S: Semiring>(
        &self,
        index: &StructureIndex,
        side: Side,
        state: impl FnOnce(&IndexKernels) -> &Mutex<Option<TreeIncrementalState<S::Value>>>,
    ) -> (S::Value, usize) {
        let kernels = self.kernels_for(index);
        let program = self.tree_in(&kernels, index, side);
        if let Ok(mut state) = state(&kernels).try_lock() {
            let (value, stats) = program.eval_retained::<S>(index, &mut state);
            return (value, stats.peak_table);
        }
        program.eval::<S>(index, None)
    }

    /// Decide through the retained kernel tree DP (treewidth tier) of the
    /// evaluated structure.  Bool is not invertible, so dirty bags
    /// recompute rather than patch — see the bundle field docs for why
    /// that beats a `CheckedNat` decide state.
    pub fn decide_via_tree(&self, index: &StructureIndex) -> TreeDpRun {
        let (exists, peak_table) =
            self.tree_retained::<BoolSemiring>(index, Side::Evaluated, |k| &k.tree_decide_retained);
        TreeDpRun {
            exists,
            count: Nat::Finite(u64::from(exists)),
            peak_table,
        }
    }

    /// Count through the retained kernel tree DP of the **original**
    /// structure with the counting certificates.  Counts additionally get
    /// the subtractive fast path (`CheckedNat` is invertible, so a small
    /// delta patches group sums by ⊖/⊕ instead of re-enumerating the bag).
    pub fn count_via_tree(&self, index: &StructureIndex) -> TreeDpRun {
        let (count, peak_table) =
            self.tree_retained::<CheckedNatSemiring>(index, Side::Original, |k| {
                &k.tree_count_retained
            });
        TreeDpRun {
            exists: count.positive(),
            count,
            peak_table,
        }
    }

    /// The compiled [`AnswerProgram`] for one free-element list against one
    /// index: the **original** structure's counting tree decomposition with
    /// the free elements adjoined to every bag (answers, like counts, are
    /// not core-invariant — projecting homomorphisms of the core onto free
    /// positions of the core would answer a different query).  Compiled on
    /// first use and LRU-cached per free list on the index's kernel bundle.
    ///
    /// `free` must be the canonical-structure elements of the free
    /// variables in declared order, distinct; the engine validates this at
    /// the [`cq_structures::ConjunctiveQuery`] boundary.
    pub fn answer_program(&self, index: &StructureIndex, free: &[Element]) -> Arc<AnswerProgram> {
        let kernels = self.kernels_for(index);
        let mut cache = kernels
            .answers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((_, program)) = cache.get(|(f, _)| f == free) {
            return Arc::clone(program);
        }
        let program = Arc::new(AnswerProgram::compile(
            &self.original,
            index,
            &self.counting_analysis().tree_decomposition,
            free,
        ));
        cache.push((free.to_vec(), Arc::clone(&program)));
        program
    }

    /// Whether this plan answers queries for `candidate`: true when
    /// `candidate` is homomorphically equivalent to the prepared original —
    /// exactly the equivalence under which `p-HOM` answers (and cores, hence
    /// plans) are preserved.  Used by the engine to confirm fingerprint
    /// matches before reusing a cached plan, so a hash collision can cost a
    /// cache miss but never a wrong answer.
    pub fn answers_for(&self, candidate: &Structure) -> bool {
        if *candidate == self.original {
            return true;
        }
        homomorphism_exists(candidate, &self.original)
            && homomorphism_exists(&self.original, candidate)
    }

    /// Whether this plan **counts** for `candidate`: true when `candidate`
    /// is *isomorphic* to the prepared original.
    ///
    /// Strictly stronger than [`Self::answers_for`], and necessarily so:
    /// homomorphism counts are invariant under isomorphism but **not**
    /// under homomorphic equivalence (the equivalence the decision cache
    /// trades in) — `P₄` and `K₂` are hom-equivalent yet have different
    /// counts into every non-trivial target.  The engine consults this
    /// before serving a count from a plan whose original differs
    /// syntactically from the submitted query; a hom-equivalent but
    /// non-isomorphic alias falls back to an uncached exact count instead
    /// of a silently wrong one.
    ///
    /// The check is two injective-homomorphism searches on parameter-sized
    /// structures: for finite structures, bijective homomorphisms in both
    /// directions compose to a bijective endo-homomorphism whose finite
    /// order makes the inverse a homomorphism too, i.e. an isomorphism.
    /// Verified forms are memoized on the plan, so repeated counting
    /// traffic submitting the same relabelling pays the searches once and
    /// a structural equality scan thereafter.
    pub fn counts_for(&self, candidate: &Structure) -> bool {
        if *candidate == self.original {
            return true;
        }
        if candidate.universe_size() != self.original.universe_size() {
            return false;
        }
        // A poisoned lock only means a panic elsewhere while the list was
        // held; the memoized entries are still valid.
        if self
            .count_verified_aliases
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .contains(candidate)
        {
            return true;
        }
        let isomorphic = embedding_exists(candidate, &self.original)
            && embedding_exists(&self.original, candidate);
        if isomorphic {
            let mut aliases = self
                .count_verified_aliases
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if aliases.len() < MAX_COUNT_VERIFIED_ALIASES && !aliases.contains(candidate) {
                aliases.push(candidate.clone());
            }
        }
        isomorphic
    }
}

/// Binary encoding of a prepared plan: the eager artifacts in declaration
/// order, then the three lazily materialized ones (`{∧,∃}`-sentence,
/// staircase form, counting certificates) as present/absent options — a
/// plan saved before any counting traffic simply stores `None` and the
/// warm-started engine materializes on first use, exactly like a plan
/// prepared in process.  The runtime alias memo and the per-index kernel
/// bundles are deliberately not persisted (they cache verification and
/// compilation work against process-local state — index ids are not
/// stable across processes — and are not part of the plan).
impl Encode for PreparedQuery {
    fn encode(&self, out: &mut Vec<u8>) {
        self.fingerprint.encode(out);
        self.original.encode(out);
        self.evaluated.encode(out);
        self.core_applied.encode(out);
        self.gaifman.encode(out);
        self.analysis.encode(out);
        self.degree_hint.encode(out);
        encode_option_ref(self.sentence.get(), out);
        encode_option_ref(self.staircase.get(), out);
        encode_option_ref(self.counting.get(), out);
    }
}

impl Decode for PreparedQuery {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        fn lock_from<T>(value: Option<T>) -> OnceLock<T> {
            match value {
                Some(v) => OnceLock::from(v),
                None => OnceLock::new(),
            }
        }
        Ok(PreparedQuery {
            fingerprint: u64::decode(r)?,
            original: Structure::decode(r)?,
            evaluated: Structure::decode(r)?,
            core_applied: bool::decode(r)?,
            gaifman: Graph::decode(r)?,
            analysis: StructuralAnalysis::decode(r)?,
            degree_hint: Degree::decode(r)?,
            sentence: lock_from(Option::<TreeDepthSentence>::decode(r)?),
            staircase: lock_from(Option::<PathDecomposition>::decode(r)?),
            counting: lock_from(Option::<StructuralAnalysis>::decode(r)?),
            count_verified_aliases: Mutex::new(Vec::new()),
            kernels: Mutex::new(Lru::new(MAX_KERNEL_BUNDLES)),
        })
    }
}

impl PreparedQuery {
    /// Verify a decoded plan before trusting it with traffic: every
    /// derivable fact the plan asserts about itself is re-checked against
    /// the configuration it is about to serve under, so a corrupted or
    /// stale record (old thresholds, edited certificates, a swapped
    /// original) is rejected and degrades to a cold prepare — never a wrong
    /// answer.
    ///
    /// The checks reuse the engine's own confirmation paths: the
    /// isomorphism-invariant fingerprint, the homomorphic-equivalence check
    /// behind [`PreparedQuery::answers_for`], the decomposition validity
    /// checkers, and a deterministic recompilation of the lazily cached
    /// sentence/staircase artifacts.  No width DP and no core computation
    /// runs — that is what makes warm starts cheap (asserted by the
    /// round-trip tests through [`crate::PrepStats`]).  The hom-equivalence
    /// confirmation is the same backtracking search the cache's lookup
    /// confirmation uses: worst-case exponential in the *query*, which is
    /// parameter-sized by the problem's definition — but a store record is
    /// untrusted input, so callers loading stores from unvetted sources
    /// should expect verification time proportional to preparing the same
    /// queries' hom-equivalence checks, not a fixed bound.
    pub fn verify(&self, config: &EngineConfig) -> Result<(), &'static str> {
        if self.core_applied != config.use_core {
            return Err("plan prepared under a different core-preprocessing setting");
        }
        if query_fingerprint(&self.original) != self.fingerprint {
            return Err("fingerprint does not match the stored original");
        }
        if self.core_applied {
            if !(homomorphism_exists(&self.evaluated, &self.original)
                && homomorphism_exists(&self.original, &self.evaluated))
            {
                return Err("evaluated structure is not hom-equivalent to the original");
            }
        } else if self.evaluated != self.original {
            return Err("evaluated structure differs although core preprocessing is off");
        }
        if self.gaifman != gaifman_graph(&self.evaluated) {
            return Err("stale Gaifman graph");
        }
        Self::verify_analysis(&self.analysis, &self.gaifman)?;
        let widths = self.analysis.widths;
        if self.degree_hint != config.degree_hint(widths) {
            return Err("degree hint inconsistent with the widths and thresholds");
        }
        if let Some(sentence) = self.sentence.get() {
            let expected = corresponding_sentence_with_forest(
                &self.evaluated,
                &self.analysis.elimination_forest,
                widths.treedepth,
            );
            if sentence.sentence != expected.sentence
                || sentence.core != expected.core
                || sentence.treedepth != expected.treedepth
                || sentence.forest != expected.forest
            {
                return Err("cached sentence differs from a fresh compilation");
            }
        }
        if let Some(staircase) = self.staircase.get() {
            if *staircase != self.analysis.path_decomposition.normalize_staircase() {
                return Err("cached staircase differs from a fresh normalization");
            }
        }
        match self.counting.get() {
            Some(_) if self.evaluated == self.original => {
                // When the evaluated structure *is* the original the plan
                // reuses the decision certificates and never populates this
                // slot; a populated slot is a non-canonical (tampered)
                // record.
                return Err("redundant counting certificates");
            }
            Some(counting) => {
                Self::verify_analysis(counting, &gaifman_graph(&self.original))?;
            }
            None => {}
        }
        Ok(())
    }

    /// Certificate-side consistency: every certificate must be valid for
    /// the graph and witness exactly the claimed width.  (A valid
    /// certificate of the claimed width cannot understate the true width,
    /// so the registry can never be tricked into running a solver outside
    /// its licence with an unusable certificate.)
    fn verify_analysis(analysis: &StructuralAnalysis, gaifman: &Graph) -> Result<(), &'static str> {
        let widths = analysis.widths;
        if !analysis.tree_decomposition.is_valid_for(gaifman)
            || analysis.tree_decomposition.width() != widths.treewidth
        {
            return Err("invalid or inconsistent tree decomposition");
        }
        if !analysis.path_decomposition.is_valid_for(gaifman)
            || analysis.path_decomposition.width() != widths.pathwidth
        {
            return Err("invalid or inconsistent path decomposition");
        }
        if !analysis.elimination_forest.is_valid_for(gaifman)
            || analysis.elimination_forest.height() != widths.treedepth
        {
            return Err("invalid or inconsistent elimination forest");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_structures::{families, relabeled, star_expansion};

    #[test]
    fn prepare_carries_certificates_matching_the_widths() {
        for a in [
            families::star(4),
            star_expansion(&families::path(6)),
            star_expansion(&families::tree_t(2)),
            families::clique(4),
        ] {
            let q = PreparedQuery::prepare(&a, &EngineConfig::default());
            let w = q.widths();
            let g = q.gaifman();
            assert!(q.analysis().tree_decomposition.is_valid_for(g));
            assert_eq!(q.analysis().tree_decomposition.width(), w.treewidth);
            assert!(q.analysis().path_decomposition.is_valid_for(g));
            assert_eq!(q.analysis().path_decomposition.width(), w.pathwidth);
            assert!(q.analysis().elimination_forest.is_valid_for(g));
            assert_eq!(q.analysis().elimination_forest.height(), w.treedepth);
        }
    }

    #[test]
    fn lazy_artifacts_are_consistent() {
        let a = star_expansion(&families::path(6));
        let q = PreparedQuery::prepare(&a, &EngineConfig::default());
        let stair = q.staircase();
        assert!(stair.is_staircase());
        assert!(stair.width() <= q.widths().pathwidth + 1);
        let sentence = &q.sentence().sentence;
        assert!(sentence.is_and_exists());
        assert!(sentence.is_sentence());
    }

    #[test]
    fn core_preprocessing_respects_the_config() {
        let c8 = families::cycle(8);
        let with_core = PreparedQuery::prepare(&c8, &EngineConfig::default());
        let without_core = PreparedQuery::prepare(
            &c8,
            &EngineConfig {
                use_core: false,
                ..EngineConfig::default()
            },
        );
        assert!(with_core.evaluated_size() < without_core.evaluated_size());
        assert!(with_core.core_applied());
        assert!(!without_core.core_applied());
        assert_eq!(without_core.evaluated(), &c8);
    }

    #[test]
    fn answers_for_accepts_relabellings_and_rejects_strangers() {
        let c7 = families::cycle(7);
        let q = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let perm: Vec<usize> = (0..7).rev().collect();
        assert!(q.answers_for(&c7));
        assert!(q.answers_for(&relabeled(&c7, &perm)));
        assert!(!q.answers_for(&families::cycle(5)));
        assert!(!q.answers_for(&families::path(7)));
    }

    #[test]
    fn counting_analysis_describes_the_original_not_the_core() {
        // P6 cores down to an edge; the decision certificates describe the
        // edge (tree depth 2), the counting certificates the full path.
        let p6 = families::path(6);
        let q = PreparedQuery::prepare(&p6, &EngineConfig::default());
        assert!(q.core_applied());
        assert_eq!(q.evaluated_size(), 2);
        assert_eq!(q.widths().treedepth, 2);
        let counting = q.counting_analysis();
        let original_gaifman = cq_graphs::gaifman_graph(q.original());
        assert!(counting.elimination_forest.is_valid_for(&original_gaifman));
        assert!(counting.tree_decomposition.is_valid_for(&original_gaifman));
        assert_eq!(counting.widths.treewidth, 1);
        assert!(counting.widths.treedepth > 2, "P6 is deeper than its core");
        // The lazy computation happens exactly once.
        let (_, first) = q.counting_analysis_tracked();
        assert!(!first, "already materialized by the accessor above");
    }

    #[test]
    fn counting_analysis_reuses_decision_certificates_for_cores() {
        // An odd cycle is its own core: the counting path must not run a
        // second analysis (observable as pointer identity of the shared
        // certificates).
        let c7 = families::cycle(7);
        let q = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let (counting, computed) = q.counting_analysis_tracked();
        assert!(!computed);
        assert!(std::ptr::eq(counting, q.analysis()));
        assert_eq!(q.counting_widths(), q.widths());
    }

    #[test]
    fn counts_for_is_stricter_than_answers_for() {
        // K2 and P4 are hom-equivalent (shared core K2) but not isomorphic:
        // a K2 plan answers decisions for P4 yet must refuse to count for it
        // (#hom(K2, K3) = 6 while #hom(P4, K3) = 24).
        let k2 = families::path(2);
        let p4 = families::path(4);
        let q = PreparedQuery::prepare(&k2, &EngineConfig::default());
        assert!(q.answers_for(&p4));
        assert!(!q.counts_for(&p4));
        // Relabellings are isomorphic, so counting for them is sound.
        let c7 = families::cycle(7);
        let qc = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let perm: Vec<usize> = (0..7).rev().collect();
        assert!(qc.counts_for(&relabeled(&c7, &perm)));
        assert!(!qc.counts_for(&families::cycle(5)));
    }

    #[test]
    fn kernel_programs_compile_once_per_index_and_lru_evict() {
        use cq_structures::StructureIndex;
        let a = families::star(3);
        let q = PreparedQuery::prepare(&a, &EngineConfig::default());
        let warm = |i: &StructureIndex| {
            q.decide_via_tree(i);
            q.count_via_tree(i);
            q.stair(i);
            for side in [Side::Evaluated, Side::Original] {
                q.forest(i, side);
                q.tree(i, side);
                q.search(i, side);
            }
        };
        let bundle_of = |i: &StructureIndex| -> Arc<IndexKernels> {
            let cache = q.kernels.lock().unwrap();
            let (_, bundle) = cache
                .iter()
                .find(|(key, _)| key.0 == i.id())
                .expect("bundle cached");
            Arc::clone(bundle)
        };
        let k3 = families::clique(3);
        let index = StructureIndex::new(&k3);
        warm(&index);
        // Correctness of the cached programs.
        assert!(q.decide_via_tree(&index).exists);
        assert_eq!(
            q.forest(&index, Side::Original).count(&index).count,
            cq_structures::count_homomorphisms_bruteforce(&a, &k3)
        );
        // One fully populated bundle for this index; `OnceLock` slots can
        // only initialize once, so bundle identity across repeat traffic
        // proves no program was recompiled.
        let bundle = bundle_of(&index);
        assert!(bundle.stair.get().is_some());
        for side in [Side::Evaluated, Side::Original] {
            assert!(bundle.forest[side as usize].get().is_some());
            assert!(bundle.tree[side as usize].get().is_some());
            assert!(bundle.search[side as usize].get().is_some());
        }
        // Weighted aggregates reuse the counting programs (same bundle,
        // weights supplied at run time): uniform weight 1 makes the minimum
        // cost the number of query tuples, on every tier.
        let weights = cq_structures::TupleWeights::uniform(&k3, 1);
        let before = cq_solver::program_compilation_count();
        for tier in crate::CountRegistry::standard().tiers() {
            assert_eq!(
                tier.evaluate(
                    &q,
                    &k3,
                    &index,
                    &weights,
                    crate::AggregateObjective::MinCost
                ),
                Some(a.tuple_count() as u64)
            );
        }
        assert_eq!(cq_solver::program_compilation_count(), before);
        warm(&index);
        assert!(Arc::ptr_eq(&bundle, &bundle_of(&index)));
        // A different database index gets its own bundle; both stay warm
        // side by side.
        let other = StructureIndex::new(&families::cycle(5));
        warm(&other);
        let other_bundle = bundle_of(&other);
        assert!(!Arc::ptr_eq(&bundle, &other_bundle));
        warm(&index);
        warm(&other);
        assert!(Arc::ptr_eq(&bundle, &bundle_of(&index)));
        assert!(Arc::ptr_eq(&other_bundle, &bundle_of(&other)));
        // Cycling more indexes than the cap evicts the least-recently-used
        // bundle; returning to it transparently recompiles (bounded
        // memory, unchanged answers).
        let extra: Vec<StructureIndex> = (0..super::MAX_KERNEL_BUNDLES)
            .map(|i| StructureIndex::new(&families::path(i + 2)))
            .collect();
        for e in &extra {
            q.decide_via_tree(e);
        }
        assert!(q
            .kernels
            .lock()
            .unwrap()
            .iter()
            .all(|(key, _)| key.0 != index.id()));
        assert!(q.decide_via_tree(&index).exists);
        assert!(!Arc::ptr_eq(&bundle, &bundle_of(&index)));
    }

    #[test]
    fn in_place_deltas_reuse_warm_tree_programs_until_the_epoch_bumps() {
        use cq_structures::{
            count_homomorphisms_bruteforce, DeltaBatch, StructureIndex, Vocabulary,
        };

        let a = families::star(3);
        let q = PreparedQuery::prepare(&a, &EngineConfig::default());

        // A K4 on {0..3} plus the isolated element 4: every posting list of
        // element 4 is empty, so its first tuple later must bump the epoch.
        let voc = Vocabulary::graph();
        let e = voc.id_of("E").unwrap();
        let mut db = Structure::new(voc, 5).unwrap();
        for u in 0..4 {
            for v in 0..4 {
                if u != v {
                    db.add_tuple(e, vec![u, v]).unwrap();
                }
            }
        }
        let mut index = StructureIndex::new(&db);
        let bundle_of = |i: &StructureIndex| -> Arc<IndexKernels> {
            let cache = q.kernels.lock().unwrap();
            let (_, bundle) = cache
                .iter()
                .find(|(key, _)| *key == (i.id(), i.domain_epoch()))
                .expect("bundle cached under the current (id, epoch) key");
            Arc::clone(bundle)
        };
        let check = |i: &StructureIndex| {
            let run = q.count_via_tree(i);
            assert_eq!(run.exists, q.decide_via_tree(i).exists);
            assert_eq!(run.count, count_homomorphisms_bruteforce(&a, i.structure()));
        };
        check(&index);
        let warm_bundle = bundle_of(&index);
        assert!(warm_bundle
            .tree_count_retained
            .try_lock()
            .unwrap()
            .is_some());
        let epoch = index.domain_epoch();

        // Same-epoch churn (delete one K4 edge): every touched element keeps
        // nonempty postings, so the warm bundle — `OnceLock` slots compile
        // at most once — keeps serving, with retained tables resynced to the
        // new index version.
        let mut churn = DeltaBatch::new();
        churn.delete(e, vec![0, 1]);
        index.apply_delta(&churn).unwrap();
        assert_eq!(index.domain_epoch(), epoch);
        check(&index);
        assert!(Arc::ptr_eq(&warm_bundle, &bundle_of(&index)));
        let retained = warm_bundle.tree_count_retained.try_lock().unwrap();
        assert_eq!(retained.as_ref().unwrap().version(), index.version());
        drop(retained);

        // Epoch bump (element 4 gains its first tuples): the baked prefilter
        // domains are stale, so the next evaluation keys a fresh bundle and
        // recompiles — answers stay right throughout.
        let mut grow = DeltaBatch::new();
        grow.insert(e, vec![4, 0]).insert(e, vec![0, 4]);
        index.apply_delta(&grow).unwrap();
        assert!(index.domain_epoch() > epoch);
        check(&index);
        assert!(!Arc::ptr_eq(&warm_bundle, &bundle_of(&index)));
    }

    #[test]
    fn count_verified_aliases_are_memoized_once_per_form() {
        let c7 = families::cycle(7);
        let q = PreparedQuery::prepare(&c7, &EngineConfig::default());
        let perm: Vec<usize> = (0..7).rev().collect();
        let twisted = relabeled(&c7, &perm);
        // Repeat lookups of the same relabelled form: the embedding
        // verification runs on the first call only; afterwards the form
        // sits in the memo exactly once.
        for _ in 0..3 {
            assert!(q.counts_for(&twisted));
            assert_eq!(q.count_verified_aliases.lock().unwrap().len(), 1);
        }
        // The identical form and rejected strangers never enter the memo.
        assert!(q.counts_for(&c7));
        assert!(!q.counts_for(&families::path(7)));
        assert_eq!(q.count_verified_aliases.lock().unwrap().len(), 1);
    }
}
