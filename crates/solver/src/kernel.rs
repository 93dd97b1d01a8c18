//! The flat evaluation kernel: indexed, allocation-light inner loops for
//! every DP tier of the engine — one **semiring-generic**
//! sum-of-products.
//!
//! The reference implementations (`crate::treedec`, `crate::pathdp`,
//! `crate::treedepth::count_with_forest`, the backtracking searches) are
//! correct but spend their time in `BTreeMap<Element, Element>`
//! ([`cq_structures::PartialHom`]) allocations, full-universe
//! `|B|^{|bag|}` enumeration with leaf-only validity checks, and `O(n²)`
//! linear-scan frontier joins.  The kernel replaces all three:
//!
//! * **[`BagProgram`]** — each bag is compiled once into a fixed element
//!   order with flat `u32` assignment rows, per-variable candidate domains
//!   from a unary/incidence **prefilter** (an element of the query
//!   occurring at position `p` of a tuple of symbol `R` can only map to
//!   elements of `B` occurring at position `p` of `R^B` — read off the
//!   [`StructureIndex`] posting lists), and constraints checked
//!   **incrementally** the moment their last variable in the order is
//!   assigned, so dead branches prune at depth 1 instead of the leaf;
//! * **separator hash-joins** — the tree DP and the staircase sweep key
//!   child/frontier tables on the projection onto the per-edge separator
//!   (hoisted once per edge) through a flat packed-key [`GroupTable`]:
//!   no per-row key allocation, one `u32` arena for every group key;
//! * **index-driven candidate iteration** — when a constraint anchored at
//!   a bag depth or forest node has exactly one unbound variable, the
//!   candidates are read off the shortest posting list of its bound
//!   positions instead of scanning the whole prefilter domain (a classic
//!   index nested-loop join).  One helper serves all three candidate
//!   loops: the bag enumerator (tree DP, staircase, search aggregates),
//!   the pinned bag enumerator (the answer cursor's pinned decides and the
//!   retained evaluator's delta patches), and the forest recursion.  The
//!   fallback search ([`SearchProgram`]) is the whole-query [`BagProgram`]
//!   in fail-first order with O(1) tuple membership.
//!
//! **One DP, many semirings.**  There is exactly one tree DP, one
//! staircase sweep, and one forest recursion in this module; each is
//! generic over a [`Semiring`] and aggregates the sum over homomorphisms
//! of the product of per-tuple factors.  Decision instantiates
//! [`BoolSemiring`] (the absorbing element `⊤` reproduces the first-witness
//! early exit), counting instantiates [`CheckedNatSemiring`] (overflow is a
//! typed [`Nat::Overflow`], never a clamped number), and the weighted
//! aggregates instantiate the tropical [`crate::semiring::MinCostSemiring`]
//! / [`crate::semiring::MaxWeightSemiring`] over a
//! [`TupleWeights`] side table.  Every tuple of the query contributes its
//! weight factor exactly once per homomorphism: within a bag each
//! constraint is anchored at one depth, and across bags exactly one bag
//! **owns** each tuple's weight (the other bags still *check* it, for
//! pruning) — the staircase and forest anchorings are unique by
//! construction, and the tree DP claims each tuple for the first bag (in
//! evaluation order) containing it.
//!
//! **Compile/run split.** Every kernel entry point factors into a
//! *program* — [`TreeDpProgram`], [`StairProgram`], [`ForestProgram`],
//! [`SearchProgram`] — compiled once per (query, index) pair, and a cheap
//! `run` that executes it against the same index.  Compiled programs are
//! semiring-agnostic: one program serves decide, count, and every
//! weighting.  A one-off evaluation is `compile(..)` then `decide` /
//! `count` / `eval`; callers that evaluate the same prepared query
//! repeatedly against a cached database (the engine's warm path) hold on to
//! the compiled program and skip recompilation entirely.
//! [`program_compilation_count`] meters compilations so tests and benches
//! can assert the warm path stays warm.
//!
//! **One bottom-up driver.**  Every tree-DP evaluation — the one-shot
//! [`TreeDpProgram::eval`], the answer table and the pinned decides of
//! [`AnswerProgram`], and the (re)build of the retained state of
//! [`TreeDpProgram::eval_retained`] — is the same children-before-parents
//! pass: join the children's separator group tables, run the bag
//! (optionally with pinned depths), then either feed the root's rows to a
//! sink or group-sum the rows onto the parent separator.
//!
//! **Free variables.** The same compiled machinery answers queries with
//! free variables: [`AnswerProgram`] runs the tree DP over the
//! free-adjoined decomposition
//! ([`TreeDecomposition::answer_decomposition`](cq_decomp::TreeDecomposition::answer_decomposition)),
//! grouping root rows by the free positions into a packed-key
//! [`GroupTable`] whose keys *are* the answers (the answer count is the
//! group count), and [`AnswerProgram::cursor`] enumerates those
//! assignments in ascending lexicographic order with bounded delay — a
//! pinned-prefix DFS whose every step is certified by one pinned decide,
//! with no materialisation of the answer set.  Like counting, answers are
//! not core-invariant, so answer programs compile against the original
//! query; the width price of adjoining is at most the number of free
//! elements.
//!
//! No `PartialHom` or `BTreeMap` is constructed in any per-assignment
//! inner loop; the only per-row allocations are the surviving rows
//! themselves.  The reference implementations remain exported — they are
//! the oracle the differential tests pit the kernel against.

use cq_decomp::{EliminationForest, PathDecomposition, TreeDecomposition};
use cq_structures::SymbolId;
use cq_structures::{AppliedDelta, Element, Structure, StructureIndex, TupleWeights};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::pathdp::PathDpReport;
use crate::semiring::{BoolSemiring, CheckedNatSemiring, Nat, Semiring};

/// Process-wide count of query-side kernel compilations (one per
/// [`QueryDomains::compile`], which every compiled program performs
/// exactly once).  Lets tests and benches assert that cached-program
/// paths do not silently recompile per call.
static PROGRAM_COMPILATIONS: AtomicU64 = AtomicU64::new(0);

/// The number of kernel program compilations performed by this process so
/// far.  Monotone; differences across a code region count the
/// compilations inside it.
pub fn program_compilation_count() -> u64 {
    PROGRAM_COMPILATIONS.load(Ordering::Relaxed)
}

/// Query-side compilation shared by every kernel entry point: the
/// query-symbol → index-symbol translation and the per-element candidate
/// domains produced by the unary/incidence prefilter.
///
/// The prefilter is sound for decision *and* counting: it removes a
/// candidate image only when some query tuple containing the element could
/// never be satisfied with it, which no full homomorphism violates.
#[derive(Debug, Clone)]
pub struct QueryDomains {
    /// For each query element, its sorted candidate images in the target.
    domains: Vec<Vec<u32>>,
    /// Query [`SymbolId`] → target [`SymbolId`] (by name).
    sym_map: Vec<Option<SymbolId>>,
    /// `false` when some non-empty query relation has no matching target
    /// relation — no homomorphism can exist at all.
    satisfiable: bool,
}

impl QueryDomains {
    /// Compile the prefilter for `a` against an indexed target.
    pub fn compile(a: &Structure, index: &StructureIndex) -> QueryDomains {
        PROGRAM_COMPILATIONS.fetch_add(1, Ordering::Relaxed);
        let sym_map: Vec<Option<SymbolId>> = a
            .vocabulary()
            .ids()
            .map(|id| {
                index
                    .vocabulary()
                    .id_of(a.vocabulary().name(id))
                    .filter(|&t| index.vocabulary().arity(t) == a.vocabulary().arity(id))
            })
            .collect();
        let mut satisfiable = true;
        for id in a.vocabulary().ids() {
            if sym_map[id.index()].is_none() && !a.relation(id).is_empty() {
                satisfiable = false;
            }
        }
        if !satisfiable {
            return QueryDomains {
                domains: vec![Vec::new(); a.universe_size()],
                sym_map,
                satisfiable,
            };
        }
        // Start from the full universe and intersect, for every occurrence
        // of an element at (symbol, position), the target's position domain.
        let full: Vec<u32> = (0..index.universe_size() as u32).collect();
        let mut domains: Vec<Option<Vec<u32>>> = vec![None; a.universe_size()];
        for (sym, t) in a.all_tuples() {
            let target = sym_map[sym.index()].expect("checked non-empty relations above");
            for (pos, &elem) in t.iter().enumerate() {
                let allowed = index.elements_at(target, pos);
                let current = domains[elem as usize].get_or_insert_with(|| full.clone());
                intersect_sorted(current, allowed);
            }
        }
        QueryDomains {
            domains: domains
                .into_iter()
                .map(|d| d.unwrap_or_else(|| full.clone()))
                .collect(),
            sym_map,
            satisfiable,
        }
    }

    /// Whether every non-empty query relation has a target counterpart.
    pub fn satisfiable(&self) -> bool {
        self.satisfiable
    }

    /// The candidate images of one query element.
    pub fn domain(&self, element: Element) -> &[u32] {
        &self.domains[element]
    }
}

/// In-place intersection of a sorted vector with a sorted slice.
fn intersect_sorted(current: &mut Vec<u32>, allowed: &[u32]) {
    let mut write = 0;
    let mut j = 0;
    for i in 0..current.len() {
        let v = current[i];
        while j < allowed.len() && allowed[j] < v {
            j += 1;
        }
        if j < allowed.len() && allowed[j] == v {
            current[write] = v;
            write += 1;
        }
    }
    current.truncate(write);
}

/// Deterministic FNV-1a hash of a flat key (the [`GroupTable`] hash).
#[inline]
fn fnv_key(key: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &e in key {
        for b in e.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A flat packed-key accumulation map: group keys of a fixed `stride` live
/// back-to-back in one `u32` arena, values in a parallel vector, and an
/// open-addressed bucket array resolves slice keys to group ids without
/// ever allocating a per-row key.
///
/// This is the separator-table representation of the kernel: `group_sums`
/// builds one per tree edge / forget step (accumulating with the
/// semiring's ⊕), and the per-depth hash-joins look keys up by slice.
pub struct GroupTable<V> {
    stride: usize,
    keys: Vec<u32>,
    values: Vec<V>,
    /// Open addressing: `0` = empty, else group id + 1.  Length is always
    /// a power of two.
    buckets: Vec<u32>,
}

impl<V> GroupTable<V> {
    /// An empty table over keys of `stride` elements, sized for about
    /// `groups` distinct keys.
    pub fn with_capacity(stride: usize, groups: usize) -> GroupTable<V> {
        let cap = (groups.max(1) * 2).next_power_of_two();
        GroupTable {
            stride,
            keys: Vec::with_capacity(groups * stride),
            values: Vec::with_capacity(groups),
            buckets: vec![0; cap],
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds no groups.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    fn key(&self, g: usize) -> &[u32] {
        &self.keys[g * self.stride..(g + 1) * self.stride]
    }

    /// Probe for `key`: the slot it hashes to (after linear probing) and
    /// the group id if present.
    #[inline]
    fn find(&self, key: &[u32]) -> (usize, Option<usize>) {
        let mask = self.buckets.len() - 1;
        let mut slot = (fnv_key(key) as usize) & mask;
        loop {
            match self.buckets[slot] {
                0 => return (slot, None),
                g => {
                    let g = (g - 1) as usize;
                    if self.key(g) == key {
                        return (slot, Some(g));
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: &[u32]) -> Option<&V> {
        debug_assert_eq!(key.len(), self.stride);
        self.find(key).1.map(|g| &self.values[g])
    }

    /// Mutable access to the value stored under `key`, if any — the
    /// in-place patch path of the incremental evaluator.
    #[inline]
    pub fn get_mut(&mut self, key: &[u32]) -> Option<&mut V> {
        debug_assert_eq!(key.len(), self.stride);
        self.find(key).1.map(|g| &mut self.values[g])
    }

    /// Fold `value` into the group at `key`: combine with the existing
    /// value, or insert (copying the key into the arena) when absent.
    pub fn merge(&mut self, key: &[u32], value: V, combine: impl FnOnce(&mut V, V)) {
        debug_assert_eq!(key.len(), self.stride);
        if (self.values.len() + 1) * 4 >= self.buckets.len() * 3 {
            self.grow();
        }
        let (slot, found) = self.find(key);
        match found {
            Some(g) => combine(&mut self.values[g], value),
            None => {
                let g = self.values.len();
                debug_assert!(g < u32::MAX as usize - 1, "group ids are u32");
                self.keys.extend_from_slice(key);
                self.values.push(value);
                self.buckets[slot] = (g + 1) as u32;
            }
        }
    }

    fn grow(&mut self) {
        let cap = (self.buckets.len() * 2).max(4);
        self.buckets.clear();
        self.buckets.resize(cap, 0);
        let mask = cap - 1;
        for g in 0..self.values.len() {
            let mut slot = (fnv_key(self.key(g)) as usize) & mask;
            while self.buckets[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.buckets[slot] = (g + 1) as u32;
        }
    }

    /// The groups in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &V)> {
        (0..self.len()).map(move |g| (self.key(g), &self.values[g]))
    }

    /// Dismantle into the flat key arena and the parallel values (the
    /// frontier representation of the staircase sweep).
    fn into_flat(self) -> (Vec<u32>, Vec<V>) {
        (self.keys, self.values)
    }
}

/// One compiled constraint: a query tuple translated to the target symbol,
/// its argument positions rewritten to depths in the bag's element order.
/// `owns_weight` marks the one check across the whole evaluation that
/// emits this tuple's weight factor (weighted semirings only; every check
/// still prunes).
#[derive(Debug, Clone)]
struct Constraint {
    sym: SymbolId,
    arg_depths: Vec<u32>,
    owns_weight: bool,
}

/// An index nested-loop join driving the candidate iteration at one depth:
/// a constraint anchored there with exactly one unbound position.  Instead
/// of scanning the whole prefilter domain and testing membership, the
/// enumerator walks the posting list of the cheapest bound position and
/// reads candidate images off the matching tuples.
#[derive(Debug, Clone)]
struct Driver {
    sym: SymbolId,
    arg_depths: Vec<u32>,
    /// The one tuple position whose variable sits at this depth.
    unbound: usize,
    /// Tuple positions whose variables are already assigned (depth < d).
    bound: Vec<usize>,
}

/// Pick the driver of the slot `at` (a bag depth, or a forest node's query
/// element): the first constraint anchored there with at least two
/// positions, exactly one of which reads `at` — every other position is
/// bound before `at` is assigned.  A constraint repeating the slot's
/// variable (`R(x,x)`) never drives.
fn pick_driver(at: u32, anchored: &[Constraint]) -> Option<Driver> {
    anchored.iter().find_map(|c| {
        let mut hits = c.arg_depths.iter().filter(|&&x| x == at);
        if c.arg_depths.len() < 2 || hits.next().is_none() || hits.next().is_some() {
            return None;
        }
        let unbound = c.arg_depths.iter().position(|&x| x == at).expect("one hit");
        Some(Driver {
            sym: c.sym,
            arg_depths: c.arg_depths.clone(),
            unbound,
            bound: (0..c.arg_depths.len()).filter(|&p| p != unbound).collect(),
        })
    })
}

/// Constraint-driven candidates of one slot (a classic index nested-loop
/// join): the images the driven constraint's matching tuples put at the
/// unbound position, read off the shortest posting list among the bound
/// positions, deduplicated, ascending, and restricted to the prefilter
/// `domain`.  `row` holds the bound images at the driver's `arg_depths`.
/// Returns `false`, leaving `out` unspecified, when that posting list is
/// not shorter than `domain` — the caller then scans the domain.  Every
/// viable image is listed (a row satisfying the driven constraint matches
/// one of the walked tuples), so driving never changes what a loop finds.
fn driven_candidates(
    drv: &Driver,
    index: &StructureIndex,
    row: &[u32],
    domain: &[u32],
    out: &mut Vec<u32>,
) -> bool {
    let image = |q: usize| row[drv.arg_depths[q] as usize];
    let shortest = drv
        .bound
        .iter()
        .map(|&q| (index.occurrence_count(drv.sym, q, image(q)), q))
        .min();
    let Some((_, pivot)) = shortest.filter(|&(len, _)| len < domain.len()) else {
        return false;
    };
    out.clear();
    out.extend(
        index
            .tuples_with(drv.sym, pivot, image(pivot))
            .filter(|t| drv.bound.iter().all(|&q| t[q] == image(q)))
            .map(|t| t[drv.unbound]),
    );
    out.sort_unstable();
    out.dedup();
    out.retain(|c| domain.binary_search(c).is_ok());
    true
}

/// A bag compiled against one indexed target: fixed element order, flat
/// `u32` candidate domains per depth, and the constraints of the query
/// lying entirely inside the bag, grouped by the depth at which their last
/// variable is assigned (see the module docs).
#[derive(Debug, Clone)]
pub struct BagProgram {
    /// The bag's query elements in assignment order.
    elems: Vec<Element>,
    /// Candidate images per depth (prefilter domains).
    domains: Vec<Vec<u32>>,
    /// `checks[d]`: constraints whose deepest variable sits at depth `d`.
    checks: Vec<Vec<Constraint>>,
    /// `drivers[d]`: an optional posting-list join narrowing the candidate
    /// iteration at depth `d` (the driven constraint stays in `checks[d]`,
    /// so the domain-scan fallback remains complete).
    drivers: Vec<Option<Driver>>,
    /// Largest constraint arity (scratch-buffer sizing).
    max_arity: usize,
}

impl BagProgram {
    /// Compile the tuples of `a` lying entirely inside `elems` (which must
    /// be duplicate-free) into an evaluation program over the given order.
    /// Every compiled check owns its tuple's weight — correct whenever this
    /// program is the only one checking those tuples (whole-query search,
    /// staircase steps, single bags).
    pub fn compile(a: &Structure, doms: &QueryDomains, elems: &[Element]) -> BagProgram {
        BagProgram::compile_claiming(a, doms, elems, |_| true)
    }

    /// [`BagProgram::compile`] with explicit weight ownership: `claim` is
    /// called once per in-bag tuple with the tuple's ordinal in
    /// `a.all_tuples()` order and returns whether **this** program owns the
    /// tuple's weight factor.  The tree DP shares tuples between bags and
    /// claims each for the first bag compiled that contains it.
    fn compile_claiming(
        a: &Structure,
        doms: &QueryDomains,
        elems: &[Element],
        mut claim: impl FnMut(usize) -> bool,
    ) -> BagProgram {
        // Dense depth lookup over the query universe (`u32::MAX` = element
        // outside the bag) — bags are compiled per index, so this runs on
        // the per-call hot path.
        let mut depth_of: Vec<u32> = vec![u32::MAX; a.universe_size()];
        for (d, &e) in elems.iter().enumerate() {
            depth_of[e] = d as u32;
        }
        let mut checks: Vec<Vec<Constraint>> = vec![Vec::new(); elems.len()];
        let mut max_arity = 0;
        if doms.satisfiable {
            for (ordinal, (sym, t)) in a.all_tuples().enumerate() {
                let Some(arg_depths) = t
                    .iter()
                    .map(|&e| {
                        let d = depth_of[e as usize];
                        (d != u32::MAX).then_some(d)
                    })
                    .collect::<Option<Vec<u32>>>()
                else {
                    continue; // tuple not entirely inside the bag
                };
                let target = doms.sym_map[sym.index()].expect("satisfiable query");
                let last = arg_depths.iter().copied().max().unwrap_or(0) as usize;
                max_arity = max_arity.max(arg_depths.len());
                checks[last].push(Constraint {
                    sym: target,
                    arg_depths,
                    owns_weight: claim(ordinal),
                });
            }
        }
        let drivers = checks
            .iter()
            .enumerate()
            .map(|(d, at_depth)| pick_driver(d as u32, at_depth))
            .collect();
        let domains = elems
            .iter()
            .map(|&e| {
                if doms.satisfiable {
                    doms.domains[e].clone()
                } else {
                    Vec::new()
                }
            })
            .collect();
        BagProgram {
            elems: elems.to_vec(),
            domains,
            checks,
            drivers,
            max_arity,
        }
    }

    /// The bag's element order.
    pub fn elems(&self) -> &[Element] {
        &self.elems
    }

    /// The images to try at `depth` once the depths before it are bound in
    /// `row`: the driver's candidates, written to `buf`, when its posting
    /// list is shorter than the prefilter domain; the domain otherwise.
    fn candidates<'c>(
        &'c self,
        index: &StructureIndex,
        depth: usize,
        row: &[u32],
        buf: &'c mut Vec<u32>,
    ) -> &'c [u32] {
        let domain = &self.domains[depth];
        match &self.drivers[depth] {
            Some(drv) if driven_candidates(drv, index, row, domain, buf) => buf,
            _ => domain,
        }
    }
}

/// Check every constraint of `checks` against the row its `arg_depths`
/// index (the Boolean fast path of the witness search).
#[inline]
fn checks_pass(
    checks: &[Constraint],
    index: &StructureIndex,
    row: &[u32],
    args: &mut Vec<u32>,
) -> bool {
    for c in checks {
        args.clear();
        args.extend(c.arg_depths.iter().map(|&d| row[d as usize]));
        if !index.contains(c.sym, args) {
            return false;
        }
    }
    true
}

/// Check every constraint of `checks` and return the ⊗-factor they
/// contribute (the product of owned tuple weights under a weighted
/// semiring; `1` otherwise), or `None` when some check fails.
#[inline]
fn check_factor<S: Semiring>(
    checks: &[Constraint],
    index: &StructureIndex,
    weights: Option<&TupleWeights>,
    row: &[u32],
    args: &mut Vec<u32>,
) -> Option<S::Value> {
    if !S::WEIGHTED {
        return checks_pass(checks, index, row, args).then(|| S::one());
    }
    let table = weights.expect("weighted semirings evaluate with a TupleWeights table");
    let mut factor = S::one();
    for c in checks {
        args.clear();
        args.extend(c.arg_depths.iter().map(|&d| row[d as usize]));
        let r = index.row_of(c.sym, args)?;
        if c.owns_weight {
            factor = S::mul(&factor, &S::weight(table.get(c.sym, r)));
        }
    }
    Some(factor)
}

/// Per-depth hash-join attached to a [`BagProgram`] enumeration: the key is
/// the row projected onto `key_depths`; the row survives only if the key is
/// present in the table, and its value multiplies into the accumulator.
/// `depth` is the deepest key variable, so the join fires as early as the
/// separator is fully assigned.  The table is borrowed, not owned, so the
/// incremental evaluator can join against group tables it retains across
/// calls.
struct Join<'a, V> {
    depth: usize,
    key_depths: &'a [u32],
    table: &'a GroupTable<V>,
}

/// Try one candidate at `depth`: write it into the row, run the anchored
/// checks and joins, and recurse.  Returns `true` to stop the whole
/// enumeration (early exit requested by the emit callback downstream).
#[allow(clippy::too_many_arguments)]
fn try_candidate<S: Semiring>(
    program: &BagProgram,
    index: &StructureIndex,
    weights: Option<&TupleWeights>,
    joins_at: &[Vec<usize>],
    joins: &[Join<'_, S::Value>],
    depth: usize,
    candidate: u32,
    row: &mut [u32],
    args: &mut Vec<u32>,
    key: &mut Vec<u32>,
    acc: &S::Value,
    scratch: &mut [Vec<u32>],
    emit: &mut impl FnMut(&[u32], S::Value) -> bool,
) -> bool {
    row[depth] = candidate;
    let Some(factor) = check_factor::<S>(&program.checks[depth], index, weights, row, args) else {
        return false;
    };
    let mut next_acc = if S::WEIGHTED {
        S::mul(acc, &factor)
    } else {
        acc.clone()
    };
    for &j in &joins_at[depth] {
        let join = &joins[j];
        key.clear();
        key.extend(join.key_depths.iter().map(|&d| row[d as usize]));
        match join.table.get(key.as_slice()) {
            Some(v) => next_acc = S::mul(&next_acc, v),
            None => return false,
        }
    }
    enumerate::<S>(
        program,
        index,
        weights,
        joins_at,
        joins,
        depth + 1,
        row,
        args,
        key,
        &next_acc,
        scratch,
        emit,
    )
}

/// Recursive enumerator over a [`BagProgram`] with optional joins.  `acc`
/// accumulates the ⊗-product of check and join factors along the path; the
/// emit callback returns `true` to stop the whole enumeration (the
/// absorbing-element early exit).  `scratch` holds one reusable candidate
/// buffer per depth for the driver (posting-list) iteration.
#[allow(clippy::too_many_arguments)]
fn enumerate<S: Semiring>(
    program: &BagProgram,
    index: &StructureIndex,
    weights: Option<&TupleWeights>,
    joins_at: &[Vec<usize>],
    joins: &[Join<'_, S::Value>],
    depth: usize,
    row: &mut [u32],
    args: &mut Vec<u32>,
    key: &mut Vec<u32>,
    acc: &S::Value,
    scratch: &mut [Vec<u32>],
    emit: &mut impl FnMut(&[u32], S::Value) -> bool,
) -> bool {
    if depth == program.elems.len() {
        return emit(row, acc.clone());
    }
    let mut buf = std::mem::take(&mut scratch[depth]);
    let stop = program
        .candidates(index, depth, row, &mut buf)
        .iter()
        .any(|&candidate| {
            try_candidate::<S>(
                program, index, weights, joins_at, joins, depth, candidate, row, args, key, acc,
                scratch, emit,
            )
        });
    scratch[depth] = buf;
    stop
}

/// Depths of a bag pinned to fixed images, plus optionally one check
/// `(depth, position)` to skip — see [`enumerate_pinned`].
type Pins<'p> = (&'p [Option<u32>], Option<(usize, usize)>);

/// Run a program with joins, emitting every surviving row with its
/// accumulated ⊗-value — through [`enumerate_pinned`] when `pins` is given
/// (unweighted semirings only), through [`enumerate`] otherwise.
fn run_program<S: Semiring>(
    program: &BagProgram,
    index: &StructureIndex,
    weights: Option<&TupleWeights>,
    joins: &[Join<'_, S::Value>],
    pins: Option<Pins<'_>>,
    emit: &mut impl FnMut(&[u32], S::Value) -> bool,
    initial_acc: S::Value,
) {
    let mut joins_at: Vec<Vec<usize>> = vec![Vec::new(); program.elems.len().max(1)];
    for (j, join) in joins.iter().enumerate() {
        joins_at[join.depth].push(j);
    }
    let mut row = vec![0u32; program.elems.len()];
    let mut args = Vec::with_capacity(program.max_arity);
    let mut key = Vec::new();
    let mut scratch = vec![Vec::new(); program.elems.len()];
    if let Some((pins, skip)) = pins {
        enumerate_pinned::<S>(
            program,
            index,
            &joins_at,
            joins,
            pins,
            skip,
            0,
            &mut row,
            &mut args,
            &mut key,
            &initial_acc,
            &mut scratch,
            emit,
        );
        return;
    }
    if program.elems.is_empty() {
        // An empty bag has exactly the empty row; empty-key joins were
        // folded into `initial_acc` by the caller.
        emit(&row, initial_acc);
        return;
    }
    enumerate::<S>(
        program,
        index,
        weights,
        &joins_at,
        joins,
        0,
        &mut row,
        &mut args,
        &mut key,
        &initial_acc,
        &mut scratch,
        emit,
    );
}

/// Root the decomposition tree at bag 0: parents (`usize::MAX` for the
/// root) plus a children-before-parents order.
fn root_tree(td: &TreeDecomposition) -> (Vec<usize>, Vec<usize>) {
    let n = td.tree.vertex_count();
    let mut parent = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    let mut stack = vec![(0usize, usize::MAX)];
    let mut pre = Vec::with_capacity(n);
    while let Some((v, p)) = stack.pop() {
        if visited[v] {
            continue;
        }
        visited[v] = true;
        parent[v] = p;
        pre.push(v);
        for w in td.tree.neighbors(v) {
            if !visited[w] {
                stack.push((w, v));
            }
        }
    }
    pre.reverse();
    (parent, pre)
}

/// The viable-row table of one processed bag: the surviving rows (flat,
/// `stride` elements each), each with its subtree ⊗-value.
struct BagTable<V> {
    stride: usize,
    rows: Vec<u32>,
    values: Vec<V>,
}

impl<V: Clone> BagTable<V> {
    fn new(stride: usize) -> BagTable<V> {
        BagTable {
            stride,
            rows: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Keep `row` with its value unless the value is ⊕-zero — the row sink
    /// of every non-root bag and staircase frontier (never stops early).
    fn keep<S: Semiring<Value = V>>(&mut self, row: &[u32], value: V) -> bool {
        if !S::is_zero(&value) {
            self.rows.extend_from_slice(row);
            self.values.push(value);
        }
        false
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// Group the rows by their projection onto `positions`, ⊕-summing
    /// values into a flat packed-key [`GroupTable`] — the precomputed
    /// group-sum side of the separator hash-join.  No per-row key
    /// allocation: one reused scratch projection, keys interned in the
    /// table's arena.
    fn group_sums<S: Semiring<Value = V>>(&self, positions: &[u32]) -> GroupTable<V> {
        let mut table = GroupTable::with_capacity(positions.len(), self.len());
        let mut key: Vec<u32> = Vec::with_capacity(positions.len());
        for i in 0..self.len() {
            let row = self.row(i);
            key.clear();
            key.extend(positions.iter().map(|&p| row[p as usize]));
            table.merge(&key, self.values[i].clone(), |acc, v| {
                *acc = S::add(acc, &v)
            });
        }
        table
    }
}

/// Metering of one kernel tree-DP run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeDpRun {
    /// Whether a homomorphism exists.
    pub exists: bool,
    /// The number of homomorphisms ([`Nat::Overflow`] past `u64::MAX`;
    /// decision runs report 0/1 for the witness found).
    pub count: Nat,
    /// The largest viable-row table stored for any bag.
    pub peak_table: usize,
}

/// One bag of a compiled tree DP, with the separator joins toward its
/// children hoisted at compile time.
struct TreeBag {
    /// The bag's slot in the decomposition (table index).
    id: usize,
    is_root: bool,
    program: BagProgram,
    edges: Vec<TreeEdge>,
    /// Separator positions toward the parent in this bag's row order (the
    /// group-sum key of the bag's table; empty at the root).
    parent_positions: Vec<u32>,
}

/// A compiled parent→child edge of the tree DP: the separator's positions
/// on both sides, resolved once at compile time.
struct TreeEdge {
    /// Child bag slot.
    child: usize,
    /// Separator positions in the child's row order (group-sum key).
    child_positions: Vec<u32>,
    /// Separator depths in the parent's order; empty ⇒ independent
    /// component (constant join factor).
    key_depths: Vec<u32>,
    /// Deepest key variable (join firing depth).
    depth: usize,
}

/// A bag's joins plus the constant ⊗-factor of its independent children.
type BagJoins<'t, V> = (Vec<Join<'t, V>>, V);

/// The joins of one bag against its children's group tables, with the
/// tables of independent children (empty separator) folded into a constant
/// ⊗-factor.  `None` when such a child's ⊕-total is zero: no row of the
/// bag survives.
fn bag_joins<'t, S: Semiring>(
    bag: &'t TreeBag,
    tables: &'t [Option<GroupTable<S::Value>>],
) -> Option<BagJoins<'t, S::Value>> {
    let mut joins = Vec::with_capacity(bag.edges.len());
    let mut initial_acc = S::one();
    for edge in &bag.edges {
        let table = tables[edge.child]
            .as_ref()
            .expect("children before parents");
        if edge.key_depths.is_empty() {
            match table.get(&[]) {
                Some(sum) if !S::is_zero(sum) => initial_acc = S::mul(&initial_acc, sum),
                _ => return None,
            }
            continue;
        }
        joins.push(Join {
            depth: edge.depth,
            key_depths: &edge.key_depths,
            table,
        });
    }
    Some((joins, initial_acc))
}

/// Run one bag against its children's group tables — the per-bag step of
/// every bottom-up pass.  At the root each nonzero row goes to `root`
/// (which returns `true` to stop); any other bag keeps its nonzero rows.
/// `pins` fixes depths of the bag to given images.  Returns the bag's rows
/// (`None` at the root) and their count.
fn run_bag<S: Semiring>(
    bag: &TreeBag,
    index: &StructureIndex,
    weights: Option<&TupleWeights>,
    pins: Option<&[Option<u32>]>,
    tables: &[Option<GroupTable<S::Value>>],
    root: &mut impl FnMut(&[u32], S::Value) -> bool,
) -> (Option<BagTable<S::Value>>, usize) {
    let mut table = BagTable::new(bag.program.elems.len());
    let mut rows = 0usize;
    if let Some((joins, initial_acc)) = bag_joins::<S>(bag, tables) {
        let mut emit = |row: &[u32], acc: S::Value| {
            if S::is_zero(&acc) {
                return false;
            }
            rows += 1;
            if bag.is_root {
                return root(row, acc);
            }
            table.keep::<S>(row, acc)
        };
        let pins = pins.map(|pins| (pins, None));
        run_program::<S>(
            &bag.program,
            index,
            weights,
            &joins,
            pins,
            &mut emit,
            initial_acc,
        );
    }
    ((!bag.is_root).then_some(table), rows)
}

/// A root sink ⊕-folding every row into `total`, stopping once it absorbs.
fn sum_into<S: Semiring>(total: &mut S::Value) -> impl FnMut(&[u32], S::Value) -> bool + '_ {
    move |_, acc| {
        *total = S::add(total, &acc);
        S::is_add_absorbing(total)
    }
}

/// The kernel tree DP compiled against one `(query, index)` pair: rooted
/// bag order, per-bag [`BagProgram`]s, and per-edge separator positions.
/// Compile once, then [`TreeDpProgram::decide`] / [`TreeDpProgram::count`]
/// / [`TreeDpProgram::eval`] any number of times against the same index —
/// the program is semiring-agnostic.
pub struct TreeDpProgram {
    index_id: u64,
    satisfiable: bool,
    n_bags: usize,
    /// Children-before-parents.
    bags: Vec<TreeBag>,
}

impl TreeDpProgram {
    /// Compile the tree DP for `a` over a valid tree decomposition of its
    /// Gaifman graph against the indexed target.
    pub fn compile(a: &Structure, index: &StructureIndex, td: &TreeDecomposition) -> TreeDpProgram {
        debug_assert!(td.is_valid_for(&cq_graphs::gaifman_graph(a)));
        let doms = QueryDomains::compile(a, index);
        let (parent, post) = root_tree(td);
        let elems_of: Vec<Vec<Element>> = td
            .bags
            .iter()
            .map(|b| b.iter().copied().collect())
            .collect();
        // The positions of the separator of bags `t` and `u` in `t`'s order.
        let separator_in = |t: usize, u: usize| -> Vec<u32> {
            td.bags[t]
                .intersection(&td.bags[u])
                .map(|e| elems_of[t].iter().position(|x| x == e).expect("sep ⊆ bag") as u32)
                .collect()
        };
        let mut bags = Vec::with_capacity(post.len());
        // A query tuple may lie inside several bags; exactly one bag (the
        // first compiled, i.e. deepest in evaluation order) owns its weight
        // factor, the rest only check it.
        let mut claimed: Vec<bool> = vec![false; a.tuple_count()];
        for &t in &post {
            let program = BagProgram::compile_claiming(a, &doms, &elems_of[t], &mut |ordinal| {
                !std::mem::replace(&mut claimed[ordinal], true)
            });
            let edges = td
                .tree
                .neighbors(t)
                .filter(|&c| parent[c] == t)
                .map(|c| {
                    let key_depths = separator_in(t, c);
                    let depth = key_depths.iter().copied().max().unwrap_or(0) as usize;
                    TreeEdge {
                        child: c,
                        child_positions: separator_in(c, t),
                        key_depths,
                        depth,
                    }
                })
                .collect();
            let is_root = parent[t] == usize::MAX;
            bags.push(TreeBag {
                id: t,
                is_root,
                program,
                edges,
                parent_positions: if is_root {
                    Vec::new()
                } else {
                    separator_in(t, parent[t])
                },
            });
        }
        TreeDpProgram {
            index_id: index.id(),
            satisfiable: doms.satisfiable,
            n_bags: td.bags.len(),
            bags,
        }
    }

    /// The identity of the index this program was compiled against.
    pub fn index_id(&self) -> u64 {
        self.index_id
    }

    /// Decide `HOM(A, B)` — the [`BoolSemiring`] instantiation; the
    /// absorbing `⊤` gives the first-row early exit at the root.
    pub fn decide(&self, index: &StructureIndex) -> TreeDpRun {
        let (value, peak_table) = self.eval::<BoolSemiring>(index, None);
        TreeDpRun {
            exists: value,
            count: Nat::Finite(u64::from(value)),
            peak_table,
        }
    }

    /// Count homomorphisms — the [`CheckedNatSemiring`] instantiation
    /// (overflow is typed, never clamped).
    pub fn count(&self, index: &StructureIndex) -> TreeDpRun {
        let (value, peak_table) = self.eval::<CheckedNatSemiring>(index, None);
        TreeDpRun {
            exists: value.positive(),
            count: value,
            peak_table,
        }
    }

    /// The generic sum-of-products: ⊕ over homomorphisms of the ⊗ of
    /// per-tuple factors, computed bottom-up with per-edge separator
    /// group-sum joins.  `weights` is required exactly when
    /// `S::WEIGHTED`.  Returns the aggregate and the peak bag-table size.
    pub fn eval<S: Semiring>(
        &self,
        index: &StructureIndex,
        weights: Option<&TupleWeights>,
    ) -> (S::Value, usize) {
        let mut total = S::zero();
        let peak = self.bottom_up::<S>(index, weights, None, None, &mut sum_into::<S>(&mut total));
        (total, peak)
    }

    /// The bottom-up pass every evaluation of the tree DP shares: bags in
    /// children-before-parents order, each run by [`run_bag`] against its
    /// children's rows group-summed onto their separators, the root's rows
    /// sent to `root`.  `pins[pos]` pins depths of the bag at position
    /// `pos`.
    ///
    /// With `retained`, every bag's group table is kept there (the
    /// incremental state) and the pass runs past bags that admit no row.
    /// Without it, a bag's rows are group-summed only when its parent runs
    /// and freed right after, and the pass stops at the first empty bag —
    /// the root then never runs, and no pending rows are summed.  Returns
    /// the largest row count of any bag.
    fn bottom_up<S: Semiring>(
        &self,
        index: &StructureIndex,
        weights: Option<&TupleWeights>,
        pins: Option<&[Vec<Option<u32>>]>,
        retained: Option<&mut [Option<GroupTable<S::Value>>]>,
        root: &mut impl FnMut(&[u32], S::Value) -> bool,
    ) -> usize {
        debug_assert_eq!(index.id(), self.index_id, "program run on a foreign index");
        let mut peak = 0usize;
        if !self.satisfiable {
            return peak;
        }
        let keep = retained.is_some();
        let mut local = Vec::new();
        let tables = match retained {
            Some(tables) => tables,
            None => {
                local.resize_with(self.n_bags, || None);
                &mut local[..]
            }
        };
        let mut pending: Vec<Option<BagTable<S::Value>>> = Vec::new();
        pending.resize_with(if keep { 0 } else { self.n_bags }, || None);
        for (pos, bag) in self.bags.iter().enumerate() {
            if !keep {
                for edge in &bag.edges {
                    let rows = pending[edge.child].take().expect("children before parents");
                    tables[edge.child] = Some(rows.group_sums::<S>(&edge.child_positions));
                }
            }
            let pins = pins.map(|p| p[pos].as_slice());
            let (table, rows) = run_bag::<S>(bag, index, weights, pins, tables, root);
            peak = peak.max(rows);
            if keep {
                tables[bag.id] = table.map(|t| t.group_sums::<S>(&bag.parent_positions));
                continue;
            }
            for edge in &bag.edges {
                tables[edge.child] = None;
            }
            if rows == 0 {
                break; // some bag admits nothing
            }
            pending[bag.id] = table;
        }
        peak
    }
}

/// A compiled *answer* program for a query with free variables: the tree DP
/// of [`TreeDpProgram`] over the free-connex closure of a decomposition
/// ([`TreeDecomposition::answer_decomposition`] — every free element
/// adjoined to every bag), plus the positions needed to group by and to pin
/// the free elements.
///
/// Adjoining makes the root bag contain every free element, so one ordinary
/// bottom-up pass yields the whole answer relation by grouping root rows;
/// and it makes *every* bag contain every free element, so a prefix of free
/// images can be pinned uniformly and certified by a single pinned decide.
/// Two evaluation modes share the compiled program:
///
/// * [`AnswerProgram::answer_table`] — one bottom-up pass whose root rows
///   are grouped by the free positions into a packed-key [`GroupTable`]:
///   keys are the answers (free images in declared order), values the
///   ⊕-aggregate over their existential extensions (`true` under
///   [`BoolSemiring`], the extension count under [`CheckedNatSemiring`]).
///   [`AnswerProgram::count_answers`] is its group count.
/// * [`AnswerProgram::cursor`] — bounded-delay enumeration: a pinned-prefix
///   DFS over the free elements in declared order, candidates ascending
///   from the sorted prefilter domains, each prefix certified by a pinned
///   decide.  Emits answers in lexicographically ascending order (the
///   [`BTreeSet`] order of the brute-force projection oracle) without ever
///   materialising the answer set; the work between consecutive answers is
///   bounded by the domains and the DP size, independent of how many
///   answers the query has in total.
///
/// The price of adjoining is width: the answer decomposition is wider than
/// the counting one by at most the number of free elements — the honest
/// cost of answer counting relative to boolean evaluation in the
/// fine-classification setting.  Unweighted semirings only.
pub struct AnswerProgram {
    program: TreeDpProgram,
    /// The free elements of the query, in declared (answer-column) order.
    free: Vec<Element>,
    /// `pin_depths[bag_pos][j]`: the depth of free element `j` in the
    /// element order of `bags[bag_pos]` (present in every bag by
    /// construction).
    pin_depths: Vec<Vec<usize>>,
    /// Sorted candidate images of each free element (prefilter domains).
    free_domains: Vec<Vec<u32>>,
    /// Width of the adjoined (answer) decomposition.
    width: usize,
}

impl AnswerProgram {
    /// Compile the answer program for `a` over a valid tree decomposition
    /// `td` of its Gaifman graph, with `free` the canonical-structure
    /// elements of the free variables in declared order (distinct).
    pub fn compile(
        a: &Structure,
        index: &StructureIndex,
        td: &TreeDecomposition,
        free: &[Element],
    ) -> AnswerProgram {
        debug_assert!(
            {
                let mut seen = BTreeSet::new();
                free.iter().all(|f| seen.insert(*f))
            },
            "free elements must be distinct"
        );
        let atd = td.answer_decomposition(free);
        let width = atd.width();
        let program = TreeDpProgram::compile(a, index, &atd);
        let doms = QueryDomains::compile(a, index);
        let pin_depths: Vec<Vec<usize>> = program
            .bags
            .iter()
            .map(|bag| {
                free.iter()
                    .map(|f| {
                        bag.program
                            .elems
                            .iter()
                            .position(|e| e == f)
                            .expect("free elements are adjoined to every bag")
                    })
                    .collect()
            })
            .collect();
        let free_domains = free.iter().map(|&f| doms.domain(f).to_vec()).collect();
        AnswerProgram {
            program,
            free: free.to_vec(),
            pin_depths,
            free_domains,
            width,
        }
    }

    /// The identity of the index this program was compiled against.
    pub fn index_id(&self) -> u64 {
        self.program.index_id
    }

    /// Width of the adjoined decomposition the DP runs over (the counting
    /// width plus at most the number of free elements).
    pub fn answer_width(&self) -> usize {
        self.width
    }

    /// The full answer relation in one bottom-up pass: root rows grouped by
    /// the free positions.  Keys are answers (free images in declared
    /// order), values the ⊕-aggregate of each answer's existential
    /// extensions.  Iteration order is insertion order — use
    /// [`AnswerProgram::cursor`] when order matters.
    pub fn answer_table<S: Semiring>(&self, index: &StructureIndex) -> GroupTable<S::Value> {
        debug_assert!(!S::WEIGHTED, "answer tables are unweighted-only");
        let mut out: GroupTable<S::Value> = GroupTable::with_capacity(self.free.len(), 16);
        let mut key: Vec<u32> = Vec::with_capacity(self.free.len());
        // The root bag is last in children-before-parents order.
        let root_free = self.pin_depths.last().expect("at least one bag");
        // Root rows are grouped by free assignment instead of being
        // ⊕-folded into a scalar; no absorbing early exit — every group
        // must be discovered.
        self.program
            .bottom_up::<S>(index, None, None, None, &mut |row, acc| {
                key.clear();
                key.extend(root_free.iter().map(|&p| row[p]));
                out.merge(&key, acc, |slot, v| *slot = S::add(slot, &v));
                false
            });
        out
    }

    /// Number of distinct answers (free-variable assignments extendable to
    /// a full homomorphism).
    pub fn count_answers(&self, index: &StructureIndex) -> u64 {
        self.answer_table::<BoolSemiring>(index).len() as u64
    }

    /// Does some homomorphism map the free elements to `prefix` (a prefix
    /// of the declared free order)?  One bottom-up pass with the prefix
    /// pinned in every bag — the certificate behind each cursor step.
    fn pinned_decide(&self, index: &StructureIndex, prefix: &[u32]) -> bool {
        let pins: Vec<Vec<Option<u32>>> = self
            .program
            .bags
            .iter()
            .zip(&self.pin_depths)
            .map(|(bag, depths)| {
                let mut pins = vec![None; bag.program.elems.len()];
                for (&d, &v) in depths.iter().zip(prefix) {
                    pins[d] = Some(v);
                }
                pins
            })
            .collect();
        let mut found = false;
        self.program
            .bottom_up::<BoolSemiring>(index, None, Some(&pins), None, &mut |_, _| {
                found = true;
                true
            });
        found
    }

    /// A bounded-delay cursor over the answers, in lexicographically
    /// ascending order of the free images (declared free order, `u32`
    /// element order within a column).
    pub fn cursor<'a>(&'a self, index: &'a StructureIndex) -> AnswerCursor<'a> {
        debug_assert_eq!(
            index.id(),
            self.program.index_id,
            "cursor on a foreign index"
        );
        AnswerCursor {
            program: self,
            index,
            stack: Vec::new(),
            prefix: Vec::new(),
            state: CursorState::Fresh,
        }
    }
}

enum CursorState {
    /// No answer produced yet.
    Fresh,
    /// `stack`/`prefix` hold the last produced (full) answer.
    Mid,
    /// Exhausted.
    Done,
}

/// Bounded-delay answer enumeration over an [`AnswerProgram`]: a DFS over
/// the free elements in declared order whose every step is certified by a
/// pinned decide, so the cursor only ever walks viable prefixes.  The work
/// per produced answer is bounded by (free count) × (largest free domain) ×
/// (one DP pass) — independent of the total number of answers, with no
/// materialisation and no per-answer state beyond the current prefix.
pub struct AnswerCursor<'a> {
    program: &'a AnswerProgram,
    index: &'a StructureIndex,
    /// Candidate indices of the current viable prefix, one per free slot.
    stack: Vec<usize>,
    /// The images of the current prefix (parallel to `stack`).
    prefix: Vec<u32>,
    state: CursorState,
}

impl AnswerCursor<'_> {
    /// Extend/advance the current viable prefix to the lexicographically
    /// next full assignment, starting the top level at candidate index
    /// `probe`.  Returns `false` when the enumeration is exhausted.
    fn seek(&mut self, mut probe: usize) -> bool {
        let k = self.program.free.len();
        loop {
            let level = self.stack.len();
            debug_assert_eq!(self.prefix.len(), level);
            let dom = &self.program.free_domains[level];
            let mut found = false;
            while probe < dom.len() {
                self.prefix.push(dom[probe]);
                if self.program.pinned_decide(self.index, &self.prefix) {
                    found = true;
                    break;
                }
                self.prefix.pop();
                probe += 1;
            }
            if found {
                self.stack.push(probe);
                if self.stack.len() == k {
                    return true;
                }
                probe = 0;
            } else {
                match self.stack.pop() {
                    Some(prev) => {
                        self.prefix.pop();
                        probe = prev + 1;
                    }
                    None => return false,
                }
            }
        }
    }
}

impl Iterator for AnswerCursor<'_> {
    type Item = Vec<u32>;

    fn next(&mut self) -> Option<Vec<u32>> {
        match self.state {
            CursorState::Done => None,
            CursorState::Fresh => {
                if self.program.free.is_empty() {
                    // Zero free variables: the one empty answer iff the
                    // boolean query holds.
                    self.state = CursorState::Done;
                    return self.program.pinned_decide(self.index, &[]).then(Vec::new);
                }
                self.state = CursorState::Mid;
                if self.seek(0) {
                    Some(self.prefix.clone())
                } else {
                    self.state = CursorState::Done;
                    None
                }
            }
            CursorState::Mid => {
                let last = self.stack.pop().expect("Mid holds a full assignment");
                self.prefix.pop();
                if self.seek(last + 1) {
                    Some(self.prefix.clone())
                } else {
                    self.state = CursorState::Done;
                    None
                }
            }
        }
    }
}

/// Retained evaluation state of one `(TreeDpProgram, semiring)` pair: the
/// per-edge separator group tables of every non-root bag plus the root
/// total, stamped with the index version (and domain epoch) they reflect.
///
/// [`TreeDpProgram::eval_retained`] builds this on first call and then
/// catches it up through the index's mutation log: only bags whose
/// constraints mention a touched relation (or whose child tables changed)
/// are re-evaluated, everything else is reused as-is.  Unweighted
/// semirings only — weights are per-call, so a retained table would pin
/// one weighting.
pub struct TreeIncrementalState<V> {
    /// The [`StructureIndex::version`] these tables were computed at.
    version: u64,
    /// The [`StructureIndex::domain_epoch`] the program's baked domains
    /// assume; an epoch bump invalidates the whole state.
    epoch: u64,
    /// Per bag id: the ⊕-group table toward the parent edge (`None` for
    /// the root).
    edge_tables: Vec<Option<GroupTable<V>>>,
    /// The ⊕-total at the root.
    root_value: V,
}

impl<V> TreeIncrementalState<V> {
    /// The index version this state is synchronized with.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Metering of one [`TreeDpProgram::eval_retained`] call: how much of the
/// retained state survived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetainedEvalStats {
    /// The state was (re)built from scratch — first call, an epoch bump,
    /// or a mutation-log gap.
    pub full_rebuild: bool,
    /// Bags whose retained tables were reused untouched.
    pub bags_reused: usize,
    /// Bags patched in place by ⊖/⊕ of delta contributions.
    pub bags_patched: usize,
    /// Bags re-enumerated from scratch.
    pub bags_recomputed: usize,
    /// Largest bag table materialized by this call.
    pub peak_table: usize,
}

/// Whether two group tables agree on every key with a nonzero value
/// (zero-valued entries — left behind by in-place ⊖-patches — are
/// semantically absent).
fn tables_agree_modulo_zeros<S: Semiring>(
    a: &GroupTable<S::Value>,
    b: &GroupTable<S::Value>,
) -> bool {
    let nonzero = |t: &GroupTable<S::Value>| t.iter().filter(|(_, v)| !S::is_zero(v)).count();
    nonzero(a) == nonzero(b)
        && a.iter()
            .filter(|(_, v)| !S::is_zero(v))
            .all(|(k, v)| b.get(k) == Some(v))
}

/// Map the pinned constraint's argument depths to the concrete elements of
/// one delta tuple.  `None` when the constraint repeats a variable the
/// tuple maps to two different elements — no row of the bag can ever bind
/// the constraint to that tuple.
fn pin_tuple(c: &Constraint, tuple: &[u32], depths: usize) -> Option<Vec<Option<u32>>> {
    let mut pins = vec![None; depths];
    for (q, &d) in c.arg_depths.iter().enumerate() {
        match pins[d as usize] {
            None => pins[d as usize] = Some(tuple[q]),
            Some(prev) if prev == tuple[q] => {}
            Some(_) => return None,
        }
    }
    Some(pins)
}

/// The candidate handler of [`enumerate_pinned`]: place `candidate`, run
/// the anchored checks (skipping the pinned constraint when its tuple was
/// deleted), multiply the joins, recurse.  Returns `true` to stop the
/// whole enumeration.
#[allow(clippy::too_many_arguments)]
fn pinned_candidate<S: Semiring>(
    program: &BagProgram,
    index: &StructureIndex,
    joins_at: &[Vec<usize>],
    joins: &[Join<'_, S::Value>],
    pins: &[Option<u32>],
    skip: Option<(usize, usize)>,
    depth: usize,
    candidate: u32,
    row: &mut [u32],
    args: &mut Vec<u32>,
    key: &mut Vec<u32>,
    acc: &S::Value,
    scratch: &mut [Vec<u32>],
    emit: &mut impl FnMut(&[u32], S::Value) -> bool,
) -> bool {
    row[depth] = candidate;
    for (i, c) in program.checks[depth].iter().enumerate() {
        if skip == Some((depth, i)) {
            continue;
        }
        args.clear();
        args.extend(c.arg_depths.iter().map(|&d| row[d as usize]));
        if !index.contains(c.sym, args) {
            return false;
        }
    }
    let mut next_acc = acc.clone();
    for &j in &joins_at[depth] {
        let join = &joins[j];
        key.clear();
        key.extend(join.key_depths.iter().map(|&d| row[d as usize]));
        match join.table.get(key.as_slice()) {
            Some(v) => next_acc = S::mul(&next_acc, v),
            None => return false,
        }
    }
    enumerate_pinned::<S>(
        program,
        index,
        joins_at,
        joins,
        pins,
        skip,
        depth + 1,
        row,
        args,
        key,
        &next_acc,
        scratch,
        emit,
    )
}

/// [`enumerate`] with some depths pinned to fixed images: pinned depths
/// take exactly their candidate, free depths take
/// [`BagProgram::candidates`].  Unweighted semirings only.
///
/// Driving stays sound when a delta patch skips the check of a deleted
/// tuple (`skip`), although that tuple is gone from the index: the patch
/// pins every depth of the skipped constraint, so its anchor depth is
/// pinned and it never drives; and [`TreeDpProgram::eval_retained`]
/// patches a bag only when exactly one of its constraints reads a touched
/// relation, so every driver at an unpinned depth walks an untouched
/// relation whose posting lists are the same before and after the round.
#[allow(clippy::too_many_arguments)]
fn enumerate_pinned<S: Semiring>(
    program: &BagProgram,
    index: &StructureIndex,
    joins_at: &[Vec<usize>],
    joins: &[Join<'_, S::Value>],
    pins: &[Option<u32>],
    skip: Option<(usize, usize)>,
    depth: usize,
    row: &mut [u32],
    args: &mut Vec<u32>,
    key: &mut Vec<u32>,
    acc: &S::Value,
    scratch: &mut [Vec<u32>],
    emit: &mut impl FnMut(&[u32], S::Value) -> bool,
) -> bool {
    if depth == program.elems.len() {
        return emit(row, acc.clone());
    }
    if let Some(v) = pins[depth] {
        // A pinned image outside the baked domain admits no rows (baked
        // domains stay supersets of the live ones within an epoch).
        if program.domains[depth].binary_search(&v).is_err() {
            return false;
        }
        return pinned_candidate::<S>(
            program, index, joins_at, joins, pins, skip, depth, v, row, args, key, acc, scratch,
            emit,
        );
    }
    let mut buf = std::mem::take(&mut scratch[depth]);
    let stop = program
        .candidates(index, depth, row, &mut buf)
        .iter()
        .any(|&candidate| {
            pinned_candidate::<S>(
                program, index, joins_at, joins, pins, skip, depth, candidate, row, args, key, acc,
                scratch, emit,
            )
        });
    scratch[depth] = buf;
    stop
}

/// Where a delta patch lands: a non-root bag's parent-edge group table, or
/// the root total itself.
enum PatchTarget<'a, V> {
    Edge {
        table: &'a mut GroupTable<V>,
        positions: &'a [u32],
    },
    Root(&'a mut V),
}

/// Patch one bag's retained aggregate in place from a single mutation
/// round: for every deleted tuple of the pinned constraint's relation,
/// enumerate the rows that bound the constraint to it (they were valid
/// before the round, the other checks are untouched) and ⊖ their
/// contributions; for every inserted tuple, enumerate and ⊕.  Records the
/// pre-patch value of every touched key and returns whether some key's
/// value genuinely moved (modulo zeros), so a round that cancels out stops
/// propagating to the parent.  Returns `None` when a subtraction cannot be
/// answered exactly — the caller must fully recompute the bag (the
/// half-patched target is discarded).
fn patch_bag<S: Semiring>(
    bag: &TreeBag,
    index: &StructureIndex,
    round: &AppliedDelta,
    pinned_at: (usize, usize),
    edge_tables: &[Option<GroupTable<S::Value>>],
    mut target: PatchTarget<'_, S::Value>,
) -> Option<bool> {
    let Some((joins, initial_acc)) = bag_joins::<S>(bag, edge_tables) else {
        // Every row of this bag is annihilated by an empty independent
        // component, before and after the round alike.
        return Some(false);
    };
    let c = &bag.program.checks[pinned_at.0][pinned_at.1];
    let n = bag.program.elems.len();
    let mut pkey: Vec<u32> = Vec::new();
    // Pre-patch values of the keys this round touches (`None` = the key
    // was absent), recorded on first touch — O(delta), not O(table).
    let mut pre: Vec<(Vec<u32>, Option<S::Value>)> = Vec::new();
    let pre_root = match &target {
        PatchTarget::Root(total) => Some((*total).clone()),
        PatchTarget::Edge { .. } => None,
    };
    // Deleted tuples retract their rows (the deleted tuple itself is no
    // longer in the index, so its check is skipped); inserted tuples add.
    let deleted = round.deletions().iter().map(|(sym, _, t)| (sym, t, true));
    let inserted = round.insertions().iter().map(|(sym, t)| (sym, t, false));
    for (sym, tuple, retract) in deleted.chain(inserted) {
        if *sym != c.sym {
            continue;
        }
        let Some(pins) = pin_tuple(c, tuple, n) else {
            continue;
        };
        let mut ok = true;
        run_program::<S>(
            &bag.program,
            index,
            None,
            &joins,
            Some((&pins, retract.then_some(pinned_at))),
            &mut |r, acc| {
                if S::is_zero(&acc) {
                    return false;
                }
                let slot = match &mut target {
                    PatchTarget::Edge { table, positions } => {
                        pkey.clear();
                        pkey.extend(positions.iter().map(|&p| r[p as usize]));
                        if !pre.iter().any(|(k, _)| k == &pkey) {
                            pre.push((pkey.clone(), table.get(&pkey).cloned()));
                        }
                        if !retract {
                            table.merge(&pkey, acc, |a, v| *a = S::add(a, &v));
                            return false;
                        }
                        table.get_mut(&pkey)
                    }
                    PatchTarget::Root(total) if !retract => {
                        **total = S::add(total, &acc);
                        return false;
                    }
                    PatchTarget::Root(total) => Some(&mut **total),
                };
                match slot.and_then(|slot| S::sub(slot, &acc).map(|left| *slot = left)) {
                    Some(()) => false,
                    None => {
                        ok = false;
                        true
                    }
                }
            },
            initial_acc.clone(),
        );
        if !ok {
            return None;
        }
    }
    Some(match (&target, pre_root) {
        (PatchTarget::Root(total), Some(before)) => **total != before,
        _ => {
            let PatchTarget::Edge { table, .. } = &target else {
                unreachable!("pre_root is Some exactly for the root target")
            };
            pre.iter().any(|(k, before)| {
                let now = table.get(k).filter(|v| !S::is_zero(v));
                let before = before.as_ref().filter(|v| !S::is_zero(v));
                now != before
            })
        }
    })
}

impl TreeDpProgram {
    /// The incremental sum-of-products: like [`TreeDpProgram::eval`], but
    /// the per-edge group tables live in `state` across calls and only the
    /// bags affected by the index's mutation log since `state`'s version
    /// are re-evaluated.
    ///
    /// A bag is *dirty* when one of its constraints mentions a relation
    /// touched by a pending round, or when a child's table changed.  Dirty
    /// bags are re-enumerated from scratch — except that under an
    /// invertible semiring ([`Semiring::INVERTIBLE`]) a single pending
    /// round touching exactly one constraint of the bag is patched in
    /// place: the rows binding that constraint to each deleted/inserted
    /// tuple are enumerated with the constraint's depths pinned, and their
    /// contributions ⊖-retracted / ⊕-added.  Change is detected modulo
    /// zero-valued entries, so a round that cancels out stops propagating.
    ///
    /// Unweighted semirings only (`!S::WEIGHTED` — weights are per-call).
    /// Passing a `state` from another program or semiring is a logic
    /// error.
    pub fn eval_retained<S: Semiring>(
        &self,
        index: &StructureIndex,
        state: &mut Option<TreeIncrementalState<S::Value>>,
    ) -> (S::Value, RetainedEvalStats) {
        debug_assert!(!S::WEIGHTED, "retained evaluation is unweighted-only");
        debug_assert_eq!(index.id(), self.index_id, "program run on a foreign index");
        let mut stats = RetainedEvalStats::default();
        if !self.satisfiable {
            return (S::zero(), stats);
        }
        let muts = match state.as_ref() {
            Some(st) if st.epoch == index.domain_epoch() => index.mutations_since(st.version),
            _ => None,
        };
        let Some(muts) = muts else {
            // Build from scratch: every bag evaluated once, every table kept.
            let mut edge_tables: Vec<Option<GroupTable<S::Value>>> = Vec::new();
            edge_tables.resize_with(self.n_bags, || None);
            let mut root_value = S::zero();
            stats.peak_table = self.bottom_up::<S>(
                index,
                None,
                None,
                Some(&mut edge_tables),
                &mut sum_into::<S>(&mut root_value),
            );
            stats.full_rebuild = true;
            stats.bags_recomputed = self.bags.len();
            *state = Some(TreeIncrementalState {
                version: index.version(),
                epoch: index.domain_epoch(),
                edge_tables,
                root_value: root_value.clone(),
            });
            return (root_value, stats);
        };
        let st = state.as_mut().expect("mutations_since implies state");
        let mut touched: Vec<SymbolId> = Vec::new();
        for round in &muts {
            for sym in round.touched_symbols() {
                if !touched.contains(&sym) {
                    touched.push(sym);
                }
            }
        }
        if touched.is_empty() {
            st.version = index.version();
            stats.bags_reused = self.bags.len();
            return (st.root_value.clone(), stats);
        }
        let single_round = muts.len() == 1;
        let mut changed = vec![false; self.n_bags];
        for bag in &self.bags {
            let child_changed = bag.edges.iter().any(|e| changed[e.child]);
            let affected: Vec<(usize, usize)> = bag
                .program
                .checks
                .iter()
                .enumerate()
                .flat_map(|(d, cs)| {
                    cs.iter()
                        .enumerate()
                        .filter(|(_, c)| touched.contains(&c.sym))
                        .map(move |(i, _)| (d, i))
                })
                .collect();
            if !child_changed && affected.is_empty() {
                stats.bags_reused += 1;
                continue;
            }
            let mut old_untrusted = false;
            if S::INVERTIBLE
                && !S::WEIGHTED
                && single_round
                && !child_changed
                && affected.len() == 1
            {
                // Pull the bag's own state out so the child tables can be
                // borrowed immutably next to it.
                let mut own = if bag.is_root {
                    None
                } else {
                    Some(st.edge_tables[bag.id].take().expect("built state"))
                };
                let mut root = st.root_value.clone();
                let target = match &mut own {
                    Some(table) => PatchTarget::Edge {
                        table,
                        positions: &bag.parent_positions,
                    },
                    None => PatchTarget::Root(&mut root),
                };
                let patched =
                    patch_bag::<S>(bag, index, &muts[0], affected[0], &st.edge_tables, target);
                if let Some(any) = patched {
                    if bag.is_root {
                        st.root_value = root;
                    } else {
                        st.edge_tables[bag.id] = own;
                    }
                    changed[bag.id] = any;
                    stats.bags_patched += 1;
                    continue;
                }
                // The patch failed partway (a ⊖ could not answer); the old
                // table can no longer anchor change detection.
                old_untrusted = true;
            }
            let mut total = S::zero();
            let (out, rows) = run_bag::<S>(
                bag,
                index,
                None,
                None,
                &st.edge_tables,
                &mut sum_into::<S>(&mut total),
            );
            stats.peak_table = stats.peak_table.max(rows);
            stats.bags_recomputed += 1;
            match out {
                None => {
                    st.root_value = total;
                    changed[bag.id] = true;
                }
                Some(rows) => {
                    let t = rows.group_sums::<S>(&bag.parent_positions);
                    changed[bag.id] = old_untrusted
                        || match &st.edge_tables[bag.id] {
                            Some(old) => !tables_agree_modulo_zeros::<S>(old, &t),
                            None => true,
                        };
                    st.edge_tables[bag.id] = Some(t);
                }
            }
        }
        st.version = index.version();
        (st.root_value.clone(), stats)
    }
}

/// One step of a compiled staircase sweep.
enum StairStep {
    /// Project the frontier onto the surviving positions, ⊕-merging rows
    /// that collide.
    Forget {
        /// Positions (in the pre-step order) of the surviving elements.
        positions: Vec<u32>,
    },
    /// Extend every frontier row through a program whose first
    /// `prefix_len` depths are pinned to the row.
    Introduce {
        program: BagProgram,
        prefix_len: usize,
    },
}

/// The kernel staircase sweep compiled against one `(query, index)` pair:
/// the first-bag program plus the forget/introduce step sequence with all
/// element-order bookkeeping resolved at compile time.
///
/// Each query tuple is checked exactly once across the sweep — in the
/// introduce step assigning its last element (path-decomposition
/// contiguity: elements never return once forgotten) — so every check
/// owns its weight factor and the sweep is a sound ⊕/⊗ evaluation for any
/// semiring, not just decision.
pub struct StairProgram {
    index_id: u64,
    satisfiable: bool,
    bags: usize,
    width: usize,
    init: BagProgram,
    steps: Vec<StairStep>,
}

impl StairProgram {
    /// Compile the sweep for `a` over a staircase path decomposition
    /// against the indexed target.
    pub fn compile(a: &Structure, index: &StructureIndex, stair: &PathDecomposition) -> Self {
        debug_assert!(stair.is_staircase());
        let doms = QueryDomains::compile(a, index);
        let mut order: Vec<Element> = match stair.bags.first() {
            Some(first) => first.iter().copied().collect(),
            None => Vec::new(),
        };
        let init = BagProgram::compile(a, &doms, &order);
        let mut steps = Vec::new();
        if doms.satisfiable {
            for window in stair.bags.windows(2) {
                let (prev, next) = (&window[0], &window[1]);
                if next.is_subset(prev) {
                    let keep: Vec<Element> = next.iter().copied().collect();
                    let positions: Vec<u32> = keep
                        .iter()
                        .map(|e| order.iter().position(|x| x == e).expect("next ⊆ prev") as u32)
                        .collect();
                    order = keep;
                    steps.push(StairStep::Forget { positions });
                } else {
                    let new_elems: Vec<Element> = next.difference(prev).copied().collect();
                    let mut next_order = order.clone();
                    next_order.extend(new_elems.iter().copied());
                    let program = BagProgram::compile(a, &doms, &next_order);
                    steps.push(StairStep::Introduce {
                        program,
                        prefix_len: order.len(),
                    });
                    order = next_order;
                }
            }
        }
        StairProgram {
            index_id: index.id(),
            satisfiable: doms.satisfiable,
            bags: stair.bags.len(),
            width: stair.width(),
            init,
            steps,
        }
    }

    /// The identity of the index this program was compiled against.
    pub fn index_id(&self) -> u64 {
        self.index_id
    }

    /// Decide `HOM(A, B)` — the [`BoolSemiring`] instantiation of
    /// [`StairProgram::eval`], packaged as the sweep report.
    pub fn run(&self, index: &StructureIndex) -> PathDpReport {
        let (exists, peak_frontier) = self.eval::<BoolSemiring>(index, None);
        PathDpReport {
            exists,
            peak_frontier,
            bags: self.bags,
            width: self.width,
        }
    }

    /// Count homomorphisms by the sweep — the [`CheckedNatSemiring`]
    /// instantiation (the frontier values are partial-hom counts).
    pub fn count(&self, index: &StructureIndex) -> Nat {
        self.eval::<CheckedNatSemiring>(index, None).0
    }

    /// The generic staircase sweep: the frontier is a flat row table with
    /// one semiring value per row (the ⊕-aggregate over all partial
    /// homomorphisms projecting to the row); forget steps group-sum,
    /// introduce steps extend with pinned prefixes.  Returns the final
    /// ⊕-total and the peak frontier size.
    pub fn eval<S: Semiring>(
        &self,
        index: &StructureIndex,
        weights: Option<&TupleWeights>,
    ) -> (S::Value, usize) {
        debug_assert_eq!(index.id(), self.index_id, "program run on a foreign index");
        let mut peak = 0usize;
        if !self.satisfiable {
            return (S::zero(), peak);
        }
        // The frontier: rows of `stride` elements, one value per row.
        let mut frontier = BagTable::new(self.init.elems.len());
        run_program::<S>(
            &self.init,
            index,
            weights,
            &[],
            None,
            &mut |row, acc| frontier.keep::<S>(row, acc),
            S::one(),
        );
        peak = peak.max(frontier.len());
        if frontier.len() == 0 {
            return (S::zero(), peak);
        }

        for step in &self.steps {
            match step {
                StairStep::Forget { positions } => {
                    let (rows, values) = frontier.group_sums::<S>(positions).into_flat();
                    frontier = BagTable {
                        stride: positions.len(),
                        rows,
                        values,
                    };
                }
                StairStep::Introduce {
                    program,
                    prefix_len,
                } => {
                    // Constraints fully inside the old bag were checked
                    // when it was built; only checks anchored at the new
                    // depths run.  Distinct old rows extend to distinct
                    // full rows, so no merging is needed.
                    let prefix_len = *prefix_len;
                    let new_stride = program.elems.len();
                    let mut new_frontier = BagTable::new(new_stride);
                    let mut row = vec![0u32; new_stride];
                    let mut args = Vec::with_capacity(program.max_arity);
                    let mut key = Vec::new();
                    let mut scratch = vec![Vec::new(); new_stride];
                    let joins_at: Vec<Vec<usize>> = vec![Vec::new(); new_stride.max(1)];
                    for i in 0..frontier.len() {
                        row[..prefix_len].copy_from_slice(frontier.row(i));
                        let nf = &mut new_frontier;
                        enumerate::<S>(
                            program,
                            index,
                            weights,
                            &joins_at,
                            &[],
                            prefix_len,
                            &mut row,
                            &mut args,
                            &mut key,
                            &frontier.values[i],
                            &mut scratch,
                            &mut |full, acc| nf.keep::<S>(full, acc),
                        );
                    }
                    frontier = new_frontier;
                }
            }
            peak = peak.max(frontier.len());
            if frontier.len() == 0 {
                return (S::zero(), peak);
            }
        }
        let mut total = S::zero();
        for v in &frontier.values {
            total = S::add(&total, v);
            if S::is_add_absorbing(&total) {
                break;
            }
        }
        (total, peak)
    }
}

/// The forest topology and per-node constraints of a compiled forest
/// evaluation: for each node, the tuples of the query whose deepest
/// element in the forest it is (all other elements are ancestors, hence
/// assigned when the node is visited), plus the node's [`Driver`] picked
/// among them.  Constraint `arg_depths` are query elements, indexing the
/// assignment.  The anchoring is a partition of the query's tuples, so
/// every check owns its weight factor.
struct ForestChecks {
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
    checks: Vec<Vec<Constraint>>,
    drivers: Vec<Option<Driver>>,
    max_arity: usize,
}

impl ForestChecks {
    fn compile(a: &Structure, doms: &QueryDomains, forest: &EliminationForest) -> ForestChecks {
        let depths = forest.depths();
        let mut checks: Vec<Vec<Constraint>> = vec![Vec::new(); a.universe_size()];
        let mut max_arity = 0;
        if doms.satisfiable {
            for (sym, t) in a.all_tuples() {
                let target = doms.sym_map[sym.index()].expect("satisfiable query");
                let anchor = t
                    .iter()
                    .copied()
                    .max_by_key(|&e| depths[e as usize])
                    .expect("tuples are non-empty");
                max_arity = max_arity.max(t.len());
                checks[anchor as usize].push(Constraint {
                    sym: target,
                    arg_depths: t.to_vec(),
                    owns_weight: true,
                });
            }
        }
        let drivers = checks
            .iter()
            .enumerate()
            .map(|(v, anchored)| pick_driver(v as u32, anchored))
            .collect();
        ForestChecks {
            children: forest.children(),
            roots: forest.roots(),
            checks,
            drivers,
            max_arity,
        }
    }
}

/// Result of a kernel forest evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForestRun {
    /// Whether a homomorphism exists.
    pub exists: bool,
    /// The number of homomorphisms ([`Nat::Overflow`] past `u64::MAX`;
    /// the decision entry point stops early and reports 0/1).
    pub count: Nat,
    /// Candidate images tried across the whole run, after driving (a
    /// work figure): a node with a driver tries only its posting-list
    /// candidates, any other node its whole prefilter domain.
    pub assignments: u64,
}

/// The generic sum–product recursion of the forest evaluations: the
/// ⊕-aggregate over extensions of the current ancestor assignment to the
/// subtree at `v` of the ⊗-product of tuple factors.  The absorbing-element
/// early exit reproduces decision's first-witness stop under
/// [`BoolSemiring`].  Candidates at `v` come off its driver's posting list
/// when that is shorter than the domain; `scratch[v]` is the node's reused
/// candidate buffer.
#[allow(clippy::too_many_arguments)]
fn forest_subtree<S: Semiring>(
    program: &ForestChecks,
    doms: &QueryDomains,
    index: &StructureIndex,
    weights: Option<&TupleWeights>,
    v: usize,
    assignment: &mut [u32],
    args: &mut Vec<u32>,
    scratch: &mut [Vec<u32>],
    stats: &mut u64,
) -> S::Value {
    let mut buf = std::mem::take(&mut scratch[v]);
    let domain = doms.domain(v);
    let candidates = match &program.drivers[v] {
        Some(drv) if driven_candidates(drv, index, assignment, domain, &mut buf) => &buf,
        _ => domain,
    };
    let mut total = S::zero();
    for &image in candidates {
        *stats += 1;
        assignment[v] = image;
        let Some(mut product) =
            check_factor::<S>(&program.checks[v], index, weights, assignment, args)
        else {
            continue;
        };
        for &child in &program.children[v] {
            let sub = forest_subtree::<S>(
                program, doms, index, weights, child, assignment, args, scratch, stats,
            );
            product = S::mul(&product, &sub);
            if S::is_zero(&product) {
                break;
            }
        }
        total = S::add(&total, &product);
        if S::is_add_absorbing(&total) {
            break;
        }
    }
    scratch[v] = buf;
    total
}

/// The kernel sum–product forest evaluation compiled against one
/// `(query, index)` pair: prefilter domains plus per-node anchored
/// constraints.  Compile once, then [`ForestProgram::decide`] /
/// [`ForestProgram::count`] / [`ForestProgram::eval`] many times against
/// the same index — the program is semiring-agnostic.
pub struct ForestProgram {
    index_id: u64,
    satisfiable: bool,
    doms: QueryDomains,
    checks: ForestChecks,
    universe: usize,
}

impl ForestProgram {
    /// Compile the forest evaluation for `a` over a valid elimination
    /// forest of its Gaifman graph against the indexed target.
    pub fn compile(
        a: &Structure,
        index: &StructureIndex,
        forest: &EliminationForest,
    ) -> ForestProgram {
        debug_assert!(forest.is_valid_for(&cq_graphs::gaifman_graph(a)));
        let doms = QueryDomains::compile(a, index);
        let checks = ForestChecks::compile(a, &doms, forest);
        ForestProgram {
            index_id: index.id(),
            satisfiable: doms.satisfiable,
            doms,
            checks,
            universe: a.universe_size(),
        }
    }

    /// The identity of the index this program was compiled against.
    pub fn index_id(&self) -> u64 {
        self.index_id
    }

    /// Count homomorphisms by the sum–product recursion
    /// ([`CheckedNatSemiring`]; overflow typed, never clamped).
    pub fn count(&self, index: &StructureIndex) -> ForestRun {
        let mut assignments = 0u64;
        let value = self.eval::<CheckedNatSemiring>(index, None, &mut assignments);
        ForestRun {
            exists: value.positive(),
            count: value,
            assignments,
        }
    }

    /// Decide `HOM(A, B)` — [`BoolSemiring`], with the absorbing `⊤`
    /// giving the first-witness early exit.
    pub fn decide(&self, index: &StructureIndex) -> ForestRun {
        let mut assignments = 0u64;
        let value = self.eval::<BoolSemiring>(index, None, &mut assignments);
        ForestRun {
            exists: value,
            count: Nat::Finite(u64::from(value)),
            assignments,
        }
    }

    /// The generic sum–product: roots are independent, so their aggregates
    /// ⊗-multiply.  `assignments` meters candidate images tried.
    pub fn eval<S: Semiring>(
        &self,
        index: &StructureIndex,
        weights: Option<&TupleWeights>,
        assignments: &mut u64,
    ) -> S::Value {
        debug_assert_eq!(index.id(), self.index_id, "program run on a foreign index");
        if !self.satisfiable {
            return S::zero();
        }
        let mut assignment = vec![0u32; self.universe];
        let mut args = Vec::with_capacity(self.checks.max_arity);
        let mut scratch = vec![Vec::new(); self.universe];
        let mut result = S::one();
        for &root in &self.checks.roots {
            let sub = forest_subtree::<S>(
                &self.checks,
                &self.doms,
                index,
                weights,
                root,
                &mut assignment,
                &mut args,
                &mut scratch,
                assignments,
            );
            result = S::mul(&result, &sub);
            if S::is_zero(&result) {
                break;
            }
        }
        result
    }
}

/// Statistics of one kernel backtracking search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelSearchStats {
    /// Candidate images tried (witness search) or complete rows visited
    /// (semiring aggregation).
    pub assignments: u64,
    /// Whether the prefilter alone refuted the instance (some domain
    /// empty before any search).
    pub decided_by_prefilter: bool,
}

/// The structure-agnostic kernel fallback compiled against one
/// `(query, index)` pair: the whole query as a single [`BagProgram`]
/// (index-driven candidate domains, incremental constraint checks) in the
/// chosen element order.
pub struct SearchProgram {
    index_id: u64,
    /// The prefilter refuted the instance at compile time (unsatisfiable
    /// vocabulary or some empty domain).
    refuted: bool,
    order: Vec<Element>,
    program: BagProgram,
    universe: usize,
}

impl SearchProgram {
    /// Compile the whole-query search.  With `fail_first` the element
    /// order is by increasing prefilter-domain size; otherwise element
    /// order.
    pub fn compile(a: &Structure, index: &StructureIndex, fail_first: bool) -> SearchProgram {
        let doms = QueryDomains::compile(a, index);
        let refuted = !doms.satisfiable || doms.domains.iter().any(|d| d.is_empty());
        let mut order: Vec<Element> = (0..a.universe_size()).collect();
        if fail_first {
            order.sort_by_key(|&e| doms.domains[e].len());
        }
        let program = BagProgram::compile(a, &doms, &order);
        SearchProgram {
            index_id: index.id(),
            refuted,
            order,
            program,
            universe: a.universe_size(),
        }
    }

    /// The identity of the index this program was compiled against.
    pub fn index_id(&self) -> u64 {
        self.index_id
    }

    /// Search for a first complete row; returns the witness as a total
    /// map plus search statistics.  (Witness *extraction* is the one
    /// entry point that is not a semiring fold — it returns an assignment,
    /// not an aggregate.)
    pub fn run(&self, index: &StructureIndex) -> (Option<Vec<Element>>, KernelSearchStats) {
        debug_assert_eq!(index.id(), self.index_id, "program run on a foreign index");
        let mut stats = KernelSearchStats::default();
        if self.refuted {
            stats.decided_by_prefilter = true;
            return (None, stats);
        }
        // A plain domain-scan search so `stats.assignments` counts every
        // candidate image tried (the driver path would skip some).
        fn search(
            program: &BagProgram,
            index: &StructureIndex,
            depth: usize,
            row: &mut [u32],
            args: &mut Vec<u32>,
            assignments: &mut u64,
        ) -> bool {
            if depth == program.elems.len() {
                return true;
            }
            for &candidate in &program.domains[depth] {
                *assignments += 1;
                row[depth] = candidate;
                if checks_pass(&program.checks[depth], index, row, args)
                    && search(program, index, depth + 1, row, args, assignments)
                {
                    return true;
                }
            }
            false
        }
        let mut row = vec![0u32; self.order.len()];
        let mut args = Vec::with_capacity(self.program.max_arity);
        let mut witness: Option<Vec<Element>> = None;
        if search(
            &self.program,
            index,
            0,
            &mut row,
            &mut args,
            &mut stats.assignments,
        ) {
            let mut total = vec![0 as Element; self.universe];
            for (d, &e) in self.order.iter().enumerate() {
                total[e] = row[d] as Element;
            }
            witness = Some(total);
        }
        (witness, stats)
    }

    /// ⊕-aggregate over **all** homomorphisms through the whole-query
    /// program — the structure-free tier of counting and the weighted
    /// aggregates (each tuple is anchored exactly once, so every check
    /// owns its weight).  `stats.assignments` counts complete rows
    /// visited.
    pub fn aggregate<S: Semiring>(
        &self,
        index: &StructureIndex,
        weights: Option<&TupleWeights>,
    ) -> (S::Value, KernelSearchStats) {
        debug_assert_eq!(index.id(), self.index_id, "program run on a foreign index");
        let mut stats = KernelSearchStats::default();
        if self.refuted {
            stats.decided_by_prefilter = true;
            return (S::zero(), stats);
        }
        let mut total = S::zero();
        run_program::<S>(
            &self.program,
            index,
            weights,
            &[],
            None,
            &mut |_, acc| {
                stats.assignments += 1;
                if S::is_zero(&acc) {
                    return false;
                }
                total = S::add(&total, &acc);
                S::is_add_absorbing(&total)
            },
            S::one(),
        );
        (total, stats)
    }
}

/// Enumerate the valid assignments of one bag as flat rows over the sorted
/// bag order — the kernel replacement for the reference `bag_assignments`
/// helper (exposed for tests and ad-hoc callers).
pub fn bag_rows_indexed(
    a: &Structure,
    index: &StructureIndex,
    bag: &BTreeSet<Element>,
) -> (Vec<Element>, Vec<u32>) {
    let doms = QueryDomains::compile(a, index);
    let elems: Vec<Element> = bag.iter().copied().collect();
    let program = BagProgram::compile(a, &doms, &elems);
    let mut rows = Vec::new();
    if doms.satisfiable {
        run_program::<BoolSemiring>(
            &program,
            index,
            None,
            &[],
            None,
            &mut |row, _| {
                rows.extend_from_slice(row);
                false
            },
            true,
        );
    }
    (elems, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{Cost, MaxWeightSemiring, MinCostSemiring};
    use cq_decomp::pathwidth::pathwidth_of_structure;
    use cq_decomp::treedepth::treedepth_exact;
    use cq_decomp::treewidth::treewidth_of_structure;
    use cq_graphs::gaifman_graph;
    use cq_structures::{
        count_homomorphisms_bruteforce, families, homomorphism_exists, homomorphisms_iter,
        star_expansion,
    };

    fn pairs() -> Vec<(Structure, Structure)> {
        let queries = [
            families::path(3),
            families::path(5),
            families::cycle(3),
            families::cycle(4),
            families::cycle(5),
            families::star(3),
            families::directed_path(4),
            families::grid(2, 2),
            families::complete_bipartite(2, 2),
        ];
        let targets = [
            families::path(4),
            families::cycle(5),
            families::cycle(6),
            families::clique(3),
            families::clique(4),
            families::grid(2, 3),
            families::directed_cycle(5),
        ];
        queries
            .iter()
            .flat_map(|a| targets.iter().map(move |b| (a.clone(), b.clone())))
            .collect()
    }

    /// Deterministic non-uniform weights for the differential tests.
    fn test_weights(b: &Structure) -> TupleWeights {
        TupleWeights::from_fn(b, |sym, i, _| {
            ((sym.index() as u64 + 1) * 7 + i as u64 * 3) % 11
        })
    }

    /// Brute-force weighted reference: the cost of every homomorphism via
    /// [`homomorphisms_iter`], independent of all kernel machinery.
    fn hom_costs(a: &Structure, b: &Structure, weights: &TupleWeights) -> Vec<u64> {
        let index = StructureIndex::new(b);
        homomorphisms_iter(a, b)
            .iter()
            .map(|h| {
                let mut cost = 0u64;
                for (sym, t) in a.all_tuples() {
                    let target = index
                        .vocabulary()
                        .id_of(a.vocabulary().name(sym))
                        .expect("hom exists");
                    let image: Vec<u32> = t.iter().map(|&e| h[e as usize] as u32).collect();
                    let row = index.row_of(target, &image).expect("hom maps tuples in");
                    cost += weights.get(target, row);
                }
                cost
            })
            .collect()
    }

    #[test]
    fn tree_dp_decision_and_count_match_bruteforce() {
        for (a, b) in pairs() {
            let (_, td) = treewidth_of_structure(&a);
            let index = StructureIndex::new(&b);
            let decide = TreeDpProgram::compile(&a, &index, &td).decide(&index);
            assert_eq!(decide.exists, homomorphism_exists(&a, &b), "{a} -> {b}");
            let count = TreeDpProgram::compile(&a, &index, &td).count(&index);
            assert_eq!(
                count.count,
                count_homomorphisms_bruteforce(&a, &b),
                "{a} -> {b}"
            );
        }
    }

    #[test]
    fn staircase_sweep_matches_reference() {
        for (a, b) in pairs() {
            let (_, pd) = pathwidth_of_structure(&a);
            let stair = pd.normalize_staircase();
            let index = StructureIndex::new(&b);
            let kernel = StairProgram::compile(&a, &index, &stair).run(&index);
            let reference = crate::pathdp::hom_via_staircase(&a, &b, &stair);
            assert_eq!(kernel.exists, reference.exists, "{a} -> {b}");
            assert_eq!(kernel.bags, reference.bags);
            assert_eq!(kernel.width, reference.width);
            // The kernel prefilter can only shrink the frontier.
            assert!(
                kernel.peak_frontier <= reference.peak_frontier,
                "kernel frontier grew on {a} -> {b}"
            );
        }
    }

    #[test]
    fn staircase_counting_matches_bruteforce() {
        // The generic sweep counts: every atom is checked exactly once
        // across the staircase, so the frontier values are partial-hom
        // counts.
        for (a, b) in pairs() {
            let (_, pd) = pathwidth_of_structure(&a);
            let stair = pd.normalize_staircase();
            let index = StructureIndex::new(&b);
            assert_eq!(
                StairProgram::compile(&a, &index, &stair).count(&index),
                count_homomorphisms_bruteforce(&a, &b),
                "{a} -> {b}"
            );
        }
    }

    #[test]
    fn forest_count_and_decide_match_bruteforce() {
        for (a, b) in pairs() {
            let g = gaifman_graph(&a);
            let (_, forest) = treedepth_exact(&g);
            let index = StructureIndex::new(&b);
            let count = ForestProgram::compile(&a, &index, &forest).count(&index);
            assert_eq!(
                count.count,
                count_homomorphisms_bruteforce(&a, &b),
                "{a} -> {b}"
            );
            let decide = ForestProgram::compile(&a, &index, &forest).decide(&index);
            assert_eq!(decide.exists, homomorphism_exists(&a, &b), "{a} -> {b}");
        }
    }

    #[test]
    fn answer_program_matches_bruteforce_projection() {
        use std::collections::BTreeMap;
        for (a, b) in pairs() {
            let (_, td) = treewidth_of_structure(&a);
            let index = StructureIndex::new(&b);
            let n = a.universe_size();
            let mut free_sets: Vec<Vec<Element>> = vec![Vec::new(), vec![0], (0..n).collect()];
            if n >= 2 {
                // Marked order ≠ element order: answer columns follow it.
                free_sets.push(vec![n - 1, 0]);
            }
            for free in free_sets {
                let program = AnswerProgram::compile(&a, &index, &td, &free);
                let expected = cq_structures::answers_bruteforce(&a, &b, &free);
                assert_eq!(
                    program.count_answers(&index) as usize,
                    expected.len(),
                    "count {a} -> {b} free {free:?}"
                );
                // The cursor reproduces the brute-force order exactly.
                let got: Vec<Vec<u32>> = program.cursor(&index).collect();
                let expected_u32: Vec<Vec<u32>> = expected
                    .iter()
                    .map(|r| r.iter().map(|&e| e as u32).collect())
                    .collect();
                assert_eq!(got, expected_u32, "cursor {a} -> {b} free {free:?}");
                // Per-answer extension counts under the counting semiring.
                let mut multiplicities: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
                for h in homomorphisms_iter(&a, &b) {
                    let key: Vec<u32> = free.iter().map(|&i| h[i] as u32).collect();
                    *multiplicities.entry(key).or_insert(0) += 1;
                }
                let table = program.answer_table::<CheckedNatSemiring>(&index);
                assert_eq!(
                    table.len(),
                    multiplicities.len(),
                    "{a} -> {b} free {free:?}"
                );
                for (key, value) in table.iter() {
                    assert_eq!(
                        *value,
                        Nat::Finite(multiplicities[key]),
                        "multiplicity of {key:?} on {a} -> {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn answer_cursor_is_restartable_and_lazy() {
        // Consecutive cursors over the same program agree, and taking a
        // prefix of a cursor equals the prefix of the full enumeration (the
        // pagination contract: pages are windows of one deterministic
        // order).
        let a = families::path(4);
        let b = families::clique(4);
        let (_, td) = treewidth_of_structure(&a);
        let index = StructureIndex::new(&b);
        let program = AnswerProgram::compile(&a, &index, &td, &[0, 3]);
        let all: Vec<Vec<u32>> = program.cursor(&index).collect();
        assert!(!all.is_empty());
        for take in [0, 1, all.len() / 2, all.len(), all.len() + 7] {
            let page: Vec<Vec<u32>> = program.cursor(&index).take(take).collect();
            assert_eq!(page, all[..take.min(all.len())].to_vec());
        }
    }

    #[test]
    fn weighted_aggregates_match_bruteforce_on_every_tier() {
        // Min-cost and max-weight through all four program shapes against
        // the structure-agnostic reference enumeration, with non-uniform
        // deterministic weights.  Exercises weight ownership: the tree DP
        // shares tuples between bags and must emit each weight exactly
        // once.
        let mut compared = 0usize;
        for (a, b) in pairs() {
            let weights = test_weights(&b);
            let costs = hom_costs(&a, &b, &weights);
            let expected_min: Cost = costs.iter().copied().min();
            let expected_max: Cost = costs.iter().copied().max();
            let index = StructureIndex::new(&b);
            let (_, td) = treewidth_of_structure(&a);
            let (_, pd) = pathwidth_of_structure(&a);
            let stair = pd.normalize_staircase();
            let g = gaifman_graph(&a);
            let (_, forest) = treedepth_exact(&g);

            assert_eq!(
                TreeDpProgram::compile(&a, &index, &td)
                    .eval::<MinCostSemiring>(&index, Some(&weights))
                    .0,
                expected_min,
                "tree min-cost on {a} -> {b}"
            );
            assert_eq!(
                TreeDpProgram::compile(&a, &index, &td)
                    .eval::<MaxWeightSemiring>(&index, Some(&weights))
                    .0,
                expected_max,
                "tree max-weight on {a} -> {b}"
            );
            assert_eq!(
                StairProgram::compile(&a, &index, &stair)
                    .eval::<MinCostSemiring>(&index, Some(&weights))
                    .0,
                expected_min,
                "stair min-cost on {a} -> {b}"
            );
            assert_eq!(
                ForestProgram::compile(&a, &index, &forest).eval::<MinCostSemiring>(
                    &index,
                    Some(&weights),
                    &mut 0
                ),
                expected_min,
                "forest min-cost on {a} -> {b}"
            );
            assert_eq!(
                ForestProgram::compile(&a, &index, &forest).eval::<MaxWeightSemiring>(
                    &index,
                    Some(&weights),
                    &mut 0
                ),
                expected_max,
                "forest max-weight on {a} -> {b}"
            );
            assert_eq!(
                SearchProgram::compile(&a, &index, true)
                    .aggregate::<MaxWeightSemiring>(&index, Some(&weights))
                    .0,
                expected_max,
                "search max-weight on {a} -> {b}"
            );
            compared += 6;
        }
        assert!(compared >= 300, "weighted corpus degenerated: {compared}");
    }

    #[test]
    fn astronomical_counts_surface_as_typed_overflow() {
        // #hom(P_12, K_64) = 64 · 63^11 ≈ 6.2e21 > u64::MAX — the tree DP
        // and the staircase sweep must report Overflow, not a clamped or
        // wrapped number.
        let p12 = families::path(12);
        let k64 = families::clique(64);
        let index = StructureIndex::new(&k64);
        let (_, td) = treewidth_of_structure(&p12);
        let run = TreeDpProgram::compile(&p12, &index, &td).count(&index);
        assert_eq!(run.count, Nat::Overflow);
        assert!(run.exists, "overflowed counts still certify existence");
        let (_, pd) = pathwidth_of_structure(&p12);
        assert_eq!(
            StairProgram::compile(&p12, &index, &pd.normalize_staircase()).count(&index),
            Nat::Overflow
        );

        // #hom(K_{1,11}, K_100) = 100 · 99^11 ≈ 9e23 through the forest
        // sum–product (11 independent leaves — the per-root product is
        // where the old kernel silently saturated).
        let star = families::star(11);
        let k100 = families::clique(100);
        let star_index = StructureIndex::new(&k100);
        let g = gaifman_graph(&star);
        let (_, forest) = treedepth_exact(&g);
        let run = ForestProgram::compile(&star, &star_index, &forest).count(&star_index);
        assert_eq!(run.count, Nat::Overflow);
        assert!(run.exists);

        // Counts just inside u64 range stay exact: #hom(P_2, K_n) = n(n-1).
        let p2 = families::path(2);
        let (_, td2) = treewidth_of_structure(&p2);
        assert_eq!(
            TreeDpProgram::compile(&p2, &index, &td2)
                .count(&index)
                .count,
            64 * 63
        );
    }

    #[test]
    fn group_table_merges_without_per_row_allocation_semantics() {
        let mut t: GroupTable<u64> = GroupTable::with_capacity(2, 2);
        // Force several growths and collisions.
        for i in 0..100u32 {
            t.merge(&[i % 10, i % 3], u64::from(i), |a, v| *a += v);
        }
        let mut total = 0u64;
        let mut groups = 0usize;
        for (key, v) in t.iter() {
            assert_eq!(key.len(), 2);
            total += *v;
            groups += 1;
        }
        assert_eq!(groups, t.len());
        assert_eq!(total, (0..100u64).sum::<u64>());
        assert!(t.get(&[0, 0]).is_some());
        assert!(t.get(&[9, 9]).is_none());
        // Stride-0 tables hold exactly one group (the empty key).
        let mut empty: GroupTable<u64> = GroupTable::with_capacity(0, 4);
        empty.merge(&[], 3, |a, v| *a += v);
        empty.merge(&[], 4, |a, v| *a += v);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.get(&[]), Some(&7));
    }

    #[test]
    fn whole_query_search_matches_reference() {
        for (a, b) in pairs() {
            let index = StructureIndex::new(&b);
            for fail_first in [true, false] {
                let (witness, _) = SearchProgram::compile(&a, &index, fail_first).run(&index);
                assert_eq!(witness.is_some(), homomorphism_exists(&a, &b), "{a} -> {b}");
                if let Some(h) = witness {
                    assert!(cq_structures::is_homomorphism(&a, &b, &h), "{a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn search_aggregate_counts_like_bruteforce() {
        for (a, b) in pairs().into_iter().take(20) {
            let index = StructureIndex::new(&b);
            let program = SearchProgram::compile(&a, &index, true);
            let (count, _) = program.aggregate::<CheckedNatSemiring>(&index, None);
            assert_eq!(count, count_homomorphisms_bruteforce(&a, &b), "{a} -> {b}");
        }
    }

    #[test]
    fn colored_instances_prefilter_to_singletons() {
        let q = star_expansion(&families::path(4));
        let index = StructureIndex::new(&q);
        let doms = QueryDomains::compile(&q, &index);
        assert!(doms.satisfiable());
        for e in 0..q.universe_size() {
            assert_eq!(doms.domain(e), &[e as u32], "colour pins element {e}");
        }
        let (witness, stats) = SearchProgram::compile(&q, &index, true).run(&index);
        assert!(witness.is_some());
        assert_eq!(stats.assignments, q.universe_size() as u64);
    }

    #[test]
    fn missing_target_symbol_is_unsatisfiable() {
        let q = star_expansion(&families::path(3));
        let plain = families::path(5);
        let index = StructureIndex::new(&plain);
        let doms = QueryDomains::compile(&q, &index);
        assert!(!doms.satisfiable());
        let (_, td) = treewidth_of_structure(&q);
        assert!(
            !TreeDpProgram::compile(&q, &index, &td)
                .decide(&index)
                .exists
        );
        assert_eq!(
            TreeDpProgram::compile(&q, &index, &td).count(&index).count,
            0
        );
        let (_, pd) = pathwidth_of_structure(&q);
        assert!(
            !StairProgram::compile(&q, &index, &pd.normalize_staircase())
                .run(&index)
                .exists
        );
        let g = gaifman_graph(&q);
        let (_, forest) = treedepth_exact(&g);
        assert_eq!(
            ForestProgram::compile(&q, &index, &forest)
                .count(&index)
                .count,
            0
        );
        let (witness, stats) = SearchProgram::compile(&q, &index, true).run(&index);
        assert!(witness.is_none());
        assert!(stats.decided_by_prefilter);
    }

    #[test]
    fn trivial_decomposition_reduces_to_prefiltered_bruteforce() {
        let a = families::cycle(4);
        let b = families::cycle(6);
        let td = TreeDecomposition::trivial(&gaifman_graph(&a));
        let index = StructureIndex::new(&b);
        assert!(
            TreeDpProgram::compile(&a, &index, &td)
                .decide(&index)
                .exists
        );
        assert_eq!(
            TreeDpProgram::compile(&a, &index, &td).count(&index).count,
            count_homomorphisms_bruteforce(&a, &b)
        );
    }

    #[test]
    fn bag_rows_match_reference_bag_assignments() {
        let a = families::cycle(5);
        let b = families::clique(3);
        let index = StructureIndex::new(&b);
        let bag: BTreeSet<Element> = [0, 1, 2].into_iter().collect();
        let (elems, rows) = bag_rows_indexed(&a, &index, &bag);
        assert_eq!(elems, vec![0, 1, 2]);
        let stride = elems.len();
        let mut kernel_rows: Vec<Vec<u32>> = rows.chunks(stride).map(|r| r.to_vec()).collect();
        kernel_rows.sort();
        let reference = crate::treedec::reference_bag_assignments(&a, &b, &bag);
        let mut reference_rows: Vec<Vec<u32>> = reference
            .iter()
            .map(|h| elems.iter().map(|&e| h.get(e).unwrap() as u32).collect())
            .collect();
        reference_rows.sort();
        assert_eq!(kernel_rows, reference_rows);
    }

    #[test]
    fn disconnected_queries_multiply_components() {
        // Two disjoint edges into K3: 6 * 6 = 36 homomorphisms; the
        // tree decomposition has two components joined arbitrarily, so the
        // empty-separator group-sum path is exercised.
        let (two_edges, _) =
            cq_structures::disjoint_union(&[&families::path(2), &families::path(2)]).unwrap();
        let k3 = families::clique(3);
        let index = StructureIndex::new(&k3);
        let (_, td) = treewidth_of_structure(&two_edges);
        assert_eq!(
            TreeDpProgram::compile(&two_edges, &index, &td)
                .count(&index)
                .count,
            count_homomorphisms_bruteforce(&two_edges, &k3)
        );
        assert!(
            TreeDpProgram::compile(&two_edges, &index, &td)
                .decide(&index)
                .exists
        );
        // Weighted across components: min cost adds over the two edges.
        let weights = test_weights(&k3);
        let costs = hom_costs(&two_edges, &k3, &weights);
        assert_eq!(
            TreeDpProgram::compile(&two_edges, &index, &td)
                .eval::<MinCostSemiring>(&index, Some(&weights))
                .0,
            costs.iter().copied().min()
        );
    }

    #[test]
    fn compiled_programs_are_reusable_and_meter_compilations() {
        let a = families::cycle(4);
        let b = families::cycle(6);
        let index = StructureIndex::new(&b);
        let (_, td) = treewidth_of_structure(&a);
        let (_, pd) = pathwidth_of_structure(&a);
        let stair = pd.normalize_staircase();
        let g = gaifman_graph(&a);
        let (_, forest) = treedepth_exact(&g);

        let tree = TreeDpProgram::compile(&a, &index, &td);
        let stairp = StairProgram::compile(&a, &index, &stair);
        let forestp = ForestProgram::compile(&a, &index, &forest);
        let search = SearchProgram::compile(&a, &index, true);
        assert_eq!(tree.index_id(), index.id());
        assert_eq!(stairp.index_id(), index.id());
        assert_eq!(forestp.index_id(), index.id());
        assert_eq!(search.index_id(), index.id());

        // Running a compiled program does not recompile: repeat runs are
        // pure reads of the program and return identical results.  (The
        // counter is process-global and other tests compile concurrently,
        // so only monotone lower bounds are race-safe to assert here; the
        // exact no-recompile equality is asserted by the single-threaded
        // E18 bench.)  One compiled program serves every semiring.
        let before = program_compilation_count();
        let expected = count_homomorphisms_bruteforce(&a, &b);
        let weights = TupleWeights::uniform(&b, 2);
        for _ in 0..3 {
            assert!(tree.decide(&index).exists);
            assert_eq!(tree.count(&index).count, expected);
            // Every hom maps each query tuple (symmetric edges count
            // twice) onto a weight-2 tuple.
            assert_eq!(
                tree.eval::<MinCostSemiring>(&index, Some(&weights)).0,
                Some(2 * a.tuple_count() as u64)
            );
            assert!(stairp.run(&index).exists);
            assert_eq!(stairp.count(&index), expected);
            assert_eq!(forestp.count(&index).count, expected);
            assert!(forestp.decide(&index).exists);
            assert!(search.run(&index).0.is_some());
        }

        // Compiling does meter.
        let _again = TreeDpProgram::compile(&a, &index, &td);
        assert!(program_compilation_count() > before);
    }

    #[test]
    fn driver_iteration_matches_bruteforce_on_selective_targets() {
        // Directed path into a large directed cycle: every element's
        // posting list has length 1 against full-size prefilter domains,
        // so the posting-list driver carries the whole enumeration.
        let a = families::directed_path(4);
        let b = families::directed_cycle(20);
        let index = StructureIndex::new(&b);
        let (_, td) = treewidth_of_structure(&a);
        assert_eq!(
            TreeDpProgram::compile(&a, &index, &td).count(&index).count,
            count_homomorphisms_bruteforce(&a, &b)
        );
        let (_, pd) = pathwidth_of_structure(&a);
        assert!(
            StairProgram::compile(&a, &index, &pd.normalize_staircase())
                .run(&index)
                .exists
        );
        // A star query: the centre is bound first, the leaves all drive
        // off the centre's posting list.
        let star = families::star(4);
        let k4 = families::clique(4);
        let k4_index = StructureIndex::new(&k4);
        let (_, td_star) = treewidth_of_structure(&star);
        assert_eq!(
            TreeDpProgram::compile(&star, &k4_index, &td_star)
                .count(&k4_index)
                .count,
            count_homomorphisms_bruteforce(&star, &k4)
        );
    }

    /// A small warehouse-shaped target in the style of the scale corpus:
    /// a dense binary fact relation `R` with planted loops, a sparse binary
    /// `S`, and a ternary `T` whose planted tuples repeat their first
    /// element last.  Posting lists are much shorter than the prefilter
    /// domains, so the drivers carry the enumeration.
    fn selective_target(n: usize, seed: u64) -> Structure {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let voc = cq_structures::Vocabulary::from_pairs([("R", 2), ("S", 2), ("T", 3)]).unwrap();
        let (r, s, t) = (
            voc.id_of("R").unwrap(),
            voc.id_of("S").unwrap(),
            voc.id_of("T").unwrap(),
        );
        let mut b = cq_structures::StructureBuilder::new(voc).with_universe(n);
        for _ in 0..4 * n {
            b.raw_fact(r, vec![rng.gen_range(0..n), rng.gen_range(0..n)]);
        }
        for _ in 0..n / 3 {
            let x = rng.gen_range(0..n);
            b.raw_fact(r, vec![x, x]);
        }
        for _ in 0..n / 2 {
            b.raw_fact(s, vec![rng.gen_range(0..n), rng.gen_range(0..n)]);
        }
        for _ in 0..n {
            let (x, y) = (rng.gen_range(0..n), rng.gen_range(0..n));
            b.raw_fact(t, vec![x, y, x]);
            b.raw_fact(t, vec![x, y, rng.gen_range(0..n)]);
        }
        b.build().unwrap()
    }

    /// A query over the [`selective_target`] vocabulary, one atom per
    /// `(symbol, elements)` pair.
    fn selective_query(n: usize, atoms: &[(&str, &[usize])]) -> Structure {
        let voc = cq_structures::Vocabulary::from_pairs([("R", 2), ("S", 2), ("T", 3)]).unwrap();
        let mut a = Structure::new(voc, n).unwrap();
        for &(name, elems) in atoms {
            let sym = a.vocabulary().id_of(name).unwrap();
            a.add_tuple(sym, elems.to_vec()).unwrap();
        }
        a
    }

    #[test]
    fn forest_drivers_match_bruteforce_on_selective_targets() {
        // Self-loops `R(x,x)` repeat the anchored variable, so they never
        // drive (one sits alone on a component root); `T(x,y,x)` repeats
        // an ancestor at two bound positions of a driver.
        let queries = [
            selective_query(
                5,
                &[
                    ("S", &[0, 1]),
                    ("R", &[1, 2]),
                    ("R", &[2, 2]),
                    ("T", &[1, 3, 1]),
                    ("R", &[3, 4]),
                ],
            ),
            selective_query(
                5,
                &[
                    ("R", &[0, 0]),
                    ("S", &[0, 1]),
                    ("T", &[0, 2, 0]),
                    ("R", &[2, 3]),
                    ("R", &[4, 4]),
                ],
            ),
            selective_query(4, &[("T", &[0, 1, 2]), ("R", &[2, 2]), ("S", &[3, 1])]),
        ];
        let mut driven_nodes = 0;
        for (seed, b) in (1..=3).map(|seed| (seed, selective_target(24, seed))) {
            let index = StructureIndex::new(&b);
            let weights = test_weights(&b);
            for a in &queries {
                let (_, forest) = treedepth_exact(&gaifman_graph(a));
                let program = ForestProgram::compile(a, &index, &forest);
                driven_nodes += program.checks.drivers.iter().flatten().count();
                let count = program.count(&index);
                assert_eq!(
                    count.count,
                    count_homomorphisms_bruteforce(a, &b),
                    "{a}, seed {seed}"
                );
                assert_eq!(program.decide(&index).exists, homomorphism_exists(a, &b));
                let costs = hom_costs(a, &b, &weights);
                let min = program.eval::<MinCostSemiring>(&index, Some(&weights), &mut 0);
                let max = program.eval::<MaxWeightSemiring>(&index, Some(&weights), &mut 0);
                assert_eq!(min, costs.iter().copied().min(), "{a}, seed {seed}");
                assert_eq!(max, costs.iter().copied().max(), "{a}, seed {seed}");
            }
        }
        // Three driven nodes per query, on each of the three targets.
        assert_eq!(driven_nodes, 27);

        // One fixed case, against the same program with its drivers
        // stripped (the domain scan): same count, fewer candidates tried.
        let (a, b) = (&queries[0], selective_target(24, 1));
        let index = StructureIndex::new(&b);
        let (_, forest) = treedepth_exact(&gaifman_graph(a));
        let driven = ForestProgram::compile(a, &index, &forest);
        let mut scan = ForestProgram::compile(a, &index, &forest);
        scan.checks.drivers.iter_mut().for_each(|d| *d = None);
        let (driven, scan) = (driven.count(&index), scan.count(&index));
        assert_eq!(driven.count, 42);
        assert_eq!(scan.count, 42);
        assert_eq!((driven.assignments, scan.assignments), (58, 456));
    }

    #[test]
    fn answer_cursor_matches_bruteforce_on_a_selective_target() {
        // The E22 endpoint shape `S(x0,x1) ∧ R(x1,x2) ∧ R(x2,x3)` with
        // `x0, x3` free: the unpinned depths of every pinned decide drive
        // off short `R` posting lists.
        let a = selective_query(4, &[("S", &[0, 1]), ("R", &[1, 2]), ("R", &[2, 3])]);
        let (_, td) = treewidth_of_structure(&a);
        for seed in 1..=3 {
            let b = selective_target(40, seed);
            let index = StructureIndex::new(&b);
            let program = AnswerProgram::compile(&a, &index, &td, &[0, 3]);
            assert!(program.program.bags.iter().any(|bag| bag
                .program
                .drivers
                .iter()
                .any(Option::is_some)));
            let expected: Vec<Vec<u32>> = cq_structures::answers_bruteforce(&a, &b, &[0, 3])
                .iter()
                .map(|r| r.iter().map(|&e| e as u32).collect())
                .collect();
            assert!(expected.len() >= 5, "seed {seed}: too few answers");
            assert_eq!(program.cursor(&index).collect::<Vec<_>>(), expected);
            assert_eq!(program.count_answers(&index) as usize, expected.len());
        }
    }

    #[test]
    fn retained_patch_drives_unpinned_depths_over_untouched_relations() {
        // One bag {x0, x1, x2} (the trivial decomposition of a triangle):
        // `S(x0,x1)` is the only constraint reading the churned relation,
        // so a round patches the bag with depths 0 and 1 pinned, and depth 2
        // drives off the untouched `R`.
        let a = selective_query(3, &[("S", &[0, 1]), ("R", &[1, 2]), ("R", &[0, 2])]);
        let mut b = selective_target(30, 7);
        let s = b.vocabulary().id_of("S").unwrap();
        for (u, v) in [
            (0, 1),
            (0, 2),
            (3, 1),
            (3, 2),
            (4, 5),
            (6, 5),
            (4, 7),
            (6, 7),
        ] {
            b.add_tuple(s, vec![u, v]).unwrap();
        }
        let td = TreeDecomposition::trivial(&gaifman_graph(&a));
        let mut index = StructureIndex::new(&b);
        let program = TreeDpProgram::compile(&a, &index, &td);
        let bag = &program.bags[0].program;
        let drv = bag.drivers[2].as_ref().expect("depth 2 has an R driver");
        assert_eq!(index.vocabulary().name(drv.sym), "R");
        let epoch = index.domain_epoch();
        let mut state = None;
        program.eval_retained::<CheckedNatSemiring>(&index, &mut state);
        let rounds = [
            (vec![(0, 1)], vec![(0, 5)]),
            (vec![(4, 7), (3, 2)], vec![(6, 2), (4, 1)]),
            (vec![(6, 5)], vec![(6, 5)]),
        ];
        for (i, (deleted, inserted)) in rounds.iter().enumerate() {
            let mut batch = cq_structures::DeltaBatch::new();
            for &(u, v) in deleted {
                batch.delete(s, vec![u, v]);
            }
            for &(u, v) in inserted {
                batch.insert(s, vec![u, v]);
            }
            index.apply_delta(&batch).unwrap();
            assert_eq!(index.domain_epoch(), epoch, "round {i} must stay in-epoch");
            let (patched, stats) = program.eval_retained::<CheckedNatSemiring>(&index, &mut state);
            assert!(
                !stats.full_rebuild && stats.bags_patched >= 1,
                "round {i}: {stats:?}"
            );
            assert_eq!(patched, program.count(&index).count, "round {i}");
            assert_eq!(
                patched,
                count_homomorphisms_bruteforce(&a, index.structure())
            );
        }
    }

    /// Drive one query/target pair through scripted mutation rounds,
    /// checking the retained count and decision against brute force after
    /// every round.  Mirrors the engine's epoch discipline: a domain-epoch
    /// bump recompiles the program and drops the retained states.
    fn check_retained_rounds(a: &Structure, b: &Structure) {
        let (_, td) = treewidth_of_structure(a);
        let mut index = StructureIndex::new(b);
        let Some(sym) = index
            .vocabulary()
            .ids()
            .find(|&s| !index.structure().relation(s).is_empty())
        else {
            return;
        };
        let mut program = TreeDpProgram::compile(a, &index, &td);
        let mut epoch = index.domain_epoch();
        let mut count_state = None;
        let mut bool_state = None;

        let first_row = index.structure().relation(sym).row(0).to_vec();
        let arity = index.vocabulary().arity(sym);
        let n = index.universe_size() as u32;
        // A tuple not currently present (cyclic shift of the first row's
        // successors); skip the insert round if the relation is complete.
        let fresh = (0..n)
            .flat_map(|u| (0..n).map(move |v| vec![u, v]))
            .find(|t| {
                let wide: Vec<usize> = t.iter().map(|&x| x as usize).collect();
                t.len() == arity && !index.structure().relation(sym).contains(&wide)
            });
        let mut rounds: Vec<RoundScript> = vec![
            RoundScript::Delete(first_row.clone()),
            RoundScript::Insert(first_row.clone()),
            RoundScript::DeleteInsertSame(first_row.clone()),
        ];
        if let Some(t) = fresh {
            rounds.push(RoundScript::Insert(t));
        }
        for (i, round) in rounds.iter().enumerate() {
            let mut batch = cq_structures::DeltaBatch::new();
            match round {
                RoundScript::Delete(t) => {
                    batch.delete(sym, t.clone());
                }
                RoundScript::Insert(t) => {
                    batch.insert(sym, t.clone());
                }
                RoundScript::DeleteInsertSame(t) => {
                    batch.delete(sym, t.clone()).insert(sym, t.clone());
                }
            }
            index.apply_delta(&batch).expect("valid scripted batch");
            if index.domain_epoch() != epoch {
                program = TreeDpProgram::compile(a, &index, &td);
                epoch = index.domain_epoch();
                count_state = None;
                bool_state = None;
            }
            let (count, _) = program.eval_retained::<CheckedNatSemiring>(&index, &mut count_state);
            let (exists, _) = program.eval_retained::<BoolSemiring>(&index, &mut bool_state);
            let expected = count_homomorphisms_bruteforce(a, index.structure());
            assert_eq!(count, expected, "{a} -> {b}, round {i}");
            assert_eq!(
                exists,
                homomorphism_exists(a, index.structure()),
                "{a} -> {b}, round {i}"
            );
        }
    }

    enum RoundScript {
        Delete(Vec<u32>),
        Insert(Vec<u32>),
        DeleteInsertSame(Vec<u32>),
    }

    #[test]
    fn retained_eval_agrees_with_bruteforce_across_mutation_rounds() {
        for (a, b) in pairs() {
            check_retained_rounds(&a, &b);
        }
    }

    /// A two-symbol query `x -R-> y -S-> z` so a round touching only one
    /// relation leaves the other bag's retained table untouched: the clean
    /// bag is reused, the dirty single-constraint bag is patched in place
    /// under the invertible counting semiring (and recomputed, never
    /// patched, under Bool).
    #[test]
    fn retained_eval_reuses_clean_bags_and_patches_dirty_ones() {
        let mut voc = cq_structures::Vocabulary::new();
        let r = voc.add("R", 2).unwrap();
        let s = voc.add("S", 2).unwrap();
        let mut a = Structure::new(voc.clone(), 3).unwrap();
        a.add_tuple(r, vec![0, 1]).unwrap();
        a.add_tuple(s, vec![1, 2]).unwrap();

        // Dense enough that the scripted churn never empties (or grows) a
        // position domain — the domain epoch must stay put.
        let mut b = Structure::new(voc, 6).unwrap();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (0, 3), (1, 4), (2, 1)] {
            b.add_tuple(r, vec![u, v]).unwrap();
        }
        for (u, v) in [(1, 3), (2, 4), (0, 5), (4, 5), (4, 3)] {
            b.add_tuple(s, vec![u, v]).unwrap();
        }
        let (_, td) = treewidth_of_structure(&a);
        let mut index = StructureIndex::new(&b);
        let br = index.vocabulary().id_of("R").unwrap();
        let program = TreeDpProgram::compile(&a, &index, &td);
        let mut count_state = None;
        let mut bool_state = None;
        let (_, build) = program.eval_retained::<CheckedNatSemiring>(&index, &mut count_state);
        assert!(build.full_rebuild);
        program.eval_retained::<BoolSemiring>(&index, &mut bool_state);

        // Refreshing with no pending mutations reuses everything.
        let (_, idle) = program.eval_retained::<CheckedNatSemiring>(&index, &mut count_state);
        assert!(!idle.full_rebuild);
        assert_eq!(idle.bags_recomputed + idle.bags_patched, 0);

        // Delete-and-reinsert the same R tuple: the dirty R bag is patched,
        // the patch detects that nothing moved, and the other bag is
        // reused no matter which one is the root.
        let mut batch = cq_structures::DeltaBatch::new();
        batch.delete(br, vec![0, 1]).insert(br, vec![0, 1]);
        index.apply_delta(&batch).unwrap();
        assert_eq!(index.domain_epoch(), 0, "churn stays within baked domains");
        let n_bags = program.bags.len();
        let (count, stats) = program.eval_retained::<CheckedNatSemiring>(&index, &mut count_state);
        assert_eq!(count, count_homomorphisms_bruteforce(&a, index.structure()));
        assert!(!stats.full_rebuild);
        assert_eq!(
            stats.bags_patched, 1,
            "the single-R-constraint bag must be patched in place: {stats:?}"
        );
        assert_eq!(
            stats.bags_recomputed, 0,
            "a cancelled round must not propagate"
        );
        assert_eq!(stats.bags_reused, n_bags - 1);

        let (exists, bstats) = program.eval_retained::<BoolSemiring>(&index, &mut bool_state);
        assert_eq!(exists, homomorphism_exists(&a, index.structure()));
        assert_eq!(
            bstats.bags_patched, 0,
            "Bool is not invertible — dirty bags recompute per key"
        );

        // Genuine R churn: still patched (or recomputed if it cascades),
        // still exact.
        let mut batch = cq_structures::DeltaBatch::new();
        batch.delete(br, vec![0, 1]).insert(br, vec![0, 2]);
        index.apply_delta(&batch).unwrap();
        assert_eq!(index.domain_epoch(), 0);
        let (count, stats) = program.eval_retained::<CheckedNatSemiring>(&index, &mut count_state);
        assert_eq!(count, count_homomorphisms_bruteforce(&a, index.structure()));
        assert!(!stats.full_rebuild);
        assert!(stats.bags_patched >= 1, "{stats:?}");

        // An S round dirties the S bag and leaves the R bag clean unless
        // the S table changed.
        let bs = index.vocabulary().id_of("S").unwrap();
        let mut batch = cq_structures::DeltaBatch::new();
        batch.delete(bs, vec![4, 5]).insert(bs, vec![4, 3]);
        index.apply_delta(&batch).unwrap();
        let (count, _) = program.eval_retained::<CheckedNatSemiring>(&index, &mut count_state);
        assert_eq!(count, count_homomorphisms_bruteforce(&a, index.structure()));
        let (exists, _) = program.eval_retained::<BoolSemiring>(&index, &mut bool_state);
        assert_eq!(exists, homomorphism_exists(&a, index.structure()));
    }

    /// Outrunning the index's bounded mutation log forces a full rebuild,
    /// which must still agree with brute force.
    #[test]
    fn retained_eval_rebuilds_after_log_gap() {
        let a = families::directed_path(3);
        let b = families::directed_cycle(8);
        let (_, td) = treewidth_of_structure(&a);
        let mut index = StructureIndex::new(&b);
        let e = index.vocabulary().id_of("E").unwrap();
        let program = TreeDpProgram::compile(&a, &index, &td);
        let mut state = None;
        program.eval_retained::<CheckedNatSemiring>(&index, &mut state);
        // More rounds than the log retains, without refreshing in between.
        for _ in 0..40 {
            let mut batch = cq_structures::DeltaBatch::new();
            batch.delete(e, vec![0, 1]).insert(e, vec![0, 1]);
            index.apply_delta(&batch).unwrap();
        }
        let (count, stats) = program.eval_retained::<CheckedNatSemiring>(&index, &mut state);
        assert!(stats.full_rebuild, "log gap must trigger a rebuild");
        assert_eq!(count, count_homomorphisms_bruteforce(&a, index.structure()));
    }
}
