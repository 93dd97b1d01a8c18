//! The traffic-facing [`Engine`]: a sharded LRU plan cache over prepared
//! queries, registered query handles, and the (parallel) batch evaluation
//! API.
//!
//! This is the "preprocess the query once, answer against many databases"
//! layer: [`Engine::prepare`] returns an [`Arc<PreparedQuery>`] — served
//! from the cache when an equivalent query was prepared before —
//! [`Engine::solve`] evaluates one instance through it, and
//! [`Engine::solve_batch`] / [`Engine::solve_batch_instances`] evaluate a
//! whole workload across a scoped thread pool
//! ([`EngineConfig::workers`]), preparing each distinct query exactly once.
//!
//! Dispatch: decision walks the engine's [`SolverRegistry`] of
//! [`crate::SolverChoice`] tiers keyed on the plan's (core) widths;
//! counting and weighted aggregates walk one [`CountRegistry`] of
//! [`crate::CountMethod`] tiers keyed on the original query's widths.
//! Answers run the free-adjoined tree DP within the treewidth threshold
//! and brute force beyond it.
//!
//! Cache correctness: entries are keyed by the isomorphism-invariant
//! [fingerprint](cq_logic::canonical::query_fingerprint) of the submitted
//! query and **confirmed** by a homomorphic-equivalence check
//! ([`PreparedQuery::answers_for`]) before reuse — homomorphic equivalence
//! is precisely the equivalence preserving `p-HOM` answers, so a fingerprint
//! collision degrades to a cache miss, never to a wrong answer.
//!
//! Concurrency architecture:
//!
//! * the plan cache and the instance-index cache are **sharded** N ways by
//!   hash ([`Engine::with_cache_shards`], default [`DEFAULT_CACHE_SHARDS`]),
//!   each shard an independently locked LRU, so concurrent lookups of
//!   different queries or databases do not contend on one mutex.  Every
//!   engine cache (these shards, the index cache's content-token aliases,
//!   a plan's kernel bundles and answer programs) is the same crate-private
//!   LRU type, and each cache's capacity bounds what it keeps alive;
//! * preparation is **single-flight** per fingerprint: concurrent misses on
//!   the same query serialize on a per-fingerprint latch, the loser re-reads
//!   the winner's cached plan, and each distinct fingerprint is prepared
//!   exactly once (the concurrency stress tests assert this through
//!   [`Engine::prep_stats`]);
//! * the batch APIs fan instances out over `std::thread::scope` workers and
//!   reassemble results **in input order** — reports are bit-identical to
//!   the sequential path for every worker count;
//! * the per-query exponential work performed by worker threads is
//!   aggregated into per-engine counters ([`PrepStats`]) — the thread-local
//!   counters of [`cq_decomp::stats`] / [`cq_structures`] only see the
//!   calling thread and would silently undercount under parallelism.

use crate::aggregates::{AggregateObjective, AggregateReport};
use crate::answers::{AnswerCountReport, AnswerMethod, AnswerPage};
use crate::counting::{CountOutcome, CountRegistry, CountReport};
use crate::engine::{EngineConfig, EngineReport};
use crate::lru::{Lru, Sharded};
use crate::persist::{PersistError, PlanStore, WarmStartSummary};
use crate::prepared::PreparedQuery;
use crate::registry::SolverRegistry;
use cq_decomp::WidthProfile;
use cq_logic::canonical::query_fingerprint;
use cq_structures::{
    answers_bruteforce, structure_hash, AppliedDelta, ConjunctiveQuery, DeltaBatch, Structure,
    StructureError, StructureIndex, TupleWeights,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};

/// Source of per-process unique engine identities (for [`QueryId`]
/// affinity checks).
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// Default number of cached plans across all shards
/// ([`Engine::with_cache_capacity`] overrides).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Default number of cache shards ([`Engine::with_cache_shards`] overrides).
/// Sharding trades exact global LRU order for an N-fold cut in lock
/// contention; per-shard LRU order is preserved.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Default total capacity of the instance-index cache
/// ([`Engine::with_index_cache_capacity`] overrides) — the number of
/// database [`StructureIndex`]es kept hot across decide/count traffic.
pub const DEFAULT_INDEX_CACHE_CAPACITY: usize = 64;

/// Handle to a query registered with an [`Engine`] (see
/// [`Engine::register`]); the batch API refers to queries through it.
///
/// Handles carry the identity of the engine that issued them: using a
/// handle with a different engine panics with a clear message instead of
/// silently resolving to that engine's unrelated plan at the same index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId {
    engine: u64,
    index: usize,
}

/// Counters describing the plan cache's behaviour so far, aggregated across
/// all shards.  Invariant (asserted by the concurrency stress tests):
/// `hits + misses == lookups`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cache consultations ([`Engine::prepare`] calls).
    pub lookups: u64,
    /// Lookups answered from the cache (including lookups that waited for a
    /// concurrent preparation of the same query to finish).
    pub hits: u64,
    /// Lookups that had to prepare a fresh plan.
    pub misses: u64,
    /// Plans evicted by the per-shard LRU policy.
    pub evictions: u64,
    /// Plans currently cached (summed over shards).
    pub entries: usize,
}

/// Aggregated counters of the per-query exponential work this engine has
/// performed, summed across **all** threads that ever prepared through it.
///
/// The underlying instrumentation ([`cq_decomp::stats`],
/// [`cq_structures::core_computation_count`]) is thread-local; the engine
/// measures each preparation's delta on the thread that ran it and folds it
/// in here, so the one-preparation-per-query invariants remain assertable
/// when the batch APIs fan out to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrepStats {
    /// Plans prepared (equals the number of cache misses that ran to
    /// completion).
    pub preparations: u64,
    /// Exact treewidth DPs run on behalf of this engine.
    pub treewidth_calls: u64,
    /// Exact pathwidth DPs run on behalf of this engine.
    pub pathwidth_calls: u64,
    /// Exact tree-depth DPs run on behalf of this engine.
    pub treedepth_calls: u64,
    /// Core computations run on behalf of this engine.
    pub core_computations: u64,
    /// Plans whose **counting certificates** (the structural analysis of
    /// the original, non-cored query — see
    /// [`PreparedQuery::counting_analysis`]) were materialized by this
    /// engine.  At most one per plan, and zero for plans whose original is
    /// its own core (the decision certificates are reused); the width DPs
    /// such a materialization runs are folded into the `*_calls` counters
    /// above, so `treewidth_calls == preparations + counting_preparations`
    /// holds when nothing else runs DPs on the engine's behalf.
    pub counting_preparations: u64,
    /// Plans adopted into the cache from a plan store
    /// ([`Engine::load_plans`]) after decoding **and** verification.  A
    /// warm-started workload shows `plans_loaded > 0` with `preparations`,
    /// width DPs and core computations all unchanged — the invariant the
    /// CI round-trip gate asserts.
    pub plans_loaded: u64,
    /// Plan-store records this engine refused: corrupt frames, payloads
    /// failing [`PreparedQuery::verify`], records prepared under an
    /// incompatible configuration, or duplicates of already-cached plans.
    /// Each rejected record degrades to a cold prepare on first traffic,
    /// never to a wrong answer.
    pub plans_rejected: u64,
    /// Plans written out by [`Engine::save_plans`].
    pub plans_saved: u64,
    /// Plans evicted by the LRU and persisted into the configured eviction
    /// store ([`Engine::with_eviction_store`]) instead of being lost.
    /// Zero when no eviction store is configured.
    pub plans_evicted_persisted: u64,
}

impl PrepStats {
    /// Total exact width DPs run (treewidth + pathwidth + tree depth).
    pub fn total_width_calls(&self) -> u64 {
        self.treewidth_calls + self.pathwidth_calls + self.treedepth_calls
    }
}

/// The engine-internal atomic accumulators behind [`PrepStats`].
#[derive(Default)]
struct PrepCounters {
    preparations: AtomicU64,
    treewidth_calls: AtomicU64,
    pathwidth_calls: AtomicU64,
    treedepth_calls: AtomicU64,
    core_computations: AtomicU64,
    counting_preparations: AtomicU64,
    plans_loaded: AtomicU64,
    plans_rejected: AtomicU64,
    plans_saved: AtomicU64,
    plans_evicted_persisted: AtomicU64,
}

impl PrepCounters {
    fn snapshot(&self) -> PrepStats {
        PrepStats {
            preparations: self.preparations.load(Ordering::Relaxed),
            treewidth_calls: self.treewidth_calls.load(Ordering::Relaxed),
            pathwidth_calls: self.pathwidth_calls.load(Ordering::Relaxed),
            treedepth_calls: self.treedepth_calls.load(Ordering::Relaxed),
            core_computations: self.core_computations.load(Ordering::Relaxed),
            counting_preparations: self.counting_preparations.load(Ordering::Relaxed),
            plans_loaded: self.plans_loaded.load(Ordering::Relaxed),
            plans_rejected: self.plans_rejected.load(Ordering::Relaxed),
            plans_saved: self.plans_saved.load(Ordering::Relaxed),
            plans_evicted_persisted: self.plans_evicted_persisted.load(Ordering::Relaxed),
        }
    }

    /// Fold a measured thread-local width-DP delta into the aggregated
    /// counters (the delta is exact: it was measured on the thread that ran
    /// the work, around that work alone).
    fn fold_decomp_delta(&self, delta: &cq_decomp::DecompCounts) {
        self.treewidth_calls
            .fetch_add(delta.treewidth_calls, Ordering::Relaxed);
        self.pathwidth_calls
            .fetch_add(delta.pathwidth_calls, Ordering::Relaxed);
        self.treedepth_calls
            .fetch_add(delta.treedepth_calls, Ordering::Relaxed);
    }
}

struct CacheSlot {
    plan: Arc<PreparedQuery>,
    /// Non-identical submitted forms (e.g. relabellings) already verified
    /// homomorphically equivalent to the plan's original — so repeat
    /// lookups of the same form cost a structural equality check instead of
    /// two exponential homomorphism searches per solve.
    verified_aliases: Vec<Structure>,
}

/// Cap on memoized relabelled forms per cached plan (a client cycling more
/// distinct orderings than this re-verifies the overflow ones).
const MAX_VERIFIED_ALIASES: usize = 16;

impl CacheSlot {
    fn matches(&mut self, candidate: &Structure) -> bool {
        if *candidate == *self.plan.original() || self.verified_aliases.contains(candidate) {
            return true;
        }
        if self.plan.answers_for(candidate) {
            if self.verified_aliases.len() < MAX_VERIFIED_ALIASES {
                self.verified_aliases.push(candidate.clone());
            }
            return true;
        }
        false
    }
}

/// The plan cache: plans sharded by fingerprint, each shard an [`Lru`],
/// plus process-shared counters and the per-fingerprint single-flight
/// latches.
struct PlanCache {
    slots: Sharded<CacheSlot>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Per-fingerprint preparation latches: concurrent misses on the same
    /// fingerprint serialize here so each distinct query is prepared exactly
    /// once.  Entries live only while a preparation is in flight.
    in_flight: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
}

impl PlanCache {
    fn new(shards: usize, capacity: usize) -> PlanCache {
        PlanCache {
            slots: Sharded::new(shards, capacity),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            in_flight: Mutex::new(HashMap::new()),
        }
    }

    fn find(&self, fingerprint: u64, candidate: &Structure) -> Option<Arc<PreparedQuery>> {
        let mut shard = self.slots.shard(fingerprint);
        let slot =
            shard.get(|slot| slot.plan.fingerprint() == fingerprint && slot.matches(candidate))?;
        Some(Arc::clone(&slot.plan))
    }

    /// Insert a plan, returning any plans its shard evicted (already
    /// counted in the `evictions` stat) so the engine can persist them
    /// before the last `Arc` goes.
    fn insert(&self, plan: Arc<PreparedQuery>) -> Vec<Arc<PreparedQuery>> {
        let slot = CacheSlot {
            plan,
            verified_aliases: Vec::new(),
        };
        let evicted = self.slots.shard(slot.plan.fingerprint()).push(slot);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        evicted.into_iter().map(|slot| slot.plan).collect()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.slots.len(),
        }
    }

    /// Reshard and resize, keeping the cached plans that still fit (see
    /// [`Sharded::resize`]); plans that no longer fit count as evictions.
    fn resize(&mut self, shards: usize, capacity: usize) {
        let evicted = self
            .slots
            .resize(shards, capacity, |slot| slot.plan.fingerprint());
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }
}

/// Counters of the instance-index cache (one [`StructureIndex`] per
/// distinct database seen by the solve/count paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Cache consultations (one per solve/count dispatch).
    pub lookups: u64,
    /// Lookups served an already-built index.
    pub hits: u64,
    /// Lookups that had to build a fresh index.
    pub misses: u64,
    /// Full-structure hash computations performed by lookups.  A lookup
    /// whose database carries a known [content
    /// token](cq_structures::Structure::content_token) skips the `O(|B|)`
    /// hash entirely, so repeat traffic against an unchanged database
    /// leaves this counter flat (one hash on first sight, zero after).
    pub hash_computes: u64,
    /// Indexes currently cached (summed over shards).
    pub entries: usize,
}

/// The outcome of one [`Engine::apply_delta`] call: the delta-maintained
/// index (shared with the engine's cache) and the effective mutation.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    index: Arc<StructureIndex>,
    applied: Arc<AppliedDelta>,
}

impl DeltaReport {
    /// The post-delta index, still cached by the engine (the same `Arc`
    /// every subsequent dispatch against [`Self::database`] is served).
    pub fn index(&self) -> &Arc<StructureIndex> {
        &self.index
    }

    /// The post-delta database.  Pass **this** structure to
    /// `solve`/`count_instance`/aggregate calls: its content token finds
    /// the maintained index in `O(1)` (no rehash, no rebuild).
    pub fn database(&self) -> &Structure {
        self.index.structure()
    }

    /// The effective mutation — deletions and insertions that actually
    /// changed the structure, with no-ops (absent deletes, present
    /// inserts) dropped.  [`cq_structures::TupleWeights::apply_delta`]
    /// consumes this to keep a weight table aligned.
    pub fn applied(&self) -> &Arc<AppliedDelta> {
        &self.applied
    }

    /// The index version after this delta (monotone per index identity).
    pub fn version(&self) -> u64 {
        self.index.version()
    }

    /// The domain epoch after this delta; a bump means compiled programs
    /// against the pre-delta index were retired and will recompile.
    pub fn domain_epoch(&self) -> u64 {
        self.index.domain_epoch()
    }
}

/// One cached index, filed under the [`structure_hash`] of its database.
/// The index shares its database (`Arc<Structure>` inside
/// [`StructureIndex`]); hash matches are confirmed by full structural
/// equality against [`StructureIndex::structure`], so a collision degrades
/// to a rebuild, never a wrong index — and the cache holds no second copy
/// of the database.
struct CachedIndex {
    hash: u64,
    index: Arc<StructureIndex>,
}

impl CachedIndex {
    fn holds(&self, hash: u64, database: &Structure) -> bool {
        self.hash == hash && self.index.structure() == database
    }

    fn is(&self, alias: &Weak<StructureIndex>) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.index), alias.as_ptr())
    }
}

/// One entry of the content-token alias table: the `O(1)` fast path in
/// front of the hash-keyed shards.  A [content
/// token](cq_structures::Structure::content_token) is process-unique per
/// content *state* — a token match implies content equality, so an alias
/// hit serves the index without hashing the database.  The entry
/// remembers the shard hash its index is filed under (so the in-place
/// delta path can take the slot out without rehashing either) and holds
/// the index only weakly: an alias serves an index only while it is still
/// in its shard, so the aliases never keep an evicted index alive.
struct TokenAlias {
    token: u64,
    hash: u64,
    index: Weak<StructureIndex>,
}

/// Where [`IndexCache::apply_delta`] finds the pre-delta content: a
/// borrowed database, or the previous round's index handed back by
/// [`Engine::apply_delta_chained`].
enum DeltaSource<'a> {
    Database(&'a Structure),
    Chained(Arc<StructureIndex>),
}

/// The sharded **instance-index cache**: one [`StructureIndex`] per
/// distinct database, shared (`Arc`) by every solver dispatch — decision
/// and counting, across the batch fan-out's worker threads.  Keyed by
/// [`structure_hash`] and confirmed by structural equality; the total
/// capacity bounds the indexes the cache keeps alive.
struct IndexCache {
    slots: Sharded<CachedIndex>,
    /// Token → index aliases, capped at the shards' total capacity; an
    /// alias whose index left its shard matches nothing and ages out.  An
    /// alias can never serve stale content: it is recorded only when its
    /// index content-equals the token's structure, and an index is mutated
    /// only once the delta path owns its last strong `Arc` — the mutation
    /// moves it out of its allocation, so `Weak`s to the old state no
    /// longer match any slot.
    aliases: Mutex<Lru<TokenAlias>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    hash_computes: AtomicU64,
}

impl IndexCache {
    fn new(shards: usize, capacity: usize) -> IndexCache {
        IndexCache {
            slots: Sharded::new(shards, capacity),
            aliases: Mutex::new(Lru::new(capacity)),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            hash_computes: AtomicU64::new(0),
        }
    }

    fn aliases(&self) -> MutexGuard<'_, Lru<TokenAlias>> {
        self.aliases.lock().expect("index alias lock")
    }

    /// Record (or refresh) the alias of a cached index.
    fn alias(&self, token: u64, hash: u64, index: &Arc<StructureIndex>) {
        let mut aliases = self.aliases();
        aliases.take(|alias| alias.token == token);
        aliases.push(TokenAlias {
            token,
            hash,
            index: Arc::downgrade(index),
        });
    }

    /// [`structure_hash`] with its metering — every `O(|B|)` hash the cache
    /// ever computes goes through here.
    fn hashed(&self, database: &Structure) -> u64 {
        self.hash_computes.fetch_add(1, Ordering::Relaxed);
        structure_hash(database)
    }

    /// The cached index for `database`, building (and caching) it on first
    /// sight.  Racing builders of the same database may both build — the
    /// build is linear in `|B|` and idempotent, so no single-flight latch
    /// is warranted; the second insert finds the first and reuses it.
    ///
    /// Repeat lookups are `O(1)`: the first sight of a content state pays
    /// one [`structure_hash`] and records a token alias; every later lookup
    /// presenting the same token is served through the alias without
    /// rehashing the database (metered by [`IndexStats::hash_computes`]),
    /// and refreshes the index's recency in its shard like any other hit.
    fn get(&self, database: &Structure) -> Arc<StructureIndex> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if self.slots.capacity() == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(StructureIndex::new(database));
        }
        let token = database.content_token();
        let alias = self
            .aliases()
            .get(|alias| alias.token == token)
            .map(|alias| (alias.hash, alias.index.clone()));
        if let Some((hash, alias)) = &alias {
            if let Some(cached) = self.slots.shard(*hash).get(|cached| cached.is(alias)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&cached.index);
            }
        }
        // No alias, or its index left the shard: find the content by hash.
        let hash = alias.map_or_else(|| self.hashed(database), |(hash, _)| hash);
        let found = self
            .slots
            .shard(hash)
            .get(|cached| cached.holds(hash, database))
            .map(|cached| Arc::clone(&cached.index));
        let index = match found {
            Some(index) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                index
            }
            None => {
                // Build outside the lock so concurrent misses on *different*
                // databases of the same shard do not serialize on the build.
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.file(
                    hash,
                    Arc::new(StructureIndex::new(database)),
                    Some(database),
                )
            }
        };
        self.alias(token, hash, &index);
        index
    }

    /// File `index` into its shard under `hash` as the most recently used,
    /// evicting the least recently used beyond capacity.  When
    /// `racing_against` is given and an equal index was inserted
    /// concurrently, the existing one wins and is returned (ours is
    /// dropped).
    fn file(
        &self,
        hash: u64,
        index: Arc<StructureIndex>,
        racing_against: Option<&Structure>,
    ) -> Arc<StructureIndex> {
        let mut shard = self.slots.shard(hash);
        if let Some(database) = racing_against {
            if let Some(cached) = shard.get(|cached| cached.holds(hash, database)) {
                return Arc::clone(&cached.index);
            }
        }
        shard.push(CachedIndex {
            hash,
            index: Arc::clone(&index),
        });
        index
    }

    /// Apply a [`DeltaBatch`] to the cached index of the source's content
    /// **in place** — no index rebuild, no structure copy on the usual path.
    ///
    /// The pre-delta index is taken *out* of the alias table and its shard
    /// (so the mutation typically owns the only `Arc` and
    /// [`Arc::try_unwrap`] succeeds without cloning), mutated through
    /// [`StructureIndex::apply_delta`], and re-filed under its original
    /// shard hash with a fresh token alias.  The stale shard hash is sound:
    /// hash lookups confirm by structural equality, so it can only cost a
    /// miss — while all delta-path traffic finds the index through the
    /// token of its post-delta structure in `O(1)`.
    ///
    /// A [`DeltaSource::Chained`] source is dropped *before* the mutation,
    /// which is what makes steady-state churn truly `O(delta)`: with the
    /// shard reference taken out and the caller's `Arc` consumed,
    /// [`Arc::try_unwrap`] owns the index outright and
    /// [`StructureIndex::apply_delta`]'s `Arc::make_mut` mutates the
    /// structure in place — no index clone, no structure copy.  The
    /// `&Structure` form can't do this (the borrow pins a live `Arc`
    /// somewhere), so a round loop over it pays one copy-on-write structure
    /// clone per round.
    ///
    /// A database never seen before is indexed first (that build is the one
    /// exception to "no rebuild" — there is nothing to maintain yet); a
    /// chained source never builds, since even on a full cache miss the
    /// caller's own index is the thing to mutate.  A batch failing
    /// whole-batch validation mutates nothing, and the untouched index goes
    /// back under its old token: the cache is left exactly as it was.
    fn apply_delta(
        &self,
        source: DeltaSource<'_>,
        batch: &DeltaBatch,
    ) -> Result<(Arc<StructureIndex>, Arc<AppliedDelta>), StructureError> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let database = match &source {
            DeltaSource::Database(database) => *database,
            DeltaSource::Chained(index) => index.structure(),
        };
        let token = database.content_token();
        // With caching disabled a throwaway index is mutated, so the answer
        // semantics match the cached path.  Otherwise the index is found
        // through its token alias, else (alias evicted, or a report from
        // another engine) its content hash.
        let (hash, cached) = if self.slots.capacity() == 0 {
            (None, None)
        } else {
            let alias = self.aliases().take(|alias| alias.token == token);
            let hash = alias
                .as_ref()
                .map_or_else(|| self.hashed(database), |alias| alias.hash);
            let taken = self.slots.shard(hash).take(|cached| match &alias {
                Some(alias) => cached.is(&alias.index),
                None => cached.holds(hash, database),
            });
            (Some(hash), taken.map(|cached| cached.index))
        };
        let index = match (cached, source) {
            // A cached index holds exactly the content `token` names, so it
            // and a chained source are interchangeable (normally the same
            // allocation): the source's `Arc` drops with this match, so the
            // mutation owns the last one.
            (Some(index), _) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                index
            }
            (None, DeltaSource::Chained(caller)) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                caller
            }
            (None, DeltaSource::Database(database)) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(StructureIndex::new(database))
            }
        };
        // Concurrent holders of the old Arc (in-flight evaluations, an
        // earlier DeltaReport) keep their pre-delta snapshot; the clone
        // shares the index identity, so warm programs stay keyed right.
        let mut owned = Arc::try_unwrap(index).unwrap_or_else(|shared| (*shared).clone());
        let result = owned.apply_delta(batch);
        let mut index = Arc::new(owned);
        if let Some(hash) = hash {
            index = self.file(hash, index, None);
            let token = match result {
                Ok(_) => index.structure().content_token(),
                Err(_) => token,
            };
            self.alias(token, hash, &index);
        }
        result.map(|applied| (index, applied))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            hash_computes: self.hash_computes.load(Ordering::Relaxed),
            entries: self.slots.len(),
        }
    }
}

/// Drop guard removing a fingerprint's single-flight latch entry, so the
/// entry is cleaned up on every exit path — normal returns and panic
/// unwinds alike.
struct LatchCleanup<'a> {
    in_flight: &'a Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    fingerprint: u64,
}

impl Drop for LatchCleanup<'_> {
    fn drop(&mut self) {
        self.in_flight
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .remove(&self.fingerprint);
    }
}

/// The prepared-query evaluation engine: tier registries + sharded plan
/// cache + parallel batch API.  Cheap to share across threads (`&Engine` is
/// `Send + Sync`; all interior state is sharded-mutex-guarded or atomic).
pub struct Engine {
    id: u64,
    config: EngineConfig,
    registry: SolverRegistry,
    count_registry: CountRegistry,
    cache: PlanCache,
    indexes: IndexCache,
    registered: Mutex<Vec<Arc<PreparedQuery>>>,
    prep: PrepCounters,
    eviction: Option<EvictionSink>,
}

/// Background save-on-eviction (see [`Engine::with_eviction_store`]): the
/// engine forwards every plan the LRU evicts here; the sink upserts it into
/// an in-memory [`PlanStore`] image (seeded from the file already at the
/// configured path, when plan-compatible) and wakes a background writer
/// thread that persists the image atomically.  Eviction callers pay one
/// mutex + an encode; the file I/O happens off the serving path.
struct EvictionSink {
    store: Arc<Mutex<PlanStore>>,
    /// Held across each (snapshot, write) pair — by the writer thread and
    /// by [`Engine::save_plans`] — so files are written in snapshot order:
    /// the image only grows, so no write can replace a fuller one.
    flush: Arc<Mutex<()>>,
    /// Wake signals for the writer thread; dropping the sender (engine
    /// drop) flushes all pending work and stops the thread.
    wake: Mutex<Option<std::sync::mpsc::Sender<()>>>,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// An engine with the standard tier registries (decision and
    /// counting) and default cache capacity.
    pub fn new(config: EngineConfig) -> Engine {
        Engine::with_registry(config, SolverRegistry::standard())
    }

    /// An engine with an explicit decision registry (ablations,
    /// experiments); the counting registry stays the standard one and can
    /// be overridden with [`Engine::with_count_registry`].
    pub fn with_registry(config: EngineConfig, registry: SolverRegistry) -> Engine {
        Engine {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            config,
            registry,
            count_registry: CountRegistry::standard(),
            cache: PlanCache::new(DEFAULT_CACHE_SHARDS, DEFAULT_PLAN_CACHE_CAPACITY),
            indexes: IndexCache::new(DEFAULT_CACHE_SHARDS, DEFAULT_INDEX_CACHE_CAPACITY),
            registered: Mutex::new(Vec::new()),
            prep: PrepCounters::default(),
            eviction: None,
        }
    }

    /// Override the counting registry (counting and weighted-aggregate
    /// ablations — the E15 analogue of the E12 registry edits).
    pub fn with_count_registry(mut self, count_registry: CountRegistry) -> Engine {
        self.count_registry = count_registry;
        self
    }

    /// Override the plan cache's **total** capacity across shards (0
    /// disables caching).  Shrinking below the current population evicts
    /// least-recently-used plans immediately, so the new capacity holds from
    /// this call on.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Engine {
        let shards = self.cache.slots.requested();
        self.cache.resize(shards, capacity);
        self
    }

    /// Override the instance-index cache's **total** capacity across its
    /// shards (0 disables caching: every dispatch rebuilds the database
    /// index from scratch — the cold baseline of bench E16).  Cached
    /// indexes are discarded; the shard spread requested earlier is kept.
    pub fn with_index_cache_capacity(mut self, capacity: usize) -> Engine {
        self.indexes = IndexCache::new(self.indexes.slots.requested(), capacity);
        self
    }

    /// Override the number of cache shards (minimum 1) for **both** the
    /// plan cache and the instance-index cache.  More shards cut lock
    /// contention under concurrent traffic at the price of partitioning
    /// the LRU: eviction order is exact per shard, approximate globally.
    /// Existing plans are rehashed into the new shards; cached database
    /// indexes are discarded (construction-time builder, rebuilt on first
    /// sight).
    ///
    /// The instantiated count is clamped to the total capacity so no shard
    /// ends up with zero slots (see [`Engine::cache_shards`] for the
    /// effective value); the request is remembered and takes full effect if
    /// the capacity is later raised.
    pub fn with_cache_shards(mut self, shards: usize) -> Engine {
        let capacity = self.cache.slots.capacity();
        self.cache.resize(shards, capacity);
        self.indexes = IndexCache::new(shards, self.indexes.slots.capacity());
        self
    }

    /// The configuration this engine prepares and solves under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The tier registry used for decision dispatch.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The counting registry used for [`Engine::count_instance`] and
    /// [`Engine::evaluate_min_cost`] / [`Engine::evaluate_max_weight`]
    /// dispatch.
    pub fn count_registry(&self) -> &CountRegistry {
        &self.count_registry
    }

    /// The number of cache shards currently configured.
    pub fn cache_shards(&self) -> usize {
        self.cache.slots.count()
    }

    /// The worker count the batch APIs will fan out to:
    /// [`EngineConfig::workers`], with `0` resolved to the machine's
    /// available parallelism.
    pub fn effective_workers(&self) -> usize {
        match self.config.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }

    /// Prepare a query — or fetch the cached plan of an equivalent query
    /// prepared earlier.  This is the only place per-query exponential work
    /// (core, width DPs, decompositions) happens.
    ///
    /// Concurrent calls for the same (or an equivalent) query are
    /// single-flighted: one caller prepares, the others wait on a
    /// per-fingerprint latch and are then served the cached plan, so each
    /// distinct fingerprint is prepared exactly once no matter how many
    /// threads race on it.
    pub fn prepare(&self, query: &Structure) -> Arc<PreparedQuery> {
        let fingerprint = query_fingerprint(query);
        self.cache.lookups.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = self.cache.find(fingerprint, query) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            return plan;
        }
        if self.cache.slots.capacity() == 0 {
            // Caching disabled: no plan to share, so no latch either —
            // every call pays preparation.
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            return self.prepare_counted(query, fingerprint);
        }
        // Single-flight: serialize concurrent preparers of this fingerprint.
        let (latch, we_inserted) = {
            let mut in_flight = self.cache.in_flight.lock().expect("in-flight lock");
            match in_flight.entry(fingerprint) {
                Entry::Occupied(e) => (Arc::clone(e.get()), false),
                Entry::Vacant(v) => {
                    let latch = Arc::new(Mutex::new(()));
                    v.insert(Arc::clone(&latch));
                    (latch, true)
                }
            }
        };
        // If we inserted the latch entry we must also remove it on *every*
        // exit — including a panic inside preparation (e.g. a query beyond
        // the exact-DP size limit), otherwise the stale entry would wedge
        // all future prepares of this fingerprint on a poisoned latch.
        let _cleanup = we_inserted.then(|| LatchCleanup {
            in_flight: &self.cache.in_flight,
            fingerprint,
        });
        // A poisoned latch just means a previous preparer panicked; the
        // exclusion it provides is still sound, so take it and move on.
        let _held = latch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // Re-check: if we waited on another thread's preparation, its plan
        // is in the cache now and this lookup counts as a hit.
        if let Some(plan) = self.cache.find(fingerprint, query) {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            plan
        } else {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            // Prepare while holding only the latch: preparation is the
            // expensive part, and preparers of *different* queries must not
            // serialize (they hold different latches and touch shards only
            // for the final insert).
            let plan = self.prepare_counted(query, fingerprint);
            let evicted = self.cache.insert(Arc::clone(&plan));
            self.persist_evicted(evicted);
            plan
        }
    }

    /// Run the actual preparation, folding the thread-local work counters'
    /// delta into this engine's aggregated [`PrepStats`].  The delta is
    /// measured on the executing thread around this call alone, so it is
    /// exact regardless of which worker runs it.
    fn prepare_counted(&self, query: &Structure, fingerprint: u64) -> Arc<PreparedQuery> {
        let decomp_before = cq_decomp::stats::counts();
        let cores_before = cq_structures::core_computation_count();
        let plan = Arc::new(PreparedQuery::prepare_with_fingerprint(
            query,
            &self.config,
            fingerprint,
        ));
        let delta = cq_decomp::stats::counts().since(&decomp_before);
        let cores = cq_structures::core_computation_count() - cores_before;
        self.prep.preparations.fetch_add(1, Ordering::Relaxed);
        self.prep.fold_decomp_delta(&delta);
        self.prep
            .core_computations
            .fetch_add(cores, Ordering::Relaxed);
        plan
    }

    /// Materialize a plan's counting certificates (the structural analysis
    /// of the original, non-cored query) if they are not there yet, folding
    /// the width-DP delta of the one-time computation into this engine's
    /// aggregated [`PrepStats`].  Idempotent and single-flighted by the
    /// plan's interior `OnceLock`; repeat calls (and plans whose original
    /// is its own core) cost a structure comparison and run no DP at all.
    fn ensure_counting_certificates(&self, plan: &PreparedQuery) -> WidthProfile {
        let decomp_before = cq_decomp::stats::counts();
        let (analysis, computed) = plan.counting_analysis_tracked();
        if computed {
            let delta = cq_decomp::stats::counts().since(&decomp_before);
            self.prep
                .counting_preparations
                .fetch_add(1, Ordering::Relaxed);
            self.prep.fold_decomp_delta(&delta);
        }
        analysis.widths
    }

    /// Register a query for batch evaluation, returning its handle.  Goes
    /// through the plan cache, so registering the same (or an equivalent)
    /// query twice prepares it once.
    pub fn register(&self, query: &Structure) -> QueryId {
        let plan = self.prepare(query);
        let mut registered = self.registered.lock().expect("registry lock");
        registered.push(plan);
        QueryId {
            engine: self.id,
            index: registered.len() - 1,
        }
    }

    /// The prepared plan behind a registered handle.
    ///
    /// Panics when the handle was issued by a different engine.
    pub fn prepared(&self, id: QueryId) -> Arc<PreparedQuery> {
        assert_eq!(
            id.engine, self.id,
            "QueryId was issued by a different Engine (handles are not transferable)"
        );
        Arc::clone(&self.registered.lock().expect("registry lock")[id.index])
    }

    /// Evaluate one instance end to end (prepare through the cache, then
    /// solve).
    pub fn solve(&self, query: &Structure, database: &Structure) -> EngineReport {
        let plan = self.prepare(query);
        self.solve_prepared(&plan, database)
    }

    /// The cached [`StructureIndex`] of a database — built on first sight,
    /// shared by every later decision/counting dispatch against the same
    /// database (including across the batch fan-out's worker threads).
    pub fn instance_index(&self, database: &Structure) -> Arc<StructureIndex> {
        self.indexes.get(database)
    }

    /// Apply a batch of tuple inserts/deletes to `database`'s cached index
    /// **in place**: the index is delta-maintained (no rebuild), its
    /// version advances, and warm compiled programs plus the retained DP
    /// join tables of [`PreparedQuery::decide_via_tree`] /
    /// [`PreparedQuery::count_via_tree`] survive whenever the delta keeps
    /// every position domain's support (a domain-growing delta bumps the
    /// [domain epoch](StructureIndex::domain_epoch) and transparently
    /// recompiles instead).
    ///
    /// Query the post-delta state through [`DeltaReport::database`] — its
    /// content token routes every subsequent `solve`/`count`/aggregate
    /// dispatch to the maintained index in `O(1)`, without rehashing.  The
    /// batch is validated whole-batch-or-nothing; on error the cache is
    /// left exactly as it was.  A database the engine has never indexed is
    /// indexed first, then mutated.
    pub fn apply_delta(
        &self,
        database: &Structure,
        batch: &DeltaBatch,
    ) -> Result<DeltaReport, StructureError> {
        let (index, applied) = self
            .indexes
            .apply_delta(DeltaSource::Database(database), batch)?;
        Ok(DeltaReport { index, applied })
    }

    /// Apply the next [`DeltaBatch`] of an update stream, consuming the
    /// previous round's [`DeltaReport`].
    ///
    /// This is the steady-state form of [`Engine::apply_delta`]: handing
    /// the report back lets the engine drop every reference to the
    /// pre-delta index *before* mutating, so the round is `O(delta)` with
    /// **no structure copy at all** — the `&Structure` form necessarily
    /// keeps a borrow alive and pays one copy-on-write clone of the
    /// structure per round.  Clone the report first if you need to keep
    /// the pre-delta snapshot (the clone's extra `Arc` re-introduces that
    /// one copy).
    ///
    /// On a validation error the batch is rejected whole and the pre-delta
    /// index stays cached; re-obtain it through a kept clone of the report
    /// or any content-equal database.
    pub fn apply_delta_chained(
        &self,
        report: DeltaReport,
        batch: &DeltaBatch,
    ) -> Result<DeltaReport, StructureError> {
        let DeltaReport { index, applied: _ } = report;
        let (index, applied) = self
            .indexes
            .apply_delta(DeltaSource::Chained(index), batch)?;
        Ok(DeltaReport { index, applied })
    }

    /// Evaluate a prepared query against one database: select the first
    /// admitting tier in registry priority order and run it on the plan's
    /// certificates through the database's cached index.  No per-query
    /// exponential work happens here.
    pub fn solve_prepared(&self, plan: &PreparedQuery, database: &Structure) -> EngineReport {
        let choice = self
            .registry
            .select(plan, &self.config)
            .expect("solver registry has no tier admitting this query (ablated registries must keep a fallback)");
        let index = self.indexes.get(database);
        let outcome = choice.solve(plan, database, &index);
        EngineReport {
            exists: outcome.exists,
            choice,
            degree_hint: plan.degree_hint(),
            widths: plan.widths(),
            evaluated_query_size: plan.evaluated_size(),
        }
    }

    /// Count the homomorphisms of one instance end to end: prepare the
    /// query through the **shared** plan cache (decision and counting
    /// traffic on the same fingerprint reuse one plan), then count through
    /// the counting registry on the original-structure certificates.
    ///
    /// Counting is invariant under isomorphism but **not** under the
    /// homomorphic equivalence the decision cache trades in, so when the
    /// cache serves a plan whose original differs syntactically from
    /// `query`, the plan is used only if [`PreparedQuery::counts_for`]
    /// confirms the two are isomorphic (relabellings hit this path); a
    /// hom-equivalent-but-not-isomorphic alias — possible only through a
    /// fingerprint collision — falls back to an uncached exact count
    /// instead of a silently wrong one.
    pub fn count_instance(&self, query: &Structure, database: &Structure) -> CountReport {
        self.count_prepared(&self.counting_plan(query), database)
    }

    /// A cached plan that **counts** for `query` (see
    /// [`Engine::count_instance`]) — the reuse guard for counts and
    /// aggregates.
    fn counting_plan(&self, query: &Structure) -> Arc<PreparedQuery> {
        let plan = self.prepare(query);
        if plan.counts_for(query) {
            plan
        } else {
            // Fingerprint collision between hom-equivalent non-isomorphic
            // structures: prepare a throwaway plan for the submitted form
            // (uncached — inserting it would fight the colliding slot).
            self.prepare_counted(query, query_fingerprint(query))
        }
    }

    /// Count a prepared query's homomorphisms into one database: ensure the
    /// original-structure counting certificates exist (lazy, once per
    /// plan), select the first admitting counting tier in registry
    /// priority order, and run it.  On a plan whose counting certificates
    /// are already materialized, no per-query exponential work happens
    /// here.
    pub fn count_prepared(&self, plan: &PreparedQuery, database: &Structure) -> CountReport {
        let widths = self.ensure_counting_certificates(plan);
        let method = self.count_method(plan);
        let index = self.indexes.get(database);
        let evaluation = method.count(plan, database, &index);
        CountReport {
            count: evaluation.outcome,
            method,
            degree_hint: self.config.degree_hint(widths),
            widths,
            counted_query_size: plan.original().universe_size(),
        }
    }

    /// The first counting tier admitting the plan (counting certificates
    /// already materialized).
    fn count_method(&self, plan: &PreparedQuery) -> crate::CountMethod {
        self.count_registry
            .select(plan, &self.config)
            .expect("counting registry has no tier admitting this query (ablated registries must keep a fallback)")
    }

    /// Count a batch of (query, database) instances across the configured
    /// worker threads — the counting analogue of
    /// [`Engine::solve_batch_instances`]: every distinct query is prepared
    /// once through the shared plan cache (single-flighted under races) and
    /// its counting certificates are materialized once; every instance is
    /// counted against the cached plan.  Results are in input order and
    /// bit-identical to the sequential path for every worker count.
    pub fn count_batch(&self, batch: &[(&Structure, &Structure)]) -> Vec<CountReport> {
        self.run_batch(batch, |engine, &(query, database)| {
            engine.count_instance(query, database)
        })
    }

    /// A cached plan whose original is **structurally identical** to the
    /// submitted canonical structure — the reuse guard for answers.
    ///
    /// Answers need an even stricter guard than counting's
    /// [`PreparedQuery::counts_for`]: free-variable positions are element
    /// indices *of the submitted canonical structure*, and they do not
    /// transport along an isomorphism to a differently-labelled cached
    /// original (the projection would land on the wrong columns).  A cache
    /// hit whose original differs in any way therefore falls back to an
    /// uncached throwaway plan for the exact submitted form.
    fn answer_plan(&self, canonical: &Structure) -> Arc<PreparedQuery> {
        let plan = self.prepare(canonical);
        if *plan.original() == *canonical {
            plan
        } else {
            self.prepare_counted(canonical, query_fingerprint(canonical))
        }
    }

    /// Count the **distinct answers** of a free-variable query against one
    /// database: the number of assignments to
    /// [`ConjunctiveQuery::free_variables`] extendable to a full
    /// homomorphism of the query's canonical structure.
    ///
    /// With zero free variables this degenerates to the boolean question
    /// (`1` if satisfiable, else `0`); with every variable free it is the
    /// number of distinct homomorphisms.  Like homomorphism *counting*
    /// (Theorem 6.1), answers are **not** invariant under taking cores, so
    /// the evaluation runs on the original structure with the counting
    /// certificates; unlike counting, the licensed DP pays a width price of
    /// at most the number of free variables (see
    /// [`cq_solver::kernel::AnswerProgram`]).  The engine dispatches on the
    /// original query's treewidth against
    /// [`EngineConfig::treewidth_threshold`]: within the threshold, the
    /// grouped root-bag DP; beyond it, brute-force enumeration with
    /// projection.
    ///
    /// # Panics
    /// When the query is malformed (atoms inconsistent with its declared
    /// variables) — validate at the boundary, as `cq-service` does.
    pub fn count_answers(
        &self,
        query: &ConjunctiveQuery,
        database: &Structure,
    ) -> AnswerCountReport {
        let canonical = query
            .canonical_structure()
            .expect("query atoms must be consistent with its declared variables");
        let free = query.free_element_indices();
        let plan = self.answer_plan(&canonical);
        let widths = self.ensure_counting_certificates(&plan);
        let (answers, method, answer_width) = if widths.treewidth <= self.config.treewidth_threshold
        {
            let index = self.indexes.get(database);
            let program = plan.answer_program(&index, &free);
            (
                program.count_answers(&index),
                AnswerMethod::TreeDecompositionDp,
                program.answer_width(),
            )
        } else {
            let rows = answers_bruteforce(&canonical, database, &free);
            (
                rows.len() as u64,
                AnswerMethod::BruteForce,
                widths.treewidth + free.len(),
            )
        };
        AnswerCountReport {
            answers,
            method,
            degree_hint: self.config.degree_hint(widths),
            widths,
            answer_width,
            free_count: free.len(),
        }
    }

    /// One page of the query's answers: skip `offset` rows of the full
    /// enumeration, return up to `limit` rows, and report whether anything
    /// follows.  Rows are tuples of database elements aligned with
    /// [`ConjunctiveQuery::free_variables`] order, in ascending
    /// lexicographic row order — a total order independent of worker count
    /// and engine state, so consecutive pages tile the full answer set
    /// exactly.
    ///
    /// On the licensed path the page is produced by the bounded-delay
    /// cursor of [`cq_solver::kernel::AnswerProgram`]: no answer beyond
    /// `offset + limit + 1` is ever materialized, and the cost of a page is
    /// proportional to its position and size — not to the total number of
    /// answers.  (`has_more` costs one extra cursor step, which is why the
    /// `+ 1`.)  Beyond the treewidth threshold the engine falls back to
    /// materializing the brute-force projection and slicing it.
    ///
    /// # Panics
    /// When the query is malformed, as for [`Engine::count_answers`].
    pub fn answers(
        &self,
        query: &ConjunctiveQuery,
        database: &Structure,
        offset: u64,
        limit: usize,
    ) -> AnswerPage {
        let canonical = query
            .canonical_structure()
            .expect("query atoms must be consistent with its declared variables");
        let free = query.free_element_indices();
        let plan = self.answer_plan(&canonical);
        let widths = self.ensure_counting_certificates(&plan);
        if widths.treewidth <= self.config.treewidth_threshold {
            let index = self.indexes.get(database);
            let program = plan.answer_program(&index, &free);
            let mut cursor = program.cursor(&index);
            // A page starting past the end is empty, with nothing following.
            let in_range = (0..offset).all(|_| cursor.next().is_some());
            let rows: Vec<Vec<u32>> = if in_range {
                cursor.by_ref().take(limit).collect()
            } else {
                Vec::new()
            };
            let has_more = in_range && rows.len() == limit && cursor.next().is_some();
            AnswerPage {
                rows,
                offset,
                has_more,
                method: AnswerMethod::TreeDecompositionDp,
            }
        } else {
            let all = answers_bruteforce(&canonical, database, &free);
            let start = offset.min(all.len() as u64) as usize;
            let end = start.saturating_add(limit).min(all.len());
            AnswerPage {
                rows: all[start..end]
                    .iter()
                    .map(|row| row.iter().map(|&e| e as u32).collect())
                    .collect(),
                offset,
                has_more: end < all.len(),
                method: AnswerMethod::BruteForce,
            }
        }
    }

    /// Count answers for a batch of (query, database) instances across the
    /// configured worker threads — the answers analogue of
    /// [`Engine::count_batch`]: plans and compiled answer programs are
    /// shared through the caches, results are in input order and
    /// bit-identical to the sequential path for every worker count.
    pub fn count_answers_batch(
        &self,
        batch: &[(&ConjunctiveQuery, &Structure)],
    ) -> Vec<AnswerCountReport> {
        self.run_batch(batch, |engine, &(query, database)| {
            engine.count_answers(query, database)
        })
    }

    /// Evaluate a batch of paged answer requests
    /// `(query, database, offset, limit)` across the configured worker
    /// threads, in input order and bit-identical to the sequential path for
    /// every worker count.
    pub fn answers_batch(
        &self,
        batch: &[(&ConjunctiveQuery, &Structure, u64, usize)],
    ) -> Vec<AnswerPage> {
        self.run_batch(batch, |engine, &(query, database, offset, limit)| {
            engine.answers(query, database, offset, limit)
        })
    }

    /// Count homomorphisms from the star expansion `A*` into `b` through
    /// the Lemma 6.2 pl-Turing reduction, with **this engine** as the
    /// oracle: every one of the `2^{|A|} − 1` inclusion–exclusion oracle
    /// calls has left-hand side exactly `a`, so the plan (and its counting
    /// certificates) is prepared once and every subsequent call is a cache
    /// hit — the reduction runs over cached plans.
    ///
    /// `b` must be a coloured target interpreting `a`'s vocabulary plus the
    /// colour relations `C_0 … C_{|A|−1}` (see
    /// [`cq_structures::ops::colored_target`]); panics otherwise, like the
    /// underlying [`cq_reductions::count_star_via_oracle`].
    ///
    /// Inclusion–exclusion **subtracts** oracle answers, so one overflowed
    /// term makes the whole reduction unsalvageable: any oracle call
    /// reporting [`CountOutcome::Overflow`] yields
    /// [`CountOutcome::Overflow`] here — never the silently wrong
    /// difference the old saturating arithmetic produced.
    pub fn count_star(&self, a: &Structure, b: &Structure) -> CountOutcome {
        match cq_reductions::count_star_via_oracle(a, b, &mut |query, database| {
            self.count_instance(query, database).count.exact()
        }) {
            Some(n) => CountOutcome::Exact(n),
            None => CountOutcome::Overflow,
        }
    }

    /// Minimum total tuple weight over all homomorphisms from `query` into
    /// `database` — the tropical `(min, +)` instantiation of the same
    /// kernel DPs that decide and count.  `None` when no homomorphism
    /// exists.  Plans are shared with decision/counting traffic through
    /// the same cache (aggregates reuse the compiled counting programs;
    /// only the weights differ per call).
    ///
    /// # Panics
    /// When `weights` is not aligned with `database`'s relations
    /// (`weights.matches(database)` must hold — a weight table is only
    /// meaningful next to the structure it was built for).
    pub fn evaluate_min_cost(
        &self,
        query: &Structure,
        database: &Structure,
        weights: &TupleWeights,
    ) -> AggregateReport {
        self.aggregate_instance(query, database, weights, AggregateObjective::MinCost)
    }

    /// Maximum total tuple weight over all homomorphisms — the `(max, +)`
    /// twin of [`Engine::evaluate_min_cost`], with the same plan sharing
    /// and the same panics.
    pub fn evaluate_max_weight(
        &self,
        query: &Structure,
        database: &Structure,
        weights: &TupleWeights,
    ) -> AggregateReport {
        self.aggregate_instance(query, database, weights, AggregateObjective::MaxWeight)
    }

    /// Evaluate a batch of (query, database, weights) min-cost instances
    /// across the configured worker threads, in input order and
    /// bit-identical to the sequential path for every worker count.
    pub fn min_cost_batch(
        &self,
        batch: &[(&Structure, &Structure, &TupleWeights)],
    ) -> Vec<AggregateReport> {
        self.run_batch(batch, |engine, &(query, database, weights)| {
            engine.evaluate_min_cost(query, database, weights)
        })
    }

    /// The max-weight twin of [`Engine::min_cost_batch`].
    pub fn max_weight_batch(
        &self,
        batch: &[(&Structure, &Structure, &TupleWeights)],
    ) -> Vec<AggregateReport> {
        self.run_batch(batch, |engine, &(query, database, weights)| {
            engine.evaluate_max_weight(query, database, weights)
        })
    }

    /// Shared implementation of the aggregate entry points: prepare through
    /// the cache with the same isomorphism guard as
    /// [`Engine::count_instance`] (aggregates are not core-invariant), then
    /// dispatch through the counting registry.
    fn aggregate_instance(
        &self,
        query: &Structure,
        database: &Structure,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> AggregateReport {
        assert!(
            weights.matches(database),
            "weight table does not align with the database's relations"
        );
        self.aggregate_prepared(&self.counting_plan(query), database, weights, objective)
    }

    /// Aggregate a prepared query against one database: ensure the counting
    /// certificates (aggregates run on the original structure), select the
    /// first admitting counting tier, and run its weighted evaluation.
    pub fn aggregate_prepared(
        &self,
        plan: &PreparedQuery,
        database: &Structure,
        weights: &TupleWeights,
        objective: AggregateObjective,
    ) -> AggregateReport {
        let widths = self.ensure_counting_certificates(plan);
        let method = self.count_method(plan);
        let index = self.indexes.get(database);
        let value = method.evaluate(plan, database, &index, weights, objective);
        AggregateReport {
            value,
            objective,
            method,
            degree_hint: self.config.degree_hint(widths),
            widths,
        }
    }

    /// Evaluate a batch of (registered query, database) instances across
    /// the configured worker threads.  Each distinct query was prepared
    /// exactly once (at [`register`](Self::register) time); the batch
    /// performs only per-database solver work.  Results are in input order
    /// and identical to the sequential path.
    ///
    /// Panics when a handle was issued by a different engine.
    pub fn solve_batch(&self, batch: &[(QueryId, &Structure)]) -> Vec<EngineReport> {
        // Snapshot the registered plans once: handles resolve lock-free
        // inside the fan-out instead of contending on the registry mutex
        // per instance.  (Registrations racing with the batch may or may
        // not be visible — their handles could not be in `batch` anyway.)
        let plans: Vec<Arc<PreparedQuery>> = self.registered.lock().expect("registry lock").clone();
        self.run_batch(batch, move |engine, &(id, database)| {
            assert_eq!(
                id.engine, engine.id,
                "QueryId was issued by a different Engine (handles are not transferable)"
            );
            engine.solve_prepared(&plans[id.index], database)
        })
    }

    /// Evaluate a batch of raw (query, database) instances across the
    /// configured worker threads: every distinct query is prepared once
    /// through the plan cache (single-flighted under races), every instance
    /// is evaluated against its cached plan.  Results are in input order
    /// and identical to the sequential path.
    pub fn solve_batch_instances(&self, batch: &[(&Structure, &Structure)]) -> Vec<EngineReport> {
        self.run_batch(batch, |engine, &(query, database)| {
            engine.solve(query, database)
        })
    }

    /// Fan `items` out over a scoped thread pool and return the per-item
    /// reports (decision or counting) in input order.  Workers pull the
    /// next unclaimed index from a shared atomic cursor (work stealing), so
    /// skewed per-instance costs balance; output order is fixed by index,
    /// not completion order.
    fn run_batch<T, R, F>(&self, items: &[T], solve_one: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Engine, &T) -> R + Sync,
    {
        let workers = self.effective_workers().min(items.len());
        if workers <= 1 {
            return items.iter().map(|item| solve_one(self, item)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut produced = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            produced.push((i, solve_one(self, item)));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                let produced = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (i, report) in produced {
                    out[i] = Some(report);
                }
            }
        });
        out.into_iter()
            .map(|r| r.expect("every batch index solved exactly once"))
            .collect()
    }

    /// Plan cache behaviour so far, aggregated across shards and worker
    /// threads.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Per-query exponential work performed by this engine so far,
    /// aggregated across all threads that prepared through it (see
    /// [`PrepStats`]).
    pub fn prep_stats(&self) -> PrepStats {
        self.prep.snapshot()
    }

    /// Instance-index cache behaviour so far (one index build per distinct
    /// database, shared by decision and counting traffic).
    pub fn index_stats(&self) -> IndexStats {
        self.indexes.stats()
    }

    /// Every plan this engine currently holds — the cached plans of all
    /// shards plus registered plans that outlived eviction — deduplicated
    /// by fingerprint and sorted by it, so the snapshot (and therefore a
    /// saved store's bytes) is deterministic.
    fn snapshot_plans(&self) -> Vec<Arc<PreparedQuery>> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for shard in self.cache.slots.locked() {
            for slot in shard.iter() {
                if seen.insert(slot.plan.fingerprint()) {
                    out.push(Arc::clone(&slot.plan));
                }
            }
        }
        for plan in self.registered.lock().expect("registry lock").iter() {
            if seen.insert(plan.fingerprint()) {
                out.push(Arc::clone(plan));
            }
        }
        out.sort_by_key(|p| p.fingerprint());
        out
    }

    /// Persist every currently held plan (cached and registered) to a
    /// [`crate::persist::PlanStore`] file at `path`, returning how many
    /// plans were written.  Lazily materialized artifacts (sentence,
    /// staircase, counting certificates) are saved exactly as far as
    /// traffic has forced them — a loader materializes the rest on first
    /// use, like any in-process plan.
    pub fn save_plans(&self, path: impl AsRef<std::path::Path>) -> Result<u64, PersistError> {
        let plans = self.snapshot_plans();
        let total = match &self.eviction {
            None => {
                let mut store = PlanStore::new(self.config);
                for plan in &plans {
                    store.push_plan(plan);
                }
                store.write_to(path)?;
                store.len()
            }
            Some(sink) => {
                // Fold the live plans into the eviction image, so the save
                // covers every fingerprint this engine ever prepared —
                // churned out or not — and no later eviction flush writes
                // fewer records than this save did.
                let _flush = sink
                    .flush
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let (image, total) = {
                    let mut store = sink
                        .store
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    for plan in &plans {
                        store.upsert_plan(plan);
                    }
                    store.sort_by_fingerprint();
                    (store.to_bytes(), store.len())
                };
                crate::persist::write_image_atomic(path.as_ref(), &image)?;
                total
            }
        } as u64;
        self.prep.plans_saved.fetch_add(total, Ordering::Relaxed);
        Ok(total)
    }

    /// Warm-start the sharded plan cache from a plan-store file: decode
    /// each record, verify it against this engine's configuration
    /// ([`PreparedQuery::verify`] — fingerprint, hom-equivalence of the
    /// evaluated core, certificate validity, threshold consistency), and
    /// cache the survivors.  Rejected records are counted
    /// ([`PrepStats::plans_rejected`]) and skipped: the queries they would
    /// have served fall back to a cold prepare on first sight, so a
    /// corrupted or stale store can cost time but never a wrong answer.
    ///
    /// File-level failures (missing file, foreign bytes, version mismatch,
    /// whole-file checksum) are returned as [`PersistError`]; the engine is
    /// unchanged in that case.
    pub fn load_plans(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<WarmStartSummary, PersistError> {
        let store = PlanStore::read_from(path)?;
        Ok(self.adopt_store(&store))
    }

    /// [`Engine::load_plans`], from an in-memory store image (the unit the
    /// corruption tests drive directly).
    pub fn adopt_store(&self, store: &PlanStore) -> WarmStartSummary {
        let mut summary = WarmStartSummary {
            loaded: 0,
            rejected: store.corrupt_records(),
        };
        let compatible =
            store.config().plan_compatible(&self.config) && self.cache.slots.capacity() > 0;
        for record in store.records() {
            if !compatible {
                summary.rejected += 1;
                continue;
            }
            let plan = match record.decode_plan() {
                Ok(plan) => plan,
                Err(_) => {
                    summary.rejected += 1;
                    continue;
                }
            };
            if plan.fingerprint() != record.fingerprint()
                || plan.verify(&self.config).is_err()
                || self
                    .cache
                    .find(plan.fingerprint(), plan.original())
                    .is_some()
            {
                summary.rejected += 1;
                continue;
            }
            let evicted = self.cache.insert(Arc::new(plan));
            self.persist_evicted(evicted);
            summary.loaded += 1;
        }
        self.prep
            .plans_loaded
            .fetch_add(summary.loaded, Ordering::Relaxed);
        self.prep
            .plans_rejected
            .fetch_add(summary.rejected, Ordering::Relaxed);
        summary
    }

    /// Builder form of [`Engine::load_plans`]: construct the engine, then
    /// warm-start it from `path` — `Engine::new(config).with_plan_store(p)`
    /// is the restart counterpart of a long-running engine's
    /// [`Engine::save_plans`].
    pub fn with_plan_store(
        self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Engine, PersistError> {
        self.load_plans(path)?;
        Ok(self)
    }

    /// Enable **save-on-eviction**: every plan the LRU evicts from now on
    /// is upserted into an in-memory [`PlanStore`] image and persisted to
    /// `path` by a background writer thread, so a long-running engine
    /// accumulates plans incrementally instead of losing everything that
    /// churned out of the cache before the final [`Engine::save_plans`].
    ///
    /// If `path` already holds a plan-compatible store its records seed the
    /// image (nothing previously persisted is clobbered); an unreadable or
    /// incompatible file is ignored and the image starts empty.  Writes are
    /// atomic (temp sibling + rename) and best-effort: an I/O failure skips
    /// that flush, and the next eviction retries with the fuller image.
    /// [`Engine::save_plans`] folds its live plans into the image and
    /// writes the whole image, so a graceful shutdown saves every
    /// fingerprint ever prepared — evicted or live — and no later flush
    /// writes fewer records than it saved.  Dropping the engine joins the
    /// writer after a final flush.
    pub fn with_eviction_store(mut self, path: impl AsRef<std::path::Path>) -> Engine {
        let path = path.as_ref().to_path_buf();
        let seed = match PlanStore::read_from(&path) {
            Ok(existing) if existing.config().plan_compatible(&self.config) => existing,
            _ => PlanStore::new(self.config),
        };
        let store = Arc::new(Mutex::new(seed));
        let flush = Arc::new(Mutex::new(()));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let writer = {
            let store = Arc::clone(&store);
            let flush = Arc::clone(&flush);
            std::thread::spawn(move || {
                // Each wake covers every upsert that preceded it; draining
                // the queue coalesces a burst of evictions into one write.
                while rx.recv().is_ok() {
                    while rx.try_recv().is_ok() {}
                    let _flush = flush
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    let image = store
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .to_bytes();
                    let _ = crate::persist::write_image_atomic(&path, &image);
                }
            })
        };
        self.eviction = Some(EvictionSink {
            store,
            flush,
            wake: Mutex::new(Some(tx)),
            writer: Some(writer),
        });
        self
    }

    /// Hand plans the LRU just evicted to the eviction sink (no-op without
    /// one): upsert into the store image under its lock, then wake the
    /// background writer — the serving thread never touches the file.
    fn persist_evicted(&self, evicted: Vec<Arc<PreparedQuery>>) {
        let Some(sink) = &self.eviction else { return };
        if evicted.is_empty() {
            return;
        }
        {
            let mut store = sink
                .store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for plan in &evicted {
                store.upsert_plan(plan);
            }
            // Keep the image fingerprint-sorted so its bytes (and a later
            // `save_plans` merge) stay deterministic under eviction order.
            store.sort_by_fingerprint();
        }
        self.prep
            .plans_evicted_persisted
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        if let Some(tx) = sink
            .wake
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .as_ref()
        {
            let _ = tx.send(());
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(sink) = self.eviction.take() {
            // Dropping the sender lets the writer drain any queued wakes
            // (flushing every upsert) and exit; join so the final image is
            // on disk before the engine is gone.
            drop(
                sink.wake
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            );
            if let Some(writer) = sink.writer {
                let _ = writer.join();
            }
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("registry", &self.registry)
            .field("count_registry", &self.count_registry)
            .field("cache_shards", &self.cache_shards())
            .field("cache", &self.cache_stats())
            .field("prep", &self.prep_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountMethod;
    use crate::engine::SolverChoice;
    use cq_structures::{families, homomorphism_exists, relabeled};

    #[test]
    fn solve_matches_reference_and_reuses_plans() {
        let engine = Engine::new(EngineConfig::default());
        let queries = [families::star(4), families::cycle(5), families::clique(4)];
        let targets = [families::clique(4), families::grid(3, 3)];
        for _round in 0..2 {
            for a in &queries {
                for b in &targets {
                    let report = engine.solve(a, b);
                    assert_eq!(report.exists, homomorphism_exists(a, b), "{a} -> {b}");
                }
            }
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 3, "one preparation per distinct query");
        assert_eq!(stats.hits as usize, 2 * 3 * 2 - 3);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.entries, 3);
        let prep = engine.prep_stats();
        assert_eq!(prep.preparations, 3);
        assert_eq!(prep.core_computations, 3);
    }

    #[test]
    fn register_and_solve_batch() {
        let engine = Engine::new(EngineConfig::default());
        let star = families::star(4);
        let cycle = families::cycle(5);
        let star_id = engine.register(&star);
        let cycle_id = engine.register(&cycle);
        let targets: Vec<Structure> = (3..7).map(families::clique).collect();
        let batch: Vec<(QueryId, &Structure)> = targets
            .iter()
            .flat_map(|t| [(star_id, t), (cycle_id, t)])
            .collect();
        let reports = engine.solve_batch(&batch);
        assert_eq!(reports.len(), batch.len());
        for ((id, t), report) in batch.iter().zip(&reports) {
            let q = if *id == star_id { &star } else { &cycle };
            assert_eq!(report.exists, homomorphism_exists(q, t), "{q} -> {t}");
        }
    }

    #[test]
    fn parallel_batch_returns_sequential_results_in_input_order() {
        let sequential = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let parallel = Engine::new(EngineConfig {
            workers: 8,
            ..EngineConfig::default()
        });
        let queries = [families::star(4), families::cycle(7), families::clique(4)];
        let targets: Vec<Structure> = (3..8).map(families::clique).collect();
        let batch: Vec<(&Structure, &Structure)> = queries
            .iter()
            .flat_map(|q| targets.iter().map(move |t| (q, t)))
            .collect();
        let seq_reports = sequential.solve_batch_instances(&batch);
        let par_reports = parallel.solve_batch_instances(&batch);
        assert_eq!(seq_reports, par_reports);
        // Both engines prepared each distinct query exactly once.
        assert_eq!(sequential.prep_stats().preparations, 3);
        assert_eq!(parallel.prep_stats().preparations, 3);
    }

    #[test]
    fn registering_an_equivalent_query_hits_the_cache() {
        let engine = Engine::new(EngineConfig::default());
        let c7 = families::cycle(7);
        let perm: Vec<usize> = (0..7).rev().collect();
        let id1 = engine.register(&c7);
        let id2 = engine.register(&relabeled(&c7, &perm));
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 1);
        // Both handles resolve to the same plan.
        assert!(Arc::ptr_eq(&engine.prepared(id1), &engine.prepared(id2)));
    }

    #[test]
    fn lru_evicts_the_least_recently_used_plan() {
        // One shard so global LRU order is exact (the property under test).
        let engine = Engine::new(EngineConfig::default())
            .with_cache_shards(1)
            .with_cache_capacity(2);
        let a = families::star(3);
        let b = families::star(4);
        let c = families::star(5);
        let t = families::clique(3);
        engine.solve(&a, &t); // miss -> {a}
        engine.solve(&b, &t); // miss -> {a, b}
        engine.solve(&a, &t); // hit, a most recent
        engine.solve(&c, &t); // miss, evicts b
        engine.solve(&a, &t); // hit
        engine.solve(&b, &t); // miss again (was evicted)
        let stats = engine.cache_stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.lookups, 6);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = Engine::new(EngineConfig::default()).with_cache_capacity(0);
        let a = families::star(3);
        let t = families::clique(3);
        engine.solve(&a, &t);
        engine.solve(&a, &t);
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_zero_disables() {
        let engine = Engine::new(EngineConfig::default()).with_cache_shards(1);
        let t = families::clique(3);
        for legs in 3..8 {
            engine.solve(&families::star(legs), &t);
        }
        assert_eq!(engine.cache_stats().entries, 5);
        // Shrink below the population: trims to the new capacity at once.
        let engine = engine.with_cache_capacity(2);
        assert_eq!(engine.cache_stats().entries, 2);
        assert_eq!(engine.cache_stats().evictions, 3);
        // Shrink to zero after use: caching is actually off.
        let engine = engine.with_cache_capacity(0);
        assert_eq!(engine.cache_stats().entries, 0);
        let before = engine.cache_stats();
        engine.solve(&families::star(3), &t);
        engine.solve(&families::star(3), &t);
        let after = engine.cache_stats();
        assert_eq!(after.hits, before.hits, "no hits once disabled");
        assert_eq!(after.entries, 0);
    }

    #[test]
    fn sharded_cache_caps_total_entries() {
        let engine = Engine::new(EngineConfig::default())
            .with_cache_shards(4)
            .with_cache_capacity(8);
        let t = families::clique(3);
        for legs in 3..20 {
            engine.solve(&families::star(legs), &t);
        }
        let stats = engine.cache_stats();
        assert!(
            stats.entries <= 8,
            "entries {} exceed total capacity",
            stats.entries
        );
        assert!(stats.evictions > 0, "17 distinct plans into 8 slots");
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn resharding_rehashes_cached_plans_without_losing_them() {
        let engine = Engine::new(EngineConfig::default())
            .with_cache_shards(4)
            .with_cache_capacity(8);
        let t = families::clique(3);
        let queries: Vec<Structure> = (3..7).map(families::star).collect();
        for q in &queries {
            engine.solve(q, &t);
        }
        assert_eq!(engine.cache_stats().entries, 4);
        // 4 entries fit any single shard's share of 8, so every plan
        // survives the rehash and every query still hits.
        let engine = engine.with_cache_shards(2);
        assert_eq!(engine.cache_shards(), 2);
        assert_eq!(engine.cache_stats().entries, 4);
        let hits_before = engine.cache_stats().hits;
        for q in &queries {
            engine.solve(q, &t);
        }
        assert_eq!(engine.cache_stats().hits, hits_before + 4);
        assert_eq!(engine.prep_stats().preparations, 4);
    }

    #[test]
    fn relabelled_lookups_are_verified_once_then_memoized() {
        let engine = Engine::new(EngineConfig::default());
        let c7 = families::cycle(7);
        let perm: Vec<usize> = (0..7).rev().collect();
        let twisted = relabeled(&c7, &perm);
        engine.prepare(&c7);
        // Repeated lookups of the same relabelled form all hit; the
        // hom-equivalence verification runs only on the first (observable
        // here as: answers stay correct and every lookup is a hit).
        for _ in 0..3 {
            let plan = engine.prepare(&twisted);
            assert!(std::sync::Arc::ptr_eq(&plan, &engine.prepare(&c7)));
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 6);
    }

    #[test]
    fn decision_and_counting_share_one_cached_plan() {
        let engine = Engine::new(EngineConfig::default());
        let p4 = families::path(4);
        let k3 = families::clique(3);
        // Decision first: prepares the plan (core K2, widths of the core).
        let decision = engine.solve(&p4, &k3);
        assert!(decision.exists);
        assert_eq!(decision.evaluated_query_size, 2, "decision ran on the core");
        // Counting reuses the same plan (a cache hit) but counts the
        // original: #hom(P4, K3) = 3·2·2·2 = 24, not #hom(K2, K3) = 6.
        let count = engine.count_instance(&p4, &k3);
        assert_eq!(count.count, 24);
        assert_eq!(count.counted_query_size, 4);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "one plan serves both kinds of traffic");
        assert_eq!(stats.hits, 1);
        let prep = engine.prep_stats();
        assert_eq!(prep.preparations, 1);
        assert_eq!(
            prep.counting_preparations, 1,
            "P4's core is proper, so counting materialized its own certificates"
        );
        // Decision analysis + counting analysis: two of each width DP.
        assert_eq!(prep.treewidth_calls, 2);
    }

    #[test]
    fn cached_plan_counting_runs_zero_additional_decomposition_passes() {
        let engine = Engine::new(EngineConfig::default());
        let queries = [families::path(4), families::star(3), families::cycle(5)];
        let targets = [families::clique(3), families::clique(4)];
        // Warm: first counting pass materializes every counting certificate.
        for q in &queries {
            for t in &targets {
                engine.count_instance(q, t);
            }
        }
        let warm = engine.prep_stats();
        // Cached run: same traffic again — no width DP, no core computation,
        // no counting-certificate materialization may run.
        for q in &queries {
            for t in &targets {
                engine.count_instance(q, t);
            }
        }
        assert_eq!(
            engine.prep_stats(),
            warm,
            "cached counting re-ran prep work"
        );
    }

    #[test]
    fn counting_serves_relabelled_forms_from_the_cached_plan() {
        let engine = Engine::new(EngineConfig::default());
        let c5 = families::cycle(5);
        let perm: Vec<usize> = (0..5).rev().collect();
        let twisted = relabeled(&c5, &perm);
        let t = families::clique(4);
        let direct = engine.count_instance(&c5, &t);
        let via_alias = engine.count_instance(&twisted, &t);
        // Counts are isomorphism-invariant, so the alias may (and does)
        // reuse the plan.
        assert_eq!(direct.count, via_alias.count);
        assert_eq!(engine.prep_stats().preparations, 1);
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn count_star_prepares_the_oracle_query_once() {
        // Lemma 6.2 over cached plans: 2^3 - 1 = 7 subset oracle calls, all
        // with left-hand side C3 — one preparation, the rest cache hits.
        let engine = Engine::new(EngineConfig::default());
        let c3 = families::cycle(3);
        let colored =
            cq_structures::ops::colored_target(3, &families::clique(4), |_| (0..4).collect());
        let got = engine.count_star(&c3, &colored);
        let direct = cq_structures::count_homomorphisms_bruteforce(
            &cq_structures::star_expansion(&c3),
            &colored,
        );
        assert_eq!(got, direct);
        let prep = engine.prep_stats();
        assert_eq!(prep.preparations, 1, "one plan for all 7 oracle calls");
        assert!(prep.counting_preparations <= 1);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, stats.lookups - 1);
    }

    #[test]
    fn ablated_count_registry_changes_method_not_counts() {
        let cfg = EngineConfig::default();
        let full = Engine::new(cfg);
        let ablated = Engine::new(cfg)
            .with_count_registry(CountRegistry::standard().without(CountMethod::ForestSumProduct));
        let star = families::star(4);
        for t in [families::clique(3), families::cycle(6)] {
            let r_full = full.count_instance(&star, &t);
            let r_ablated = ablated.count_instance(&star, &t);
            assert_eq!(r_full.method, CountMethod::ForestSumProduct);
            assert_eq!(r_ablated.method, CountMethod::TreeDecompositionDp);
            assert_eq!(r_full.count, r_ablated.count);
        }
    }

    #[test]
    #[should_panic(expected = "issued by a different Engine")]
    fn query_ids_are_not_transferable_between_engines() {
        let engine_a = Engine::new(EngineConfig::default());
        let engine_b = Engine::new(EngineConfig::default());
        // Give engine_b a registration at index 0 so a silent index-based
        // resolution would *succeed* (with the wrong plan) if unguarded.
        let _ = engine_b.register(&families::clique(4));
        let id_a = engine_a.register(&families::star(3));
        let _ = engine_b.prepared(id_a);
    }

    #[test]
    fn ablated_registry_changes_dispatch_not_answers() {
        let cfg = EngineConfig::default();
        let full = Engine::new(cfg);
        let ablated = Engine::with_registry(
            cfg,
            SolverRegistry::standard().without(SolverChoice::TreeDepth),
        );
        let a = families::star(5);
        for b in [families::clique(3), families::cycle(6)] {
            let r_full = full.solve(&a, &b);
            let r_ablated = ablated.solve(&a, &b);
            assert_eq!(r_full.choice, SolverChoice::TreeDepth);
            assert_eq!(r_ablated.choice, SolverChoice::PathDecomposition);
            assert_eq!(r_full.exists, r_ablated.exists);
        }
    }

    #[test]
    fn small_total_capacity_never_zeroes_a_shard() {
        // Capacity below the default shard count used to leave some shards
        // with zero slots, silently disabling caching for every query
        // hashing there.  The effective shard count is clamped instead.
        let engine = Engine::new(EngineConfig::default()).with_cache_capacity(4);
        assert_eq!(engine.cache_shards(), 4, "clamped from the default 8");
        let t = families::clique(3);
        let queries: Vec<Structure> = (3..7).map(families::star).collect();
        for q in &queries {
            engine.solve(q, &t);
            engine.solve(q, &t);
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 4, "every query cached on first sight");
        assert_eq!(stats.hits, 4, "every repeat served from the cache");
        // Raising the capacity later restores the requested shard spread.
        let engine = engine.with_cache_capacity(64);
        assert_eq!(engine.cache_shards(), DEFAULT_CACHE_SHARDS);
    }

    #[test]
    fn panicking_preparation_does_not_wedge_the_fingerprint() {
        // cycle(24) exceeds the exact-DP vertex limit, so preparation
        // panics (use_core = false keeps the 24-vertex graph).  The
        // single-flight latch entry must be cleaned up on the unwind:
        // a retry must panic with the *original* size-limit message, not a
        // stale "preparation latch" error, and unrelated queries must keep
        // working.
        let engine = Engine::new(EngineConfig {
            use_core: false,
            ..EngineConfig::default()
        });
        let too_big = families::cycle(24);
        for attempt in 0..2 {
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.prepare(&too_big)))
                    .expect_err("preparation beyond the DP limit must panic");
            let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                message.contains("is exponential"),
                "attempt {attempt} panicked with {message:?} instead of the size-limit error"
            );
        }
        // The engine is still fully usable afterwards.
        let report = engine.solve(&families::star(3), &families::clique(3));
        assert!(report.exists);
    }

    #[test]
    fn instance_indexes_are_built_once_per_database_across_decide_and_count() {
        let engine = Engine::new(EngineConfig::default());
        let queries = [families::star(4), families::path(4)];
        let targets = [families::clique(3), families::clique(4)];
        for _round in 0..3 {
            for q in &queries {
                for t in &targets {
                    let decision = engine.solve(q, t);
                    let count = engine.count_instance(q, t);
                    assert_eq!(decision.exists, count.count.positive(), "{q} -> {t}");
                }
            }
        }
        let stats = engine.index_stats();
        assert_eq!(stats.misses, 2, "one index build per distinct database");
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        // 3 rounds × 2 queries × 2 targets × (decide + count) = 24 lookups.
        assert_eq!(stats.lookups, 24);
    }

    #[test]
    fn repeat_index_lookups_hash_the_database_once() {
        let engine = Engine::new(EngineConfig::default());
        let db = families::clique(4);
        let first = engine.instance_index(&db);
        for _ in 0..9 {
            assert!(Arc::ptr_eq(&first, &engine.instance_index(&db)));
        }
        let stats = engine.index_stats();
        assert_eq!(stats.lookups, 10);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 9);
        assert_eq!(
            stats.hash_computes, 1,
            "repeat lookups of an unchanged database must not rehash it"
        );
        // A clone shares the content token, so it rides the O(1) path too.
        assert!(Arc::ptr_eq(&first, &engine.instance_index(&db.clone())));
        assert_eq!(engine.index_stats().hash_computes, 1);
        // A structurally equal but independently built object carries a
        // fresh token: it pays one hash to find the shared index, then its
        // token is aliased and later lookups are O(1) again.
        let rebuilt = families::clique(4);
        assert!(Arc::ptr_eq(&first, &engine.instance_index(&rebuilt)));
        assert_eq!(engine.index_stats().hash_computes, 2);
        assert!(Arc::ptr_eq(&first, &engine.instance_index(&rebuilt)));
        let stats = engine.index_stats();
        assert_eq!(stats.hash_computes, 2);
        assert_eq!(stats.misses, 1, "one build for all of the above");
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn apply_delta_maintains_the_cached_index_in_place() {
        use cq_structures::{count_homomorphisms_bruteforce, DeltaBatch};

        let engine = Engine::new(EngineConfig::default());
        let query = families::star(3);
        let db = families::clique(4);
        let e = db.vocabulary().id_of("E").expect("graph vocabulary");

        // Warm: decision + counting traffic builds and caches one index.
        assert!(engine.solve(&query, &db).exists);
        let warm_count = engine.count_instance(&query, &db);
        assert_eq!(
            warm_count.count,
            count_homomorphisms_bruteforce(&query, &db)
        );
        let before = engine.index_stats();
        assert_eq!(before.misses, 1);

        // Delete one K4 edge in place; query the post-delta state through
        // the report's database so the content token routes to the
        // maintained index.
        let mut batch = DeltaBatch::new();
        batch.delete(e, vec![0, 1]);
        let report = engine.apply_delta(&db, &batch).expect("valid batch");
        assert_eq!(report.applied().deletions().len(), 1);
        assert!(report.version() > 0);
        let mutated = report.database().clone();
        assert_ne!(&mutated, &db, "the cached structure advanced");
        let count = engine.count_instance(&query, &mutated);
        assert_eq!(
            count.count,
            count_homomorphisms_bruteforce(&query, &mutated)
        );
        assert!(engine.solve(&query, &mutated).exists);
        let after = engine.index_stats();
        assert_eq!(
            after.misses, before.misses,
            "the delta path must never rebuild the index"
        );
        assert_eq!(
            after.hash_computes, before.hash_computes,
            "the delta path and post-delta queries must never rehash"
        );

        // Reinsert the edge: content returns to the original, and a second
        // engine agrees from cold on every round.
        let mut undo = DeltaBatch::new();
        undo.insert(e, vec![0, 1]);
        let report = engine.apply_delta(&mutated, &undo).expect("valid batch");
        assert_eq!(report.database(), &db, "insert ∘ delete is the identity");
        let cold = Engine::new(EngineConfig::default());
        assert_eq!(
            engine.count_instance(&query, report.database()).count,
            cold.count_instance(&query, report.database()).count
        );

        // Whole-batch validation: an out-of-universe element fails without
        // touching the cache.
        let mut bad = DeltaBatch::new();
        bad.insert(e, vec![0, 99]);
        let entries_before = engine.index_stats().entries;
        assert!(engine.apply_delta(report.database(), &bad).is_err());
        assert_eq!(engine.index_stats().entries, entries_before);
    }

    #[test]
    fn chained_deltas_run_without_rebuilds_rehashes_or_structure_handles() {
        use cq_structures::{count_homomorphisms_bruteforce, DeltaBatch};

        let engine = Engine::new(EngineConfig::default());
        let query = families::star(3);
        let db = families::clique(4);
        let e = db.vocabulary().id_of("E").expect("graph vocabulary");

        // Round 0 comes in by `&Structure`; every later round consumes the
        // previous report, so the caller holds no handle that would force a
        // copy-on-write.
        let mut batch = DeltaBatch::new();
        batch.delete(e, vec![0, 1]);
        let mut report = engine.apply_delta(&db, &batch).expect("valid batch");
        let id = report.index().id();
        let baseline = engine.index_stats();

        // Toggle the edge back and forth through the chained form: same
        // index identity, monotone version, no build, no rehash.
        for round in 0..7u64 {
            let mut batch = DeltaBatch::new();
            if round % 2 == 0 {
                batch.insert(e, vec![0, 1]);
            } else {
                batch.delete(e, vec![0, 1]);
            }
            report = engine
                .apply_delta_chained(report, &batch)
                .expect("valid batch");
            assert_eq!(report.index().id(), id, "identity survives the chain");
            assert_eq!(report.version(), round + 2, "one version per round");
            assert_eq!(
                engine.count_instance(&query, report.database()).count,
                count_homomorphisms_bruteforce(&query, report.database())
            );
        }
        assert_eq!(report.database(), &db, "the last toggle reinserts the edge");
        let after = engine.index_stats();
        // A per-engine miss is the only event that can build an index here,
        // so flat misses prove zero rebuilds (the global build counter is
        // shared across parallel tests and can't be asserted exactly).
        assert_eq!(after.misses, baseline.misses, "chained rounds never miss");
        assert_eq!(
            after.hash_computes, baseline.hash_computes,
            "chained rounds never rehash"
        );

        // A validation error rejects the batch whole and keeps the
        // pre-delta index cached: a kept clone of the report still routes
        // to it, and its content is unchanged.
        let keep = report.clone();
        let mut bad = DeltaBatch::new();
        bad.insert(e, vec![0, 99]);
        assert!(engine.apply_delta_chained(report, &bad).is_err());
        assert_eq!(keep.database(), &db);
        let misses = engine.index_stats().misses;
        assert!(engine.solve(&query, keep.database()).exists);
        assert_eq!(
            engine.index_stats().misses,
            misses,
            "the pre-delta index is still served after a rejected batch"
        );
    }

    #[test]
    fn zero_index_capacity_disables_index_caching() {
        let engine = Engine::new(EngineConfig::default()).with_index_cache_capacity(0);
        let q = families::star(3);
        let t = families::clique(3);
        engine.solve(&q, &t);
        engine.solve(&q, &t);
        let stats = engine.index_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn index_cache_shares_one_build_across_batch_workers() {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        });
        let queries = [families::star(4), families::cycle(5), families::path(4)];
        let target = families::clique(4);
        let target_ref = &target;
        let batch: Vec<(&Structure, &Structure)> = queries
            .iter()
            .flat_map(|q| (0..8).map(move |_| (q, target_ref)))
            .collect();
        let reports = engine.solve_batch_instances(&batch);
        assert_eq!(reports.len(), 24);
        let stats = engine.index_stats();
        assert_eq!(stats.entries, 1, "one shared database, one cached index");
        // Racing workers may build the one index more than once (builds are
        // idempotent and not single-flighted), but never once per instance.
        assert!(
            stats.misses < batch.len() as u64 / 2,
            "index cache ineffective under fan-out: {stats:?}"
        );
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn concurrent_prepares_of_one_query_are_single_flighted() {
        let engine = Engine::new(EngineConfig::default());
        let query = families::cycle(7);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let plan = engine.prepare(&query);
                    assert_eq!(plan.fingerprint(), engine.prepare(&query).fingerprint());
                });
            }
        });
        let stats = engine.cache_stats();
        assert_eq!(stats.lookups, 16);
        assert_eq!(stats.misses, 1, "one preparation despite 8 racing threads");
        assert_eq!(stats.hits, 15);
        assert_eq!(engine.prep_stats().preparations, 1);
    }
}
