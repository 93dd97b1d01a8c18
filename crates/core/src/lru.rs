//! The one least-recently-used container behind every engine cache: the
//! plan cache and the instance-index cache (sharded), the index cache's
//! content-token aliases, and a plan's per-index kernel bundles and answer
//! programs.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// A recency-ordered list with a fixed capacity: least recently used at
/// the front, most recently used at the back.  Lookups are linear scans
/// with a caller-supplied match, which suits the small capacities the
/// engine uses and lets a match confirm more than a key (structural
/// equality, a verified relabelling).
#[derive(Debug)]
pub(crate) struct Lru<T> {
    capacity: usize,
    entries: VecDeque<T>,
}

impl<T> Lru<T> {
    pub(crate) fn new(capacity: usize) -> Lru<T> {
        Lru {
            capacity,
            entries: VecDeque::new(),
        }
    }

    /// The first entry `hit` accepts, promoted to most recently used.
    pub(crate) fn get(&mut self, hit: impl FnMut(&mut T) -> bool) -> Option<&mut T> {
        let pos = self.entries.iter_mut().position(hit)?;
        let entry = self.entries.remove(pos)?;
        self.entries.push_back(entry);
        self.entries.back_mut()
    }

    /// Remove and return the first entry `hit` accepts.
    pub(crate) fn take(&mut self, hit: impl FnMut(&T) -> bool) -> Option<T> {
        let pos = self.entries.iter().position(hit)?;
        self.entries.remove(pos)
    }

    /// Insert `entry` as the most recently used, returning the entries
    /// evicted to stay within capacity — handed back (rather than dropped
    /// here) so a caller can persist them.  At capacity zero that is
    /// `entry` itself.
    pub(crate) fn push(&mut self, entry: T) -> Vec<T> {
        self.entries.push_back(entry);
        let excess = self.entries.len().saturating_sub(self.capacity);
        self.entries.drain(..excess).collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries from least to most recently used.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }
}

/// `N` independently locked [`Lru`]s sharing one total capacity, routed by
/// `hash % N`: concurrent lookups of different keys do not contend on one
/// mutex, at the price of LRU order being exact per shard and approximate
/// globally.
pub(crate) struct Sharded<T> {
    shards: Vec<Mutex<Lru<T>>>,
    /// The shard count the caller asked for.  The instantiated count
    /// (`shards.len()`) is clamped so no shard's share of the capacity is
    /// zero — a zero-capacity shard would silently never cache what hashes
    /// there; the request is remembered so a later capacity change can
    /// restore the full spread.
    requested: usize,
    capacity: usize,
}

impl<T> Sharded<T> {
    /// Shards with no entries.  A zero total capacity means caching is
    /// off; one pro-forma shard is kept.
    pub(crate) fn new(shards: usize, capacity: usize) -> Sharded<T> {
        let requested = shards.max(1);
        let count = requested.min(capacity.max(1));
        // Shard `i` holds `capacity / count`, the remainder spread over the
        // first `capacity % count` shards.
        let shards = (0..count)
            .map(|i| {
                Mutex::new(Lru::new(
                    capacity / count + usize::from(i < capacity % count),
                ))
            })
            .collect();
        Sharded {
            shards,
            requested,
            capacity,
        }
    }

    fn route(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// The locked shard `hash` routes to.
    pub(crate) fn shard(&self, hash: u64) -> MutexGuard<'_, Lru<T>> {
        self.shards[self.route(hash)]
            .lock()
            .expect("cache shard lock")
    }

    /// Every shard, locked one after another.
    pub(crate) fn locked(&self) -> impl Iterator<Item = MutexGuard<'_, Lru<T>>> {
        self.shards
            .iter()
            .map(|shard| shard.lock().expect("cache shard lock"))
    }

    /// Entries currently held, summed over shards.
    pub(crate) fn len(&self) -> usize {
        self.locked().map(|shard| shard.len()).sum()
    }

    /// The instantiated shard count.
    pub(crate) fn count(&self) -> usize {
        self.shards.len()
    }

    /// The shard count the caller asked for.
    pub(crate) fn requested(&self) -> usize {
        self.requested
    }

    /// The total capacity across shards.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rebuild with a new shard count and total capacity, rerouting the
    /// held entries by `hash` and returning the ones that no longer fit.
    /// Takes `&mut self`, so it is a construction-time operation and no
    /// lock is contended.  Entries are re-inserted by their recency rank
    /// within their old shard, oldest first — across old shards recency is
    /// compared by that rank, approximate like the sharded LRU itself.
    pub(crate) fn resize(
        &mut self,
        shards: usize,
        capacity: usize,
        hash: impl Fn(&T) -> u64,
    ) -> Vec<T> {
        let mut held: Vec<(usize, T)> = Vec::new();
        for shard in &mut self.shards {
            let entries = &mut shard.get_mut().expect("cache shard lock").entries;
            let newest = entries.len();
            held.extend(entries.drain(..).enumerate().map(|(i, e)| (newest - i, e)));
        }
        held.sort_by_key(|&(age, _)| std::cmp::Reverse(age));
        *self = Sharded::new(shards, capacity);
        let mut evicted = Vec::new();
        for (_, entry) in held {
            let shard = self.route(hash(&entry));
            let shard = self.shards[shard].get_mut().expect("cache shard lock");
            evicted.extend(shard.push(entry));
        }
        evicted
    }
}
