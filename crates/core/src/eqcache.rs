//! The bounded, sharded equilibrium memo cache behind
//! [`CombinedModel`](crate::assignment::CombinedModel).
//!
//! The original memo cache was a single `Mutex<HashMap<..>>`: correct,
//! but it grew without bound over a long candidate sweep and serialized
//! every reader behind one lock. This replacement bounds memory with a
//! per-shard LRU ([`mathkit::lru`]) and spreads contention over several
//! independently locked shards.
//!
//! Two properties the rest of the model relies on:
//!
//! - **Determinism.** The cache key is the *canonically ordered* list of
//!   co-runner content fingerprints, and the shard is a pure function of
//!   that key, so permuted co-runner sets always land on the same entry.
//!   Eviction only ever forces a re-solve, and the solvers work in the
//!   same canonical order whether or not the cache is present — so a
//!   hit, a miss, and a post-eviction re-solve are all bit-identical.
//! - **Bounded memory.** `entries() <= capacity()` at every instant; the
//!   total capacity is split evenly across shards and each shard evicts
//!   independently.

use crate::equilibrium::Equilibrium;
use mathkit::lru::LruCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards (a power of two).
const SHARDS: usize = 8;

/// Default total capacity (entries) of the equilibrium memo cache.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EqCacheStats {
    /// Lookups that found a memoized equilibrium.
    pub hits: u64,
    /// Lookups that had to solve.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Entries currently memoized (across all shards).
    pub entries: usize,
    /// Total configured capacity (0 = caching disabled).
    pub capacity: usize,
}

/// A sharded, capacity-bounded LRU from canonical fingerprint keys to
/// canonical-order [`Equilibrium`] solutions.
#[derive(Debug)]
pub struct EquilibriumCache {
    shards: Vec<Mutex<LruCache<Vec<u64>, Equilibrium>>>,
    capacity: usize,
    /// Fresh solves whose diagnostics recorded a fallback or degraded
    /// result (tracked here because the cache sees every solve).
    fallback_solves: AtomicU64,
}

/// Mixes the canonical fingerprint list into a shard index. SplitMix64
/// finalization over the folded fingerprints: cheap and well-spread, and
/// a pure function of the key so permutation-equivalent co-runner sets
/// always pick the same shard.
fn shard_of(key: &[u64]) -> usize {
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    for &fp in key {
        z = z.wrapping_add(fp).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
    }
    (z as usize) & (SHARDS - 1)
}

impl EquilibriumCache {
    /// A cache bounded at `capacity` total entries, rounded up to a
    /// multiple of the shard count so every shard gets the same bound
    /// (the effective bound is [`EquilibriumCache::capacity`]). Capacity
    /// 0 disables memoization entirely (every lookup misses, nothing is
    /// stored).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS);
        EquilibriumCache {
            shards: (0..SHARDS).map(|_| Mutex::new(LruCache::new(per_shard))).collect(),
            capacity: per_shard * SHARDS,
            fallback_solves: AtomicU64::new(0),
        }
    }

    /// The total capacity bound (entries).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the canonical key, promoting the entry on a hit.
    pub fn get(&self, key: &[u64]) -> Option<Equilibrium> {
        let mut shard = self.lock(key);
        shard.get(key).cloned()
    }

    /// Memoizes a canonical-order solve under its canonical key.
    pub fn insert(&self, key: Vec<u64>, eq: Equilibrium) {
        let mut shard = self.lock(&key);
        shard.insert(key, eq);
    }

    /// Records that a fresh solve needed the fallback chain (or came
    /// back degraded).
    pub fn note_fallback(&self) {
        self.fallback_solves.fetch_add(1, Ordering::Relaxed);
    }

    /// Fresh solves that went through the fallback chain.
    pub fn fallback_solves(&self) -> u64 {
        self.fallback_solves.load(Ordering::Relaxed)
    }

    /// Entries currently memoized.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }

    /// Drops every memoized entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }

    /// A snapshot of the aggregated counters.
    pub fn stats(&self) -> EqCacheStats {
        let mut st = EqCacheStats { capacity: self.capacity, ..Default::default() };
        for s in &self.shards {
            let s = s.lock().unwrap_or_else(|e| e.into_inner());
            st.hits += s.hits();
            st.misses += s.misses();
            st.evictions += s.evictions();
            st.entries += s.len();
        }
        st
    }

    fn lock(&self, key: &[u64]) -> std::sync::MutexGuard<'_, LruCache<Vec<u64>, Equilibrium>> {
        self.shards[shard_of(key)].lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::{SolveDiagnostics, SolveMethod};

    fn dummy_eq(tag: f64) -> Equilibrium {
        Equilibrium {
            sizes: vec![tag],
            mpas: vec![tag],
            spis: vec![tag],
            apss: vec![tag],
            window: tag,
            cache_filled: true,
            diagnostics: SolveDiagnostics {
                method: SolveMethod::ClosedForm,
                iterations: 0,
                residual: 0.0,
                fallbacks: Vec::new(),
                degraded: false,
            },
        }
    }

    #[test]
    fn shard_is_a_pure_function_of_the_key() {
        let key = vec![1u64, 2, 3];
        assert_eq!(shard_of(&key), shard_of(&key.clone()));
        assert!(shard_of(&key) < SHARDS);
    }

    #[test]
    fn bounded_under_distinct_keys() {
        let cache = EquilibriumCache::new(16);
        for i in 0..500u64 {
            cache.insert(vec![i, i + 1], dummy_eq(i as f64));
            assert!(cache.entries() <= cache.capacity(), "at i = {i}");
        }
        let st = cache.stats();
        assert!(st.evictions > 0);
        assert!(st.entries <= st.capacity);
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let cache = EquilibriumCache::new(0);
        cache.insert(vec![1], dummy_eq(1.0));
        assert_eq!(cache.entries(), 0);
        assert!(cache.get(&[1]).is_none());
    }

    #[test]
    fn hit_returns_the_stored_value() {
        let cache = EquilibriumCache::new(8);
        cache.insert(vec![7, 8], dummy_eq(3.5));
        let got = cache.get(&[7, 8]).expect("stored entry");
        assert_eq!(got.window.to_bits(), 3.5f64.to_bits());
        assert!(cache.get(&[8, 7]).is_none(), "keys are exact, not set-equal");
        let st = cache.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
    }

    #[test]
    fn clear_and_fallback_counter() {
        let cache = EquilibriumCache::new(8);
        cache.insert(vec![1], dummy_eq(1.0));
        cache.note_fallback();
        cache.clear();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.fallback_solves(), 1);
    }
}
