//! Shared bounded-LRU cache machinery.
//!
//! Three memoization layers in the workspace (calibrated grid traces,
//! synthesized workloads, whole-scenario outcomes) share the same shape:
//! a process-wide map from a content-addressed key to an `Arc`-shared
//! value, bounded by an LRU capacity, with hit/miss/eviction counters.
//! [`LruCache`] is that shape, written once; the domain crates wrap it
//! with their own key types, fault sites, and env knobs.
//!
//! The concurrency protocol is deliberately simple and deterministic:
//!
//! * every access advances a logical tick, so LRU victims are chosen by
//!   unique timestamps regardless of `HashMap` iteration order;
//! * expensive value construction happens **outside** the lock — racing
//!   first requests may both construct, but construction is deterministic
//!   so both produce identical values and the first insert wins;
//! * `capacity == 0` disables the cache: lookups miss and inserts pass
//!   the value straight through, without advancing any counter.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counter and occupancy snapshot from [`LruCache::stats`].
/// Serializable so a service front-end can expose it on a stats
/// endpoint as structured JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to generate (including racing first requests).
    pub misses: u64,
    /// Entries evicted to enforce the capacity bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Capacity bound (`0` = caching disabled).
    pub capacity: usize,
}

#[derive(Debug)]
struct CacheEntry<V> {
    value: V,
    /// Logical timestamp of the most recent access (every cache request
    /// advances the clock), so eviction can pick the least recently used
    /// entry deterministically — timestamps are unique.
    last_used: u64,
}

#[derive(Debug)]
struct CacheInner<K, V> {
    map: HashMap<K, CacheEntry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Default for CacheInner<K, V> {
    fn default() -> Self {
        CacheInner {
            map: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

/// A bounded LRU map with deterministic eviction and shared counters.
///
/// Values are returned by clone, so callers typically store `Arc<T>`.
/// Lookup and insert are split (`lookup` / `insert_after_miss`) so the
/// caller can run expensive construction — and its fault-injection site —
/// outside the lock.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: AtomicUsize,
    inner: Mutex<CacheInner<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create an empty cache holding at most `capacity` entries
    /// (`0` = caching disabled).
    pub fn with_capacity(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity: AtomicUsize::new(capacity),
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Current capacity bound (`0` = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Change the capacity bound, immediately evicting down to it if the
    /// cache currently holds more entries. `0` disables the cache and
    /// drops every entry (dropped entries do not count as evictions).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut guard = self.lock();
        if capacity == 0 {
            guard.map.clear();
        }
        Self::evict_to_cap(&mut guard, capacity);
    }

    /// Look `key` up. A hit refreshes the entry's LRU position and counts
    /// toward `hits`; a miss counts nothing (the miss is recorded by the
    /// matching [`insert_after_miss`](Self::insert_after_miss)). A
    /// disabled cache always misses.
    pub fn lookup(&self, key: &K) -> Option<V> {
        if self.capacity() == 0 {
            return None;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let now = inner.tick;
        if let Some(entry) = inner.map.get_mut(key) {
            entry.last_used = now;
            inner.hits += 1;
            return Some(entry.value.clone());
        }
        None
    }

    /// Record a miss and insert the freshly constructed `value`, keeping
    /// an already-present entry if a racing request inserted first.
    /// Returns the canonical cached value (the winner of any race) and
    /// evicts down to capacity. A disabled cache returns `value`
    /// untouched and counts nothing.
    pub fn insert_after_miss(&self, key: K, value: V) -> V {
        let cap = self.capacity();
        if cap == 0 {
            return value;
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let now = inner.tick;
        inner.misses += 1;
        let entry = inner.map.entry(key).or_insert(CacheEntry {
            value,
            last_used: now,
        });
        entry.last_used = now;
        let out = entry.value.clone();
        Self::evict_to_cap(inner, cap);
        out
    }

    /// Hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity.load(Ordering::Relaxed),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all cached entries. The hit/miss/eviction counters are
    /// preserved (dropped entries do not count as evictions).
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Lock the interior map; a poisoned lock (a panic while holding it,
    /// e.g. from fault injection in a test) is recovered rather than
    /// propagated — the map is always in a consistent state between
    /// operations.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner<K, V>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Evicts least-recently-used entries until `len <= cap`. Access
    /// timestamps are unique, so the victim order is deterministic
    /// regardless of `HashMap` iteration order.
    fn evict_to_cap(inner: &mut CacheInner<K, V>, cap: usize) {
        while inner.map.len() > cap {
            // O(len) scan; len is bounded by the capacity and eviction is
            // off the generation hot path.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    inner.map.remove(&k);
                    inner.evictions += 1;
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn get_or_fill(cache: &LruCache<u64, Arc<u64>>, key: u64) -> Arc<u64> {
        if let Some(v) = cache.lookup(&key) {
            return v;
        }
        cache.insert_after_miss(key, Arc::new(key * 10))
    }

    #[test]
    fn lru_eviction_is_deterministic_and_counted() {
        let cache: LruCache<u64, Arc<u64>> = LruCache::with_capacity(2);
        let a = get_or_fill(&cache, 1);
        let _b = get_or_fill(&cache, 2);
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(Arc::ptr_eq(&a, &get_or_fill(&cache, 1)));
        let _c = get_or_fill(&cache, 3);
        let s = cache.stats();
        assert_eq!(
            (s.len, s.capacity, s.evictions, s.hits, s.misses),
            (2, 2, 1, 1, 3)
        );
        assert!(Arc::ptr_eq(&a, &get_or_fill(&cache, 1)));
    }

    #[test]
    fn zero_capacity_disables_and_set_capacity_evicts_down() {
        let cache: LruCache<u64, Arc<u64>> = LruCache::with_capacity(0);
        let a = get_or_fill(&cache, 1);
        assert!(!Arc::ptr_eq(&a, &get_or_fill(&cache, 1)), "nothing shared");
        let s = cache.stats();
        assert_eq!((s.len, s.hits, s.misses, s.evictions), (0, 0, 0, 0));
        cache.set_capacity(8);
        for k in 0..5 {
            get_or_fill(&cache, k);
        }
        assert_eq!(cache.len(), 5);
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 3);
        // The survivors are the two most recently used (keys 3 and 4).
        let before = cache.stats().misses;
        get_or_fill(&cache, 3);
        get_or_fill(&cache, 4);
        assert_eq!(cache.stats().misses, before, "3 and 4 must be hits");
        // Disabling a populated cache drops its entries without counting
        // them as evictions.
        cache.set_capacity(0);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 3);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache: LruCache<u64, Arc<u64>> = LruCache::with_capacity(4);
        get_or_fill(&cache, 1);
        get_or_fill(&cache, 1);
        cache.clear();
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn racing_first_insert_wins() {
        let cache: LruCache<u64, Arc<u64>> = LruCache::with_capacity(4);
        let first = cache.insert_after_miss(7, Arc::new(70));
        let second = cache.insert_after_miss(7, Arc::new(70));
        assert!(Arc::ptr_eq(&first, &second), "first insert must win");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 1);
    }
}
