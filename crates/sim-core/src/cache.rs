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
//!   the value straight through, without advancing any counter;
//! * capacity counts *slots*: an entry takes one slot per started
//!   [`SLOT_BYTES`] of the heap it retains (at least one), so a cache of
//!   large values — 90-day job sets and outcomes weigh megabytes — is
//!   bounded in memory, not just in count. Caches built with
//!   [`LruCache::with_capacity`] weigh every entry as one slot.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Heap bytes one cache slot stands for (see [`LruCache::with_sizer`]).
/// A week-long scenario's job set or outcome (about a thousand jobs)
/// fits in one slot, so small entries keep the full entry count.
pub const SLOT_BYTES: usize = 256 * 1024;

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
    /// Capacity slots this entry occupies (≥ 1).
    slots: usize,
}

#[derive(Debug)]
struct CacheInner<K, V> {
    map: HashMap<K, CacheEntry<V>>,
    /// Σ `slots` over `map`.
    used: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Default for CacheInner<K, V> {
    fn default() -> Self {
        CacheInner {
            map: HashMap::new(),
            used: 0,
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
    /// Approximate heap bytes a value retains; sets its slot count.
    bytes_of: fn(&V) -> usize,
    inner: Mutex<CacheInner<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create an empty cache holding at most `capacity` entries
    /// (`0` = caching disabled).
    pub fn with_capacity(capacity: usize) -> LruCache<K, V> {
        Self::with_sizer(capacity, |_| 0)
    }

    /// Create an empty cache of `capacity` slots (`0` = caching
    /// disabled) whose entries take one slot per started [`SLOT_BYTES`]
    /// of `bytes_of(value)`, and at least one.
    pub fn with_sizer(capacity: usize, bytes_of: fn(&V) -> usize) -> LruCache<K, V> {
        LruCache {
            capacity: AtomicUsize::new(capacity),
            bytes_of,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Current capacity bound (`0` = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Change the capacity bound, immediately evicting down to it if the
    /// cache currently holds more. `0` disables the cache and drops every
    /// entry (dropped entries do not count as evictions).
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut guard = self.lock();
        if capacity == 0 {
            guard.map.clear();
            guard.used = 0;
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
    /// evicts down to capacity; the value just inserted always stays,
    /// even when it alone outweighs the capacity. A disabled cache
    /// returns `value` untouched and counts nothing.
    pub fn insert_after_miss(&self, key: K, value: V) -> V {
        let cap = self.capacity();
        if cap == 0 {
            return value;
        }
        let slots = (self.bytes_of)(&value).div_ceil(SLOT_BYTES).max(1);
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let now = inner.tick;
        inner.misses += 1;
        let entry = inner.map.entry(key).or_insert_with(|| {
            inner.used += slots;
            CacheEntry {
                value,
                last_used: now,
                slots,
            }
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

    /// Evicts least-recently-used entries until the entries left fit in
    /// `cap` slots or only the most recently used one is left. Access
    /// timestamps are unique, so the victim order is deterministic
    /// regardless of `HashMap` iteration order.
    fn evict_to_cap(inner: &mut CacheInner<K, V>, cap: usize) {
        while inner.used > cap && inner.map.len() > 1 {
            // O(len) scan; len is bounded by the capacity and eviction is
            // off the generation hot path.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(e) = inner.map.remove(&k) {
                        inner.used -= e.slots;
                    }
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
    fn large_entries_take_one_slot_per_started_slot_bytes() {
        // The value is its own size in bytes.
        let cache: LruCache<u64, usize> = LruCache::with_sizer(4, |&bytes| bytes);
        cache.insert_after_miss(1, 10); // 1 slot
        cache.insert_after_miss(2, SLOT_BYTES); // 1 slot
        cache.insert_after_miss(3, SLOT_BYTES + 1); // 2 slots: 4 used
        assert_eq!((cache.len(), cache.stats().evictions), (3, 0));
        // 2 more slots push out the two least recently used entries.
        cache.insert_after_miss(4, 2 * SLOT_BYTES);
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.lookup(&1).is_none() && cache.lookup(&2).is_none());
        assert!(cache.lookup(&3).is_some() && cache.lookup(&4).is_some());
        // An entry heavier than the whole capacity still memoizes: it
        // stays alone until the next insert.
        cache.insert_after_miss(5, 10 * SLOT_BYTES);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&5), Some(10 * SLOT_BYTES));
        cache.insert_after_miss(6, 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&6), Some(0));
        // Shrinking the capacity evicts by slots, too.
        cache.set_capacity(8);
        cache.insert_after_miss(7, 2 * SLOT_BYTES);
        cache.insert_after_miss(8, 2 * SLOT_BYTES);
        cache.set_capacity(3);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&8).is_some());
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
