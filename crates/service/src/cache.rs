//! A sharded LRU cache for compile results.
//!
//! Keys are the request source texts themselves, so a hit always means
//! the same program: a hash match alone never counts. A server's driver
//! is fixed for its lifetime, so the key needs no configuration part.
//!
//! The map is split into shards, each behind its own mutex, so compile
//! workers and connection threads touching different shards never
//! contend. Within a shard, recency is a monotonic tick per entry;
//! eviction scans the (small, bounded) shard for the minimum tick — an
//! exact LRU without the linked-list bookkeeping, O(shard size) only on
//! insertion over capacity.
//!
//! Hit / miss / insertion / eviction counts are global atomics, exported
//! by `/metrics` and asserted on by the integration tests.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lc_driver::sync::lock_recovering;

/// A snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct Entry<V> {
    value: Arc<V>,
    tick: u64,
}

struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    clock: u64,
}

/// The sharded LRU. Values are handed out as `Arc<V>` so a hit never
/// copies the cached payload.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Picks a key's shard.
    hasher: RandomState,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
}

impl<V> ShardedLru<V> {
    /// A cache of ~`capacity` total entries spread over `shards` shards
    /// (each shard gets `ceil(capacity / shards)`, minimum 1). `shards`
    /// is rounded up to 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            hasher: RandomState::new(),
            capacity_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[(self.hasher.hash_one(key) % self.shards.len() as u64) as usize]
    }

    /// Look up `key`, refreshing its recency on a hit. Poisoned shards
    /// are recovered: no critical section below leaves a shard
    /// structurally broken mid-update, so a panicked worker must not
    /// disable the cache for everyone else.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let mut shard = lock_recovering(self.shard(key));
        shard.clock += 1;
        let now = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.tick = now;
                let value = Arc::clone(&entry.value);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the shard's least-recently
    /// used entry when the shard is at capacity.
    pub fn insert(&self, key: String, value: V) {
        let mut shard = lock_recovering(self.shard(&key));
        shard.clock += 1;
        let tick = shard.clock;
        let is_new = !shard.map.contains_key(&key);
        if is_new && shard.map.len() >= self.capacity_per_shard {
            let victim = shard.map.iter().min_by_key(|(_, e)| e.tick);
            if let Some(victim) = victim.map(|(k, _)| k.clone()) {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value: Arc::new(value),
                tick,
            },
        );
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if is_new {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: u32) -> String {
        k.to_string()
    }

    #[test]
    fn hit_miss_and_insert_counting() {
        let cache: ShardedLru<String> = ShardedLru::new(8, 2);
        assert!(cache.get("1").is_none());
        cache.insert(key(1), "one".to_string());
        assert_eq!(cache.get("1").as_deref(), Some(&"one".to_string()));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions, c.entries), (1, 1, 1, 1));
    }

    #[test]
    fn distinct_sources_get_distinct_entries() {
        // One shard, capacity 2: the two programs share the shard, so
        // only their full text tells them apart.
        let a = "array A[4];\ndoall i = 1..4 { A[i] = i; }";
        let b = "array A[4];\ndoall i = 1..4 { A[i] = 2 * i; }";
        let cache: ShardedLru<&str> = ShardedLru::new(2, 1);
        cache.insert(a.to_string(), "body of a");
        assert!(cache.get(b).is_none(), "a different source must miss");
        cache.insert(b.to_string(), "body of b");
        assert_eq!(cache.get(a).as_deref(), Some(&"body of a"));
        assert_eq!(cache.get(b).as_deref(), Some(&"body of b"));
        // A third source evicts the least recently used one, `a`.
        cache.insert(format!("{b} "), "body of b with a space");
        assert!(cache.get(a).is_none());
        let c = cache.counters();
        assert_eq!(
            (c.hits, c.misses, c.insertions, c.evictions, c.entries),
            (2, 2, 3, 1, 2)
        );
    }

    #[test]
    fn evicts_the_least_recently_used_entry_per_shard() {
        // One shard, capacity 2: inserting a third key evicts the LRU.
        let cache: ShardedLru<u32> = ShardedLru::new(2, 1);
        cache.insert(key(10), 10);
        cache.insert(key(20), 20);
        // Touch 10 so 20 becomes the LRU.
        assert!(cache.get("10").is_some());
        cache.insert(key(30), 30);
        assert!(cache.get("20").is_none(), "LRU entry should be gone");
        assert!(cache.get("10").is_some());
        assert!(cache.get("30").is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().entries, 2);
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let cache: ShardedLru<u32> = ShardedLru::new(2, 1);
        cache.insert(key(1), 1);
        cache.insert(key(2), 2);
        cache.insert(key(1), 100); // refresh, not a new entry
        assert_eq!(cache.counters().evictions, 0);
        assert_eq!(*cache.get("1").unwrap(), 100);
        assert!(cache.get("2").is_some());
    }

    #[test]
    fn keys_spread_across_shards() {
        // Room for every key in any one shard: nothing is evicted.
        let cache: ShardedLru<u32> = ShardedLru::new(512, 8);
        for k in 0..64 {
            cache.insert(key(k), k);
        }
        assert_eq!(cache.counters().entries, 64);
        assert_eq!(cache.counters().evictions, 0);
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert!(populated >= 4, "keys should hit most shards");
    }

    #[test]
    fn survives_a_panicked_lock_holder() {
        use std::sync::Arc;
        let cache: Arc<ShardedLru<u32>> = Arc::new(ShardedLru::new(8, 1));
        cache.insert(key(1), 11);
        let c2 = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = c2.shards[0].lock().unwrap();
            panic!("worker died holding the shard");
        })
        .join();
        // The shard mutex is now poisoned; the cache must keep working.
        assert_eq!(cache.get("1").as_deref(), Some(&11));
        cache.insert(key(2), 22);
        assert_eq!(cache.get("2").as_deref(), Some(&22));
    }
}
