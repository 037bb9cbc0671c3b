//! The sharded plan cache: bounded CLOCK eviction and per-entry TTL with
//! a shorter negative TTL.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use offloadnn_telemetry::{span, Counter, Registry};

use crate::fingerprint::PlanKey;
use crate::stats::{AtomicStats, PlanCacheStats};

/// Tuning knobs for a [`PlanCache`]. `Copy + Eq` so it can ride inside
/// `ServiceConfig` unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheConfig {
    /// Maximum resident entries across all shards.
    pub capacity: usize,
    /// Number of independently locked shards (rounded up to ≥ 1).
    pub shards: usize,
    /// Time-to-live for positive (admit) entries.
    pub ttl: Duration,
    /// Time-to-live for entries inserted as negative; keep this short so
    /// a transiently saturated ledger cannot keep rejecting a shape that
    /// has since become feasible. The serve tier inserts none: its
    /// rejections live in a per-shard memo with no TTL.
    pub negative_ttl: Duration,
}

impl Default for PlanCacheConfig {
    fn default() -> Self {
        PlanCacheConfig {
            capacity: 4096,
            shards: 8,
            ttl: Duration::from_secs(5),
            negative_ttl: Duration::from_millis(250),
        }
    }
}

impl PlanCacheConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// The reason, naming the offending field, as a static string so
    /// callers can pass it through their own `InvalidConfig` variant.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.capacity == 0 {
            return Err("plan_cache.capacity must be positive");
        }
        if self.shards == 0 {
            return Err("plan_cache.shards must be positive");
        }
        if self.ttl.is_zero() || self.negative_ttl.is_zero() {
            return Err("plan_cache.ttl and plan_cache.negative_ttl must be positive");
        }
        if self.negative_ttl > self.ttl {
            return Err("plan_cache.negative_ttl must not exceed plan_cache.ttl");
        }
        Ok(())
    }
}

/// A cache hit: the memoized value plus whether it was a negative entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cached<V> {
    /// The memoized plan value.
    pub value: V,
    /// True for negative (infeasible-shape) entries.
    pub negative: bool,
}

struct Entry<V> {
    key: PlanKey,
    value: V,
    negative: bool,
    expires: Instant,
    referenced: bool,
}

/// One independently locked cache shard running the CLOCK second-chance
/// policy over a fixed slot arena.
struct CacheShard<V> {
    map: HashMap<PlanKey, usize>,
    slots: Vec<Option<Entry<V>>>,
    free: Vec<usize>,
    hand: usize,
}

impl<V: Clone> CacheShard<V> {
    fn new(capacity: usize) -> Self {
        CacheShard {
            map: HashMap::with_capacity(capacity),
            slots: (0..capacity).map(|_| None).collect(),
            free: (0..capacity).rev().collect(),
            hand: 0,
        }
    }

    fn remove(&mut self, key: &PlanKey) -> bool {
        if let Some(slot) = self.map.remove(key) {
            self.slots[slot] = None;
            self.free.push(slot);
            true
        } else {
            false
        }
    }

    /// Claims a slot, evicting with second chance when the arena is full.
    /// Returns the slot index and whether an entry was evicted.
    fn claim_slot(&mut self) -> (usize, bool) {
        if let Some(slot) = self.free.pop() {
            return (slot, false);
        }
        let n = self.slots.len();
        // Two sweeps guarantee progress: the first clears reference bits,
        // the second finds an unreferenced victim.
        for _ in 0..2 * n {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            match &mut self.slots[slot] {
                Some(entry) if entry.referenced => entry.referenced = false,
                Some(entry) => {
                    let key = entry.key;
                    self.map.remove(&key);
                    self.slots[slot] = None;
                    return (slot, true);
                }
                None => return (slot, false),
            }
        }
        unreachable!("CLOCK sweep must find a victim within two passes");
    }
}

/// A concurrent, sharded plan cache.
///
/// Generic over the memoized value (the serve tier stores full
/// admission plans). All methods take `&self`; the cache is shared as an
/// `Arc` between shard workers.
pub struct PlanCache<V: Clone> {
    config: PlanCacheConfig,
    shards: Vec<Mutex<CacheShard<V>>>,
    stats: AtomicStats,
    mirror: Option<Mirror>,
}

/// Optional telemetry mirror of the always-on atomic stats, registered on
/// a caller-supplied [`Registry`] so exporters see `plancache.*` next to
/// the service's other series.
struct Mirror {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
}

impl<V: Clone> std::fmt::Debug for PlanCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("config", &self.config)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<V: Clone> PlanCache<V> {
    /// Builds a cache with no telemetry mirror.
    pub fn new(config: PlanCacheConfig) -> Self {
        Self::build(config, None)
    }

    /// Builds a cache whose counters are mirrored onto `registry` as
    /// `plancache.hits` / `.misses` / `.evictions` / `.invalidations`.
    pub fn with_registry(config: PlanCacheConfig, registry: &Registry) -> Self {
        let mirror = Mirror {
            hits: registry.counter("plancache.hits"),
            misses: registry.counter("plancache.misses"),
            evictions: registry.counter("plancache.evictions"),
            invalidations: registry.counter("plancache.invalidations"),
        };
        Self::build(config, Some(mirror))
    }

    fn build(config: PlanCacheConfig, mirror: Option<Mirror>) -> Self {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.div_ceil(shards).max(1);
        PlanCache {
            config,
            shards: (0..shards).map(|_| Mutex::new(CacheShard::new(per_shard))).collect(),
            stats: AtomicStats::default(),
            mirror,
        }
    }

    fn shard_for(&self, key: &PlanKey) -> &Mutex<CacheShard<V>> {
        // The fingerprint is already a high-quality 64-bit hash; fold in
        // the bucket and generation so sibling keys spread across shards.
        let h = key.shape.0 ^ key.bucket as u64 ^ key.generation.rotate_left(17);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, returning the memoized value if present and
    /// unexpired. An expired entry is dropped in place and counted.
    pub fn lookup(&self, key: &PlanKey) -> Option<Cached<V>> {
        let _span = span!("plancache.lookup");
        let now = Instant::now();
        let mut shard = self.shard_for(key).lock().expect("plancache shard poisoned");
        let Some(&slot) = shard.map.get(key) else {
            drop(shard);
            self.count_miss();
            return None;
        };
        let entry = shard.slots[slot].as_ref().expect("mapped slot must be occupied");
        if entry.expires <= now {
            shard.remove(key);
            drop(shard);
            self.stats.expirations.fetch_add(1, Ordering::Relaxed);
            self.count_miss();
            return None;
        }
        let entry = shard.slots[slot].as_mut().expect("mapped slot must be occupied");
        entry.referenced = true;
        let cached = Cached { value: entry.value.clone(), negative: entry.negative };
        drop(shard);
        if cached.negative {
            self.stats.negative_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(m) = &self.mirror {
            m.hits.inc();
        }
        Some(cached)
    }

    fn count_miss(&self) {
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.mirror {
            m.misses.inc();
        }
    }

    /// Inserts (or overwrites) `key`. Negative entries get the shorter
    /// negative TTL.
    pub fn insert(&self, key: PlanKey, value: V, negative: bool) {
        let ttl = if negative { self.config.negative_ttl } else { self.config.ttl };
        let entry = Entry { key, value, negative, expires: Instant::now() + ttl, referenced: true };
        let mut shard = self.shard_for(&key).lock().expect("plancache shard poisoned");
        let evicted = if let Some(&slot) = shard.map.get(&key) {
            shard.slots[slot] = Some(entry);
            false
        } else {
            let (slot, evicted) = shard.claim_slot();
            shard.slots[slot] = Some(entry);
            shard.map.insert(key, slot);
            evicted
        };
        drop(shard);
        self.stats.inserts.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.mirror {
                m.evictions.inc();
            }
        }
    }

    /// Drops `key` after a hit whose plan failed re-validation against the
    /// live ledger, so the next request for the shape re-solves.
    pub fn note_validation_failure(&self, key: &PlanKey) {
        let removed = self.shard_for(key).lock().expect("plancache shard poisoned").remove(key);
        self.stats.validation_failures.fetch_add(1, Ordering::Relaxed);
        if removed {
            self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.mirror {
                m.invalidations.inc();
            }
        }
    }

    /// Counts a rejection the caller replayed from its own memo (the serve
    /// tier keeps one per shard, beside that shard's ledger) as a lookup
    /// answered without a solve.
    pub fn note_negative_hit(&self) {
        self.stats.negative_hits.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &self.mirror {
            m.hits.inc();
        }
    }

    /// Number of resident entries (for tests and reporting).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("plancache shard poisoned").map.len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of the cache statistics.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::ShapeFingerprint;
    use std::thread;

    fn key(n: u64) -> PlanKey {
        PlanKey { shape: ShapeFingerprint(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)), bucket: 0, generation: 0 }
    }

    fn tiny(capacity: usize) -> PlanCache<u64> {
        PlanCache::new(PlanCacheConfig { capacity, shards: 1, ..Default::default() })
    }

    #[test]
    fn insert_then_lookup_hits() {
        let cache = tiny(8);
        cache.insert(key(1), 42, false);
        let hit = cache.lookup(&key(1)).expect("must hit");
        assert_eq!(hit.value, 42);
        assert!(!hit.negative);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 0, 1));
    }

    #[test]
    fn negative_entries_report_negative_hits() {
        let cache = tiny(8);
        cache.insert(key(2), 0, true);
        assert!(cache.lookup(&key(2)).expect("must hit").negative);
        assert_eq!(cache.stats().negative_hits, 1);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn ttl_expiry_forces_a_miss_and_negative_ttl_is_shorter() {
        let cache = PlanCache::new(PlanCacheConfig {
            capacity: 8,
            shards: 1,
            ttl: Duration::from_millis(50),
            negative_ttl: Duration::from_millis(5),
        });
        cache.insert(key(1), 1, false);
        cache.insert(key(2), 2, true);
        thread::sleep(Duration::from_millis(10));
        // Negative entry lapsed, positive still live.
        assert!(cache.lookup(&key(2)).is_none());
        assert!(cache.lookup(&key(1)).is_some());
        thread::sleep(Duration::from_millis(50));
        assert!(cache.lookup(&key(1)).is_none());
        assert_eq!(cache.stats().expirations, 2);
    }

    #[test]
    fn clock_eviction_gives_referenced_entries_a_second_chance() {
        let cache = tiny(4);
        for i in 0..4 {
            cache.insert(key(i), i, false);
        }
        // Inserts set the reference bit; a full first sweep clears them.
        // Touch key(0) right before overflowing so it survives the sweep
        // that evicts an untouched sibling.
        for i in 0..4 {
            assert!(cache.lookup(&key(i)).is_some());
        }
        cache.insert(key(4), 4, false);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 4);
        // The freshly inserted key must be resident.
        assert!(cache.lookup(&key(4)).is_some());
    }

    #[test]
    fn validation_failure_drops_the_entry() {
        let cache = tiny(8);
        cache.insert(key(1), 1, false);
        cache.note_validation_failure(&key(1));
        assert!(cache.lookup(&key(1)).is_none());
        let s = cache.stats();
        assert_eq!(s.validation_failures, 1);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn capacity_is_bounded_across_shards() {
        let cache = PlanCache::new(PlanCacheConfig { capacity: 64, shards: 8, ..Default::default() });
        for i in 0..1000 {
            cache.insert(key(i), i, false);
        }
        assert!(cache.len() <= 64, "len {} exceeds capacity", cache.len());
        assert!(cache.stats().evictions >= 1000 - 64);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(PlanCacheConfig::default().validate().is_ok());
        assert!(PlanCacheConfig { capacity: 0, ..Default::default() }.validate().is_err());
        assert!(PlanCacheConfig { shards: 0, ..Default::default() }.validate().is_err());
        assert!(PlanCacheConfig { ttl: Duration::ZERO, ..Default::default() }.validate().is_err());
        assert!(PlanCacheConfig { negative_ttl: Duration::from_secs(60), ..Default::default() }
            .validate()
            .is_err());
    }
}
