//! Shared prepared-scenario cache — the daemon's hot-site store.
//!
//! Preparing a scenario (weather synthesis, unit profiles, CI/price
//! signals, load trace) is the expensive part of answering a study
//! request; the search itself reuses those arrays read-only. A
//! [`PreparedCache`] keys fully-prepared [`PreparedScenario`]s by the
//! **canonical serialization of the entire [`ScenarioConfig`]**, so two
//! scenarios differing in a single field — one weather-jitter seed, one
//! battery choice — can never collide, and hands them out as
//! [`Arc`]s that stay alive for in-flight studies even after eviction.
//!
//! Concurrency: the map lock is held only to look up or insert a slot;
//! the actual preparation runs outside it through a per-slot
//! [`OnceLock`], so distinct scenarios prepare in parallel while
//! concurrent requests for the *same* scenario block on one preparation
//! instead of duplicating it. A preparation that panics removes its slot,
//! so a scenario that cannot be prepared never pins cache capacity.
//!
//! An entry carries more than inputs: each [`PreparedScenario`] holds its
//! member's per-site result table (see its docs), so every uncapped study
//! handed the same entry shares one table, and a (site, composition)
//! pair walked by one study is a lookup for the next. Eviction drops the
//! table with the entry.
//!
//! Every lookup bumps [`Counter::PrepCacheHits`] or
//! [`Counter::PrepCacheMisses`], surfacing the hit rate in the
//! `MGOPT_TRACE` counter snapshot.

// mgopt-lint: allow(determinism) — prepared-site cache is keyed lookup only; eviction scans use the ordered tick, not map order
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mgopt_telemetry::{self as telemetry, Counter};

use crate::scenario::{PreparedScenario, ScenarioConfig};

/// The canonical cache key: the config's compact JSON. Collision-free by
/// construction (equal keys ⇔ equal configs), at the cost of a string
/// compare per lookup — negligible next to a preparation.
pub fn scenario_cache_key(config: &ScenarioConfig) -> String {
    serde_json::to_string(config).expect("scenario configs always encode")
}

/// A short FNV-1a digest of the canonical key, for logs and trace events
/// (never used for lookup, so digest collisions are cosmetic).
pub fn scenario_key_hash(config: &ScenarioConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in scenario_cache_key(config).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Slot {
    cell: Arc<OnceLock<Arc<PreparedScenario>>>,
    last_used: u64,
}

struct Inner {
    slots: HashMap<String, Slot>,
    tick: u64,
}

/// A bounded, thread-safe cache of prepared scenarios (LRU eviction).
pub struct PreparedCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PreparedCache {
    /// Create a cache holding at most `capacity` prepared scenarios
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                // mgopt-lint: allow(determinism) — victim choice is min_by_key over unique ticks, order-independent
                slots: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached (or in-flight) scenarios.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the prepared form of `config`, synthesizing it at most once
    /// per cache residency. Returns the shared scenario and whether this
    /// lookup was a hit (`true`) or had to prepare (`false`).
    ///
    /// The returned [`Arc`] is yours regardless of later evictions — a
    /// study holding it is never invalidated under load.
    pub fn get_or_prepare(&self, config: &ScenarioConfig) -> (Arc<PreparedScenario>, bool) {
        let key = scenario_cache_key(config);
        let (cell, hit) = {
            let mut inner = self.inner.lock().unwrap();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.get_mut(&key) {
                slot.last_used = tick;
                (Arc::clone(&slot.cell), true)
            } else {
                let cell = Arc::new(OnceLock::new());
                inner.slots.insert(
                    key.clone(),
                    Slot {
                        cell: Arc::clone(&cell),
                        last_used: tick,
                    },
                );
                if inner.slots.len() > self.capacity {
                    evict_lru(&mut inner, &key);
                }
                (cell, false)
            }
        };
        telemetry::add(
            if hit {
                Counter::PrepCacheHits
            } else {
                Counter::PrepCacheMisses
            },
            1,
        );
        let _unwind = RemoveIfUnprepared {
            inner: &self.inner,
            key: &key,
            cell: &cell,
        };
        let prepared = Arc::clone(cell.get_or_init(|| Arc::new(config.prepare())));
        (prepared, hit)
    }
}

/// Drop guard for a preparation: if it unwinds, the slot's cell stays
/// empty, and [`evict_lru`] never evicts an empty slot, so the guard
/// removes it — unless the key already maps to a newer slot. After a
/// successful preparation it does nothing.
struct RemoveIfUnprepared<'a> {
    inner: &'a Mutex<Inner>,
    key: &'a str,
    cell: &'a Arc<OnceLock<Arc<PreparedScenario>>>,
}

impl Drop for RemoveIfUnprepared<'_> {
    fn drop(&mut self) {
        if self.cell.get().is_some() {
            return;
        }
        // Never panic while unwinding; the map stays consistent.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner
            .slots
            .get(self.key)
            .is_some_and(|slot| Arc::ptr_eq(&slot.cell, self.cell))
        {
            inner.slots.remove(self.key);
        }
    }
}

/// Evict the least-recently-used *initialized* slot other than `keep`.
/// In-flight slots (preparation still running) are never evicted, so a
/// burst of distinct scenarios can transiently exceed capacity rather
/// than lose work.
fn evict_lru(inner: &mut Inner, keep: &str) {
    if let Some(victim) = inner
        .slots
        .iter()
        .filter(|(k, slot)| k.as_str() != keep && slot.cell.get().is_some())
        .min_by_key(|(_, slot)| slot.last_used)
        .map(|(k, _)| k.clone())
    {
        inner.slots.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_microgrid::CompositionSpace;

    fn tiny(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = PreparedCache::new(4);
        let (a, hit_a) = cache.get_or_prepare(&tiny(1));
        let (b, hit_b) = cache.get_or_prepare(&tiny(1));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn seed_jitter_does_not_collide() {
        // Two scenarios differing only in the weather/workload seed must
        // occupy distinct cache entries with distinct prepared inputs.
        let cache = PreparedCache::new(4);
        assert_ne!(scenario_cache_key(&tiny(1)), scenario_cache_key(&tiny(2)));
        let (a, _) = cache.get_or_prepare(&tiny(1));
        let (b, hit) = cache.get_or_prepare(&tiny(2));
        assert!(!hit, "different seed must miss");
        assert_eq!(cache.len(), 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.load, b.load, "jittered workloads must differ");
    }

    #[test]
    fn lru_eviction_keeps_hot_entries_and_live_arcs() {
        let cache = PreparedCache::new(2);
        let (first, _) = cache.get_or_prepare(&tiny(1));
        let _ = cache.get_or_prepare(&tiny(2));
        let _ = cache.get_or_prepare(&tiny(1)); // touch 1: seed 2 is now LRU
        let _ = cache.get_or_prepare(&tiny(3)); // evicts seed 2
        assert_eq!(cache.len(), 2);
        let (_, hit1) = cache.get_or_prepare(&tiny(1));
        assert!(hit1, "hot entry survived eviction");
        let (_, hit2) = cache.get_or_prepare(&tiny(2));
        assert!(!hit2, "LRU entry was evicted");
        // The Arc handed out before eviction is still fully usable.
        assert_eq!(first.load.len(), first.data.len());
    }

    #[test]
    fn concurrent_same_key_prepares_once() {
        let cache = Arc::new(PreparedCache::new(4));
        let arcs: Vec<Arc<PreparedScenario>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || cache.get_or_prepare(&tiny(9)).0)
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for other in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], other));
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_panicking_preparation_leaves_no_slot_behind() {
        let cache = PreparedCache::new(2);
        let _ = cache.get_or_prepare(&tiny(1));
        // Steps `prepare()` panics on, as many as the cache holds and more.
        for seed in 2..5 {
            let bad = ScenarioConfig {
                step_minutes: 7,
                ..tiny(seed)
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_prepare(&bad)
            }));
            assert!(outcome.is_err(), "step 7 min must panic in prepare()");
            assert_eq!(cache.len(), 1, "the failed slot was removed");
        }
        let (_, hit) = cache.get_or_prepare(&tiny(1));
        assert!(hit, "the hot entry survived");
        let _ = cache.get_or_prepare(&tiny(2));
        let (_, hit) = cache.get_or_prepare(&tiny(1));
        assert!(hit, "good seeds still share the cache");
    }

    #[test]
    fn key_hash_is_stable_and_seed_sensitive() {
        assert_eq!(scenario_key_hash(&tiny(1)), scenario_key_hash(&tiny(1)));
        assert_ne!(scenario_key_hash(&tiny(1)), scenario_key_hash(&tiny(2)));
    }
}
