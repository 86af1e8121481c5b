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
//! Concurrency: the map lock is held only to look up or insert slots;
//! the actual preparation runs outside it through a per-slot
//! [`OnceLock`], so distinct scenarios prepare in parallel while
//! concurrent requests for the *same* scenario block on one preparation
//! instead of duplicating it. A preparation that panics removes the
//! slots its call inserted and left empty, so a scenario that cannot be
//! prepared never pins cache capacity.
//!
//! ## A fleet's members: look up all, then prepare the misses by seed
//!
//! [`FleetScenario::prepare_shared`](crate::FleetScenario::prepare_shared)
//! first looks up every member's slot, in one lock, inserting a slot for
//! each member that misses. Inserting evicts least-recently-used filled
//! slots, so the victims are gone before any preparation allocates and a
//! cold fleet holds no more memory than preparing its members one at a
//! time. Only then does it prepare the members it inserted, grouped by
//! (step, seed): a group is one pass that draws every random stream once
//! for all its members, and members that share (workload, step, seed)
//! share one generated load. Each member stays bit-identical to
//! preparing it alone.
//!
//! The group runs inside the `OnceLock` of its first member's slot and
//! fills its other members' slots with `OnceLock::set`. A call that found
//! a slot already present waits on that slot alone, falling back to the
//! member's own preparation if the slot is still empty. So:
//!
//! * calls that list the same members in the same order prepare each
//!   member once (the second finds every slot present and waits);
//! * calls that list shared members in different orders cannot deadlock:
//!   only a group touches more than one slot, and only the slots its own
//!   call inserted, while a fallback touches its own slot alone;
//! * [`PrepStats`](crate::PrepStats) counts a hit or a miss per member.
//!
//! In-flight slots are never evicted, so inserting several at once can
//! overshoot capacity while they prepare; a call that inserted slots
//! evicts back down to capacity once its members are filled.
//!
//! An entry carries more than inputs: each [`PreparedScenario`] holds its
//! member's per-site result table (see its docs), so every fleet study
//! handed the same entry shares one table, and a (site, composition)
//! pair walked by one study is a lookup for the next. Eviction drops the
//! table with the entry.
//!
//! The cache also keeps one plan-peak memo ([`PeakMemo`]) per fleet that
//! [`FleetScenario::prepare_shared`](crate::FleetScenario::prepare_shared)
//! prepared through it, keyed by the members' canonical keys in order, so
//! a plan one capped study walked is a lookup for the next study on the
//! same fleet. It holds at most `capacity` memos and evicts the least
//! recently used, independently of the scenario entries: a memo stays
//! valid when a member is evicted and prepared again, because preparation
//! is deterministic. Each memo takes at most about 1.06 MiB
//! ([`PEAK_MEMO_CAPACITY`](mgopt_microgrid::PEAK_MEMO_CAPACITY) peaks), so
//! all of them at most `capacity` × 1.06 MiB.
//!
//! Every lookup bumps [`Counter::PrepCacheHits`] or
//! [`Counter::PrepCacheMisses`], surfacing the hit rate in the
//! `MGOPT_TRACE` counter snapshot.

// mgopt-lint: allow(determinism) — prepared-site cache is keyed lookup only; eviction scans use the ordered tick, not map order
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mgopt_microgrid::PeakMemo;
use mgopt_telemetry::{self as telemetry, Counter};

use crate::scenario::{prepare_group, seed_groups, PreparedScenario, ScenarioConfig};

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

/// A slot's prepared scenario, filled once.
type Cell = Arc<OnceLock<Arc<PreparedScenario>>>;

struct Slot {
    cell: Cell,
    last_used: u64,
}

/// One fleet's plan-peak memo, under its members' canonical keys.
struct FleetSlot {
    keys: Vec<String>,
    memo: Arc<PeakMemo>,
    last_used: u64,
}

struct Inner {
    slots: HashMap<String, Slot>,
    /// At most `capacity` fleet memos; a short list, scanned.
    fleets: Vec<FleetSlot>,
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
                fleets: Vec::new(),
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
        let mut found = self.get_or_prepare_all(&[scenario_cache_key(config)], &[config]);
        found.pop().expect("one config, one member")
    }

    /// [`get_or_prepare`](Self::get_or_prepare) for several configs at
    /// once, under their canonical `keys`: each member's scenario, in
    /// order, and whether its lookup was a hit.
    ///
    /// 1. **Look up every member first**, in one lock, inserting a slot
    ///    for each one missing (and evicting as usual). Victims go before
    ///    any preparation allocates.
    /// 2. **Prepare the members this call inserted**, one pass per (step,
    ///    seed) group ([`prepare_group`]): the group runs inside its first
    ///    member's cell and fills the others' cells as it ends.
    /// 3. **Read every member's cell.** A cell still empty — a slot
    ///    another call inserted and has not filled yet — is filled with
    ///    that member's own preparation unless its filler gets there
    ///    first.
    ///
    /// The module docs give what this order guarantees. If a preparation
    /// panics, every slot this call inserted and left empty is removed.
    pub(crate) fn get_or_prepare_all(
        &self,
        keys: &[String],
        configs: &[&ScenarioConfig],
    ) -> Vec<(Arc<PreparedScenario>, bool)> {
        assert_eq!(keys.len(), configs.len(), "one key per config");
        let found: Vec<(Cell, bool)> = {
            let mut inner = self.inner.lock().unwrap();
            keys.iter()
                .map(|key| {
                    inner.tick += 1;
                    let tick = inner.tick;
                    if let Some(slot) = inner.slots.get_mut(key) {
                        slot.last_used = tick;
                        return (Arc::clone(&slot.cell), true);
                    }
                    let cell = Arc::new(OnceLock::new());
                    inner.slots.insert(
                        key.clone(),
                        Slot {
                            cell: Arc::clone(&cell),
                            last_used: tick,
                        },
                    );
                    self.shrink(&mut inner);
                    (cell, false)
                })
                .collect()
        };
        for (_, hit) in &found {
            let counter = if *hit {
                Counter::PrepCacheHits
            } else {
                Counter::PrepCacheMisses
            };
            telemetry::add(counter, 1);
        }

        let inserted: Vec<usize> = (0..keys.len()).filter(|&i| !found[i].1).collect();
        let _unwind = RemoveIfUnprepared {
            inner: &self.inner,
            slots: inserted.iter().map(|&i| (&*keys[i], &found[i].0)).collect(),
        };
        let inserted_configs: Vec<&ScenarioConfig> = inserted.iter().map(|&i| configs[i]).collect();
        for group in seed_groups(&inserted_configs) {
            let members: Vec<usize> = group.iter().map(|&k| inserted[k]).collect();
            let first = members[0];
            found[first].0.get_or_init(|| {
                // A member another call filled meanwhile is not redone.
                let todo: Vec<usize> = members
                    .iter()
                    .copied()
                    .filter(|&i| i == first || found[i].0.get().is_none())
                    .collect();
                let todo_configs: Vec<&ScenarioConfig> = todo.iter().map(|&i| configs[i]).collect();
                let mut first_prepared = None;
                for (i, prepared) in todo.into_iter().zip(prepare_group(&todo_configs)) {
                    let prepared = Arc::new(prepared);
                    if i == first {
                        first_prepared = Some(prepared);
                    } else {
                        // A cell another call filled first keeps its value.
                        let _ = found[i].0.set(prepared);
                    }
                }
                first_prepared.expect("the group prepares its first member")
            });
        }
        let members = found
            .iter()
            .zip(configs)
            .map(|((cell, hit), config)| {
                let prepared = cell.get_or_init(|| Arc::new(config.prepare()));
                (Arc::clone(prepared), *hit)
            })
            .collect();
        if !inserted.is_empty() {
            // Slots in flight at insertion could not be evicted then.
            self.shrink(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner));
        }
        members
    }

    /// Evict least-recently-used filled slots while the cache holds more
    /// than `capacity`.
    fn shrink(&self, inner: &mut Inner) {
        while inner.slots.len() > self.capacity && evict_lru(inner) {}
    }

    /// The plan-peak memo of the fleet whose members have the canonical
    /// keys `keys`, in order: empty on first use, then shared by every
    /// call with the same keys until it is the least recently used of
    /// more than `capacity` fleets.
    pub(crate) fn peak_memo(&self, keys: Vec<String>) -> Arc<PeakMemo> {
        // Every step below leaves the list valid, so a poisoned lock is too.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.fleets.iter_mut().find(|slot| slot.keys == keys) {
            slot.last_used = tick;
            return Arc::clone(&slot.memo);
        }
        if inner.fleets.len() >= self.capacity {
            let lru = inner
                .fleets
                .iter()
                .enumerate()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(i, _)| i);
            if let Some(lru) = lru {
                inner.fleets.swap_remove(lru);
            }
        }
        let memo = Arc::default();
        inner.fleets.push(FleetSlot {
            keys,
            memo: Arc::clone(&memo),
            last_used: tick,
        });
        memo
    }
}

/// Drop guard for the slots one lookup inserted: if a preparation
/// unwinds, their cells may stay empty, and [`evict_lru`] never evicts an
/// empty slot, so the guard removes each one still empty — unless its key
/// already maps to a newer slot. After a successful preparation it does
/// nothing.
struct RemoveIfUnprepared<'a> {
    inner: &'a Mutex<Inner>,
    slots: Vec<(&'a str, &'a Cell)>,
}

impl Drop for RemoveIfUnprepared<'_> {
    fn drop(&mut self) {
        if self.slots.iter().all(|(_, cell)| cell.get().is_some()) {
            return;
        }
        // Never panic while unwinding; the map stays consistent.
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        for &(key, cell) in &self.slots {
            if cell.get().is_none()
                && inner
                    .slots
                    .get(key)
                    .is_some_and(|slot| Arc::ptr_eq(&slot.cell, cell))
            {
                inner.slots.remove(key);
            }
        }
    }
}

/// Evict the least-recently-used *filled* slot; `false` when there is
/// none. In-flight slots (preparation still running, the one just
/// inserted among them) are never evicted, so a burst of distinct
/// scenarios can transiently exceed capacity rather than lose work; the
/// call that filled them shrinks the cache back.
fn evict_lru(inner: &mut Inner) -> bool {
    let victim = inner
        .slots
        .iter()
        .filter(|(_, slot)| slot.cell.get().is_some())
        .min_by_key(|(_, slot)| slot.last_used)
        .map(|(k, _)| k.clone());
    match victim {
        Some(key) => inner.slots.remove(&key).is_some(),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetMember, FleetScenario, PrepStats, PreparedFleet};
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
    fn a_cold_fleet_larger_than_the_cache_shrinks_it_back_to_capacity() {
        // Both slots are inserted before either is filled, so neither can
        // evict the other then; the call evicts once both are filled.
        let cache = PreparedCache::new(1);
        let (fleet, stats) = fleet(&[tiny(4), berkeley(4)]).prepare_shared(&cache);
        assert_eq!((stats.misses, fleet.n_sites()), (2, 2));
        assert_eq!(cache.len(), 1);
        let (_, hit) = cache.get_or_prepare(&berkeley(4));
        assert!(hit, "the least recently used member went");
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

        // A group: two members that share a seed, prepared in one pass
        // that panics, leave neither slot behind.
        let cache = PreparedCache::new(4);
        let _ = cache.get_or_prepare(&tiny(1));
        let bad_fleet = fleet(&[
            ScenarioConfig {
                step_minutes: 7,
                ..tiny(5)
            },
            ScenarioConfig {
                step_minutes: 7,
                ..berkeley(5)
            },
        ]);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            bad_fleet.prepare_shared(&cache)
        }));
        assert!(outcome.is_err(), "step 7 min must panic in the group");
        assert_eq!(cache.len(), 1, "both failed slots were removed");
        let (_, hit) = cache.get_or_prepare(&tiny(1));
        assert!(hit, "the hot entry survived the group");
    }

    fn berkeley(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            site: crate::SitePreset::Berkeley,
            ..tiny(seed)
        }
    }

    fn fleet(configs: &[ScenarioConfig]) -> FleetScenario {
        FleetScenario {
            members: configs
                .iter()
                .enumerate()
                .map(|(k, c)| FleetMember {
                    name: format!("m{k}"),
                    scenario: c.clone(),
                })
                .collect(),
        }
    }

    /// Every prepared series of `p` equals `config.prepare()`'s.
    fn equals_own_preparation(p: &PreparedScenario, config: &ScenarioConfig) -> bool {
        let own = config.prepare();
        p.config == *config
            && p.data.weather == own.data.weather
            && p.data.pv_unit_kw == own.data.pv_unit_kw
            && p.data.wind_unit_kw == own.data.wind_unit_kw
            && p.data.ci_g_per_kwh == own.data.ci_g_per_kwh
            && p.data.price_usd_per_mwh == own.data.price_usd_per_mwh
            && p.load == own.load
    }

    /// Run each fleet's `prepare_shared` on its own thread through one
    /// cache, all released at once; panics if any is not done within a
    /// minute, so a deadlock fails instead of hanging.
    fn race(
        cache: &Arc<PreparedCache>,
        fleets: &[FleetScenario],
    ) -> Vec<(PreparedFleet, PrepStats)> {
        let start = Arc::new(std::sync::Barrier::new(fleets.len()));
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = fleets
            .iter()
            .map(|f| {
                let (cache, start, tx, f) =
                    (Arc::clone(cache), Arc::clone(&start), tx.clone(), f.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let done = f.prepare_shared(&cache);
                    let _ = tx.send(());
                    done
                })
            })
            .collect();
        drop(tx);
        for _ in fleets {
            rx.recv_timeout(std::time::Duration::from_secs(60))
                .expect("every preparation finishes: no deadlock, no panic");
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a finished preparation returns"))
            .collect()
    }

    #[test]
    fn fleets_listing_shared_members_in_opposite_orders_never_deadlock() {
        let (h, b) = (tiny(61), berkeley(61));
        for round in 0..3 {
            let cache = Arc::new(PreparedCache::new(4));
            let mut fleets = vec![
                fleet(&[h.clone(), b.clone()]),
                fleet(&[b.clone(), h.clone()]),
            ];
            if round > 0 {
                // A third study inserting one member on its own, so the
                // slots may be inserted by different calls.
                fleets.push(fleet(&[if round == 1 { b.clone() } else { h.clone() }]));
            }
            let done = race(&cache, &fleets);
            for ((prepared, _), f) in done.iter().zip(&fleets) {
                for (p, m) in prepared.members.iter().zip(&f.members) {
                    assert!(equals_own_preparation(p, &m.scenario), "round {round}");
                }
            }
            assert_eq!(cache.len(), 2);
        }
    }

    #[test]
    fn fleets_listing_members_in_one_order_prepare_each_once() {
        let f = fleet(&[tiny(62), berkeley(62)]);
        for _ in 0..3 {
            let cache = Arc::new(PreparedCache::new(4));
            let done = race(&cache, &[f.clone(), f.clone()]);
            let (a, b) = (&done[0].0, &done[1].0);
            for (x, y) in a.members.iter().zip(&b.members) {
                assert!(Arc::ptr_eq(x, y), "both studies share one preparation");
            }
            let misses = done[0].1.misses + done[1].1.misses;
            let hits = done[0].1.hits + done[1].1.hits;
            assert_eq!((misses, hits), (2, 2), "one miss per member");
            for (p, m) in a.members.iter().zip(&f.members) {
                assert!(equals_own_preparation(p, &m.scenario));
            }
        }
    }

    #[test]
    fn fleet_memos_are_shared_per_member_keys_in_order_and_evicted_lru() {
        let cache = PreparedCache::new(2);
        let keys = |k: &[&str]| k.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ab = cache.peak_memo(keys(&["a", "b"]));
        assert!(Arc::ptr_eq(&ab, &cache.peak_memo(keys(&["a", "b"]))));
        let ba = cache.peak_memo(keys(&["b", "a"]));
        assert!(!Arc::ptr_eq(&ab, &ba), "member order is part of the key");
        // Touch `a, b`: `b, a` is now the least recently used.
        let _ = cache.peak_memo(keys(&["a", "b"]));
        let ac = cache.peak_memo(keys(&["a", "c"]));
        assert!(!Arc::ptr_eq(&ab, &ac));
        assert!(Arc::ptr_eq(&ab, &cache.peak_memo(keys(&["a", "b"]))));
        assert!(Arc::ptr_eq(&ac, &cache.peak_memo(keys(&["a", "c"]))));
        assert!(
            !Arc::ptr_eq(&ba, &cache.peak_memo(keys(&["b", "a"]))),
            "the LRU memo was evicted"
        );
        assert_eq!(cache.inner.lock().unwrap().fleets.len(), 2);
    }

    #[test]
    fn key_hash_is_stable_and_seed_sensitive() {
        assert_eq!(scenario_key_hash(&tiny(1)), scenario_key_hash(&tiny(1)));
        assert_ne!(scenario_key_hash(&tiny(1)), scenario_key_hash(&tiny(2)));
    }
}
