//! The multi-site fleet evaluation engine.
//!
//! The paper scores microgrid compositions one *site* at a time (Houston
//! vs. Berkeley), but the related work it cites — geo-distributed
//! allocation, distributed data-center microgrid management — and 24/7
//! carbon-free-energy reporting are *fleet*-level: several sites, one
//! carbon account, one concurrent grid-import profile. This module makes
//! that setting first-class.
//!
//! A **fleet plan** assigns one [`Composition`] to every site of a
//! [`FleetEvaluator`]. [`FleetEvaluator::evaluate_plans`] splits a cohort
//! of plans into the batch engine's chunks and runs, per chunk, one chunk
//! walk per site: the walk [`simulate_batch`](crate::simulate_batch) runs,
//! with its lane groups, physics and raw accumulators. Sites are
//! physically independent, so their walks advance site by site in blocks
//! of steps.
//!
//! Only the fleet *metrics* couple the sites: peak *concurrent* grid
//! import (what a shared interconnect or a fleet-level 24/7 CFE account
//! sees) needs all sites' imports at the *same step*. Each site's walk
//! writes its per-step imports into one block buffer, and the peak is
//! folded once per block, so no full import trace is ever materialized.
//!
//! Every other fleet metric is an in-order sum of per-site annual
//! metrics ([`FleetMetrics::from_sites`]), and a site's metrics depend
//! only on its prepared inputs and its composition. So cohorts can be
//! answered per site: [`FleetEvaluator::evaluate_tabled`] keeps one
//! [`SiteTable`] per member, indexed by composition index. Each slot also
//! holds the site's own peak import, and under a concurrent-import cap
//! those peaks settle most first-time feasible plans without a walk:
//! summed in site order, they bound every step's concurrent sum, so a
//! plan whose summed peaks meet the cap meets it exactly. A plan's
//! concurrent peak itself depends only on the fleet's prepared inputs
//! and the plan, so the fleet's [`PeakMemo`] stores it for every plan
//! the plan walk steps, and a later capped cohort, under any cap,
//! answers that plan from the tables and the memo. Uncapped cohorts walk
//! only the (site, composition) pairs the tables have not seen; capped
//! cohorts walk only the plans neither the bound nor the memo settles,
//! and that plan walk fills the tables and the memo.
//!
//! ## Agreement guarantee
//!
//! Per-site results are **bit-identical** to running the single-site batch
//! engine on each site independently: every site runs the batch walk on
//! its own candidates, block boundaries only pause it, and a candidate's
//! lane never reads another lane. Table-backed results are therefore the
//! plan walk's results, bit for bit. A plan the bound settles under a cap
//! has the violation the plan walk would report, `0.0`, and a plan the
//! memo answers has the plan walk's own peak, put through
//! [`FleetMetrics::peak_cap_violation_kw`].
//! `tests/fleet_agreement.rs` and `tests/site_table.rs` pin this exactly,
//! and `tests/fleet_agreement.rs` pins fleet totals to the cosim
//! [`Environment`](mgopt_cosim) oracle at ≤1e-9 relative.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use mgopt_telemetry::{self as telemetry, Counter, Stage};
use mgopt_units::TimeSeries;
use rayon::prelude::*;

use crate::batch::{Imports, Walk, CHUNK};
use crate::composition::{Composition, CompositionSpace};
use crate::metrics::{AnnualMetrics, AnnualResult};
use crate::simd::{BatchBackend, LANES};
use crate::simulate::SimConfig;
use crate::site::SiteData;

/// Steps per block: each site's walk advances `BLOCK` steps before the
/// next site's, and the block buffer keeps their imports step-aligned
/// for the concurrent-peak fold. Large enough to amortize the per-site
/// switch, small enough that the buffer (`BLOCK × CHUNK × 8` bytes
/// ≈ 64 KiB) stays cache-resident.
const BLOCK: usize = 128;

/// One member site of a fleet: prepared inputs plus its simulation config.
#[derive(Debug, Clone, Copy)]
pub struct FleetSite<'a> {
    /// Display name ("houston").
    pub name: &'a str,
    /// Prepared site data (unit profiles, CI, prices).
    pub data: &'a SiteData,
    /// The site's load trace, kW.
    pub load: &'a TimeSeries,
    /// Simulation parameters for this site.
    pub cfg: &'a SimConfig,
}

/// One member's full-horizon results, one slot per index of its
/// [`CompositionSpace`], each filled at most once.
///
/// A slot holds the [`SiteEntry`] the chunk walk reports for that
/// composition at that member's prepared inputs, so the table is only
/// valid next to those inputs: it never outlives or leaves them. Slots
/// are [`OnceLock`]s, so concurrent studies share one table without a
/// lock; two that race for a slot computed bit-identical entries, and
/// the loser's copy is dropped. There is no map, so lookups cannot
/// depend on iteration order.
///
/// Memory: 144 bytes per slot (a [`SiteEntry`] plus the lock state),
/// allocated whole on construction.
#[derive(Debug)]
pub struct SiteTable {
    slots: Box<[OnceLock<SiteEntry>]>,
}

/// One walked (site, composition) pair of a [`SiteTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct SiteEntry {
    /// The composition's full-horizon metrics at the site.
    pub metrics: AnnualMetrics,
    /// The site's own peak grid import under that composition, kW: the
    /// largest step import, at least `0.0`. It is what a one-site plan
    /// walk reports as its concurrent peak, bit for bit.
    pub peak_import_kw: f64,
}

impl SiteTable {
    /// An empty table for a space of `len` compositions.
    pub fn new(len: usize) -> Self {
        Self {
            slots: (0..len).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of slots (the space's size).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` for a table over an empty space.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The stored entry of composition `index`, if it has been walked.
    ///
    /// # Panics
    /// Panics when `index` is outside the space.
    pub fn get(&self, index: usize) -> Option<&SiteEntry> {
        self.slots[index].get()
    }

    /// Store the entry of composition `index`. A racing study may have
    /// filled the slot first, with a bit-identical entry: keep either.
    fn fill(&self, index: usize, entry: SiteEntry) {
        let _ = self.slots[index].set(entry);
    }
}

/// The most plan peaks one [`PeakMemo`] stores; plans walked once it is
/// full are not stored, and walk again when asked again. A stored peak
/// takes 16 bytes plus one control byte in std's hash table, which keeps
/// at least one bucket in eight free, so a full memo holds at most
/// 65,536 buckets: 65,536 × 17 B + 16 B ≈ 1.06 MiB (while the table
/// grows to that size, the half-size table it replaces is held too).
pub const PEAK_MEMO_CAPACITY: usize = 32_768;

/// A fleet's plan-peak memo: the peak concurrent grid import of every
/// plan the step-aligned plan walk has stepped, keyed by the plan's
/// composition indices (one mixed-radix `u64` over the sites' space
/// sizes; a plan whose key overflows is not stored).
///
/// A plan's concurrent peak depends only on the fleet's prepared inputs
/// and the plan, so, like a [`SiteTable`] on one member's inputs, the
/// memo is only valid next to the fleet it was filled for, in its member
/// order. It is shared across studies behind one lock that each cohort
/// takes twice: once to look plans up, once to store the plans it
/// walked. Two studies that race to store a plan stored bit-identical
/// peaks. Lookups are keyed only, so the map's order never shows.
///
/// Memory: empty until the first store, at most [`PEAK_MEMO_CAPACITY`]
/// peaks (about 1.06 MiB) once full.
#[derive(Debug)]
pub struct PeakMemo {
    peaks: Mutex<std::collections::HashMap<u64, f64>>,
    capacity: usize,
}

impl Default for PeakMemo {
    /// An empty memo of [`PEAK_MEMO_CAPACITY`] peaks.
    fn default() -> Self {
        Self::with_capacity(PEAK_MEMO_CAPACITY)
    }
}

impl PeakMemo {
    /// An empty memo that stores at most `capacity` peaks.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            // mgopt-lint: allow(determinism) — plan peaks are looked up and stored by key only, never iterated
            peaks: Mutex::new(std::collections::HashMap::new()),
            capacity,
        }
    }

    /// The stored peaks. Every update is one insert, which leaves the map
    /// valid, so a lock a panicking study poisoned is still good.
    fn peaks(&self) -> MutexGuard<'_, std::collections::HashMap<u64, f64>> {
        self.peaks.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Store walked plans' peaks under their keys while there is room;
    /// a plan without a key is skipped.
    fn store(&self, walked: impl Iterator<Item = (Option<u64>, f64)>) {
        let mut peaks = self.peaks();
        for (key, peak) in walked {
            if peaks.len() >= self.capacity {
                return;
            }
            if let Some(key) = key {
                peaks.insert(key, peak);
            }
        }
    }

    /// A plan's key: its composition indices as one mixed-radix number
    /// over the sites' space sizes, exact and so one-to-one, or `None`
    /// when it overflows a `u64`.
    fn key(plan: &[u16], tables: &[(&CompositionSpace, &SiteTable)]) -> Option<u64> {
        plan.iter()
            .zip(tables)
            .try_fold(0u64, |key, (&g, (_, table))| {
                key.checked_mul(table.len() as u64)?
                    .checked_add(u64::from(g))
            })
    }
}

/// How a capped cohort answers one plan.
enum Source {
    /// From the tables alone: its summed site peaks meet the cap.
    Bound,
    /// From the tables and the memo's stored concurrent peak.
    Memo(f64),
    /// Through the plan walk.
    Walk,
}

/// Fleet-level aggregates of one plan, over the simulated window.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Fleet operational emissions, tCO2 per day (sum over sites).
    pub operational_t_per_day: f64,
    /// Fleet operational emissions scaled to a year, tCO2.
    pub operational_t_per_year: f64,
    /// Total embodied emissions of every site's build-out, tCO2.
    pub embodied_t: f64,
    /// Peak *concurrent* grid import across the fleet, kW: the maximum
    /// over time of the per-step sum of site imports, folded from the
    /// walks' step-aligned block buffer. `None` when tracking was
    /// disabled via [`FleetEvaluator::with_peak_tracking`], and for a plan
    /// [`FleetEvaluator::evaluate_tabled`] answered from its tables alone
    /// (uncapped, or settled by the summed site peaks).
    pub peak_concurrent_import_kw: Option<f64>,
    /// Grid import per site, MWh (site order of the evaluator).
    pub site_import_mwh: Vec<f64>,
    /// Total fleet grid import, MWh.
    pub grid_import_mwh: f64,
    /// Net fleet electricity cost, USD.
    pub energy_cost_usd: f64,
}

impl FleetMetrics {
    /// The aggregates of one plan from its per-site results (site order)
    /// and, when tracked, its concurrent peak. Every total is an in-order
    /// sum over sites; both evaluation paths build their metrics here,
    /// so they cannot differ by a bit.
    pub fn from_sites(per_site: &[AnnualResult], peak_concurrent_import_kw: Option<f64>) -> Self {
        let total = |field: fn(&AnnualMetrics) -> f64| -> f64 {
            per_site.iter().map(|r| field(&r.metrics)).sum()
        };
        FleetMetrics {
            operational_t_per_day: total(|m| m.operational_t_per_day),
            operational_t_per_year: total(|m| m.operational_t_per_year),
            embodied_t: total(|m| m.embodied_t),
            peak_concurrent_import_kw,
            site_import_mwh: per_site.iter().map(|r| r.metrics.grid_import_mwh).collect(),
            grid_import_mwh: total(|m| m.grid_import_mwh),
            energy_cost_usd: total(|m| m.energy_cost_usd),
        }
    }

    /// Violation of a peak concurrent-import cap, kW: `0.0` when the
    /// fleet's peak stays at or under `cap_kw`, otherwise the exceedance.
    /// This is the constraint magnitude fleet-plan searches feed into
    /// constraint-dominance.
    ///
    /// # Panics
    /// Panics when peak tracking was disabled — a cap check against an
    /// untracked peak would silently pass.
    pub fn peak_cap_violation_kw(&self, cap_kw: f64) -> f64 {
        let peak = self
            .peak_concurrent_import_kw
            .expect("peak tracking disabled: cannot check an import cap");
        (peak - cap_kw).max(0.0)
    }
}

/// The result of evaluating one fleet plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// One single-site result per member, in site order — bit-identical to
    /// an independent [`BatchEvaluator`](crate::BatchEvaluator) run.
    pub per_site: Vec<AnnualResult>,
    /// Fleet-level aggregates.
    pub fleet: FleetMetrics,
}

impl FleetResult {
    /// The plan that produced this result: one composition per site, in
    /// site order.
    pub fn plan(&self) -> Vec<Composition> {
        self.per_site.iter().map(|r| r.composition).collect()
    }
}

/// Start-of-pass snapshot of the stage totals and lane counters behind
/// one `fleet_eval` event (see the batch engine for the attribution
/// caveat).
struct PassTrace {
    t0: std::time::Instant,
    prepare_ms: f64,
    kernel_ms: f64,
    simd_rows: u64,
    padded_rows: u64,
}

impl PassTrace {
    /// The snapshot, when tracing is on.
    fn start() -> Option<Self> {
        telemetry::enabled().then(|| Self {
            // mgopt-lint: allow(determinism) — wall clock feeds the fleet_eval trace only, never results
            t0: std::time::Instant::now(),
            prepare_ms: telemetry::stage_ms(Stage::FleetPrepare),
            kernel_ms: telemetry::stage_ms(Stage::FleetKernel),
            simd_rows: telemetry::counter_value(Counter::SimdRows),
            padded_rows: telemetry::counter_value(Counter::SimdRemainderRows),
        })
    }
}

/// The multi-site batched engine: one cohort of plans, all sites, one
/// batch chunk walk per site and chunk.
#[derive(Debug, Clone)]
pub struct FleetEvaluator<'a> {
    sites: Vec<FleetSite<'a>>,
    track_peak: bool,
    backend: BatchBackend,
}

impl<'a> FleetEvaluator<'a> {
    /// Create an evaluator over member sites.
    ///
    /// # Panics
    /// Panics when `sites` is empty, when the sites do not share one
    /// step/length (the fleet advances on a single clock), or when a
    /// site's load trace does not match its site data.
    pub fn new(sites: Vec<FleetSite<'a>>) -> Self {
        assert!(!sites.is_empty(), "fleet has no sites");
        let step = sites[0].data.step();
        let len = sites[0].data.len();
        for s in &sites {
            assert_eq!(s.data.step(), step, "site {}: step mismatch", s.name);
            assert_eq!(s.data.len(), len, "site {}: length mismatch", s.name);
            assert_eq!(
                s.load.step(),
                s.data.step(),
                "site {}: load step mismatch",
                s.name
            );
            assert_eq!(
                s.load.len(),
                s.data.len(),
                "site {}: load length mismatch",
                s.name
            );
        }
        Self {
            sites,
            track_peak: true,
            backend: BatchBackend::default(),
        }
    }

    /// Enable or disable concurrent-peak tracking (on by default).
    /// Tracking costs one store per lane-step plus a vectorized
    /// per-block fold (a few percent of the pass); with it off the pass
    /// does exactly the work of independent per-site batch sweeps and
    /// [`FleetMetrics::peak_concurrent_import_kw`] is `None`.
    pub fn with_peak_tracking(mut self, on: bool) -> Self {
        self.track_peak = on;
        self
    }

    /// Set the walk's lane width (default: 4 lanes). Both widths are
    /// pinned bit-identical, per-site and on fleet aggregates.
    pub fn with_backend(mut self, backend: BatchBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The member sites, in evaluation order.
    pub fn sites(&self) -> &[FleetSite<'a>] {
        &self.sites
    }

    /// Number of member sites.
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Steps in the shared simulation horizon.
    pub fn len(&self) -> usize {
        self.sites[0].data.len()
    }

    /// `true` when the horizon is empty (never, for prepared sites).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evaluate one plan (one composition per site) over the full horizon.
    pub fn evaluate(&self, plan: &[Composition]) -> FleetResult {
        self.evaluate_plans(std::slice::from_ref(&plan.to_vec()))
            .pop()
            .expect("one plan in, one result out")
    }

    /// Evaluate a cohort of plans over the full horizon, in input order.
    pub fn evaluate_plans(&self, plans: &[Vec<Composition>]) -> Vec<FleetResult> {
        self.evaluate_plans_period(plans, self.len())
    }

    /// Evaluate a cohort of plans over only the first `n_steps` — the
    /// low-fidelity window used by pruning searches, normalized exactly
    /// like [`simulate_batch_period`](crate::simulate_batch_period).
    ///
    /// # Panics
    /// Panics when `n_steps` is zero (a zero-step window has no rates to
    /// report; the guard matches the single-site engines) or when a plan's
    /// length differs from the number of sites.
    pub fn evaluate_plans_period(
        &self,
        plans: &[Vec<Composition>],
        n_steps: usize,
    ) -> Vec<FleetResult> {
        assert!(n_steps > 0, "n_steps must be positive");
        self.check_arity(plans.iter().map(Vec::len));
        if plans.is_empty() {
            return Vec::new();
        }

        let n = n_steps.min(self.len());
        let demand_kwh = self.demand_kwh(n);
        let trace = PassTrace::start();

        let chunks: Vec<&[Vec<Composition>]> = plans.chunks(CHUNK).collect();
        let nested: Vec<Vec<FleetResult>> = chunks
            .into_par_iter()
            .map(|chunk| self.walk_plans(chunk, n, &demand_kwh, self.track_peak).0)
            .collect();
        let out: Vec<FleetResult> = nested.into_iter().flatten().collect();

        let walked = plans.len() * self.sites.len();
        let chunks = plans.len().div_ceil(CHUNK);
        self.emit_fleet_eval(trace, plans.len(), n, chunks, walked, None);
        out
    }

    /// Evaluate a cohort over the full horizon through per-site result
    /// tables, in input order, optionally under a cap on the peak
    /// concurrent grid import.
    ///
    /// Each plan is given as one composition index per site (a fleet
    /// genome); `tables` pairs each site, in site order, with its
    /// [`CompositionSpace`] and [`SiteTable`]; `capped` pairs the cap, kW,
    /// with the fleet's [`PeakMemo`]. Each answer pairs the plan's result
    /// with its cap violation, kW (`None` without a cap).
    ///
    /// * **Uncapped**, only the indices a site's table lacks are walked —
    ///   once each, in first-seen order, in chunks of one site's
    ///   compositions, all (site, chunk) walks as one parallel pass — and
    ///   every plan is answered from the tables through
    ///   [`FleetMetrics::from_sites`]. The memo is not consulted.
    /// * **Capped**, a plan whose pairs are all in the tables is answered
    ///   without a walk in two cases. When its site peaks, summed in site
    ///   order, are at most the cap, it is feasible with violation `0.0`:
    ///   IEEE round-to-nearest addition is monotone, so that sum bounds
    ///   every step's concurrent sum from above, and so the concurrent
    ///   peak too. Otherwise, when the memo holds its concurrent peak,
    ///   that peak's [`FleetMetrics::peak_cap_violation_kw`] is its
    ///   violation. Every other plan takes the plan walk with peak
    ///   tracking, which fills the tables with every pair it walks and
    ///   the memo with every plan's peak, while the memo has room.
    ///
    /// Objectives and violations equal those of
    /// [`evaluate_plans`](Self::evaluate_plans) with peak tracking and
    /// [`FleetMetrics::peak_cap_violation_kw`], bit for bit, whatever cap
    /// filled the memo. A plan answered from the tables carries no SoC
    /// traces, and a concurrent peak only when the memo gave it. The cap,
    /// not [`with_peak_tracking`](Self::with_peak_tracking), decides
    /// whether plans are walked with peak tracking. One `fleet_eval`
    /// event reports the cohort.
    ///
    /// The caller must pair each site with the table of *that* site's
    /// prepared inputs and config, and the cap with the memo of *this*
    /// fleet: neither can tell.
    ///
    /// # Panics
    /// Panics when `tables` does not match the sites, when a table's size
    /// differs from its space's, when a plan's length differs from the
    /// number of sites, or when an index lies outside its space.
    pub fn evaluate_tabled(
        &self,
        plans: &[Vec<u16>],
        tables: &[(&CompositionSpace, &SiteTable)],
        capped: Option<(f64, &PeakMemo)>,
    ) -> Vec<(FleetResult, Option<f64>)> {
        assert_eq!(
            tables.len(),
            self.sites.len(),
            "{} tables for {} sites",
            tables.len(),
            self.sites.len()
        );
        for (site, (space, table)) in self.sites.iter().zip(tables) {
            assert_eq!(
                table.len(),
                space.len(),
                "site {}: table size differs from its space",
                site.name
            );
        }
        self.check_arity(plans.iter().map(Vec::len));
        if plans.is_empty() {
            return Vec::new();
        }

        let n = self.len();
        let demand_kwh = self.demand_kwh(n);
        let trace = PassTrace::start();

        let Some((cap, memo)) = capped else {
            let (walked, chunks) = self.fill_unseen(plans, tables, n, &demand_kwh);
            let out = plans
                .iter()
                .map(|plan| (Self::from_tables(plan, tables, None), None))
                .collect();
            self.emit_fleet_eval(trace, plans.len(), n, chunks, walked, None);
            return out;
        };

        let sources: Vec<Source> = {
            let peaks = memo.peaks();
            plans
                .iter()
                .map(|plan| match Self::summed_site_peaks(plan, tables) {
                    Some(bound) if bound <= cap => Source::Bound,
                    Some(_) => PeakMemo::key(plan, tables)
                        .and_then(|key| peaks.get(&key).copied())
                        .map_or(Source::Walk, Source::Memo),
                    None => Source::Walk,
                })
                .collect()
        };
        let to_walk: Vec<usize> = (0..plans.len())
            .filter(|&p| matches!(sources[p], Source::Walk))
            .collect();
        let peak_hits = sources
            .iter()
            .filter(|source| matches!(source, Source::Memo(_)))
            .count();
        let mut walks = self
            .walk_and_fill(plans, &to_walk, tables, memo, n, &demand_kwh)
            .into_iter();
        let out = plans
            .iter()
            .zip(sources)
            .map(|(plan, source)| {
                let r = match source {
                    Source::Bound => return (Self::from_tables(plan, tables, None), Some(0.0)),
                    Source::Memo(peak) => Self::from_tables(plan, tables, Some(peak)),
                    Source::Walk => walks.next().expect("one walk per walked plan"),
                };
                let violation = r.fleet.peak_cap_violation_kw(cap);
                (r, Some(violation))
            })
            .collect();

        let walked = to_walk.len() * self.sites.len();
        let chunks = to_walk.len().div_ceil(CHUNK);
        self.emit_fleet_eval(trace, plans.len(), n, chunks, walked, Some(peak_hits));
        out
    }

    /// Walk, per site, the indices the cohort needs and the table lacks —
    /// each once, in first-seen order — and fill the tables. Returns the
    /// pairs and chunks walked.
    fn fill_unseen(
        &self,
        plans: &[Vec<u16>],
        tables: &[(&CompositionSpace, &SiteTable)],
        n: usize,
        demand_kwh: &[f64],
    ) -> (usize, usize) {
        let unseen: Vec<Vec<usize>> = tables
            .iter()
            .enumerate()
            .map(|(s, (_, table))| {
                let mut queued = vec![false; table.len()];
                let mut unseen = Vec::new();
                for plan in plans {
                    let i = usize::from(plan[s]);
                    if !queued[i] && table.get(i).is_none() {
                        queued[i] = true;
                        unseen.push(i);
                    }
                }
                unseen
            })
            .collect();
        let walks: Vec<(usize, &[usize])> = unseen
            .iter()
            .enumerate()
            .flat_map(|(s, unseen)| unseen.chunks(CHUNK).map(move |idx| (s, idx)))
            .collect();
        let chunks = walks.len();
        walks.into_par_iter().for_each(|(s, idx)| {
            let (space, table) = tables[s];
            let comps: Vec<Composition> = idx.iter().map(|&i| space.at(i)).collect();
            let entries = match self.backend {
                BatchBackend::Scalar => self.walk_site::<1>(s, &comps, n, demand_kwh[s]),
                BatchBackend::Simd => self.walk_site::<LANES>(s, &comps, n, demand_kwh[s]),
            };
            for (&i, entry) in idx.iter().zip(entries) {
                table.fill(i, entry);
            }
        });
        (unseen.iter().map(Vec::len).sum(), chunks)
    }

    /// The plan's site peaks summed in site order, when every pair is in
    /// the tables: an upper bound on its concurrent peak.
    fn summed_site_peaks(plan: &[u16], tables: &[(&CompositionSpace, &SiteTable)]) -> Option<f64> {
        plan.iter()
            .zip(tables)
            .map(|(&g, (_, table))| table.get(usize::from(g)).map(|e| e.peak_import_kw))
            .sum()
    }

    /// The plans at `positions` through the plan walk with peak tracking,
    /// in that order, filling the tables with every pair walked and the
    /// memo with every plan's concurrent peak while it has room.
    fn walk_and_fill(
        &self,
        plans: &[Vec<u16>],
        positions: &[usize],
        tables: &[(&CompositionSpace, &SiteTable)],
        memo: &PeakMemo,
        n: usize,
        demand_kwh: &[f64],
    ) -> Vec<FleetResult> {
        let chunks: Vec<&[usize]> = positions.chunks(CHUNK).collect();
        let nested: Vec<Vec<FleetResult>> = chunks
            .into_par_iter()
            .map(|chunk| {
                let comps: Vec<Vec<Composition>> = chunk
                    .iter()
                    .map(|&p| {
                        plans[p]
                            .iter()
                            .zip(tables)
                            .map(|(&g, (space, _))| space.at(usize::from(g)))
                            .collect()
                    })
                    .collect();
                let (results, site_peaks) = self.walk_plans(&comps, n, demand_kwh, true);
                for (k, (&p, result)) in chunk.iter().zip(&results).enumerate() {
                    for (s, site) in result.per_site.iter().enumerate() {
                        tables[s].1.fill(
                            usize::from(plans[p][s]),
                            SiteEntry {
                                metrics: site.metrics.clone(),
                                peak_import_kw: site_peaks[s][k],
                            },
                        );
                    }
                }
                memo.store(chunk.iter().zip(&results).map(|(&p, result)| {
                    let peak = result.fleet.peak_concurrent_import_kw;
                    (
                        PeakMemo::key(&plans[p], tables),
                        peak.expect("the plan walk tracks peaks"),
                    )
                }));
                results
            })
            .collect();
        nested.into_iter().flatten().collect()
    }

    /// A plan's answer from the tables, which hold every pair it needs,
    /// with its concurrent peak when known.
    fn from_tables(
        plan: &[u16],
        tables: &[(&CompositionSpace, &SiteTable)],
        peak_concurrent_import_kw: Option<f64>,
    ) -> FleetResult {
        let per_site: Vec<AnnualResult> = plan
            .iter()
            .zip(tables)
            .map(|(&g, (space, table))| {
                let i = usize::from(g);
                AnnualResult {
                    composition: space.at(i),
                    metrics: table
                        .get(i)
                        .expect("every slot a table answer needs is filled")
                        .metrics
                        .clone(),
                    soc_trace_hourly: Vec::new(),
                }
            })
            .collect();
        FleetResult {
            fleet: FleetMetrics::from_sites(&per_site, peak_concurrent_import_kw),
            per_site,
        }
    }

    /// # Panics
    /// Panics when a plan's length (from `lens`) differs from the number
    /// of sites.
    fn check_arity(&self, lens: impl Iterator<Item = usize>) {
        for (i, len) in lens.enumerate() {
            assert_eq!(
                len,
                self.sites.len(),
                "plan {i}: {len} compositions for {} sites",
                self.sites.len()
            );
        }
    }

    /// Per-site demand over the first `n` steps, kWh. Identical across
    /// plans, so every pass accumulates it once.
    fn demand_kwh(&self, n: usize) -> Vec<f64> {
        let dt_h = self.sites[0].data.step().hours();
        self.sites
            .iter()
            .map(|s| s.load.values()[..n].iter().sum::<f64>() * dt_h)
            .collect()
    }

    /// Emit one cohort's `fleet_eval` event. `rows` counts every plan's
    /// sites × steps whether walked or not, `walked_rows` the rows the
    /// walk stepped (`walked` site compositions × steps), and
    /// `table_hits` the (plan, site) lookups answered without a walk.
    /// `peak_hits` is `None` for an uncapped cohort, and else the number
    /// of plans the memo answered: `capped` tells the two apart.
    fn emit_fleet_eval(
        &self,
        trace: Option<PassTrace>,
        plans: usize,
        steps: usize,
        chunks: usize,
        walked: usize,
        peak_hits: Option<usize>,
    ) {
        let Some(t) = trace else {
            return;
        };
        let lookups = plans * self.sites.len();
        telemetry::Event::new("fleet_eval")
            .u64("plans", plans as u64)
            .u64("sites", self.sites.len() as u64)
            .u64("steps", steps as u64)
            .u64("chunks", chunks as u64)
            .u64("rows", (lookups * steps) as u64)
            .u64("walked_rows", (walked * steps) as u64)
            .u64("table_hits", (lookups - walked) as u64)
            .bool("capped", peak_hits.is_some())
            .u64("peak_hits", peak_hits.unwrap_or(0) as u64)
            .bool("simd", self.backend == BatchBackend::Simd)
            .u64(
                "simd_rows",
                telemetry::counter_value(Counter::SimdRows) - t.simd_rows,
            )
            .u64(
                "simd_remainder_rows",
                telemetry::counter_value(Counter::SimdRemainderRows) - t.padded_rows,
            )
            .f64(
                "prepare_ms",
                telemetry::stage_ms(Stage::FleetPrepare) - t.prepare_ms,
            )
            .f64(
                "kernel_ms",
                telemetry::stage_ms(Stage::FleetKernel) - t.kernel_ms,
            )
            .f64("wall_ms", t.t0.elapsed().as_secs_f64() * 1e3)
            .emit();
    }

    /// Walk site `s` alone over `0..n` for a chunk of its compositions:
    /// one [`SiteEntry`] per composition, in chunk order.
    fn walk_site<const L: usize>(
        &self,
        s: usize,
        comps: &[Composition],
        n: usize,
        demand_kwh: f64,
    ) -> Vec<SiteEntry> {
        let site = &self.sites[s];
        let prepare_span = telemetry::span(Stage::FleetPrepare);
        let mut walk = Walk::<L>::new(site.data, site.load, comps, site.cfg);
        let mut peaks = vec![0.0f64; walk.slots()];
        drop(prepare_span);

        let kernel_span = telemetry::span(Stage::FleetKernel);
        walk.advance(0..n, Imports::Peak(&mut peaks));
        drop(kernel_span);
        telemetry::add(Counter::FleetChunks, 1);
        telemetry::add(Counter::FleetRows, (comps.len() * n) as u64);

        walk.finish(demand_kwh)
            .into_iter()
            .zip(peaks)
            .map(|(r, peak_import_kw)| SiteEntry {
                metrics: r.metrics,
                peak_import_kw,
            })
            .collect()
    }

    /// One chunk of plans through the plan walk at the evaluator's lane
    /// width (see [`run_chunk`](Self::run_chunk)).
    fn walk_plans(
        &self,
        plans: &[Vec<Composition>],
        n: usize,
        demand_kwh: &[f64],
        track_peak: bool,
    ) -> (Vec<FleetResult>, Vec<Vec<f64>>) {
        match self.backend {
            BatchBackend::Scalar => self.run_chunk::<1>(plans, n, demand_kwh, track_peak),
            BatchBackend::Simd => self.run_chunk::<LANES>(plans, n, demand_kwh, track_peak),
        }
    }

    /// Evaluate one chunk of plans over `0..n`: one [`Walk`] per site,
    /// advanced site by site in `BLOCK`-step blocks. With `track_peak`,
    /// it folds each plan's concurrent peak and, next to it, each site's
    /// own peak import per plan: the second value, indexed `[site][plan]`
    /// (empty without tracking).
    fn run_chunk<const L: usize>(
        &self,
        plans: &[Vec<Composition>],
        n: usize,
        demand_kwh: &[f64],
        track_peak: bool,
    ) -> (Vec<FleetResult>, Vec<Vec<f64>>) {
        let ns = self.sites.len();
        let m = plans.len();

        let prepare_span = telemetry::span(Stage::FleetPrepare);
        let site_comps: Vec<Vec<Composition>> = (0..ns)
            .map(|s| plans.iter().map(|p| p[s]).collect())
            .collect();
        let mut walks: Vec<Walk<'_, L>> = self
            .sites
            .iter()
            .zip(&site_comps)
            .map(|(site, comps)| Walk::new(site.data, site.load, comps, site.cfg))
            .collect();
        // Every site pads the same plans, so the walks share one slot
        // count: the block buffer holds one row of slots per step.
        let slots = walks[0].slots();
        let block = BLOCK.min(n);
        let tracked = if track_peak { slots } else { 0 };
        let mut import_buf = vec![0.0f64; block * tracked];
        let mut peaks = vec![0.0f64; slots];
        let mut site_peaks = vec![vec![0.0f64; tracked]; ns];
        drop(prepare_span);

        let kernel_span = telemetry::span(Stage::FleetKernel);
        for i0 in (0..n).step_by(block) {
            let i1 = (i0 + block).min(n);
            for (s, (walk, site_peaks)) in walks.iter_mut().zip(&mut site_peaks).enumerate() {
                let (buf, peaks) = (&mut import_buf[..], &mut site_peaks[..]);
                let imports = match (track_peak, s) {
                    (false, _) => Imports::Drop,
                    (true, 0) => Imports::Set { buf, peaks },
                    (true, _) => Imports::Add { buf, peaks },
                };
                walk.advance(i0..i1, imports);
            }
            // Fold the block's concurrent imports into the running peaks:
            // branchless f64::max over contiguous rows auto-vectorizes, so
            // the fold costs a fraction of an op per candidate-step.
            if track_peak {
                for row in import_buf.chunks_exact(slots).take(i1 - i0) {
                    for (peak, &v) in peaks.iter_mut().zip(row) {
                        *peak = peak.max(v);
                    }
                }
            }
        }
        drop(kernel_span);
        telemetry::add(Counter::FleetChunks, 1);
        telemetry::add(Counter::FleetRows, (m * ns * n) as u64);

        let mut site_results: Vec<_> = walks
            .into_iter()
            .zip(demand_kwh)
            .map(|(walk, &demand)| walk.finish(demand).into_iter())
            .collect();
        let results = (0..m)
            .map(|p| {
                let per_site: Vec<AnnualResult> = site_results
                    .iter_mut()
                    .map(|results| results.next().expect("one result per plan"))
                    .collect();
                let fleet = FleetMetrics::from_sites(&per_site, track_peak.then(|| peaks[p]));
                FleetResult { per_site, fleet }
            })
            .collect();
        (results, site_peaks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchEvaluator, Evaluator};
    use crate::site::Site;
    use mgopt_units::SimDuration;
    use mgopt_workload::HpcWorkload;

    fn two_sites() -> (SiteData, SiteData, TimeSeries, TimeSeries) {
        let step = SimDuration::from_hours(1.0);
        let houston = Site::houston().prepare(step, 42);
        let berkeley = Site::berkeley().prepare(step, 42);
        let load_h = HpcWorkload::perlmutter_like(42).generate(step);
        let load_b = HpcWorkload::perlmutter_like(7).generate(step);
        (houston, berkeley, load_h, load_b)
    }

    #[test]
    fn per_site_results_are_bit_identical_to_batch_engine() {
        let (h, b, lh, lb) = two_sites();
        let cfg = SimConfig::default();
        let fleet = FleetEvaluator::new(vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg,
            },
        ]);
        let plans = vec![
            vec![
                Composition::new(4, 0.0, 7_500.0),
                Composition::new(0, 12_000.0, 37_500.0),
            ],
            vec![
                Composition::BASELINE,
                Composition::new(2, 8_000.0, 15_000.0),
            ],
        ];
        let results = fleet.evaluate_plans(&plans);
        assert_eq!(results.len(), 2);

        for (plan, result) in plans.iter().zip(&results) {
            for (s, (site, comp)) in fleet.sites().iter().zip(plan).enumerate() {
                let independent =
                    BatchEvaluator::new(site.data, site.load, site.cfg).evaluate(comp);
                assert_eq!(
                    result.per_site[s].metrics, independent.metrics,
                    "site {} differs from independent batch run",
                    site.name
                );
            }
        }
    }

    #[test]
    fn simd_walk_is_bit_identical_to_scalar_walk_including_peaks() {
        let (h, b, lh, lb) = two_sites();
        // Different policies per site exercise every LanePolicy arm in one
        // fleet pass.
        let cfg_h = SimConfig {
            policy: crate::policy::DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 300.0,
                target_soc: 0.9,
            },
            ..SimConfig::default()
        };
        let cfg_b = SimConfig {
            policy: crate::policy::DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 2_000.0,
            },
            ..SimConfig::default()
        };
        let sites = vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg_h,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg_b,
            },
        ];
        // 7 plans: one full lane group plus a padded 3-plan group,
        // including battery-less plans (null kernel lanes).
        let plans: Vec<Vec<Composition>> = (0..7)
            .map(|i| {
                vec![
                    Composition::new(i % 5, (i % 3) as f64 * 8_000.0, (i % 4) as f64 * 7_500.0),
                    Composition::new(
                        (i + 2) % 5,
                        (i % 4) as f64 * 4_000.0,
                        (i % 3) as f64 * 15_000.0,
                    ),
                ]
            })
            .collect();
        let scalar = FleetEvaluator::new(sites.clone())
            .with_backend(BatchBackend::Scalar)
            .evaluate_plans_period(&plans, 2_000);
        let simd = FleetEvaluator::new(sites)
            .with_backend(BatchBackend::Simd)
            .evaluate_plans_period(&plans, 2_000);
        for (a, b) in scalar.iter().zip(&simd) {
            for (ra, rb) in a.per_site.iter().zip(&b.per_site) {
                assert_eq!(ra.metrics, rb.metrics);
            }
            assert_eq!(a.fleet, b.fleet);
        }
    }

    #[test]
    fn fleet_totals_sum_sites_and_peak_bounds_hold() {
        let (h, b, lh, lb) = two_sites();
        let cfg = SimConfig::default();
        let fleet = FleetEvaluator::new(vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg,
            },
        ]);
        let r = fleet.evaluate(&[
            Composition::new(4, 0.0, 7_500.0),
            Composition::new(0, 12_000.0, 37_500.0),
        ]);
        let sum_op: f64 = r
            .per_site
            .iter()
            .map(|x| x.metrics.operational_t_per_day)
            .sum();
        assert_eq!(r.fleet.operational_t_per_day, sum_op);
        assert_eq!(
            r.plan(),
            vec![
                Composition::new(4, 0.0, 7_500.0),
                Composition::new(0, 12_000.0, 37_500.0),
            ]
        );
        assert_eq!(r.fleet.site_import_mwh.len(), 2);
        assert!(r.fleet.grid_import_mwh > 0.0);
        // Peak concurrent import is at most the sum of per-site peaks and
        // at least each site's mean import rate.
        let peak = r
            .fleet
            .peak_concurrent_import_kw
            .expect("tracked by default");
        assert!(peak > 0.0);
        let total_import_kwh = r.fleet.grid_import_mwh * 1e3;
        let hours = h.len() as f64;
        assert!(peak >= total_import_kwh / hours);
    }

    #[test]
    fn partial_windows_match_batch_period() {
        let (h, b, lh, lb) = two_sites();
        let cfg = SimConfig::default();
        let fleet = FleetEvaluator::new(vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg,
            },
        ]);
        let plan = vec![
            Composition::new(3, 8_000.0, 22_500.0),
            Composition::new(1, 16_000.0, 7_500.0),
        ];
        for n in [1usize, 24, 1_095, 8_760] {
            let r = fleet
                .evaluate_plans_period(std::slice::from_ref(&plan), n)
                .pop()
                .unwrap();
            for (s, site) in fleet.sites().iter().enumerate() {
                let independent = BatchEvaluator::new(site.data, site.load, site.cfg)
                    .evaluate_batch_period(std::slice::from_ref(&plan[s]), n)
                    .pop()
                    .unwrap();
                assert_eq!(r.per_site[s].metrics, independent.metrics, "n={n} site {s}");
            }
        }
    }

    #[test]
    fn soc_traces_recorded_per_site_when_requested() {
        let (h, b, lh, lb) = two_sites();
        let cfg = SimConfig {
            record_soc: true,
            ..SimConfig::default()
        };
        let fleet = FleetEvaluator::new(vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg,
            },
        ]);
        let r = fleet.evaluate(&[
            Composition::new(2, 4_000.0, 15_000.0),
            Composition::new(0, 8_000.0, 7_500.0),
        ]);
        for (s, site) in fleet.sites().iter().enumerate() {
            let independent = BatchEvaluator::new(site.data, site.load, site.cfg)
                .evaluate(&r.per_site[s].composition);
            assert_eq!(r.per_site[s].soc_trace_hourly, independent.soc_trace_hourly);
            assert_eq!(r.per_site[s].soc_trace_hourly.len(), 8_760);
        }
    }

    #[test]
    fn disabling_peak_tracking_changes_nothing_else() {
        let (h, b, lh, lb) = two_sites();
        let cfg = SimConfig::default();
        let sites = vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg,
            },
        ];
        let plan = vec![
            Composition::new(4, 0.0, 7_500.0),
            Composition::new(0, 12_000.0, 37_500.0),
        ];
        let tracked = FleetEvaluator::new(sites.clone()).evaluate(&plan);
        let untracked = FleetEvaluator::new(sites)
            .with_peak_tracking(false)
            .evaluate(&plan);
        assert!(tracked.fleet.peak_concurrent_import_kw.is_some());
        assert!(untracked.fleet.peak_concurrent_import_kw.is_none());
        assert_eq!(tracked.per_site, untracked.per_site);
        assert_eq!(
            tracked.fleet.operational_t_per_day,
            untracked.fleet.operational_t_per_day
        );
        assert_eq!(
            tracked.fleet.site_import_mwh,
            untracked.fleet.site_import_mwh
        );
    }

    #[test]
    fn slot_peaks_equal_one_site_plan_walk_peaks_whichever_walk_filled_them() {
        let (h, b, lh, lb) = two_sites();
        // Grid charging makes imports depend on the battery, not only on
        // the load and the renewables.
        let cfg_h = SimConfig {
            policy: crate::policy::DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 300.0,
                target_soc: 0.9,
            },
            ..SimConfig::default()
        };
        let cfg_b = SimConfig::default();
        let sites = vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg_h,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg_b,
            },
        ];
        let space = CompositionSpace::tiny();
        // 7 plans: one full lane group plus a padded one; the first
        // site's compositions repeat.
        let plans: Vec<Vec<u16>> = (0..7u16)
            .map(|k| vec![(k % 4) * 7, (k * 11 + 3) % 27])
            .collect();
        for backend in [BatchBackend::Scalar, BatchBackend::Simd] {
            let fleet = FleetEvaluator::new(sites.clone()).with_backend(backend);
            // The per-site walk fills one pair of tables, the plan walk
            // (fresh tables under a cap) the other.
            let by_site = [SiteTable::new(27), SiteTable::new(27)];
            let by_plan = [SiteTable::new(27), SiteTable::new(27)];
            fleet.evaluate_tabled(
                &plans,
                &[(&space, &by_site[0]), (&space, &by_site[1])],
                None,
            );
            let walked = fleet.evaluate_tabled(
                &plans,
                &[(&space, &by_plan[0]), (&space, &by_plan[1])],
                Some((1.0, &PeakMemo::default())),
            );
            assert!(walked
                .iter()
                .all(|(r, _)| r.fleet.peak_concurrent_import_kw.is_some()));

            for (s, site) in sites.iter().enumerate() {
                let alone = FleetEvaluator::new(vec![*site]).with_backend(backend);
                for plan in &plans {
                    let i = usize::from(plan[s]);
                    let want = alone.evaluate(&[space.at(i)]);
                    let peak = want.fleet.peak_concurrent_import_kw.expect("tracked");
                    for table in [&by_site[s], &by_plan[s]] {
                        let entry = table.get(i).expect("filled");
                        assert_eq!(
                            entry.peak_import_kw.to_bits(),
                            peak.to_bits(),
                            "{backend:?} {} index {i}",
                            site.name
                        );
                        assert_eq!(entry.metrics, want.per_site[0].metrics);
                    }
                }
            }
        }
    }

    #[test]
    fn a_full_memo_stores_no_more_and_its_answers_stay_exact() {
        let (h, b, lh, lb) = two_sites();
        let cfg = SimConfig::default();
        let fleet = FleetEvaluator::new(vec![
            FleetSite {
                name: "houston",
                data: &h,
                load: &lh,
                cfg: &cfg,
            },
            FleetSite {
                name: "berkeley",
                data: &b,
                load: &lb,
                cfg: &cfg,
            },
        ]);
        let space = CompositionSpace::tiny();
        let tables = [SiteTable::new(27), SiteTable::new(27)];
        let tables = [(&space, &tables[0]), (&space, &tables[1])];
        let memo = PeakMemo::with_capacity(3);
        // 9 distinct plans, all walked under the first cap, which no
        // plan meets.
        let plans: Vec<Vec<u16>> = (0..9u16).map(|k| vec![k, (k * 5 + 1) % 27]).collect();
        let walks = fleet.evaluate_plans(
            &plans
                .iter()
                .map(|p| vec![space.at(usize::from(p[0])), space.at(usize::from(p[1]))])
                .collect::<Vec<_>>(),
        );
        let peaks: Vec<f64> = walks
            .iter()
            .map(|r| r.fleet.peak_concurrent_import_kw.expect("tracked"))
            .collect();
        let min_peak = peaks.iter().copied().fold(f64::INFINITY, f64::min);
        let first = fleet.evaluate_tabled(&plans, &tables, Some((min_peak * 0.5, &memo)));
        assert_eq!(memo.peaks().len(), 3, "the memo stops at its capacity");
        // The stored plans are the first three walked, under their keys.
        for (plan, &peak) in plans.iter().zip(&peaks).take(3) {
            let key = PeakMemo::key(plan, &tables).expect("fits a u64");
            assert_eq!(memo.peaks()[&key].to_bits(), peak.to_bits());
        }

        // Under any other cap, stored plans and walked ones answer alike.
        for cap in [min_peak * 0.5, peaks[4], 2.0 * peaks[0]] {
            let got = fleet.evaluate_tabled(&plans, &tables, Some((cap, &memo)));
            assert_eq!(memo.peaks().len(), 3);
            for ((r, violation), want) in got.iter().zip(&walks) {
                assert_eq!(
                    r.fleet.operational_t_per_day,
                    want.fleet.operational_t_per_day
                );
                assert_eq!(r.fleet.embodied_t, want.fleet.embodied_t);
                assert_eq!(
                    violation.map(f64::to_bits),
                    Some(want.fleet.peak_cap_violation_kw(cap).to_bits()),
                    "cap {cap}"
                );
            }
        }
        assert!(first.iter().all(|(_, v)| v.is_some_and(|v| v > 0.0)));
    }

    #[test]
    fn plan_keys_are_mixed_radix_and_overflow_to_none() {
        let spaces = [CompositionSpace::tiny(), CompositionSpace::paper()];
        let tables = [
            SiteTable::new(spaces[0].len()),
            SiteTable::new(spaces[1].len()),
        ];
        let pairs = [(&spaces[0], &tables[0]), (&spaces[1], &tables[1])];
        let n = spaces[1].len() as u64;
        assert_eq!(PeakMemo::key(&[0, 0], &pairs), Some(0));
        assert_eq!(PeakMemo::key(&[0, 5], &pairs), Some(5));
        assert_eq!(PeakMemo::key(&[2, 5], &pairs), Some(2 * n + 5));
        assert_eq!(PeakMemo::key(&[26, 1_088], &pairs), Some(27 * n - 1));
        // Five 65,536-point sites: the plan space passes 2^64.
        let big = SiteTable::new(65_536);
        let five = vec![(&spaces[0], &big); 5];
        assert_eq!(PeakMemo::key(&[0, 0, 0, 0, 1], &five), Some(1));
        assert_eq!(PeakMemo::key(&[1, 0, 0, 0, 0], &five), None);
    }

    #[test]
    fn peak_cap_violation_is_exceedance_only() {
        let m = FleetMetrics {
            operational_t_per_day: 1.0,
            operational_t_per_year: 365.0,
            embodied_t: 0.0,
            peak_concurrent_import_kw: Some(12_000.0),
            site_import_mwh: vec![1.0],
            grid_import_mwh: 1.0,
            energy_cost_usd: 0.0,
        };
        assert_eq!(m.peak_cap_violation_kw(15_000.0), 0.0);
        assert_eq!(m.peak_cap_violation_kw(12_000.0), 0.0);
        assert_eq!(m.peak_cap_violation_kw(10_000.0), 2_000.0);
    }

    #[test]
    #[should_panic(expected = "peak tracking disabled")]
    fn peak_cap_check_panics_without_tracking() {
        let m = FleetMetrics {
            operational_t_per_day: 1.0,
            operational_t_per_year: 365.0,
            embodied_t: 0.0,
            peak_concurrent_import_kw: None,
            site_import_mwh: vec![1.0],
            grid_import_mwh: 1.0,
            energy_cost_usd: 0.0,
        };
        m.peak_cap_violation_kw(10_000.0);
    }

    #[test]
    fn empty_cohort_is_empty() {
        let (h, _, lh, _) = two_sites();
        let cfg = SimConfig::default();
        let fleet = FleetEvaluator::new(vec![FleetSite {
            name: "houston",
            data: &h,
            load: &lh,
            cfg: &cfg,
        }]);
        assert!(fleet.evaluate_plans(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "n_steps must be positive")]
    fn zero_step_window_panics() {
        let (h, _, lh, _) = two_sites();
        let cfg = SimConfig::default();
        let fleet = FleetEvaluator::new(vec![FleetSite {
            name: "houston",
            data: &h,
            load: &lh,
            cfg: &cfg,
        }]);
        fleet.evaluate_plans_period(&[vec![Composition::BASELINE]], 0);
    }

    #[test]
    #[should_panic(expected = "2 compositions for 1 sites")]
    fn plan_arity_mismatch_panics() {
        let (h, _, lh, _) = two_sites();
        let cfg = SimConfig::default();
        let fleet = FleetEvaluator::new(vec![FleetSite {
            name: "houston",
            data: &h,
            load: &lh,
            cfg: &cfg,
        }]);
        fleet.evaluate_plans(&[vec![Composition::BASELINE, Composition::BASELINE]]);
    }

    #[test]
    #[should_panic(expected = "fleet has no sites")]
    fn empty_fleet_panics() {
        FleetEvaluator::new(Vec::new());
    }
}
