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
//! only on its prepared inputs and its composition. So a cohort that
//! needs no concurrent peak can be answered per site:
//! [`FleetEvaluator::evaluate_tabled`] keeps one [`SiteTable`] per member,
//! indexed by composition index, and walks only the (site, composition)
//! pairs the table has not seen.
//!
//! ## Agreement guarantee
//!
//! Per-site results are **bit-identical** to running the single-site batch
//! engine on each site independently: every site runs the batch walk on
//! its own candidates, block boundaries only pause it, and a candidate's
//! lane never reads another lane. Table-backed results are therefore the
//! plan walk's results, bit for bit. `tests/fleet_agreement.rs` and
//! `tests/site_table.rs` pin this exactly, and `tests/fleet_agreement.rs`
//! pins fleet totals to the cosim [`Environment`](mgopt_cosim) oracle at
//! ≤1e-9 relative.

use std::sync::OnceLock;

use mgopt_telemetry::{self as telemetry, Counter, Stage};
use mgopt_units::TimeSeries;
use rayon::prelude::*;

use crate::batch::{run_chunk, ChunkStats, Imports, Walk, CHUNK};
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

/// The fleet engine's chunk telemetry (per-site walks of the table path).
const FLEET_STATS: ChunkStats = ChunkStats {
    prepare: Stage::FleetPrepare,
    kernel: Stage::FleetKernel,
    chunks: Counter::FleetChunks,
    rows: Counter::FleetRows,
};

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
/// A slot holds the [`AnnualMetrics`] the chunk walk reports for that
/// composition at that member's prepared inputs, so the table is only
/// valid next to those inputs: it never outlives or leaves them. Slots
/// are [`OnceLock`]s, so concurrent studies share one table without a
/// lock; two that race for a slot computed bit-identical metrics, and
/// the loser's copy is dropped. There is no map, so lookups cannot
/// depend on iteration order.
///
/// Memory: 136 bytes per slot (an [`AnnualMetrics`] plus the lock
/// state), allocated whole on construction.
#[derive(Debug)]
pub struct SiteTable {
    slots: Box<[OnceLock<AnnualMetrics>]>,
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

    /// The stored metrics of composition `index`, if it has been walked.
    ///
    /// # Panics
    /// Panics when `index` is outside the space.
    pub fn get(&self, index: usize) -> Option<&AnnualMetrics> {
        self.slots[index].get()
    }
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
    /// disabled via [`FleetEvaluator::with_peak_tracking`].
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
            .map(|chunk| match self.backend {
                BatchBackend::Scalar => self.run_chunk::<1>(chunk, n, &demand_kwh),
                BatchBackend::Simd => self.run_chunk::<LANES>(chunk, n, &demand_kwh),
            })
            .collect();
        let out: Vec<FleetResult> = nested.into_iter().flatten().collect();

        let walked = plans.len() * self.sites.len();
        self.emit_fleet_eval(trace, plans.len(), n, plans.len().div_ceil(CHUNK), walked);
        out
    }

    /// Evaluate an uncapped cohort over the full horizon through per-site
    /// result tables, in input order.
    ///
    /// Each plan is given as one composition index per site (a fleet
    /// genome); `tables` pairs each site, in site order, with its
    /// [`CompositionSpace`] and [`SiteTable`]. Per site, only the indices
    /// the table lacks are walked — once each, in first-seen order, in
    /// chunks of one site's compositions — and all (site, chunk) walks
    /// run as one parallel pass. Their metrics fill the table, and every
    /// plan is then answered from it through [`FleetMetrics::from_sites`].
    /// Results equal [`evaluate_plans`](Self::evaluate_plans) bit for bit,
    /// except that they carry no SoC traces.
    ///
    /// The caller must pair each site with the table of *that* site's
    /// prepared inputs and config: the table cannot tell.
    ///
    /// # Panics
    /// Panics when peak tracking is on (a table holds no per-step
    /// imports), when `tables` does not match the sites, when a table's
    /// size differs from its space's, when a plan's length differs from
    /// the number of sites, or when an index lies outside its space.
    pub fn evaluate_tabled(
        &self,
        plans: &[Vec<u16>],
        tables: &[(&CompositionSpace, &SiteTable)],
    ) -> Vec<FleetResult> {
        assert!(
            !self.track_peak,
            "a per-site table cannot report a concurrent peak: disable peak tracking"
        );
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

        // Per site: the indices this cohort needs and the table lacks,
        // each once, in first-seen order.
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
            let (site, (space, table)) = (&self.sites[s], tables[s]);
            let comps: Vec<Composition> = idx.iter().map(|&i| space.at(i)).collect();
            let (data, load, cfg, demand) = (site.data, site.load, site.cfg, demand_kwh[s]);
            let results = match self.backend {
                BatchBackend::Scalar => {
                    run_chunk::<1>(data, load, &comps, cfg, n, demand, &FLEET_STATS)
                }
                BatchBackend::Simd => {
                    run_chunk::<LANES>(data, load, &comps, cfg, n, demand, &FLEET_STATS)
                }
            };
            for (&i, result) in idx.iter().zip(results) {
                // A racing study may have filled the slot first, with
                // bit-identical metrics: keep either.
                let _ = table.slots[i].set(result.metrics);
            }
        });

        let out = plans
            .iter()
            .map(|plan| {
                let per_site: Vec<AnnualResult> = plan
                    .iter()
                    .zip(tables)
                    .map(|(&g, (space, table))| {
                        let i = usize::from(g);
                        AnnualResult {
                            composition: space.at(i),
                            metrics: table
                                .get(i)
                                .expect("every slot a plan needs was filled above")
                                .clone(),
                            soc_trace_hourly: Vec::new(),
                        }
                    })
                    .collect();
                FleetResult {
                    fleet: FleetMetrics::from_sites(&per_site, None),
                    per_site,
                }
            })
            .collect();

        let walked = unseen.iter().map(Vec::len).sum();
        self.emit_fleet_eval(trace, plans.len(), n, chunks, walked);
        out
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
    fn emit_fleet_eval(
        &self,
        trace: Option<PassTrace>,
        plans: usize,
        steps: usize,
        chunks: usize,
        walked: usize,
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

    /// Evaluate one chunk of plans over `0..n`: one [`Walk`] per site,
    /// advanced site by site in `BLOCK`-step blocks.
    fn run_chunk<const L: usize>(
        &self,
        plans: &[Vec<Composition>],
        n: usize,
        demand_kwh: &[f64],
    ) -> Vec<FleetResult> {
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
        let track_peak = self.track_peak;
        let mut import_buf = vec![0.0f64; if track_peak { block * slots } else { 0 }];
        let mut peaks = vec![0.0f64; slots];
        drop(prepare_span);

        let kernel_span = telemetry::span(Stage::FleetKernel);
        for i0 in (0..n).step_by(block) {
            let i1 = (i0 + block).min(n);
            for (s, walk) in walks.iter_mut().enumerate() {
                let imports = match (track_peak, s) {
                    (false, _) => Imports::Drop,
                    (true, 0) => Imports::Set(&mut import_buf),
                    (true, _) => Imports::Add(&mut import_buf),
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
        (0..m)
            .map(|p| {
                let per_site: Vec<AnnualResult> = site_results
                    .iter_mut()
                    .map(|results| results.next().expect("one result per plan"))
                    .collect();
                let fleet = FleetMetrics::from_sites(&per_site, track_peak.then(|| peaks[p]));
                FleetResult { per_site, fleet }
            })
            .collect()
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
