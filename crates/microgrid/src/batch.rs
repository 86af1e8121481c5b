//! The batched, structure-of-arrays evaluation engine.
//!
//! [`simulate_year`](crate::simulate_year) walks the year once per
//! composition: every candidate re-streams the site's PV / wind / CI /
//! price arrays and pays a `Box<dyn Storage>` virtual call on every step.
//! That is fine for a handful of candidates and wasteful for a sweep: the
//! paper's exhaustive baseline alone is 1,089 full-year simulations, and
//! NSGA-II / successive halving evaluate cohorts of the same shape.
//!
//! This module simulates a **batch** of compositions in a single time-major
//! pass: the outer loop walks timesteps, the inner loop walks candidates,
//! so each site sample is loaded once per step instead of once per step
//! *per candidate*. Batches are split into chunks evaluated in parallel;
//! chunk results are reassembled in input order, so output is
//! deterministic.
//!
//! Each chunk runs the one chunk walk, `Walk`, which the fleet engine
//! ([`crate::fleet`]) shares: candidates advance in lane groups of the
//! [`simd`](crate::simd) module's lane types, the width chosen by
//! [`BatchBackend`], and a short last group is padded with copies of the
//! chunk's last candidate.
//!
//! ## Agreement guarantee
//!
//! The battery/dispatch recursion — everything that feeds back into state —
//! runs the *same arithmetic* as the scalar path's [`ClcBattery`], so
//! simulated physics (and hourly SoC traces) are bit-identical. Only the
//! pure accumulators are reorganized (raw sums scaled once at the end
//! instead of per step), which perturbs reported metrics by at most a few
//! ulps. `tests/engine_agreement.rs` pins scalar, cosim and batch to a
//! relative 1e-9 on every [`AnnualMetrics`] field, for full years and
//! partial [`simulate_period`](crate::simulate_period) windows, and pins
//! both lane widths bit-identical to each other.
//!
//! ## Evaluator abstraction
//!
//! [`Evaluator`] is the capability the search layers program against: "I
//! can score compositions at a prepared site". [`BatchEvaluator`] is the
//! engine of choice; [`ScalarEvaluator`] wraps the reference path for
//! cross-checks and one-off evaluations.

use std::ops::Range;

use mgopt_storage::{ClcBattery, ClcParams, Storage};
use mgopt_telemetry::{self as telemetry, Counter, Stage};
use mgopt_units::{Power, SimDuration, TimeSeries};
use rayon::prelude::*;

use crate::composition::Composition;
use crate::metrics::{AnnualMetrics, AnnualResult};
use crate::simd::{split_residual, BatchBackend, LaneGroup, LaneParams, LanePolicy, Lanes, LANES};
use crate::simulate::SimConfig;
use crate::site::SiteData;

/// Candidates per parallel chunk. A multiple of the 4-lane width
/// ([`LANES`]) lets every chunk but the last of a batch divide evenly
/// into lane groups, so only a batch's final chunk pads its last group;
/// 64 keeps the scheduling granularity / state-locality sweet spot.
/// Shared with the fleet engine ([`crate::fleet`]).
pub(crate) const CHUNK: usize = 64;

/// Monomorphized storage dispatch: an enum over the storage models a
/// composition can carry, replacing `Box<dyn Storage + Send>` in hot loops.
///
/// Methods forward to the exact same [`ClcBattery`] arithmetic the scalar
/// and cosim engines use — the kernel changes *dispatch*, not physics.
#[derive(Debug, Clone)]
pub enum StorageKernel {
    /// No battery: refuses all power, zero state.
    Null,
    /// A C/L/C lithium-ion battery.
    Clc(ClcBattery),
}

impl StorageKernel {
    /// The kernel for a composition under the given battery parameters.
    pub fn for_composition(comp: &Composition, params: &ClcParams) -> Self {
        if comp.battery_kwh > 0.0 {
            StorageKernel::Clc(ClcBattery::new(
                mgopt_units::Energy::from_kwh(comp.battery_kwh),
                params.clone(),
            ))
        } else {
            StorageKernel::Null
        }
    }

    /// Current state of charge (0 for [`StorageKernel::Null`]).
    #[inline]
    pub fn soc(&self) -> f64 {
        match self {
            StorageKernel::Null => 0.0,
            StorageKernel::Clc(b) => b.soc(),
        }
    }

    /// Request `power` for `dt`; returns the accepted/delivered power in kW.
    #[inline]
    pub fn update_kw(&mut self, power: Power, dt: SimDuration) -> f64 {
        match self {
            StorageKernel::Null => 0.0,
            StorageKernel::Clc(b) => b.update(power, dt).kw(),
        }
    }

    /// Equivalent full cycles so far.
    pub fn equivalent_full_cycles(&self) -> f64 {
        match self {
            StorageKernel::Null => 0.0,
            StorageKernel::Clc(b) => b.equivalent_full_cycles(),
        }
    }
}

/// Per-candidate raw accumulators: unscaled sums of per-step kW values.
///
/// The scalar path multiplies by `dt_h` and divides by 1e3 on every step;
/// those are pure output transforms (nothing feeds back into simulation
/// state), so the walk sums raw values lane-wide
/// ([`LaneAcc`](crate::simd::LaneAcc)) and [`BatchAcc::finish`] applies
/// them once per candidate.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchAcc {
    pub(crate) production: f64,
    pub(crate) import: f64,
    pub(crate) export: f64,
    pub(crate) direct: f64,
    pub(crate) charge: f64,
    pub(crate) discharge: f64,
    pub(crate) unmet: f64,
    pub(crate) op_weighted: f64,
    pub(crate) cost_import: f64,
    pub(crate) cost_export: f64,
    pub(crate) self_sufficient_steps: usize,
}

impl BatchAcc {
    /// Scale the raw sums into [`AnnualMetrics`] (mirrors the scalar
    /// `Accumulators::finish` formulas).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish(
        &self,
        comp: &Composition,
        cfg: &SimConfig,
        battery_cycles: f64,
        steps: usize,
        days: f64,
        demand_kwh: f64,
        dt_h: f64,
    ) -> AnnualMetrics {
        let import_kwh = self.import * dt_h;
        let op_kg = self.op_weighted * dt_h / 1e3;
        let op_t_total = op_kg / 1e3;
        let op_t_year = op_t_total * 365.0 / days.max(1e-9);
        let demand = demand_kwh.max(1e-12);
        let cost_usd = (self.cost_import - self.cost_export * cfg.export_price_factor) * dt_h / 1e3;
        AnnualMetrics {
            demand_mwh: demand_kwh / 1e3,
            production_mwh: self.production * dt_h / 1e3,
            grid_import_mwh: import_kwh / 1e3,
            grid_export_mwh: self.export * dt_h / 1e3,
            direct_use_mwh: self.direct * dt_h / 1e3,
            battery_charge_mwh: self.charge * dt_h / 1e3,
            battery_discharge_mwh: self.discharge * dt_h / 1e3,
            unmet_mwh: self.unmet * dt_h / 1e3,
            operational_t_per_day: op_t_total / days.max(1e-9),
            operational_t_per_year: op_t_year,
            embodied_t: cfg.embodied.total_t(comp),
            coverage: (1.0 - import_kwh / demand).clamp(0.0, 1.0),
            direct_coverage: (self.direct * dt_h / demand).clamp(0.0, 1.0),
            battery_cycles,
            self_sufficient_fraction: self.self_sufficient_steps as f64 / steps.max(1) as f64,
            energy_cost_usd: cost_usd,
        }
    }
}

/// Simulate a batch of compositions for a full year in one time-major pass.
///
/// Results are returned in input order and are deterministic regardless of
/// thread scheduling.
///
/// # Panics
/// Panics when `load_kw` does not match the site data's step/length.
pub fn simulate_batch(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
) -> Vec<AnnualResult> {
    simulate_batch_period(data, load_kw, comps, cfg, data.len())
}

/// Simulate only the first `n_steps` for every composition in the batch —
/// the low-fidelity cohort evaluation used by pruning searches.
///
/// # Panics
/// Panics when `load_kw` does not match the site data's step/length or
/// `n_steps` is zero.
pub fn simulate_batch_period(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
    n_steps: usize,
) -> Vec<AnnualResult> {
    simulate_batch_period_with_backend(data, load_kw, comps, cfg, n_steps, BatchBackend::default())
}

/// [`simulate_batch_period`] at an explicit lane width. Both widths run
/// the same walk and are pinned bit-identical by
/// `tests/engine_agreement.rs`.
///
/// # Panics
/// Same contract as [`simulate_batch_period`].
pub fn simulate_batch_period_with_backend(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
    n_steps: usize,
    backend: BatchBackend,
) -> Vec<AnnualResult> {
    assert_eq!(load_kw.step(), data.step(), "load step mismatch");
    assert_eq!(load_kw.len(), data.len(), "load length mismatch");
    assert!(n_steps > 0, "n_steps must be positive");
    if comps.is_empty() {
        return Vec::new();
    }

    let n = n_steps.min(data.len());
    // Demand is identical for every candidate: accumulate it once.
    let demand_kwh: f64 = load_kw.values()[..n].iter().sum::<f64>() * data.step().hours();

    // Stage-total snapshots attribute this call's prepare/kernel time in
    // the emitted event (search layers call engines sequentially, so the
    // deltas are this call's own spans).
    let trace = telemetry::enabled().then(|| {
        (
            // mgopt-lint: allow(determinism) — wall clock feeds the batch_eval trace only, never results
            std::time::Instant::now(),
            telemetry::stage_ms(Stage::BatchPrepare),
            telemetry::stage_ms(Stage::BatchKernel),
            telemetry::counter_value(Counter::SimdRows),
            telemetry::counter_value(Counter::SimdRemainderRows),
        )
    });

    let chunks: Vec<&[Composition]> = comps.chunks(CHUNK).collect();
    let nested: Vec<Vec<AnnualResult>> = chunks
        .into_par_iter()
        .map(|chunk| match backend {
            BatchBackend::Scalar => run_chunk::<1>(data, load_kw, chunk, cfg, n, demand_kwh),
            BatchBackend::Simd => run_chunk::<LANES>(data, load_kw, chunk, cfg, n, demand_kwh),
        })
        .collect();
    let out: Vec<AnnualResult> = nested.into_iter().flatten().collect();

    if let Some((t0, prep0, kern0, simd0, rem0)) = trace {
        telemetry::Event::new("batch_eval")
            .u64("candidates", comps.len() as u64)
            .u64("steps", n as u64)
            .u64("chunks", comps.len().div_ceil(CHUNK) as u64)
            .u64("rows", (comps.len() * n) as u64)
            .bool("simd", backend == BatchBackend::Simd)
            .u64(
                "simd_rows",
                telemetry::counter_value(Counter::SimdRows) - simd0,
            )
            .u64(
                "simd_remainder_rows",
                telemetry::counter_value(Counter::SimdRemainderRows) - rem0,
            )
            .f64(
                "prepare_ms",
                telemetry::stage_ms(Stage::BatchPrepare) - prep0,
            )
            .f64("kernel_ms", telemetry::stage_ms(Stage::BatchKernel) - kern0)
            .f64("wall_ms", t0.elapsed().as_secs_f64() * 1e3)
            .emit();
    }
    out
}

/// Evaluate one chunk of candidates at one site over `0..n`, `L` per
/// lane group.
fn run_chunk<const L: usize>(
    data: &SiteData,
    load_kw: &TimeSeries,
    comps: &[Composition],
    cfg: &SimConfig,
    n: usize,
    demand_kwh: f64,
) -> Vec<AnnualResult> {
    let prepare_span = telemetry::span(Stage::BatchPrepare);
    let mut walk = Walk::<L>::new(data, load_kw, comps, cfg);
    drop(prepare_span);

    let kernel_span = telemetry::span(Stage::BatchKernel);
    walk.advance(0..n, Imports::Drop);
    drop(kernel_span);

    telemetry::add(Counter::BatchChunks, 1);
    telemetry::add(Counter::BatchRows, (comps.len() * n) as u64);
    walk.finish(demand_kwh)
}

/// What [`Walk::advance`] does with each step's per-lane grid import.
///
/// A `peaks` slice holds one running maximum per [`Walk::slots`] slot,
/// folded with `f64::max`: a slot's own peak import. A `buf` holds one
/// row of slots per step of the advanced range: the fleet engine's
/// step-aligned concurrent imports.
pub(crate) enum Imports<'b> {
    /// Discard them (the batch engine; a fleet without peak tracking).
    Drop,
    /// Fold each slot's peak (one site walked on its own).
    Peak(&'b mut [f64]),
    /// Overwrite the buffer (a fleet's first site: no reset pass) and
    /// fold each slot's peak.
    Set {
        buf: &'b mut [f64],
        peaks: &'b mut [f64],
    },
    /// Add into the buffer (every later site) and fold each slot's peak.
    Add {
        buf: &'b mut [f64],
        peaks: &'b mut [f64],
    },
}

/// The chunk walk both engines run: one site's chunk of candidates,
/// `L` candidates per [`LaneGroup`], stepped time-major.
///
/// The last lane group is padded with copies of the chunk's last
/// candidate. A padded lane runs exactly that candidate's arithmetic, so
/// it takes the same envelope branch and never forces the other one in
/// [`LaneKernel::step`](crate::simd::LaneKernel::step);
/// [`Walk::finish`] drops its results.
pub(crate) struct Walk<'a, const L: usize> {
    comps: &'a [Composition],
    cfg: &'a SimConfig,
    pv: &'a [f64],
    wind: &'a [f64],
    load: &'a [f64],
    ci: &'a [f64],
    price: &'a [f64],
    dt_h: f64,
    steps_per_hour: usize,
    groups: Vec<LaneGroup<L>>,
    params: LaneParams<L>,
    policy: LanePolicy<L>,
    islanded: bool,
    /// Hourly SoC per candidate, empty unless `cfg.record_soc`.
    soc_traces: Vec<Vec<f64>>,
    /// Steps advanced so far.
    steps: usize,
}

impl<'a, const L: usize> Walk<'a, L> {
    /// Lane state for `comps` (at least one) at one prepared site, before
    /// its first step.
    pub(crate) fn new(
        data: &'a SiteData,
        load_kw: &'a TimeSeries,
        comps: &'a [Composition],
        cfg: &'a SimConfig,
    ) -> Self {
        let last = *comps.last().expect("a chunk holds at least one candidate");
        let groups = comps
            .chunks(L)
            .map(|group| {
                let mut lanes = [last; L];
                lanes[..group.len()].copy_from_slice(group);
                LaneGroup::new(&lanes, &cfg.battery)
            })
            .collect();
        let dt = data.step();
        Walk {
            comps,
            cfg,
            pv: data.pv_unit_kw.values(),
            wind: data.wind_unit_kw.values(),
            load: load_kw.values(),
            ci: data.ci_g_per_kwh.values(),
            price: data.price_usd_per_mwh.values(),
            dt_h: dt.hours(),
            steps_per_hour: (3_600 / dt.secs()).max(1) as usize,
            groups,
            params: LaneParams::new(&cfg.battery, dt.hours()),
            policy: LanePolicy::new(cfg.policy),
            islanded: cfg.policy.is_islanded(),
            soc_traces: if cfg.record_soc {
                vec![Vec::new(); comps.len()]
            } else {
                Vec::new()
            },
            steps: 0,
        }
    }

    /// Lane slots per step: candidates plus padding.
    pub(crate) fn slots(&self) -> usize {
        self.groups.len() * L
    }

    /// Walk the steps `steps`, handing each step's per-lane import to
    /// `imports`.
    pub(crate) fn advance(&mut self, steps: Range<usize>, imports: Imports<'_>) {
        let slots = self.slots();
        // Imports are `+0.0` or positive, never NaN, so the max is exact
        // and independent of fold order.
        let fold = |peaks: &mut [f64], g: usize, import: Lanes<L>| {
            for (p, v) in peaks[g * L..][..L].iter_mut().zip(import.0) {
                *p = p.max(v);
            }
        };
        match imports {
            Imports::Drop => self.walk(steps, |_, _, _| {}),
            Imports::Peak(peaks) => self.walk(steps, |_, g, import| fold(peaks, g, import)),
            Imports::Set { buf, peaks } => self.walk(steps, |row, g, import| {
                buf[row * slots + g * L..][..L].copy_from_slice(&import.0);
                fold(peaks, g, import);
            }),
            Imports::Add { buf, peaks } => self.walk(steps, |row, g, import| {
                let dst = &mut buf[row * slots + g * L..][..L];
                for (d, v) in dst.iter_mut().zip(import.0) {
                    *d += v;
                }
                fold(peaks, g, import);
            }),
        }
    }

    /// The walk proper; `emit(row, group, import)` receives every lane
    /// group's import at every step (`row` counts from the range start).
    fn walk(&mut self, steps: Range<usize>, mut emit: impl FnMut(usize, usize, Lanes<L>)) {
        let (params, policy, islanded) = (self.params, self.policy, self.islanded);
        self.steps += steps.len();
        for (row, i) in steps.enumerate() {
            let ci_i = self.ci[i];
            let pv = Lanes::splat(self.pv[i]);
            let wind = Lanes::splat(self.wind[i]);
            let load = Lanes::splat(self.load[i]);
            let ci = Lanes::splat(ci_i);
            let price = Lanes::splat(self.price[i]);
            for (g, group) in self.groups.iter_mut().enumerate() {
                // Per-lane generation: the same mul/mul/add as the scalar
                // engine (no fused multiply-add — rounding must match).
                let gen = group.solar * pv + group.wind * wind;
                let p_delta = gen - load;
                let request = policy.request(p_delta, group.kernel.soc(), ci_i);
                let p_storage = group.kernel.step(request, &params);
                let residual = p_delta - p_storage;
                let (import, export, unmet) = split_residual(residual, islanded);
                group
                    .acc
                    .record(gen, load, import, export, p_storage, unmet, ci, price);
                emit(row, g, import);
            }
            if !self.soc_traces.is_empty() && i % self.steps_per_hour == 0 {
                for (k, trace) in self.soc_traces.iter_mut().enumerate() {
                    trace.push(self.groups[k / L].kernel.soc().lane(k % L));
                }
            }
        }
    }

    /// Scale the raw accumulators into one result per candidate, in
    /// chunk order (padded lanes dropped); `demand_kwh` is the site's
    /// demand over the steps walked.
    pub(crate) fn finish(self, demand_kwh: f64) -> Vec<AnnualResult> {
        let (m, n) = (self.comps.len(), self.steps);
        if L > 1 {
            telemetry::add(Counter::SimdRows, (m * n) as u64);
            telemetry::add(Counter::SimdRemainderRows, ((self.slots() - m) * n) as u64);
        }
        let days = n as f64 * self.dt_h / 24.0;
        let mut traces = self.soc_traces.into_iter();
        self.comps
            .iter()
            .enumerate()
            .map(|(k, comp)| {
                let (group, lane) = (&self.groups[k / L], k % L);
                let cycles = group.kernel.equivalent_full_cycles(lane);
                AnnualResult {
                    composition: *comp,
                    metrics: group
                        .acc
                        .extract(lane)
                        .finish(comp, self.cfg, cycles, n, days, demand_kwh, self.dt_h),
                    soc_trace_hourly: traces.next().unwrap_or_default(),
                }
            })
            .collect()
    }
}

/// The capability search layers program against: scoring compositions at a
/// prepared site. `Sync` because cohorts are evaluated in parallel.
pub trait Evaluator: Sync {
    /// Evaluate one composition over the full year.
    fn evaluate(&self, comp: &Composition) -> AnnualResult;

    /// Evaluate a batch over the full year, in input order.
    fn evaluate_batch(&self, comps: &[Composition]) -> Vec<AnnualResult>;

    /// Evaluate a batch over only the first `n_steps` (low fidelity).
    fn evaluate_batch_period(&self, comps: &[Composition], n_steps: usize) -> Vec<AnnualResult>;
}

/// The reference evaluator: one scalar [`simulate_year`](crate::simulate_year)
/// per composition.
#[derive(Debug, Clone, Copy)]
pub struct ScalarEvaluator<'a> {
    /// Prepared site data.
    pub data: &'a SiteData,
    /// The load trace.
    pub load: &'a TimeSeries,
    /// Simulation parameters.
    pub cfg: &'a SimConfig,
}

impl Evaluator for ScalarEvaluator<'_> {
    fn evaluate(&self, comp: &Composition) -> AnnualResult {
        crate::simulate::simulate_year(self.data, self.load, comp, self.cfg)
    }

    fn evaluate_batch(&self, comps: &[Composition]) -> Vec<AnnualResult> {
        comps
            .par_iter()
            .map(|c| crate::simulate::simulate_year(self.data, self.load, c, self.cfg))
            .collect()
    }

    fn evaluate_batch_period(&self, comps: &[Composition], n_steps: usize) -> Vec<AnnualResult> {
        comps
            .par_iter()
            .map(|c| crate::simulate::simulate_period(self.data, self.load, c, self.cfg, n_steps))
            .collect()
    }
}

/// The batched columnar evaluator: one time-major pass per batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchEvaluator<'a> {
    /// Prepared site data.
    pub data: &'a SiteData,
    /// The load trace.
    pub load: &'a TimeSeries,
    /// Simulation parameters.
    pub cfg: &'a SimConfig,
    backend: BatchBackend,
}

impl<'a> BatchEvaluator<'a> {
    /// Create an evaluator over prepared inputs (4-lane walk).
    pub fn new(data: &'a SiteData, load: &'a TimeSeries, cfg: &'a SimConfig) -> Self {
        Self {
            data,
            load,
            cfg,
            backend: BatchBackend::default(),
        }
    }

    /// Set the walk's lane width (A/B benches, agreement tests).
    pub fn with_backend(mut self, backend: BatchBackend) -> Self {
        self.backend = backend;
        self
    }
}

impl Evaluator for BatchEvaluator<'_> {
    fn evaluate(&self, comp: &Composition) -> AnnualResult {
        self.evaluate_batch(std::slice::from_ref(comp))
            .pop()
            .expect("one composition in, one result out")
    }

    fn evaluate_batch(&self, comps: &[Composition]) -> Vec<AnnualResult> {
        self.evaluate_batch_period(comps, self.data.len())
    }

    fn evaluate_batch_period(&self, comps: &[Composition], n_steps: usize) -> Vec<AnnualResult> {
        simulate_batch_period_with_backend(
            self.data,
            self.load,
            comps,
            self.cfg,
            n_steps,
            self.backend,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DispatchPolicy;
    use crate::simulate::{simulate_period, simulate_year};
    use crate::site::Site;
    use mgopt_workload::HpcWorkload;

    fn setup() -> (SiteData, TimeSeries) {
        let data = Site::houston().prepare(SimDuration::from_hours(1.0), 42);
        let load = HpcWorkload::perlmutter_like(42).generate(SimDuration::from_hours(1.0));
        (data, load)
    }

    fn assert_metrics_close(a: &AnnualMetrics, b: &AnnualMetrics, what: &str) {
        // The shared symmetric tolerance (mgopt_units::rel_error) over
        // every metrics field; embodied carbon is pure bookkeeping and
        // must match exactly.
        let (err, field) = a.max_rel_error(b);
        assert!(err <= 1e-9, "{what}: {field} rel err {err:e}");
        assert!(a.embodied_t == b.embodied_t, "{what}: embodied");
    }

    #[test]
    fn batch_of_one_matches_scalar() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        for comp in [
            Composition::BASELINE,
            Composition::new(4, 0.0, 7_500.0),
            Composition::new(3, 8_000.0, 22_500.0),
            Composition::new(0, 16_000.0, 60_000.0),
        ] {
            let scalar = simulate_year(&data, &load, &comp, &cfg);
            let batch = simulate_batch(&data, &load, &[comp], &cfg);
            assert_eq!(batch.len(), 1);
            assert_metrics_close(&scalar.metrics, &batch[0].metrics, &comp.to_string());
        }
    }

    #[test]
    fn big_batch_matches_scalar_everywhere() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        // A batch larger than one chunk, mixed shapes, sweep-like ordering.
        let mut comps = Vec::new();
        for w in [0u32, 2, 7] {
            for s in [0.0, 8_000.0, 40_000.0] {
                for b in [0.0, 7_500.0, 37_500.0, 60_000.0] {
                    comps.push(Composition::new(w, s, b));
                }
            }
        }
        let results = simulate_batch(&data, &load, &comps, &cfg);
        assert_eq!(results.len(), comps.len());
        for (comp, r) in comps.iter().zip(&results) {
            assert_eq!(r.composition, *comp, "order preserved");
            let scalar = simulate_year(&data, &load, comp, &cfg);
            assert_metrics_close(&scalar.metrics, &r.metrics, &comp.to_string());
        }
    }

    #[test]
    fn partial_periods_match_scalar() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        let comps = [
            Composition::new(4, 0.0, 7_500.0),
            Composition::new(0, 12_000.0, 37_500.0),
        ];
        for n in [1usize, 24, 1_095, 8_760] {
            let batch = simulate_batch_period(&data, &load, &comps, &cfg, n);
            for (comp, r) in comps.iter().zip(&batch) {
                let scalar = simulate_period(&data, &load, comp, &cfg, n);
                assert_metrics_close(&scalar.metrics, &r.metrics, &format!("{comp} n={n}"));
            }
        }
    }

    #[test]
    fn policies_agree_including_stateful_battery_interaction() {
        let (data, load) = setup();
        for policy in [
            DispatchPolicy::Islanded,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 330.0,
                target_soc: 0.9,
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 200.0,
            },
        ] {
            let cfg = SimConfig {
                policy,
                ..SimConfig::default()
            };
            let comp = Composition::new(3, 8_000.0, 22_500.0);
            let scalar = simulate_year(&data, &load, &comp, &cfg);
            let batch = simulate_batch(&data, &load, &[comp], &cfg);
            assert_metrics_close(&scalar.metrics, &batch[0].metrics, policy.name());
        }
    }

    #[test]
    fn soc_traces_match_scalar_exactly() {
        let (data, load) = setup();
        let cfg = SimConfig {
            record_soc: true,
            ..SimConfig::default()
        };
        let comp = Composition::new(2, 4_000.0, 15_000.0);
        let scalar = simulate_year(&data, &load, &comp, &cfg);
        let batch = simulate_batch(&data, &load, &[comp], &cfg);
        assert_eq!(scalar.soc_trace_hourly, batch[0].soc_trace_hourly);
    }

    #[test]
    fn evaluators_agree_and_preserve_order() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        let comps: Vec<Composition> = (0..10)
            .map(|i| Composition::new(i % 5, (i % 3) as f64 * 10_000.0, (i % 4) as f64 * 7_500.0))
            .collect();
        let scalar = ScalarEvaluator {
            data: &data,
            load: &load,
            cfg: &cfg,
        };
        let batch = BatchEvaluator::new(&data, &load, &cfg);
        let a = scalar.evaluate_batch(&comps);
        let b = batch.evaluate_batch(&comps);
        for ((x, y), comp) in a.iter().zip(&b).zip(&comps) {
            assert_eq!(x.composition, *comp);
            assert_eq!(y.composition, *comp);
            assert_metrics_close(&x.metrics, &y.metrics, &comp.to_string());
        }
        let single = batch.evaluate(&comps[3]);
        assert_metrics_close(&b[3].metrics, &single.metrics, "single-eval");
    }

    #[test]
    fn empty_batch_is_empty() {
        let (data, load) = setup();
        let out = simulate_batch(&data, &load, &[], &SimConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "n_steps must be positive")]
    fn zero_step_period_panics_instead_of_reporting_garbage_rates() {
        // Regression: a zero-step window used to fall through to the
        // `days.max(1e-9)` guard in the finish formulas and report
        // near-zero-day rates; the API boundary now rejects it.
        let (data, load) = setup();
        simulate_batch_period(
            &data,
            &load,
            &[Composition::BASELINE],
            &SimConfig::default(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "n_steps must be positive")]
    fn evaluator_zero_step_period_panics() {
        let (data, load) = setup();
        let cfg = SimConfig::default();
        BatchEvaluator::new(&data, &load, &cfg).evaluate_batch_period(&[Composition::BASELINE], 0);
    }

    #[test]
    fn simd_walk_is_bit_identical_to_scalar_walk_for_every_policy() {
        let (data, load) = setup();
        for policy in [
            DispatchPolicy::SelfConsumption,
            DispatchPolicy::Islanded,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 330.0,
                target_soc: 0.9,
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 200.0,
            },
        ] {
            let cfg = SimConfig {
                policy,
                ..SimConfig::default()
            };
            // A batch exercising full lane groups, a padded last group
            // and multiple chunks; null-battery lanes included.
            let comps: Vec<Composition> = (0..67)
                .map(|i| {
                    Composition::new(
                        (i % 5) as u32,
                        (i % 3) as f64 * 10_000.0,
                        (i % 4) as f64 * 7_500.0,
                    )
                })
                .collect();
            let scalar = BatchEvaluator::new(&data, &load, &cfg)
                .with_backend(BatchBackend::Scalar)
                .evaluate_batch(&comps);
            let simd = BatchEvaluator::new(&data, &load, &cfg)
                .with_backend(BatchBackend::Simd)
                .evaluate_batch(&comps);
            for (a, b) in scalar.iter().zip(&simd) {
                assert_eq!(
                    a.metrics,
                    b.metrics,
                    "{}: {} diverges",
                    policy.name(),
                    a.composition
                );
            }
        }
    }

    #[test]
    fn lane_walk_soc_traces_equal_simulate_year_bitwise_at_padded_sizes() {
        let (data, load) = setup();
        for policy in [
            DispatchPolicy::SelfConsumption,
            DispatchPolicy::Islanded,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 330.0,
                target_soc: 0.9,
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 200.0,
            },
        ] {
            let cfg = SimConfig {
                policy,
                record_soc: true,
                ..SimConfig::default()
            };
            // 5 and 67 leave a padded last lane group (67 in the second
            // chunk); null-battery candidates included.
            for size in [5usize, 67] {
                let comps: Vec<Composition> = (0..size)
                    .map(|i| {
                        Composition::new(
                            (i % 5) as u32,
                            (i % 3) as f64 * 10_000.0,
                            (i % 4) as f64 * 7_500.0,
                        )
                    })
                    .collect();
                let batch = BatchEvaluator::new(&data, &load, &cfg)
                    .with_backend(BatchBackend::Simd)
                    .evaluate_batch(&comps);
                for (comp, r) in comps.iter().zip(&batch) {
                    let want = simulate_year(&data, &load, comp, &cfg).soc_trace_hourly;
                    let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&r.soc_trace_hourly),
                        bits(&want),
                        "{} size={size} {comp}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "load length mismatch")]
    fn mismatched_load_panics() {
        let (data, _) = setup();
        let short = TimeSeries::new(SimDuration::from_hours(1.0), vec![1.0; 100]);
        simulate_batch(
            &data,
            &short,
            &[Composition::BASELINE],
            &SimConfig::default(),
        );
    }
}
