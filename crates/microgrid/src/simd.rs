//! The lane layer of the chunk walk.
//!
//! Stable Rust has no `std::simd`; this module provides an explicit
//! `L`-lane `f64` vector ([`Lanes`], `#[repr(align(32))]` so a 4-lane
//! group fills one AVX register / half a cache line) with branchless
//! `min`/`max`/`select` combinators, plus a lane-wide reimplementation of
//! the C/L/C battery envelope ([`LaneKernel`]), dispatch-policy requests
//! ([`LanePolicy`]) and the raw metric accumulators ([`LaneAcc`]). The
//! batch and fleet engines run their one chunk walk on these types; the
//! lane width is a const parameter, and [`BatchBackend`] picks 4 lanes
//! (the default) or 1.
//!
//! ## The lanes-are-candidates invariant
//!
//! Each lane holds a **different candidate composition**, never a
//! different timestep of the same candidate. Per-candidate state only
//! ever interacts with its own lane, so the arithmetic each candidate
//! sees — operand values, operation order, rounding — is exactly the
//! scalar [`StorageKernel`](crate::StorageKernel) recursion, and results
//! are **bit-identical** at every lane width, not merely close. The
//! branchy charge/idle/discharge envelope becomes select-based: both
//! envelope branches are evaluated lane-wide and the per-lane result is
//! chosen bitwise, which never perturbs the chosen value. Every
//! element-wise op lowers to the same scalar `f64` operation per lane
//! (`f64::min`, `f64::max`, `f64::clamp`, `+`, `*`, `/`, never a fused
//! multiply-add), so agreement does not depend on how LLVM vectorizes
//! the fixed-width loops.

// The element-wise ops are written as explicit `for i in 0..L` index loops
// on purpose: every lane must run the exact scalar f64 operation, and the
// fixed-width indexed form is the clearest statement of that (and what
// LLVM unrolls/vectorizes). Iterator adapters obscure the lane index the
// whole module is organized around.
#![allow(clippy::needless_range_loop)]
// The per-step kernels the walk calls once per lane group and step
// (`LaneKernel::step`, `LanePolicy::request`, `split_residual`,
// `LaneAcc::record`) are `#[inline(always)]`: as generic items they are
// instantiated inside the walk, and with plain `#[inline]` LLVM left
// some of them out of line there, costing the 4-lane sweep ~15%.

use std::ops::{Add, BitAnd, Div, Mul, Neg, Not, Sub};

use mgopt_storage::{ClcBattery, ClcParams, Storage};

use crate::batch::BatchAcc;
use crate::composition::Composition;
use crate::policy::DispatchPolicy;

/// Lanes per vector of the default walk: four `f64`s, one 256-bit
/// register.
pub const LANES: usize = 4;

/// The lane width the batch and fleet engines walk candidates at.
///
/// Both widths run the same walk and are pinned bit-identical; `Scalar`
/// is the A/B baseline the bench bins time the 4-lane walk against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchBackend {
    /// One candidate per lane group.
    Scalar,
    /// [`LANES`] candidates per lane group.
    #[default]
    Simd,
}

// ---------------------------------------------------------------------
// Lanes / Mask
// ---------------------------------------------------------------------

/// `L` `f64` lanes, register-aligned.
///
/// Every element-wise op is a fixed `L`-iteration loop over the matching
/// scalar `f64` operation, so per-lane results are bit-identical to
/// scalar code whether or not LLVM emits vector instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct Lanes<const L: usize>(pub [f64; L]);

/// Four `f64` lanes, the default walk's vector.
pub type F64x4 = Lanes<4>;

/// A per-lane boolean as all-ones / all-zeros bit patterns, the shape
/// hardware compare instructions produce and [`Mask::select`] consumes
/// bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct Mask<const L: usize>(pub [u64; L]);

impl<const L: usize> Lanes<L> {
    /// All lanes `+0.0`.
    pub const ZERO: Self = Lanes([0.0; L]);

    /// All lanes `v`.
    #[inline]
    pub fn splat(v: f64) -> Self {
        Lanes([v; L])
    }

    /// Lane `i`.
    #[inline]
    pub fn lane(self, i: usize) -> f64 {
        self.0[i]
    }

    /// Lane-wise `f64::min` (matches the scalar engine's `min` calls).
    #[inline]
    pub fn min(self, o: Self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = self.0[i].min(o.0[i]);
        }
        Lanes(r)
    }

    /// Lane-wise `f64::max`.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = self.0[i].max(o.0[i]);
        }
        Lanes(r)
    }

    /// Lane-wise `f64::clamp(0.0, 1.0)` (the envelope's taper clamp).
    #[inline]
    pub fn clamp01(self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = self.0[i].clamp(0.0, 1.0);
        }
        Lanes(r)
    }

    #[inline]
    fn cmp(self, o: Self, f: impl Fn(f64, f64) -> bool) -> Mask<L> {
        let mut r = [0u64; L];
        for i in 0..L {
            r[i] = if f(self.0[i], o.0[i]) { !0 } else { 0 };
        }
        Mask(r)
    }

    /// Lane-wise `<`.
    #[inline]
    pub fn lt(self, o: Self) -> Mask<L> {
        self.cmp(o, |a, b| a < b)
    }

    /// Lane-wise `>`.
    #[inline]
    pub fn gt(self, o: Self) -> Mask<L> {
        self.cmp(o, |a, b| a > b)
    }

    /// Lane-wise `<=`.
    #[inline]
    pub fn le(self, o: Self) -> Mask<L> {
        self.cmp(o, |a, b| a <= b)
    }

    /// Lane-wise `>=`.
    #[inline]
    pub fn ge(self, o: Self) -> Mask<L> {
        self.cmp(o, |a, b| a >= b)
    }

    /// Lane-wise `!=` (IEEE: `-0.0` equals `+0.0`, `NaN != NaN`).
    #[inline]
    pub fn ne(self, o: Self) -> Mask<L> {
        self.cmp(o, |a, b| a != b)
    }
}

impl<const L: usize> Add for Lanes<L> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = self.0[i] + o.0[i];
        }
        Lanes(r)
    }
}

impl<const L: usize> Sub for Lanes<L> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = self.0[i] - o.0[i];
        }
        Lanes(r)
    }
}

impl<const L: usize> Mul for Lanes<L> {
    type Output = Self;
    #[inline]
    fn mul(self, o: Self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = self.0[i] * o.0[i];
        }
        Lanes(r)
    }
}

impl<const L: usize> Div for Lanes<L> {
    type Output = Self;
    #[inline]
    fn div(self, o: Self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = self.0[i] / o.0[i];
        }
        Lanes(r)
    }
}

impl<const L: usize> Neg for Lanes<L> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = -self.0[i];
        }
        Lanes(r)
    }
}

impl<const L: usize> Mask<L> {
    /// All lanes true.
    pub const ALL: Self = Mask([!0; L]);
    /// All lanes false.
    pub const NONE: Self = Mask([0; L]);

    /// Per-lane `if mask { a } else { b }`, as a bitwise blend — the
    /// chosen lane's bits pass through unmodified, so selection never
    /// perturbs a value.
    #[inline]
    pub fn select(self, a: Lanes<L>, b: Lanes<L>) -> Lanes<L> {
        let mut r = [0.0; L];
        for i in 0..L {
            r[i] = f64::from_bits((a.0[i].to_bits() & self.0[i]) | (b.0[i].to_bits() & !self.0[i]));
        }
        Lanes(r)
    }

    /// `true` when any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.0.iter().any(|&b| b != 0)
    }

    /// Lane `i` as a bool.
    #[inline]
    pub fn lane(self, i: usize) -> bool {
        self.0[i] != 0
    }
}

impl<const L: usize> BitAnd for Mask<L> {
    type Output = Self;
    #[inline]
    fn bitand(self, o: Self) -> Self {
        let mut r = [0u64; L];
        for i in 0..L {
            r[i] = self.0[i] & o.0[i];
        }
        Mask(r)
    }
}

impl<const L: usize> Not for Mask<L> {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        let mut r = [0u64; L];
        for i in 0..L {
            r[i] = !self.0[i];
        }
        Mask(r)
    }
}

// ---------------------------------------------------------------------
// Lane-wide C/L/C battery envelope
// ---------------------------------------------------------------------

/// Chunk-uniform C/L/C parameters, splatted once per chunk.
///
/// Validated through [`ClcBattery::new`] when the first active lane is
/// built, so the lane path panics on invalid parameters exactly when the
/// scalar kernel would.
#[derive(Debug, Clone, Copy)]
pub struct LaneParams<const L: usize> {
    eta: Lanes<L>,
    min_soc: Lanes<L>,
    charge_taper_soc: Lanes<L>,
    charge_taper_den: Lanes<L>,
    discharge_width: Lanes<L>,
    discharge_taper_top: Lanes<L>,
    hours: Lanes<L>,
}

impl<const L: usize> LaneParams<L> {
    /// Splat one parameter set for a chunk stepping `dt_h` hours.
    pub fn new(p: &ClcParams, dt_h: f64) -> Self {
        LaneParams {
            eta: Lanes::splat(p.round_trip_efficiency.sqrt()),
            min_soc: Lanes::splat(p.min_soc),
            charge_taper_soc: Lanes::splat(p.charge_taper_soc),
            charge_taper_den: Lanes::splat(1.0 - p.charge_taper_soc),
            discharge_width: Lanes::splat(p.discharge_taper_width),
            discharge_taper_top: Lanes::splat(p.min_soc + p.discharge_taper_width),
            hours: Lanes::splat(dt_h),
        }
    }
}

/// `L` candidates' battery state, one per lane.
///
/// Lanes whose composition has no battery are inactive: their SoC is
/// pinned at `0.0` (what [`StorageKernel::Null`](crate::StorageKernel)
/// reports to policies) and they accept no power. Inactive lanes carry a
/// capacity placeholder of `1.0` so the always-evaluated envelope never
/// divides by zero; the `active` mask discards those results.
#[derive(Debug, Clone, Copy)]
pub struct LaneKernel<const L: usize> {
    soc: Lanes<L>,
    discharged: Lanes<L>,
    cap: Lanes<L>,
    pmax_charge: Lanes<L>,
    pmax_discharge: Lanes<L>,
    active: Mask<L>,
}

impl<const L: usize> LaneKernel<L> {
    /// Build lane state for `L` compositions, one per lane.
    ///
    /// # Panics
    /// Panics on invalid parameters, via the same [`ClcBattery::new`]
    /// validation the scalar kernel runs.
    pub fn new(comps: &[Composition; L], params: &ClcParams) -> Self {
        let mut soc = [0.0; L];
        let mut cap = [1.0; L];
        let mut pmax_c = [0.0; L];
        let mut pmax_d = [0.0; L];
        let mut active = [0u64; L];
        for (i, c) in comps.iter().enumerate() {
            if c.battery_kwh > 0.0 {
                // Route through the scalar constructor so validation
                // panics exactly when the scalar engine would.
                let b =
                    ClcBattery::new(mgopt_units::Energy::from_kwh(c.battery_kwh), params.clone());
                soc[i] = b.soc();
                let kwh = b.capacity().kwh();
                cap[i] = kwh;
                pmax_c[i] = params.max_charge_c_rate * kwh;
                pmax_d[i] = params.max_discharge_c_rate * kwh;
                active[i] = !0;
            }
        }
        LaneKernel {
            soc: Lanes(soc),
            discharged: Lanes::ZERO,
            cap: Lanes(cap),
            pmax_charge: Lanes(pmax_c),
            pmax_discharge: Lanes(pmax_d),
            active: Mask(active),
        }
    }

    /// Current per-lane SoC (0 on inactive lanes).
    #[inline]
    pub fn soc(&self) -> Lanes<L> {
        self.soc
    }

    /// One step of the C/L/C envelope, all `L` candidates at once:
    /// request `request` kW for the chunk's `dt`, returning the
    /// accepted/delivered power per lane.
    ///
    /// Both envelope branches run lane-wide with the scalar engine's
    /// exact expression order; per-lane results are chosen bitwise. The
    /// `moving` mask reproduces the scalar early return for zero
    /// requests and inactive (null-storage) lanes: those lanes return
    /// `+0.0` and their state is untouched.
    #[inline(always)]
    pub fn step(&mut self, request: Lanes<L>, p: &LaneParams<L>) -> Lanes<L> {
        let one = Lanes::splat(1.0);

        // Scalar `update` returns ZERO untouched when the request is
        // zero (or the lane has no battery); `!=` treats -0.0 as zero,
        // matching `power == Power::ZERO`.
        let moving = self.active & request.ne(Lanes::ZERO);
        let charging = request.gt(Lanes::ZERO);
        let take_c = moving & charging;
        let take_d = moving & !charging;

        // Adjacent candidates see the same weather, so all lanes usually
        // agree on the branch — skip an entirely untaken side rather than
        // always paying both. A skipped side's lanes were discarded
        // bitwise by the selects below anyway (lanes never mix, so
        // dropping dead-lane arithmetic cannot perturb a kept lane), and
        // the untaken side carries ~4 vector divides, the most expensive
        // ops in the walk. Both sides read the pre-step `soc0`; the masks
        // are disjoint, so the sequential state updates equal the
        // original three-way select.
        let soc0 = self.soc;
        let mut ret = Lanes::ZERO;

        if take_c.any() {
            // Charge side (power > 0), exactly ClcBattery::update's order.
            let frac_c = ((one - soc0) / p.charge_taper_den).clamp01();
            let limit_c = soc0
                .le(p.charge_taper_soc)
                .select(self.pmax_charge, self.pmax_charge * frac_c);
            let p_c = request.min(limit_c);
            let headroom = (one - soc0) * self.cap;
            let max_term_c = headroom / p.eta;
            let term_c = (p_c * p.hours).min(max_term_c);
            let soc_c = (soc0 + term_c * p.eta / self.cap).min(one);
            let ret_c = term_c / p.hours;
            self.soc = take_c.select(soc_c, self.soc);
            ret = take_c.select(ret_c, ret);
        }

        if take_d.any() {
            // Discharge side (power <= 0).
            let frac_d = ((soc0 - p.min_soc) / p.discharge_width).clamp01();
            let limit_d = soc0
                .ge(p.discharge_taper_top)
                .select(self.pmax_discharge, self.pmax_discharge * frac_d);
            let p_d = (-request).min(limit_d);
            let usable = (soc0 - p.min_soc).max(Lanes::ZERO) * self.cap;
            let max_term_d = usable * p.eta;
            let term_d = (p_d * p.hours).min(max_term_d);
            let soc_d = (soc0 - term_d / p.eta / self.cap).max(p.min_soc);
            let ret_d = -(term_d / p.hours);
            self.soc = take_d.select(soc_d, self.soc);
            self.discharged = take_d.select(self.discharged + term_d, self.discharged);
            ret = take_d.select(ret_d, ret);
        }

        ret
    }

    /// Equivalent full cycles of lane `i` (0 on inactive lanes), same
    /// formula as `Storage::equivalent_full_cycles`.
    pub fn equivalent_full_cycles(&self, i: usize) -> f64 {
        if self.active.lane(i) {
            self.discharged.lane(i) / self.cap.lane(i)
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------
// Lane-wide dispatch policy
// ---------------------------------------------------------------------

/// A [`DispatchPolicy`] resolved once per chunk into its lane-wide form.
#[derive(Debug, Clone, Copy)]
pub enum LanePolicy<const L: usize> {
    /// SelfConsumption / Islanded: the request is the net bus power.
    Passthrough,
    /// Carbon-aware grid charging (threshold test is per-step scalar,
    /// the SoC test per lane).
    CarbonAware {
        /// Charge from the grid when CI is below this, g/kWh.
        ci_threshold: f64,
        /// Stop grid-charging at this SoC.
        target_soc: Lanes<L>,
    },
    /// Battery-sparing: small deficits don't discharge.
    Sparing {
        /// Deficits smaller than this are served from the grid, kW.
        threshold: Lanes<L>,
    },
}

impl<const L: usize> LanePolicy<L> {
    /// Resolve a scalar policy.
    pub fn new(policy: DispatchPolicy) -> Self {
        match policy {
            DispatchPolicy::SelfConsumption | DispatchPolicy::Islanded => LanePolicy::Passthrough,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh,
                target_soc,
            } => LanePolicy::CarbonAware {
                ci_threshold: ci_threshold_g_per_kwh,
                target_soc: Lanes::splat(target_soc),
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw,
            } => LanePolicy::Sparing {
                threshold: Lanes::splat(deficit_threshold_kw),
            },
        }
    }

    /// Lane-wide `DispatchPolicy::storage_request`.
    #[inline(always)]
    pub fn request(&self, p_delta: Lanes<L>, soc: Lanes<L>, ci: f64) -> Lanes<L> {
        match *self {
            LanePolicy::Passthrough => p_delta,
            LanePolicy::CarbonAware {
                ci_threshold,
                target_soc,
            } => {
                if ci < ci_threshold {
                    soc.lt(target_soc)
                        .select(Lanes::splat(f64::MAX / 4.0).max(p_delta), p_delta)
                } else {
                    p_delta
                }
            }
            LanePolicy::Sparing { threshold } => {
                (p_delta.lt(Lanes::ZERO) & (-p_delta).lt(threshold)).select(Lanes::ZERO, p_delta)
            }
        }
    }
}

/// Split the post-storage residual into (import, export, unmet) exactly
/// like the scalar three-way branch: negative residuals import (or go
/// unmet when islanded), non-negative residuals export.
#[inline(always)]
pub fn split_residual<const L: usize>(
    residual: Lanes<L>,
    islanded: bool,
) -> (Lanes<L>, Lanes<L>, Lanes<L>) {
    let neg = residual.lt(Lanes::ZERO);
    let export = neg.select(Lanes::ZERO, residual);
    if islanded {
        (Lanes::ZERO, export, neg.select(-residual, Lanes::ZERO))
    } else {
        (neg.select(-residual, Lanes::ZERO), export, Lanes::ZERO)
    }
}

// ---------------------------------------------------------------------
// Lane-wide accumulators
// ---------------------------------------------------------------------

/// The batch engine's raw accumulator (`BatchAcc`) with one candidate
/// per lane: the same per-step adds, in the same order, per lane.
/// Inactive additions contribute `+0.0` (or the exact `-0.0` the scalar
/// else-branch adds), which never changes accumulator bits.
#[derive(Debug, Clone, Copy)]
pub struct LaneAcc<const L: usize> {
    production: Lanes<L>,
    import: Lanes<L>,
    export: Lanes<L>,
    direct: Lanes<L>,
    charge: Lanes<L>,
    discharge: Lanes<L>,
    unmet: Lanes<L>,
    op_weighted: Lanes<L>,
    cost_import: Lanes<L>,
    cost_export: Lanes<L>,
    self_sufficient_steps: Lanes<L>,
}

impl<const L: usize> Default for LaneAcc<L> {
    fn default() -> Self {
        LaneAcc {
            production: Lanes::ZERO,
            import: Lanes::ZERO,
            export: Lanes::ZERO,
            direct: Lanes::ZERO,
            charge: Lanes::ZERO,
            discharge: Lanes::ZERO,
            unmet: Lanes::ZERO,
            op_weighted: Lanes::ZERO,
            cost_import: Lanes::ZERO,
            cost_export: Lanes::ZERO,
            self_sufficient_steps: Lanes::ZERO,
        }
    }
}

impl<const L: usize> LaneAcc<L> {
    /// Record one step for all `L` lanes. All arguments are kW-scale
    /// except `ci` (g/kWh) and `price` ($/MWh); `demand` is the step's
    /// load.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        gen: Lanes<L>,
        demand: Lanes<L>,
        import: Lanes<L>,
        export: Lanes<L>,
        p_storage: Lanes<L>,
        unmet: Lanes<L>,
        ci: Lanes<L>,
        price: Lanes<L>,
    ) {
        self.production = self.production + gen;
        self.import = self.import + import;
        self.export = self.export + export;
        self.direct = self.direct + gen.min(demand).max(Lanes::ZERO);
        // Scalar: `if p_storage > 0 { charge += p } else { discharge += -p }`.
        // The uncharging lanes add +0.0 to `charge` (bit-preserving: the
        // accumulator is never -0.0) and the charging lanes add +0.0 to
        // `discharge`; the else-branch's `-p_storage` is added verbatim,
        // including the `-0.0` the scalar path adds for idle steps.
        let charging = p_storage.gt(Lanes::ZERO);
        self.charge = self.charge + charging.select(p_storage, Lanes::ZERO);
        self.discharge = self.discharge + charging.select(Lanes::ZERO, -p_storage);
        self.unmet = self.unmet + unmet;
        self.op_weighted = self.op_weighted + import * ci;
        self.cost_import = self.cost_import + import * price;
        self.cost_export = self.cost_export + export * price;
        // Exact small-integer counting in f64 (steps/year << 2^53).
        self.self_sufficient_steps = self.self_sufficient_steps
            + import
                .le(Lanes::splat(1e-9))
                .select(Lanes::splat(1.0), Lanes::ZERO);
    }

    /// Extract lane `i` as a scalar [`BatchAcc`], feeding the shared
    /// `finish` formulas.
    pub(crate) fn extract(&self, i: usize) -> BatchAcc {
        BatchAcc {
            production: self.production.lane(i),
            import: self.import.lane(i),
            export: self.export.lane(i),
            direct: self.direct.lane(i),
            charge: self.charge.lane(i),
            discharge: self.discharge.lane(i),
            unmet: self.unmet.lane(i),
            op_weighted: self.op_weighted.lane(i),
            cost_import: self.cost_import.lane(i),
            cost_export: self.cost_export.lane(i),
            self_sufficient_steps: self.self_sufficient_steps.lane(i) as usize,
        }
    }
}

/// One lane-width group of candidates: generation coefficients, battery
/// state and accumulators for `L` consecutive chunk members.
#[derive(Debug, Clone, Copy)]
pub struct LaneGroup<const L: usize> {
    /// Per-lane solar capacity, kW.
    pub solar: Lanes<L>,
    /// Per-lane wind turbine count.
    pub wind: Lanes<L>,
    /// Per-lane battery state.
    pub kernel: LaneKernel<L>,
    /// Per-lane raw accumulators.
    pub acc: LaneAcc<L>,
}

impl<const L: usize> LaneGroup<L> {
    /// Build a group from `L` compositions, one per lane.
    pub fn new(comps: &[Composition; L], params: &ClcParams) -> Self {
        let mut solar = [0.0; L];
        let mut wind = [0.0; L];
        for (i, c) in comps.iter().enumerate() {
            solar[i] = c.solar_kw;
            wind[i] = c.wind_turbines as f64;
        }
        LaneGroup {
            solar: Lanes(solar),
            wind: Lanes(wind),
            kernel: LaneKernel::new(comps, params),
            acc: LaneAcc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::StorageKernel;
    use mgopt_units::{Power, SimDuration};

    #[test]
    fn arithmetic_matches_scalar_ops_bitwise() {
        let a = Lanes([1.5, -0.0, f64::MAX, 3.7e-310]);
        let b = Lanes([2.5, 0.0, 2.0, 1.1]);
        for i in 0..4 {
            assert_eq!((a + b).lane(i).to_bits(), (a.lane(i) + b.lane(i)).to_bits());
            assert_eq!((a - b).lane(i).to_bits(), (a.lane(i) - b.lane(i)).to_bits());
            assert_eq!((a * b).lane(i).to_bits(), (a.lane(i) * b.lane(i)).to_bits());
            assert_eq!((a / b).lane(i).to_bits(), (a.lane(i) / b.lane(i)).to_bits());
            assert_eq!(
                a.min(b).lane(i).to_bits(),
                a.lane(i).min(b.lane(i)).to_bits()
            );
            assert_eq!(
                a.max(b).lane(i).to_bits(),
                a.lane(i).max(b.lane(i)).to_bits()
            );
        }
    }

    #[test]
    fn select_is_a_bitwise_blend() {
        let a = Lanes([1.0, 2.0, -0.0, f64::NAN]);
        let b = Lanes([5.0, 6.0, 7.0, 8.0]);
        let m = Mask([!0, 0, !0, !0]);
        let r = m.select(a, b);
        assert_eq!(r.lane(0), 1.0);
        assert_eq!(r.lane(1), 6.0);
        assert_eq!(r.lane(2).to_bits(), (-0.0f64).to_bits());
        assert!(r.lane(3).is_nan());
    }

    #[test]
    fn comparisons_treat_signed_zero_and_nan_like_ieee() {
        let z = Lanes([-0.0, 0.0, f64::NAN, 1.0]);
        let ne = z.ne(F64x4::ZERO);
        assert!(!ne.lane(0), "-0.0 == +0.0");
        assert!(!ne.lane(1));
        assert!(ne.lane(2), "NaN != NaN");
        assert!(ne.lane(3));
        assert!(!z.lt(F64x4::ZERO).lane(2), "NaN compares false");
    }

    #[test]
    fn mask_combinators() {
        let m = Mask([!0, 0, !0, 0]);
        assert!(m.any());
        assert!(!(m & !m).any());
        assert_eq!((!m).0, [0, !0, 0, !0]);
        assert!(!Mask::<4>::NONE.any());
        assert!(Mask::<4>::ALL.lane(3));
    }

    #[test]
    fn lane_kernel_tracks_scalar_battery_bit_for_bit() {
        let params = ClcParams::default();
        let comps = [
            Composition::new(0, 0.0, 7_500.0),
            Composition::new(0, 0.0, 0.0), // null lane
            Composition::new(0, 0.0, 60_000.0),
            Composition::new(0, 0.0, 22_500.0),
        ];
        let dt = SimDuration::from_hours(1.0);
        let mut lanes = LaneKernel::<4>::new(&comps, &params);
        let lane_params = LaneParams::new(&params, dt.hours());
        let mut scalars: Vec<StorageKernel> = comps
            .iter()
            .map(|c| StorageKernel::for_composition(c, &params))
            .collect();
        // A request pattern hitting charge, discharge, idle and the
        // taper regions, identical across lanes.
        let reqs = [
            4_000.0, -2_000.0, 0.0, 12_000.0, 12_000.0, -9_000.0, -0.0, 800.0, -30_000.0, 5.0,
        ];
        for &r in reqs.iter().cycle().take(500) {
            let got = lanes.step(F64x4::splat(r), &lane_params);
            for (i, k) in scalars.iter_mut().enumerate() {
                let want = k.update_kw(Power::from_kw(r), dt);
                assert_eq!(
                    got.lane(i).to_bits(),
                    want.to_bits(),
                    "lane {i} request {r}"
                );
                assert_eq!(lanes.soc().lane(i).to_bits(), k.soc().to_bits(), "soc {i}");
            }
        }
        for (i, k) in scalars.iter().enumerate() {
            assert_eq!(
                lanes.equivalent_full_cycles(i).to_bits(),
                k.equivalent_full_cycles().to_bits(),
                "cycles {i}"
            );
        }
    }

    #[test]
    fn lane_policies_match_scalar_requests_bitwise() {
        let policies = [
            DispatchPolicy::SelfConsumption,
            DispatchPolicy::Islanded,
            DispatchPolicy::CarbonAwareGridCharge {
                ci_threshold_g_per_kwh: 330.0,
                target_soc: 0.9,
            },
            DispatchPolicy::BatterySparing {
                deficit_threshold_kw: 200.0,
            },
        ];
        let socs = Lanes([0.1, 0.5, 0.95, 0.0]);
        for policy in policies {
            let lane = LanePolicy::<4>::new(policy);
            for p_delta in [-500.0, -100.0, -0.0, 0.0, 50.0, 4_000.0] {
                for ci in [10.0, 400.0] {
                    let got = lane.request(F64x4::splat(p_delta), socs, ci);
                    for i in 0..4 {
                        let want = policy
                            .storage_request(Power::from_kw(p_delta), socs.lane(i), ci)
                            .kw();
                        assert_eq!(
                            got.lane(i).to_bits(),
                            want.to_bits(),
                            "{} lane {i} p_delta {p_delta} ci {ci}",
                            policy.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn split_residual_matches_scalar_branches() {
        let residuals = [-5.0, -0.0, 0.0, 3.0];
        for islanded in [false, true] {
            let (import, export, unmet) = split_residual(Lanes(residuals), islanded);
            for (i, &r) in residuals.iter().enumerate() {
                let (wi, we, wu) = if islanded && r < 0.0 {
                    (0.0, 0.0, -r)
                } else if r < 0.0 {
                    (-r, 0.0, 0.0)
                } else {
                    (0.0, r, 0.0)
                };
                assert_eq!(import.lane(i).to_bits(), wi.to_bits(), "import {r}");
                assert_eq!(export.lane(i).to_bits(), we.to_bits(), "export {r}");
                assert_eq!(unmet.lane(i).to_bits(), wu.to_bits(), "unmet {r}");
            }
        }
    }

    #[test]
    fn default_backend_is_the_four_lane_walk() {
        assert_eq!(BatchBackend::default(), BatchBackend::Simd);
    }

    #[test]
    #[should_panic(expected = "invalid C/L/C parameters")]
    fn lane_kernel_panics_on_invalid_params_like_scalar() {
        let bad = ClcParams {
            discharge_taper_width: 0.0,
            ..ClcParams::default()
        };
        LaneKernel::<1>::new(&[Composition::new(0, 0.0, 100.0)], &bad);
    }
}
