#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-storage
//!
//! Battery storage models for microgrid co-simulation.
//!
//! The main model is [`ClcBattery`], an implementation of the *tractable*
//! lithium-ion model family of Kazhamiaka, Rosenberg & Keshav ("Tractable
//! Lithium-Ion Storage Models for Optimizing Energy Systems", Energy
//! Informatics 2019) as shipped in Vessim: terminal power is bounded by a
//! SoC-dependent **C**onstant / **L**inear envelope (reproducing the
//! CC→CV charge taper and the low-SoC discharge taper), with a **C**onstant
//! coulombic efficiency.
//!
//! [`SimpleBattery`] is the naive fixed-bound baseline; [`rainflow`]
//! provides cycle counting for the paper's battery-cycle metric; and
//! [`degradation`] estimates capacity fade for the "optimization beyond
//! carbon" objectives (§4.3 of the paper).

pub mod clc;
pub mod degradation;
pub mod hydrogen;
pub mod pumped_hydro;
pub mod rainflow;
// mgopt-lint: allow(orphan_module) — `SimpleBattery` is the fixed-bound battery fixture of cosim's bus and engine unit tests
pub mod simple;

pub use clc::{ClcBattery, ClcParams};
pub use hydrogen::{HydrogenParams, HydrogenStorage};
pub use pumped_hydro::{PumpedHydro, PumpedHydroParams};
pub use simple::SimpleBattery;

use mgopt_units::{Energy, Power, SimDuration};

/// A dispatchable energy store attached to the microgrid bus.
///
/// Sign convention (terminal side): positive power **charges** the store,
/// negative power **discharges** it.
pub trait Storage {
    /// Nameplate capacity.
    fn capacity(&self) -> Energy;

    /// State of charge as a fraction of nameplate capacity, in `[0, 1]`.
    fn soc(&self) -> f64;

    /// Minimum allowed state of charge (reserve), in `[0, 1)`.
    fn min_soc(&self) -> f64;

    /// Energy currently stored.
    fn stored(&self) -> Energy {
        self.capacity() * self.soc()
    }

    /// Usable energy above the reserve.
    fn usable(&self) -> Energy {
        self.capacity() * (self.soc() - self.min_soc()).max(0.0)
    }

    /// Headroom to full charge (cell side).
    fn headroom(&self) -> Energy {
        self.capacity() * (1.0 - self.soc()).max(0.0)
    }

    /// Request `power` at the terminals for `dt`; returns the power the
    /// store actually accepted (charge, positive) or delivered (discharge,
    /// negative). The magnitude never exceeds the request.
    fn update(&mut self, power: Power, dt: SimDuration) -> Power;

    /// Total energy charged through the terminals so far.
    fn charged_total(&self) -> Energy;

    /// Total energy discharged through the terminals so far.
    fn discharged_total(&self) -> Energy;

    /// Equivalent full cycles so far: discharge throughput over capacity.
    fn equivalent_full_cycles(&self) -> f64 {
        if self.capacity().kwh() <= 0.0 {
            0.0
        } else {
            self.discharged_total() / self.capacity()
        }
    }
}

/// A zero-capacity stand-in used for compositions without a battery.
///
/// Always refuses power; keeps the simulation loop branch-free.
#[derive(Debug, Clone, Default)]
pub struct NullStorage {
    _private: (),
}

impl NullStorage {
    /// Create a null store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for NullStorage {
    fn capacity(&self) -> Energy {
        Energy::ZERO
    }

    fn soc(&self) -> f64 {
        0.0
    }

    fn min_soc(&self) -> f64 {
        0.0
    }

    fn update(&mut self, _power: Power, _dt: SimDuration) -> Power {
        Power::ZERO
    }

    fn charged_total(&self) -> Energy {
        Energy::ZERO
    }

    fn discharged_total(&self) -> Energy {
        Energy::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_storage_refuses_everything() {
        let mut s = NullStorage::new();
        let dt = SimDuration::from_hours(1.0);
        assert_eq!(s.update(Power::from_kw(100.0), dt), Power::ZERO);
        assert_eq!(s.update(Power::from_kw(-100.0), dt), Power::ZERO);
        assert_eq!(s.capacity(), Energy::ZERO);
        assert_eq!(s.equivalent_full_cycles(), 0.0);
        assert_eq!(s.usable(), Energy::ZERO);
        assert_eq!(s.headroom(), Energy::ZERO);
    }
}
