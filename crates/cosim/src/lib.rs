#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-cosim
//!
//! A computing-and-energy co-simulation engine — the workspace's substitute
//! for Vessim (which itself builds on the mosaik discrete-event framework).
//!
//! The architecture mirrors Vessim's:
//!
//! * [`Signal`] — time-indexed data sources (weather-driven
//!   generation profiles, workload power traces, carbon intensity);
//! * [`Actor`] — power producers (positive) and consumers
//!   (negative) attached to the microgrid bus, each with its own step
//!   cadence;
//! * `Storage` (from `mgopt-storage`) — batteries on the bus;
//! * [`DispatchStrategy`] — the controller
//!   deciding how storage and grid interact each step;
//! * [`Microgrid`] — the bus that resolves the power
//!   balance `Σ actors − storage Δ − grid = 0` and produces step records;
//! * [`Monitor`] — observers collecting those records;
//! * two engines: a fixed-step fast path ([`Microgrid::run`])
//!   and a mosaik-style event-driven engine ([`EventEngine`]) that
//!   re-evaluates each actor at its own cadence and integrates exactly over
//!   piecewise-constant intervals. With equal cadences the two agree
//!   bit-for-bit (property-tested).

pub mod actor;
pub mod dispatch;
// mgopt-lint: allow(orphan_module) — `EventEngine` is the event-driven oracle tests/engine_agreement.rs pins the fixed-step bus against
pub mod engine;
pub mod environment;
pub mod microgrid;
pub mod record;
pub mod signal;

pub use actor::{Actor, SignalActor};
pub use dispatch::{BusState, DispatchStrategy, SelfConsumption};
pub use engine::EventEngine;
pub use environment::{Environment, FleetRecord};
pub use microgrid::{Microgrid, SimResult};
pub use record::{MemoryMonitor, Monitor, StepRecord};
pub use signal::{ConstantSignal, Signal};

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_storage::NullStorage;
    use mgopt_units::{Power, SimDuration, SimTime};

    #[test]
    fn end_to_end_smoke() {
        // 100 kW producer, 160 kW consumer, no storage: grid imports 60 kW.
        let actors: Vec<Box<dyn Actor>> = vec![
            Box::new(SignalActor::producer("pv", ConstantSignal::new(100.0))),
            Box::new(SignalActor::consumer("dc", ConstantSignal::new(160.0))),
        ];
        let mut mg = Microgrid::new(
            actors,
            Box::new(NullStorage::new()),
            Box::new(SelfConsumption::default()),
        );
        let mut mon = MemoryMonitor::new();
        mg.run(
            SimTime::START,
            SimDuration::from_hours(2.0),
            SimDuration::from_minutes(30.0),
            &mut [&mut mon],
        );
        assert_eq!(mon.records().len(), 4);
        for r in mon.records() {
            assert_eq!(r.p_grid, Power::from_kw(-60.0));
        }
    }
}
