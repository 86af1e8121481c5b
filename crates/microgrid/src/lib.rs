#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-microgrid
//!
//! The microgrid domain library: compositions and their embodied carbon,
//! data-center sites, dispatch policies, the year simulators, and the
//! sustainability metrics reported in the paper's tables.
//!
//! Three engines share the physics: the scalar reference loop
//! ([`simulate_year`]), the cosim bus ([`simulate_year_cosim`]) and the
//! batched columnar engine ([`simulate_batch`], module [`batch`]) that
//! evaluates a whole cohort of compositions in one time-major pass — the
//! engine the search layers use. [`Evaluator`] abstracts over them. The
//! [`fleet`] module extends the batch engine to several sites at once:
//! [`FleetEvaluator`] runs the batch walk per site in step blocks and
//! reports fleet-level aggregates (peak *concurrent* grid import, fleet
//! tCO2/day) alongside bit-identical per-site results. Cohorts that need
//! no concurrent peak can instead be answered from one [`SiteTable`] per
//! site, which walks each (site, composition) pair once.
//!
//! The batch and fleet engines share one chunk walk, written once over
//! the [`simd`] module's lane types and generic over lane width: 4 lanes
//! by default, 1 lane as the A/B baseline ([`BatchBackend`]). Lanes hold
//! *different candidates*, never different timesteps, so both widths are
//! bit-identical; a short last lane group is padded with copies of its
//! last candidate.
//!
//! ## Quick tour
//!
//! ```
//! use mgopt_microgrid::{
//!     simulate_year, BatchEvaluator, Composition, Evaluator, SimConfig, Site,
//! };
//! use mgopt_units::SimDuration;
//! use mgopt_workload::HpcWorkload;
//!
//! // Precompute site data once (weather → SAM models → unit profiles).
//! let data = Site::houston().prepare(SimDuration::from_hours(1.0), 42);
//! let load = HpcWorkload::perlmutter_like(42).generate(SimDuration::from_hours(1.0));
//! let cfg = SimConfig::default();
//!
//! // Simulate one candidate composition through the reference path.
//! let comp = Composition::new(4, 0.0, 7_500.0); // 12 MW wind, 7.5 MWh battery
//! let result = simulate_year(&data, &load, &comp, &cfg);
//! assert!(result.metrics.coverage > 0.5);
//!
//! // Score a whole cohort in one columnar pass (what the optimizer does).
//! let cohort = [comp, Composition::new(0, 16_000.0, 22_500.0)];
//! let batch = BatchEvaluator::new(&data, &load, &cfg).evaluate_batch(&cohort);
//! assert!((batch[0].metrics.coverage - result.metrics.coverage).abs() < 1e-9);
//! ```

pub mod batch;
pub mod composition;
pub mod embodied;
pub mod fleet;
pub mod metrics;
pub mod policy;
pub mod simd;
pub mod simulate;
pub mod site;

pub use batch::{
    simulate_batch, simulate_batch_period, simulate_batch_period_with_backend, BatchEvaluator,
    Evaluator, ScalarEvaluator, StorageKernel,
};
pub use composition::{Composition, CompositionSpace};
pub use embodied::EmbodiedDb;
pub use fleet::{FleetEvaluator, FleetMetrics, FleetResult, FleetSite, SiteTable};
pub use metrics::{AnnualMetrics, AnnualResult};
pub use policy::{shift_load_carbon_aware, DispatchPolicy};
pub use simd::{BatchBackend, F64x4, LANES};
pub use simulate::{
    build_cosim_microgrid, simulate_period, simulate_year, simulate_year_cosim, SimConfig,
};
pub use site::{is_supported_step, Site, SiteData};
