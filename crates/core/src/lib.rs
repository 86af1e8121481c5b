#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-core
//!
//! The microgrid-opt framework — the paper's primary contribution. It ties
//! the co-simulation stack (weather → SAM models → microgrid bus → carbon
//! accounting) to the black-box optimizer and packages the paper's
//! experiments behind a configuration-driven API (the Rust equivalent of
//! the Hydra + Optuna-sweeper setup the authors describe).
//!
//! * [`scenario`] — serializable scenario configs and their preparation;
//! * [`cache`] — the shared prepared-scenario cache (Arc-handout, LRU,
//!   hit/miss telemetry) behind the optimization daemon;
//! * [`fleet`] — multi-site fleet scenarios and the exhaustive fleet
//!   sweep (geo-distributed studies, fleet-level carbon accounts);
//! * [`wire`] — the daemon's versioned request/response wire format with
//!   strict-reject parsing and structured error frames;
//! * [`objectives`] — objective sets over simulation results (§3.3/§4.3);
//! * [`problem`] — the composition space as an optimizer problem;
//! * [`sweep`] — the rayon-parallel exhaustive sweep (ground truth);
//! * [`experiments`] — one driver per paper table/figure (Fig. 2, Tables
//!   1/2, Fig. 3, Fig. 4, §4.4 search performance, §4.3 extensions);
//! * [`report`] — plain-text renderings of the paper's tables and figures.

pub mod cache;
pub mod experiments;
pub mod fleet;
pub mod objectives;
pub mod problem;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod wire;

pub use cache::{scenario_cache_key, scenario_key_hash, PreparedCache};
pub use fleet::{
    fleet_plans, fleet_sweep, FleetAssignment, FleetMember, FleetScenario, PrepStats, PreparedFleet,
};
pub use objectives::{ObjectiveKind, ObjectiveSet};
pub use problem::{CompositionProblem, FleetProblem};
pub use scenario::{PreparedScenario, ScenarioConfig, SitePreset, WorkloadConfig};
pub use sweep::{sweep_all, sweep_all_scalar, sweep_all_with_backend};
