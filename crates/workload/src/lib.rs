#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-workload
//!
//! Data-center power-demand traces — the workspace's substitute for the
//! Perlmutter (NERSC) power traces used by the paper.
//!
//! The simulator only ever consumes a power time series, so a seeded
//! generator with the right first- and second-order statistics exercises
//! exactly the same code paths as the measured trace. [`HpcWorkload`]
//! reproduces the character of a large HPC facility: a high utilization
//! floor, job-driven step changes, slow utilization drift, occasional
//! maintenance dips — calibrated to the paper's 1.62 MW average.
//!
//! [`patterns`] adds other facility archetypes (interactive/web diurnal
//! load, constant load) used by the examples and the carbon-aware
//! scheduling policy study.

pub mod hpc;
pub mod patterns;

pub use hpc::{HpcWorkload, HpcWorkloadParams};
pub use patterns::{constant_load, diurnal_web_load};

/// The Perlmutter-average power draw reported by the paper, kW.
pub const PERLMUTTER_MEAN_KW: f64 = 1_620.0;

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::SimDuration;

    #[test]
    fn crate_smoke() {
        let trace = HpcWorkload::perlmutter_like(1).generate(SimDuration::from_hours(1.0));
        assert!((trace.mean() - PERLMUTTER_MEAN_KW).abs() < 1e-6);
    }
}
