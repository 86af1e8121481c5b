#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-gridcarbon
//!
//! Synthetic grid carbon-intensity and electricity-price signals — the
//! workspace's substitute for the proprietary Electricity Maps hourly data
//! the paper uses (CAISO and ERCOT, 2024).
//!
//! The carbon model captures the structure that matters for microgrid
//! sizing:
//!
//! * **CAISO** (Berkeley): the solar "duck curve" — deep midday dips, steep
//!   evening ramps — with an annual mean calibrated to ≈240 gCO2/kWh so the
//!   paper's no-microgrid Berkeley baseline (9.33 tCO2/day at 1.62 MW)
//!   reproduces exactly.
//! * **ERCOT** (Houston): wind-at-night structure — lower intensity
//!   overnight, afternoon peaks — with a mean of ≈400 gCO2/kWh matching the
//!   Houston baseline of 15.54 tCO2/day.
//!
//! Generated series are *exactly* mean-calibrated: after synthesis the
//! series is rescaled so its annual mean equals the configured target.
//!
//! ## The shape memo
//!
//! A carbon-intensity year is a noise-free shape (seasonal cycle times
//! the diurnal template, deeper in summer) times seeded AR(1) noise. The
//! shape does not depend on the seed, so
//! [`CarbonIntensityModel::generate`] reads it from a process-wide,
//! least-recently-used memo ([`mgopt_units::LruMemo`]) instead of
//! evaluating the calendar and two cosines at every step. Its key is the
//! bits of the fields [`CarbonIntensityModel::relative_shape`] reads —
//! the 24 diurnal multipliers, `seasonal_amplitude`,
//! `seasonal_peak_month` and `summer_shape_gain` — plus the step in
//! seconds, so models differing only in mean, noise or floor share a
//! table. It holds at most four tables (the paper's two regions at two
//! steps), each 8 bytes per step: about 70 KiB at the hourly step and
//! 840 KiB at 5 minutes. A table entry is `relative_shape` at that step,
//! bit for bit, and `relative_shape` stays the oracle the tables are
//! tested against.
//!
//! ## A group of models under one seed
//!
//! The noise stream is seeded by the seed alone and draws one normal per
//! step whatever the model. [`CarbonIntensityModel::generate_group`]
//! therefore draws each normal once and applies it to every model's own
//! noise state, in order; each series equals that model's own
//! `generate`, which is the group of one.

pub mod accounting;
pub mod intensity;
// mgopt-lint: allow(orphan_module) — the CSV seam for measured carbon-intensity traces (Electricity Maps exports) in place of the synthetic model
pub mod io;
pub mod price;

pub use intensity::{CarbonIntensityModel, GridRegion};
pub use price::{PriceModel, TariffKind};

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::SimDuration;

    #[test]
    fn crate_level_smoke() {
        let ci = CarbonIntensityModel::for_region(GridRegion::Caiso)
            .generate(SimDuration::from_hours(1.0), 1);
        assert_eq!(ci.len(), 8_760);
    }
}
