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
