//! Sites: geography + grid region + the precomputed per-site data that all
//! optimization trials share.
//!
//! The expensive work — synthesizing a weather year and pushing it through
//! the SAM-style performance models — happens **once per site** in
//! [`Site::prepare`]. Both generation technologies are linear in installed
//! capacity (PVWatts scales with DC nameplate at fixed DC/AC ratio; a farm
//! of identical turbines scales with the turbine count), so the sweep only
//! needs *unit profiles*: AC output per kW of solar and per turbine.

use mgopt_gridcarbon::{CarbonIntensityModel, GridRegion, PriceModel};
use mgopt_sam::{GenerationModel, PvSystem, WindFarm};
use mgopt_units::{SimDuration, TimeSeries};
use mgopt_weather::{Climate, WeatherGenerator, WeatherYear};
use serde::{Deserialize, Serialize};

pub use mgopt_weather::is_supported_step;

/// A data-center site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Site name.
    pub name: String,
    /// Weather climatology.
    pub climate: Climate,
    /// Grid region for carbon intensity.
    pub grid_region: GridRegion,
    /// Electricity tariff.
    pub price_model: PriceModel,
}

impl Site {
    /// Berkeley, CA on the CAISO grid (paper case study 1).
    pub fn berkeley() -> Self {
        Self {
            name: "Berkeley, CA".into(),
            climate: Climate::berkeley(),
            grid_region: GridRegion::Caiso,
            price_model: PriceModel::caiso_tou(),
        }
    }

    /// Houston, TX on the ERCOT grid (paper case study 2).
    pub fn houston() -> Self {
        Self {
            name: "Houston, TX".into(),
            climate: Climate::houston(),
            grid_region: GridRegion::Ercot,
            price_model: PriceModel::ercot_wholesale(),
        }
    }

    /// Precompute everything the sweep needs at the given step: the
    /// one-site case of [`prepare_group`](Self::prepare_group).
    ///
    /// # Panics
    /// Panics unless [`is_supported_step`] accepts `step`.
    pub fn prepare(&self, step: SimDuration, seed: u64) -> SiteData {
        let mut data = Self::prepare_group(std::slice::from_ref(self), step, seed);
        data.pop().expect("one site, one preparation")
    }

    /// Precompute every site of `sites`, in order, at one step under one
    /// seed: each equals that site's own [`prepare`](Self::prepare) bit
    /// for bit.
    ///
    /// The weather years and the carbon-intensity series come from the
    /// group forms ([`WeatherGenerator::generate_group`],
    /// [`CarbonIntensityModel::generate_group`]), which draw each random
    /// stream once for all sites. PVWatts, wind power, the
    /// carbon-intensity coupling and the price stay per site.
    ///
    /// # Panics
    /// Panics unless [`is_supported_step`] accepts `step`.
    pub fn prepare_group(sites: &[Site], step: SimDuration, seed: u64) -> Vec<SiteData> {
        let climates: Vec<&Climate> = sites.iter().map(|s| &s.climate).collect();
        let weathers = WeatherGenerator::generate_group(&climates, step, seed);
        let models: Vec<CarbonIntensityModel> = sites
            .iter()
            .map(|s| CarbonIntensityModel::for_region(s.grid_region))
            .collect();
        let cis = CarbonIntensityModel::generate_group(&models, step, seed);

        sites
            .iter()
            .zip(weathers.into_iter().zip(cis))
            .map(|(site, (weather, ci))| {
                let pv = PvSystem::with_capacity_kw(1_000.0, site.climate.location.latitude_deg);
                let pv_unit_kw = pv.simulate(&weather).scaled(1.0 / 1_000.0);

                let wind = WindFarm::with_turbines(1);
                let wind_unit_kw = wind.simulate(&weather);

                let ci = couple_ci_to_weather(site.grid_region, &ci, &pv_unit_kw, &wind_unit_kw);
                let price = site.price_model.generate(step, seed);

                SiteData {
                    site: site.clone(),
                    weather,
                    pv_unit_kw,
                    wind_unit_kw,
                    ci_g_per_kwh: ci,
                    price_usd_per_mwh: price,
                }
            })
            .collect()
    }
}

/// Couple grid carbon intensity to the site's weather.
///
/// The grid's own renewable fleet experiences the same weather systems as
/// the co-located microgrid: a becalmed week in ERCOT means both the
/// microgrid's turbines *and* the grid's wind fleet are down, so imports
/// during local lulls are dirtier than the annual mean. Without this
/// coupling, a co-simulated microgrid would import mostly at average CI and
/// partial-coverage operational emissions would come out unrealistically
/// low (the paper's Table 1/2 rows imply import-weighted CI ~20-30 % above
/// the mean).
///
/// ERCOT couples to wind (hourly); CAISO couples to daily solar yield
/// relative to a 31-day seasonal expectation (an overcast *anomaly* — a
/// normal winter day is already priced into the diurnal template). A day
/// is a calendar day: its yield sums the steps that start in it, and
/// each step takes its own day's factor, also at steps (5, 10, 15 or 20
/// hours) that do not divide a day. The result is rescaled so the annual
/// mean stays exactly calibrated.
fn couple_ci_to_weather(
    region: GridRegion,
    ci: &TimeSeries,
    pv_unit_kw: &TimeSeries,
    wind_unit_kw: &TimeSeries,
) -> TimeSeries {
    let n = ci.len();
    let mut values = ci.values().to_vec();
    match region {
        GridRegion::Ercot => {
            // Hourly coupling to the wind resource.
            const ALPHA: f64 = 0.35;
            let mean_wind = wind_unit_kw.mean().max(1e-9);
            for (v, &w) in values.iter_mut().zip(wind_unit_kw.values()) {
                let rel = (w / mean_wind).min(2.0);
                *v *= 1.0 + ALPHA * (1.0 - rel);
            }
        }
        GridRegion::Caiso => {
            // Daily coupling to the solar anomaly vs seasonal expectation.
            // Each step counts toward the calendar day its start falls in,
            // also at steps that do not divide a day.
            const ALPHA: f64 = 0.30;
            let step_secs = ci.step().secs();
            let day_of = |k: usize| (k as i64 * step_secs / mgopt_units::SECONDS_PER_DAY) as usize;
            let days = n.checked_sub(1).map_or(0, |last| day_of(last) + 1);
            let mut daily = vec![0.0; days];
            for (k, &p) in pv_unit_kw.values().iter().enumerate() {
                daily[day_of(k)] += p;
            }
            // 31-day centered rolling mean (periodic) as the seasonal norm.
            let factors: Vec<f64> = (0..days)
                .map(|d| {
                    let mut s = 0.0;
                    for k in 0..31 {
                        let idx = (d + days + k - 15) % days;
                        s += daily[idx];
                    }
                    let seasonal = (s / 31.0).max(1e-9);
                    let rel = (daily[d] / seasonal).min(2.0);
                    1.0 + ALPHA * (1.0 - rel)
                })
                .collect();
            for (k, v) in values.iter_mut().enumerate() {
                *v *= factors[day_of(k)];
            }
        }
    }
    // Exact mean re-calibration and a positivity floor.
    let target = ci.mean();
    let mean: f64 = values.iter().sum::<f64>() / n as f64;
    let scale = target / mean;
    for v in values.iter_mut() {
        *v = (*v * scale).max(20.0);
    }
    TimeSeries::new(ci.step(), values)
}

/// Precomputed per-site simulation inputs.
#[derive(Debug, Clone)]
pub struct SiteData {
    /// The site definition.
    pub site: Site,
    /// The synthesized weather year.
    pub weather: WeatherYear,
    /// AC output of 1 kW(DC) of PVWatts solar, kW per kW.
    pub pv_unit_kw: TimeSeries,
    /// AC output of one 3 MW turbine including farm losses, kW.
    pub wind_unit_kw: TimeSeries,
    /// Grid carbon intensity, gCO2/kWh.
    pub ci_g_per_kwh: TimeSeries,
    /// Electricity price, $/MWh.
    pub price_usd_per_mwh: TimeSeries,
}

impl SiteData {
    /// The shared step of all series.
    pub fn step(&self) -> SimDuration {
        self.pv_unit_kw.step()
    }

    /// Number of samples per series.
    pub fn len(&self) -> usize {
        self.pv_unit_kw.len()
    }

    /// `true` when empty (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.pv_unit_kw.is_empty()
    }

    /// Solar capacity factor of the unit profile.
    pub fn solar_capacity_factor(&self) -> f64 {
        self.pv_unit_kw.mean()
    }

    /// Wind capacity factor of the unit profile (3 MW turbine).
    pub fn wind_capacity_factor(&self) -> f64 {
        self.wind_unit_kw.mean() / 3_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prep(site: Site) -> SiteData {
        site.prepare(SimDuration::from_hours(1.0), 42)
    }

    #[test]
    fn prepared_series_share_shape() {
        let d = prep(Site::berkeley());
        assert_eq!(d.len(), 8_760);
        assert_eq!(d.pv_unit_kw.len(), d.wind_unit_kw.len());
        assert_eq!(d.ci_g_per_kwh.len(), d.len());
        assert_eq!(d.price_usd_per_mwh.len(), d.len());
        assert_eq!(d.step(), SimDuration::from_hours(1.0));
    }

    #[test]
    fn unit_profiles_are_per_unit() {
        let d = prep(Site::houston());
        // pv_unit peaks below ~0.9 kW per kW DC (inverter + losses).
        assert!(
            d.pv_unit_kw.max() <= 0.95,
            "pv unit max {}",
            d.pv_unit_kw.max()
        );
        // one turbine peaks at ~3 MW derated by wake+availability.
        assert!(d.wind_unit_kw.max() <= 3_000.0 * 0.94 * 0.97 + 1.0);
    }

    #[test]
    fn site_contrast_capacity_factors() {
        let b = prep(Site::berkeley());
        let h = prep(Site::houston());
        assert!(
            b.solar_capacity_factor() > h.solar_capacity_factor(),
            "berkeley solar CF {} vs houston {}",
            b.solar_capacity_factor(),
            h.solar_capacity_factor()
        );
        assert!(
            h.wind_capacity_factor() > 1.5 * b.wind_capacity_factor(),
            "houston wind CF {} vs berkeley {}",
            h.wind_capacity_factor(),
            b.wind_capacity_factor()
        );
    }

    #[test]
    fn deterministic_preparation() {
        let a = prep(Site::berkeley());
        let b = prep(Site::berkeley());
        assert_eq!(a.pv_unit_kw, b.pv_unit_kw);
        assert_eq!(a.wind_unit_kw, b.wind_unit_kw);
        assert_eq!(a.ci_g_per_kwh, b.ci_g_per_kwh);
    }

    #[test]
    fn presets_use_right_regions() {
        assert_eq!(Site::berkeley().grid_region, GridRegion::Caiso);
        assert_eq!(Site::houston().grid_region, GridRegion::Ercot);
    }

    #[test]
    fn ci_coupling_preserves_exact_mean() {
        let h = prep(Site::houston());
        assert!((h.ci_g_per_kwh.mean() - 15_540.0 / 38.88).abs() < 1e-6);
        let b = prep(Site::berkeley());
        assert!((b.ci_g_per_kwh.mean() - 9_330.0 / 38.88).abs() < 1e-6);
    }

    #[test]
    fn ercot_ci_anticorrelates_with_wind() {
        let h = prep(Site::houston());
        // Split hours by wind output; low-wind hours must be dirtier.
        let mean_wind = h.wind_unit_kw.mean();
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for (&w, &c) in h.wind_unit_kw.values().iter().zip(h.ci_g_per_kwh.values()) {
            if w < 0.5 * mean_wind {
                lo.push(c);
            } else if w > 1.5 * mean_wind {
                hi.push(c);
            }
        }
        let lo_mean: f64 = lo.iter().sum::<f64>() / lo.len() as f64;
        let hi_mean: f64 = hi.iter().sum::<f64>() / hi.len() as f64;
        assert!(
            lo_mean > 1.15 * hi_mean,
            "calm hours should be dirtier: {lo_mean} vs {hi_mean}"
        );
    }

    #[test]
    fn caiso_ci_dirtier_on_overcast_days() {
        let b = prep(Site::berkeley());
        // Compare the cleanest vs cloudiest summer days by PV yield.
        let day_pv: Vec<f64> = (150..240)
            .map(|d| b.pv_unit_kw.day_slice(d).iter().sum::<f64>())
            .collect();
        let day_ci: Vec<f64> = (150..240)
            .map(|d| b.ci_g_per_kwh.day_slice(d).iter().sum::<f64>() / 24.0)
            .collect();
        let max_pv = day_pv.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let cloudy: Vec<f64> = day_pv
            .iter()
            .zip(&day_ci)
            .filter(|(&p, _)| p < 0.6 * max_pv)
            .map(|(_, &c)| c)
            .collect();
        let sunny: Vec<f64> = day_pv
            .iter()
            .zip(&day_ci)
            .filter(|(&p, _)| p > 0.9 * max_pv)
            .map(|(_, &c)| c)
            .collect();
        if !cloudy.is_empty() && !sunny.is_empty() {
            let cm: f64 = cloudy.iter().sum::<f64>() / cloudy.len() as f64;
            let sm: f64 = sunny.iter().sum::<f64>() / sunny.len() as f64;
            assert!(cm > sm, "cloudy days dirtier: {cm} vs {sm}");
        }
    }
}
