//! Hourly average grid carbon-intensity synthesis.
//!
//! Following the paper (§4.1), operational carbon is accounted with
//! *average* carbon intensity (the Electricity Maps/GHG-Protocol
//! convention), not marginal intensity.

use std::sync::Arc;

use mgopt_units::{LruMemo, SimDuration, SimTime, TimeSeries, SECONDS_PER_YEAR};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Supported grid regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GridRegion {
    /// California ISO — solar-dominated duck curve, low mean intensity.
    Caiso,
    /// Electric Reliability Council of Texas — wind at night, gas peakers.
    Ercot,
}

/// Parametric carbon-intensity model for one grid region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarbonIntensityModel {
    /// Region the parameters describe.
    pub region: GridRegion,
    /// Calibration target: exact annual mean in gCO2/kWh.
    pub annual_mean_g_per_kwh: f64,
    /// 24 relative multipliers (local hour 0..23); mean ≈ 1.
    pub diurnal_shape: [f64; 24],
    /// Relative amplitude of the seasonal cycle.
    pub seasonal_amplitude: f64,
    /// Month (0-based, fractional ok) where the seasonal cycle peaks.
    pub seasonal_peak_month: f64,
    /// How much deeper the diurnal shape swings in summer than winter
    /// (1 = no modulation). Captures "more solar in summer" for CAISO.
    pub summer_shape_gain: f64,
    /// Relative standard deviation of the AR(1) noise.
    pub noise_std: f64,
    /// Noise decorrelation time in hours.
    pub noise_decorrelation_h: f64,
    /// Hard floor in gCO2/kWh (a grid is never fully carbon-free).
    pub floor_g_per_kwh: f64,
}

impl CarbonIntensityModel {
    /// Default calibrated parameters for a region.
    ///
    /// Means are chosen so the paper's no-microgrid baselines reproduce:
    /// Houston 15.54 tCO2/day and Berkeley 9.33 tCO2/day at a 1.62 MW
    /// average load (38.88 MWh/day).
    pub fn for_region(region: GridRegion) -> Self {
        match region {
            GridRegion::Caiso => Self {
                region,
                // 9.33 t / 38.88 MWh = 239.97 g/kWh
                annual_mean_g_per_kwh: 9_330.0 / 38.88,
                // Duck curve: solar crushes midday intensity, evening ramp
                // brings gas online.
                diurnal_shape: [
                    1.12, 1.10, 1.08, 1.07, 1.08, 1.12, 1.15, 1.02, 0.82, 0.62, 0.52, 0.47, 0.45,
                    0.45, 0.48, 0.55, 0.72, 0.98, 1.22, 1.32, 1.32, 1.27, 1.21, 1.16,
                ],
                seasonal_amplitude: 0.10,
                seasonal_peak_month: 8.0, // late-summer evening gas peaks
                summer_shape_gain: 1.35,  // deeper duck in summer
                noise_std: 0.10,
                noise_decorrelation_h: 6.0,
                floor_g_per_kwh: 40.0,
            },
            GridRegion::Ercot => Self {
                region,
                // 15.54 t / 38.88 MWh = 399.69 g/kWh
                annual_mean_g_per_kwh: 15_540.0 / 38.88,
                // Wind blows at night; afternoon A/C load brings gas/coal.
                diurnal_shape: [
                    0.86, 0.83, 0.81, 0.80, 0.82, 0.87, 0.94, 1.02, 1.08, 1.11, 1.14, 1.17, 1.19,
                    1.21, 1.22, 1.21, 1.19, 1.16, 1.12, 1.07, 1.01, 0.96, 0.91, 0.88,
                ],
                seasonal_amplitude: 0.08,
                seasonal_peak_month: 7.0, // summer A/C
                summer_shape_gain: 1.15,
                noise_std: 0.12,
                noise_decorrelation_h: 8.0,
                floor_g_per_kwh: 120.0,
            },
        }
    }

    /// Deterministic (noise-free) relative shape at an instant.
    pub fn relative_shape(&self, t: SimTime) -> f64 {
        let cal = t.calendar();
        let month_frac = cal.fraction_of_year() * 12.0;
        let seasonal = 1.0
            + self.seasonal_amplitude
                * ((month_frac - self.seasonal_peak_month) / 12.0 * std::f64::consts::TAU).cos();
        // Interpolate the 24-point diurnal template.
        let h = cal.hour_of_day();
        let i = h.floor() as usize % 24;
        let j = (i + 1) % 24;
        let frac = h - h.floor();
        let base = self.diurnal_shape[i] * (1.0 - frac) + self.diurnal_shape[j] * frac;
        // Summer deepens the diurnal swing around its mean of ~1:
        // the weight is 1 in mid-July and 0 in mid-January.
        let summer = 0.5 * (1.0 + ((month_frac - 6.5) / 12.0 * std::f64::consts::TAU).cos());
        let gain = 1.0 + (self.summer_shape_gain - 1.0) * summer;
        let diurnal = 1.0 + (base - 1.0) * gain;
        (seasonal * diurnal).max(0.05)
    }

    /// Generate one year of carbon intensity (gCO2/kWh) at the given step,
    /// exactly mean-calibrated to `annual_mean_g_per_kwh`: the one-model
    /// case of [`generate_group`](Self::generate_group).
    ///
    /// # Panics
    /// Panics unless `step` is positive and divides the year.
    pub fn generate(&self, step: SimDuration, seed: u64) -> TimeSeries {
        let mut series = Self::generate_group(std::slice::from_ref(self), step, seed);
        series.pop().expect("one model, one series")
    }

    /// One year of carbon intensity for each of `models`, in order, under
    /// one `seed`: each equals that model's own
    /// [`generate`](Self::generate) bit for bit.
    ///
    /// The noise stream is seeded by the seed alone and draws one normal
    /// per step whatever the model, so the group draws each normal once
    /// and feeds it to every model's AR(1) state in turn. Each model's
    /// noise-free shape comes from the process-wide shape memo (see the
    /// crate docs).
    ///
    /// # Panics
    /// Panics unless `step` is positive and divides the year.
    pub fn generate_group(models: &[Self], step: SimDuration, seed: u64) -> Vec<TimeSeries> {
        let step_s = step.secs();
        assert!(
            step_s > 0 && SECONDS_PER_YEAR % step_s == 0,
            "step must divide the year"
        );
        let n = (SECONDS_PER_YEAR / step_s) as usize;

        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xc0_2e_11_55);
        let steps_per_hour = 3_600.0 / step_s as f64;
        let mut members: Vec<NoiseState> = models
            .iter()
            .map(|m| {
                let rho = (-1.0 / (m.noise_decorrelation_h * steps_per_hour).max(1e-9)).exp();
                NoiseState {
                    shape: m.shape(step_s),
                    rho,
                    innovation: (1.0 - rho * rho).sqrt(),
                    noise_std: m.noise_std,
                    g: 0.0,
                    values: Vec::with_capacity(n),
                }
            })
            .collect();

        for i in 0..n {
            let eps: f64 = {
                // Box-Muller on two uniforms.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            for m in &mut members {
                m.g = m.rho * m.g + m.innovation * eps;
                let noise = 1.0 + m.noise_std * m.g;
                m.values.push(m.shape[i] * noise.max(0.1));
            }
        }

        models
            .iter()
            .zip(members)
            .map(|(model, m)| {
                let mut values = m.values;
                // Exact mean calibration, then floor.
                let mean: f64 = values.iter().sum::<f64>() / n as f64;
                let scale = model.annual_mean_g_per_kwh / mean;
                for v in values.iter_mut() {
                    *v = (*v * scale).max(model.floor_g_per_kwh);
                }
                TimeSeries::new(step, values)
            })
            .collect()
    }

    /// [`relative_shape`](Self::relative_shape) at every step of the year,
    /// from the process-wide memo (see the crate docs).
    fn shape(&self, step_s: i64) -> Arc<Vec<f64>> {
        static SHARED: LruMemo<ShapeKey, Vec<f64>> = LruMemo::new(SHAPE_MEMO_CAPACITY);
        let mut key = [0; 28];
        for (k, v) in key.iter_mut().zip(&self.diurnal_shape) {
            *k = v.to_bits();
        }
        key[24] = self.seasonal_amplitude.to_bits();
        key[25] = self.seasonal_peak_month.to_bits();
        key[26] = self.summer_shape_gain.to_bits();
        key[27] = step_s as u64;
        SHARED.get_or_build(key, || {
            (0..SECONDS_PER_YEAR / step_s)
                .map(|i| self.relative_shape(SimTime::from_secs(i * step_s)))
                .collect()
        })
    }
}

/// How many (model, step) shape tables the process keeps: the paper's
/// two regions at two steps.
const SHAPE_MEMO_CAPACITY: usize = 4;

/// Bits of the fields [`CarbonIntensityModel::relative_shape`] reads —
/// the 24 diurnal multipliers, the seasonal amplitude and peak month and
/// the summer gain — plus the step in seconds.
type ShapeKey = [u64; 28];

/// One model's AR(1) noise state and output in a group generation.
struct NoiseState {
    shape: Arc<Vec<f64>>,
    rho: f64,
    innovation: f64,
    noise_std: f64,
    g: f64,
    values: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::stats;

    fn hourly(region: GridRegion, seed: u64) -> TimeSeries {
        CarbonIntensityModel::for_region(region).generate(SimDuration::from_hours(1.0), seed)
    }

    /// The steps the weather pipeline accepts (`is_supported_step` in
    /// `mgopt-weather`): divisors of an hour, and whole hours up to a day
    /// that divide the year.
    fn supported_steps_s() -> impl Iterator<Item = i64> {
        (1..=1_440).map(|m| m * 60).filter(|&s| {
            3_600 % s == 0 || (s % 3_600 == 0 && s <= 86_400 && SECONDS_PER_YEAR % s == 0)
        })
    }

    #[test]
    fn shape_tables_equal_relative_shape_at_every_supported_step() {
        for region in [GridRegion::Caiso, GridRegion::Ercot] {
            let model = CarbonIntensityModel::for_region(region);
            for step_s in supported_steps_s() {
                let table = model.shape(step_s);
                assert_eq!(table.len() as i64, SECONDS_PER_YEAR / step_s);
                for (i, v) in table.iter().enumerate() {
                    let t = SimTime::from_secs(i as i64 * step_s);
                    let want = model.relative_shape(t);
                    assert_eq!(v.to_bits(), want.to_bits(), "{region:?}, {step_s} s, {t}");
                }
            }
        }
    }

    #[test]
    fn shape_memo_keys_on_the_fields_relative_shape_reads() {
        let step_s = 3_600;
        let base = CarbonIntensityModel::for_region(GridRegion::Ercot);
        let a = base.shape(step_s);
        let noise_only = CarbonIntensityModel {
            annual_mean_g_per_kwh: 1.0,
            noise_std: 0.5,
            noise_decorrelation_h: 1.0,
            floor_g_per_kwh: 0.0,
            ..base.clone()
        };
        assert!(Arc::ptr_eq(&a, &noise_only.shape(step_s)));
        let mut reshaped = base.clone();
        reshaped.diurnal_shape[23] += 1e-9;
        assert!(!Arc::ptr_eq(&a, &reshaped.shape(step_s)));
        let deeper = CarbonIntensityModel {
            summer_shape_gain: base.summer_shape_gain + 1e-9,
            ..base.clone()
        };
        assert!(!Arc::ptr_eq(&a, &deeper.shape(step_s)));
        assert_ne!(a.len(), base.shape(2 * step_s).len());
    }

    #[test]
    fn group_members_equal_their_own_generation() {
        let caiso = CarbonIntensityModel::for_region(GridRegion::Caiso);
        let ercot = CarbonIntensityModel::for_region(GridRegion::Ercot);
        for minutes in [5, 60, 300] {
            let step = SimDuration::from_minutes(minutes as f64);
            let models = [ercot.clone(), caiso.clone(), ercot.clone()];
            let group = CarbonIntensityModel::generate_group(&models, step, 9);
            assert_eq!(group.len(), 3);
            for (series, model) in group.iter().zip(&models) {
                let own = model.generate(step, 9);
                let same = series
                    .values()
                    .iter()
                    .zip(own.values())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same && series.len() == own.len(), "{minutes} min");
            }
        }
    }

    #[test]
    fn annual_means_match_paper_baselines() {
        let caiso = hourly(GridRegion::Caiso, 1);
        let ercot = hourly(GridRegion::Ercot, 1);
        // Baselines: mean CI * 38.88 MWh/day = t/day (floor clipping adds
        // <0.5% bias, tolerated here).
        let caiso_daily_t = caiso.mean() * 38_880.0 / 1e6;
        let ercot_daily_t = ercot.mean() * 38_880.0 / 1e6;
        assert!((caiso_daily_t - 9.33).abs() < 0.05, "caiso {caiso_daily_t}");
        assert!(
            (ercot_daily_t - 15.54).abs() < 0.05,
            "ercot {ercot_daily_t}"
        );
    }

    #[test]
    fn caiso_duck_curve_shape() {
        let m = CarbonIntensityModel::for_region(GridRegion::Caiso);
        // Midday (hour 12) far below evening (hour 20), July day 190.
        let noon = m.relative_shape(SimTime::from_secs(190 * 86_400 + 12 * 3_600));
        let evening = m.relative_shape(SimTime::from_secs(190 * 86_400 + 20 * 3_600));
        assert!(noon < 0.55 * evening, "noon {noon} evening {evening}");
    }

    #[test]
    fn ercot_nights_cleaner_than_afternoons() {
        let ercot = hourly(GridRegion::Ercot, 2);
        let mut night = Vec::new();
        let mut afternoon = Vec::new();
        for d in 0..365 {
            night.push(ercot.values()[d * 24 + 3]);
            afternoon.push(ercot.values()[d * 24 + 14]);
        }
        assert!(stats::mean(&night) < 0.85 * stats::mean(&afternoon));
    }

    #[test]
    fn caiso_cleaner_than_ercot() {
        assert!(hourly(GridRegion::Caiso, 3).mean() < 0.7 * hourly(GridRegion::Ercot, 3).mean());
    }

    #[test]
    fn values_respect_floor_and_are_positive() {
        for region in [GridRegion::Caiso, GridRegion::Ercot] {
            let model = CarbonIntensityModel::for_region(region);
            let ts = model.generate(SimDuration::from_hours(1.0), 4);
            for &v in ts.values() {
                assert!(v >= model.floor_g_per_kwh - 1e-9);
                assert!(v < 4.0 * model.annual_mean_g_per_kwh);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(hourly(GridRegion::Caiso, 7), hourly(GridRegion::Caiso, 7));
        assert_ne!(hourly(GridRegion::Caiso, 7), hourly(GridRegion::Caiso, 8));
    }

    #[test]
    fn subhourly_generation() {
        let ts = CarbonIntensityModel::for_region(GridRegion::Ercot)
            .generate(SimDuration::from_minutes(15.0), 5);
        assert_eq!(ts.len(), 4 * 8_760);
    }

    #[test]
    #[should_panic(expected = "step must divide the year")]
    fn bad_step_panics() {
        CarbonIntensityModel::for_region(GridRegion::Caiso)
            .generate(SimDuration::from_secs(7_001), 1);
    }

    #[test]
    fn summer_duck_deeper_than_winter() {
        let m = CarbonIntensityModel::for_region(GridRegion::Caiso);
        let jan_noon = m.relative_shape(SimTime::from_secs(15 * 86_400 + 12 * 3_600));
        let jul_noon = m.relative_shape(SimTime::from_secs(196 * 86_400 + 12 * 3_600));
        assert!(
            jul_noon < jan_noon,
            "summer noon {jul_noon} vs winter {jan_noon}"
        );
    }

    #[test]
    fn autocorrelated_noise() {
        let ts = hourly(GridRegion::Ercot, 11);
        // Remove the diurnal template by differencing across days, then
        // check the residual retains persistence.
        let r1 = stats::autocorrelation(ts.values(), 1);
        assert!(r1 > 0.5, "lag-1 autocorrelation {r1}");
    }
}
