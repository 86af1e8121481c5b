//! Ambient air temperature synthesis.
//!
//! Temperature enters the system through the PVWatts cell-temperature model
//! (hot modules are less efficient) and through air density for wind power.
//! The model is a seasonal baseline (linear interpolation between monthly
//! means) plus a diurnal cosine (minimum near sunrise, maximum mid
//! afternoon) plus an AR(1) day-to-day anomaly.
//!
//! The baseline does not depend on the seed, so
//! [`WeatherGenerator::generate`](crate::WeatherGenerator::generate)
//! computes its two terms once per call, [`seasonal_mean_c`] for each day
//! and [`diurnal_offset_c`] for each time-of-day slot, and hands their sum
//! to [`TemperatureGenerator::step`], which draws only the anomaly.
//! [`baseline_temp_c`] adds the same two terms at one instant, in the same
//! order; it is the oracle the tables are tested against.

use mgopt_units::time::{month_of_day, MONTH_LENGTHS, MONTH_STARTS};
use mgopt_units::SimTime;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::climate::TemperatureClimate;
use crate::cloud::sample_standard_normal;
use crate::math::Ar1;

/// Deterministic seasonal + diurnal temperature baseline, °C.
pub fn baseline_temp_c(climate: &TemperatureClimate, t: SimTime) -> f64 {
    let cal = t.calendar();
    seasonal_mean_c(climate, cal.day_of_year) + diurnal_offset_c(climate, cal.hour_of_day())
}

/// The diurnal cycle's offset from the seasonal mean at a fractional
/// hour of day, °C: minimum at ~05:00, maximum at ~15:00.
pub fn diurnal_offset_c(climate: &TemperatureClimate, hour_of_day: f64) -> f64 {
    let phase = (hour_of_day - 15.0) / 24.0 * std::f64::consts::TAU;
    0.5 * climate.diurnal_swing_c * phase.cos()
}

/// Monthly-mean curve interpolated to a day of year (piecewise linear
/// between month midpoints, periodic across the year boundary).
pub fn seasonal_mean_c(climate: &TemperatureClimate, day_of_year: u32) -> f64 {
    let month = month_of_day(day_of_year) as usize;
    let mid = MONTH_STARTS[month] as f64 + MONTH_LENGTHS[month] as f64 / 2.0;
    let d = day_of_year as f64 + 0.5;
    let (m0, m1, w) = if d < mid {
        let prev = (month + 11) % 12;
        let prev_mid = MONTH_STARTS[prev] as f64 + MONTH_LENGTHS[prev] as f64 / 2.0
            - if month == 0 { 365.0 } else { 0.0 };
        (prev, month, (d - prev_mid) / (mid - prev_mid))
    } else {
        let next = (month + 1) % 12;
        let next_mid = MONTH_STARTS[next] as f64
            + MONTH_LENGTHS[next] as f64 / 2.0
            + if month == 11 { 365.0 } else { 0.0 };
        (month, next, (d - mid) / (next_mid - mid))
    };
    climate.monthly_mean_c[m0] * (1.0 - w) + climate.monthly_mean_c[m1] * w
}

/// Stochastic temperature generator: the AR(1) anomaly around a
/// baseline the caller supplies.
#[derive(Debug)]
pub struct TemperatureGenerator {
    climate: TemperatureClimate,
    rng: ChaCha12Rng,
    anomaly: Ar1,
}

impl TemperatureGenerator {
    /// Create a generator; anomalies decorrelate over ~2 days of hourly steps.
    pub fn new(climate: TemperatureClimate, seed: u64) -> Self {
        Self {
            climate,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x7e4b_7e4b),
            anomaly: Ar1::new(Ar1::rho_for_decorrelation_steps(48.0)),
        }
    }

    /// Temperature at a step whose baseline is `baseline_c` (°C; see
    /// [`baseline_temp_c`]), advancing the anomaly process one step.
    ///
    /// Call once per simulation step in time order.
    pub fn step(&mut self, baseline_c: f64) -> f64 {
        let eps = sample_standard_normal(&mut self.rng);
        let anomaly = self.anomaly.step(eps) * self.climate.anomaly_std_c;
        baseline_c + anomaly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate::Climate;
    use mgopt_units::{SimDuration, SimTime, SECONDS_PER_DAY};

    #[test]
    fn seasonal_mean_hits_month_midpoints() {
        let c = Climate::houston().temperature;
        // Mid-January (day 15) should be ~the January mean.
        assert!((seasonal_mean_c(&c, 15) - c.monthly_mean_c[0]).abs() < 0.3);
        // Mid-July (day 196) ~ July mean.
        assert!((seasonal_mean_c(&c, 196) - c.monthly_mean_c[6]).abs() < 0.3);
    }

    #[test]
    fn seasonal_mean_continuous_across_year_boundary() {
        let c = Climate::berkeley().temperature;
        let dec31 = seasonal_mean_c(&c, 364);
        let jan1 = seasonal_mean_c(&c, 0);
        assert!(
            (dec31 - jan1).abs() < 0.5,
            "discontinuity {dec31} vs {jan1}"
        );
    }

    #[test]
    fn diurnal_max_mid_afternoon() {
        let c = Climate::houston().temperature;
        let day = 200i64;
        let at =
            |h: i64| baseline_temp_c(&c, SimTime::from_secs(day * SECONDS_PER_DAY + h * 3_600));
        assert!(at(15) > at(5) + 0.8 * c.diurnal_swing_c);
        assert!(at(15) > at(0));
    }

    #[test]
    fn generator_tracks_baseline() {
        let c = Climate::berkeley().temperature;
        let mut g = TemperatureGenerator::new(c.clone(), 5);
        let mut t = SimTime::START;
        let mut err_sum = 0.0;
        let mut n = 0;
        while t.secs() < 30 * SECONDS_PER_DAY {
            let baseline = baseline_temp_c(&c, t);
            err_sum += g.step(baseline) - baseline;
            n += 1;
            t += SimDuration::from_hours(1.0);
        }
        let bias: f64 = err_sum / n as f64;
        assert!(bias.abs() < 1.5, "anomaly bias {bias}");
    }

    #[test]
    fn houston_hotter_than_berkeley_in_summer() {
        let h = Climate::houston().temperature;
        let b = Climate::berkeley().temperature;
        assert!(seasonal_mean_c(&h, 200) > seasonal_mean_c(&b, 200) + 8.0);
    }
}
