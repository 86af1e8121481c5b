#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-weather
//!
//! Synthetic solar and wind resource data — the workspace's substitute for
//! the NREL National Solar Radiation Database (NSRDB) and WIND Toolkit used
//! by the paper.
//!
//! The pipeline mirrors how measured weather files are produced and consumed:
//!
//! 1. deterministic **solar geometry** ([`solar_pos`]) and a **clear-sky
//!    model** ([`clearsky`]) give the cloud-free irradiance envelope. Both
//!    depend only on the location and the step, never on the seed, so they
//!    are computed once per (location, step) into a
//!    [`SolarGeometry`] table that every weather year — and PVWatts, which
//!    needs the same sun positions — shares through
//!    [`SolarGeometry::shared`];
//! 2. a seeded stochastic **cloud process** ([`cloud`]) yields an hourly
//!    clear-sky index with realistic multi-day overcast spells;
//! 3. the product is **decomposed** ([`decomposition`]) into DNI/DHI exactly
//!    like ground-station pipelines do (Erbs);
//! 4. **wind speeds** ([`wind`]) come from a translated-Gaussian process
//!    with the site's Weibull marginal, seasonal and diurnal structure;
//! 5. **temperature** ([`temperature`]) and site pressure complete the
//!    records the SAM-style performance models need.
//!
//! Steps 4 and 5 split into seed-independent terms and seeded noise.
//! Each [`WeatherGenerator::generate`] call computes the terms once: the
//! seasonal mean temperature for each of the 365 days, the temperature
//! and wind diurnal terms for each time-of-day slot, and the 12 monthly
//! Weibull scales. The generators then draw only the noise at each step.
//! A slot is `gcd(step, 1 day)` long, so a step's time of day is a whole
//! number of slots even at the 5-, 10-, 15- and 20-hour steps, which do
//! not divide a day. The tables combine the same terms with the same
//! operations as evaluating the calendar at every step, bit for bit.
//!
//! Everything is deterministic given a [`Climate`] and a seed.
//!
//! ## The solar-geometry memo
//!
//! [`SolarGeometry::shared`] keeps a process-wide, least-recently-used
//! memo of geometry tables. Its key is the bits of the location's
//! `latitude_deg`, `longitude_deg` and `timezone_h` — the only fields the
//! sun position reads — plus the step in seconds; sites differing only in
//! name or elevation share a table. It holds at most four tables, evicting
//! the least recently used. Each costs 32 bytes per step (zenith cosine
//! and sine, azimuth, clear-sky GHI) in one allocation, plus 365 daily
//! extraterrestrial values: about 280 KiB at the hourly step, so the
//! paper's two sites keep about 0.55 MiB resident. Reading a table is
//! bit-identical to recomputing the sun position at every step.

pub mod clearsky;
pub mod climate;
pub mod cloud;
pub mod decomposition;
// mgopt-lint: allow(orphan_module) — the CSV seam for measured weather years (NSRDB / WIND Toolkit exports) in place of the synthetic generator
pub mod io;
pub mod location;
pub mod math;
pub mod solar_pos;
pub mod temperature;
pub mod wind;

use mgopt_units::time::{month_of_day, DAYS_PER_YEAR};
use mgopt_units::{
    SimDuration, SimTime, TimeSeries, SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_YEAR,
};
use serde::{Deserialize, Serialize};
use solar_pos::SolarGeometry;

pub use climate::Climate;
pub use location::Location;

/// One synthesized weather year for a site, at a fixed step.
///
/// Irradiance series are in W/m², temperature in °C, wind speed in m/s at
/// the climatology's reference height, pressure in Pa.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeatherYear {
    /// The site this weather belongs to.
    pub location: Location,
    /// Global horizontal irradiance, W/m².
    pub ghi: TimeSeries,
    /// Direct normal irradiance, W/m².
    pub dni: TimeSeries,
    /// Diffuse horizontal irradiance, W/m².
    pub dhi: TimeSeries,
    /// Ambient air temperature, °C.
    pub temp_air_c: TimeSeries,
    /// Wind speed at `wind_ref_height_m`, m/s.
    pub wind_speed_ms: TimeSeries,
    /// Height the wind series refers to, meters.
    pub wind_ref_height_m: f64,
    /// Power-law shear exponent for height extrapolation.
    pub wind_shear_exponent: f64,
    /// Site air pressure, Pa (constant barometric value).
    pub pressure_pa: f64,
}

impl WeatherYear {
    /// Step size shared by all series.
    pub fn step(&self) -> SimDuration {
        self.ghi.step()
    }

    /// Number of samples per series.
    pub fn len(&self) -> usize {
        self.ghi.len()
    }

    /// `true` if the year holds no samples (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.ghi.is_empty()
    }
}

/// Whether [`WeatherGenerator::generate`] — and so every site
/// preparation — accepts `step`: it divides an hour, or it is a whole
/// number of hours, at most one day, that divides the year.
pub fn is_supported_step(step: SimDuration) -> bool {
    let s = step.secs();
    s > 0
        && (SECONDS_PER_HOUR % s == 0
            || (s % SECONDS_PER_HOUR == 0 && s <= SECONDS_PER_DAY && SECONDS_PER_YEAR % s == 0))
}

/// Barometric pressure at an elevation (standard atmosphere), Pa.
pub fn pressure_at_elevation_pa(elevation_m: f64) -> f64 {
    101_325.0 * (1.0 - 2.255_77e-5 * elevation_m).powf(5.255_88)
}

/// Top-level generator: one [`Climate`] + seed → [`WeatherYear`].
#[derive(Debug, Clone)]
pub struct WeatherGenerator {
    climate: Climate,
    seed: u64,
}

impl WeatherGenerator {
    /// Create a generator for a site climatology.
    pub fn new(climate: Climate, seed: u64) -> Self {
        Self { climate, seed }
    }

    /// The climatology driving this generator.
    pub fn climate(&self) -> &Climate {
        &self.climate
    }

    /// Synthesize a full year at the given step.
    ///
    /// The cloud process always runs at hourly resolution (clouds do not
    /// need sub-hourly regime switches); irradiance, temperature and wind
    /// are produced at the requested step.
    ///
    /// The solar geometry comes from [`SolarGeometry::shared`]: computed
    /// once per (location, step), whatever the seed. The temperature and
    /// wind climatology terms are computed once per call, per day, slot
    /// and month (see the crate docs).
    ///
    /// # Panics
    /// Panics unless [`is_supported_step`] accepts the step.
    pub fn generate(&self, step: SimDuration) -> WeatherYear {
        assert!(
            is_supported_step(step),
            "weather step must divide an hour, or be a whole number of hours \
             (at most one day) that divides the year"
        );
        let step_s = step.secs();
        let n = (SECONDS_PER_YEAR / step_s) as usize;
        let geometry = SolarGeometry::shared(&self.climate.location, step);

        let kci = cloud::CloudGenerator::new(self.climate.solar.clone(), self.seed).generate_year();
        let terms = SeasonalTerms::new(&self.climate, step_s);
        let mut temp_gen =
            temperature::TemperatureGenerator::new(self.climate.temperature.clone(), self.seed);
        let mut wind_gen = wind::WindGenerator::new(self.climate.wind.clone(), self.seed, step_s);

        let mut ghi = Vec::with_capacity(n);
        let mut dni = Vec::with_capacity(n);
        let mut dhi = Vec::with_capacity(n);
        let mut temp = Vec::with_capacity(n);
        let mut wind_v = Vec::with_capacity(n);

        for i in 0..n {
            let secs = i as i64 * step_s;
            let hour_idx = (secs / 3_600) as usize % kci.len();

            let g = geometry.clearsky_ghi(i) * kci[hour_idx];

            let ext = geometry.extraterrestrial_horizontal_w_m2(i);
            let kt = if ext > 1.0 {
                (g / ext).clamp(0.0, 1.1)
            } else {
                0.0
            };
            let comps = decomposition::decompose(g, kt, geometry.cos_zenith(i));

            ghi.push(comps.ghi);
            dni.push(comps.dni);
            dhi.push(comps.dhi);
            let (day, slot) = terms.index(secs);
            temp.push(temp_gen.step(terms.temp_day_c[day] + terms.temp_slot_c[slot]));
            wind_v.push(wind_gen.step(terms.wind_scale_day_ms[day], terms.wind_slot[slot]));
        }

        WeatherYear {
            location: self.climate.location.clone(),
            ghi: TimeSeries::new(step, ghi),
            dni: TimeSeries::new(step, dni),
            dhi: TimeSeries::new(step, dhi),
            temp_air_c: TimeSeries::new(step, temp),
            wind_speed_ms: TimeSeries::new(step, wind_v),
            wind_ref_height_m: self.climate.wind.ref_height_m,
            wind_shear_exponent: self.climate.wind.shear_exponent,
            pressure_pa: pressure_at_elevation_pa(self.climate.location.elevation_m),
        }
    }
}

/// The seed-independent temperature and wind terms of one year at one
/// step, indexed by day of year and time-of-day slot.
struct SeasonalTerms {
    /// Seconds per slot: `gcd(step, 1 day)`.
    slot_s: i64,
    /// Seasonal mean temperature of each day, °C.
    temp_day_c: Vec<f64>,
    /// Weibull scale of each day's month, m/s.
    wind_scale_day_ms: Vec<f64>,
    /// Diurnal temperature offset of each slot, °C.
    temp_slot_c: Vec<f64>,
    /// Diurnal wind factor of each slot.
    wind_slot: Vec<f64>,
}

impl SeasonalTerms {
    fn new(climate: &Climate, step_s: i64) -> Self {
        let slot_s = gcd(step_s, SECONDS_PER_DAY);
        // The calendar's own fractional hour, so every term is the one a
        // per-step evaluation would compute.
        let hours: Vec<f64> = (0..SECONDS_PER_DAY / slot_s)
            .map(|k| SimTime::from_secs(k * slot_s).calendar().hour_of_day())
            .collect();
        let scales: [f64; 12] = std::array::from_fn(|m| wind::monthly_scale_ms(&climate.wind, m));
        let days = 0..DAYS_PER_YEAR as u32;
        Self {
            slot_s,
            temp_day_c: days
                .clone()
                .map(|d| temperature::seasonal_mean_c(&climate.temperature, d))
                .collect(),
            wind_scale_day_ms: days.map(|d| scales[month_of_day(d) as usize]).collect(),
            temp_slot_c: hours
                .iter()
                .map(|&h| temperature::diurnal_offset_c(&climate.temperature, h))
                .collect(),
            wind_slot: hours
                .iter()
                .map(|&h| wind::diurnal_factor(&climate.wind, h))
                .collect(),
        }
    }

    /// The day of year and slot of the instant `secs` (in `[0, 1 year)`).
    fn index(&self, secs: i64) -> (usize, usize) {
        (
            (secs / SECONDS_PER_DAY) as usize,
            (secs % SECONDS_PER_DAY / self.slot_s) as usize,
        )
    }
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::stats;

    #[test]
    fn seasonal_terms_equal_the_per_step_climatology_at_every_supported_step() {
        for climate in [Climate::houston(), Climate::berkeley()] {
            let (tc, wc) = (&climate.temperature, &climate.wind);
            for minutes in 1..=1_440 {
                let step_s = minutes * 60;
                if !is_supported_step(SimDuration::from_secs(step_s)) {
                    continue;
                }
                let terms = SeasonalTerms::new(&climate, step_s);
                for secs in (0..SECONDS_PER_YEAR).step_by(step_s as usize) {
                    let (day, slot) = terms.index(secs);
                    let t = SimTime::from_secs(secs);
                    let cal = t.calendar();
                    let baseline = terms.temp_day_c[day] + terms.temp_slot_c[slot];
                    let want = temperature::baseline_temp_c(tc, t);
                    assert_eq!(baseline.to_bits(), want.to_bits(), "{minutes} min, {t}");
                    let scale = wind::monthly_scale_ms(wc, cal.month as usize);
                    assert_eq!(terms.wind_scale_day_ms[day].to_bits(), scale.to_bits());
                    let diurnal = wind::diurnal_factor(wc, cal.hour_of_day());
                    assert_eq!(terms.wind_slot[slot].to_bits(), diurnal.to_bits(), "{t}");
                }
            }
        }
    }

    fn berkeley_year() -> WeatherYear {
        WeatherGenerator::new(Climate::berkeley(), 42).generate(SimDuration::from_hours(1.0))
    }

    fn houston_year() -> WeatherYear {
        WeatherGenerator::new(Climate::houston(), 42).generate(SimDuration::from_hours(1.0))
    }

    #[test]
    fn hourly_year_has_8760_samples() {
        let w = berkeley_year();
        assert_eq!(w.len(), 8_760);
        assert_eq!(w.step(), SimDuration::from_hours(1.0));
        assert_eq!(w.ghi.len(), w.wind_speed_ms.len());
    }

    #[test]
    fn subhourly_generation_works() {
        let w =
            WeatherGenerator::new(Climate::berkeley(), 1).generate(SimDuration::from_minutes(15.0));
        assert_eq!(w.len(), 4 * 8_760);
    }

    #[test]
    #[should_panic(expected = "weather step")]
    fn incompatible_step_panics() {
        WeatherGenerator::new(Climate::berkeley(), 1).generate(SimDuration::from_secs(7_000));
    }

    #[test]
    fn supported_steps_divide_an_hour_or_are_whole_hours_up_to_a_day() {
        let minutes = |m: i64| SimDuration::from_secs(m * 60);
        for m in [1, 5, 15, 30, 60, 120, 300, 480, 1_440] {
            assert!(is_supported_step(minutes(m)), "{m} min");
        }
        for m in [0, -60, 7, 45, 90, 420, 1_800, 2_880, 4_380, 525_600] {
            assert!(!is_supported_step(minutes(m)), "{m} min");
        }
    }

    #[test]
    fn irradiance_physical_bounds() {
        let w = houston_year();
        for (i, (&g, (&b, &d))) in w
            .ghi
            .values()
            .iter()
            .zip(w.dni.values().iter().zip(w.dhi.values()))
            .enumerate()
        {
            assert!((0.0..1_300.0).contains(&g), "sample {i}: ghi {g}");
            assert!((0.0..=1_100.0).contains(&b), "sample {i}: dni {b}");
            assert!(d >= 0.0 && d <= g + 1e-9, "sample {i}: dhi {d} > ghi {g}");
        }
    }

    #[test]
    fn nights_are_dark() {
        let w = berkeley_year();
        // 03:00 local on ten sampled days.
        for day in (0..365).step_by(37) {
            let idx = day * 24 + 3;
            assert_eq!(w.ghi.values()[idx], 0.0, "day {day} 03:00 not dark");
        }
    }

    #[test]
    fn annual_insolation_site_contrast() {
        let b = berkeley_year();
        let h = houston_year();
        // kWh/m²/yr
        let b_insol = b.ghi.energy_kwh() / 1_000.0;
        let h_insol = h.ghi.energy_kwh() / 1_000.0;
        // Plausible ranges for the two climates.
        assert!((1_500.0..2_200.0).contains(&b_insol), "berkeley {b_insol}");
        assert!((1_300.0..2_000.0).contains(&h_insol), "houston {h_insol}");
        assert!(b_insol > h_insol, "berkeley should out-sun houston");
    }

    #[test]
    fn wind_site_contrast() {
        let b = berkeley_year();
        let h = houston_year();
        let bm = stats::mean(b.wind_speed_ms.values());
        let hm = stats::mean(h.wind_speed_ms.values());
        assert!(hm > 5.8, "houston mean wind {hm}");
        assert!(bm < 5.8, "berkeley mean wind {bm}");
        assert!(hm - bm > 1.2);
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let a = WeatherGenerator::new(Climate::houston(), 7).generate(SimDuration::from_hours(1.0));
        let b = WeatherGenerator::new(Climate::houston(), 7).generate(SimDuration::from_hours(1.0));
        let c = WeatherGenerator::new(Climate::houston(), 8).generate(SimDuration::from_hours(1.0));
        assert_eq!(a, b);
        assert_ne!(a.ghi, c.ghi);
        assert_ne!(a.wind_speed_ms, c.wind_speed_ms);
    }

    #[test]
    fn pressure_decreases_with_elevation() {
        assert!(pressure_at_elevation_pa(0.0) > pressure_at_elevation_pa(1_000.0));
        assert!((pressure_at_elevation_pa(0.0) - 101_325.0).abs() < 1.0);
        // Denver-ish
        let p1600 = pressure_at_elevation_pa(1_600.0);
        assert!((82_000.0..85_000.0).contains(&p1600), "p(1600m) = {p1600}");
    }

    #[test]
    fn temperature_seasonal_shape() {
        let h = houston_year();
        let july: f64 = stats::mean(&h.temp_air_c.values()[181 * 24..212 * 24]);
        let jan: f64 = stats::mean(&h.temp_air_c.values()[0..31 * 24]);
        assert!(july > jan + 10.0, "july {july} vs jan {jan}");
    }
}
