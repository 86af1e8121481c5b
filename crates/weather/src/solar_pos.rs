//! Solar position and extraterrestrial irradiance.
//!
//! Implements the standard astronomical relationships used by PVWatts /
//! Duffie & Beckman: solar declination (Cooper), equation of time (Spencer),
//! hour angle, zenith/elevation/azimuth, and the eccentricity-corrected
//! extraterrestrial irradiance.
//!
//! The geometry of a whole year depends only on the location and the step,
//! never on a weather seed, so the preparation chain reads it from a
//! [`SolarGeometry`] table built once per (location, step) and shared
//! through [`SolarGeometry::shared`].

use std::sync::{Arc, Mutex, PoisonError};

use mgopt_units::time::DAYS_PER_YEAR;
use mgopt_units::{SimDuration, SimTime, SECONDS_PER_DAY, SECONDS_PER_YEAR};

use crate::clearsky::clearsky_ghi_from_position;
use crate::location::Location;

/// Solar constant in W/m².
pub const SOLAR_CONSTANT_W_M2: f64 = 1_361.0;

/// Solar angles at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SunPosition {
    /// Zenith angle in radians (0 = sun overhead, >= pi/2 = below horizon).
    pub zenith_rad: f64,
    /// Elevation above the horizon in radians (negative at night).
    pub elevation_rad: f64,
    /// Azimuth in radians measured clockwise from north.
    pub azimuth_rad: f64,
    /// Solar declination in radians.
    pub declination_rad: f64,
    /// Hour angle in radians (0 at solar noon, negative morning).
    pub hour_angle_rad: f64,
}

impl SunPosition {
    /// `true` when the sun is above the horizon.
    #[inline]
    pub fn is_up(&self) -> bool {
        self.elevation_rad > 0.0
    }

    /// Cosine of the zenith angle, clamped at zero below the horizon.
    #[inline]
    pub fn cos_zenith(&self) -> f64 {
        self.zenith_rad.cos().max(0.0)
    }
}

/// Solar declination in radians for a 0-based day of year (Cooper 1969).
pub fn declination_rad(day_of_year: u32) -> f64 {
    let n = day_of_year as f64 + 1.0;
    (23.45f64).to_radians() * ((360.0 / 365.0) * (284.0 + n)).to_radians().sin()
}

/// Equation of time in minutes for a 0-based day of year (Spencer 1971).
pub fn equation_of_time_min(day_of_year: u32) -> f64 {
    let b = 2.0 * std::f64::consts::PI * (day_of_year as f64) / 365.0;
    229.18
        * (0.000_075 + 0.001_868 * b.cos()
            - 0.032_077 * b.sin()
            - 0.014_615 * (2.0 * b).cos()
            - 0.040_849 * (2.0 * b).sin())
}

/// Sun position for a site at a simulation instant (local standard time).
pub fn sun_position(loc: &Location, t: SimTime) -> SunPosition {
    let cal = t.calendar();
    let decl = declination_rad(cal.day_of_year);

    // Local solar time = local standard time + EoT + longitude correction.
    let eot_h = equation_of_time_min(cal.day_of_year) / 60.0;
    let lon_corr_h = (loc.longitude_deg - loc.timezone_meridian_deg()) / 15.0;
    let solar_time_h = cal.hour_of_day() + eot_h + lon_corr_h;

    let hour_angle = (solar_time_h - 12.0) * 15.0f64.to_radians();
    let lat = loc.latitude_rad();

    let cos_zenith = lat.sin() * decl.sin() + lat.cos() * decl.cos() * hour_angle.cos();
    let zenith = cos_zenith.clamp(-1.0, 1.0).acos();
    let elevation = std::f64::consts::FRAC_PI_2 - zenith;

    // Azimuth clockwise from north (NOAA convention).
    let sin_z = zenith.sin();
    let azimuth = if sin_z.abs() < 1e-9 {
        // Sun at zenith/nadir: azimuth undefined; pick south.
        std::f64::consts::PI
    } else {
        let cos_az = ((decl.sin() - lat.sin() * cos_zenith) / (lat.cos() * sin_z)).clamp(-1.0, 1.0);
        let az = cos_az.acos();
        if hour_angle > 0.0 {
            2.0 * std::f64::consts::PI - az
        } else {
            az
        }
    };

    SunPosition {
        zenith_rad: zenith,
        elevation_rad: elevation,
        azimuth_rad: azimuth,
        declination_rad: decl,
        hour_angle_rad: hour_angle,
    }
}

/// Extraterrestrial irradiance on a surface normal to the sun (W/m²),
/// with the eccentricity correction of Duffie & Beckman eq. 1.4.1.
pub fn extraterrestrial_normal_w_m2(day_of_year: u32) -> f64 {
    let n = day_of_year as f64 + 1.0;
    SOLAR_CONSTANT_W_M2 * (1.0 + 0.033 * ((360.0 * n / 365.0).to_radians()).cos())
}

/// Extraterrestrial irradiance on a horizontal surface (W/m²).
pub fn extraterrestrial_horizontal_w_m2(loc: &Location, t: SimTime) -> f64 {
    let pos = sun_position(loc, t);
    extraterrestrial_normal_w_m2(t.calendar().day_of_year) * pos.cos_zenith()
}

/// One year of solar geometry for a location at a fixed step.
///
/// Each row holds, for step `i` at `t = i × step`, exactly the values the
/// per-step formulas give on [`sun_position`]`(loc, t)`, so reading the
/// table instead of recomputing is bit-identical. Memory: one 32-byte row
/// per step plus 365 daily values — about 280 KiB at the hourly step.
#[derive(Debug)]
pub struct SolarGeometry {
    step_s: i64,
    /// Rows, not columns: one block per resident table. Four separately
    /// allocated columns held resident measurably slowed warm daemon
    /// studies that never read them.
    rows: Box<[SunRow]>,
    /// [`extraterrestrial_normal_w_m2`] per day of year.
    ext_normal: Box<[f64]>,
}

/// The four per-step values of a [`SolarGeometry`].
#[derive(Debug)]
struct SunRow {
    /// `zenith_rad.cos()`, unclamped.
    zenith_cos: f64,
    /// `zenith_rad.sin()`.
    zenith_sin: f64,
    azimuth_rad: f64,
    /// [`clearsky_ghi_from_position`].
    clearsky_ghi: f64,
}

impl SolarGeometry {
    /// Compute the table for a whole year at `step`.
    ///
    /// # Panics
    /// Panics unless `step` is positive and at most one year.
    pub fn new(loc: &Location, step: SimDuration) -> Self {
        let step_s = step.secs();
        assert!(
            (1..=SECONDS_PER_YEAR).contains(&step_s),
            "solar geometry step must be positive and at most one year"
        );
        let rows = (0..SECONDS_PER_YEAR / step_s)
            .map(|i| {
                let pos = sun_position(loc, SimTime::from_secs(i * step_s));
                SunRow {
                    zenith_cos: pos.zenith_rad.cos(),
                    zenith_sin: pos.zenith_rad.sin(),
                    azimuth_rad: pos.azimuth_rad,
                    clearsky_ghi: clearsky_ghi_from_position(&pos),
                }
            })
            .collect();
        Self {
            step_s,
            rows,
            ext_normal: (0..DAYS_PER_YEAR as u32)
                .map(extraterrestrial_normal_w_m2)
                .collect(),
        }
    }

    /// The process-wide table for `(loc, step)`, built on first use.
    ///
    /// The memo is keyed by the bits of `latitude_deg`, `longitude_deg` and
    /// `timezone_h` — the only [`Location`] fields [`sun_position`] reads —
    /// plus the step, so sites differing only in name or elevation share a
    /// table. It keeps the four most recently used tables; an evicted
    /// table lives on in the [`Arc`]s handed out.
    ///
    /// # Panics
    /// As [`SolarGeometry::new`].
    pub fn shared(loc: &Location, step: SimDuration) -> Arc<Self> {
        static SHARED: GeometryMemo = GeometryMemo::new();
        SHARED.get(loc, step)
    }

    /// Number of steps in the year.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table holds no steps (cannot happen by construction).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Cosine of the zenith angle at step `i`, unclamped (negative at night).
    #[inline]
    pub fn zenith_cos(&self, i: usize) -> f64 {
        self.rows[i].zenith_cos
    }

    /// Sine of the zenith angle at step `i`.
    #[inline]
    pub fn zenith_sin(&self, i: usize) -> f64 {
        self.rows[i].zenith_sin
    }

    /// Azimuth at step `i`, radians clockwise from north.
    #[inline]
    pub fn azimuth_rad(&self, i: usize) -> f64 {
        self.rows[i].azimuth_rad
    }

    /// [`SunPosition::cos_zenith`] at step `i`: clamped at zero.
    #[inline]
    pub fn cos_zenith(&self, i: usize) -> f64 {
        self.rows[i].zenith_cos.max(0.0)
    }

    /// Clear-sky GHI at step `i`, W/m² ([`clearsky_ghi_from_position`]).
    #[inline]
    pub fn clearsky_ghi(&self, i: usize) -> f64 {
        self.rows[i].clearsky_ghi
    }

    /// [`extraterrestrial_normal_w_m2`] on the day of step `i`.
    #[inline]
    pub fn extraterrestrial_normal_w_m2(&self, i: usize) -> f64 {
        self.ext_normal[(i as i64 * self.step_s / SECONDS_PER_DAY) as usize]
    }

    /// [`extraterrestrial_horizontal_w_m2`] at step `i`.
    #[inline]
    pub fn extraterrestrial_horizontal_w_m2(&self, i: usize) -> f64 {
        self.extraterrestrial_normal_w_m2(i) * self.cos_zenith(i)
    }
}

/// How many (location, step) tables [`SolarGeometry::shared`] keeps: the
/// paper's two sites at two steps.
const MEMO_CAPACITY: usize = 4;

/// Bits of the location fields [`sun_position`] reads, plus the step.
type GeometryKey = [u64; 4];

/// A least-recently-used memo of [`SolarGeometry`] tables, most recent
/// last. A miss builds its table under the lock, so concurrent misses on
/// one key build it once.
struct GeometryMemo {
    entries: Mutex<Vec<(GeometryKey, Arc<SolarGeometry>)>>,
}

impl GeometryMemo {
    const fn new() -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
        }
    }

    fn get(&self, loc: &Location, step: SimDuration) -> Arc<SolarGeometry> {
        let key = [
            loc.latitude_deg.to_bits(),
            loc.longitude_deg.to_bits(),
            loc.timezone_h.to_bits(),
            step.secs() as u64,
        ];
        // Entries change only after a table is built, so a poisoned lock
        // still guards a consistent list.
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = match entries.iter().position(|(k, _)| *k == key) {
            Some(at) => entries.remove(at),
            None => {
                let table = Arc::new(SolarGeometry::new(loc, step));
                if entries.len() == MEMO_CAPACITY {
                    entries.remove(0);
                }
                (key, table)
            }
        };
        let table = Arc::clone(&entry.1);
        entries.push(entry);
        table
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }
}

/// Day length in hours from the sunset hour angle.
pub fn day_length_h(loc: &Location, day_of_year: u32) -> f64 {
    let decl = declination_rad(day_of_year);
    let lat = loc.latitude_rad();
    let cos_ws = -lat.tan() * decl.tan();
    if cos_ws <= -1.0 {
        24.0 // polar day
    } else if cos_ws >= 1.0 {
        0.0 // polar night
    } else {
        2.0 * cos_ws.acos().to_degrees() / 15.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::{SimTime, SECONDS_PER_DAY, SECONDS_PER_HOUR};

    // Day-of-year anchors (0-based): Mar 20 equinox ~ 78, Jun 21 solstice ~
    // 171, Dec 21 solstice ~ 354.
    const EQUINOX: u32 = 78;
    const SUMMER_SOLSTICE: u32 = 171;
    const WINTER_SOLSTICE: u32 = 354;

    fn noonish(day: u32) -> SimTime {
        SimTime::from_secs(day as i64 * SECONDS_PER_DAY + 12 * SECONDS_PER_HOUR)
    }

    #[test]
    fn declination_extremes() {
        assert!(declination_rad(SUMMER_SOLSTICE).to_degrees() > 23.2);
        assert!(declination_rad(WINTER_SOLSTICE).to_degrees() < -23.2);
        assert!(declination_rad(EQUINOX).to_degrees().abs() < 1.5);
    }

    #[test]
    fn equation_of_time_bounded() {
        for d in 0..365 {
            let e = equation_of_time_min(d);
            assert!((-15.0..=17.0).contains(&e), "day {d}: {e}");
        }
    }

    #[test]
    fn noon_elevation_near_expected_at_equinox() {
        // At equinox, solar-noon elevation ~ 90 - latitude.
        let b = Location::berkeley();
        let mut best = f64::NEG_INFINITY;
        for m in 0..(24 * 60) {
            let t = SimTime::from_secs(EQUINOX as i64 * SECONDS_PER_DAY + m * 60);
            best = best.max(sun_position(&b, t).elevation_rad.to_degrees());
        }
        let expected = 90.0 - b.latitude_deg;
        assert!(
            (best - expected).abs() < 1.5,
            "max elevation {best}, expected ~{expected}"
        );
    }

    #[test]
    fn sun_below_horizon_at_midnight() {
        for loc in [Location::berkeley(), Location::houston()] {
            for day in [0, 100, 200, 300] {
                let t = SimTime::from_secs(day * SECONDS_PER_DAY);
                let pos = sun_position(&loc, t);
                assert!(!pos.is_up(), "{}, day {day}", loc.name);
                assert_eq!(pos.cos_zenith(), 0.0);
            }
        }
    }

    #[test]
    fn summer_days_longer_than_winter_days() {
        let b = Location::berkeley();
        let summer = day_length_h(&b, SUMMER_SOLSTICE);
        let winter = day_length_h(&b, WINTER_SOLSTICE);
        assert!(summer > 14.0, "summer day {summer}");
        assert!(winter < 10.0, "winter day {winter}");
        // Houston is closer to the equator: milder seasonality.
        let h = Location::houston();
        assert!(day_length_h(&h, SUMMER_SOLSTICE) < summer);
        assert!(day_length_h(&h, WINTER_SOLSTICE) > winter);
    }

    #[test]
    fn azimuth_sweeps_east_to_west() {
        let h = Location::houston();
        let morning = sun_position(
            &h,
            SimTime::from_secs(100 * SECONDS_PER_DAY + 8 * SECONDS_PER_HOUR),
        );
        let evening = sun_position(
            &h,
            SimTime::from_secs(100 * SECONDS_PER_DAY + 17 * SECONDS_PER_HOUR),
        );
        assert!(
            morning.azimuth_rad.to_degrees() < 180.0,
            "morning sun in the east"
        );
        assert!(
            evening.azimuth_rad.to_degrees() > 180.0,
            "evening sun in the west"
        );
    }

    #[test]
    fn extraterrestrial_seasonal_variation() {
        // Earth is closest to the sun in January.
        let jan = extraterrestrial_normal_w_m2(3);
        let jul = extraterrestrial_normal_w_m2(184);
        assert!(jan > jul);
        assert!((jan / jul - 1.0) < 0.08);
        assert!(jan < 1_420.0 && jul > 1_310.0);
    }

    fn custom_site() -> Location {
        Location {
            name: "Tromsø".into(),
            latitude_deg: 69.6492,
            longitude_deg: 18.9553,
            elevation_m: 10.0,
            timezone_h: 1.0,
        }
    }

    #[test]
    fn geometry_columns_equal_per_step_sun_position_bitwise() {
        for loc in [Location::berkeley(), Location::houston(), custom_site()] {
            for minutes in [60, 15, 1_440] {
                let step = SimDuration::from_minutes(minutes as f64);
                let geo = SolarGeometry::new(&loc, step);
                let n = (SECONDS_PER_YEAR / step.secs()) as usize;
                assert_eq!(geo.len(), n);
                for i in 0..n {
                    let t = SimTime::from_secs(i as i64 * step.secs());
                    let pos = sun_position(&loc, t);
                    let day = t.calendar().day_of_year;
                    let bits = [
                        (geo.zenith_cos(i), pos.zenith_rad.cos()),
                        (geo.zenith_sin(i), pos.zenith_rad.sin()),
                        (geo.azimuth_rad(i), pos.azimuth_rad),
                        (geo.cos_zenith(i), pos.cos_zenith()),
                        (geo.clearsky_ghi(i), clearsky_ghi_from_position(&pos)),
                        (
                            geo.extraterrestrial_normal_w_m2(i),
                            extraterrestrial_normal_w_m2(day),
                        ),
                        (
                            geo.extraterrestrial_horizontal_w_m2(i),
                            extraterrestrial_horizontal_w_m2(&loc, t),
                        ),
                    ];
                    for (col, (got, want)) in bits.into_iter().enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{} step {minutes} min, row {i}, column {col}",
                            loc.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memo_keys_on_the_fields_sun_position_reads() {
        let memo = GeometryMemo::new();
        let step = SimDuration::from_hours(1.0);
        let base = custom_site();
        let a = memo.get(&base, step);
        let renamed = Location {
            name: "elsewhere".into(),
            elevation_m: 2_000.0,
            ..base.clone()
        };
        assert!(Arc::ptr_eq(&a, &memo.get(&renamed, step)));
        assert_eq!(memo.len(), 1);
        let moved = Location {
            longitude_deg: base.longitude_deg + 1e-9,
            ..base.clone()
        };
        assert!(!Arc::ptr_eq(&a, &memo.get(&moved, step)));
        assert!(!Arc::ptr_eq(
            &a,
            &memo.get(&base, SimDuration::from_minutes(30.0))
        ));
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn memo_keeps_at_most_its_bound_and_evicts_least_recently_used() {
        let memo = GeometryMemo::new();
        let step = SimDuration::from_days(1);
        let site = |k: usize| Location {
            longitude_deg: k as f64,
            ..custom_site()
        };
        let first = memo.get(&site(0), step);
        for k in 1..3 * MEMO_CAPACITY {
            let _ = memo.get(&site(k), step);
            assert!(memo.len() <= MEMO_CAPACITY);
        }
        assert_eq!(memo.len(), MEMO_CAPACITY);
        // Site 0 was evicted long ago; the table handed out lives on.
        assert!(!Arc::ptr_eq(&first, &memo.get(&site(0), step)));
        assert_eq!(first.len(), 365);
        // A touched entry outlives entries used before it.
        let last = 3 * MEMO_CAPACITY - 1;
        let hot = memo.get(&site(last - 2), step);
        let _ = memo.get(&site(100), step);
        let _ = memo.get(&site(101), step);
        assert!(Arc::ptr_eq(&hot, &memo.get(&site(last - 2), step)));
    }

    #[test]
    fn concurrent_misses_on_one_key_share_one_table() {
        let memo = GeometryMemo::new();
        let loc = custom_site();
        let step = SimDuration::from_minutes(15.0);
        let tables: Vec<Arc<SolarGeometry>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| memo.get(&loc, step))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t));
        }
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn horizontal_extraterrestrial_zero_at_night() {
        let b = Location::berkeley();
        assert_eq!(
            extraterrestrial_horizontal_w_m2(&b, SimTime::from_secs(0)),
            0.0
        );
        assert!(extraterrestrial_horizontal_w_m2(&b, noonish(SUMMER_SOLSTICE)) > 1_000.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mgopt_units::SimTime;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn elevation_zenith_complementary(secs in 0i64..31_536_000) {
            let pos = sun_position(&Location::houston(), SimTime::from_secs(secs));
            prop_assert!((pos.elevation_rad + pos.zenith_rad - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        }

        #[test]
        fn azimuth_in_range(secs in 0i64..31_536_000) {
            let pos = sun_position(&Location::berkeley(), SimTime::from_secs(secs));
            prop_assert!((0.0..=2.0 * std::f64::consts::PI + 1e-9).contains(&pos.azimuth_rad));
        }

        #[test]
        fn declination_bounded(day in 0u32..365) {
            prop_assert!(declination_rad(day).to_degrees().abs() <= 23.46);
        }

        #[test]
        fn day_length_reasonable_mid_latitudes(day in 0u32..365) {
            let len = day_length_h(&Location::berkeley(), day);
            prop_assert!((9.0..=15.2).contains(&len));
        }
    }
}
