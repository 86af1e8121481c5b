//! The PVWatts v5 photovoltaic performance chain (Dobos 2014, NREL).
//!
//! Pipeline per time step:
//!
//! 1. **Transposition** — beam, sky-diffuse and ground-reflected irradiance
//!    on the tilted array. Isotropic sky by default; HDKR (Hay-Davies-
//!    Klucher-Reindl with circumsolar brightening) optionally.
//! 2. **Cell temperature** — NOCT model with a light wind correction.
//! 3. **DC power** — linear in POA with temperature coefficient, then flat
//!    system losses (soiling, wiring, mismatch…).
//! 4. **AC power** — the PVWatts part-load inverter efficiency curve,
//!    clipped at the inverter rating (`dc_ac_ratio`).

use mgopt_units::TimeSeries;
use mgopt_weather::solar_pos::{extraterrestrial_normal_w_m2, SolarGeometry, SunPosition};
use mgopt_weather::WeatherYear;
use serde::{Deserialize, Serialize};

use crate::GenerationModel;

/// Sky-diffuse transposition model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TranspositionModel {
    /// Isotropic sky (Liu-Jordan).
    Isotropic,
    /// Hay-Davies-Klucher-Reindl: circumsolar brightening + horizon band.
    Hdkr,
}

/// Parameters of a PVWatts-style system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PvSystemParams {
    /// Nameplate DC capacity, kW.
    pub capacity_dc_kw: f64,
    /// Array tilt from horizontal, degrees.
    pub tilt_deg: f64,
    /// Array azimuth, degrees clockwise from north (180 = south).
    pub azimuth_deg: f64,
    /// DC/AC ratio (inverter loading ratio). PVWatts default 1.2.
    pub dc_ac_ratio: f64,
    /// Nominal inverter efficiency. PVWatts default 0.96.
    pub inverter_efficiency: f64,
    /// Flat system losses fraction. PVWatts default 0.14.
    pub system_losses: f64,
    /// Maximum-power temperature coefficient, 1/°C. PVWatts default -0.0047.
    pub temp_coeff_per_c: f64,
    /// Nominal operating cell temperature, °C.
    pub noct_c: f64,
    /// Ground albedo.
    pub albedo: f64,
    /// Transposition model.
    pub transposition: TranspositionModel,
}

impl PvSystemParams {
    /// PVWatts defaults for a fixed-tilt utility array at a site latitude
    /// (tilt = latitude is the standard fixed-tilt choice).
    pub fn defaults(capacity_dc_kw: f64, latitude_deg: f64) -> Self {
        Self {
            capacity_dc_kw,
            tilt_deg: latitude_deg.abs().clamp(0.0, 60.0),
            azimuth_deg: if latitude_deg >= 0.0 { 180.0 } else { 0.0 },
            dc_ac_ratio: 1.2,
            inverter_efficiency: 0.96,
            system_losses: 0.14,
            temp_coeff_per_c: -0.0047,
            noct_c: 45.0,
            albedo: 0.2,
            transposition: TranspositionModel::Isotropic,
        }
    }
}

/// A PVWatts-style photovoltaic system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PvSystem {
    params: PvSystemParams,
}

/// Plane-of-array irradiance components, W/m².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoaIrradiance {
    /// Beam component.
    pub beam: f64,
    /// Sky-diffuse component.
    pub sky_diffuse: f64,
    /// Ground-reflected component.
    pub ground: f64,
}

impl PoaIrradiance {
    /// Total POA irradiance.
    pub fn total(&self) -> f64 {
        self.beam + self.sky_diffuse + self.ground
    }
}

impl PvSystem {
    /// Create a system from explicit parameters.
    ///
    /// # Panics
    /// Panics on non-positive capacity or out-of-range parameters.
    pub fn new(params: PvSystemParams) -> Self {
        assert!(params.capacity_dc_kw > 0.0, "capacity must be positive");
        assert!((0.0..=90.0).contains(&params.tilt_deg), "tilt out of range");
        assert!(
            (0.0..360.0).contains(&params.azimuth_deg),
            "azimuth out of range"
        );
        assert!(params.dc_ac_ratio > 0.0);
        assert!((0.0..=1.0).contains(&params.inverter_efficiency));
        assert!((0.0..1.0).contains(&params.system_losses));
        Self { params }
    }

    /// PVWatts defaults at a site latitude.
    pub fn with_capacity_kw(capacity_dc_kw: f64, latitude_deg: f64) -> Self {
        Self::new(PvSystemParams::defaults(capacity_dc_kw, latitude_deg))
    }

    /// The parameter set.
    pub fn params(&self) -> &PvSystemParams {
        &self.params
    }

    /// Angle-of-incidence cosine between the sun and the array normal.
    pub fn cos_aoi(&self, pos: &SunPosition) -> f64 {
        self.plane()
            .cos_aoi(pos.zenith_rad.cos(), pos.zenith_rad.sin(), pos.azimuth_rad)
    }

    /// Transpose horizontal irradiance onto the array plane.
    pub fn transpose(
        &self,
        ghi: f64,
        dni: f64,
        dhi: f64,
        pos: &SunPosition,
        day_of_year: u32,
    ) -> PoaIrradiance {
        let plane = self.plane();
        let cos_aoi = plane.cos_aoi(pos.zenith_rad.cos(), pos.zenith_rad.sin(), pos.azimuth_rad);
        let ext = extraterrestrial_normal_w_m2(day_of_year);
        plane.transpose(ghi, dni, dhi, cos_aoi, pos.cos_zenith(), ext)
    }

    fn plane(&self) -> Plane {
        let beta = self.params.tilt_deg.to_radians();
        Plane {
            beta,
            cos_beta: beta.cos(),
            sin_beta: beta.sin(),
            gamma: self.params.azimuth_deg.to_radians(),
            albedo: self.params.albedo,
            transposition: self.params.transposition,
        }
    }

    /// NOCT cell temperature with a light wind correction.
    ///
    /// `T_cell = T_amb + POA/800 × (NOCT − 20) × f(wind)`; the wind factor
    /// follows SAM's simple thermal derate (stronger convective cooling at
    /// higher wind speed, normalized to 1 at the NOCT test condition 1 m/s).
    pub fn cell_temperature_c(&self, poa_w_m2: f64, temp_air_c: f64, wind_ms: f64) -> f64 {
        let wind_factor = 9.5 / (5.7 + 3.8 * wind_ms.max(0.0));
        temp_air_c + poa_w_m2 / 800.0 * (self.params.noct_c - 20.0) * wind_factor
    }

    /// DC power (kW) from POA irradiance and cell temperature, including
    /// flat system losses.
    pub fn dc_power_kw(&self, poa_w_m2: f64, cell_temp_c: f64) -> f64 {
        if poa_w_m2 <= 0.0 {
            return 0.0;
        }
        let p = self.params.capacity_dc_kw
            * (poa_w_m2 / 1_000.0)
            * (1.0 + self.params.temp_coeff_per_c * (cell_temp_c - 25.0));
        (p * (1.0 - self.params.system_losses)).max(0.0)
    }

    /// AC power (kW) through the PVWatts part-load inverter curve.
    pub fn ac_power_kw(&self, dc_kw: f64) -> f64 {
        if dc_kw <= 0.0 {
            return 0.0;
        }
        let pdc0 = self.params.capacity_dc_kw;
        let pac0 = pdc0 / self.params.dc_ac_ratio * self.params.inverter_efficiency;
        // PVWatts v5 part-load efficiency, referenced to eta at full load.
        let zeta = (dc_kw / pdc0).clamp(0.01, 1.5);
        let eta =
            self.params.inverter_efficiency / 0.9637 * (-0.0162 * zeta - 0.0059 / zeta + 0.9858);
        (dc_kw * eta.clamp(0.0, 1.0)).min(pac0)
    }
}

/// The array plane's constants, computed once per [`PvSystem::simulate`]
/// rather than once per step.
struct Plane {
    /// Tilt, radians.
    beta: f64,
    cos_beta: f64,
    sin_beta: f64,
    /// Azimuth, radians clockwise from north.
    gamma: f64,
    albedo: f64,
    transposition: TranspositionModel,
}

impl Plane {
    /// [`PvSystem::cos_aoi`] from the sun's unclamped zenith cosine and
    /// sine and its azimuth.
    #[inline]
    fn cos_aoi(&self, zenith_cos: f64, zenith_sin: f64, azimuth_rad: f64) -> f64 {
        let cos = zenith_cos * self.cos_beta
            + zenith_sin * self.sin_beta * (azimuth_rad - self.gamma).cos();
        cos.max(0.0)
    }

    /// [`PvSystem::transpose`] from the angle-of-incidence cosine, the
    /// clamped zenith cosine and the day's extraterrestrial normal
    /// irradiance.
    fn transpose(
        &self,
        ghi: f64,
        dni: f64,
        dhi: f64,
        cos_aoi: f64,
        cos_z: f64,
        ext: f64,
    ) -> PoaIrradiance {
        let beam = dni * cos_aoi;
        let ground = ghi * self.albedo * (1.0 - self.cos_beta) / 2.0;

        let sky_diffuse = match self.transposition {
            TranspositionModel::Isotropic => dhi * (1.0 + self.cos_beta) / 2.0,
            TranspositionModel::Hdkr => {
                // Anisotropy index: beam transmittance of the atmosphere.
                let ai = if ext > 1.0 {
                    (dni / ext).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let rb = if cos_z > 0.017 { cos_aoi / cos_z } else { 0.0 };
                // Horizon-brightening modulation (Reindl).
                let f = if ghi > 0.0 {
                    (beam.max(0.0) / ghi).sqrt().min(1.0)
                } else {
                    0.0
                };
                let iso = dhi * (1.0 - ai) * (1.0 + self.cos_beta) / 2.0
                    * (1.0 + f * (self.beta / 2.0).sin().powi(3));
                let circumsolar = dhi * ai * rb;
                (iso + circumsolar).max(0.0)
            }
        };
        PoaIrradiance {
            beam,
            sky_diffuse,
            ground,
        }
    }
}

impl GenerationModel for PvSystem {
    /// Reads the sun's position from [`SolarGeometry::shared`].
    ///
    /// # Panics
    /// Panics if the weather holds more than one year of steps.
    fn simulate(&self, weather: &WeatherYear) -> TimeSeries {
        let step = weather.step();
        let n = weather.len();
        let geometry = SolarGeometry::shared(&weather.location, step);
        assert!(n <= geometry.len(), "PVWatts simulates at most one year");
        let plane = self.plane();
        let mut values = Vec::with_capacity(n);
        // Turbine-height wind is irrelevant here; PV arrays sit near the
        // ground, so shear the reference wind down to 2 m.
        let wind_scale = (2.0f64 / weather.wind_ref_height_m).powf(weather.wind_shear_exponent);
        for i in 0..n {
            let cos_aoi = plane.cos_aoi(
                geometry.zenith_cos(i),
                geometry.zenith_sin(i),
                geometry.azimuth_rad(i),
            );
            let poa = plane.transpose(
                weather.ghi.values()[i],
                weather.dni.values()[i],
                weather.dhi.values()[i],
                cos_aoi,
                geometry.cos_zenith(i),
                geometry.extraterrestrial_normal_w_m2(i),
            );
            let wind = weather.wind_speed_ms.values()[i] * wind_scale;
            let t_cell = self.cell_temperature_c(poa.total(), weather.temp_air_c.values()[i], wind);
            let dc = self.dc_power_kw(poa.total(), t_cell);
            values.push(self.ac_power_kw(dc));
        }
        TimeSeries::new(step, values)
    }

    fn rated_kw(&self) -> f64 {
        // Report against DC nameplate, matching how the paper sizes the
        // farm ("rated capacities from 0 MW to 40 MW").
        self.params.capacity_dc_kw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_units::{SimDuration, SimTime};
    use mgopt_weather::solar_pos::sun_position;
    use mgopt_weather::{Climate, WeatherGenerator};

    fn berkeley_weather() -> WeatherYear {
        WeatherGenerator::new(Climate::berkeley(), 42).generate(SimDuration::from_hours(1.0))
    }

    fn system() -> PvSystem {
        PvSystem::with_capacity_kw(4_000.0, 37.87)
    }

    #[test]
    fn night_produces_zero() {
        let w = berkeley_weather();
        let ts = system().simulate(&w);
        for day in (0..365).step_by(53) {
            assert_eq!(ts.values()[day * 24 + 2], 0.0, "day {day} 02:00");
        }
    }

    #[test]
    fn capacity_factor_in_utility_band() {
        let w = berkeley_weather();
        let cf = system().capacity_factor(&w);
        // Fixed-tilt coastal California: ~0.18-0.26 DC capacity factor.
        assert!((0.15..0.30).contains(&cf), "berkeley PV CF {cf}");
    }

    #[test]
    fn berkeley_beats_houston_solar() {
        let wb = berkeley_weather();
        let wh =
            WeatherGenerator::new(Climate::houston(), 42).generate(SimDuration::from_hours(1.0));
        let sys_b = PvSystem::with_capacity_kw(4_000.0, wb.location.latitude_deg);
        let sys_h = PvSystem::with_capacity_kw(4_000.0, wh.location.latitude_deg);
        let cfb = sys_b.capacity_factor(&wb);
        let cfh = sys_h.capacity_factor(&wh);
        assert!(cfb > cfh, "berkeley {cfb} should beat houston {cfh}");
    }

    #[test]
    fn output_scales_linearly_with_capacity() {
        let w = berkeley_weather();
        let small = PvSystem::with_capacity_kw(1_000.0, 37.87).simulate(&w);
        let large = PvSystem::with_capacity_kw(4_000.0, 37.87).simulate(&w);
        // Inverter clipping is ratio-preserving here since dc_ac_ratio is
        // identical; allow small tolerance.
        let ratio = large.energy_kwh() / small.energy_kwh();
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn ac_never_exceeds_inverter_rating() {
        let w = berkeley_weather();
        let sys = system();
        let ts = sys.simulate(&w);
        let pac0 = 4_000.0 / 1.2 * 0.96;
        for &v in ts.values() {
            assert!(v <= pac0 + 1e-9, "{v} exceeds inverter rating {pac0}");
        }
    }

    #[test]
    fn hot_cells_lose_power() {
        let sys = system();
        let cool = sys.dc_power_kw(800.0, 25.0);
        let hot = sys.dc_power_kw(800.0, 60.0);
        assert!(hot < cool);
        let expected = cool * (1.0 - 0.0047 * 35.0);
        assert!((hot - expected).abs() < 1e-9);
    }

    #[test]
    fn cell_temperature_above_ambient_in_sun() {
        let sys = system();
        let t = sys.cell_temperature_c(800.0, 20.0, 1.0);
        assert!(t > 40.0 && t < 55.0, "cell temp {t}");
        // Stronger wind cools the module.
        let windy = sys.cell_temperature_c(800.0, 20.0, 8.0);
        assert!(windy < t);
        // No sun: cell = ambient.
        assert_eq!(sys.cell_temperature_c(0.0, 20.0, 1.0), 20.0);
    }

    #[test]
    fn transposition_gains_on_tilted_array_in_winter() {
        // At noon in winter, a latitude-tilted array sees more irradiance
        // than the horizontal GHI.
        let w = berkeley_weather();
        let sys = system();
        let t = SimTime::from_secs(354 * 86_400 + 12 * 3_600);
        let i = 354 * 24 + 12;
        let pos = sun_position(&w.location, t);
        if w.ghi.values()[i] > 300.0 {
            let poa = sys.transpose(
                w.ghi.values()[i],
                w.dni.values()[i],
                w.dhi.values()[i],
                &pos,
                354,
            );
            assert!(poa.total() > w.ghi.values()[i]);
        }
    }

    #[test]
    fn simulate_equals_the_per_step_sun_position_chain_bitwise() {
        // `simulate` reads the shared geometry table; the public per-step
        // API recomputes the sun position. Both must give the same bits,
        // under either transposition model.
        let w = berkeley_weather();
        let wind_scale = (2.0f64 / w.wind_ref_height_m).powf(w.wind_shear_exponent);
        for transposition in [TranspositionModel::Isotropic, TranspositionModel::Hdkr] {
            let sys = PvSystem::new(PvSystemParams {
                transposition,
                ..PvSystemParams::defaults(1_000.0, 37.87)
            });
            let ts = sys.simulate(&w);
            for i in 0..w.len() {
                let t = SimTime::from_secs(i as i64 * 3_600);
                let poa = sys.transpose(
                    w.ghi.values()[i],
                    w.dni.values()[i],
                    w.dhi.values()[i],
                    &sun_position(&w.location, t),
                    t.calendar().day_of_year,
                );
                let wind = w.wind_speed_ms.values()[i] * wind_scale;
                let t_cell = sys.cell_temperature_c(poa.total(), w.temp_air_c.values()[i], wind);
                let want = sys.ac_power_kw(sys.dc_power_kw(poa.total(), t_cell));
                assert_eq!(
                    ts.values()[i].to_bits(),
                    want.to_bits(),
                    "{transposition:?}, step {i}"
                );
            }
        }
    }

    #[test]
    fn hdkr_at_least_isotropic_under_clear_sky() {
        let mut params = PvSystemParams::defaults(1_000.0, 37.87);
        let iso_sys = PvSystem::new(params.clone());
        params.transposition = TranspositionModel::Hdkr;
        let hdkr_sys = PvSystem::new(params);
        let w = berkeley_weather();
        // Compare annual energy: HDKR redistributes diffuse toward the sun,
        // typically a small gain for equator-facing fixed tilt.
        let e_iso = iso_sys.simulate(&w).energy_kwh();
        let e_hdkr = hdkr_sys.simulate(&w).energy_kwh();
        let gain = e_hdkr / e_iso;
        assert!((0.98..1.10).contains(&gain), "HDKR/iso gain {gain}");
    }

    #[test]
    fn inverter_part_load_efficiency_shape() {
        let sys = system();
        // Efficiency at 10% load below efficiency at full load.
        let eta_low = sys.ac_power_kw(400.0) / 400.0;
        let eta_full = sys.ac_power_kw(3_300.0) / 3_300.0;
        assert!(eta_low < eta_full, "low {eta_low} full {eta_full}");
        assert!(eta_full <= 0.97);
    }

    #[test]
    fn poa_components_nonnegative() {
        let w = berkeley_weather();
        let sys = system();
        for i in (0..w.len()).step_by(123) {
            let t = SimTime::from_secs(i as i64 * 3_600);
            let pos = sun_position(&w.location, t);
            let poa = sys.transpose(
                w.ghi.values()[i],
                w.dni.values()[i],
                w.dhi.values()[i],
                &pos,
                t.calendar().day_of_year,
            );
            assert!(poa.beam >= 0.0 && poa.sky_diffuse >= 0.0 && poa.ground >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        PvSystem::with_capacity_kw(0.0, 37.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn dc_power_nonnegative_bounded(
            poa in 0.0f64..1_400.0,
            t_cell in -20.0f64..90.0,
        ) {
            let sys = PvSystem::with_capacity_kw(1_000.0, 35.0);
            let p = sys.dc_power_kw(poa, t_cell);
            prop_assert!(p >= 0.0);
            prop_assert!(p <= 1_000.0 * 1.4 * 1.35); // POA overload + cold boost
        }

        #[test]
        fn ac_monotone_in_dc(d1 in 0.0f64..4_000.0, d2 in 0.0f64..4_000.0) {
            let sys = PvSystem::with_capacity_kw(4_000.0, 35.0);
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(sys.ac_power_kw(lo) <= sys.ac_power_kw(hi) + 1e-9);
        }
    }
}
