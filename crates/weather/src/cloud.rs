//! Stochastic clear-sky-index synthesis.
//!
//! All-sky GHI is modeled as `clear-sky GHI × kci`, where the clear-sky
//! index `kci` follows a two-state (clear / cloudy) Markov regime process
//! with autocorrelated within-regime fluctuations. The regime structure
//! produces the multi-day overcast spells that dominate storage sizing —
//! something a plain AR(1) on kci would miss.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

use crate::climate::SolarClimate;
use crate::math::Ar1;

/// Sky regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkyRegime {
    /// Mostly clear sky.
    Clear,
    /// Overcast / broken clouds.
    Cloudy,
}

/// The cloud stream of weather seed `seed`. Each hour draws one uniform
/// (the regime switch) and then one standard normal (the fluctuation),
/// whatever the climate: see [`draw_hour`].
pub(crate) fn stream(seed: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed ^ 0x5eed_c10d)
}

/// One hour's draws from the cloud stream: `(uniform, normal)`.
pub(crate) fn draw_hour(rng: &mut ChaCha12Rng) -> (f64, f64) {
    let u: f64 = rng.gen();
    (u, sample_standard_normal(rng))
}

/// Hour-resolution clear-sky-index state of one climate. It draws
/// nothing: each [`step_hour`](Self::step_hour) takes that hour's draws.
#[derive(Debug)]
pub struct CloudGenerator {
    climate: SolarClimate,
    regime: SkyRegime,
    fluctuation: Ar1,
}

impl CloudGenerator {
    /// Create a generator in the clear regime.
    pub fn new(climate: SolarClimate) -> Self {
        let rho = Ar1::rho_for_decorrelation_steps(climate.kci_decorrelation_h.max(0.5));
        Self {
            climate,
            regime: SkyRegime::Clear,
            fluctuation: Ar1::new(rho),
        }
    }

    /// Current regime.
    pub fn regime(&self) -> SkyRegime {
        self.regime
    }

    /// Advance one hour in the given month, on the hour's uniform `u` and
    /// normal `eps` (`draw_hour`), and return the clear-sky index.
    pub fn step_hour(&mut self, month: usize, u: f64, eps: f64) -> f64 {
        debug_assert!(month < 12);
        let pi_cloudy = self.climate.monthly_cloudy_prob[month].clamp(0.001, 0.999);
        // Two-state Markov chain: mean cloudy sojourn tau hours gives
        // stay-probability b; the clear-side stay-probability a follows from
        // requiring the stationary cloudy fraction to equal pi_cloudy:
        //   (1 - a) / ((1 - a) + (1 - b)) = pi  =>  1 - a = pi/(1-pi) (1 - b)
        let tau = self.climate.cloudy_persistence_h.max(1.0);
        let b = 1.0 - 1.0 / tau;
        let leave_clear = (pi_cloudy / (1.0 - pi_cloudy) * (1.0 - b)).clamp(0.0, 1.0);
        self.regime = match self.regime {
            SkyRegime::Clear if u < leave_clear => SkyRegime::Cloudy,
            SkyRegime::Cloudy if u < 1.0 - b => SkyRegime::Clear,
            r => r,
        };

        let g = self.fluctuation.step(eps);
        let (mean, std) = match self.regime {
            SkyRegime::Clear => (self.climate.clear_kci_mean, self.climate.clear_kci_std),
            SkyRegime::Cloudy => (self.climate.cloudy_kci_mean, self.climate.cloudy_kci_std),
        };
        (mean + std * g).clamp(0.03, 1.05)
    }
}

/// A full 8,760-hour year of clear-sky indices for each climate, in
/// order, under weather seed `seed`: the cloud stream draws each hour
/// once and every climate steps on the same draws.
pub(crate) fn generate_years(climates: &[&SolarClimate], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = stream(seed);
    let mut generators: Vec<CloudGenerator> = climates
        .iter()
        .map(|&c| CloudGenerator::new(c.clone()))
        .collect();
    let mut years: Vec<Vec<f64>> = climates.iter().map(|_| Vec::with_capacity(8_760)).collect();
    for day in 0..365u32 {
        let month = mgopt_units::time::month_of_day(day) as usize;
        for _ in 0..24 {
            let (u, eps) = draw_hour(&mut rng);
            for (generator, year) in generators.iter_mut().zip(&mut years) {
                year.push(generator.step_hour(month, u, eps));
            }
        }
    }
    years
}

/// Box-Muller standard normal sample.
pub(crate) fn sample_standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::climate::Climate;

    fn gen_year(seed: u64, climate: &SolarClimate) -> Vec<f64> {
        generate_years(&[climate], seed).remove(0)
    }

    #[test]
    fn year_has_8760_hours_in_bounds() {
        let kci = gen_year(1, &Climate::berkeley().solar);
        assert_eq!(kci.len(), 8_760);
        for &k in &kci {
            assert!((0.03..=1.05).contains(&k));
        }
    }

    #[test]
    fn a_group_steps_every_climate_on_the_same_draws() {
        let (h, b) = (Climate::houston().solar, Climate::berkeley().solar);
        let group = generate_years(&[&b, &h, &b], 5);
        assert_eq!(
            group,
            vec![gen_year(5, &b), gen_year(5, &h), gen_year(5, &b)]
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let c = Climate::houston().solar;
        assert_eq!(gen_year(7, &c), gen_year(7, &c));
        assert_ne!(gen_year(7, &c), gen_year(8, &c));
    }

    #[test]
    fn cloudy_fraction_tracks_climatology() {
        // July (days 181..212) in Berkeley is nearly cloud-free; January is not.
        let c = Climate::berkeley().solar;
        let kci = gen_year(42, &c);
        let frac_low = |lo: usize, hi: usize| {
            let window = &kci[lo * 24..hi * 24];
            window.iter().filter(|&&k| k < 0.6).count() as f64 / window.len() as f64
        };
        let january = frac_low(0, 31);
        let july = frac_low(181, 212);
        assert!(july < january, "july {july} >= january {january}");
        assert!(july < 0.22, "july cloudy fraction {july}");
        assert!(january > 0.25, "january cloudy fraction {january}");
    }

    #[test]
    fn berkeley_brighter_than_houston_on_average() {
        let b: f64 = gen_year(3, &Climate::berkeley().solar).iter().sum::<f64>() / 8_760.0;
        let h: f64 = gen_year(3, &Climate::houston().solar).iter().sum::<f64>() / 8_760.0;
        assert!(b > h, "berkeley mean kci {b} <= houston {h}");
    }

    #[test]
    fn regimes_persist_for_hours() {
        // Mean sojourn should be well above 1 hour: count regime flips.
        let mut g = CloudGenerator::new(Climate::houston().solar);
        let mut rng = stream(11);
        let mut flips = 0;
        let mut last = g.regime();
        for _ in 0..8_760 {
            let (u, eps) = draw_hour(&mut rng);
            g.step_hour(5, u, eps);
            if g.regime() != last {
                flips += 1;
                last = g.regime();
            }
        }
        let mean_sojourn = 8_760.0 / flips.max(1) as f64;
        assert!(mean_sojourn > 4.0, "mean sojourn {mean_sojourn} h");
    }

    #[test]
    fn multi_day_overcast_spells_exist() {
        // Berkeley winters should contain at least one >=18h continuous
        // low-kci spell (these drive battery sizing).
        let kci = gen_year(123, &Climate::berkeley().solar);
        let winter = &kci[0..90 * 24];
        let mut longest = 0usize;
        let mut run = 0usize;
        for &k in winter {
            if k < 0.6 {
                run += 1;
                longest = longest.max(run);
            } else {
                run = 0;
            }
        }
        assert!(longest >= 18, "longest overcast spell only {longest} h");
    }
}
