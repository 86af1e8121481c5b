//! Prepared inputs, pinned bit for bit across commits.
//!
//! The golden wire fixtures carry synthetic fronts and the calibration
//! tests compare with tolerances, so neither notices a preparation that
//! drifts by one ULP. This test hashes every series `prepare()` produces —
//! the five weather series, both unit generation profiles, carbon
//! intensity, price and load — with FNV-1a over each value's `to_bits()`,
//! and compares the digest with a constant recorded before any
//! optimization of the preparation chain. A change to the synthesis must
//! either leave every bit in place or update these constants on purpose.

use microgrid_opt::prelude::*;

/// `(site, step_minutes, seed, digest)` of `ScenarioConfig::prepare()`.
const DIGESTS: [(SitePreset, u32, u64, u64); 12] = [
    (SitePreset::Houston, 60, 0, 0x8f6f_8d5a_3499_c0ee),
    (SitePreset::Houston, 60, 42, 0x5bfc_c453_43d6_9d94),
    (SitePreset::Houston, 60, 777, 0x1952_1b0a_1102_16a3),
    (SitePreset::Houston, 15, 0, 0x928f_cdd0_f3fe_7e98),
    (SitePreset::Houston, 15, 42, 0x5c7e_a45a_25f6_da98),
    (SitePreset::Houston, 15, 777, 0x5fae_8329_7481_2a88),
    (SitePreset::Berkeley, 60, 0, 0x5f2f_51cb_3525_f275),
    (SitePreset::Berkeley, 60, 42, 0x7a9e_a701_de6e_a0e8),
    (SitePreset::Berkeley, 60, 777, 0xeba5_ac2c_daff_05a4),
    (SitePreset::Berkeley, 15, 0, 0xac6c_02e7_9224_d779),
    (SitePreset::Berkeley, 15, 42, 0x70d8_04c2_c328_9150),
    (SitePreset::Berkeley, 15, 777, 0x9189_5196_0da2_94f2),
];

fn config(site: SitePreset, step_minutes: u32, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        site,
        step_minutes,
        seed,
        space: CompositionSpace::tiny(),
        ..ScenarioConfig::paper_houston()
    }
}

/// FNV-1a over the little-endian bits of every value of every series.
fn digest(p: &PreparedScenario) -> u64 {
    let d = &p.data;
    let w = &d.weather;
    let series = [
        &w.ghi,
        &w.dni,
        &w.dhi,
        &w.temp_air_c,
        &w.wind_speed_ms,
        &d.pv_unit_kw,
        &d.wind_unit_kw,
        &d.ci_g_per_kwh,
        &d.price_usd_per_mwh,
        &p.load,
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in series {
        for v in s.values() {
            for b in v.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn prepared_inputs_match_the_recorded_digests() {
    let cache = PreparedCache::new(DIGESTS.len());
    let mut failures = Vec::new();
    for (site, step, seed, want) in DIGESTS {
        let cfg = config(site, step, seed);
        let direct = digest(&cfg.prepare());
        let (cached, hit) = cache.get_or_prepare(&cfg);
        assert!(
            !hit,
            "each configuration is prepared once through the cache"
        );
        let via_cache = digest(&cached);
        if direct != want || via_cache != want {
            failures.push(format!(
                "{site:?} step {step} seed {seed}: prepare {direct:#018x}, \
                 cache {via_cache:#018x}, recorded {want:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
