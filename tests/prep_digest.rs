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
//!
//! The 300-minute entries drift the time of day by five hours per step
//! (a day is not a whole number of steps), and the 5-minute ones have 288
//! steps per day; both were recorded before the weather generators read
//! per-day and per-slot tables. The Berkeley 300-minute entry was
//! re-recorded on purpose when CAISO's carbon intensity started coupling
//! to solar yield by calendar day instead of by 20-hour windows; every
//! other entry kept its bits through that change. A second test pins the fleet paths:
//! every member of `FleetScenario::prepare` and `prepare_shared` must
//! equal its own `ScenarioConfig::prepare()`, whether or not members share
//! a seed (and so one pass of random draws) or a load trace.

use microgrid_opt::core::FleetMember;
use microgrid_opt::prelude::*;

/// `(site, step_minutes, seed, digest)` of `ScenarioConfig::prepare()`.
const DIGESTS: [(SitePreset, u32, u64, u64); 16] = [
    (SitePreset::Houston, 60, 0, 0x8f6f_8d5a_3499_c0ee),
    (SitePreset::Houston, 60, 42, 0x5bfc_c453_43d6_9d94),
    (SitePreset::Houston, 60, 777, 0x1952_1b0a_1102_16a3),
    (SitePreset::Houston, 15, 0, 0x928f_cdd0_f3fe_7e98),
    (SitePreset::Houston, 15, 42, 0x5c7e_a45a_25f6_da98),
    (SitePreset::Houston, 15, 777, 0x5fae_8329_7481_2a88),
    (SitePreset::Houston, 300, 42, 0xc410_502d_2038_574b),
    (SitePreset::Houston, 5, 42, 0x82f8_e732_0555_857f),
    (SitePreset::Berkeley, 60, 0, 0x5f2f_51cb_3525_f275),
    (SitePreset::Berkeley, 60, 42, 0x7a9e_a701_de6e_a0e8),
    (SitePreset::Berkeley, 60, 777, 0xeba5_ac2c_daff_05a4),
    (SitePreset::Berkeley, 15, 0, 0xac6c_02e7_9224_d779),
    (SitePreset::Berkeley, 15, 42, 0x70d8_04c2_c328_9150),
    (SitePreset::Berkeley, 15, 777, 0x9189_5196_0da2_94f2),
    (SitePreset::Berkeley, 300, 42, 0xb03a_ee9b_b22e_3cf6),
    (SitePreset::Berkeley, 5, 42, 0xcd26_e8ca_d9e0_e20e),
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

fn member_at(
    step_minutes: u32,
    site: SitePreset,
    seed: u64,
    workload: &WorkloadConfig,
) -> FleetMember {
    FleetMember {
        name: format!("{site:?}/{step_minutes}/{seed}/{workload:?}"),
        scenario: ScenarioConfig {
            workload: workload.clone(),
            ..config(site, step_minutes, seed)
        },
    }
}

fn member(site: SitePreset, seed: u64, workload: &WorkloadConfig) -> FleetMember {
    member_at(60, site, seed, workload)
}

/// Members that share a seed are prepared in one pass that makes each
/// random draw once for all of them, so every fleet below must still give
/// each member exactly its own preparation: a draw applied to the wrong
/// member, or a state shared between members, changes a digest.
#[test]
fn fleet_members_equal_their_own_preparation() {
    let hpc = WorkloadConfig::PerlmutterLike { mean_kw: 1_620.0 };
    let flat = WorkloadConfig::Constant { kw: 900.0 };
    let paper_at = |step| FleetScenario {
        members: vec![
            member_at(step, SitePreset::Houston, 42, &hpc),
            member_at(step, SitePreset::Berkeley, 42, &hpc),
        ],
    };
    let fleets = [
        ("paper fleet (shared workload, step and seed)", paper_at(60)),
        ("paper fleet at 5 min", paper_at(5)),
        ("paper fleet at 300 min", paper_at(300)),
        (
            "different seeds, the last two shared",
            FleetScenario {
                members: vec![
                    member(SitePreset::Houston, 7, &hpc),
                    member(SitePreset::Berkeley, 8, &hpc),
                    member(SitePreset::Houston, 8, &hpc),
                ],
            },
        ),
        (
            "the first and last share a seed, the middle does not",
            FleetScenario {
                members: vec![
                    member(SitePreset::Berkeley, 3, &hpc),
                    member(SitePreset::Houston, 4, &hpc),
                    member(SitePreset::Houston, 3, &hpc),
                ],
            },
        ),
        (
            "different workloads",
            FleetScenario {
                members: vec![
                    member(SitePreset::Houston, 42, &flat),
                    member(SitePreset::Berkeley, 42, &hpc),
                    member(SitePreset::Berkeley, 42, &flat),
                ],
            },
        ),
        (
            "one site listed twice",
            FleetScenario {
                members: vec![
                    member(SitePreset::Berkeley, 42, &hpc),
                    member(SitePreset::Houston, 42, &hpc),
                    member(SitePreset::Berkeley, 42, &hpc),
                ],
            },
        ),
    ];
    let mut failures = Vec::new();
    let mut check = |label: &str, path: &str, fleet: &PreparedFleet, scenario: &FleetScenario| {
        assert_eq!(fleet.members.len(), scenario.members.len());
        for (prepared, m) in fleet.members.iter().zip(&scenario.members) {
            let own = digest(&m.scenario.prepare());
            let got = digest(prepared);
            if got != own {
                failures.push(format!(
                    "{label}, {path}, member {}: {got:#018x}, own prepare() {own:#018x}",
                    m.name
                ));
            }
        }
    };
    for (label, scenario) in &fleets {
        check(label, "prepare", &scenario.prepare(), scenario);
        let (shared, stats) = scenario.prepare_shared(&PreparedCache::new(8));
        let distinct = scenario
            .members
            .iter()
            .enumerate()
            .filter(|(k, m)| {
                scenario.members[..*k]
                    .iter()
                    .all(|earlier| earlier.scenario != m.scenario)
            })
            .count();
        assert_eq!(stats.misses as usize, distinct, "{label}");
        check(label, "prepare_shared", &shared, scenario);
    }
    // One member already cached: the other shares its (workload, step,
    // seed) but must still get its own load.
    let (paper_label, paper) = &fleets[0];
    let cache = PreparedCache::new(8);
    let _ = cache.get_or_prepare(&paper.members[1].scenario);
    let (warm, stats) = paper.prepare_shared(&cache);
    assert_eq!((stats.hits, stats.misses), (1, 1));
    check(
        paper_label,
        "prepare_shared, second member cached",
        &warm,
        paper,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Berkeley's carbon intensity is coupled to its solar yield by calendar
/// day: divided by the uncoupled CAISO series, it is one factor per day
/// (the day each step starts in) wherever the 20-g floor does not bind,
/// also at steps that do not divide a day.
#[test]
fn caiso_coupling_takes_one_factor_per_calendar_day() {
    use microgrid_opt::gridcarbon::{CarbonIntensityModel, GridRegion};
    for step_minutes in [60usize, 300, 600, 900, 1200] {
        let step = SimDuration::from_minutes(step_minutes as f64);
        let coupled = Site::berkeley().prepare(step, 42).ci_g_per_kwh;
        let uncoupled = CarbonIntensityModel::for_region(GridRegion::Caiso).generate(step, 42);
        let mut day_factor: Vec<Option<f64>> = vec![None; 365];
        for (k, (&c, &u)) in coupled.values().iter().zip(uncoupled.values()).enumerate() {
            if c <= 20.0 {
                continue;
            }
            let day = k * step_minutes / 1_440;
            let factor = c / u;
            let first = *day_factor[day].get_or_insert(factor);
            assert!(
                (factor - first).abs() <= 1e-12 * first,
                "{step_minutes}-minute step {k} on day {day}: factor {factor} against {first}"
            );
        }
        let factors: Vec<f64> = day_factor.into_iter().flatten().collect();
        assert!(
            factors.len() > 300,
            "{step_minutes} min: {} days",
            factors.len()
        );
        assert!(
            factors.windows(2).filter(|w| w[0] != w[1]).count() > 300,
            "{step_minutes} min: the factor should move from day to day"
        );
    }
}
