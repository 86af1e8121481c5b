//! Fleet-engine agreement: the multi-site pass must tell the same story
//! as (a) independent single-site batch runs — bit-for-bit — (b) itself
//! at the other lane width, bit-for-bit, and (c) the cosim `Environment`
//! oracle with hand-rolled fleet accounting (the pre-`FleetEvaluator` way
//! to run geo-distributed studies), to ≤1e-9 relative.

use std::sync::OnceLock;

use microgrid_opt::cosim::Environment;
use microgrid_opt::microgrid::{build_cosim_microgrid, FleetMetrics};
use microgrid_opt::prelude::*;
use microgrid_opt::units::{rel_close, rel_error};
use proptest::prelude::*;

fn paper_fleet() -> &'static PreparedFleet {
    static F: OnceLock<PreparedFleet> = OnceLock::new();
    F.get_or_init(|| FleetScenario::paper().prepare())
}

fn arbitrary_composition() -> impl Strategy<Value = Composition> {
    // The paper grid: wind 0-10 turbines, solar 0-40 MW, battery 0-60 MWh.
    (0u32..=10, 0usize..=10, 0usize..=8)
        .prop_map(|(w, s, b)| Composition::new(w, s as f64 * 4_000.0, b as f64 * 7_500.0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-site fleet results are identical (not merely close) to running
    /// the single-site batch engine on each paper site independently,
    /// over full years and partial-period windows.
    #[test]
    fn fleet_per_site_results_equal_independent_batch_runs(
        houston_comp in arbitrary_composition(),
        berkeley_comp in arbitrary_composition(),
        n_steps in prop::sample::select(vec![1usize, 24, 168, 1_095, 4_380, 8_760]),
    ) {
        let fleet = paper_fleet();
        let evaluator = fleet.evaluator();
        let plan = vec![houston_comp, berkeley_comp];

        let result = evaluator
            .evaluate_plans_period(std::slice::from_ref(&plan), n_steps)
            .pop()
            .unwrap();
        for (s, member) in fleet.members.iter().enumerate() {
            let independent = BatchEvaluator::new(&member.data, &member.load, &member.config.sim)
                .evaluate_batch_period(std::slice::from_ref(&plan[s]), n_steps)
                .pop()
                .unwrap();
            prop_assert_eq!(
                &result.per_site[s].metrics,
                &independent.metrics,
                "site {} (n_steps={}) diverged from the single-site batch engine",
                fleet.names[s],
                n_steps
            );
        }

        // Fleet aggregates are exactly the per-site sums.
        let op_sum: f64 = result.per_site.iter().map(|r| r.metrics.operational_t_per_day).sum();
        prop_assert_eq!(result.fleet.operational_t_per_day, op_sum);
        let em_sum: f64 = result.per_site.iter().map(|r| r.metrics.embodied_t).sum();
        prop_assert_eq!(result.fleet.embodied_t, em_sum);
    }
}

fn arbitrary_policy() -> impl Strategy<Value = DispatchPolicy> {
    prop::sample::select(vec![
        DispatchPolicy::SelfConsumption,
        DispatchPolicy::Islanded,
        DispatchPolicy::CarbonAwareGridCharge {
            ci_threshold_g_per_kwh: 330.0,
            target_soc: 0.9,
        },
        DispatchPolicy::BatterySparing {
            deficit_threshold_kw: 2_000.0,
        },
    ])
}

/// Every number a fleet result reports, as bits: per-site metrics, then
/// the fleet aggregates (exhaustive destructuring, so a new aggregate
/// cannot drop out of the comparison).
fn fleet_bits(r: &FleetResult) -> Vec<u64> {
    let FleetMetrics {
        operational_t_per_day,
        operational_t_per_year,
        embodied_t,
        peak_concurrent_import_kw,
        site_import_mwh,
        grid_import_mwh,
        energy_cost_usd,
    } = &r.fleet;
    r.per_site
        .iter()
        .flat_map(|s| s.metrics.fields().map(|(_, v)| v))
        .chain([
            *operational_t_per_day,
            *operational_t_per_year,
            *embodied_t,
            *grid_import_mwh,
            *energy_cost_usd,
        ])
        .chain(site_import_mwh.iter().copied())
        .map(f64::to_bits)
        .chain([peak_concurrent_import_kw.map_or(u64::MAX, f64::to_bits)])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The fleet engine at lane width 4 is bit-identical to the same walk
    /// at width 1 on every per-site metric and every fleet aggregate, the
    /// concurrent peak included: every cohort size around the lane width
    /// (4) and the chunk size (64), mixed policies per site, peak
    /// tracking on and off.
    #[test]
    fn fleet_lane_widths_are_bit_identical(
        plans in prop::collection::vec(prop::collection::vec(arbitrary_composition(), 2), 129),
        policies in prop::collection::vec(arbitrary_policy(), 2),
        // Windows inside one step block, across several, and ending
        // mid-block; full years are pinned per site above.
        n_steps in prop::sample::select(vec![1usize, 24, 168, 1_095]),
    ) {
        let fleet = paper_fleet();
        let cfgs: Vec<SimConfig> = fleet
            .members
            .iter()
            .zip(&policies)
            .map(|(m, &policy)| SimConfig { policy, ..m.config.sim.clone() })
            .collect();
        let sites: Vec<FleetSite> = fleet
            .members
            .iter()
            .zip(&fleet.names)
            .zip(&cfgs)
            .map(|((m, name), cfg)| FleetSite { name, data: &m.data, load: &m.load, cfg })
            .collect();
        for size in [1usize, 3, 4, 5, 63, 64, 65, 129] {
            for track_peak in [false, true] {
                let run = |backend| {
                    FleetEvaluator::new(sites.clone())
                        .with_peak_tracking(track_peak)
                        .with_backend(backend)
                        .evaluate_plans_period(&plans[..size], n_steps)
                };
                let (one, four) = (run(BatchBackend::Scalar), run(BatchBackend::Simd));
                prop_assert_eq!(one.len(), size);
                for (p, (a, b)) in one.iter().zip(&four).enumerate() {
                    prop_assert_eq!(a.plan(), b.plan());
                    prop_assert_eq!(
                        fleet_bits(a),
                        fleet_bits(b),
                        "size={} peak={} n={} plan {} {:?}",
                        size, track_peak, n_steps, p, policies
                    );
                }
            }
        }
    }
}

/// The full-year fleet account of `examples/geo_distributed.rs`, pinned to
/// the cosim `Environment` run at ≤1e-9 relative: per-site import MWh,
/// fleet operational tCO2/day, and peak concurrent grid import.
#[test]
fn fleet_totals_agree_with_cosim_environment_oracle() {
    let fleet = paper_fleet();
    let plan = vec![
        Composition::new(4, 0.0, 7_500.0),
        Composition::new(0, 12_000.0, 37_500.0),
    ];
    let result = fleet.evaluator().evaluate(&plan);

    // Each member under its own simulation config — exactly what the
    // fleet evaluator used.
    let mut env = Environment::new();
    for (member, comp) in fleet.members.iter().zip(&plan) {
        env.add_microgrid(
            member.site_name(),
            build_cosim_microgrid(&member.data, &member.load, comp, &member.config.sim),
        );
    }
    let step = fleet.members[0].data.step();
    let ci: Vec<_> = fleet.members.iter().map(|m| &m.data.ci_g_per_kwh).collect();
    let n = fleet.n_sites();
    let mut site_kg = vec![0.0f64; n];
    let mut site_import_mwh = vec![0.0f64; n];
    let mut peak_import_kw = 0.0f64;
    env.run(
        SimTime::START,
        SimDuration::from_days(365),
        step,
        |i, rec| {
            let kwh = rec.grid_import().kw() * rec.dt.hours();
            site_import_mwh[i] += kwh / 1e3;
            site_kg[i] += kwh * ci[i].at(rec.t) / 1e3;
        },
        |f| peak_import_kw = peak_import_kw.max(f.total_import.kw()),
    );

    for (s, name) in fleet.names.iter().enumerate() {
        assert!(
            rel_close(result.fleet.site_import_mwh[s], site_import_mwh[s], 1e-9),
            "{name}: import {} vs cosim {}",
            result.fleet.site_import_mwh[s],
            site_import_mwh[s]
        );
    }
    let cosim_t_day = site_kg.iter().sum::<f64>() / 1e3 / 365.0;
    assert!(
        rel_close(result.fleet.operational_t_per_day, cosim_t_day, 1e-9),
        "fleet op t/day {} vs cosim {} (rel {:e})",
        result.fleet.operational_t_per_day,
        cosim_t_day,
        rel_error(result.fleet.operational_t_per_day, cosim_t_day)
    );
    let peak = result
        .fleet
        .peak_concurrent_import_kw
        .expect("tracked by default");
    assert!(
        rel_close(peak, peak_import_kw, 1e-9),
        "peak concurrent import {peak} vs cosim {peak_import_kw}"
    );
}

/// The fleet sweep's uniform assignment reproduces `sweep_all` per site —
/// the multi-site analogue really is a superset of the single-site sweep.
#[test]
fn uniform_fleet_sweep_embeds_single_site_sweeps() {
    let mut scenario = FleetScenario::paper();
    for m in &mut scenario.members {
        m.scenario.space = CompositionSpace::tiny();
    }
    let fleet = scenario.prepare();
    let results = fleet_sweep(&fleet, FleetAssignment::Uniform);
    assert_eq!(results.len(), 27);
    for (s, member) in fleet.members.iter().enumerate() {
        for (r, x) in results.iter().zip(sweep_all(member)) {
            assert_eq!(r.per_site[s].composition, x.composition);
            assert_eq!(r.per_site[s].metrics, x.metrics, "site {}", fleet.names[s]);
        }
    }
}
