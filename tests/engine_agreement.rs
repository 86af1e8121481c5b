//! Cross-engine agreement: the fast sweep path, the cosim fixed-step bus,
//! the mosaik-style event engine and the batched columnar engine must all
//! tell the same physical story.

use std::sync::OnceLock;

use microgrid_opt::cosim::engine as cosim_engine;
use microgrid_opt::cosim::{EventEngine, MemoryMonitor};
use microgrid_opt::microgrid::{
    build_cosim_microgrid, simulate_batch, simulate_batch_period,
    simulate_batch_period_with_backend, simulate_period, simulate_year_cosim, AnnualMetrics,
    BatchBackend,
};
use microgrid_opt::prelude::*;
use proptest::prelude::*;

fn scenario() -> PreparedScenario {
    ScenarioConfig {
        space: CompositionSpace::tiny(),
        ..ScenarioConfig::paper_houston()
    }
    .prepare()
}

#[test]
fn fast_path_matches_cosim_across_compositions() {
    let s = scenario();
    for comp in [
        Composition::BASELINE,
        Composition::new(2, 0.0, 0.0),
        Composition::new(0, 16_000.0, 22_500.0),
        Composition::new(6, 24_000.0, 60_000.0),
    ] {
        let fast = simulate_year(&s.data, &s.load, &comp, &s.config.sim);
        let cosim = simulate_year_cosim(&s.data, &s.load, &comp, &s.config.sim);
        let (a, b) = (&fast.metrics, &cosim.metrics);
        assert!(
            (a.operational_t_per_day - b.operational_t_per_day).abs() < 1e-9,
            "{comp}: {} vs {}",
            a.operational_t_per_day,
            b.operational_t_per_day
        );
        assert!((a.coverage - b.coverage).abs() < 1e-9, "{comp}");
        assert!(
            (a.grid_export_mwh - b.grid_export_mwh).abs() < 1e-6,
            "{comp}"
        );
        assert!((a.battery_cycles - b.battery_cycles).abs() < 1e-9, "{comp}");
    }
}

#[test]
fn event_engine_matches_fixed_step_on_microgrid() {
    let s = scenario();
    let comp = Composition::new(4, 8_000.0, 22_500.0);
    let dt = s.data.step();
    let horizon = SimDuration::from_days(14);

    let mut fixed_mg = build_cosim_microgrid(&s.data, &s.load, &comp, &s.config.sim);
    let mut fixed_mon = MemoryMonitor::new();
    fixed_mg.run(SimTime::START, horizon, dt, &mut [&mut fixed_mon]);

    let mut event_mg = build_cosim_microgrid(&s.data, &s.load, &comp, &s.config.sim);
    let mut event_mon = MemoryMonitor::new();
    cosim_engine::EventEngine::new(dt).run(
        &mut event_mg,
        SimTime::START,
        horizon,
        &mut [&mut event_mon],
    );

    assert_eq!(fixed_mon.records(), event_mon.records());
}

#[test]
fn event_engine_with_coarse_actor_conserves_energy() {
    // A producer evaluated every 3 h on a 1 h bus: total produced energy
    // equals the step-hold integral of its trace.
    use microgrid_opt::cosim::{Actor, Microgrid, SelfConsumption, SignalActor};
    use microgrid_opt::storage::NullStorage;

    let s = scenario();
    let coarse = SimDuration::from_hours(3.0);
    let pv = s.data.pv_unit_kw.scaled(10_000.0);
    let actors: Vec<Box<dyn Actor>> = vec![Box::new(
        SignalActor::producer("pv", pv.clone()).with_step_size(coarse),
    )];
    let mut mg = Microgrid::new(
        actors,
        Box::new(NullStorage::new()),
        Box::new(SelfConsumption::default()),
    );
    let mut mon = MemoryMonitor::new();
    EventEngine::new(SimDuration::from_hours(1.0)).run(
        &mut mg,
        SimTime::START,
        SimDuration::from_days(30),
        &mut [&mut mon],
    );
    let simulated_kwh: f64 = mon
        .records()
        .iter()
        .map(|r| r.p_production.kw() * r.dt.hours())
        .sum();
    // Expected: the trace held at 3 h cadence.
    let mut expected = 0.0;
    for i in (0..(30 * 24)).step_by(3) {
        expected += pv.at(SimTime::from_hours(i as f64)) * 3.0;
    }
    assert!(
        (simulated_kwh - expected).abs() < 1e-6,
        "{simulated_kwh} vs {expected}"
    );
}

// ---------------------------------------------------------------------
// Three-engine property: scalar, cosim and batch agree on random
// compositions across both paper scenarios, including partial-fidelity
// simulate_period windows (scalar vs batch).
// ---------------------------------------------------------------------

fn houston() -> &'static PreparedScenario {
    static S: OnceLock<PreparedScenario> = OnceLock::new();
    S.get_or_init(|| ScenarioConfig::paper_houston().prepare())
}

fn berkeley() -> &'static PreparedScenario {
    static S: OnceLock<PreparedScenario> = OnceLock::new();
    S.get_or_init(|| ScenarioConfig::paper_berkeley().prepare())
}

fn arbitrary_composition() -> impl Strategy<Value = Composition> {
    // The paper grid: wind 0-10 turbines, solar 0-40 MW, battery 0-60 MWh.
    (0u32..=10, 0usize..=10, 0usize..=8)
        .prop_map(|(w, s, b)| Composition::new(w, s as f64 * 4_000.0, b as f64 * 7_500.0))
}

/// Relative 1e-9 agreement on every metrics field, through the one shared
/// symmetric tolerance definition (`mgopt_units::rel_error` via
/// `AnnualMetrics::max_rel_error`) — the old per-test copies scaled the
/// tolerance by whichever argument came first.
fn assert_all_fields_close(a: &AnnualMetrics, b: &AnnualMetrics, what: &str) {
    let (err, field) = a.max_rel_error(b);
    assert!(err <= 1e-9, "{what}: {field} rel err {err:e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn three_engines_agree_on_random_compositions(comp in arbitrary_composition()) {
        for s in [houston(), berkeley()] {
            let scalar = simulate_year(&s.data, &s.load, &comp, &s.config.sim);
            let batch = simulate_batch(&s.data, &s.load, &[comp], &s.config.sim)
                .pop()
                .unwrap();
            let cosim = simulate_year_cosim(&s.data, &s.load, &comp, &s.config.sim);
            assert_all_fields_close(
                &scalar.metrics,
                &batch.metrics,
                &format!("{} scalar-vs-batch {comp}", s.site_name()),
            );
            // The cosim bus accumulates in a different per-step order, so
            // its agreement bound is the looser pre-existing guarantee.
            prop_assert!(
                (scalar.metrics.operational_t_per_day - cosim.metrics.operational_t_per_day).abs()
                    < 1e-9
            );
            prop_assert!((scalar.metrics.coverage - cosim.metrics.coverage).abs() < 1e-9);
            prop_assert!((scalar.metrics.battery_cycles - cosim.metrics.battery_cycles).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_period_windows_agree_with_scalar(
        comp in arbitrary_composition(),
        n_steps in prop::sample::select(vec![1usize, 24, 168, 1_095, 4_380, 8_760]),
    ) {
        for s in [houston(), berkeley()] {
            let scalar = simulate_period(&s.data, &s.load, &comp, &s.config.sim, n_steps);
            let batch = simulate_batch_period(&s.data, &s.load, &[comp], &s.config.sim, n_steps)
                .pop()
                .unwrap();
            assert_all_fields_close(
                &scalar.metrics,
                &batch.metrics,
                &format!("{} period={n_steps} {comp}", s.site_name()),
            );
        }
    }

    /// The chunk walk at lane width 4 is **bit-identical** to the same
    /// walk at width 1 — not ≤1e-9 — on both paper sites, across partial
    /// windows and batch sizes straddling the lane width (4) and the chunk
    /// size (64): lanes hold different candidates, and padded lanes copy a
    /// real one, so per-candidate arithmetic order never changes.
    #[test]
    fn simd_batch_is_bit_identical_to_scalar_batch(
        comps in prop::collection::vec(arbitrary_composition(), 65),
        size in prop::sample::select(vec![1usize, 3, 4, 5, 63, 64, 65]),
        n_steps in prop::sample::select(vec![1usize, 24, 168, 1_095, 8_760]),
    ) {
        let cohort = &comps[..size];
        for s in [houston(), berkeley()] {
            let scalar = simulate_batch_period_with_backend(
                &s.data, &s.load, cohort, &s.config.sim, n_steps, BatchBackend::Scalar,
            );
            let simd = simulate_batch_period_with_backend(
                &s.data, &s.load, cohort, &s.config.sim, n_steps, BatchBackend::Simd,
            );
            for (a, b) in scalar.iter().zip(&simd) {
                prop_assert_eq!(a.composition, b.composition);
                for ((name, va), (_, vb)) in
                    a.metrics.fields().into_iter().zip(b.metrics.fields())
                {
                    prop_assert_eq!(
                        va.to_bits(),
                        vb.to_bits(),
                        "{} size={} n={} {}: {name} {va:e} vs {vb:e}",
                        s.site_name(), size, n_steps, a.composition,
                    );
                }
            }
        }
    }
}

#[test]
fn batched_tiny_sweep_agrees_with_scalar_engine_on_both_sites() {
    for site in [SitePreset::Houston, SitePreset::Berkeley] {
        let s = ScenarioConfig {
            site,
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
        .prepare();
        let comps: Vec<Composition> = s.config.space.iter().collect();
        let batch = simulate_batch(&s.data, &s.load, &comps, &s.config.sim);
        for (comp, b) in comps.iter().zip(&batch) {
            let scalar = simulate_year(&s.data, &s.load, comp, &s.config.sim);
            assert_all_fields_close(&scalar.metrics, &b.metrics, &format!("{comp}"));
        }
    }
}

#[test]
fn subhourly_and_hourly_agree_on_annual_statistics() {
    // 15-minute and hourly simulation of the same composition should agree
    // on annual energy statistics within a small tolerance (the weather
    // process differs in sampling, both exactly calibrated in the mean).
    let hourly = ScenarioConfig {
        step_minutes: 60,
        space: CompositionSpace::tiny(),
        ..ScenarioConfig::paper_houston()
    }
    .prepare();
    let quarter = ScenarioConfig {
        step_minutes: 15,
        space: CompositionSpace::tiny(),
        ..ScenarioConfig::paper_houston()
    }
    .prepare();

    let comp = Composition::new(4, 8_000.0, 22_500.0);
    let rh = simulate_year(&hourly.data, &hourly.load, &comp, &hourly.config.sim);
    let rq = simulate_year(&quarter.data, &quarter.load, &comp, &quarter.config.sim);

    let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1e-9);
    assert!(
        rel(rh.metrics.coverage, rq.metrics.coverage) < 0.05,
        "coverage {} vs {}",
        rh.metrics.coverage,
        rq.metrics.coverage
    );
    assert!(
        rel(rh.metrics.demand_mwh, rq.metrics.demand_mwh) < 0.01,
        "demand {} vs {}",
        rh.metrics.demand_mwh,
        rq.metrics.demand_mwh
    );
}
