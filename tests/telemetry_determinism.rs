//! The observability layer must be an observer, not a participant: an
//! enabled `MGOPT_TRACE` sink may not perturb search or simulation
//! results (trial histories, fronts and [`AnnualMetrics`] bit-identical
//! with tracing on and off), and the disabled path may not record
//! anything at all — zero events, counters and span aggregates at their
//! startup values.

use std::sync::Mutex;

use microgrid_opt::microgrid::simulate_batch_period;
use microgrid_opt::optimizer::OptimizationResult;
use microgrid_opt::prelude::*;
use microgrid_opt::telemetry::{self, MemorySink};

/// Telemetry state is process-global; serialize the tests that flip it.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// A 3×3×2 space at the paper's Houston site: big enough for real batch
/// chunks and cache hits, small enough for a fast full-year search.
fn tiny_scenario() -> PreparedScenario {
    ScenarioConfig {
        space: CompositionSpace {
            wind_choices: vec![0, 2, 4],
            solar_choices_kw: vec![0.0, 12_000.0, 24_000.0],
            battery_choices_kwh: vec![0.0, 30_000.0],
        },
        ..ScenarioConfig::paper_houston()
    }
    .prepare()
}

fn run_search(scenario: &PreparedScenario) -> OptimizationResult {
    let problem = CompositionProblem::new(scenario, ObjectiveSet::paper());
    Study::new(Sampler::Nsga2(Nsga2Config {
        population_size: 12,
        max_trials: 48,
        seed: 9,
        ..Nsga2Config::default()
    }))
    .optimize(&problem)
}

fn batch_metrics(scenario: &PreparedScenario) -> Vec<microgrid_opt::microgrid::AnnualMetrics> {
    let comps: Vec<Composition> = scenario.config.space.iter().collect();
    simulate_batch(&scenario.data, &scenario.load, &comps, &scenario.config.sim)
        .into_iter()
        .map(|r| r.metrics)
        .collect()
}

#[test]
fn enabled_trace_does_not_perturb_results() {
    let _guard = lock();
    let scenario = tiny_scenario();

    // Baseline: collection off.
    telemetry::set_enabled(false);
    telemetry::reset_stats();
    let off = run_search(&scenario);
    let metrics_off = batch_metrics(&scenario);

    // Identical work traced into a memory sink.
    let (sink, lines) = MemorySink::new();
    telemetry::install_sink(Box::new(sink));
    telemetry::set_enabled(true);
    let on = run_search(&scenario);
    let metrics_on = batch_metrics(&scenario);
    telemetry::set_enabled(false);
    telemetry::take_sink();

    assert_eq!(
        off.history, on.history,
        "enabled trace perturbed the trial history"
    );
    assert_eq!(off.pareto_front(), on.pareto_front());
    assert_eq!(off.unique_evaluations, on.unique_evaluations);
    assert_eq!(
        metrics_off, metrics_on,
        "enabled trace perturbed AnnualMetrics"
    );

    // The traced run must actually have produced a structured trace, and
    // every captured line must parse as a flat JSONL event.
    let captured = lines.lock().unwrap();
    assert!(!captured.is_empty(), "enabled sink captured no events");
    for line in captured.iter() {
        let ev = telemetry::parse::parse_line(line)
            .unwrap_or_else(|e| panic!("captured event does not parse ({e}): {line}"));
        assert!(ev.t_ms >= 0.0);
    }
    for kind in ["\"ev\":\"generation\"", "\"ev\":\"batch_eval\""] {
        assert!(
            captured.iter().any(|l| l.contains(kind)),
            "no {kind} event in the captured trace"
        );
    }
}

#[test]
fn disabled_path_records_nothing() {
    let _guard = lock();
    telemetry::set_enabled(false);
    telemetry::reset_stats();
    let (sink, lines) = MemorySink::new();
    telemetry::install_sink(Box::new(sink));

    let scenario = tiny_scenario();
    let result = run_search(&scenario);
    let _ = batch_metrics(&scenario);
    assert!(!result.history.is_empty());

    telemetry::take_sink();
    assert!(
        lines.lock().unwrap().is_empty(),
        "disabled path emitted events"
    );
    for (name, value) in telemetry::counters() {
        assert_eq!(value, 0, "counter `{name}` advanced while disabled");
    }
    for stage in telemetry::stage_totals() {
        assert_eq!(
            stage.calls, 0,
            "stage `{}` recorded spans while disabled",
            stage.name
        );
        assert_eq!(stage.total_ms, 0.0);
    }
}

/// The 4-lane walk pads a short last lane group with copies of its last
/// candidate: a 5-candidate batch walks 5 real rows and 3 padded rows
/// per step, and the trace's `simd_rows` / `simd_remainder_rows` report
/// exactly that (the fleet engine, per site).
#[test]
fn padded_lane_rows_are_reported_as_remainder_rows() {
    let _guard = lock();
    let scenario = tiny_scenario();
    let comps: Vec<Composition> = scenario.config.space.iter().take(5).collect();
    let n = 48usize;
    let site = |name| FleetSite {
        name,
        data: &scenario.data,
        load: &scenario.load,
        cfg: &scenario.config.sim,
    };
    let fleet = FleetEvaluator::new(vec![site("a"), site("b")]);
    let plans: Vec<Vec<Composition>> = comps.iter().map(|&c| vec![c, c]).collect();

    let (sink, lines) = MemorySink::new();
    telemetry::install_sink(Box::new(sink));
    telemetry::set_enabled(true);
    simulate_batch_period(
        &scenario.data,
        &scenario.load,
        &comps,
        &scenario.config.sim,
        n,
    );
    fleet.evaluate_plans_period(&plans, n);
    telemetry::set_enabled(false);
    telemetry::take_sink();

    let captured = lines.lock().unwrap();
    for (kind, rows) in [("batch_eval", 5 * n), ("fleet_eval", 2 * 5 * n)] {
        let ev = captured
            .iter()
            .map(|l| telemetry::parse::parse_line(l).expect("captured event parses"))
            .find(|ev| ev.kind == kind)
            .unwrap_or_else(|| panic!("no {kind} event"));
        assert_eq!(ev.uint("rows"), Some(rows as u64), "{kind} rows");
        assert_eq!(ev.uint("simd_rows"), Some(rows as u64), "{kind} simd_rows");
        assert_eq!(
            ev.uint("simd_remainder_rows"),
            Some((rows / 5 * 3) as u64),
            "{kind} padded rows"
        );
    }
}
