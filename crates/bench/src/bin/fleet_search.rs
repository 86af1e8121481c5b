//! Emit `BENCH_fleet_search.json`: wall-clock of NSGA-II over the
//! cross-product fleet-plan space (both paper sites) with cohorts routed
//! through one batched [`FleetEvaluator`](mgopt_microgrid::FleetEvaluator)
//! pass, versus the same search forced onto the optimizer's default
//! rayon-scalar fallback (one single-plan pass per unseen genome) — so the
//! batching speedup on the *search* path is measured, not assumed.
//!
//! An uncapped search answers cohorts from each prepared member's
//! per-site result table, which outlives the search. So every timed run
//! searches a cold copy of the prepared fleet — the same inputs, empty
//! tables — made outside the clock: each timing is one cold study, not
//! the previous run's table lookups.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin fleet_search
//! ```
//!
//! Writes the artifact to the repository root (next to `BENCH_fleet.json`)
//! and prints the same numbers to stdout. `MGOPT_FAST=1` shrinks the
//! per-site spaces for smoke runs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mgopt_bench::{TelemetrySection, ThreadScaling};
use mgopt_core::{FleetProblem, FleetScenario, PreparedFleet, PreparedScenario};
use mgopt_microgrid::BatchBackend;
use mgopt_optimizer::{Nsga2Config, Nsga2Optimizer, OptimizationResult, Problem};
use mgopt_telemetry as telemetry;
use serde::Serialize;

/// The artifact schema. `agreement` records that the batched and scalar
/// searches produced bit-identical trial histories (same seeds, and the
/// fleet engine's cohort results are pinned to single-plan runs). The
/// `telemetry_*` fields are the instrumentation A/B: the same batched
/// search re-timed with collection on, plus the collected section.
#[derive(Debug, Serialize)]
struct FleetSearchBench {
    sites: Vec<String>,
    space_per_site: Vec<usize>,
    plan_space: usize,
    population: usize,
    max_trials: usize,
    unique_evaluations: usize,
    cache_hit_rate: f64,
    front_size: usize,
    samples: usize,
    batched_ms_min: f64,
    scalar_ms_min: f64,
    speedup: f64,
    agreement: bool,
    threads: usize,
    /// Whether the batched timings above ran the 4-lane walk
    /// (`bench_guard` requires `true`).
    simd: bool,
    /// The batched search with the fleet walk at lane width 4, min ms.
    simd_ms_min: f64,
    /// The batched search with the fleet walk at lane width 1, min ms.
    scalar_walk_ms_min: f64,
    /// `scalar_walk_ms_min / simd_ms_min` on the search path. Search time
    /// includes NSGA-II bookkeeping, so this is lower than the raw kernel
    /// gain in `BENCH_sweep.json`.
    simd_speedup: f64,
    /// `true` when the 4-lane and 1-lane searches produced bit-identical
    /// trial histories (same seeds + bit-identical engines).
    simd_agreement: bool,
    /// Full batched search re-timed at each `MGOPT_THREADS` pool size.
    scaling: Vec<ThreadScaling>,
    telemetry_enabled_ms_min: f64,
    telemetry_overhead_pct: f64,
    telemetry: TelemetrySection,
}

/// Hides a problem's batched override so cohorts fall back to the
/// optimizer's default rayon-parallel scalar path — the baseline every
/// batched engine is measured against.
struct ScalarFallback<'a>(&'a FleetProblem<'a>);

impl Problem for ScalarFallback<'_> {
    fn dims(&self) -> &[usize] {
        self.0.dims()
    }

    fn n_objectives(&self) -> usize {
        self.0.n_objectives()
    }

    fn evaluate(&self, genome: &[u16]) -> Vec<f64> {
        self.0.evaluate(genome)
    }
}

use mgopt_bench::min_ms;

/// A copy of `fleet` whose members are clones: the same prepared inputs,
/// empty per-site result tables.
fn cold_copy(fleet: &PreparedFleet) -> PreparedFleet {
    PreparedFleet {
        names: fleet.names.clone(),
        members: fleet
            .members
            .iter()
            .map(|m| Arc::new(PreparedScenario::clone(m)))
            .collect(),
    }
}

/// A search over a prepared fleet.
type Search<'a> = dyn Fn(&PreparedFleet) -> OptimizationResult + 'a;

/// Wall-clock of one search on a cold copy of `fleet`, made before the
/// clock starts, ms.
fn cold_ms(fleet: &PreparedFleet, search: &Search<'_>) -> f64 {
    let cold = cold_copy(fleet);
    let t0 = Instant::now();
    std::hint::black_box(search(&cold).history.len());
    t0.elapsed().as_secs_f64() * 1e3
}

/// `samples` cold timings each of searches `a` and `b`, alternating which
/// goes first so clock drift cannot systematically favor either.
fn ab_ms(
    fleet: &PreparedFleet,
    samples: usize,
    a: &Search<'_>,
    b: &Search<'_>,
) -> (Vec<f64>, Vec<f64>) {
    let (mut a_ms, mut b_ms) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for k in 0..samples {
        if k % 2 == 0 {
            a_ms.push(cold_ms(fleet, a));
            b_ms.push(cold_ms(fleet, b));
        } else {
            b_ms.push(cold_ms(fleet, b));
            a_ms.push(cold_ms(fleet, a));
        }
    }
    (a_ms, b_ms)
}

fn main() {
    // Resolve MGOPT_TRACE first (installing any requested sink), then force
    // collection off so the A/B timing below starts from the disabled path.
    telemetry::enabled();
    telemetry::set_enabled(false);

    let mut scenario = FleetScenario::paper();
    for m in &mut scenario.members {
        m.scenario.space = mgopt_bench::space();
    }
    let fleet = scenario.prepare();
    let config = Nsga2Config {
        population_size: 50,
        max_trials: 350,
        seed: 42,
        ..Nsga2Config::default()
    };
    let optimizer = Nsga2Optimizer::new(config.clone());
    let samples = 7usize;

    let batched = |f: &PreparedFleet| optimizer.run(&FleetProblem::new(f));
    let fallback = |f: &PreparedFleet| optimizer.run(&ScalarFallback(&FleetProblem::new(f)));
    let simd =
        |f: &PreparedFleet| optimizer.run(&FleetProblem::new(f).with_backend(BatchBackend::Simd));
    let scalar_walk =
        |f: &PreparedFleet| optimizer.run(&FleetProblem::new(f).with_backend(BatchBackend::Scalar));

    // Warm-up + agreement: identical seeds must yield identical histories.
    let batched_run = batched(&cold_copy(&fleet));
    let scalar_run = fallback(&cold_copy(&fleet));
    let agreement = batched_run.history == scalar_run.history;
    assert!(
        agreement,
        "batched and scalar fleet searches diverged — the fleet engine \
         broke its cohort/single-plan agreement guarantee"
    );
    let (batched_ms, scalar_ms) = ab_ms(&fleet, samples, &batched, &fallback);
    let batched_min = min_ms(&batched_ms);
    let scalar_min = min_ms(&scalar_ms);

    // Lane width 4 vs 1 on the search path: the same NSGA-II run with the
    // fleet engine's walk at either width. Bit-identical engines +
    // identical seeds must reproduce the same trial history.
    let simd_agreement =
        simd(&cold_copy(&fleet)).history == scalar_walk(&cold_copy(&fleet)).history;
    assert!(
        simd_agreement,
        "4-lane search diverged from the 1-lane search"
    );
    let (simd_ms, scalar_walk_ms) = ab_ms(&fleet, samples, &simd, &scalar_walk);
    let simd_min = min_ms(&simd_ms);
    let scalar_walk_min = min_ms(&scalar_walk_ms);

    // Multi-thread scaling of the batched search.
    let scaling = mgopt_bench::scaling_sweep(
        &mgopt_bench::thread_counts(),
        3,
        || cold_copy(&fleet),
        |cold| {
            std::hint::black_box(batched(&cold).history.len());
        },
    );

    // Telemetry A/B: the same batched search with collection ON (spans,
    // counters, and events to any MGOPT_TRACE sink). The disabled-path
    // baseline is `batched_min` above — the overhead of telemetry-off
    // instrumentation is already inside it, and the enabled re-run bounds
    // the cost of switching collection on.
    telemetry::reset_stats();
    telemetry::set_enabled(true);
    let enabled_ms: Vec<f64> = (0..3).map(|_| cold_ms(&fleet, &batched)).collect();
    let section = mgopt_bench::collect_telemetry_section();
    telemetry::set_enabled(false);
    let enabled_min = min_ms(&enabled_ms);
    let overhead_pct = (enabled_min / batched_min - 1.0) * 1e2;

    let problem = FleetProblem::new(&fleet);
    let bench = FleetSearchBench {
        sites: fleet.names.clone(),
        space_per_site: problem.dims().to_vec(),
        plan_space: problem.space_size(),
        population: config.population_size,
        max_trials: config.max_trials,
        unique_evaluations: batched_run.unique_evaluations,
        cache_hit_rate: batched_run.cache_hit_rate().unwrap_or(0.0),
        front_size: batched_run.pareto_front().len(),
        samples,
        batched_ms_min: batched_min,
        scalar_ms_min: scalar_min,
        speedup: scalar_min / batched_min,
        agreement,
        threads: rayon::current_num_threads(),
        simd: BatchBackend::default() == BatchBackend::Simd,
        simd_ms_min: simd_min,
        scalar_walk_ms_min: scalar_walk_min,
        simd_speedup: scalar_walk_min / simd_min,
        simd_agreement,
        scaling,
        telemetry_enabled_ms_min: enabled_min,
        telemetry_overhead_pct: overhead_pct,
        telemetry: section,
    };

    println!(
        "NSGA-II over {} fleet plans ({} trials, {} unique): batched {:.1} ms, \
         rayon-scalar fallback {:.1} ms, speedup {:.2}x",
        bench.plan_space,
        bench.max_trials,
        bench.unique_evaluations,
        batched_min,
        scalar_min,
        bench.speedup
    );
    println!(
        "memo cache: {} hits / {} misses over {} sampled trials ({:.1}% hit rate)",
        batched_run.cache_hits,
        batched_run.cache_misses,
        batched_run.sampled_trials,
        bench.cache_hit_rate * 1e2
    );
    println!(
        "4-lane search {:.1} ms vs 1-lane search {:.1} ms: {:.2}x, \
         histories identical: {}",
        simd_min, scalar_walk_min, bench.simd_speedup, simd_agreement
    );
    for p in &bench.scaling {
        println!(
            "threads {} (effective {}): {:.1} ms",
            p.threads_requested, p.threads_effective, p.ms_min
        );
    }
    println!(
        "telemetry: enabled run {enabled_min:.1} ms vs disabled {batched_min:.1} ms \
         ({overhead_pct:+.1}% — timing noise dominates at near-zero overhead)"
    );
    for stage in &bench.telemetry.stages {
        println!(
            "  {:<16} {:>6} spans {:>10.1} ms (CPU)",
            stage.name, stage.calls, stage.total_ms
        );
    }
    println!(
        "  engine throughput {:.2e} candidate-steps/s of kernel CPU time",
        bench.telemetry.evals_per_sec
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_fleet_search.json");
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_fleet_search.json");
    println!("[artifact] {}", path.display());
}
