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
//! per-site spaces for smoke runs. Then checks search agreement, the
//! telemetry section and the committed `fleet_search` speedup floor
//! (`BENCH_baseline.json`), and exits 1 after printing every failed check.

use std::sync::Arc;
use std::time::Instant;

use mgopt_bench::{Checks, TelemetrySection, ThreadScaling};
use mgopt_core::{FleetProblem, FleetScenario, PreparedFleet, PreparedScenario};
use mgopt_microgrid::BatchBackend;
use mgopt_optimizer::{Nsga2Config, Nsga2Optimizer, OptimizationResult, Problem, SearchControl};
use mgopt_telemetry as telemetry;
use serde::Serialize;

/// The artifact schema. `agreement` records that the batched and scalar
/// searches produced bit-identical trial histories (same seeds, and the
/// fleet engine's cohort results are pinned to single-plan runs). The
/// `telemetry*` fields are the instrumentation A/B: `samples` batched
/// searches with collection switched on around each, alternating with
/// `samples` searches with it off.
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
    /// (pinned `true` by `simd.rs`'s `default_backend_is_the_four_lane_walk`).
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
    /// The batched search with collection on, min ms over `samples` runs.
    telemetry_enabled_ms_min: f64,
    /// `telemetry_enabled_ms_min` over the min of the A/B's `samples`
    /// runs with collection off, minus one, in percent.
    telemetry_overhead_pct: f64,
    /// Stage totals and engine throughput over the `samples` enabled runs.
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
/// empty per-site result tables and an empty plan-peak memo.
fn cold_copy(fleet: &PreparedFleet) -> PreparedFleet {
    PreparedFleet::new(
        fleet.names.clone(),
        fleet
            .members
            .iter()
            .map(|m| Arc::new(PreparedScenario::clone(m)))
            .collect(),
    )
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

    let search = |p: &dyn Problem| optimizer.run_controlled(p, &mut |_| SearchControl::Continue);
    let batched = |f: &PreparedFleet| search(&FleetProblem::new(f));
    let fallback = |f: &PreparedFleet| search(&ScalarFallback(&FleetProblem::new(f)));
    let simd = |f: &PreparedFleet| search(&FleetProblem::new(f).with_backend(BatchBackend::Simd));
    let scalar_walk =
        |f: &PreparedFleet| search(&FleetProblem::new(f).with_backend(BatchBackend::Scalar));

    // Warm-up + agreement: identical seeds must yield identical histories.
    let batched_run = batched(&cold_copy(&fleet));
    let scalar_run = fallback(&cold_copy(&fleet));
    let agreement = batched_run.history == scalar_run.history;
    let (batched_ms, scalar_ms) = ab_ms(&fleet, samples, &batched, &fallback);
    let batched_min = min_ms(&batched_ms);
    let scalar_min = min_ms(&scalar_ms);

    // Lane width 4 vs 1 on the search path: the same NSGA-II run with the
    // fleet engine's walk at either width. Bit-identical engines +
    // identical seeds must reproduce the same trial history.
    let simd_agreement =
        simd(&cold_copy(&fleet)).history == scalar_walk(&cold_copy(&fleet)).history;
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

    // Telemetry A/B: the batched search with collection switched on
    // around itself (spans, counters, and events to any MGOPT_TRACE sink)
    // against the same search with it off, as many samples each and
    // alternating like the A/Bs above. Only the enabled runs record, so
    // the section covers exactly those.
    let traced = |f: &PreparedFleet| {
        telemetry::set_enabled(true);
        let run = batched(f);
        telemetry::set_enabled(false);
        run
    };
    telemetry::reset_stats();
    let (enabled_ms, disabled_ms) = ab_ms(&fleet, samples, &traced, &batched);
    let section = mgopt_bench::collect_telemetry_section();
    let enabled_min = min_ms(&enabled_ms);
    let disabled_min = min_ms(&disabled_ms);
    let overhead_pct = (enabled_min / disabled_min - 1.0) * 1e2;

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
        "telemetry: enabled {enabled_min:.1} ms vs disabled {disabled_min:.1} ms \
         ({overhead_pct:+.1}%, {samples} alternating pairs)"
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

    mgopt_bench::write_bench_artifact("BENCH_fleet_search.json", &bench);

    let mut checks = Checks::default();
    checks.floor("fleet_search", "speedup", bench.speedup);
    checks.check(
        bench.agreement,
        "batched and scalar fleet searches diverged — the fleet engine \
         broke its cohort/single-plan agreement guarantee",
    );
    checks.check(
        bench.simd_agreement,
        "4-lane search diverged from the 1-lane search",
    );
    checks.check(
        (1..=bench.max_trials).contains(&bench.unique_evaluations),
        format!(
            "{} unique evaluations for {} trials",
            bench.unique_evaluations, bench.max_trials
        ),
    );
    checks.timings(
        [batched_min, scalar_min, simd_min, scalar_walk_min]
            .into_iter()
            .chain(bench.scaling.iter().map(|p| p.ms_min)),
    );
    checks.check(
        bench.sites.len() == 2
            && bench.front_size >= 1
            && bench.simd_speedup > 0.0
            && bench.threads >= 1,
        "malformed sites/front/threads",
    );
    // An instrumented fleet search walks the fleet kernel, sorts its
    // cohorts and sees cache traffic.
    let t = &bench.telemetry;
    for stage in ["fleet.kernel", "search.sort"] {
        checks.check(
            t.stages.iter().any(|s| s.name == stage && s.calls > 0),
            format!("telemetry section has no {stage} spans"),
        );
    }
    checks.check(
        t.stages.iter().all(|s| s.total_ms >= 0.0 && s.calls > 0),
        "malformed telemetry stage row",
    );
    checks.check(
        t.evals_per_sec > 0.0,
        "telemetry evals_per_sec not positive",
    );
    checks.check(
        (0.0..=1.0).contains(&t.cache_hit_rate),
        format!(
            "telemetry cache hit rate {} outside [0, 1]",
            t.cache_hit_rate
        ),
    );
    checks.finish("fleet_search");
}
