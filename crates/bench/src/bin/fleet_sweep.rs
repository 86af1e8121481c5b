//! Emit `BENCH_fleet.json`: wall-clock of the uniform fleet sweep (both
//! paper sites, every composition of the space assigned fleet-wide)
//! through the interleaved [`FleetEvaluator`](mgopt_microgrid::FleetEvaluator)
//! versus sequential per-site [`BatchEvaluator`] sweeps, plus the
//! cross-engine agreement check.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin fleet_sweep
//! ```
//!
//! Writes the artifact to the repository root (next to `BENCH_sweep.json`)
//! and prints the same numbers to stdout. `MGOPT_FAST=1` shrinks the space
//! for smoke runs; `MGOPT_DENSE="<mw>,<mwh>"` runs the denser grid the
//! interleaved engine makes interactive (the artifact records the actual
//! plan count either way). Then checks engine agreement and the committed
//! `fleet` floor on both speedups (`BENCH_baseline.json`), and exits 1
//! after printing every failed check.

use std::time::Instant;

use mgopt_bench::{Checks, ThreadScaling};
use mgopt_core::{fleet_plans, fleet_sweep, FleetAssignment, FleetScenario};
use mgopt_microgrid::{BatchBackend, BatchEvaluator, Composition, Evaluator};
use serde::Serialize;

/// The artifact schema. `speedup` compares equal deliverables (per-site
/// results, peak tracking off) — sequential per-site sweeps cannot produce
/// the fleet's concurrent peak at all, so the full interleaved pass is
/// recorded separately as `interleaved_with_peak_ms_min`.
#[derive(Debug, Serialize)]
struct FleetBench {
    sites: Vec<String>,
    plans: usize,
    steps_per_year: usize,
    samples: usize,
    interleaved_ms_min: f64,
    interleaved_with_peak_ms_min: f64,
    sequential_ms_min: f64,
    speedup: f64,
    speedup_with_peak: f64,
    max_rel_error: f64,
    peak_concurrent_import_mw: f64,
    threads: usize,
    /// Whether the interleaved timings above ran the 4-lane walk
    /// (pinned `true` by `simd.rs`'s `default_backend_is_the_four_lane_walk`).
    simd: bool,
    /// Fleet sweep at lane width 4 (peak tracking off), min ms.
    simd_ms_min: f64,
    /// Fleet sweep at lane width 1 (peak tracking off), min ms.
    scalar_walk_ms_min: f64,
    /// `scalar_walk_ms_min / simd_ms_min` — the 4-lane walk's gain over
    /// the same walk at width 1 on the fleet engine, like-for-like.
    simd_speedup: f64,
    /// Agreement between the two widths over per-site metrics. Exactly
    /// `0.0` by design (lanes are candidates); the bin fails on anything
    /// else.
    simd_max_rel_error: f64,
    /// Full interleaved sweep re-timed at each `MGOPT_THREADS` pool size.
    scaling: Vec<ThreadScaling>,
}

use mgopt_bench::min_ms;

fn main() {
    let mut scenario = FleetScenario::paper();
    for m in &mut scenario.members {
        m.scenario.space = mgopt_bench::space();
    }
    let fleet = scenario.prepare();
    let plans = fleet_plans(&fleet, FleetAssignment::Uniform);
    let comps: Vec<Composition> = plans.iter().map(|p| p[0]).collect();
    let samples = 25usize;

    // Warm-up + agreement check: per-site fleet results must match
    // independent single-site batch runs on every metrics field.
    let fleet_results = fleet_sweep(&fleet, FleetAssignment::Uniform);
    let mut max_rel_error = 0.0f64;
    for (s, member) in fleet.members.iter().enumerate() {
        let independent = BatchEvaluator::new(&member.data, &member.load, &member.config.sim)
            .evaluate_batch(&comps);
        for (f, b) in fleet_results.iter().zip(&independent) {
            assert_eq!(f.per_site[s].composition, b.composition);
            let err = f.per_site[s].metrics.max_rel_error(&b.metrics).0;
            // Propagate NaN explicitly — f64::max would silently drop it
            // and let a broken engine record perfect agreement.
            if err.is_nan() || err > max_rel_error {
                max_rel_error = err;
            }
        }
    }
    let peak_mw = fleet_results
        .iter()
        .filter_map(|r| r.fleet.peak_concurrent_import_kw)
        .fold(0.0f64, f64::max)
        / 1e3;

    let mut interleaved_ms = Vec::with_capacity(samples);
    let mut with_peak_ms = Vec::with_capacity(samples);
    let mut sequential_ms = Vec::with_capacity(samples);
    let time_interleaved = |track_peak: bool, out: &mut Vec<f64>| {
        let ev = fleet.evaluator().with_peak_tracking(track_peak);
        let t0 = Instant::now();
        std::hint::black_box(ev.evaluate_plans(&plans));
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    };
    let time_sequential = |out: &mut Vec<f64>| {
        let t0 = Instant::now();
        for member in &fleet.members {
            std::hint::black_box(
                BatchEvaluator::new(&member.data, &member.load, &member.config.sim)
                    .evaluate_batch(&comps),
            );
        }
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    };
    // Rotate the A/B/C order per sample so clock drift (thermal throttling
    // on small hosts) cannot systematically favor any engine.
    for k in 0..samples {
        match k % 3 {
            0 => {
                time_interleaved(false, &mut interleaved_ms);
                time_sequential(&mut sequential_ms);
                time_interleaved(true, &mut with_peak_ms);
            }
            1 => {
                time_sequential(&mut sequential_ms);
                time_interleaved(true, &mut with_peak_ms);
                time_interleaved(false, &mut interleaved_ms);
            }
            _ => {
                time_interleaved(true, &mut with_peak_ms);
                time_interleaved(false, &mut interleaved_ms);
                time_sequential(&mut sequential_ms);
            }
        }
    }

    // Lane width 4 vs 1 on the fleet engine, like-for-like (peak tracking
    // off in both). Bit-identity lets the agreement check below demand
    // exact equality over per-site metrics.
    let simd_results = fleet
        .evaluator()
        .with_peak_tracking(false)
        .with_backend(BatchBackend::Simd)
        .evaluate_plans(&plans);
    let scalar_walk_results = fleet
        .evaluator()
        .with_peak_tracking(false)
        .with_backend(BatchBackend::Scalar)
        .evaluate_plans(&plans);
    let mut simd_max_rel_error = 0.0f64;
    for (a, b) in simd_results.iter().zip(&scalar_walk_results) {
        for (ra, rb) in a.per_site.iter().zip(&b.per_site) {
            let err = ra.metrics.max_rel_error(&rb.metrics).0;
            if err.is_nan() || err > simd_max_rel_error {
                simd_max_rel_error = err;
            }
        }
    }
    let mut simd_ms = Vec::with_capacity(samples);
    let mut scalar_walk_ms = Vec::with_capacity(samples);
    let time_backend = |backend: BatchBackend, out: &mut Vec<f64>| {
        let ev = fleet
            .evaluator()
            .with_peak_tracking(false)
            .with_backend(backend);
        let t0 = Instant::now();
        std::hint::black_box(ev.evaluate_plans(&plans));
        out.push(t0.elapsed().as_secs_f64() * 1e3);
    };
    for k in 0..samples {
        if k % 2 == 0 {
            time_backend(BatchBackend::Simd, &mut simd_ms);
            time_backend(BatchBackend::Scalar, &mut scalar_walk_ms);
        } else {
            time_backend(BatchBackend::Scalar, &mut scalar_walk_ms);
            time_backend(BatchBackend::Simd, &mut simd_ms);
        }
    }
    let simd_min = min_ms(&simd_ms);
    let scalar_walk_min = min_ms(&scalar_walk_ms);

    // Multi-thread scaling of the full interleaved sweep (peak on, the
    // deliverable configuration).
    let scaling = mgopt_bench::scaling_sweep(
        &mgopt_bench::thread_counts(),
        3,
        || (),
        |()| {
            std::hint::black_box(fleet.evaluator().evaluate_plans(&plans));
        },
    );

    let interleaved_min = min_ms(&interleaved_ms);
    let with_peak_min = min_ms(&with_peak_ms);
    let sequential_min = min_ms(&sequential_ms);
    let bench = FleetBench {
        sites: fleet.names.clone(),
        plans: plans.len(),
        steps_per_year: fleet.members[0].data.len(),
        samples,
        interleaved_ms_min: interleaved_min,
        interleaved_with_peak_ms_min: with_peak_min,
        sequential_ms_min: sequential_min,
        speedup: sequential_min / interleaved_min,
        speedup_with_peak: sequential_min / with_peak_min,
        max_rel_error,
        peak_concurrent_import_mw: peak_mw,
        threads: rayon::current_num_threads(),
        simd: BatchBackend::default() == BatchBackend::Simd,
        simd_ms_min: simd_min,
        scalar_walk_ms_min: scalar_walk_min,
        simd_speedup: scalar_walk_min / simd_min,
        simd_max_rel_error,
        scaling,
    };

    println!(
        "fleet sweep of {} plans x {} sites ({} steps): interleaved {:.1} ms, \
         sequential per-site {:.1} ms, speedup {:.2}x",
        bench.plans,
        bench.sites.len(),
        bench.steps_per_year,
        interleaved_min,
        sequential_min,
        bench.speedup
    );
    println!(
        "with concurrent-peak tracking (a fleet metric sequential per-site \
         sweeps cannot produce): {:.1} ms, {:.2}x",
        with_peak_min, bench.speedup_with_peak
    );
    println!(
        "fleet peak concurrent grid import across plans: {:.2} MW",
        peak_mw
    );
    println!(
        "4-lane walk {:.1} ms vs 1-lane walk {:.1} ms: {:.2}x, max rel err {:e}",
        simd_min, scalar_walk_min, bench.simd_speedup, simd_max_rel_error
    );
    for p in &bench.scaling {
        println!(
            "threads {} (effective {}): {:.1} ms",
            p.threads_requested, p.threads_effective, p.ms_min
        );
    }

    mgopt_bench::write_bench_artifact("BENCH_fleet.json", &bench);

    let mut checks = Checks::default();
    checks.floor("fleet", "speedup", bench.speedup);
    checks.floor("fleet", "speedup_with_peak", bench.speedup_with_peak);
    checks.check(
        bench.max_rel_error <= 1e-9,
        format!(
            "fleet and batch engines disagree at {:e}",
            bench.max_rel_error
        ),
    );
    checks.check(
        bench.simd_max_rel_error == 0.0,
        format!(
            "4-lane fleet walk not bit-identical to the 1-lane walk ({:e})",
            bench.simd_max_rel_error
        ),
    );
    checks.check(
        bench.peak_concurrent_import_mw > 0.0,
        "concurrent peak not recorded",
    );
    checks.timings(
        [
            interleaved_min,
            with_peak_min,
            sequential_min,
            simd_min,
            scalar_walk_min,
        ]
        .into_iter()
        .chain(bench.scaling.iter().map(|p| p.ms_min)),
    );
    checks.check(
        bench.sites.len() == 2 && bench.simd_speedup > 0.0 && bench.threads >= 1,
        "malformed sites/threads",
    );
    checks.finish("fleet_sweep");
}
