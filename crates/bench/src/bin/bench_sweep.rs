//! Emit `BENCH_sweep.json`: wall-clock of the full 1,089-candidate
//! exhaustive sweep through the scalar rayon engine and the batched
//! columnar engine, plus the agreement check between them.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin bench_sweep
//! ```
//!
//! Writes the artifact to the repository root (next to `ROADMAP.md`), and
//! prints the same numbers to stdout. `MGOPT_FAST=1` shrinks the space for
//! smoke runs (the artifact then records the reduced size). Then checks
//! engine agreement and the committed `sweep` and `simd` speedup floors
//! (`BENCH_baseline.json`), and exits 1 after printing every failed check.

use std::time::Instant;

use mgopt_bench::{Checks, ThreadScaling};
use mgopt_core::{sweep_all, sweep_all_scalar, sweep_all_with_backend};
use mgopt_microgrid::BatchBackend;
use serde::Serialize;

/// The artifact schema.
#[derive(Debug, Serialize)]
struct SweepBench {
    site: String,
    compositions: usize,
    steps_per_year: usize,
    samples: usize,
    scalar_ms_median: f64,
    batched_ms_median: f64,
    speedup: f64,
    max_rel_error: f64,
    threads: usize,
    /// Whether the default batched timing above ran the 4-lane walk
    /// (pinned `true` by `simd.rs`'s `default_backend_is_the_four_lane_walk`).
    simd: bool,
    /// Batched sweep at lane width 4, median ms.
    simd_ms_median: f64,
    /// Batched sweep at lane width 1, median ms.
    scalar_batch_ms_median: f64,
    /// `scalar_batch_ms_median / simd_ms_median` — the 4-lane walk's gain
    /// over the same walk at width 1, like-for-like.
    simd_speedup: f64,
    /// Agreement between the two widths. The lanes-are-candidates design
    /// makes this exactly `0.0`, not merely ≤1e-9; the bin fails on
    /// anything else.
    simd_max_rel_error: f64,
    /// Full batched sweep re-timed at each `MGOPT_THREADS` pool size.
    scaling: Vec<ThreadScaling>,
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

fn main() {
    let scenario = mgopt_bench::houston();
    let compositions = scenario.config.space.len();
    let samples = 5usize;

    // Warm-up + agreement check: the shared symmetric tolerance over
    // every metrics field (not an argument-order-dependent subset).
    let scalar_results = sweep_all_scalar(&scenario);
    let batched_results = sweep_all(&scenario);
    let mut max_rel_error = 0.0f64;
    for (s, b) in scalar_results.iter().zip(&batched_results) {
        assert_eq!(s.composition, b.composition);
        let err = s.metrics.max_rel_error(&b.metrics).0;
        // Propagate NaN explicitly — f64::max would silently drop it and
        // let a broken engine record perfect agreement.
        if err.is_nan() || err > max_rel_error {
            max_rel_error = err;
        }
    }

    let mut scalar_ms = Vec::with_capacity(samples);
    let mut batched_ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(sweep_all_scalar(&scenario));
        scalar_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        std::hint::black_box(sweep_all(&scenario));
        batched_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Lane width 4 vs 1, like-for-like: both timings use the batched
    // engine with the width set, alternating A/B like the main loop. The
    // widths are pinned bit-identical, so the agreement check below
    // demands exact equality.
    let simd_results = sweep_all_with_backend(&scenario, BatchBackend::Simd);
    let scalar_walk_results = sweep_all_with_backend(&scenario, BatchBackend::Scalar);
    let mut simd_max_rel_error = 0.0f64;
    for (a, b) in simd_results.iter().zip(&scalar_walk_results) {
        let err = a.metrics.max_rel_error(&b.metrics).0;
        if err.is_nan() || err > simd_max_rel_error {
            simd_max_rel_error = err;
        }
    }
    let mut simd_ms = Vec::with_capacity(samples);
    let mut scalar_walk_ms = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(sweep_all_with_backend(&scenario, BatchBackend::Simd));
        simd_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        std::hint::black_box(sweep_all_with_backend(&scenario, BatchBackend::Scalar));
        scalar_walk_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let simd_med = median_ms(&mut simd_ms);
    let scalar_walk_med = median_ms(&mut scalar_walk_ms);

    // Multi-thread scaling of the default batched sweep.
    let scaling = mgopt_bench::scaling_sweep(
        &mgopt_bench::thread_counts(),
        3,
        || (),
        |()| {
            std::hint::black_box(sweep_all(&scenario));
        },
    );

    let scalar_med = median_ms(&mut scalar_ms);
    let batched_med = median_ms(&mut batched_ms);
    let bench = SweepBench {
        site: scenario.site_name().to_string(),
        compositions,
        steps_per_year: scenario.data.len(),
        samples,
        scalar_ms_median: scalar_med,
        batched_ms_median: batched_med,
        speedup: scalar_med / batched_med,
        max_rel_error,
        // The pool size parallel calls actually use — `unwrap_or(1)` over
        // core detection used to mislabel entries on multi-core hosts
        // whenever detection failed.
        threads: rayon::current_num_threads(),
        simd: BatchBackend::default() == BatchBackend::Simd,
        simd_ms_median: simd_med,
        scalar_batch_ms_median: scalar_walk_med,
        simd_speedup: scalar_walk_med / simd_med,
        simd_max_rel_error,
        scaling,
    };

    println!(
        "sweep of {} compositions ({} steps): scalar {:.1} ms, batched {:.1} ms, speedup {:.2}x",
        bench.compositions, bench.steps_per_year, scalar_med, batched_med, bench.speedup
    );
    println!(
        "4-lane walk {:.1} ms vs 1-lane walk {:.1} ms: {:.2}x, max rel err {:e}",
        simd_med, scalar_walk_med, bench.simd_speedup, simd_max_rel_error
    );
    for p in &bench.scaling {
        println!(
            "threads {} (effective {}): {:.1} ms",
            p.threads_requested, p.threads_effective, p.ms_min
        );
    }

    mgopt_bench::write_bench_artifact("BENCH_sweep.json", &bench);

    let mut checks = Checks::default();
    checks.floor("sweep", "speedup", bench.speedup);
    checks.floor("simd", "simd_speedup", bench.simd_speedup);
    checks.check(
        bench.max_rel_error <= 1e-9,
        format!("engines disagree at {:e}", bench.max_rel_error),
    );
    checks.check(
        bench.simd_max_rel_error == 0.0,
        format!(
            "4-lane walk not bit-identical to the 1-lane walk ({:e})",
            bench.simd_max_rel_error
        ),
    );
    checks.timings(
        [scalar_med, batched_med, simd_med, scalar_walk_med]
            .into_iter()
            .chain(bench.scaling.iter().map(|p| p.ms_min)),
    );
    checks.check(
        bench.steps_per_year > 0 && bench.threads >= 1,
        "malformed steps/threads",
    );
    checks.finish("bench_sweep");
}
