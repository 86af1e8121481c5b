//! The bench-regression guard: re-read the freshly written
//! `BENCH_sweep.json` / `BENCH_fleet.json` / `BENCH_fleet_search.json` /
//! `BENCH_server.json` and fail (exit 1) when a deliverable is missing or malformed, an
//! engine-agreement bound is broken, or a recorded speedup degrades
//! beyond the generous tolerance committed in `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin bench_guard
//! ```
//!
//! Runs *after* the bench bins in CI, so a refactor that silently turns a
//! batched path into a scalar one (or breaks an artifact schema that
//! downstream tooling reads) fails the job instead of shipping. Every
//! check is reported before exiting, not just the first failure.

use std::path::{Path, PathBuf};

use mgopt_bench::{TelemetrySection, ThreadScaling};
use serde::Deserialize;

/// Committed floors: a fresh speedup must stay above
/// `baseline_speedup * (1 - tolerance)`.
#[derive(Debug, Deserialize)]
struct Baseline {
    tolerance: f64,
    sweep: BaselineEntry,
    fleet: BaselineEntry,
    fleet_search: BaselineEntry,
    /// Floor for the sweep's 4-lane vs 1-lane walk speedup — a refactor
    /// that quietly de-vectorizes the lane kernel fails here even while
    /// the batched-vs-scalar-engine speedup still looks healthy.
    simd: BaselineEntry,
    /// Floor for the daemon's multiplexed-vs-sequential speedup — near
    /// 1.0 on a single-core runner, so this guards the concurrency layer
    /// against growing real overhead rather than promising a gain.
    server: BaselineEntry,
    /// Floor for the multi-connection phase's throughput relative to the
    /// sequential baseline — guards the acceptor pool, the process-wide
    /// admission queue, and the cancellation path against growing real
    /// overhead.
    server_multi: BaselineEntry,
}

#[derive(Debug, Deserialize)]
struct BaselineEntry {
    baseline_speedup: f64,
}

/// The fields of `BENCH_sweep.json` the guard checks (extra fields are
/// ignored, missing ones fail the parse — that *is* the deliverable
/// check).
#[derive(Debug, Deserialize)]
struct SweepArtifact {
    compositions: usize,
    steps_per_year: usize,
    scalar_ms_median: f64,
    batched_ms_median: f64,
    speedup: f64,
    max_rel_error: f64,
    threads: usize,
    simd: bool,
    simd_ms_median: f64,
    scalar_batch_ms_median: f64,
    simd_speedup: f64,
    simd_max_rel_error: f64,
    scaling: Vec<ThreadScaling>,
}

#[derive(Debug, Deserialize)]
struct FleetArtifact {
    sites: Vec<String>,
    plans: usize,
    interleaved_ms_min: f64,
    interleaved_with_peak_ms_min: f64,
    sequential_ms_min: f64,
    speedup: f64,
    speedup_with_peak: f64,
    max_rel_error: f64,
    peak_concurrent_import_mw: f64,
    threads: usize,
    simd: bool,
    simd_ms_min: f64,
    scalar_walk_ms_min: f64,
    simd_speedup: f64,
    simd_max_rel_error: f64,
    scaling: Vec<ThreadScaling>,
}

#[derive(Debug, Deserialize)]
struct FleetSearchArtifact {
    sites: Vec<String>,
    space_per_site: Vec<usize>,
    plan_space: usize,
    max_trials: usize,
    unique_evaluations: usize,
    front_size: usize,
    batched_ms_min: f64,
    scalar_ms_min: f64,
    speedup: f64,
    agreement: bool,
    threads: usize,
    simd: bool,
    simd_ms_min: f64,
    scalar_walk_ms_min: f64,
    simd_speedup: f64,
    simd_agreement: bool,
    scaling: Vec<ThreadScaling>,
    /// Optional instrumentation section: validated when present, tolerated
    /// when absent (pre-telemetry artifacts — and the committed baseline —
    /// keep loading unchanged).
    #[serde(default)]
    telemetry: Option<TelemetrySection>,
}

/// The fields of `BENCH_server.json` the guard checks (see `server_bench`).
#[derive(Debug, Deserialize)]
struct ServerArtifact {
    studies: usize,
    sites: usize,
    plan_space: u64,
    max_concurrent: usize,
    in_flight_peak: usize,
    concurrent_ms_min: f64,
    sequential_ms_min: f64,
    studies_per_sec: f64,
    speedup: f64,
    prep_cache_hits: u64,
    prep_cache_misses: u64,
    prep_cache_hit_rate: f64,
    agreement: bool,
    multi_conn: MultiConnArtifact,
}

/// The multi-connection section of `BENCH_server.json`: one shared
/// daemon, many concurrent sockets, a mid-flight cancellation.
#[derive(Debug, Deserialize)]
struct MultiConnArtifact {
    connections: usize,
    studies: usize,
    max_concurrent: usize,
    in_flight_peak: usize,
    queue_depth_peak: usize,
    ms_min: f64,
    studies_per_sec: f64,
    speedup: f64,
    cancelled_done_frames: usize,
    agreement: bool,
}

/// Per-site composition count the current mode must have produced, if it
/// is pinned (`MGOPT_DENSE` grids vary, so they skip the count check).
fn expected_compositions() -> Option<usize> {
    if std::env::var("MGOPT_DENSE").is_ok() {
        return None;
    }
    Some(if mgopt_bench::fast_mode() { 27 } else { 1_089 })
}

/// Shared sanity checks for a bin's `scaling` section.
fn check_scaling(kind: &str, scaling: &[ThreadScaling], check: &mut impl FnMut(bool, String)) {
    check(
        !scaling.is_empty(),
        format!("{kind}: scaling section is empty"),
    );
    for p in scaling {
        check(
            p.threads_requested >= 1
                && p.threads_effective >= 1
                && p.threads_effective <= p.threads_requested,
            format!(
                "{kind}: scaling entry requested {} / effective {}",
                p.threads_requested, p.threads_effective
            ),
        );
        check(
            p.ms_min > 0.0 && p.ms_min.is_finite(),
            format!(
                "{kind}: non-positive scaling timing at {} threads",
                p.threads_requested
            ),
        );
    }
}

fn read<T: Deserialize>(path: &Path, errors: &mut Vec<String>) -> Option<T> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{name}: cannot read ({e})"));
            return None;
        }
    };
    match serde_json::from_str(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            errors.push(format!("{name}: deliverables mismatch ({e:?})"));
            None
        }
    }
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut errors: Vec<String> = Vec::new();

    let baseline: Baseline = match read(&root.join("BENCH_baseline.json"), &mut errors) {
        Some(b) => b,
        None => {
            eprintln!("bench-guard: FAIL {}", errors.join("; "));
            std::process::exit(1);
        }
    };
    assert!(
        (0.0..1.0).contains(&baseline.tolerance),
        "baseline tolerance must lie in [0, 1)"
    );
    let floor = |entry: &BaselineEntry| entry.baseline_speedup * (1.0 - baseline.tolerance);
    let expected = expected_compositions();

    let sweep: Option<SweepArtifact> = read(&root.join("BENCH_sweep.json"), &mut errors);
    let fleet: Option<FleetArtifact> = read(&root.join("BENCH_fleet.json"), &mut errors);
    let search: Option<FleetSearchArtifact> =
        read(&root.join("BENCH_fleet_search.json"), &mut errors);
    let server: Option<ServerArtifact> = read(&root.join("BENCH_server.json"), &mut errors);

    let mut checks = 0usize;
    let mut check = |ok: bool, msg: String| {
        checks += 1;
        if !ok {
            errors.push(msg);
        }
    };

    if let Some(a) = sweep {
        let f = floor(&baseline.sweep);
        check(
            a.speedup >= f,
            format!("sweep: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.max_rel_error <= 1e-9,
            format!("sweep: engines disagree at {:e}", a.max_rel_error),
        );
        if let Some(n) = expected {
            check(
                a.compositions == n,
                format!("sweep: {} compositions, expected {n}", a.compositions),
            );
        }
        check(
            a.scalar_ms_median > 0.0 && a.batched_ms_median > 0.0,
            "sweep: non-positive timing".into(),
        );
        check(
            a.steps_per_year > 0 && a.threads >= 1,
            "sweep: malformed steps/threads".into(),
        );
        let simd_floor = floor(&baseline.simd);
        check(
            a.simd_speedup >= simd_floor,
            format!(
                "sweep: SIMD speedup {:.2} below floor {simd_floor:.2}",
                a.simd_speedup
            ),
        );
        check(
            a.simd_max_rel_error == 0.0,
            format!(
                "sweep: SIMD walk not bit-identical ({:e})",
                a.simd_max_rel_error
            ),
        );
        check(
            a.simd,
            "sweep: default timing did not run the 4-lane walk".into(),
        );
        check(
            a.simd_ms_median > 0.0 && a.scalar_batch_ms_median > 0.0,
            "sweep: non-positive SIMD A/B timing".into(),
        );
        check_scaling("sweep", &a.scaling, &mut check);
    }

    if let Some(a) = fleet {
        let f = floor(&baseline.fleet);
        check(
            a.speedup >= f,
            format!("fleet: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.speedup_with_peak >= f,
            format!(
                "fleet: peak-tracking speedup {:.2} below floor {f:.2}",
                a.speedup_with_peak
            ),
        );
        check(
            a.max_rel_error <= 1e-9,
            format!("fleet: engines disagree at {:e}", a.max_rel_error),
        );
        if let Some(n) = expected {
            check(
                a.plans == n,
                format!("fleet: {} plans, expected {n}", a.plans),
            );
        }
        check(
            a.peak_concurrent_import_mw > 0.0,
            "fleet: concurrent peak not recorded".into(),
        );
        check(
            a.sites.len() == 2
                && a.interleaved_ms_min > 0.0
                && a.interleaved_with_peak_ms_min > 0.0
                && a.sequential_ms_min > 0.0
                && a.threads >= 1,
            "fleet: malformed sites/timings".into(),
        );
        check(
            a.simd_max_rel_error == 0.0,
            format!(
                "fleet: SIMD walk not bit-identical ({:e})",
                a.simd_max_rel_error
            ),
        );
        check(
            a.simd,
            "fleet: default timing did not run the 4-lane walk".into(),
        );
        check(
            a.simd_speedup > 0.0 && a.simd_ms_min > 0.0 && a.scalar_walk_ms_min > 0.0,
            "fleet: malformed SIMD A/B timings".into(),
        );
        check_scaling("fleet", &a.scaling, &mut check);
    }

    if let Some(a) = search {
        let f = floor(&baseline.fleet_search);
        check(
            a.speedup >= f,
            format!("fleet_search: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.agreement,
            "fleet_search: batched and scalar searches diverged".into(),
        );
        if let Some(n) = expected {
            check(
                a.space_per_site.iter().all(|&d| d == n) && a.plan_space == n * n,
                format!(
                    "fleet_search: space {:?} / {} plans, expected {n} per site",
                    a.space_per_site, a.plan_space
                ),
            );
        }
        check(
            a.unique_evaluations >= 1 && a.unique_evaluations <= a.max_trials,
            format!(
                "fleet_search: {} unique evaluations for {} trials",
                a.unique_evaluations, a.max_trials
            ),
        );
        check(
            a.sites.len() == 2
                && a.front_size >= 1
                && a.batched_ms_min > 0.0
                && a.scalar_ms_min > 0.0
                && a.threads >= 1,
            "fleet_search: malformed sites/front/timings".into(),
        );
        check(
            a.simd_agreement,
            "fleet_search: SIMD-backed and scalar-walk searches diverged".into(),
        );
        check(
            a.simd,
            "fleet_search: default timing did not run the 4-lane walk".into(),
        );
        check(
            a.simd_speedup > 0.0 && a.simd_ms_min > 0.0 && a.scalar_walk_ms_min > 0.0,
            "fleet_search: malformed SIMD A/B timings".into(),
        );
        check_scaling("fleet_search", &a.scaling, &mut check);
        // Telemetry section: sanity-only (no overhead gating — enabled-run
        // timing is too noisy for a CI floor). An instrumented fleet
        // search must have walked the fleet kernel and seen cache traffic.
        if let Some(t) = a.telemetry {
            check(
                t.stages
                    .iter()
                    .any(|s| s.name == "fleet.kernel" && s.calls > 0),
                "fleet_search: telemetry section has no fleet.kernel spans".into(),
            );
            check(
                t.stages.iter().all(|s| s.total_ms >= 0.0 && s.calls > 0),
                "fleet_search: malformed telemetry stage row".into(),
            );
            check(
                t.evals_per_sec > 0.0,
                "fleet_search: telemetry evals_per_sec not positive".into(),
            );
            check(
                (0.0..=1.0).contains(&t.cache_hit_rate),
                format!(
                    "fleet_search: cache hit rate {} outside [0, 1]",
                    t.cache_hit_rate
                ),
            );
        }
    }

    if let Some(a) = server {
        let f = floor(&baseline.server);
        check(
            a.speedup >= f,
            format!("server: speedup {:.2} below floor {f:.2}", a.speedup),
        );
        check(
            a.agreement,
            "server: daemon fronts diverged from standalone runs".into(),
        );
        check(
            a.max_concurrent >= 4 && a.in_flight_peak >= a.max_concurrent,
            format!(
                "server: in-flight peak {} never reached max_concurrent {} — \
                 the throughput number measured a sequential run",
                a.in_flight_peak, a.max_concurrent
            ),
        );
        check(
            a.studies >= a.max_concurrent && a.sites == 2 && a.plan_space >= 1,
            "server: malformed workload shape".into(),
        );
        check(
            a.studies_per_sec > 0.0
                && a.concurrent_ms_min > 0.0
                && a.sequential_ms_min > 0.0
                && a.concurrent_ms_min.is_finite()
                && a.sequential_ms_min.is_finite(),
            "server: non-positive timing".into(),
        );
        check(
            a.prep_cache_misses >= 1 && a.prep_cache_hits > a.prep_cache_misses,
            format!(
                "server: cache traffic {}h/{}m — one shared fleet across {} \
                 studies must hit far more than it misses",
                a.prep_cache_hits, a.prep_cache_misses, a.studies
            ),
        );
        check(
            (0.0..=1.0).contains(&a.prep_cache_hit_rate),
            format!("server: hit rate {} outside [0, 1]", a.prep_cache_hit_rate),
        );

        let m = &a.multi_conn;
        let mf = floor(&baseline.server_multi);
        check(
            m.speedup >= mf,
            format!(
                "server multi_conn: speedup {:.2} below floor {mf:.2}",
                m.speedup
            ),
        );
        check(
            m.agreement,
            "server multi_conn: fronts diverged from standalone runs".into(),
        );
        check(
            m.connections >= 8 && m.studies >= 2 * m.connections,
            format!(
                "server multi_conn: {} connections / {} studies — the phase \
                 must drive at least 8 concurrent connections, 2 studies each",
                m.connections, m.studies
            ),
        );
        check(
            m.in_flight_peak <= m.max_concurrent,
            format!(
                "server multi_conn: in-flight peak {} exceeds the process-wide \
                 cap {} — the admission semaphore leaked",
                m.in_flight_peak, m.max_concurrent
            ),
        );
        check(
            m.in_flight_peak >= m.max_concurrent,
            format!(
                "server multi_conn: in-flight peak {} never reached the cap {} — \
                 the connections ran effectively sequentially",
                m.in_flight_peak, m.max_concurrent
            ),
        );
        check(
            m.queue_depth_peak >= 1,
            "server multi_conn: no study ever queued — the workload never \
             saturated the admission cap"
                .into(),
        );
        check(
            m.cancelled_done_frames == 0,
            format!(
                "server multi_conn: cancelled study produced {} Done frame(s) — \
                 a cancelled study's terminal frame must be Cancelled",
                m.cancelled_done_frames
            ),
        );
        check(
            m.studies_per_sec > 0.0 && m.ms_min > 0.0 && m.ms_min.is_finite(),
            "server multi_conn: non-positive timing".into(),
        );
    }

    if errors.is_empty() {
        println!("bench-guard: all {checks} checks passed");
    } else {
        for e in &errors {
            eprintln!("bench-guard: FAIL {e}");
        }
        std::process::exit(1);
    }
}
