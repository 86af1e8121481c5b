#![forbid(unsafe_code)]
//! Shared harness code for the experiment binaries and the benchmark
//! artifact emitters.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it from scratch and writes a JSON artifact next to the
//! printed report:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig2_pareto` | Figure 2 (both sites) |
//! | `table1_2_candidates` | Tables 1 and 2 |
//! | `fig3_projection` | Figure 3 (both sites) |
//! | `fig4_coverage` | Figure 4 (Houston) |
//! | `search_performance` | §4.4 comparison |
//! | `beyond_carbon` | §4.3 additional objectives |
//!
//! ## Environment variables
//!
//! | Variable | Effect |
//! |---|---|
//! | `MGOPT_FAST=1` | Reduced 27-point composition space (smoke tests). |
//! | `MGOPT_DENSE="<mw>,<mwh>"` | Denser-than-paper grid: solar step in MW, battery step in MWh (e.g. `"2,5"`). Malformed values abort with a usage message. |
//! | `MGOPT_TRACE=<path>` | Structured JSONL telemetry trace (spans, counters, per-generation search events) written to `path`; summarize with the `trace_report` bin. Disabled costs one relaxed atomic load per instrumented call. |
//! | `MGOPT_THREADS="1,2,4"` | Thread counts for the benchmark bins' scaling sweep (comma-separated positive integers; default `1,2,4`). Each count is clamped to available cores — the artifact records both requested and effective counts. Malformed values abort with a usage message. |
//! | `MGOPT_SERVER_ADDR=<host:port>` | `mgopt_serve` binds this TCP address instead of serving stdin/stdout (port `0` picks a free port, printed on stderr). |
//! | `MGOPT_ACCEPTORS=<n>` | Daemon: max concurrently served TCP connections (default 8); further connections wait in the accept queue. |
//! | `MGOPT_SERVER_CONCURRENCY=<n>` | Daemon: process-wide max in-flight studies across all connections (default 4); excess studies wait in FIFO order and announce themselves with a `Queued` frame. |
//! | `MGOPT_SERVER_CACHE=<n>` | Daemon: prepared-scenario cache capacity (default 8, LRU). |
//! | `MGOPT_SERVER_MAX_FRAME=<bytes>` | Daemon: max request-line length (default 1048576); longer lines get an `Oversized` error frame. |
//! | `MGOPT_BLESS=1` | `cargo test --test wire_golden` rewrites the golden wire fixtures (`tests/fixtures/wire/*.jsonl`) instead of comparing against them. Commit the refreshed fixtures together with the `WIRE_VERSION` bump that justified them. |
//!
//! The default (no variables) regenerates the full 1,089-point studies
//! untraced.

use std::path::PathBuf;

use mgopt_core::wire::{FleetSpec, PlanPoint, StudyBudget, StudyRequest};
use mgopt_core::{FleetProblem, FleetScenario, PreparedScenario, ScenarioConfig};
use mgopt_microgrid::CompositionSpace;
use mgopt_optimizer::{Nsga2Config, Nsga2Optimizer, SearchControl};
use mgopt_telemetry::{self as telemetry, Counter, Stage};
use serde::{Deserialize, Serialize, Value};

/// `true` when `MGOPT_FAST=1` (reduced spaces for smoke runs).
pub fn fast_mode() -> bool {
    std::env::var("MGOPT_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The denser-than-paper grid requested via `MGOPT_DENSE="<mw>,<mwh>"`
/// (solar step in MW, battery step in MWh), if any.
///
/// A malformed value prints the [`parse_dense`] error (which states the
/// expected format) and exits with status 2 — a silently ignored typo
/// would mislabel benchmark artifacts, and a mid-bench panic buries the
/// usage message under a backtrace.
pub fn dense_steps() -> Option<(f64, f64)> {
    let v = std::env::var("MGOPT_DENSE").ok()?;
    match parse_dense(&v) {
        Ok(steps) => Some(steps),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Parse an `MGOPT_DENSE` value: two comma-separated positive numbers
/// (solar step in MW, battery step in MWh). The `Err` message states the
/// expected format.
pub fn parse_dense(v: &str) -> Result<(f64, f64), String> {
    const USAGE: &str = "want \"<step_mw>,<step_mwh>\" with positive numbers, e.g. \"2,5\"";
    let parse = |s: &str| {
        s.trim()
            .parse::<f64>()
            .map_err(|_| format!("MGOPT_DENSE: bad number {s:?} ({USAGE})"))
    };
    match v.split(',').collect::<Vec<_>>()[..] {
        [mw, mwh] => {
            let steps = (parse(mw)?, parse(mwh)?);
            if steps.0 > 0.0 && steps.1 > 0.0 {
                Ok(steps)
            } else {
                Err(format!("MGOPT_DENSE: non-positive step in {v:?} ({USAGE})"))
            }
        }
        _ => Err(format!("MGOPT_DENSE: got {v:?} ({USAGE})")),
    }
}

/// Thread counts for the scaling sweep, from `MGOPT_THREADS="1,2,4"`
/// (comma-separated positive integers); default `[1, 2, 4]`.
///
/// Malformed values print the [`parse_threads`] error and exit with
/// status 2, like [`dense_steps`] — a silently ignored typo would
/// mislabel the scaling entries.
pub fn thread_counts() -> Vec<usize> {
    let Ok(v) = std::env::var("MGOPT_THREADS") else {
        return vec![1, 2, 4];
    };
    match parse_threads(&v) {
        Ok(counts) => counts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Parse an `MGOPT_THREADS` value: comma-separated positive integers.
/// The `Err` message states the expected format.
pub fn parse_threads(v: &str) -> Result<Vec<usize>, String> {
    const USAGE: &str = "want comma-separated positive integers, e.g. \"1,2,4\"";
    v.split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            Ok(_) => Err(format!("MGOPT_THREADS: zero in {v:?} ({USAGE})")),
            Err(_) => Err(format!("MGOPT_THREADS: bad count {s:?} ({USAGE})")),
        })
        .collect()
}

/// One point of a benchmark bin's thread-scaling sweep: the full workload
/// re-timed with the worker pool capped at `threads_requested`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThreadScaling {
    /// Thread count asked for (an `MGOPT_THREADS` entry).
    pub threads_requested: usize,
    /// Worker count actually used after clamping to available cores —
    /// on a 1-core runner every request runs with 1 thread, and the
    /// artifact says so instead of implying a parallel measurement.
    pub threads_effective: usize,
    /// Fastest observed wall-clock for the workload at this pool size, ms.
    pub ms_min: f64,
}

/// Time `workload` at each requested thread count via
/// [`rayon::set_num_threads`], restoring the unlimited pool afterwards.
/// `reps` timings per count, keeping the fastest (see [`min_ms`]). Each
/// timing first runs `setup`, outside the clock, and hands its value to
/// the workload (`|| ()` when there is nothing to set up).
pub fn scaling_sweep<S>(
    counts: &[usize],
    reps: usize,
    mut setup: impl FnMut() -> S,
    mut workload: impl FnMut(S),
) -> Vec<ThreadScaling> {
    let sweep = counts
        .iter()
        .map(|&req| {
            rayon::set_num_threads(req);
            let effective = rayon::current_num_threads();
            let samples: Vec<f64> = (0..reps.max(1))
                .map(|_| {
                    let input = setup();
                    let t0 = std::time::Instant::now();
                    workload(input);
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            ThreadScaling {
                threads_requested: req,
                threads_effective: effective,
                ms_min: min_ms(&samples),
            }
        })
        .collect();
    rayon::set_num_threads(0);
    sweep
}

/// The search space for the current mode: `MGOPT_FAST=1` shrinks it to 27
/// points, `MGOPT_DENSE="<mw>,<mwh>"` densifies the paper envelope (see
/// [`CompositionSpace::dense`]), default is the paper's 1,089-point grid.
pub fn space() -> CompositionSpace {
    if fast_mode() {
        CompositionSpace::tiny()
    } else if let Some((mw, mwh)) = dense_steps() {
        CompositionSpace::dense(mw, mwh)
    } else {
        CompositionSpace::paper()
    }
}

/// Prepared Houston scenario (paper configuration).
pub fn houston() -> PreparedScenario {
    ScenarioConfig {
        space: space(),
        ..ScenarioConfig::paper_houston()
    }
    .prepare()
}

/// Prepared Berkeley scenario (paper configuration).
pub fn berkeley() -> PreparedScenario {
    ScenarioConfig {
        space: space(),
        ..ScenarioConfig::paper_berkeley()
    }
    .prepare()
}

/// The server bench bins' study: the paper fleet on 8 compositions per
/// site (0 or 4 turbines, 0 or 16 MW solar, 0 or 22.5 MWh battery),
/// uncapped.
pub fn paper_study(
    seed: u64,
    population_size: usize,
    max_trials: usize,
    stream: bool,
) -> StudyRequest {
    StudyRequest {
        fleet: FleetSpec::Preset("paper".into()),
        space: Some(CompositionSpace {
            wind_choices: vec![0, 4],
            solar_choices_kw: vec![0.0, 16_000.0],
            battery_choices_kwh: vec![0.0, 22_500.0],
        }),
        objectives: None,
        budget: StudyBudget {
            population_size,
            max_trials,
            seed,
        },
        peak_cap_kw: None,
        stream,
    }
}

/// A long streamed study for a client to cancel mid-flight: the bins'
/// 8-point space on the paper sites at `scenario_seed` (also its search
/// seed), under a 1 kW peak cap. Give each victim a scenario seed no
/// other study in its process prepares. Then every plan it evaluates
/// takes the plan walk, so it is still walking when the cancel arrives:
/// no stored plan peak of its fleet exists for the memo to answer, no
/// 8-point plan's summed site peaks meet the cap, and NSGA-II never
/// evaluates a genome twice.
pub fn victim_study(scenario_seed: u64, population_size: usize, max_trials: usize) -> StudyRequest {
    let mut fleet = FleetScenario::paper();
    for m in &mut fleet.members {
        m.scenario.seed = scenario_seed;
    }
    StudyRequest {
        fleet: FleetSpec::Inline(fleet),
        peak_cap_kw: Some(1.0),
        ..paper_study(scenario_seed, population_size, max_trials, true)
    }
}

/// The front a standalone run (no daemon) produces for `study`: the
/// problem, peak cap and NSGA-II budget the daemon builds for it, so a
/// daemon's `Done` front must equal this one bit for bit.
///
/// # Panics
/// Panics on a study the wire layer rejects.
pub fn standalone_front(study: &StudyRequest) -> Vec<PlanPoint> {
    let fleet = study.resolved_scenario().expect("valid study").prepare();
    let mut problem = FleetProblem::new(&fleet);
    if let Some(cap) = study.peak_cap_kw {
        problem = problem.with_peak_cap_kw(cap);
    }
    let optimizer = Nsga2Optimizer::new(Nsga2Config {
        population_size: study.budget.population_size,
        max_trials: study.budget.max_trials,
        seed: study.budget.seed,
        ..Nsga2Config::default()
    });
    let mut last = Vec::new();
    optimizer.run_controlled(&problem, &mut |view| {
        last = view
            .front
            .iter()
            .map(|(genome, eval)| PlanPoint {
                genome: genome.clone(),
                plan: problem.plan(genome),
                objectives: eval.objectives.clone(),
                violation: eval.total_violation(),
            })
            .collect();
        SearchControl::Continue
    });
    last
}

/// Fastest observed wall-clock of a timing series: on shared hosts timing
/// noise is strictly additive (interference only ever slows a run down),
/// so the minimum is the robust estimator of intrinsic cost.
pub fn min_ms(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One stage row of a [`TelemetrySection`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetryStage {
    /// Stage name (`"batch.kernel"`, …).
    pub name: String,
    /// Completed spans.
    pub calls: u64,
    /// Summed span time, ms (CPU-time semantics across worker threads).
    pub total_ms: f64,
}

/// The `telemetry` section of `BENCH_fleet_search.json`: per-stage time
/// breakdown plus engine throughput and memo-cache effectiveness from
/// instrumented (telemetry-enabled) runs. `fleet_search` checks it before
/// it exits.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySection {
    /// Stages with at least one recorded span.
    pub stages: Vec<TelemetryStage>,
    /// Candidate-steps pushed through the engine kernels per second of
    /// kernel CPU time (`(batch.rows + fleet.rows) / kernel seconds`).
    pub evals_per_sec: f64,
    /// NSGA-II memo-cache hit rate over sampled genomes, `[0, 1]`; zero
    /// when the run recorded no cache activity.
    pub cache_hit_rate: f64,
}

/// Snapshot the current telemetry aggregates into an artifact section.
///
/// Call after an instrumented run, having called
/// [`mgopt_telemetry::reset_stats`] at the start of the window you want
/// attributed.
pub fn collect_telemetry_section() -> TelemetrySection {
    let stages: Vec<TelemetryStage> = telemetry::stage_totals()
        .into_iter()
        .filter(|s| s.calls > 0)
        .map(|s| TelemetryStage {
            name: s.name.to_string(),
            calls: s.calls,
            total_ms: s.total_ms,
        })
        .collect();
    let rows =
        telemetry::counter_value(Counter::BatchRows) + telemetry::counter_value(Counter::FleetRows);
    let kernel_ms =
        telemetry::stage_ms(Stage::BatchKernel) + telemetry::stage_ms(Stage::FleetKernel);
    let evals_per_sec = if kernel_ms > 0.0 {
        rows as f64 / (kernel_ms / 1e3)
    } else {
        0.0
    };
    let hits = telemetry::counter_value(Counter::CacheHits);
    let misses = telemetry::counter_value(Counter::CacheMisses);
    let cache_hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    TelemetrySection {
        stages,
        evals_per_sec,
        cache_hit_rate,
    }
}

/// The repository root, where the committed `BENCH_*.json` artifacts and
/// their floors (`BENCH_baseline.json`) live.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Write a JSON artifact under `results/` (best effort — printing is the
/// primary output; artifact failures only warn).
pub fn write_artifact<T: Serialize>(name: &str, value: &T) {
    let dir = repo_root().join("results");
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: could not create results dir");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}

/// Write a committed bench artifact (`file`, e.g. `BENCH_sweep.json`) at
/// the repository root and print its path.
///
/// # Panics
/// Panics when the artifact cannot be written: it is the bin's
/// deliverable.
pub fn write_bench_artifact<T: Serialize>(file: &str, value: &T) {
    let path = repo_root().join(file);
    let json = serde_json::to_string_pretty(value).expect("serialize bench artifact");
    std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[artifact] {}", path.display());
}

/// The committed speedup floor `name`: that entry's `baseline_speedup ×
/// (1 − tolerance)` in `BENCH_baseline.json`. The `Err` names an unknown
/// floor, or says why the file is unusable (a tolerance outside [0, 1)
/// would make every floor vacuous or negative).
pub fn floor(name: &str) -> Result<f64, String> {
    let path = repo_root().join("BENCH_baseline.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let baseline: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCH_baseline.json: {e}"))?;
    let number = |v: Option<&Value>| v.and_then(|v| f64::from_value(v).ok());
    let tolerance = number(baseline.get("tolerance"))
        .filter(|t| (0.0..1.0).contains(t))
        .ok_or("BENCH_baseline.json: `tolerance` must be a number in [0, 1)")?;
    let speedup = number(baseline.get(name).and_then(|e| e.get("baseline_speedup")))
        .ok_or_else(|| format!("BENCH_baseline.json: no floor named `{name}`"))?;
    Ok(speedup * (1.0 - tolerance))
}

/// The checks a bench bin makes on the numbers it measured. Every failed
/// check is kept, so one run reports all of them, and
/// [`Checks::finish`] ends the process.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Record `msg` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl Into<String>) {
        if !ok {
            self.failures.push(msg.into());
        }
    }

    /// Check that `speedup`, labelled `what`, reaches the committed
    /// [`floor`] `name`.
    pub fn floor(&mut self, name: &str, what: &str, speedup: f64) {
        match floor(name) {
            Ok(f) => self.check(
                speedup >= f,
                format!("{what} {speedup:.2} below the `{name}` floor {f:.2}"),
            ),
            Err(e) => self.failures.push(e),
        }
    }

    /// Check that every timing in `ms` is positive and finite.
    pub fn timings(&mut self, ms: impl IntoIterator<Item = f64>) {
        let bad: Vec<f64> = ms
            .into_iter()
            .filter(|t| !(*t > 0.0 && t.is_finite()))
            .collect();
        self.check(
            bad.is_empty(),
            format!("timings {bad:?} ms not positive and finite"),
        );
    }

    /// `Err` listing every failed check, one `{bin}: FAIL` line each, if
    /// any failed.
    pub fn result(&self, bin: &str) -> Result<(), String> {
        if self.failures.is_empty() {
            return Ok(());
        }
        let lines: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("{bin}: FAIL {f}"))
            .collect();
        Err(lines.join("\n"))
    }

    /// Print the [`Checks::result`] and exit with status 1 if any check
    /// failed.
    pub fn finish(self, bin: &str) {
        match self.result(bin) {
            Ok(()) => println!("{bin}: all checks passed"),
            Err(report) => {
                eprintln!("{report}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_optimizer::Problem;

    #[test]
    fn space_respects_fast_mode_env() {
        // Can't mutate the environment safely in parallel tests; just
        // check both space shapes are available.
        assert_eq!(CompositionSpace::paper().len(), 1_089);
        assert_eq!(CompositionSpace::tiny().len(), 27);
    }

    #[test]
    fn scenarios_prepare() {
        std::env::set_var("MGOPT_FAST", "1");
        let h = houston();
        assert_eq!(h.site_name(), "Houston, TX");
        std::env::remove_var("MGOPT_FAST");
    }

    #[test]
    fn parse_dense_accepts_two_positive_numbers() {
        assert_eq!(parse_dense("2,5"), Ok((2.0, 5.0)));
        assert_eq!(parse_dense(" 0.5 , 7.5 "), Ok((0.5, 7.5)));
    }

    #[test]
    fn parse_dense_errors_state_the_expected_format() {
        for bad in ["", "2", "2,5,9", "two,5", "2,", "-2,5", "0,5"] {
            let err = parse_dense(bad).unwrap_err();
            assert!(
                err.contains("MGOPT_DENSE") && err.contains("<step_mw>,<step_mwh>"),
                "unhelpful message for {bad:?}: {err}"
            );
        }
        assert!(parse_dense("two,5").unwrap_err().contains("bad number"));
        assert!(parse_dense("0,5").unwrap_err().contains("non-positive"));
    }

    #[test]
    fn parse_threads_accepts_positive_integer_lists() {
        assert_eq!(parse_threads("1,2,4"), Ok(vec![1, 2, 4]));
        assert_eq!(parse_threads(" 8 "), Ok(vec![8]));
        assert_eq!(parse_threads("4,2,1"), Ok(vec![4, 2, 1]));
    }

    #[test]
    fn parse_threads_errors_state_the_expected_format() {
        for bad in ["", "0", "1,0,4", "two", "1,,4", "-1", "1.5"] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.contains("MGOPT_THREADS") && err.contains("positive integers"),
                "unhelpful message for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn standalone_front_honours_the_peak_cap() {
        // The `paper-tiny` grid holds plans that import nothing (10
        // turbines and 60 MWh at both sites), which meet any cap; on the
        // bins' 8-point space every plan imports.
        let study = |peak_cap_kw| StudyRequest {
            fleet: FleetSpec::Preset("paper-tiny".into()),
            peak_cap_kw,
            ..paper_study(1, 8, 16, false)
        };
        let capped = standalone_front(&study(Some(1.0)));
        assert!(!capped.is_empty());
        assert!(capped.iter().all(|p| p.violation > 0.0), "{capped:?}");
        let free = standalone_front(&study(None));
        assert!(!free.is_empty());
        assert!(free.iter().all(|p| p.violation == 0.0), "{free:?}");
    }

    #[test]
    fn no_victim_plan_meets_its_cap() {
        // Every 8-point plan on the victim fleets the bins use breaks the
        // 1 kW cap, so its summed site peaks, which bound its concurrent
        // peak from above, break it too.
        for seed in [999, 1_000] {
            let study = victim_study(seed, 8, 16);
            let fleet = study.resolved_scenario().expect("valid study").prepare();
            let problem = FleetProblem::new(&fleet).with_peak_cap_kw(1.0);
            let plans: Vec<Vec<u16>> = (0..64u16).map(|k| vec![k / 8, k % 8]).collect();
            for (plan, e) in plans.iter().zip(problem.evaluate_batch_constrained(&plans)) {
                assert!(
                    e.total_violation() > 0.0,
                    "seed {seed}: plan {plan:?} meets 1 kW"
                );
            }
        }
    }

    #[test]
    fn scaling_sweep_runs_each_count_and_restores_the_pool() {
        let before = rayon::current_num_threads();
        let (mut setups, mut runs) = (0usize, 0usize);
        let sweep = scaling_sweep(&[1, 2], 3, || setups += 1, |()| runs += 1);
        assert_eq!((setups, runs), (6, 6));
        assert_eq!(sweep.len(), 2);
        for (point, req) in sweep.iter().zip([1usize, 2]) {
            assert_eq!(point.threads_requested, req);
            assert!(point.threads_effective >= 1 && point.threads_effective <= req);
            assert!(point.ms_min >= 0.0 && point.ms_min.is_finite());
        }
        assert_eq!(rayon::current_num_threads(), before);
    }

    #[test]
    fn every_committed_floor_reads_back_from_the_baseline() {
        let text = std::fs::read_to_string(repo_root().join("BENCH_baseline.json")).unwrap();
        let baseline: Value = serde_json::from_str(&text).unwrap();
        let number = |v: &Value| f64::from_value(v).unwrap();
        let tolerance = number(baseline.get("tolerance").unwrap());
        let names = [
            "sweep",
            "fleet",
            "fleet_search",
            "simd",
            "server",
            "server_multi",
        ];
        let entries: Vec<&str> = baseline
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let floors: Vec<&str> = entries
            .into_iter()
            .filter(|k| !["comment", "tolerance"].contains(k))
            .collect();
        assert_eq!(floors, names, "a floor no bin reads, or one missing");
        for name in names {
            let entry = baseline.get(name).unwrap();
            let speedup = number(entry.get("baseline_speedup").unwrap());
            assert_eq!(floor(name), Ok(speedup * (1.0 - tolerance)), "{name}");
        }
    }

    #[test]
    fn an_unknown_floor_is_an_error_naming_it() {
        let err = floor("no_such_floor").unwrap_err();
        assert!(err.contains("no floor named `no_such_floor`"), "{err}");
    }

    #[test]
    fn checks_report_every_failure_and_fail_only_on_one() {
        let mut checks = Checks::default();
        checks.check(true, "holds");
        checks.floor("sweep", "speedup", f64::INFINITY);
        checks.timings([0.5, 1e3]);
        assert_eq!(checks.result("bin"), Ok(()));
        checks.check(false, "first");
        checks.floor("sweep", "speedup", f64::NAN);
        checks.floor("no_such_floor", "speedup", f64::INFINITY);
        checks.timings([1.0, 0.0, f64::INFINITY]);
        checks.check(true, "holds");
        checks.check(false, "last");
        let report = checks.result("bin").unwrap_err();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 5, "{report}");
        assert_eq!(lines[0], "bin: FAIL first");
        assert!(lines[1].starts_with("bin: FAIL speedup NaN below the `sweep` floor"));
        assert!(lines[2].contains("no floor named `no_such_floor`"));
        assert_eq!(
            lines[3],
            "bin: FAIL timings [0.0, inf] ms not positive and finite"
        );
        assert_eq!(lines[4], "bin: FAIL last");
    }
}
