//! `studybench`: the client-observed study benchmark.
//!
//! Starts the real `mgopt_serve` daemon over loopback TCP with its
//! in-flight cap set to the core count, drives it in a closed loop from
//! this one process, checks every answer against a standalone
//! `FleetProblem` + NSGA-II run, and prints the end-to-end metrics. With
//! `--trace 1` it instead runs the same load for a short window twice, once
//! untraced and right after it under `MGOPT_TRACE`, replays the traced
//! pass's request stream layer by layer in process, and prints the
//! per-layer ledger. See `README.md` here.
//!
//! ```text
//! bash studybench/run.sh --workload warm_search --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; the line before it
//! records the hardware and sample counts. Exit status 0 means every study
//! was answered correctly and every workload self-check held.

mod client;
mod ledger;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{Daemon, StudyTrace};
use ledger::{fronts_identical, LayerTimes, Replayer};
use mgopt_core::wire::{PlanPoint, StudyRequest};
use mgopt_core::PreparedCache;
use stats::{feasible_hypervolume, mean, median, tail_supported, windowed_percentile};
use workload::{study_id, study_line, Workload, CACHE_CAPACITY, HV_REFERENCE};

/// Daemon lives per untraced run. Each is set up and then driven for an
/// equal share of the timed window; `setup_s` is the median of the set-ups.
const LIVES: usize = 25;
/// How long a study may go without a frame before it counts as failed.
const STUDY_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest timed window of each pass of a traced run. The traced stream is
/// replayed one study at a time afterwards, so this bounds a traced run's
/// length; the per-layer medians need far fewer studies than the
/// end-to-end tails.
const TRACED_WINDOW_S: u64 = 10;
/// Studies per window of the windowed p95: the fewest that leave
/// `stats::MIN_TAIL_SAMPLES` beyond a window's p95.
const TAIL_WINDOW: usize = 200;
/// Sites per study on every workload (the paper's two-site fleet).
const SITES: u32 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    work_dir: PathBuf,
    commit: String,
}

const USAGE: &str = "usage: studybench --workload <warm_search|cold_prep|capped_stream> \
    --seed <n> --seconds <n> --trace <0|1> --daemon <mgopt_serve> --work-dir <dir> \
    [--commit <id>]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut kv: BTreeMap<String, String> = BTreeMap::new();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected argument `{key}`"));
            };
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            kv.insert(name.to_string(), value);
        }
        let mut take = |name: &str| kv.remove(name).ok_or_else(|| format!("missing `--{name}`"));
        let workload = take("workload")?;
        let args = Self {
            workload: Workload::parse(&workload)
                .ok_or_else(|| format!("unknown workload `{workload}`"))?,
            seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: take("seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
            },
            daemon: take("daemon")?.into(),
            work_dir: take("work-dir")?.into(),
            commit: take("commit").unwrap_or_else(|_| "unknown".into()),
        };
        if args.seconds == 0 {
            return Err("--seconds must be positive".into());
        }
        if let Some(extra) = kv.keys().next() {
            return Err(format!("unknown option `--{extra}`"));
        }
        Ok(args)
    }

    /// The timed window of each pass of a traced run.
    fn traced_window(&self) -> Duration {
        Duration::from_secs(self.seconds.min(TRACED_WINDOW_S))
    }
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The load shape of a run, shared by every daemon pass in it.
struct Load<'a> {
    args: &'a Args,
    connections: usize,
    /// Studies each connection keeps outstanding.
    outstanding: usize,
    in_flight_cap: usize,
}

/// A daemon that has answered its set-up studies.
struct SetUp {
    daemon: Daemon,
    secs: f64,
    /// Each set-up study with the request line it was sent as.
    warmups: Vec<(StudyTrace, String)>,
}

/// One or more daemon lives driven as one timed closed loop.
struct Pass {
    setup_s: Vec<f64>,
    /// The last life's set-up studies with their request lines.
    warmups: Vec<(StudyTrace, String)>,
    timed: Vec<StudyTrace>,
    /// Each life's peak RSS (`VmHWM`), MiB.
    rss_mb: Vec<f64>,
}

impl Pass {
    /// `Done` latencies in the order the studies were sent.
    fn latencies_ms(&self) -> Vec<f64> {
        let mut sent: Vec<&StudyTrace> = self.timed.iter().collect();
        sent.sort_by(|a, b| a.sent.total_cmp(&b.sent));
        sent.into_iter()
            .filter_map(StudyTrace::latency_ms)
            .collect()
    }

    /// `Done` frames over the time from the loop's start to the last one.
    /// Studies are only sent inside the window and the loop drains them,
    /// so every timed study is counted over the time it took.
    fn studies_per_s(&self) -> f64 {
        let done: Vec<f64> = self.timed.iter().filter_map(StudyTrace::done_at).collect();
        let last = done.iter().copied().fold(0.0, f64::max);
        if last > 0.0 {
            done.len() as f64 / last
        } else {
            0.0
        }
    }

    fn queued_frac(&self) -> f64 {
        let queued = self.timed.iter().filter(|s| s.queued.is_some()).count();
        queued as f64 / self.timed.len().max(1) as f64
    }
}

impl Load<'_> {
    /// Spawn a daemon, wait for its `Pong`, and run one set-up study per
    /// connection.
    fn set_up(&self, trace: Option<&Path>) -> Result<SetUp, String> {
        let start = Instant::now();
        let daemon = Daemon::spawn(&self.args.daemon, self.in_flight_cap, CACHE_CAPACITY, trace)?;
        daemon.ping(STUDY_TIMEOUT)?;
        let lines: Vec<(String, String)> = (0..self.connections)
            .map(|k| {
                let id = format!("w{k}");
                let line = study_line(&id, self.args.workload.warmup(self.args.seed, k as u64));
                (id, line)
            })
            .collect();
        let traces = client::drive(
            daemon.addr(),
            self.connections,
            1,
            None,
            STUDY_TIMEOUT,
            &|conn, j| (j == 0).then(|| lines[conn].clone()),
        )?;
        let secs = start.elapsed().as_secs_f64();
        if let Some(bad) = traces.iter().find(|s| s.done.is_none()) {
            return Err(format!("set-up study {} failed: {:?}", bad.id, bad.error));
        }
        let warmups = traces
            .into_iter()
            .map(|s| {
                let line = lines[s.conn].1.clone();
                (s, line)
            })
            .collect();
        Ok(SetUp {
            daemon,
            secs,
            warmups,
        })
    }

    /// `lives` daemons one after another, each set up and then driven for
    /// an equal share of `window`, its studies continuing the stream where
    /// the previous life stopped. Spread over the run, the set-ups sample
    /// the host across it, as the timed window does; a burst of set-ups at
    /// the start would sample one moment of a host whose speed drifts.
    /// Each life's times are shifted to follow the previous life's last
    /// `Done`, so the lives read as one loop.
    fn pass(&self, trace: Option<&Path>, lives: usize, window: Duration) -> Result<Pass, String> {
        let slice = window / lives as u32;
        let (w, seed, conns) = (self.args.workload, self.args.seed, self.connections);
        let mut pass = Pass {
            setup_s: Vec::with_capacity(lives),
            warmups: Vec::new(),
            timed: Vec::new(),
            rss_mb: Vec::with_capacity(lives),
        };
        let mut sent = vec![0u64; conns];
        let mut elapsed = 0.0;
        for _ in 0..lives {
            let SetUp {
                daemon,
                secs,
                warmups,
            } = self.set_up(trace)?;
            pass.setup_s.push(secs);
            pass.warmups = warmups;
            let base = sent.clone();
            let timed = client::drive(
                daemon.addr(),
                conns,
                self.outstanding,
                Some(slice),
                STUDY_TIMEOUT,
                &|conn, j| {
                    let id = study_id(conn, base[conn] + j);
                    let line = study_line(&id, w.study(seed, conns, conn, base[conn] + j));
                    Some((id, line))
                },
            )?;
            let rss_mb = daemon
                .peak_rss_mb()
                .ok_or("cannot read the daemon's VmHWM")?;
            daemon.shutdown()?;
            pass.rss_mb.push(rss_mb);
            let end = timed
                .iter()
                .filter_map(StudyTrace::done_at)
                .fold(0.0, f64::max);
            for mut s in timed {
                s.j += base[s.conn];
                sent[s.conn] = sent[s.conn].max(s.j + 1);
                s.shift(elapsed);
                pass.timed.push(s);
            }
            elapsed += end;
        }
        Ok(pass)
    }

    /// The study a timed trace was sent as.
    fn study_of(&self, s: &StudyTrace) -> StudyRequest {
        self.args
            .workload
            .study(self.args.seed, self.connections, s.conn, s.j)
    }

    /// The request line a timed study was sent as.
    fn line_of(&self, s: &StudyTrace) -> String {
        study_line(&s.id, self.study_of(s))
    }

    /// The request without its id: equal keys are the same study.
    fn spec_key(&self, s: &StudyTrace) -> String {
        serde_json::to_string(&self.study_of(s)).expect("study requests encode")
    }
}

/// Standalone fronts per distinct study, computed outside the timed window.
struct References {
    cache: PreparedCache,
    fronts: BTreeMap<String, Vec<PlanPoint>>,
}

impl References {
    fn new() -> Self {
        Self {
            cache: PreparedCache::new(64),
            fronts: BTreeMap::new(),
        }
    }

    fn front(&mut self, load: &Load, s: &StudyTrace) -> Result<&Vec<PlanPoint>, String> {
        let key = load.spec_key(s);
        if !self.fronts.contains_key(&key) {
            let front = ledger::standalone_front(&load.line_of(s), &self.cache)?;
            self.fronts.insert(key.clone(), front);
        }
        Ok(&self.fronts[&key])
    }

    /// Whether a study got a `Done` bit-identical to its standalone run.
    fn correct(&mut self, load: &Load, s: &StudyTrace) -> Result<bool, String> {
        let Some((_, done)) = &s.done else {
            return Ok(false);
        };
        Ok(fronts_identical(&done.front, self.front(load, s)?))
    }
}

/// Collects failed self-checks.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.0.push(what.into());
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("studybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The replay must run the layers untraced, whatever the environment.
    mgopt_telemetry::set_enabled(false);
    match run(&args) {
        Ok(report) => {
            println!("{}", report.context);
            println!("{}", report.result_json());
            if report.checks.0.is_empty() {
                ExitCode::SUCCESS
            } else {
                for c in &report.checks.0 {
                    eprintln!("studybench: CHECK FAILED: {c}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("studybench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    context: String,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    checks: Checks,
}

impl Report {
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.0.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    let connections = nproc.min(2);
    let load = Load {
        args,
        connections,
        outstanding: w.outstanding(nproc, connections),
        in_flight_cap: nproc,
    };
    let mut checks = Checks::default();
    let mut refs = References::new();

    // A traced run's untraced pass has the traced pass's shape and runs
    // right before it, so `telemetry.overhead_pct` compares like with like.
    let main = if args.trace {
        load.pass(None, 1, args.traced_window())?
    } else {
        load.pass(None, LIVES, Duration::from_secs(args.seconds))?
    };
    let attempted = main.timed.len();
    let mut correct = 0usize;
    for s in &main.timed {
        if refs.correct(&load, s)? {
            correct += 1;
        } else {
            eprintln!(
                "studybench: study {} failed: {}",
                s.id,
                s.error
                    .as_deref()
                    .unwrap_or("front differs from its standalone run")
            );
        }
    }
    let failed = attempted - correct;
    checks.require(attempted > 0, "no study was sent in the timed window");
    checks.require(
        failed == 0,
        format!("{failed} of {attempted} studies failed"),
    );
    workload_checks(&load, &main, &mut checks);

    let latencies = main.latencies_ms();
    if !args.trace {
        checks.require(
            tail_supported(latencies.len(), 950),
            format!(
                "{} latency samples leave fewer than {} beyond p95; raise --seconds",
                latencies.len(),
                stats::MIN_TAIL_SAMPLES
            ),
        );
    }
    let latency_p50 = median(&latencies);
    let first_fronts: Vec<f64> = main
        .timed
        .iter()
        .filter_map(StudyTrace::first_front_ms)
        .collect();

    // Mean over the distinct studies answered, so the value is exact for a
    // seed however many times each study repeated in the window.
    let mut hvs = BTreeMap::new();
    for s in main.timed.iter().filter(|s| s.done.is_some()) {
        let hv = feasible_hypervolume(refs.front(&load, s)?, &HV_REFERENCE);
        hvs.insert(load.spec_key(s), hv);
    }
    let front_hv = hvs.values().sum::<f64>() / hvs.len().max(1) as f64;
    checks.require(front_hv > 0.0, "no feasible point beats the reference");

    let context = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"hardware\": {}, \"samples\": {{\"latency\": {}, \"tail_percentile\": {}, \
         \"tail_windows\": {}, \"setups\": {}, \"distinct_studies\": {}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        hardware_json(&load),
        latencies.len(),
        stats::highest_supported_percentile(TAIL_WINDOW).map_or("null".to_string(), |p| format!(
            "\"p{:.1}\"",
            p as f64 / 10.0
        )),
        (latencies.len() / TAIL_WINDOW).max(1),
        main.setup_s.len(),
        hvs.len()
    );

    let metrics = if args.trace {
        per_layer(&load, &main, &mut refs, &mut checks)?
    } else {
        vec![
            metric("setup_s", median(&main.setup_s), "s"),
            metric("studies_per_s", main.studies_per_s(), "1/s"),
            metric("latency_p50_ms", latency_p50, "ms"),
            metric(
                "latency_p95_ms",
                windowed_percentile(&latencies, 950, TAIL_WINDOW),
                "ms",
            ),
            metric("first_front_mean_ms", mean(&first_fronts), "ms"),
            metric(
                "correct_rate",
                correct as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            metric("front_hv", front_hv, "t2/day"),
            metric("daemon_rss_mb", median(&main.rss_mb), "MiB"),
        ]
    };
    for m in &metrics {
        checks.require(m.value.is_finite(), format!("{} is not finite", m.name));
    }
    Ok(Report {
        context,
        attempted,
        failed,
        metrics,
        checks,
    })
}

/// Each workload must load the layer it claims to.
fn workload_checks(load: &Load, pass: &Pass, checks: &mut Checks) {
    let w = load.args.workload;
    let accepted: Vec<(u32, u32)> = pass
        .timed
        .iter()
        .filter_map(|s| s.accepted.map(|(_, h, m)| (h, m)))
        .collect();
    if w.expects_cache_hits() {
        checks.require(
            accepted.iter().all(|&(h, m)| h == SITES && m == 0),
            format!("{}: a timed study missed the prepared cache", w.name()),
        );
    } else {
        checks.require(
            accepted.iter().all(|&(h, _)| h == 0),
            format!("{}: a timed study hit the prepared cache", w.name()),
        );
    }
    let queued = pass.queued_frac();
    let in_flight = load.connections * load.outstanding;
    if w.expects_queueing() {
        checks.require(
            in_flight > load.in_flight_cap && queued > 0.0,
            format!("{}: no study waited for admission", w.name()),
        );
    } else {
        // By construction no more studies are outstanding than the cap
        // admits. A `Queued` frame can still appear: the daemon sends
        // `Done` before it frees the study's slot, so a closed-loop client
        // can send its next study into a slot that is about to free.
        checks.require(
            in_flight <= load.in_flight_cap,
            format!("{}: {in_flight} studies outstanding over the cap", w.name()),
        );
        if queued > 0.0 {
            eprintln!(
                "studybench: {}: {:.4} of studies saw a Queued frame (slot release race)",
                w.name(),
                queued
            );
        }
    }
    if w == Workload::CappedStream {
        checks.require(
            pass.timed.iter().all(|s| {
                s.done.as_ref().is_some_and(|(_, d)| {
                    !d.front.is_empty() && d.front.iter().all(|p| p.violation <= 0.0)
                })
            }),
            "capped_stream: a Done front was empty or infeasible",
        );
    }
}

/// The traced run: the untraced pass (already in `main`), the same load
/// traced, the traced stream replayed layer by layer, and the two views
/// checked against each other.
fn per_layer(
    load: &Load,
    main: &Pass,
    refs: &mut References,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let trace_path = load.args.work_dir.join(format!(
        "trace-{}-{}.jsonl",
        load.args.workload.name(),
        std::process::id()
    ));
    let traced = load.pass(Some(&trace_path), 1, load.args.traced_window())?;
    let trace_text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("read {}: {e}", trace_path.display()))?;
    let _ = std::fs::remove_file(&trace_path);
    let daemon = ledger::parse_trace(&trace_text)?;
    for s in &traced.timed {
        checks.require(
            refs.correct(load, s)?,
            format!("traced study {} failed", s.id),
        );
    }

    // Replay everything the traced daemon received, in the order sent.
    let mut timed: Vec<&StudyTrace> = traced.timed.iter().collect();
    timed.sort_by(|a, b| a.sent.total_cmp(&b.sent));
    let mut stream: Vec<(&StudyTrace, String)> =
        traced.warmups.iter().map(|(s, l)| (s, l.clone())).collect();
    stream.extend(timed.into_iter().map(|s| (s, load.line_of(s))));
    let replayer = Replayer::new(CACHE_CAPACITY);
    let mut replayed: Vec<(&StudyTrace, LayerTimes)> = Vec::with_capacity(stream.len());
    for (s, line) in &stream {
        replayed.push((s, replayer.replay(line)?));
    }

    // Cross-checks: the outside ledger replays the work the daemon did.
    let rows: u64 = replayed.iter().map(|(_, t)| t.rows).sum();
    checks.require(
        rows == daemon.rows,
        format!(
            "replayed microgrid.rows {rows} != {} summed over the daemon's fleet_eval events",
            daemon.rows
        ),
    );
    let (mut d_unique, mut d_sampled) = (0u64, 0u64);
    for (s, t) in &replayed {
        if let Some((_, done)) = &s.done {
            d_unique += done.unique_evaluations;
            d_sampled += done.sampled_trials;
            checks.require(
                fronts_identical(&done.front, &t.front),
                format!("replayed front of {} differs from the daemon's", s.id),
            );
        }
    }
    let r_unique: u64 = replayed.iter().map(|(_, t)| t.unique).sum();
    let r_sampled: u64 = replayed.iter().map(|(_, t)| t.sampled).sum();
    checks.require(
        (r_unique, r_sampled) == (d_unique, d_sampled),
        format!(
            "replayed unique/sampled {r_unique}/{r_sampled} != Done frames' {d_unique}/{d_sampled}"
        ),
    );

    // Per-study medians over the timed studies, which follow the set-up
    // studies in the replayed stream.
    let timed_layers: Vec<&LayerTimes> = replayed[traced.warmups.len()..]
        .iter()
        .map(|(_, t)| t)
        .collect();
    let med = |f: &dyn Fn(&LayerTimes) -> f64| {
        median(&timed_layers.iter().map(|t| f(t)).collect::<Vec<_>>())
    };
    let decode_us = med(&|t| t.decode_us);
    let prep_ms = med(&|t| t.prep_ms);
    let eval_ms = med(&|t| t.eval_ms);
    let search_ms = med(&|t| t.search_ms);
    let encode_us = med(&|t| t.encode_us);
    let accept_wait_ms = median(
        &traced
            .timed
            .iter()
            .filter_map(StudyTrace::accept_wait_ms)
            .collect::<Vec<_>>(),
    );

    // The daemon's own view of each timed study: admission wait and study
    // wall from its audit events; what the client saw beyond both is
    // delivery (socket transfer, request decode, frame writes).
    let (mut admission, mut wall, mut delivery) = (Vec::new(), Vec::new(), Vec::new());
    for s in &traced.timed {
        let seen = daemon.studies.get(&s.id).copied().unwrap_or_default();
        match (seen.admission_wait_ms(), seen.wall_ms, s.latency_ms()) {
            (Some(a), Some(w), Some(l)) => {
                admission.push(a);
                wall.push(w);
                delivery.push(l - a - w);
            }
            _ => checks.require(false, format!("no study_done event for {}", s.id)),
        }
    }
    let admission_wait_ms = median(&admission);
    let study_wall_ms = median(&wall);
    let delivery_ms = median(&delivery);

    // Coverage: replayed layers plus the daemon-side admission wait, over
    // the p50 of the pass those daemon-side times come from. The
    // client-side accept wait is not added: it already holds decode, prep
    // and any delay in delivering `Accepted`.
    let latency_p50 = median(&traced.latencies_ms());
    let work = decode_us / 1e3 + prep_ms + eval_ms + search_ms + encode_us / 1e3;
    let accounted = work + admission_wait_ms;
    eprintln!(
        "studybench: ledger accounts for {accounted:.3} of {latency_p50:.3} ms p50 \
         (replayed work {work:.3}, admission wait {admission_wait_ms:.3}); unaccounted \
         {:.3} ms. The daemon's trace puts {delivery_ms:.3} ms (median) outside its study \
         wall (socket transfer, request decode, frame delivery) and its study wall \
         {study_wall_ms:.3} ms {:+.3} ms off the uncontended replay (contention between \
         concurrent studies).",
        latency_p50 - accounted,
        study_wall_ms - (work - decode_us / 1e3)
    );

    let sum = |f: &dyn Fn(&LayerTimes) -> u64| -> u64 { timed_layers.iter().map(|t| f(t)).sum() };
    let eval_ns: f64 = timed_layers.iter().map(|t| t.eval_ms * 1e6).sum();
    let timed_rows = sum(&|t| t.rows);
    let (hits, misses): (u32, u32) = traced
        .timed
        .iter()
        .filter_map(|s| s.accepted.map(|(_, h, m)| (h, m)))
        .fold((0, 0), |(a, b), (h, m)| (a + h, b + m));
    let bytes: Vec<f64> = traced.timed.iter().map(|s| s.bytes_in as f64).collect();
    let memo_hits = sum(&|t| t.memo_hits);
    let memo_misses = sum(&|t| t.memo_misses);

    Ok(vec![
        metric("wire.decode_us", decode_us, "us"),
        metric("wire.encode_us_per_study", encode_us, "us"),
        metric(
            "wire.bytes_out_per_study",
            bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
            "bytes",
        ),
        metric("wire.delivery_ms", delivery_ms, "ms"),
        metric("server.accept_wait_ms", accept_wait_ms, "ms"),
        metric("server.admission_wait_ms", admission_wait_ms, "ms"),
        metric("server.study_wall_ms", study_wall_ms, "ms"),
        metric("server.queued_frac", traced.queued_frac(), "ratio"),
        metric(
            "server.queued_peak",
            traced
                .timed
                .iter()
                .filter_map(|s| s.queued.map(|(_, a)| a))
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "cache.hit_rate",
            f64::from(hits) / f64::from((hits + misses).max(1)),
            "ratio",
        ),
        metric("core.prep_ms", prep_ms, "ms"),
        metric("weather.generate_ms", med(&|t| t.weather_ms), "ms"),
        metric("sam.pvwatts_ms", med(&|t| t.pvwatts_ms), "ms"),
        metric("sam.wind_ms", med(&|t| t.wind_ms), "ms"),
        metric("gridcarbon.ci_ms", med(&|t| t.ci_ms), "ms"),
        metric("gridcarbon.price_ms", med(&|t| t.price_ms), "ms"),
        metric("workload.load_ms", med(&|t| t.load_ms), "ms"),
        metric("prep.other_ms", med(&|t| t.prep_other_ms), "ms"),
        metric("microgrid.eval_ms", eval_ms, "ms"),
        metric("microgrid.cohorts", med(&|t| t.cohorts as f64), "count"),
        metric("microgrid.rows", med(&|t| t.rows as f64), "count"),
        metric(
            "microgrid.ns_per_row",
            eval_ns / timed_rows.max(1) as f64,
            "ns",
        ),
        metric("microgrid.lane_util", daemon.lane_util(), "ratio"),
        metric("optimizer.search_ms", search_ms, "ms"),
        metric(
            "optimizer.generations",
            med(&|t| f64::from(t.generations)),
            "count",
        ),
        metric(
            "optimizer.unique_frac",
            r_unique as f64 / r_sampled.max(1) as f64,
            "ratio",
        ),
        metric(
            "optimizer.memo_hit_rate",
            memo_hits as f64 / (memo_hits + memo_misses).max(1) as f64,
            "ratio",
        ),
        metric(
            "telemetry.overhead_pct",
            (1.0 - traced.studies_per_s() / main.studies_per_s()) * 100.0,
            "%",
        ),
        metric("ledger.coverage", accounted / latency_p50, "ratio"),
    ])
}

/// Hardware and build identity, recorded with every result.
fn hardware_json(load: &Load) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"in_flight_cap\": {}, \"connections\": {}, \
         \"outstanding\": {}, \"rayon_threads\": {}, \"commit\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        json_str(&cpu),
        load.in_flight_cap,
        load.connections,
        load.outstanding,
        rayon::current_num_threads(),
        json_str(&load.args.commit)
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings encode")
}
