#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-telemetry
//!
//! Zero-dependency observability for the evaluation engines and search
//! layers: scoped span timers with thread-aware aggregation, atomic
//! counters, and an optional structured JSONL event sink.
//!
//! ## Design constraints
//!
//! The instrumented code is the workspace's hottest: the columnar batch
//! kernel walks hundreds of millions of candidate-steps per sweep. The
//! rules that keep instrumentation honest:
//!
//! * **Disabled means free.** Every entry point checks [`enabled`] first —
//!   a single relaxed atomic load — and returns immediately when tracing
//!   is off. No allocation, no time syscall, no lock is ever taken on the
//!   disabled path. `tests/telemetry_determinism.rs` pins the disabled
//!   path to zero recorded events and unchanged counters, and the
//!   `fleet_search` bench bin records the measured enabled/disabled A/B.
//! * **Instrument at chunk granularity, never per step.** Spans and
//!   counters are recorded once per evaluation chunk (64 candidates × a
//!   year of steps), so even the *enabled* overhead is thousands of
//!   instructions amortized over ~10⁶ candidate-steps.
//! * **No dependencies.** The crate is std-only: the JSONL writer and the
//!   line parser in [`parse`] are hand-rolled for the flat events this
//!   layer emits, so nothing heavier than `std::sync` enters the engine
//!   dependency graph.
//!
//! ## Pieces
//!
//! * [`enabled`] / [`set_enabled`] — the master switch. The first check
//!   initializes from the `MGOPT_TRACE=<path>` environment variable
//!   (opening the JSONL sink); tests and bench harnesses flip it
//!   programmatically.
//! * [`span`] — a scoped timer: the returned guard adds its elapsed time
//!   to a per-[`Stage`] atomic aggregate on drop. Spans from concurrent
//!   worker threads sum, so stage totals have CPU-time semantics (they
//!   can exceed wall clock on multi-core runs).
//! * [`Counter`] / [`add`] — named atomic counters (chunks walked,
//!   candidate-rows evaluated, memo-cache hits…).
//! * [`event::Event`] — a builder for one flat JSONL event, written to the
//!   installed [`Sink`].
//! * [`stage_totals`] / [`counters`] / [`reset_stats`] — snapshots for
//!   reports, bench artifacts and tests.
//!
//! ## Event stream
//!
//! With `MGOPT_TRACE=trace.jsonl` set, the instrumented layers emit one
//! JSON object per line. Kinds currently written: `trace_start`,
//! `batch_eval` and `fleet_eval` (engine passes: candidates, steps,
//! chunks, rows, prepare/kernel/wall ms; `fleet_eval` also splits its
//! rows into walked rows and per-site table hits, and marks capped
//! cohorts with the plans their plan-peak memo answered), `generation` (NSGA-II: cohort,
//! cache hits/misses, feasible count, front size, 2-D hypervolume, best
//! objectives), `rung` (successive halving) and `sampler` (exhaustive /
//! random cohorts). `trace_report` in `mgopt-bench` summarizes and
//! schema-checks a trace.

pub mod event;
pub mod parse;

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub use event::Event;

/// The tracing switch: uninitialized until the first [`enabled`] call or
/// an explicit [`set_enabled`].
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Serializes sink installation and lazy env initialization.
static SETUP: Mutex<()> = Mutex::new(());

/// `true` when telemetry is collecting. This is the hot-path check: a
/// single relaxed atomic load once initialized.
///
/// The first call initializes from the environment: `MGOPT_TRACE=<path>`
/// enables collection and installs a JSONL file sink at `path` (an
/// unwritable path warns once and disables). Unset or empty disables.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

/// Flip collection on or off, overriding (or preempting) the environment.
/// Enabling without an installed sink collects spans and counters only —
/// events are dropped; bench harnesses use exactly that mode.
pub fn set_enabled(on: bool) {
    let _guard = SETUP.lock().unwrap_or_else(|e| e.into_inner());
    trace_epoch(); // pin the timestamp origin before events can race it
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Cold path of [`enabled`]: resolve `MGOPT_TRACE` exactly once.
#[cold]
fn init_from_env() -> bool {
    let _guard = SETUP.lock().unwrap_or_else(|e| e.into_inner());
    let state = STATE.load(Ordering::Relaxed);
    if state != UNINIT {
        return state == ON;
    }
    trace_epoch();
    let on = match std::env::var("MGOPT_TRACE") {
        Ok(path) if !path.is_empty() => match std::fs::File::create(&path) {
            Ok(file) => {
                *sink_slot().lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(Box::new(FileSink(std::io::BufWriter::new(file))));
                true
            }
            Err(e) => {
                eprintln!("mgopt-telemetry: cannot open MGOPT_TRACE={path}: {e}; tracing disabled");
                false
            }
        },
        _ => false,
    };
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    if on {
        Event::new("trace_start")
            .str("crate", "mgopt-telemetry")
            .u64("pid", std::process::id() as u64)
            .emit();
    }
    on
}

/// Where a line of structured trace output goes.
pub trait Sink: Send {
    /// Write one complete JSONL line (no trailing newline).
    fn line(&mut self, line: &str);
    /// Flush any buffering (called when the sink is removed).
    fn flush(&mut self) {}
}

/// A [`Sink`] appending newline-terminated lines to a buffered file,
/// flushing per line so a crashed process still leaves a readable trace.
struct FileSink(std::io::BufWriter<std::fs::File>);

impl Sink for FileSink {
    fn line(&mut self, line: &str) {
        let _ = writeln!(self.0, "{line}");
        let _ = self.0.flush();
    }

    fn flush(&mut self) {
        let _ = self.0.flush();
    }
}

/// A [`Sink`] capturing lines in memory — the test oracle.
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// Create a sink plus the shared handle its captured lines can be read
    /// through after installation.
    pub fn new() -> (Self, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                lines: Arc::clone(&lines),
            },
            lines,
        )
    }
}

impl Sink for MemorySink {
    fn line(&mut self, line: &str) {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(line.to_string());
    }
}

fn sink_slot() -> &'static Mutex<Option<Box<dyn Sink>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Sink>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Install (or replace) the event sink. Does not flip [`enabled`] — a
/// sink only receives events while collection is on.
pub fn install_sink(sink: Box<dyn Sink>) {
    let _guard = SETUP.lock().unwrap_or_else(|e| e.into_inner());
    let mut slot = sink_slot().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(mut old) = slot.replace(sink) {
        old.flush();
    }
}

/// Remove the installed sink (flushed), if any.
pub fn take_sink() -> Option<Box<dyn Sink>> {
    let _guard = SETUP.lock().unwrap_or_else(|e| e.into_inner());
    let mut sink = sink_slot().lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(s) = sink.as_mut() {
        s.flush();
    }
    sink
}

/// Hand a finished line to the sink, if collection is on and one is
/// installed. Crate-internal: [`Event::emit`] is the public entry.
pub(crate) fn emit_line(line: &str) {
    if !enabled() {
        return;
    }
    if let Some(s) = sink_slot()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_mut()
    {
        s.line(line);
    }
}

/// Milliseconds since the process's trace epoch (first telemetry touch).
pub(crate) fn now_ms() -> f64 {
    trace_epoch().elapsed().as_secs_f64() * 1e3
}

fn trace_epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------------
// Stages and spans
// ---------------------------------------------------------------------------

/// The named hot-path stages spans aggregate into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Single-site batch engine: per-chunk state setup (SoA vectors,
    /// storage kernels, shared-generation groups).
    BatchPrepare,
    /// Single-site batch engine: the time-major candidate loop.
    BatchKernel,
    /// Fleet engine: per-chunk walk setup (every member site of a plan
    /// chunk, or one site's chunk of unseen compositions on the table
    /// path).
    FleetPrepare,
    /// Fleet engine: the chunk walk's time-major loop — site by site in
    /// step blocks with the concurrent-peak fold, or one site's walk on
    /// the table path.
    FleetKernel,
    /// Search-layer bookkeeping: non-dominated sorting and selection.
    SearchSort,
    /// Optimization daemon: one whole study request, from accepted frame
    /// to final result frame (worker-thread CPU time; concurrent studies
    /// sum).
    ServerStudy,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 6] = [
        Stage::BatchPrepare,
        Stage::BatchKernel,
        Stage::FleetPrepare,
        Stage::FleetKernel,
        Stage::SearchSort,
        Stage::ServerStudy,
    ];

    /// Stable display / event name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::BatchPrepare => "batch.prepare",
            Stage::BatchKernel => "batch.kernel",
            Stage::FleetPrepare => "fleet.prepare",
            Stage::FleetKernel => "fleet.kernel",
            Stage::SearchSort => "search.sort",
            Stage::ServerStudy => "server.study",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::BatchPrepare => 0,
            Stage::BatchKernel => 1,
            Stage::FleetPrepare => 2,
            Stage::FleetKernel => 3,
            Stage::SearchSort => 4,
            Stage::ServerStudy => 5,
        }
    }
}

struct StageStat {
    calls: AtomicU64,
    nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const STAGE_STAT_INIT: StageStat = StageStat {
    calls: AtomicU64::new(0),
    nanos: AtomicU64::new(0),
};

static STAGES: [StageStat; Stage::ALL.len()] = [STAGE_STAT_INIT; Stage::ALL.len()];

/// A scoped span: adds its elapsed time to the stage's aggregate on drop.
/// Inert (no clock read) when telemetry is disabled.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span {
    stage: Stage,
    start: Option<Instant>,
}

/// Open a span over `stage`. Threads time independently; their elapsed
/// times sum into the same aggregate (CPU-time semantics).
#[inline]
pub fn span(stage: Stage) -> Span {
    Span {
        stage,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let stat = &STAGES[self.stage.index()];
            stat.calls.fetch_add(1, Ordering::Relaxed);
            stat.nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// One stage's aggregate at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTotal {
    /// Stable stage name (e.g. `"batch.kernel"`).
    pub name: &'static str,
    /// Completed spans.
    pub calls: u64,
    /// Summed span time, milliseconds (CPU-time semantics across threads).
    pub total_ms: f64,
}

/// Summed span time for one stage so far, in milliseconds. Cheap enough
/// to snapshot before/after an engine call for per-call attribution.
pub fn stage_ms(stage: Stage) -> f64 {
    STAGES[stage.index()].nanos.load(Ordering::Relaxed) as f64 / 1e6
}

/// Snapshot every stage aggregate, in [`Stage::ALL`] order.
pub fn stage_totals() -> Vec<StageTotal> {
    Stage::ALL
        .iter()
        .map(|&s| {
            let stat = &STAGES[s.index()];
            StageTotal {
                name: s.name(),
                calls: stat.calls.load(Ordering::Relaxed),
                total_ms: stat.nanos.load(Ordering::Relaxed) as f64 / 1e6,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// The named atomic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Chunks walked by the single-site batch engine.
    BatchChunks,
    /// Candidate-rows (candidates × steps) evaluated by the batch engine.
    BatchRows,
    /// Chunks walked by the fleet engine.
    FleetChunks,
    /// Candidate-rows the fleet engine walked (site compositions ×
    /// steps). A plan walk steps every plan's sites. The table path
    /// steps, uncapped, only the site compositions its tables lacked and,
    /// capped, only the plans neither its tables nor its plan-peak memo
    /// could settle, so this can be far below the rows the cohorts
    /// requested (`fleet_eval`'s `rows`).
    FleetRows,
    /// NSGA-II memo-cache hits (sampled genomes answered from the cache).
    CacheHits,
    /// NSGA-II memo-cache misses (genomes actually evaluated).
    CacheMisses,
    /// Candidate-rows (real candidates × steps) evaluated by the 4-lane
    /// chunk walk (both engines). With the remainder counter this makes
    /// lane utilization observable: real rows over lane slots,
    /// `simd.rows / (simd.rows + simd.remainder_rows)`.
    SimdRows,
    /// Padded lane rows of the 4-lane chunk walk: lane slots of a chunk's
    /// short last group that carry a copy of its last candidate (slots
    /// minus candidates, × steps). The name predates padding, when these
    /// candidates ran a scalar remainder loop.
    SimdRemainderRows,
    /// Prepared-scenario cache hits (study requests answered from an
    /// already-synthesized `Arc<PreparedScenario>`).
    PrepCacheHits,
    /// Prepared-scenario cache misses (scenarios synthesized from scratch).
    PrepCacheMisses,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 10] = [
        Counter::BatchChunks,
        Counter::BatchRows,
        Counter::FleetChunks,
        Counter::FleetRows,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::SimdRows,
        Counter::SimdRemainderRows,
        Counter::PrepCacheHits,
        Counter::PrepCacheMisses,
    ];

    /// Stable display / event name.
    pub fn name(self) -> &'static str {
        match self {
            Counter::BatchChunks => "batch.chunks",
            Counter::BatchRows => "batch.rows",
            Counter::FleetChunks => "fleet.chunks",
            Counter::FleetRows => "fleet.rows",
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::SimdRows => "simd.rows",
            Counter::SimdRemainderRows => "simd.remainder_rows",
            Counter::PrepCacheHits => "prep_cache.hits",
            Counter::PrepCacheMisses => "prep_cache.misses",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::BatchChunks => 0,
            Counter::BatchRows => 1,
            Counter::FleetChunks => 2,
            Counter::FleetRows => 3,
            Counter::CacheHits => 4,
            Counter::CacheMisses => 5,
            Counter::SimdRows => 6,
            Counter::SimdRemainderRows => 7,
            Counter::PrepCacheHits => 8,
            Counter::PrepCacheMisses => 9,
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const COUNTER_INIT: AtomicU64 = AtomicU64::new(0);

static COUNTERS: [AtomicU64; Counter::ALL.len()] = [COUNTER_INIT; Counter::ALL.len()];

/// Add to a counter. A no-op (after the flag check) when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter.index()].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of one counter.
pub fn counter_value(counter: Counter) -> u64 {
    COUNTERS[counter.index()].load(Ordering::Relaxed)
}

/// Snapshot every counter, in [`Counter::ALL`] order.
pub fn counters() -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .map(|&c| (c.name(), counter_value(c)))
        .collect()
}

/// Zero every stage aggregate and counter (bench sections isolate their
/// measurement windows with this; the sink and flag are untouched).
pub fn reset_stats() {
    for stat in &STAGES {
        stat.calls.store(0, Ordering::Relaxed);
        stat.nanos.store(0, Ordering::Relaxed);
    }
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests share one lock (the test harness is threaded).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_and_counters_record_nothing() {
        let _l = lock();
        set_enabled(false);
        reset_stats();
        {
            let _s = span(Stage::BatchKernel);
            add(Counter::BatchRows, 1_000);
        }
        assert_eq!(counter_value(Counter::BatchRows), 0);
        assert!(stage_totals().iter().all(|s| s.calls == 0));
    }

    #[test]
    fn enabled_spans_aggregate_and_counters_count() {
        let _l = lock();
        set_enabled(true);
        reset_stats();
        {
            let _s = span(Stage::FleetKernel);
            add(Counter::FleetChunks, 2);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let totals = stage_totals();
        let fleet = totals.iter().find(|s| s.name == "fleet.kernel").unwrap();
        assert_eq!(fleet.calls, 1);
        assert!(fleet.total_ms >= 1.0, "span too short: {}", fleet.total_ms);
        assert_eq!(counter_value(Counter::FleetChunks), 2);
        set_enabled(false);
        reset_stats();
    }

    #[test]
    fn spans_from_threads_sum_into_one_aggregate() {
        let _l = lock();
        set_enabled(true);
        reset_stats();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _s = span(Stage::BatchPrepare);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                });
            }
        });
        let totals = stage_totals();
        let prep = totals.iter().find(|s| s.name == "batch.prepare").unwrap();
        assert_eq!(prep.calls, 4);
        assert!(prep.total_ms >= 3.0, "CPU-time sum: {}", prep.total_ms);
        set_enabled(false);
        reset_stats();
    }

    #[test]
    fn memory_sink_receives_events_only_while_enabled() {
        let _l = lock();
        let (sink, lines) = MemorySink::new();
        install_sink(Box::new(sink));
        set_enabled(false);
        Event::new("should_not_appear").emit();
        assert!(lines.lock().unwrap().is_empty());
        set_enabled(true);
        Event::new("probe").u64("k", 7).emit();
        set_enabled(false);
        let captured = lines.lock().unwrap().clone();
        assert_eq!(captured.len(), 1);
        assert!(captured[0].contains("\"ev\":\"probe\""));
        assert!(captured[0].contains("\"k\":7"));
        take_sink();
    }

    #[test]
    fn stage_and_counter_names_are_unique() {
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::ALL.len());
        let names: std::collections::BTreeSet<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), Counter::ALL.len());
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
