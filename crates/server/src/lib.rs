#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-server
//!
//! The optimization-as-a-service daemon: a long-lived server that keeps
//! prepared sites hot in a shared [`PreparedCache`], accepts study
//! requests over a newline-delimited JSON protocol, multiplexes
//! concurrent NSGA-II studies over the shared batch engine, and streams
//! incremental front updates plus a final result frame per request.
//! Like `mgopt-telemetry`, this crate is std-only: transports are plain
//! `Read`/`Write` (TCP, stdin/stdout, or the in-process [`pipe`]), and
//! concurrency is `std::thread` + scoped workers.
//!
//! ## Wire format
//!
//! Frame types, the strict-reject parser, and the versioning rule live in
//! [`mgopt_core::wire`]; the daemon adds only transport behavior:
//!
//! * One request per line (`\n`-terminated), one response per line.
//!   Blank lines are ignored.
//! * Every response frame leaves the daemon in one `write_all` of its
//!   line and `\n`, and [`Server::serve_tcp`] sets `TCP_NODELAY` on every
//!   accepted stream. A frame written while an earlier one is still
//!   unacknowledged therefore goes out at once instead of waiting for the
//!   client's delayed ACK. Clients should likewise turn Nagle's algorithm
//!   off and write each request line once.
//! * Every response echoes the request's `id`; frames belonging to
//!   different studies interleave freely on the wire, so a client
//!   multiplexes concurrent studies over one connection by `id`.
//! * A study answers an optional `Queued` (only when the process-wide
//!   concurrency cap is saturated and the study waits for admission),
//!   then `Accepted` → zero or more `Front` updates (when `stream` is
//!   set, one per NSGA-II generation) → exactly one terminal frame:
//!   `Done`, `Cancelled`, or `Error`. Malformed requests, unknown
//!   presets, and infeasible caps are structured errors, never a crash
//!   or disconnect.
//! * `Cancel` names an in-flight study's request id; the study stops
//!   cooperatively at its next generation boundary and answers
//!   `Cancelled` on the *target* id (a study cancelled while still
//!   queued answers `Cancelled` once it reaches the head of the queue,
//!   without running). A cancelled study never also answers `Done`.
//!   Cancelling an id nothing is in flight under (unknown, finished,
//!   or already cancelled) answers an `UnknownStudy` error on the
//!   cancel frame's own id. A client disconnect (EOF) cancels every
//!   study still in flight on that connection — the daemon does not
//!   compute fronts nobody will read.
//! * **Versioning rule** (see [`mgopt_core::wire::WIRE_VERSION`]):
//!   parsing is strict-reject, so any added or removed field in the
//!   envelope, study body, or budget bumps the protocol version; frames
//!   carrying any other version are answered with an
//!   `UnsupportedVersion` error. New externally tagged request/response
//!   variants (`Cancel`, `Queued`, `Cancelled`) are additive and do not
//!   bump it — every old frame still parses byte-identically.
//! * A request line longer than [`ServerConfig::max_frame_bytes`] is
//!   answered with an `Oversized` error; the rest of the line is
//!   discarded and the connection keeps serving from the next newline.
//! * `Ping` answers `Pong`; `Shutdown` stops reading, drains in-flight
//!   studies, answers `Bye`, and closes the connection (and, under
//!   [`Server::serve_tcp`], stops the accept loop).
//!
//! ## Concurrency model
//!
//! [`Server::serve_tcp`] accepts connections concurrently — one thread
//! per connection, at most [`ServerConfig::max_acceptors`] at once
//! (further clients wait in the listen backlog). Studies run on scoped
//! worker threads admitted by one **process-wide** semaphore: at most
//! [`ServerConfig::max_concurrent`] studies are in flight across *all*
//! connections, and a study that must wait is reported to its client
//! with a `Queued` frame (carrying how many studies are ahead) instead
//! of blocking the connection's read loop — so `Ping` and `Cancel`
//! stay responsive while studies queue. A study frees its slot *before*
//! it writes its terminal frame (`Done`, `Cancelled`, or the `Internal`
//! error of a panicked worker), so a client that sends its next study
//! the moment it reads that frame finds the slot free: `Queued` always
//! means real queue pressure. Prepared sites come from the
//! shared [`PreparedCache`] keyed by the full scenario config, so
//! concurrent studies over the same sites share one
//! `Arc<PreparedScenario>` and never re-prepare. Search results depend
//! only on `(fleet, budget, seed)` — never on interleaving, queueing,
//! or which connection carried the request — because evaluation is
//! re-entrant over shared read-only data and every study owns its
//! seeded RNG.
//!
//! ## Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | `MGOPT_SERVER_ADDR` | `mgopt_serve` binds this TCP address (e.g. `127.0.0.1:0`) instead of serving stdin/stdout. |
//! | `MGOPT_ACCEPTORS` | Max concurrently served TCP connections (default 8). |
//! | `MGOPT_SERVER_CONCURRENCY` | Max in-flight studies across all connections (default 4); studies beyond the cap queue and answer `Queued`. |
//! | `MGOPT_SERVER_CACHE` | Prepared-scenario cache capacity (default 8). |
//! | `MGOPT_SERVER_MAX_FRAME` | Max request-line bytes (default 1048576). |
//! | `MGOPT_TRACE` | Per-study audit log: `server.study` spans, `study_start` / `study_queued` / `study_done` / `study_cancelled` / `request_error` events, `prep_cache.*` counters. |
//!
//! ## Audit log
//!
//! The daemon consumes `mgopt-telemetry` rather than inventing its own
//! observability: each study runs under a `server.study` span, emits
//! `study_start` / `study_done` events (plus `study_queued` when it
//! waits for admission, `study_cancelled` when it stops early, and
//! `request_error` for every error frame; `study_start` carries the
//! study's prepared-cache hits and misses and `prep_ms`, the wall time of
//! its scenario preparation), and the prepared cache bumps
//! `prep_cache.hits` / `prep_cache.misses` — all on the `MGOPT_TRACE`
//! JSONL stream, readable with `trace_report`.

pub mod pipe;

use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use mgopt_core::problem::FleetProblem;
use mgopt_core::wire::{
    self, ErrorCode, FrontUpdate, PlanPoint, Request, RequestFrame, Response, ResponseFrame,
    StudyAccepted, StudyCancelled, StudyDone, StudyQueued, StudyRequest, WireError, WIRE_VERSION,
};
use mgopt_core::{scenario_key_hash, PreparedCache, PreparedFleet};
use mgopt_optimizer::{GenerationView, Nsga2Config, Nsga2Optimizer, SearchControl};
use mgopt_telemetry::{self as telemetry, Stage};
use serde::Value;

/// Per-connection map from in-flight study id to its cancel token. An
/// entry exists from request admission until the study's terminal frame;
/// `Cancel` flips the token, and retiring the entry and reading the token
/// under one lock makes cancel-vs-completion race-free.
type CancelRegistry = Mutex<BTreeMap<String, Arc<AtomicBool>>>;

/// Daemon configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum in-flight studies across **all** connections (minimum 1).
    /// Additional study requests wait in the process-wide admission
    /// queue; their clients are told with a `Queued` frame while the
    /// connection's read loop stays responsive.
    pub max_concurrent: usize,
    /// Maximum concurrently served TCP connections under
    /// [`Server::serve_tcp`] (minimum 1). Further clients wait in the
    /// listen backlog until a connection slot frees.
    pub max_acceptors: usize,
    /// Prepared-scenario cache capacity (minimum 1).
    pub cache_capacity: usize,
    /// Maximum request-line length in bytes; longer lines are answered
    /// with an `Oversized` error frame and discarded.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_concurrent: 4,
            max_acceptors: 8,
            cache_capacity: 8,
            max_frame_bytes: 1 << 20,
        }
    }
}

impl ServerConfig {
    /// Read the `MGOPT_SERVER_*` / `MGOPT_ACCEPTORS` knobs (see the crate
    /// docs), falling back to defaults. Returns a usage-style message on
    /// an unparsable value.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Some(v) = env_usize("MGOPT_SERVER_CONCURRENCY")? {
            cfg.max_concurrent = v;
        }
        if let Some(v) = env_usize("MGOPT_ACCEPTORS")? {
            cfg.max_acceptors = v;
        }
        if let Some(v) = env_usize("MGOPT_SERVER_CACHE")? {
            cfg.cache_capacity = v;
        }
        if let Some(v) = env_usize("MGOPT_SERVER_MAX_FRAME")? {
            cfg.max_frame_bytes = v;
        }
        Ok(cfg)
    }
}

fn env_usize(name: &str) -> Result<Option<usize>, String> {
    match std::env::var(name) {
        Ok(s) if !s.is_empty() => s
            .parse::<usize>()
            .map(|v| Some(v.max(1)))
            .map_err(|_| format!("{name}={s}: expected a positive integer")),
        _ => Ok(None),
    }
}

/// Why [`Server::serve_connection`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionOutcome {
    /// The client closed its write side; all in-flight studies drained.
    Eof,
    /// The client sent `Shutdown`; in-flight studies drained, `Bye` sent.
    Shutdown,
}

/// The daemon: shared prepared cache + per-connection protocol loop.
///
/// `Server` is `&self`-re-entrant: several connections can be served
/// concurrently (one thread each, all sharing the cache), and each
/// connection multiplexes up to [`ServerConfig::max_concurrent`] studies.
pub struct Server {
    config: ServerConfig,
    cache: Arc<PreparedCache>,
    limiter: Limiter,
    studies_done: AtomicU64,
    studies_cancelled: AtomicU64,
}

impl Server {
    /// Create a daemon with its own prepared cache.
    pub fn new(config: ServerConfig) -> Self {
        let cache = Arc::new(PreparedCache::new(config.cache_capacity));
        Self::with_cache(config, cache)
    }

    /// Create a daemon over an existing (possibly shared) cache.
    pub fn with_cache(config: ServerConfig, cache: Arc<PreparedCache>) -> Self {
        let limiter = Limiter::new(config.max_concurrent.max(1));
        Self {
            config,
            cache,
            limiter,
            studies_done: AtomicU64::new(0),
            studies_cancelled: AtomicU64::new(0),
        }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The shared prepared-scenario cache.
    pub fn cache(&self) -> &Arc<PreparedCache> {
        &self.cache
    }

    /// Total studies that reached a terminal frame (`Done`, `Cancelled`,
    /// or an error after admission) across all connections.
    pub fn studies_done(&self) -> u64 {
        self.studies_done.load(Ordering::Relaxed)
    }

    /// Studies that ended with a `Cancelled` frame (explicit `Cancel` or
    /// client disconnect) across all connections. Every cancelled study
    /// also counts in [`studies_done`](Self::studies_done).
    pub fn studies_cancelled(&self) -> u64 {
        self.studies_cancelled.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently in-flight studies (process-wide,
    /// never above [`ServerConfig::max_concurrent`]).
    pub fn peak_in_flight(&self) -> usize {
        self.limiter.peak.load(Ordering::Relaxed)
    }

    /// High-water mark of studies waiting in the admission queue.
    pub fn queue_depth_peak(&self) -> usize {
        self.limiter.queue_peak.load(Ordering::Relaxed)
    }

    /// Serve one connection until EOF or `Shutdown`, blocking the calling
    /// thread. Study workers run on scoped threads and are always joined
    /// before this returns; write failures (e.g. the client disconnected
    /// mid-stream) are swallowed so in-flight studies finish quietly.
    pub fn serve_connection<R, W>(&self, reader: R, writer: W) -> io::Result<ConnectionOutcome>
    where
        R: Read,
        W: Write + Send,
    {
        let mut reader = io::BufReader::new(reader);
        let writer = Mutex::new(writer);
        let registry: CancelRegistry = Mutex::new(BTreeMap::new());
        let outcome = thread::scope(|s| -> io::Result<ConnectionOutcome> {
            let mut buf: Vec<u8> = Vec::new();
            loop {
                match read_bounded_line(&mut reader, self.config.max_frame_bytes, &mut buf)? {
                    LineRead::Eof => {
                        // Disconnect cancels: nobody is left to read the
                        // fronts, so in-flight studies stop at their next
                        // generation boundary instead of running dry.
                        let reg = registry.lock().unwrap_or_else(|e| e.into_inner());
                        for token in reg.values() {
                            token.store(true, Ordering::SeqCst);
                        }
                        return Ok(ConnectionOutcome::Eof);
                    }
                    LineRead::Oversized => {
                        send_error(
                            &writer,
                            "",
                            WireError::new(
                                ErrorCode::Oversized,
                                format!(
                                    "request line exceeds {} bytes; discarded to next newline",
                                    self.config.max_frame_bytes
                                ),
                            ),
                        );
                        drain_line(&mut reader, &mut buf)?;
                    }
                    LineRead::Line(line) => {
                        let line = line.trim();
                        if line.is_empty() {
                            continue;
                        }
                        match wire::parse_request(line) {
                            Err(err) => send_error(&writer, &salvage_id(line), err),
                            Ok(RequestFrame { id, req, .. }) => match req {
                                Request::Ping => send(&writer, &id, Response::Pong),
                                Request::Shutdown => return Ok(ConnectionOutcome::Shutdown),
                                Request::Study(study) => {
                                    self.spawn_study(s, id, study, &writer, &registry);
                                }
                                Request::Cancel(target) => {
                                    handle_cancel(&registry, &id, &target, &writer);
                                }
                            },
                        }
                    }
                }
            }
        })?;
        // The scope joined every worker; the connection is quiet again.
        if outcome == ConnectionOutcome::Shutdown {
            send(&writer, "", Response::Bye);
        }
        Ok(outcome)
    }

    /// Accept loop: serves connections **concurrently** — one scoped
    /// thread per accepted stream, at most
    /// [`ServerConfig::max_acceptors`] at once (further clients wait in
    /// the listen backlog) — until a client sends `Shutdown`. Study
    /// admission stays process-wide: all connections share this daemon's
    /// [`ServerConfig::max_concurrent`] cap. After a `Shutdown`, the
    /// accept loop stops and every already-accepted connection drains
    /// before this returns.
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<()> {
        let local = listener.local_addr()?;
        let shutdown = AtomicBool::new(false);
        let gate = Limiter::new(self.config.max_acceptors.max(1));
        thread::scope(|s| -> io::Result<()> {
            for stream in listener.incoming() {
                let stream = stream?;
                if shutdown.load(Ordering::SeqCst) {
                    // Either the self-connect wake-up or a late client;
                    // drop it and stop accepting.
                    return Ok(());
                }
                let permit = gate.acquire(|_| {});
                let shutdown = &shutdown;
                s.spawn(move || {
                    let _permit = permit;
                    // Frames go out whole (see `send`), so Nagle's algorithm
                    // could only hold a frame back until the client's delayed
                    // ACK. Best effort: a socket that refuses the option still
                    // serves correctly, just with that stall.
                    let _ = stream.set_nodelay(true);
                    let Ok(reader) = stream.try_clone() else {
                        return;
                    };
                    if let Ok(ConnectionOutcome::Shutdown) = self.serve_connection(reader, stream) {
                        shutdown.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so it can observe the
                        // flag; best-effort (a racing real client also
                        // wakes it).
                        let _ = TcpStream::connect(local);
                    }
                    // A torn-down connection must not kill the daemon.
                });
            }
            Ok(())
        })
    }

    /// Validate, register a cancel token, and launch one study worker
    /// immediately — admission against the process-wide concurrency cap
    /// happens *inside* the worker (reporting `Queued` when it must
    /// wait), so the read loop stays responsive to `Ping` and `Cancel`.
    fn spawn_study<'scope, 'env, W: Write + Send>(
        &'env self,
        scope: &'scope thread::Scope<'scope, 'env>,
        id: String,
        study: StudyRequest,
        writer: &'env Mutex<W>,
        registry: &'env CancelRegistry,
    ) where
        'env: 'scope,
    {
        let scenario = match study.resolved_scenario() {
            Ok(s) => s,
            Err(err) => {
                send_error(writer, &id, err);
                return;
            }
        };
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let mut reg = registry.lock().unwrap_or_else(|e| e.into_inner());
            reg.insert(id.clone(), Arc::clone(&cancel));
        }
        scope.spawn(move || {
            let permit = self.limiter.acquire(|ahead| {
                telemetry::Event::new("study_queued")
                    .str("id", &id)
                    .u64("ahead", ahead)
                    .emit();
                send(writer, &id, Response::Queued(StudyQueued { ahead }));
            });
            let _span = telemetry::span(Stage::ServerStudy);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.run_study(&id, &study, &scenario, writer, &cancel, registry)
            }));
            if outcome.is_err() {
                retire(registry, &id, &cancel);
            }
            // Free the slot before the terminal frame: a client that sends
            // its next study as soon as it reads this one's end must find
            // the slot free, so `Queued` only ever means real queue pressure.
            drop(permit);
            match outcome {
                Ok(terminal) => send(writer, &id, terminal),
                Err(_) => send_error(
                    writer,
                    &id,
                    WireError::new(ErrorCode::Internal, "study worker panicked"),
                ),
            }
            self.studies_done.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// The study body: cache-shared preparation, `Accepted`, the NSGA-II
    /// run (streaming `Front` frames when asked, stopping at a generation
    /// boundary when cancelled). Retires the study's registry entry and
    /// returns its terminal `Done` or `Cancelled` frame for the caller to
    /// send once the admission slot is free.
    fn run_study<W: Write + Send>(
        &self,
        id: &str,
        study: &StudyRequest,
        scenario: &mgopt_core::FleetScenario,
        writer: &Mutex<W>,
        cancel: &AtomicBool,
        registry: &CancelRegistry,
    ) -> Response {
        let t0 = Instant::now();
        // Cancelled while waiting in the admission queue: answer without
        // preparing or running anything.
        if cancel.load(Ordering::SeqCst) && retire(registry, id, cancel) {
            return self.finish_cancelled(id, 0, 0, t0);
        }
        let prep_start = Instant::now();
        let (fleet, stats) = scenario.prepare_shared(&self.cache);
        let prep_ms = prep_start.elapsed().as_secs_f64() * 1e3;
        let plan_space = fleet.members.iter().fold(1u64, |acc, m| {
            acc.saturating_mul(m.config.space.len() as u64)
        });
        telemetry::Event::new("study_start")
            .str("id", id)
            .u64("sites", fleet.n_sites() as u64)
            .u64("plan_space", plan_space)
            .u64("prep_hits", u64::from(stats.hits))
            .u64("prep_misses", u64::from(stats.misses))
            .f64("prep_ms", prep_ms)
            .u64(
                "fleet_key",
                scenario
                    .members
                    .first()
                    .map_or(0, |m| scenario_key_hash(&m.scenario)),
            )
            .emit();
        send(
            writer,
            id,
            Response::Accepted(StudyAccepted {
                sites: fleet.names.clone(),
                plan_space,
                prep_cache_hits: stats.hits,
                prep_cache_misses: stats.misses,
            }),
        );

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

        let stream = study.stream;
        let mut generations = 0u32;
        let mut last_front: Vec<PlanPoint> = Vec::new();
        let result = optimizer.run_controlled(&problem, &mut |view: GenerationView| {
            generations = view.generation as u32 + 1;
            last_front = view
                .front
                .iter()
                .map(|(genome, eval)| PlanPoint {
                    genome: genome.clone(),
                    plan: plan_of(&fleet, genome),
                    objectives: eval.objectives.clone(),
                    violation: eval.total_violation(),
                })
                .collect();
            if cancel.load(Ordering::Relaxed) {
                // Stop at this generation boundary; skip the front the
                // client no longer wants.
                return SearchControl::Stop;
            }
            if stream {
                send(
                    writer,
                    id,
                    Response::Front(FrontUpdate {
                        generation: view.generation as u32,
                        sampled: view.sampled as u64,
                        front: last_front.clone(),
                    }),
                );
            }
            SearchControl::Continue
        });

        // Retiring the registry entry and reading the token under one
        // lock decides the race against a concurrent `Cancel`: either
        // the cancel saw the entry (this study answers `Cancelled`), or
        // it did not (it answered `UnknownStudy` and this study answers
        // `Done`). Never both.
        if retire(registry, id, cancel) {
            return self.finish_cancelled(id, generations, result.sampled_trials as u64, t0);
        }

        telemetry::Event::new("study_done")
            .str("id", id)
            .u64("generations", u64::from(generations))
            .u64("sampled", result.sampled_trials as u64)
            .u64("unique", result.unique_evaluations as u64)
            .u64("front", last_front.len() as u64)
            .f64("wall_ms", t0.elapsed().as_secs_f64() * 1e3)
            .emit();
        Response::Done(StudyDone {
            generations,
            sampled_trials: result.sampled_trials as u64,
            unique_evaluations: result.unique_evaluations as u64,
            cache_hits: result.cache_hits as u64,
            cache_misses: result.cache_misses as u64,
            wall_ms: t0.elapsed().as_millis() as u64,
            front: last_front,
        })
    }

    /// Emit the audit event for a study that stopped early and build its
    /// terminal `Cancelled` frame.
    fn finish_cancelled(&self, id: &str, generations: u32, sampled: u64, t0: Instant) -> Response {
        self.studies_cancelled.fetch_add(1, Ordering::Relaxed);
        telemetry::Event::new("study_cancelled")
            .str("id", id)
            .u64("generations", u64::from(generations))
            .u64("sampled", sampled)
            .f64("wall_ms", t0.elapsed().as_secs_f64() * 1e3)
            .emit();
        Response::Cancelled(StudyCancelled {
            generations,
            sampled_trials: sampled,
            wall_ms: t0.elapsed().as_millis() as u64,
        })
    }
}

/// Handle a `Cancel` frame: flip the target's token if it is in flight
/// (the acknowledgement is the eventual `Cancelled` frame on the target
/// id), else answer `UnknownStudy` on the cancel frame's own id.
fn handle_cancel<W: Write>(registry: &CancelRegistry, id: &str, target: &str, writer: &Mutex<W>) {
    let found = {
        let reg = registry.lock().unwrap_or_else(|e| e.into_inner());
        match reg.get(target) {
            Some(token) => {
                token.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    };
    if !found {
        send_error(
            writer,
            id,
            WireError::new(
                ErrorCode::UnknownStudy,
                format!("no in-flight study `{target}` on this connection"),
            ),
        );
    }
}

/// Retire a study's registry entry and report whether it was cancelled.
/// Removal and the token read happen under the registry lock, so a
/// concurrent `Cancel` either saw the entry (this returns true) or will
/// answer `UnknownStudy` — the client never sees `Cancelled` *and*
/// `Done` for one id.
fn retire(registry: &CancelRegistry, id: &str, cancel: &AtomicBool) -> bool {
    let mut reg = registry.lock().unwrap_or_else(|e| e.into_inner());
    reg.remove(id);
    cancel.load(Ordering::SeqCst)
}

/// Decode one genome into its fleet plan.
fn plan_of(fleet: &PreparedFleet, genome: &[u16]) -> Vec<mgopt_microgrid::Composition> {
    genome
        .iter()
        .zip(&fleet.members)
        .map(|(&g, m)| m.config.space.at(g as usize))
        .collect()
}

/// Best-effort extraction of the `id` from a line that failed strict
/// parsing, so the error frame can still be correlated.
fn salvage_id(line: &str) -> String {
    serde_json::from_str::<Value>(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

/// Write one response frame as a single `write_all` of the line and its
/// `\n`, so a frame never leaves the daemon in pieces.
fn send<W: Write>(writer: &Mutex<W>, id: &str, resp: Response) {
    let frame = ResponseFrame {
        v: WIRE_VERSION,
        id: id.to_string(),
        resp,
    };
    let mut line = wire::encode_response(&frame);
    line.push('\n');
    // A panicked writer-holder must not wedge every other study on the
    // connection: adopt the poisoned lock and keep answering.
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    // Swallow write errors: a client that disconnected mid-stream must not
    // tear down other studies on this connection.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}

fn send_error<W: Write>(writer: &Mutex<W>, id: &str, err: WireError) {
    telemetry::Event::new("request_error")
        .str("id", id)
        .str("code", &format!("{:?}", err.code))
        .str("message", &err.message)
        .emit();
    send(writer, id, Response::Error(err));
}

/// Result of one bounded line read.
enum LineRead {
    /// A complete line (newline stripped).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded the frame limit before its newline.
    Oversized,
}

/// Read one `\n`-terminated line of at most `max` bytes. On `Oversized`,
/// the overlong prefix has been consumed but the rest of the line has
/// not — callers resynchronize with [`drain_line`].
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> io::Result<LineRead> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() != Some(&b'\n') && n > max {
        return Ok(LineRead::Oversized);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    match std::str::from_utf8(buf) {
        Ok(s) => Ok(LineRead::Line(s.to_string())),
        // Deliver undecodable bytes as a lossy line; the JSON parser turns
        // it into a MalformedFrame error.
        Err(_) => Ok(LineRead::Line(String::from_utf8_lossy(buf).into_owned())),
    }
}

/// Discard input up to and including the next newline (or EOF).
fn drain_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<()> {
    loop {
        buf.clear();
        let n = reader.by_ref().take(4096).read_until(b'\n', buf)?;
        if n == 0 || buf.last() == Some(&b'\n') {
            return Ok(());
        }
    }
}

/// A counting semaphore that records its high-water mark and the depth
/// of its wait queue.
struct Limiter {
    max: usize,
    state: Mutex<LimiterState>,
    cv: Condvar,
    peak: AtomicUsize,
    queue_peak: AtomicUsize,
}

#[derive(Default)]
struct LimiterState {
    in_flight: usize,
    waiting: usize,
}

struct Permit<'a>(&'a Limiter);

impl Limiter {
    fn new(max: usize) -> Self {
        Self {
            max,
            state: Mutex::new(LimiterState::default()),
            cv: Condvar::new(),
            peak: AtomicUsize::new(0),
            queue_peak: AtomicUsize::new(0),
        }
    }

    /// Acquire one slot. If the caller must wait (the cap is saturated,
    /// or earlier arrivals are already waiting), `queued` is invoked
    /// exactly once — outside the lock — with the number of holders and
    /// waiters ahead, before blocking.
    fn acquire(&self, queued: impl FnOnce(u64)) -> Permit<'_> {
        // The guarded state is a plain counter pair, valid even if a
        // holder panicked — adopt poisoned locks rather than propagating.
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.in_flight >= self.max || st.waiting > 0 {
            let ahead = (st.in_flight + st.waiting) as u64;
            st.waiting += 1;
            self.queue_peak.fetch_max(st.waiting, Ordering::Relaxed);
            drop(st);
            queued(ahead);
            st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.in_flight >= self.max {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            st.waiting -= 1;
        }
        st.in_flight += 1;
        self.peak.fetch_max(st.in_flight, Ordering::Relaxed);
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        st.in_flight -= 1;
        self.0.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiter_caps_and_records_peak() {
        let limiter = Limiter::new(2);
        let a = limiter.acquire(|_| panic!("should not queue"));
        let b = limiter.acquire(|_| panic!("should not queue"));
        assert_eq!(limiter.peak.load(Ordering::Relaxed), 2);
        drop(a);
        let c = limiter.acquire(|_| panic!("should not queue"));
        assert_eq!(limiter.peak.load(Ordering::Relaxed), 2);
        drop(b);
        drop(c);
        assert_eq!(limiter.state.lock().unwrap().in_flight, 0);
        assert_eq!(limiter.queue_peak.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn limiter_reports_queueing_and_queue_depth() {
        let limiter = Limiter::new(1);
        let held = limiter.acquire(|_| panic!("cap is free"));
        let (queued_ahead, permit) = thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut ahead = None;
                let permit = limiter.acquire(|a| ahead = Some(a));
                (ahead, permit)
            });
            // Give the waiter time to announce itself, then free the slot.
            while limiter.queue_peak.load(Ordering::Relaxed) == 0 {
                thread::yield_now();
            }
            drop(held);
            let (ahead, permit) = waiter.join().unwrap();
            (ahead, permit)
        });
        assert_eq!(queued_ahead, Some(1), "one holder was ahead");
        assert_eq!(limiter.queue_peak.load(Ordering::Relaxed), 1);
        drop(permit);
        assert_eq!(limiter.state.lock().unwrap().in_flight, 0);
        assert_eq!(limiter.state.lock().unwrap().waiting, 0);
    }

    #[test]
    fn bounded_reader_flags_oversized_and_recovers() {
        let input = b"short\n0123456789abcdef_way_too_long\nnext\n";
        let mut r = io::BufReader::new(&input[..]);
        let mut buf = Vec::new();
        assert!(matches!(
            read_bounded_line(&mut r, 10, &mut buf).unwrap(),
            LineRead::Line(s) if s == "short"
        ));
        assert!(matches!(
            read_bounded_line(&mut r, 10, &mut buf).unwrap(),
            LineRead::Oversized
        ));
        drain_line(&mut r, &mut buf).unwrap();
        assert!(matches!(
            read_bounded_line(&mut r, 10, &mut buf).unwrap(),
            LineRead::Line(s) if s == "next"
        ));
        assert!(matches!(
            read_bounded_line(&mut r, 10, &mut buf).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn salvage_id_best_effort() {
        assert_eq!(salvage_id(r#"{"v":9,"id":"abc","req":"Nope"}"#), "abc");
        assert_eq!(salvage_id("not json"), "");
        assert_eq!(salvage_id(r#"{"id":7}"#), "");
    }

    /// Compile-time pin: one `Server` must be shareable across connection
    /// and study threads (`&self`-re-entrant serving).
    #[test]
    fn server_is_send_and_sync() {
        fn sharable<T: Send + Sync>() {}
        sharable::<Server>();
        sharable::<Arc<Server>>();
    }

    #[test]
    fn config_from_env_defaults() {
        // No MGOPT_SERVER_* set in the test environment.
        let cfg = ServerConfig::from_env().unwrap();
        assert_eq!(cfg, ServerConfig::default());
    }
}
