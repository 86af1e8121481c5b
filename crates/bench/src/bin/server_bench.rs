//! Emit `BENCH_server.json`: daemon throughput in studies per second with
//! several NSGA-II studies multiplexed over one connection, versus the
//! same studies answered strictly one at a time — so the cost (or gain)
//! of the concurrency layer is measured, not assumed — and then the
//! daemon soak: one shared daemon driven over real TCP from 8 concurrent
//! connections.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin server_bench
//! MGOPT_TRACE=server.jsonl cargo run --release -p mgopt-bench --bin server_bench
//! ```
//!
//! The single-connection phase runs 8 studies over the shared two-site
//! paper fleet through the in-process pipe, with a `max_concurrent = 4`
//! daemon, so the recorded `in_flight_peak` proves at least 4 studies
//! genuinely overlapped. Every daemon front is checked bit-identical
//! against a standalone `FleetProblem` + NSGA-II run with the same seed
//! (`agreement`), and the Accepted frames surface the prepared-cache hit
//! rate (one fleet → 2 misses, then hits only). Every timed batch starts
//! a fresh daemon, so its studies start from empty per-site result tables
//! and share them as they run.
//!
//! The `multi_conn` record is the soak. Each sample starts a fresh daemon
//! on [`Server::serve_tcp`], and:
//!
//! 1. all 8 clients connect, `Ping`, and rendezvous on a barrier after
//!    `Pong` — so 8 connections are provably served *at the same time*
//!    (a sequential accept loop would deadlock here);
//! 2. each client submits its study twice (16 studies against the
//!    process-wide cap of 4, so most wait in the admission queue and
//!    announce it with `Queued` frames);
//! 3. connection 0 first submits a long streamed victim study and cancels
//!    it after its first `Front`: the victim's terminal frame must be
//!    `Cancelled`, never `Done`, and the cancel must free a permit for the
//!    two studies submitted behind it;
//! 4. a last connection sends `Shutdown`, awaits `Bye`, and the accept
//!    loop drains.
//!
//! After writing the artifact the bin checks agreement, the overlap,
//! queue and cancel invariants and the committed `server` and
//! `server_multi` speedup floors (`BENCH_baseline.json`), and exits 1
//! after printing every failed check. Under `MGOPT_TRACE` the audit log
//! holds the soak's queued and cancelled events for `trace_report
//! --check`. `MGOPT_FAST=1` shrinks budgets for smoke runs.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use mgopt_bench::Checks;
use mgopt_core::wire::{
    encode_request, PlanPoint, Request, RequestFrame, Response, ResponseFrame, StudyRequest,
    WIRE_VERSION,
};
use mgopt_server::{pipe, Server, ServerConfig};
use serde::Serialize;

/// The artifact schema.
#[derive(Debug, Serialize)]
struct ServerBench {
    /// Studies per timed batch.
    studies: usize,
    population: usize,
    max_trials: usize,
    sites: usize,
    plan_space: u64,
    /// Daemon concurrency limit during the multiplexed run.
    max_concurrent: usize,
    /// High-water mark of genuinely overlapping studies (must reach
    /// `max_concurrent` for the throughput number to mean anything).
    in_flight_peak: usize,
    /// Wall-clock of the multiplexed batch, min over samples, ms.
    concurrent_ms_min: f64,
    /// Wall-clock of the same batch with each `Done` awaited before the
    /// next request, min over samples, ms.
    sequential_ms_min: f64,
    /// `studies / concurrent_ms_min`, in studies per second.
    studies_per_sec: f64,
    /// `sequential_ms_min / concurrent_ms_min`. On a single-core runner
    /// the studies are CPU-bound so this hovers near 1.0; the committed
    /// floor guards against the concurrency layer growing real overhead.
    speedup: f64,
    /// Prepared-cache traffic summed over every Accepted frame of the
    /// timed runs.
    prep_cache_hits: u64,
    prep_cache_misses: u64,
    prep_cache_hit_rate: f64,
    /// `true` when every daemon front matched its standalone run bit for
    /// bit.
    agreement: bool,
    /// Worker threads available to the daemon's study pool.
    threads: usize,
    /// The multi-connection phase (shared daemon, many TCP sockets).
    multi_conn: MultiConnBench,
}

/// One shared daemon driven over TCP from many concurrent connections at
/// once, past the process-wide admission cap, with a mid-flight
/// cancellation.
#[derive(Debug, Serialize)]
struct MultiConnBench {
    /// Concurrently connected clients.
    connections: usize,
    /// Completed (non-cancelled) studies across all connections.
    studies: usize,
    /// Process-wide in-flight study cap during the run.
    max_concurrent: usize,
    /// High-water mark of genuinely overlapping studies (can never
    /// exceed `max_concurrent`; the bin checks it).
    in_flight_peak: usize,
    /// High-water mark of studies waiting behind the admission cap
    /// (17 submissions against a cap of 4 must queue).
    queue_depth_peak: usize,
    /// Wall-clock of the batch, min over samples, ms.
    ms_min: f64,
    /// `studies / ms_min`, in studies per second.
    studies_per_sec: f64,
    /// Throughput relative to the single-connection sequential baseline
    /// scaled to this batch size.
    speedup: f64,
    /// `Done` frames observed for the cancelled study — must be 0; the
    /// cancelled study's terminal frame is `Cancelled`.
    cancelled_done_frames: usize,
    /// `true` when every completed front matched its standalone run bit
    /// for bit, on every connection.
    agreement: bool,
}

/// Send one request frame as a single write of its line and `\n`.
fn send(writer: &mut impl Write, id: &str, req: Request) {
    let frame = RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    };
    writer
        .write_all((encode_request(&frame) + "\n").as_bytes())
        .expect("daemon connection writable");
}

/// Read the daemon's next response frame.
fn recv(reader: &mut impl BufRead) -> ResponseFrame {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read daemon frame") > 0,
        "daemon hung up"
    );
    serde_json::from_str(line.trim_end()).expect("daemon frame parses")
}

/// Stats of one timed batch through the daemon.
#[derive(Default)]
struct BatchRun {
    ms: f64,
    fronts: Vec<Vec<PlanPoint>>,
    hits: u64,
    misses: u64,
    peak: usize,
    plan_space: u64,
    sites: usize,
}

impl BatchRun {
    /// Read frames until `n` more studies (ids `s{k}`) answered `Done`.
    fn await_done(&mut self, reader: &mut impl BufRead, n: usize) {
        let mut done = 0usize;
        while done < n {
            let frame = recv(reader);
            match frame.resp {
                Response::Accepted(a) => {
                    self.hits += u64::from(a.prep_cache_hits);
                    self.misses += u64::from(a.prep_cache_misses);
                    self.plan_space = a.plan_space;
                    self.sites = a.sites.len();
                }
                Response::Done(d) => {
                    let k: usize = frame.id[1..].parse().expect("study ids are s{k}");
                    self.fronts[k] = d.front;
                    done += 1;
                }
                // Past the process-wide cap the daemon reports queueing;
                // harmless for throughput accounting.
                Response::Queued(_) => {}
                other => panic!("unexpected frame for {}: {other:?}", frame.id),
            }
        }
    }
}

/// Drive `studies` through a fresh daemon over the in-process pipe.
/// `sequential` awaits each `Done` before the next request.
fn run_batch(studies: &[StudyRequest], max_concurrent: usize, sequential: bool) -> BatchRun {
    let server = Server::new(ServerConfig {
        max_concurrent,
        ..ServerConfig::default()
    });
    let (client, server_end) = pipe::duplex();
    thread::scope(|scope| {
        let serve = scope.spawn(|| server.serve_connection(server_end.reader, server_end.writer));
        let mut writer = client.writer;
        let mut reader = BufReader::new(client.reader);
        let mut run = BatchRun {
            fronts: vec![Vec::new(); studies.len()],
            ..BatchRun::default()
        };
        let t0 = Instant::now();
        for (k, s) in studies.iter().enumerate() {
            send(&mut writer, &format!("s{k}"), Request::Study(s.clone()));
            if sequential {
                run.await_done(&mut reader, 1);
            }
        }
        if !sequential {
            run.await_done(&mut reader, studies.len());
        }
        run.ms = t0.elapsed().as_secs_f64() * 1e3;
        run.peak = server.peak_in_flight();
        drop(writer);
        drop(reader);
        serve
            .join()
            .expect("daemon panicked")
            .expect("pipe transport");
        run
    })
}

/// What one soak client observed.
#[derive(Default)]
struct ClientOutcome {
    /// A `Done` front differed from its standalone run.
    diverged: bool,
    queued_frames: usize,
    cancelled_done_frames: usize,
    victim_cancelled: bool,
}

/// Stats of one soak batch through a shared TCP daemon, over all its
/// clients.
struct MultiRun {
    ms: f64,
    in_flight_peak: usize,
    queue_depth_peak: usize,
    /// Studies the daemon itself counted as cancelled.
    daemon_cancels: u64,
    agreement: bool,
    queued_frames: usize,
    cancelled_done_frames: usize,
    victim_cancelled: bool,
}

/// Connect to the daemon with Nagle's algorithm off, so a request is
/// never held back behind the daemon's delayed ACK.
fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("disable Nagle");
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    (stream, reader)
}

/// Drive one soak connection: rendezvous with the others after `Pong`,
/// submit `study` twice behind the `victim` (if given), and cancel the
/// victim after its first `Front`.
fn client(
    addr: SocketAddr,
    study: &StudyRequest,
    expect: &[PlanPoint],
    victim: Option<&StudyRequest>,
    ready: &Barrier,
) -> ClientOutcome {
    let (mut writer, mut reader) = connect(addr);
    send(&mut writer, "ping", Request::Ping);
    let pong = recv(&mut reader);
    assert_eq!(pong.resp, Response::Pong, "expected Pong, got {pong:?}");
    ready.wait();

    if let Some(v) = victim {
        send(&mut writer, "victim", Request::Study(v.clone()));
    }
    send(&mut writer, "a", Request::Study(study.clone()));
    send(&mut writer, "b", Request::Study(study.clone()));

    let mut outcome = ClientOutcome::default();
    let mut done_needed = 2usize;
    let mut victim_open = victim.is_some();
    let mut sent_cancel = false;
    while done_needed > 0 || victim_open {
        let frame = recv(&mut reader);
        match frame.resp {
            Response::Accepted(_) => {}
            Response::Queued(_) => outcome.queued_frames += 1,
            Response::Front(_) => {
                if frame.id == "victim" && !sent_cancel {
                    send(&mut writer, "cancel-1", Request::Cancel("victim".into()));
                    sent_cancel = true;
                }
            }
            Response::Done(d) => {
                if frame.id == "victim" {
                    outcome.cancelled_done_frames += 1;
                    victim_open = false;
                } else {
                    outcome.diverged |= d.front != expect;
                    done_needed -= 1;
                }
            }
            Response::Cancelled(_) => {
                assert_eq!(frame.id, "victim", "Cancelled for an uncancelled study");
                outcome.victim_cancelled = true;
                victim_open = false;
            }
            other => panic!("unexpected frame for {}: {other:?}", frame.id),
        }
    }
    outcome
}

/// Soak a fresh TCP daemon from one connection per study, connection 0
/// also carrying the `victim`.
fn run_multi(
    studies: &[StudyRequest],
    expected: &[Vec<PlanPoint>],
    max_concurrent: usize,
    victim: &StudyRequest,
) -> MultiRun {
    let server = Arc::new(Server::new(ServerConfig {
        max_concurrent,
        // Every client plus the shutdown connection.
        max_acceptors: studies.len() + 1,
        ..ServerConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    // Not scoped: should a client panic, the process exits instead of
    // waiting on an accept loop nobody shuts down.
    let serve = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_tcp(listener))
    };
    let ready = Barrier::new(studies.len());
    let t0 = Instant::now();
    let clients: Vec<ClientOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = studies
            .iter()
            .zip(expected)
            .enumerate()
            .map(|(i, (study, expect))| {
                let (victim, ready) = ((i == 0).then_some(victim), &ready);
                scope.spawn(move || client(addr, study, expect, victim, ready))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("soak client panicked"))
            .collect()
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    // Clean shutdown over its own connection, then drain the accept loop.
    let (mut bye, mut reader) = connect(addr);
    send(&mut bye, "bye", Request::Shutdown);
    assert_eq!(recv(&mut reader).resp, Response::Bye, "expected Bye");
    drop((bye, reader));
    serve
        .join()
        .expect("serve_tcp panicked")
        .expect("serve_tcp failed");
    MultiRun {
        ms,
        in_flight_peak: server.peak_in_flight(),
        queue_depth_peak: server.queue_depth_peak(),
        daemon_cancels: server.studies_cancelled(),
        agreement: !clients.iter().any(|c| c.diverged),
        queued_frames: clients.iter().map(|c| c.queued_frames).sum(),
        cancelled_done_frames: clients.iter().map(|c| c.cancelled_done_frames).sum(),
        victim_cancelled: clients.iter().any(|c| c.victim_cancelled),
    }
}

fn main() {
    let fast = mgopt_bench::fast_mode();
    let n_studies = 8usize;
    let (population, max_trials) = if fast { (6, 18) } else { (10, 40) };
    let samples: u64 = if fast { 1 } else { 2 };
    let max_concurrent = 4usize;
    let studies: Vec<StudyRequest> = (0..n_studies as u64)
        .map(|k| mgopt_bench::paper_study(k, population, max_trials, false))
        .collect();

    println!(
        "daemon throughput: {n_studies} studies, population {population}, \
         {max_trials} trials each, max_concurrent {max_concurrent}"
    );

    let expected: Vec<Vec<PlanPoint>> = studies.iter().map(mgopt_bench::standalone_front).collect();

    let mut concurrent_ms = f64::INFINITY;
    let mut sequential_ms = f64::INFINITY;
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut peak = 0usize;
    let (mut plan_space, mut sites) = (0u64, 0usize);
    let mut agreement = true;
    for _ in 0..samples {
        let conc = run_batch(&studies, max_concurrent, false);
        let seq = run_batch(&studies, 1, true);
        concurrent_ms = concurrent_ms.min(conc.ms);
        sequential_ms = sequential_ms.min(seq.ms);
        agreement &= conc.fronts == expected && seq.fronts == expected;
        hits += conc.hits + seq.hits;
        misses += conc.misses + seq.misses;
        peak = peak.max(conc.peak);
        plan_space = conc.plan_space;
        sites = conc.sites;
    }

    // The soak: same 8 studies, one shared TCP daemon, one connection per
    // study (each submitted twice), plus a long streamed victim study
    // cancelled after its first generation.
    // The victim walks every plan it evaluates, so the cancel lands
    // mid-study: each sample's victim has a fleet of its own (a scenario
    // seed no other study here prepares) and no plan meets its 1 kW cap.
    // An uncapped or loosely capped victim, or one on a fleet other
    // capped studies searched, is answered from the per-site tables and
    // the plan-peak memo and can finish first.
    let mut checks = Checks::default();
    let runs: Vec<MultiRun> = (0..samples)
        .map(|sample| {
            let victim = mgopt_bench::victim_study(999 + sample, population, max_trials * 10);
            run_multi(&studies, &expected, max_concurrent, &victim)
        })
        .collect();
    for (sample, run) in runs.iter().enumerate() {
        checks.check(
            run.victim_cancelled,
            format!("multi_conn sample {sample}: the victim study never answered Cancelled"),
        );
        checks.check(
            run.queued_frames >= 1,
            format!("multi_conn sample {sample}: no Queued frame reached a client"),
        );
        checks.check(
            run.daemon_cancels >= 1,
            format!("multi_conn sample {sample}: the daemon counted no cancelled study"),
        );
    }
    let multi_ms = runs.iter().map(|r| r.ms).fold(f64::INFINITY, f64::min);
    let multi_studies = 2 * n_studies;
    let multi_conn = MultiConnBench {
        connections: n_studies,
        studies: multi_studies,
        max_concurrent,
        in_flight_peak: runs.iter().map(|r| r.in_flight_peak).max().unwrap_or(0),
        queue_depth_peak: runs.iter().map(|r| r.queue_depth_peak).max().unwrap_or(0),
        ms_min: multi_ms,
        studies_per_sec: multi_studies as f64 / (multi_ms / 1e3),
        // Sequential baseline scaled from 8 studies to this batch size.
        speedup: sequential_ms * (multi_studies as f64 / n_studies as f64) / multi_ms,
        cancelled_done_frames: runs.iter().map(|r| r.cancelled_done_frames).sum(),
        agreement: runs.iter().all(|r| r.agreement),
    };

    let bench = ServerBench {
        studies: n_studies,
        population,
        max_trials,
        sites,
        plan_space,
        max_concurrent,
        in_flight_peak: peak,
        concurrent_ms_min: concurrent_ms,
        sequential_ms_min: sequential_ms,
        studies_per_sec: n_studies as f64 / (concurrent_ms / 1e3),
        speedup: sequential_ms / concurrent_ms,
        prep_cache_hits: hits,
        prep_cache_misses: misses,
        prep_cache_hit_rate: if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
        agreement,
        threads: rayon::current_num_threads(),
        multi_conn,
    };

    println!(
        "  multiplexed {:9.1} ms   ({:.2} studies/s, peak {} in flight)",
        bench.concurrent_ms_min, bench.studies_per_sec, bench.in_flight_peak
    );
    println!(
        "  sequential  {:9.1} ms   (speedup {:.2}x)",
        bench.sequential_ms_min, bench.speedup
    );
    println!(
        "  prep cache  {} hits / {} misses ({:.0}% hit rate)",
        bench.prep_cache_hits,
        bench.prep_cache_misses,
        bench.prep_cache_hit_rate * 100.0
    );
    let mc = &bench.multi_conn;
    println!(
        "  multi-conn  {:9.1} ms   ({} TCP connections, {} studies, {:.2} studies/s, \
         speedup {:.2}x)",
        mc.ms_min, mc.connections, mc.studies, mc.studies_per_sec, mc.speedup
    );
    println!(
        "              peak {} in flight (cap {}), queue depth peak {}, \
         cancelled-study Done frames {}",
        mc.in_flight_peak, mc.max_concurrent, mc.queue_depth_peak, mc.cancelled_done_frames,
    );

    mgopt_bench::write_bench_artifact("BENCH_server.json", &bench);

    checks.floor("server", "speedup", bench.speedup);
    checks.check(
        bench.agreement,
        "daemon fronts diverged from standalone runs",
    );
    checks.check(
        bench.max_concurrent >= 4 && bench.in_flight_peak >= bench.max_concurrent,
        format!(
            "in-flight peak {} never reached max_concurrent {} — \
             the throughput number measured a sequential run",
            bench.in_flight_peak, bench.max_concurrent
        ),
    );
    checks.check(
        bench.studies >= bench.max_concurrent && bench.sites == 2 && bench.plan_space >= 1,
        "malformed workload shape",
    );
    // Positive finite timings make both studies_per_sec positive too.
    checks.timings([concurrent_ms, sequential_ms, bench.multi_conn.ms_min]);
    checks.check(
        bench.prep_cache_misses >= 1 && bench.prep_cache_hits > bench.prep_cache_misses,
        format!(
            "cache traffic {}h/{}m — one shared fleet across {} \
             studies must hit far more than it misses",
            bench.prep_cache_hits, bench.prep_cache_misses, bench.studies
        ),
    );
    checks.check(
        (0.0..=1.0).contains(&bench.prep_cache_hit_rate),
        format!("hit rate {} outside [0, 1]", bench.prep_cache_hit_rate),
    );

    let m = &bench.multi_conn;
    checks.floor("server_multi", "multi_conn speedup", m.speedup);
    checks.check(
        m.agreement,
        "multi_conn: fronts diverged from standalone runs",
    );
    checks.check(
        m.connections >= 8 && m.studies >= 2 * m.connections,
        format!(
            "multi_conn: {} connections / {} studies — the phase must drive \
             at least 8 concurrent connections, 2 studies each",
            m.connections, m.studies
        ),
    );
    checks.check(
        m.in_flight_peak == m.max_concurrent,
        format!(
            "multi_conn: in-flight peak {} is not the process-wide cap {} — above it the \
             admission semaphore leaked, below it the connections ran effectively sequentially",
            m.in_flight_peak, m.max_concurrent
        ),
    );
    checks.check(
        m.queue_depth_peak >= 1,
        "multi_conn: no study ever queued — the workload never saturated the admission cap",
    );
    checks.check(
        m.cancelled_done_frames == 0,
        format!(
            "multi_conn: the cancelled study produced {} Done frame(s) — \
             its terminal frame must be Cancelled",
            m.cancelled_done_frames
        ),
    );
    checks.finish("server_bench");
}
