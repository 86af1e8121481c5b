//! Emit `BENCH_server.json`: daemon throughput in studies per second with
//! several NSGA-II studies multiplexed over one connection, versus the
//! same studies answered strictly one at a time — so the cost (or gain)
//! of the concurrency layer is measured, not assumed.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin server_bench
//! ```
//!
//! The workload is 8 studies over the shared two-site paper fleet with a
//! `max_concurrent = 4` daemon, so the recorded `in_flight_peak` proves
//! at least 4 studies genuinely overlapped. Every daemon front is
//! checked bit-identical against a standalone `FleetProblem` + NSGA-II
//! run with the same seed (`agreement`), and the Accepted frames surface
//! the prepared-cache hit rate (one fleet → 2 misses, then hits only).
//! Every timed batch starts a fresh daemon, so its studies start from
//! empty per-site result tables and share them as they run.
//!
//! A second, `multi_conn` record drives one shared daemon from 8
//! concurrent connections (2 studies each, 16 total) past the
//! process-wide `max_concurrent = 4` admission cap, plus one long
//! streamed study that is cancelled after its first `Front` — recording
//! queue depth, overlap, and that the cancelled study never produced a
//! `Done` frame. `MGOPT_FAST=1` shrinks budgets for smoke runs;
//! `bench_guard` enforces the committed floors on both `speedup` numbers
//! plus the peak/queue/agreement/cancel invariants.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use mgopt_core::wire::{
    encode_request, PlanPoint, Request, RequestFrame, Response, ResponseFrame, StudyRequest,
    WIRE_VERSION,
};
use mgopt_server::{pipe, Server, ServerConfig};
use serde::Serialize;

/// The artifact schema checked by `bench_guard`.
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
    /// The multi-connection phase (shared daemon, many sockets).
    multi_conn: MultiConnBench,
}

/// One shared daemon driven from many concurrent connections at once,
/// past the process-wide admission cap, with a mid-flight cancellation.
#[derive(Debug, Serialize)]
struct MultiConnBench {
    /// Concurrently connected clients.
    connections: usize,
    /// Completed (non-cancelled) studies across all connections.
    studies: usize,
    /// Process-wide in-flight study cap during the run.
    max_concurrent: usize,
    /// High-water mark of genuinely overlapping studies (can never
    /// exceed `max_concurrent` — `bench_guard` checks it).
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

/// Stats of one timed batch through the daemon.
struct BatchRun {
    ms: f64,
    fronts: Vec<Vec<PlanPoint>>,
    hits: u64,
    misses: u64,
    peak: usize,
    plan_space: u64,
    sites: usize,
}

/// Drive `studies` through a fresh daemon over the in-process pipe.
/// `sequential` awaits each `Done` before the next request.
fn run_batch(studies: &[StudyRequest], max_concurrent: usize, sequential: bool) -> BatchRun {
    let server = Arc::new(Server::new(ServerConfig {
        max_concurrent,
        ..ServerConfig::default()
    }));
    let (client, server_end) = pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::new(client.reader);

    let mut fronts: Vec<Option<Vec<PlanPoint>>> = vec![None; studies.len()];
    let (mut hits, mut misses) = (0u64, 0u64);
    let (mut plan_space, mut sites) = (0u64, 0usize);
    let t0 = Instant::now();
    let pump = |reader: &mut BufReader<pipe::PipeReader>,
                fronts: &mut Vec<Option<Vec<PlanPoint>>>,
                hits: &mut u64,
                misses: &mut u64,
                plan_space: &mut u64,
                sites: &mut usize,
                want_done: usize| {
        let mut done = 0usize;
        while done < want_done {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "daemon hung up");
            let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
            let k: usize = frame.id[1..].parse().unwrap();
            match frame.resp {
                Response::Accepted(a) => {
                    *hits += u64::from(a.prep_cache_hits);
                    *misses += u64::from(a.prep_cache_misses);
                    *plan_space = a.plan_space;
                    *sites = a.sites.len();
                }
                Response::Done(d) => {
                    fronts[k] = Some(d.front);
                    done += 1;
                }
                // Past the process-wide cap the daemon reports queueing;
                // harmless for throughput accounting.
                Response::Queued(_) => {}
                other => panic!("unexpected frame for {}: {other:?}", frame.id),
            }
        }
    };
    if sequential {
        for (k, s) in studies.iter().enumerate() {
            let frame = RequestFrame {
                v: WIRE_VERSION,
                id: format!("s{k}"),
                req: Request::Study(s.clone()),
            };
            writeln!(writer, "{}", encode_request(&frame)).unwrap();
            pump(
                &mut reader,
                &mut fronts,
                &mut hits,
                &mut misses,
                &mut plan_space,
                &mut sites,
                1,
            );
        }
    } else {
        for (k, s) in studies.iter().enumerate() {
            let frame = RequestFrame {
                v: WIRE_VERSION,
                id: format!("s{k}"),
                req: Request::Study(s.clone()),
            };
            writeln!(writer, "{}", encode_request(&frame)).unwrap();
        }
        pump(
            &mut reader,
            &mut fronts,
            &mut hits,
            &mut misses,
            &mut plan_space,
            &mut sites,
            studies.len(),
        );
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let peak = server.peak_in_flight();
    drop(writer);
    drop(reader);
    join.join().unwrap().unwrap();
    BatchRun {
        ms,
        fronts: fronts.into_iter().map(Option::unwrap).collect(),
        hits,
        misses,
        peak,
        plan_space,
        sites,
    }
}

/// Stats of one multi-connection batch through a shared daemon.
struct MultiRun {
    ms: f64,
    in_flight_peak: usize,
    queue_depth_peak: usize,
    cancelled_done_frames: usize,
    agreement: bool,
}

fn send_frame(writer: &mut pipe::PipeWriter, id: &str, req: Request) {
    let frame = RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    };
    writeln!(writer, "{}", encode_request(&frame)).unwrap();
}

/// Drive a fresh shared daemon from `studies.len()` concurrent
/// connections, each submitting its study twice. Connection 0
/// additionally submits a long streamed `victim` study and cancels it
/// after its first `Front` frame; both of connection 0's real studies
/// are submitted *behind* the victim, so the cancellation must free a
/// permit for them to finish.
fn run_multi(
    studies: &[StudyRequest],
    expected: &[Vec<PlanPoint>],
    max_concurrent: usize,
    victim: &StudyRequest,
) -> MultiRun {
    let server = Arc::new(Server::new(ServerConfig {
        max_concurrent,
        ..ServerConfig::default()
    }));
    let t0 = Instant::now();
    let clients: Vec<_> = studies
        .iter()
        .enumerate()
        .map(|(i, study)| {
            let server = Arc::clone(&server);
            let study = study.clone();
            let expect = expected[i].clone();
            let victim = (i == 0).then(|| victim.clone());
            thread::spawn(move || {
                let (client, server_end) = pipe::duplex();
                let serve = {
                    let server = Arc::clone(&server);
                    thread::spawn(move || {
                        server.serve_connection(server_end.reader, server_end.writer)
                    })
                };
                let mut writer = client.writer;
                let mut reader = BufReader::new(client.reader);
                let has_victim = victim.is_some();
                if let Some(v) = victim {
                    send_frame(&mut writer, "victim", Request::Study(v));
                }
                send_frame(&mut writer, "a", Request::Study(study.clone()));
                send_frame(&mut writer, "b", Request::Study(study));

                let mut agreement = true;
                let mut cancelled_done = 0usize;
                let mut done_needed = 2usize;
                let mut victim_open = has_victim;
                let mut sent_cancel = false;
                while done_needed > 0 || victim_open {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0, "daemon hung up");
                    let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
                    match frame.resp {
                        Response::Accepted(_) | Response::Queued(_) => {}
                        Response::Front(_) => {
                            if frame.id == "victim" && !sent_cancel {
                                send_frame(
                                    &mut writer,
                                    "cancel-1",
                                    Request::Cancel("victim".into()),
                                );
                                sent_cancel = true;
                            }
                        }
                        Response::Done(d) => {
                            if frame.id == "victim" {
                                cancelled_done += 1;
                                victim_open = false;
                            } else {
                                agreement &= d.front == expect;
                                done_needed -= 1;
                            }
                        }
                        Response::Cancelled(_) => {
                            assert_eq!(frame.id, "victim", "Cancelled for an uncancelled study");
                            victim_open = false;
                        }
                        other => panic!("unexpected frame for {}: {other:?}", frame.id),
                    }
                }
                drop(writer);
                drop(reader);
                serve.join().unwrap().unwrap();
                (agreement, cancelled_done)
            })
        })
        .collect();

    let mut agreement = true;
    let mut cancelled_done_frames = 0usize;
    for client in clients {
        let (ok, cancelled_done) = client.join().unwrap();
        agreement &= ok;
        cancelled_done_frames += cancelled_done;
    }
    MultiRun {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        in_flight_peak: server.peak_in_flight(),
        queue_depth_peak: server.queue_depth_peak(),
        cancelled_done_frames,
        agreement,
    }
}

fn main() {
    let fast = mgopt_bench::fast_mode();
    let n_studies = 8usize;
    let (population, max_trials) = if fast { (6, 18) } else { (10, 40) };
    let samples = if fast { 1 } else { 2 };
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

    // Multi-connection phase: same 8 studies, one shared daemon, one
    // connection per study (each submitted twice), plus a long streamed
    // victim study cancelled after its first generation.
    // The victim walks every plan it evaluates, so the cancel lands
    // mid-study: each sample's victim has a fleet of its own (a scenario
    // seed no other study here prepares) and no plan meets its 1 kW cap.
    // An uncapped or loosely capped victim, or one on a fleet other
    // capped studies searched, is answered from the per-site tables and
    // the plan-peak memo and can finish first.
    let mut multi_ms = f64::INFINITY;
    let mut multi_peak = 0usize;
    let mut multi_queue_peak = 0usize;
    let mut multi_cancelled_done = 0usize;
    let mut multi_agreement = true;
    for sample in 0..samples {
        let victim = mgopt_bench::victim_study(999 + sample as u64, population, max_trials * 10);
        let run = run_multi(&studies, &expected, max_concurrent, &victim);
        multi_ms = multi_ms.min(run.ms);
        multi_peak = multi_peak.max(run.in_flight_peak);
        multi_queue_peak = multi_queue_peak.max(run.queue_depth_peak);
        multi_cancelled_done += run.cancelled_done_frames;
        multi_agreement &= run.agreement;
    }
    let multi_studies = 2 * n_studies;
    let multi_conn = MultiConnBench {
        connections: n_studies,
        studies: multi_studies,
        max_concurrent,
        in_flight_peak: multi_peak,
        queue_depth_peak: multi_queue_peak,
        ms_min: multi_ms,
        studies_per_sec: multi_studies as f64 / (multi_ms / 1e3),
        // Sequential baseline scaled from 8 studies to this batch size.
        speedup: sequential_ms * (multi_studies as f64 / n_studies as f64) / multi_ms,
        cancelled_done_frames: multi_cancelled_done,
        agreement: multi_agreement,
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
    println!(
        "  agreement with standalone runs: {}",
        if bench.agreement {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    let mc = &bench.multi_conn;
    println!(
        "  multi-conn  {:9.1} ms   ({} connections, {} studies, {:.2} studies/s, \
         speedup {:.2}x)",
        mc.ms_min, mc.connections, mc.studies, mc.studies_per_sec, mc.speedup
    );
    println!(
        "              peak {} in flight (cap {}), queue depth peak {}, \
         cancelled-study Done frames {}, agreement: {}",
        mc.in_flight_peak,
        mc.max_concurrent,
        mc.queue_depth_peak,
        mc.cancelled_done_frames,
        if mc.agreement {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_server.json");
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench artifact");
    std::fs::write(&path, json + "\n").expect("write BENCH_server.json");
    println!("[artifact] {}", path.display());
}
