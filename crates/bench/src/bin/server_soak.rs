//! Daemon soak: hammer one shared daemon over **real TCP** from 8
//! concurrent connections, past the process-wide admission cap, with a
//! mid-flight cancellation — and fail (exit 1) unless every completed
//! front is bit-identical to a standalone run.
//!
//! ```text
//! cargo run --release -p mgopt-bench --bin server_soak
//! MGOPT_TRACE=soak.jsonl cargo run --release -p mgopt-bench --bin server_soak
//! ```
//!
//! The choreography, per connection:
//!
//! 1. all 8 clients connect, `Ping`, and rendezvous on a barrier after
//!    `Pong` — so 8 connections are provably served *at the same time*
//!    (a sequential accept loop would deadlock here);
//! 2. each client submits the same study twice (16 studies against a
//!    process-wide cap of 4, so most wait in the admission queue and
//!    announce it with `Queued` frames);
//! 3. connection 0 additionally submits a long streamed victim study
//!    first and cancels it after its first `Front` — the victim's
//!    terminal frame must be `Cancelled`, never `Done`;
//! 4. a final connection sends `Shutdown`, awaits `Bye`, and the accept
//!    loop drains.
//!
//! CI runs this under `MGOPT_TRACE` and pipes the audit log through
//! `trace_report --check`, so the queued/cancelled telemetry schema is
//! exercised end to end. `MGOPT_FAST=1` shrinks budgets for smoke runs.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use mgopt_core::wire::{
    encode_request, FleetSpec, PlanPoint, Request, RequestFrame, Response, ResponseFrame,
    StudyBudget, StudyRequest, WIRE_VERSION,
};
use mgopt_microgrid::CompositionSpace;
use mgopt_optimizer::{Nsga2Config, Nsga2Optimizer};
use mgopt_server::{Server, ServerConfig};

const CONNECTIONS: usize = 8;
const MAX_CONCURRENT: usize = 4;

fn study(seed: u64, population_size: usize, max_trials: usize, stream: bool) -> StudyRequest {
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

/// The front a standalone (no daemon) run produces for `study`.
fn standalone_front(study: &StudyRequest) -> Vec<PlanPoint> {
    let fleet = study.resolved_scenario().expect("valid study").prepare();
    let problem = mgopt_core::FleetProblem::new(&fleet);
    let optimizer = Nsga2Optimizer::new(Nsga2Config {
        population_size: study.budget.population_size,
        max_trials: study.budget.max_trials,
        seed: study.budget.seed,
        ..Nsga2Config::default()
    });
    let mut last = Vec::new();
    optimizer.run_observed(&problem, &mut |view| {
        last = view
            .front
            .iter()
            .map(|(genome, eval)| PlanPoint {
                genome: genome.clone(),
                plan: genome
                    .iter()
                    .zip(&fleet.members)
                    .map(|(&g, m)| m.config.space.at(g as usize))
                    .collect(),
                objectives: eval.objectives.clone(),
                violation: eval.total_violation(),
            })
            .collect();
    });
    last
}

/// Send one request frame as a single write of its line and `\n`.
fn send_frame(writer: &mut TcpStream, id: &str, req: Request) {
    let frame = RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    };
    let line = encode_request(&frame) + "\n";
    writer
        .write_all(line.as_bytes())
        .expect("daemon socket writable");
}

/// Connect to the daemon with Nagle's algorithm off, so a request is
/// never held back behind the daemon's delayed ACK.
fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).expect("disable Nagle");
    stream
}

/// What one client connection observed.
struct ClientOutcome {
    agreement: bool,
    queued_frames: usize,
    cancelled_done_frames: usize,
    got_cancelled: bool,
}

/// Drive one TCP connection through the soak choreography.
fn client(
    addr: std::net::SocketAddr,
    study_req: StudyRequest,
    expect: Vec<PlanPoint>,
    victim: Option<StudyRequest>,
    ready: Arc<Barrier>,
) -> ClientOutcome {
    let mut writer = connect(addr);
    let mut reader = BufReader::new(writer.try_clone().expect("clone socket"));
    let recv = |reader: &mut BufReader<TcpStream>| -> ResponseFrame {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read daemon frame") > 0,
            "daemon hung up mid-soak"
        );
        serde_json::from_str(line.trim_end()).expect("daemon frame parses")
    };

    // Rendezvous: every connection is open and answered concurrently.
    send_frame(&mut writer, "ping", Request::Ping);
    let pong = recv(&mut reader);
    assert_eq!(pong.resp, Response::Pong, "expected Pong, got {pong:?}");
    ready.wait();

    let has_victim = victim.is_some();
    if let Some(v) = victim {
        send_frame(&mut writer, "victim", Request::Study(v));
    }
    send_frame(&mut writer, "a", Request::Study(study_req.clone()));
    send_frame(&mut writer, "b", Request::Study(study_req));

    let mut outcome = ClientOutcome {
        agreement: true,
        queued_frames: 0,
        cancelled_done_frames: 0,
        got_cancelled: false,
    };
    let mut done_needed = 2usize;
    let mut victim_open = has_victim;
    let mut sent_cancel = false;
    while done_needed > 0 || victim_open {
        let frame = recv(&mut reader);
        match frame.resp {
            Response::Accepted(_) => {}
            Response::Queued(_) => outcome.queued_frames += 1,
            Response::Front(_) => {
                if frame.id == "victim" && !sent_cancel {
                    send_frame(&mut writer, "cancel-1", Request::Cancel("victim".into()));
                    sent_cancel = true;
                }
            }
            Response::Done(d) => {
                if frame.id == "victim" {
                    outcome.cancelled_done_frames += 1;
                    victim_open = false;
                } else {
                    outcome.agreement &= d.front == expect;
                    done_needed -= 1;
                }
            }
            Response::Cancelled(_) => {
                assert_eq!(frame.id, "victim", "Cancelled for an uncancelled study");
                outcome.got_cancelled = true;
                victim_open = false;
            }
            other => panic!("unexpected frame for {}: {other:?}", frame.id),
        }
    }
    outcome
}

fn main() -> ExitCode {
    let fast = mgopt_bench::fast_mode();
    let (population, max_trials) = if fast { (6, 18) } else { (8, 32) };

    let server = Arc::new(Server::new(ServerConfig {
        max_concurrent: MAX_CONCURRENT,
        max_acceptors: CONNECTIONS + 1, // the 8 clients plus the shutdown connection
        ..ServerConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind soak listener");
    let addr = listener.local_addr().expect("listener addr");
    let serve = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_tcp(listener))
    };

    println!(
        "daemon soak: {CONNECTIONS} TCP connections x 2 studies \
         (population {population}, {max_trials} trials each), cap {MAX_CONCURRENT}, \
         one mid-flight cancel"
    );

    let studies: Vec<StudyRequest> = (0..CONNECTIONS as u64)
        .map(|k| study(k, population, max_trials, false))
        .collect();
    let expected: Vec<Vec<PlanPoint>> = studies.iter().map(standalone_front).collect();
    // The 1 kW cap keeps every victim generation a real walk, so the
    // cancel lands mid-study: no plan's summed site peaks meet it, so no
    // plan can be answered from the per-site result tables. An uncapped
    // or loosely capped victim is answered from them and can finish first.
    let victim = StudyRequest {
        peak_cap_kw: Some(1.0),
        ..study(999, population, max_trials * 10, true)
    };

    let t0 = Instant::now();
    let ready = Arc::new(Barrier::new(CONNECTIONS));
    let clients: Vec<_> = studies
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let s = s.clone();
            let expect = expected[i].clone();
            let victim = (i == 0).then(|| victim.clone());
            let ready = Arc::clone(&ready);
            thread::spawn(move || client(addr, s, expect, victim, ready))
        })
        .collect();

    let mut agreement = true;
    let mut queued_frames = 0usize;
    let mut cancelled_done_frames = 0usize;
    let mut got_cancelled = false;
    for c in clients {
        let outcome = c.join().expect("soak client panicked");
        agreement &= outcome.agreement;
        queued_frames += outcome.queued_frames;
        cancelled_done_frames += outcome.cancelled_done_frames;
        got_cancelled |= outcome.got_cancelled;
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    // Clean shutdown over its own connection, then drain the accept loop.
    let mut shutdown = connect(addr);
    send_frame(&mut shutdown, "bye", Request::Shutdown);
    let mut reader = BufReader::new(shutdown.try_clone().expect("clone socket"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read Bye");
    drop(reader);
    drop(shutdown);
    serve
        .join()
        .expect("serve_tcp panicked")
        .expect("serve_tcp failed");

    println!(
        "  {:9.1} ms   peak {} in flight (cap {MAX_CONCURRENT}), queue depth peak {}, \
         {} Queued frames, {} studies done, {} cancelled",
        ms,
        server.peak_in_flight(),
        server.queue_depth_peak(),
        queued_frames,
        server.studies_done(),
        server.studies_cancelled(),
    );

    let mut failures: Vec<String> = Vec::new();
    let mut check = |ok: bool, msg: &str| {
        if !ok {
            failures.push(msg.into());
        }
    };
    check(agreement, "a daemon front diverged from its standalone run");
    check(
        cancelled_done_frames == 0,
        "the cancelled study produced a Done frame",
    );
    check(got_cancelled, "the victim study was never Cancelled");
    check(
        server.peak_in_flight() <= MAX_CONCURRENT,
        "in-flight peak exceeded the process-wide cap",
    );
    check(
        server.queue_depth_peak() >= 1,
        "no study ever queued — the workload never saturated the cap",
    );
    check(
        server.studies_cancelled() >= 1,
        "the daemon recorded no cancelled study",
    );
    check(queued_frames >= 1, "no Queued frame ever reached a client");

    if failures.is_empty() {
        println!("  fronts bit-identical to standalone runs; cancel honored; soak OK");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("server_soak: FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
