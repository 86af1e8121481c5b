//! Optimization-as-a-service, end to end: start the daemon on a loopback
//! TCP port, act as a wire-protocol client, and multiplex three NSGA-II
//! fleet studies over one connection — a long streamed exploratory study
//! that is **cancelled mid-flight** after its first generation, a
//! peak-capped study, and a second-seed replica — then shut the daemon
//! down cleanly. The cancelled study's terminal frame is `Cancelled`
//! (with the generations it completed); it never answers `Done`.
//!
//! Everything rides the real versioned wire format from `core::wire`
//! (newline-delimited JSON frames, strict-reject parsing); the only
//! difference from production is that client and daemon share a process.
//!
//! ```bash
//! cargo run --release --example serve_studies               # paper-sized
//! MGOPT_FAST=1 cargo run --release --example serve_studies  # smoke-sized
//! MGOPT_TRACE=trace.jsonl cargo run --release --example serve_studies
//! ```
//!
//! With `MGOPT_TRACE` set, the daemon writes its per-study audit log
//! (`study_start` / `study_done` events under `server.study` spans, plus
//! `prep_cache.*` counters); summarize it with the `trace_report` bin.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use microgrid_opt::core::wire::{
    encode_request, FleetSpec, Request, RequestFrame, Response, ResponseFrame, StudyBudget,
    StudyRequest, WIRE_VERSION,
};
use microgrid_opt::prelude::*;

/// Send one request frame as a single write of its line and `\n`.
fn send(writer: &mut TcpStream, id: &str, req: Request) {
    let frame = RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    };
    let line = encode_request(&frame) + "\n";
    writer.write_all(line.as_bytes()).expect("send request");
}

fn main() {
    let fast = std::env::var("MGOPT_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);

    // -- Daemon side: bind a loopback port and serve on a thread. --------
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = Arc::new(Server::new(ServerConfig::default()));
    let daemon = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_tcp(listener))
    };
    println!("daemon listening on {addr}");

    // -- Client side: three studies over one connection. -----------------
    let (population, max_trials) = if fast { (8, 24) } else { (20, 100) };
    let budget = |seed| StudyBudget {
        population_size: population,
        max_trials,
        seed,
    };
    let space = CompositionSpace::tiny();
    let base = StudyRequest {
        fleet: FleetSpec::Preset("paper".into()),
        space: Some(space),
        objectives: None,
        budget: budget(42),
        peak_cap_kw: None,
        stream: true,
    };
    let requests = vec![
        // A deliberately oversized streamed budget: this study is going
        // to be cancelled after its first generation, demonstrating the
        // cooperative-cancellation lifecycle. Its cap never binds, but a
        // capped study walks every plan each generation, so it is still
        // running when the cancel arrives; an uncapped one is answered
        // from the per-site result tables and could finish first.
        (
            "exploratory",
            StudyRequest {
                budget: StudyBudget {
                    max_trials: max_trials * 4,
                    ..budget(42)
                },
                peak_cap_kw: Some(60_000.0),
                ..base.clone()
            },
        ),
        (
            "peak-capped",
            StudyRequest {
                peak_cap_kw: Some(30_000.0),
                stream: false,
                ..base.clone()
            },
        ),
        (
            "replica-seed-7",
            StudyRequest {
                budget: budget(7),
                stream: false,
                ..base
            },
        ),
    ];
    const VICTIM: &str = "exploratory";

    let stream = TcpStream::connect(addr).expect("connect");
    // Requests go out at once, each line in one write, rather than waiting
    // for the daemon's delayed ACK under Nagle's algorithm.
    stream.set_nodelay(true).expect("disable Nagle");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    for (id, study) in &requests {
        send(&mut writer, id, Request::Study(study.clone()));
    }
    println!("sent {} studies, multiplexed by id\n", requests.len());

    // -- Read the interleaved response stream until every study is done
    //    (or cancelled: the exploratory study is cancelled on its first
    //    streamed front). -----------------------------------------------
    let mut remaining = requests.len();
    let mut sent_cancel = false;
    let mut line = String::new();
    while remaining > 0 {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read frame") > 0,
            "daemon hung up early"
        );
        let frame: ResponseFrame =
            serde_json::from_str(line.trim_end()).expect("decode response frame");
        match frame.resp {
            Response::Accepted(a) => println!(
                "[{}] accepted: sites {:?}, plan space {}, prep cache {}h/{}m",
                frame.id, a.sites, a.plan_space, a.prep_cache_hits, a.prep_cache_misses
            ),
            Response::Queued(q) => println!(
                "[{}] queued: {} studies ahead (process-wide cap saturated)",
                frame.id, q.ahead
            ),
            Response::Front(f) => {
                println!(
                    "[{}] generation {:>2}: {} trials sampled, front size {}",
                    frame.id,
                    f.generation,
                    f.sampled,
                    f.front.len()
                );
                if frame.id == VICTIM && !sent_cancel {
                    send(
                        &mut writer,
                        "cancel-exploratory",
                        Request::Cancel(VICTIM.into()),
                    );
                    println!("[{VICTIM}] >> cancel requested");
                    sent_cancel = true;
                }
            }
            Response::Cancelled(c) => {
                assert_eq!(frame.id, VICTIM, "only the exploratory study was cancelled");
                println!(
                    "[{}] cancelled after {} generations ({} sampled, {} ms) — no Done frame",
                    frame.id, c.generations, c.sampled_trials, c.wall_ms
                );
                remaining -= 1;
            }
            Response::Done(d) => {
                assert_ne!(frame.id, VICTIM, "cancelled study must never answer Done");
                println!(
                    "[{}] done: {} generations, {} sampled ({} unique), {} ms",
                    frame.id, d.generations, d.sampled_trials, d.unique_evaluations, d.wall_ms
                );
                let best = d
                    .front
                    .iter()
                    .min_by(|a, b| a.objectives[0].total_cmp(&b.objectives[0]))
                    .expect("non-empty front");
                println!(
                    "      lowest-operational plan: {:?} -> {:.1} tCO2/day op, {:.0} t embodied",
                    best.genome, best.objectives[0], best.objectives[1]
                );
                for p in &d.front {
                    assert_eq!(p.violation, 0.0, "front contains an infeasible plan");
                }
                remaining -= 1;
            }
            Response::Error(e) => panic!("[{}] daemon error: {:?} {}", frame.id, e.code, e.message),
            other => panic!("[{}] unexpected frame: {other:?}", frame.id),
        }
    }

    // -- Clean shutdown: Bye, then the accept loop exits. -----------------
    send(&mut writer, "bye", Request::Shutdown);
    let mut saw_bye = false;
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read") == 0 {
            break;
        }
        let frame: ResponseFrame = serde_json::from_str(line.trim_end()).expect("decode");
        if matches!(frame.resp, Response::Bye) {
            saw_bye = true;
            break;
        }
    }
    assert!(saw_bye, "daemon closed without Bye");
    daemon
        .join()
        .expect("daemon thread")
        .expect("accept loop clean");
    println!(
        "\ndaemon shut down cleanly after {} studies, {} cancelled (peak {} in flight)",
        server.studies_done(),
        server.studies_cancelled(),
        server.peak_in_flight()
    );
}
