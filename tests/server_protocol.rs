//! Protocol-level harness for the optimization daemon: an in-process
//! client drives [`Server::serve_connection`] through the **real** wire
//! format (and once over real TCP), pinning
//!
//! * study results bit-identical to standalone `FleetProblem` +
//!   NSGA-II runs with the same seeds, sequentially and multiplexed;
//! * graceful degradation under fault injection — malformed frames,
//!   unknown presets, infeasible caps, oversized lines, mid-stream
//!   disconnects, and cache eviction under concurrent load never crash
//!   the daemon or leak across request ids;
//! * the admission queue and cancellation lifecycle — `Queued` frames
//!   past the process-wide cap, `Cancel` yielding `Cancelled` (never
//!   `Done`) with the completed prefix bit-identical, `UnknownStudy`
//!   errors for bad targets, and disconnects cancelling in-flight work;
//! * genuinely concurrent connections, over in-process pipes sharing one
//!   daemon and over real TCP;
//! * the transport contract — every frame leaves in one write, TCP
//!   streams answer pipelined requests without a delayed-ACK stall, and
//!   a study frees its admission slot before its terminal frame, so a
//!   closed-loop client at the cap never sees `Queued`.

use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use microgrid_opt::core::wire::{
    encode_request, ErrorCode, FleetSpec, PlanPoint, Request, RequestFrame, Response,
    ResponseFrame, StudyBudget, StudyRequest, WIRE_VERSION,
};
use microgrid_opt::core::FleetScenario;
use microgrid_opt::optimizer::{Nsga2Config, Nsga2Optimizer};
use microgrid_opt::prelude::*;
use microgrid_opt::server::{pipe, ConnectionOutcome, Server, ServerConfig};

/// A tiny per-site space (8 compositions, 64 fleet plans) so studies are
/// fast enough to run many per test.
fn tiny_space() -> CompositionSpace {
    CompositionSpace {
        wind_choices: vec![0, 4],
        solar_choices_kw: vec![0.0, 16_000.0],
        battery_choices_kwh: vec![0.0, 22_500.0],
    }
}

fn tiny_study(seed: u64) -> StudyRequest {
    StudyRequest {
        fleet: FleetSpec::Preset("paper".into()),
        space: Some(tiny_space()),
        objectives: None,
        budget: StudyBudget {
            population_size: 8,
            max_trials: 24,
            seed,
        },
        peak_cap_kw: None,
        stream: true,
    }
}

fn frame(id: &str, req: Request) -> RequestFrame {
    RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    }
}

/// What the daemon must answer for a study: the final front computed by a
/// standalone `FleetProblem` + NSGA-II run with the same seed.
fn standalone_front(study: &StudyRequest) -> Vec<PlanPoint> {
    let scenario = study.resolved_scenario().expect("valid study");
    let fleet = scenario.prepare();
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
    let mut last: Vec<PlanPoint> = Vec::new();
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

/// In-process client over a pipe, with the server loop on its own thread.
struct Harness {
    writer: pipe::PipeWriter,
    reader: BufReader<pipe::PipeReader>,
    server: Arc<Server>,
    join: thread::JoinHandle<std::io::Result<ConnectionOutcome>>,
}

impl Harness {
    fn start(config: ServerConfig) -> Self {
        let server = Arc::new(Server::new(config));
        let (client, server_end) = pipe::duplex();
        let join = {
            let server = Arc::clone(&server);
            thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
        };
        Self {
            writer: client.writer,
            reader: BufReader::new(client.reader),
            server,
            join,
        }
    }

    fn send(&mut self, frame: &RequestFrame) {
        writeln!(self.writer, "{}", encode_request(frame)).unwrap();
    }

    fn send_raw(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
    }

    fn recv(&mut self) -> ResponseFrame {
        let mut line = String::new();
        assert!(
            self.reader.read_line(&mut line).unwrap() > 0,
            "server closed the stream unexpectedly"
        );
        let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!(frame.v, WIRE_VERSION);
        frame
    }

    /// Read frames until `Done` (or `Error`) for each listed id, returning
    /// each id's final front and checking per-id frame ordering.
    fn collect_done(&mut self, ids: &[&str]) -> Vec<Vec<PlanPoint>> {
        let mut fronts: Vec<Option<Vec<PlanPoint>>> = vec![None; ids.len()];
        let mut accepted = vec![false; ids.len()];
        let mut last_stream: Vec<Option<Vec<PlanPoint>>> = vec![None; ids.len()];
        while fronts.iter().any(Option::is_none) {
            let frame = self.recv();
            let k = ids
                .iter()
                .position(|id| *id == frame.id)
                .unwrap_or_else(|| panic!("frame for unknown id {:?}", frame.id));
            match frame.resp {
                Response::Queued(_) => {
                    assert!(!accepted[k], "Queued after Accepted for {}", frame.id);
                }
                Response::Accepted(a) => {
                    assert!(!accepted[k], "duplicate Accepted for {}", frame.id);
                    accepted[k] = true;
                    assert_eq!(a.plan_space, 64);
                }
                Response::Front(f) => {
                    assert!(accepted[k], "Front before Accepted for {}", frame.id);
                    last_stream[k] = Some(f.front);
                }
                Response::Done(d) => {
                    assert!(accepted[k], "Done before Accepted for {}", frame.id);
                    assert!(
                        (8..=24).contains(&d.sampled_trials),
                        "budget overrun for {}",
                        frame.id
                    );
                    // The final streamed front and the Done front agree.
                    assert_eq!(last_stream[k].as_ref(), Some(&d.front), "id {}", frame.id);
                    fronts[k] = Some(d.front);
                }
                other => panic!("unexpected frame for {}: {other:?}", frame.id),
            }
        }
        fronts.into_iter().map(Option::unwrap).collect()
    }

    fn shutdown(mut self) {
        self.send(&frame("bye", Request::Shutdown));
        loop {
            let f = self.recv();
            if matches!(f.resp, Response::Bye) {
                break;
            }
        }
        assert_eq!(
            self.join.join().unwrap().unwrap(),
            ConnectionOutcome::Shutdown
        );
    }
}

#[test]
fn ping_pong_shutdown() {
    let mut h = Harness::start(ServerConfig::default());
    h.send(&frame("p1", Request::Ping));
    let f = h.recv();
    assert_eq!(f.id, "p1");
    assert_eq!(f.resp, Response::Pong);
    h.shutdown();
}

#[test]
fn study_over_the_wire_is_bit_identical_to_standalone() {
    let mut h = Harness::start(ServerConfig::default());
    let study = tiny_study(42);
    let expected = standalone_front(&study);
    h.send(&frame("s1", Request::Study(study)));
    let fronts = h.collect_done(&["s1"]);
    assert_eq!(fronts[0], expected, "daemon front != standalone front");
    assert!(!fronts[0].is_empty());
    h.shutdown();
}

#[test]
fn multiplexed_studies_stay_bit_identical_and_share_the_cache() {
    let mut h = Harness::start(ServerConfig::default());
    let seeds = [7u64, 8, 9, 10];
    let expected: Vec<Vec<PlanPoint>> = seeds
        .iter()
        .map(|&s| standalone_front(&tiny_study(s)))
        .collect();
    // Fire all studies before reading anything: they run concurrently and
    // their response frames interleave on the wire.
    let ids: Vec<String> = seeds.iter().map(|s| format!("s{s}")).collect();
    for (id, &seed) in ids.iter().zip(&seeds) {
        h.send(&frame(id, Request::Study(tiny_study(seed))));
    }
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let fronts = h.collect_done(&id_refs);
    for ((front, want), id) in fronts.iter().zip(&expected).zip(&ids) {
        assert_eq!(front, want, "id {id} diverged from standalone");
    }
    // Different seeds genuinely searched differently somewhere.
    assert!(expected.windows(2).any(|w| w[0] != w[1]));
    // All four studies used one prepared fleet: two sites, cached once.
    assert_eq!(h.server.cache().len(), 2);
    let server = Arc::clone(&h.server);
    h.shutdown(); // joins every worker, so the counter is final
    assert_eq!(server.studies_done(), 4);
}

#[test]
fn structured_errors_never_kill_the_connection() {
    let mut h = Harness::start(ServerConfig {
        max_frame_bytes: 512,
        ..ServerConfig::default()
    });

    // Malformed JSON: still answered, id unknowable.
    h.send_raw("{definitely not json");
    let f = h.recv();
    assert_eq!(f.id, "");
    let Response::Error(e) = f.resp else {
        panic!("want error")
    };
    assert_eq!(e.code, ErrorCode::MalformedFrame);

    // Unknown field: strict reject, id salvaged.
    h.send_raw(r#"{"v":1,"id":"uf","req":"Ping","turbo":true}"#);
    let f = h.recv();
    assert_eq!(f.id, "uf");
    let Response::Error(e) = f.resp else {
        panic!("want error")
    };
    assert_eq!(e.code, ErrorCode::MalformedFrame);

    // Future protocol version.
    h.send_raw(r#"{"v":99,"id":"v9","req":"Ping"}"#);
    let f = h.recv();
    assert_eq!(f.id, "v9");
    let Response::Error(e) = f.resp else {
        panic!("want error")
    };
    assert_eq!(e.code, ErrorCode::UnsupportedVersion);

    // Unknown preset.
    let mut s = tiny_study(1);
    s.fleet = FleetSpec::Preset("atlantis".into());
    h.send(&frame("up", Request::Study(s)));
    let f = h.recv();
    assert_eq!(f.id, "up");
    let Response::Error(e) = f.resp else {
        panic!("want error")
    };
    assert_eq!(e.code, ErrorCode::UnknownPreset);

    // Infeasible cap.
    let mut s = tiny_study(1);
    s.peak_cap_kw = Some(-250.0);
    h.send(&frame("cap", Request::Study(s)));
    let f = h.recv();
    assert_eq!(f.id, "cap");
    let Response::Error(e) = f.resp else {
        panic!("want error")
    };
    assert_eq!(e.code, ErrorCode::InvalidRequest);

    // Oversized frame: error, resynchronize, keep serving.
    h.send_raw(&format!(
        r#"{{"v":1,"id":"big","req":"{}""#,
        "x".repeat(2048)
    ));
    let f = h.recv();
    let Response::Error(e) = f.resp else {
        panic!("want error")
    };
    assert_eq!(e.code, ErrorCode::Oversized);

    // The connection still works end to end after every fault.
    h.send(&frame("alive", Request::Ping));
    let f = h.recv();
    assert_eq!((f.id.as_str(), f.resp), ("alive", Response::Pong));
    h.shutdown();
}

#[test]
fn mid_stream_disconnect_degrades_gracefully() {
    let server = Arc::new(Server::new(ServerConfig::default()));
    let (client, server_end) = pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::new(client.reader);
    writeln!(
        writer,
        "{}",
        encode_request(&frame("gone", Request::Study(tiny_study(3))))
    )
    .unwrap();
    // Wait for acceptance so the study is genuinely in flight...
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
    assert!(matches!(f.resp, Response::Accepted(_)));
    // ...then vanish: close both halves mid-study.
    drop(reader);
    drop(writer);
    // The server finishes the study quietly (writes swallowed) and
    // returns Eof without panicking.
    assert_eq!(join.join().unwrap().unwrap(), ConnectionOutcome::Eof);
    assert_eq!(server.studies_done(), 1);
}

#[test]
fn concurrent_cache_eviction_never_corrupts_results() {
    // Cache capacity 1 with three distinct two-member fleets in flight:
    // every study evicts another's entries while they run, yet each must
    // match its standalone run bit for bit (in-flight Arcs keep evicted
    // scenarios alive).
    let mut h = Harness::start(ServerConfig {
        cache_capacity: 1,
        ..ServerConfig::default()
    });
    let studies: Vec<StudyRequest> = (0..3)
        .map(|k| {
            let mut scenario = FleetScenario::paper();
            for m in &mut scenario.members {
                m.scenario.seed = 100 + k; // distinct weather/workload seeds
            }
            StudyRequest {
                fleet: FleetSpec::Inline(scenario),
                ..tiny_study(5)
            }
        })
        .collect();
    let expected: Vec<Vec<PlanPoint>> = studies.iter().map(standalone_front).collect();
    let ids = ["e0", "e1", "e2"];
    for (id, s) in ids.iter().zip(&studies) {
        h.send(&frame(id, Request::Study(s.clone())));
    }
    let fronts = h.collect_done(&ids);
    for ((front, want), id) in fronts.iter().zip(&expected).zip(&ids) {
        assert_eq!(front, want, "id {id} corrupted under eviction");
    }
    // The jittered fleets must not all agree (the cache didn't collide).
    assert!(expected.windows(2).any(|w| w[0] != w[1]));
    // Re-running the first study proves eviction actually happened: a
    // capacity-1 cache cannot hold both of its member sites, so at least
    // one must re-prepare — and the result is still bit-identical.
    h.send(&frame("again", Request::Study(studies[0].clone())));
    let mut misses = None;
    let mut redo = None;
    while redo.is_none() {
        let f = h.recv();
        assert_eq!(f.id, "again");
        match f.resp {
            Response::Accepted(a) => misses = Some(a.prep_cache_misses),
            Response::Front(_) => {}
            Response::Done(d) => redo = Some(d.front),
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert!(misses.unwrap() >= 1, "capacity 1 must have evicted a site");
    assert_eq!(redo.unwrap(), expected[0]);
    h.shutdown();
}

/// A study big enough that a `Cancel` sent after its first streamed
/// `Front` always lands before it finishes (cancellation is checked at
/// every generation boundary, and this budget spans ~50 generations).
/// Its loose peak cap never binds but keeps every generation a real
/// walk: an uncapped study is answered from the per-site result tables
/// and can finish before a cancel arrives.
fn long_study(seed: u64) -> StudyRequest {
    let mut s = tiny_study(seed);
    s.budget.max_trials = 400;
    s.peak_cap_kw = Some(60_000.0);
    s
}

#[test]
fn queued_study_reports_position_then_cancel_frees_the_slot() {
    // Cap 1: the second study must queue behind the first; cancelling
    // the first lets the second through, bit-identical to standalone.
    let mut h = Harness::start(ServerConfig {
        max_concurrent: 1,
        ..ServerConfig::default()
    });
    let expected = standalone_front(&tiny_study(21));
    h.send(&frame("s1", Request::Study(long_study(20))));
    // s1 is admitted before s2 is even sent, so the ordering below is
    // deterministic: s1 Accepted, then s2 Queued with one study ahead.
    let f = h.recv();
    assert_eq!(f.id, "s1");
    assert!(matches!(f.resp, Response::Accepted(_)), "got {f:?}");
    h.send(&frame("s2", Request::Study(tiny_study(21))));
    let mut queued_ahead = None;
    // Frames from s1 (Fronts) interleave until s2's Queued arrives.
    while queued_ahead.is_none() {
        let f = h.recv();
        match (f.id.as_str(), f.resp) {
            ("s1", Response::Front(_)) => {}
            ("s2", Response::Queued(q)) => queued_ahead = Some(q.ahead),
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(queued_ahead, Some(1), "one study ran ahead of s2");

    h.send(&frame("c", Request::Cancel("s1".into())));
    let mut s1_open = true;
    let mut s2_front = None;
    // The worker frees s1's slot before writing its terminal frame, so
    // s2 may finish before s1's `Cancelled` arrives: frames of different
    // ids are unordered. Read until both have ended.
    while s1_open || s2_front.is_none() {
        let f = h.recv();
        match (f.id.as_str(), f.resp) {
            ("s1", Response::Front(_)) if s1_open => {}
            ("s1", Response::Cancelled(c)) => {
                assert!(s1_open, "duplicate terminal frame for s1");
                assert!(c.sampled_trials < 400, "cancel landed after the budget");
                s1_open = false;
            }
            ("s1", Response::Done(_)) => panic!("cancelled study answered Done"),
            ("s2", Response::Accepted(_) | Response::Front(_)) => {}
            ("s2", Response::Done(d)) => s2_front = Some(d.front),
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert!(!s1_open, "s1 never Cancelled");
    assert_eq!(s2_front.unwrap(), expected, "queued study diverged");
    let server = Arc::clone(&h.server);
    h.shutdown();
    assert_eq!(server.studies_cancelled(), 1);
    assert!(server.queue_depth_peak() >= 1, "s2 never actually queued");
}

#[test]
fn cancel_of_unknown_or_finished_study_is_a_structured_error() {
    let mut h = Harness::start(ServerConfig::default());

    // Never-seen target.
    h.send(&frame("c1", Request::Cancel("nope".into())));
    let f = h.recv();
    assert_eq!(f.id, "c1");
    let Response::Error(e) = f.resp else {
        panic!("want error, got {f:?}")
    };
    assert_eq!(e.code, ErrorCode::UnknownStudy);

    // Already-finished target: the registry entry is retired with the
    // terminal frame, so a late Cancel gets the same structured error.
    h.send(&frame("s1", Request::Study(tiny_study(31))));
    h.collect_done(&["s1"]);
    h.send(&frame("c2", Request::Cancel("s1".into())));
    let f = h.recv();
    assert_eq!(f.id, "c2");
    let Response::Error(e) = f.resp else {
        panic!("want error, got {f:?}")
    };
    assert_eq!(e.code, ErrorCode::UnknownStudy);

    // The connection is still healthy.
    h.send(&frame("alive", Request::Ping));
    let f = h.recv();
    assert_eq!((f.id.as_str(), f.resp), ("alive", Response::Pong));
    h.shutdown();
}

#[test]
fn multiple_connections_share_one_daemon_bit_identically() {
    // Three pipe connections against one Server, two studies each, all
    // in flight together past the process-wide cap of 2.
    let server = Arc::new(Server::new(ServerConfig {
        max_concurrent: 2,
        ..ServerConfig::default()
    }));
    let seeds: [[u64; 2]; 3] = [[40, 41], [42, 43], [44, 45]];
    let clients: Vec<_> = seeds
        .iter()
        .map(|&pair| {
            let server = Arc::clone(&server);
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
                for (k, &seed) in pair.iter().enumerate() {
                    writeln!(
                        writer,
                        "{}",
                        encode_request(&frame(&format!("s{k}"), Request::Study(tiny_study(seed))))
                    )
                    .unwrap();
                }
                let mut fronts: [Option<Vec<PlanPoint>>; 2] = [None, None];
                while fronts.iter().any(Option::is_none) {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0, "daemon hung up");
                    let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
                    let k: usize = f.id[1..].parse().unwrap();
                    match f.resp {
                        Response::Queued(_) | Response::Accepted(_) | Response::Front(_) => {}
                        Response::Done(d) => fronts[k] = Some(d.front),
                        other => panic!("unexpected frame for {}: {other:?}", f.id),
                    }
                }
                drop(writer);
                drop(reader);
                assert_eq!(serve.join().unwrap().unwrap(), ConnectionOutcome::Eof);
                fronts.map(Option::unwrap)
            })
        })
        .collect();
    for (client, pair) in clients.into_iter().zip(&seeds) {
        let fronts = client.join().unwrap();
        for (front, &seed) in fronts.iter().zip(pair) {
            assert_eq!(
                front,
                &standalone_front(&tiny_study(seed)),
                "seed {seed} diverged across connections"
            );
        }
    }
    assert_eq!(server.studies_done(), 6);
    assert!(
        server.peak_in_flight() <= 2,
        "process-wide cap leaked across connections"
    );
}

#[test]
fn disconnect_mid_study_cancels_it() {
    let server = Arc::new(Server::new(ServerConfig::default()));
    let (client, server_end) = pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::new(client.reader);
    writeln!(
        writer,
        "{}",
        encode_request(&frame("gone", Request::Study(long_study(50))))
    )
    .unwrap();
    // Wait for the first streamed front so the study is mid-search...
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
        if matches!(f.resp, Response::Front(_)) {
            break;
        }
    }
    // ...then vanish. The disconnect must cancel the study at the next
    // generation boundary instead of burning the remaining ~47
    // generations into a closed pipe.
    drop(reader);
    drop(writer);
    assert_eq!(join.join().unwrap().unwrap(), ConnectionOutcome::Eof);
    assert_eq!(server.studies_cancelled(), 1);
    assert_eq!(server.studies_done(), 1, "cancelled still counts as done");
}

#[test]
fn tcp_connections_are_served_concurrently() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServerConfig::default()));
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_tcp(listener))
    };

    let ping = |stream: &mut std::net::TcpStream, id: &str| {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writeln!(stream, "{}", encode_request(&frame(id, Request::Ping))).unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
        assert_eq!((f.id.as_str(), f.resp), (id, Response::Pong));
    };

    // With the old sequential accept loop, B's Ping would hang until A
    // hung up; a concurrent acceptor answers both while both are open.
    let mut a = std::net::TcpStream::connect(addr).unwrap();
    let mut b = std::net::TcpStream::connect(addr).unwrap();
    ping(&mut a, "a");
    ping(&mut b, "b");

    // Shutdown drains already-accepted connections, so close A first.
    drop(a);
    let mut reader = BufReader::new(b.try_clone().unwrap());
    writeln!(b, "{}", encode_request(&frame("q", Request::Shutdown))).unwrap();
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
        if matches!(f.resp, Response::Bye) {
            break;
        }
        line.clear();
    }
    drop(reader);
    drop(b);
    join.join().unwrap().unwrap();
}

#[test]
fn tcp_transport_end_to_end() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServerConfig::default()));
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_tcp(listener))
    };

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let study = tiny_study(11);
    let expected = standalone_front(&study);
    for f in [
        frame("ping", Request::Ping),
        frame("tcp1", Request::Study(study)),
    ] {
        writeln!(writer, "{}", encode_request(&f)).unwrap();
    }
    let mut done: Option<Vec<PlanPoint>> = None;
    while done.is_none() {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
        if let Response::Done(d) = f.resp {
            assert_eq!(f.id, "tcp1");
            done = Some(d.front);
        }
    }
    assert_eq!(done.unwrap(), expected, "TCP study != standalone");
    writeln!(writer, "{}", encode_request(&frame("q", Request::Shutdown))).unwrap();
    let mut saw_bye = false;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
        saw_bye |= matches!(f.resp, Response::Bye);
        line.clear();
    }
    assert!(saw_bye, "no Bye before close");
    join.join().unwrap().unwrap();
}

#[test]
fn closed_loop_client_at_the_cap_never_sees_queued() {
    // Cap 1 and one study outstanding at a time: each study is sent the
    // moment the previous one's Done arrives. The slot is freed before
    // Done is written, so nothing ever waits for admission.
    let mut h = Harness::start(ServerConfig {
        max_concurrent: 1,
        ..ServerConfig::default()
    });
    for seed in 70..90u64 {
        let id = format!("loop{seed}");
        h.send(&frame(&id, Request::Study(tiny_study(seed))));
        loop {
            let f = h.recv();
            assert_eq!(f.id, id);
            match f.resp {
                Response::Accepted(_) | Response::Front(_) => {}
                Response::Done(_) => break,
                Response::Queued(q) => {
                    panic!("{id} queued behind {} with nothing else in flight", q.ahead)
                }
                other => panic!("unexpected frame for {id}: {other:?}"),
            }
        }
    }
    let server = Arc::clone(&h.server);
    h.shutdown();
    assert_eq!(server.queue_depth_peak(), 0, "a study waited for admission");
}

#[test]
fn tcp_answers_pipelined_pings_without_a_delayed_ack_stall() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(Server::new(ServerConfig::default()));
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_tcp(listener))
    };
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    // The client sends each round in one write with Nagle off, so any
    // stall measured here is the daemon's.
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Two Pings in one segment: the second Pong is written while the
    // first is still unacknowledged, which Nagle's algorithm would hold
    // back until the client's delayed ACK (about 40 ms on Linux).
    let mut rounds_ms: Vec<f64> = (0..20)
        .map(|round| {
            let ids = [format!("a{round}"), format!("b{round}")];
            let batch: String = ids
                .iter()
                .map(|id| encode_request(&frame(id, Request::Ping)) + "\n")
                .collect();
            let t0 = Instant::now();
            stream.write_all(batch.as_bytes()).unwrap();
            for id in &ids {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).unwrap() > 0);
                let f: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
                assert_eq!((f.id.as_str(), f.resp), (id.as_str(), Response::Pong));
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rounds_ms.sort_by(f64::total_cmp);
    let median = rounds_ms[rounds_ms.len() / 2];
    assert!(
        median < 10.0,
        "median pipelined Ping round took {median:.2} ms: frames wait for delayed ACKs"
    );

    let shutdown = encode_request(&frame("q", Request::Shutdown)) + "\n";
    stream.write_all(shutdown.as_bytes()).unwrap();
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        line.clear();
    }
    join.join().unwrap().unwrap();
}

/// A `Write` that keeps the bytes of every `write` call apart.
#[derive(Clone, Default)]
struct WriteLog(Arc<Mutex<Vec<Vec<u8>>>>);

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn every_response_frame_is_one_write() {
    let server = Server::new(ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let input: String = [
        encode_request(&frame("p", Request::Ping)),
        encode_request(&frame("s", Request::Study(tiny_study(61)))),
        "x".repeat(4096),
        encode_request(&frame("c", Request::Cancel("nope".into()))),
        encode_request(&frame("q", Request::Shutdown)),
    ]
    .iter()
    .map(|line| format!("{line}\n"))
    .collect();
    let log = WriteLog::default();
    let outcome = server
        .serve_connection(input.as_bytes(), log.clone())
        .unwrap();
    assert_eq!(outcome, ConnectionOutcome::Shutdown);

    let mut seen = std::collections::BTreeSet::new();
    for bytes in log.0.lock().unwrap().iter() {
        let text = std::str::from_utf8(bytes).unwrap();
        assert!(
            text.ends_with('\n') && text.matches('\n').count() == 1,
            "a write carried something other than one whole frame: {text:?}"
        );
        let f: ResponseFrame = serde_json::from_str(text.trim_end()).unwrap();
        seen.insert(match &f.resp {
            Response::Pong => "Pong",
            Response::Accepted(_) => "Accepted",
            Response::Front(_) => "Front",
            Response::Done(_) => "Done",
            Response::Bye => "Bye",
            Response::Error(e) if e.code == ErrorCode::Oversized && f.id.is_empty() => "Oversized",
            Response::Error(_) => "Error",
            other => panic!("unexpected frame: {other:?}"),
        });
    }
    for want in [
        "Pong",
        "Accepted",
        "Front",
        "Done",
        "Bye",
        "Oversized",
        "Error",
    ] {
        assert!(seen.contains(want), "no {want} frame among {seen:?}");
    }
}
