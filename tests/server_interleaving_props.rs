//! Property: daemon study results depend only on `(fleet, budget, seed)`
//! — **never** on how concurrent studies interleave.
//!
//! Each case draws 2–4 studies (random seeds, budgets, and optional peak
//! caps), fires them all at once over one connection — so their NSGA-II
//! workers genuinely race over one shared `Arc`-prepared fleet — and
//! then replays the identical studies strictly sequentially (each `Done`
//! awaited before the next request) on a fresh daemon sharing the same
//! prepared cache. Every front must match bit for bit: same genomes,
//! same plans, same `f64` objectives.
//!
//! Two further properties pin the same invariant under the concurrency
//! machinery this daemon grew: splitting the batch across two
//! connections to one shared daemon changes nothing, and cancelling a
//! long victim study mid-flight leaves every other front bit-identical
//! while the victim gets exactly one terminal frame (`Cancelled`, never
//! `Done`).

use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, OnceLock};
use std::thread;

use proptest::prelude::*;

use microgrid_opt::core::wire::{
    encode_request, FleetSpec, PlanPoint, Request, RequestFrame, Response, ResponseFrame,
    StudyBudget, StudyRequest, WIRE_VERSION,
};
use microgrid_opt::core::PreparedCache;
use microgrid_opt::prelude::{CompositionSpace, Server, ServerConfig};

/// One prepared-scenario cache for the whole test binary: both the
/// concurrent and the sequential daemon hand out the same `Arc`s, so the
/// property is pinned over genuinely shared read-only data.
fn shared_cache() -> Arc<PreparedCache> {
    static CACHE: OnceLock<Arc<PreparedCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(|| Arc::new(PreparedCache::new(8))))
}

fn study(seed: u64, population_size: usize, extra_trials: usize, cap: Option<f64>) -> StudyRequest {
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
            max_trials: population_size + extra_trials,
            seed,
        },
        peak_cap_kw: cap,
        stream: false,
    }
}

/// Drive `studies` through one daemon connection. When `sequential`,
/// each study's `Done` is awaited before the next request is written —
/// the no-interleaving baseline. Otherwise all requests go out first and
/// the workers run concurrently. Returns each study's final front.
fn run_batch(studies: &[StudyRequest], sequential: bool) -> Vec<Vec<PlanPoint>> {
    let server = Arc::new(Server::with_cache(ServerConfig::default(), shared_cache()));
    let (client, server_end) = microgrid_opt::server::pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::new(client.reader);

    let send =
        |writer: &mut microgrid_opt::server::pipe::PipeWriter, k: usize, s: &StudyRequest| {
            let frame = RequestFrame {
                v: WIRE_VERSION,
                id: format!("s{k}"),
                req: Request::Study(s.clone()),
            };
            writeln!(writer, "{}", encode_request(&frame)).unwrap();
        };
    let mut fronts: Vec<Option<Vec<PlanPoint>>> = vec![None; studies.len()];
    let recv_done_for = |reader: &mut BufReader<microgrid_opt::server::pipe::PipeReader>,
                         fronts: &mut Vec<Option<Vec<PlanPoint>>>,
                         want: usize| {
        let mut remaining = want;
        while remaining > 0 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
            let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
            match frame.resp {
                Response::Done(d) => {
                    let k: usize = frame.id[1..].parse().unwrap();
                    assert!(fronts[k].is_none(), "duplicate Done for {}", frame.id);
                    fronts[k] = Some(d.front);
                    remaining -= 1;
                }
                Response::Accepted(_) | Response::Queued(_) => {}
                other => panic!("unexpected frame for {}: {other:?}", frame.id),
            }
        }
    };

    if sequential {
        for (k, s) in studies.iter().enumerate() {
            send(&mut writer, k, s);
            recv_done_for(&mut reader, &mut fronts, 1);
        }
    } else {
        for (k, s) in studies.iter().enumerate() {
            send(&mut writer, k, s);
        }
        recv_done_for(&mut reader, &mut fronts, studies.len());
    }
    drop(writer); // EOF: the daemon drains and exits cleanly
    join.join().unwrap().unwrap();
    fronts.into_iter().map(Option::unwrap).collect()
}

/// Like [`run_batch`], but the studies are split across two concurrent
/// connections to one shared daemon — so the process-wide admission
/// semaphore, not the per-connection loop, is what serializes them.
fn run_split(studies: &[StudyRequest]) -> Vec<Vec<PlanPoint>> {
    let server = Arc::new(Server::with_cache(ServerConfig::default(), shared_cache()));
    let mid = studies.len() / 2;
    let halves = [studies[..mid].to_vec(), studies[mid..].to_vec()];
    let clients: Vec<_> = halves
        .into_iter()
        .map(|half| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                let (client, server_end) = microgrid_opt::server::pipe::duplex();
                let join = {
                    let server = Arc::clone(&server);
                    thread::spawn(move || {
                        server.serve_connection(server_end.reader, server_end.writer)
                    })
                };
                let mut writer = client.writer;
                let mut reader = BufReader::new(client.reader);
                for (k, s) in half.iter().enumerate() {
                    let frame = RequestFrame {
                        v: WIRE_VERSION,
                        id: format!("s{k}"),
                        req: Request::Study(s.clone()),
                    };
                    writeln!(writer, "{}", encode_request(&frame)).unwrap();
                }
                let mut fronts: Vec<Option<Vec<PlanPoint>>> = vec![None; half.len()];
                while fronts.iter().any(Option::is_none) {
                    let mut line = String::new();
                    assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
                    let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
                    match frame.resp {
                        Response::Done(d) => {
                            let k: usize = frame.id[1..].parse().unwrap();
                            fronts[k] = Some(d.front);
                        }
                        Response::Accepted(_) | Response::Queued(_) => {}
                        other => panic!("unexpected frame for {}: {other:?}", frame.id),
                    }
                }
                drop(writer);
                join.join().unwrap().unwrap();
                fronts.into_iter().map(Option::unwrap).collect::<Vec<_>>()
            })
        })
        .collect();
    clients
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect()
}

/// Fire `studies` plus a long streamed victim concurrently, cancel the
/// victim after its first `Front`, and return the non-victim fronts plus
/// the victim's terminal frames (which must be exactly one `Cancelled`).
fn run_with_cancelled_victim(
    studies: &[StudyRequest],
    victim_seed: u64,
) -> (Vec<Vec<PlanPoint>>, usize, usize) {
    let server = Arc::new(Server::with_cache(ServerConfig::default(), shared_cache()));
    let (client, server_end) = microgrid_opt::server::pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::new(client.reader);
    let send = |writer: &mut microgrid_opt::server::pipe::PipeWriter, id: &str, req: Request| {
        let frame = RequestFrame {
            v: WIRE_VERSION,
            id: id.into(),
            req,
        };
        writeln!(writer, "{}", encode_request(&frame)).unwrap();
    };
    // ~50 generations of budget: a cancel sent after the first streamed
    // front always lands before the victim finishes on its own. The 1 kW
    // cap keeps every generation a real walk: no plan's summed site peaks
    // meet it, so no plan can be answered from the shared per-site tables,
    // which answer uncapped and loosely capped studies in far less time
    // than a cancel takes to arrive.
    let mut victim = study(victim_seed, 8, 392, Some(1.0));
    victim.stream = true;
    send(&mut writer, "victim", Request::Study(victim));
    for (k, s) in studies.iter().enumerate() {
        send(&mut writer, &format!("s{k}"), Request::Study(s.clone()));
    }

    let mut fronts: Vec<Option<Vec<PlanPoint>>> = vec![None; studies.len()];
    let (mut cancelled, mut victim_done) = (0usize, 0usize);
    let mut sent_cancel = false;
    let mut victim_open = true;
    while fronts.iter().any(Option::is_none) || victim_open {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
        let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
        match frame.resp {
            Response::Accepted(_) | Response::Queued(_) => {}
            Response::Front(_) => {
                if frame.id == "victim" && !sent_cancel {
                    send(&mut writer, "c", Request::Cancel("victim".into()));
                    sent_cancel = true;
                }
            }
            Response::Done(d) => {
                if frame.id == "victim" {
                    victim_done += 1;
                    victim_open = false;
                } else {
                    let k: usize = frame.id[1..].parse().unwrap();
                    fronts[k] = Some(d.front);
                }
            }
            Response::Cancelled(_) => {
                assert_eq!(frame.id, "victim", "Cancelled for an uncancelled study");
                cancelled += 1;
                victim_open = false;
            }
            other => panic!("unexpected frame for {}: {other:?}", frame.id),
        }
    }
    drop(writer);
    join.join().unwrap().unwrap();
    (
        fronts.into_iter().map(Option::unwrap).collect(),
        cancelled,
        victim_done,
    )
}

/// Strategy: one study = (seed, population bucket, extra trials, cap pick).
fn study_strategy() -> impl Strategy<Value = StudyRequest> {
    (0u64..6, 0usize..2, 0usize..9, 0usize..3).prop_map(|(seed, pop, extra, cap)| {
        let population_size = [4, 6][pop];
        // An unconstrained run, a loose cap, and a tight cap that bites.
        let cap = [None, Some(60_000.0), Some(25_000.0)][cap];
        study(seed, population_size, extra, cap)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn concurrent_studies_match_sequential_bit_for_bit(
        studies in proptest::strategies::collection::vec(study_strategy(), 2..=4usize)
    ) {
        let concurrent = run_batch(&studies, false);
        let sequential = run_batch(&studies, true);
        for (k, (c, s)) in concurrent.iter().zip(&sequential).enumerate() {
            prop_assert!(!c.is_empty(), "study {k} returned an empty front");
            prop_assert_eq!(c, s, "study {} diverged under interleaving", k);
        }
    }

    #[test]
    fn studies_split_across_two_connections_match_one_connection(
        studies in proptest::strategies::collection::vec(study_strategy(), 2..=4usize)
    ) {
        let split = run_split(&studies);
        let sequential = run_batch(&studies, true);
        for (k, (c, s)) in split.iter().zip(&sequential).enumerate() {
            prop_assert!(!c.is_empty(), "study {k} returned an empty front");
            prop_assert_eq!(c, s, "study {} diverged across connections", k);
        }
    }

    #[test]
    fn cancelling_a_victim_mid_study_leaves_the_rest_bit_identical(
        studies in proptest::strategies::collection::vec(study_strategy(), 2..=4usize),
        victim_seed in 0u64..6,
    ) {
        let sequential = run_batch(&studies, true);
        let (fronts, cancelled, victim_done) =
            run_with_cancelled_victim(&studies, victim_seed);
        prop_assert_eq!(victim_done, 0, "cancelled victim answered Done");
        prop_assert_eq!(cancelled, 1, "victim must get exactly one Cancelled");
        for (k, (c, s)) in fronts.iter().zip(&sequential).enumerate() {
            prop_assert!(!c.is_empty(), "study {k} returned an empty front");
            prop_assert_eq!(c, s, "study {} diverged next to a cancel", k);
        }
    }
}
