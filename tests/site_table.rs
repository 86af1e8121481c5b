//! The per-site result table: uncapped fleet searches answer cohorts from
//! one table per prepared member, walking each (site, composition) pair
//! at most once, and must be indistinguishable from walking every plan.
//!
//! * Table-backed `FleetProblem` objectives equal the plan walk's
//!   (`FleetEvaluator::evaluate_plans`) bit for bit, over random fleets
//!   of 1–3 sites, random dispatch policies and random cohorts with
//!   repeats.
//! * A second problem on the same prepared fleet answers the same cohort
//!   from the table with the same bits and walks no rows.
//! * Two threads racing over one fresh fleet's tables get the same bits.
//! * Capped problems never allocate a table and walk every row.
//! * Two daemon studies over one fleet share its tables: the second walks
//!   fewer rows than it requests, and both fronts equal standalone runs.

use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use proptest::prelude::*;

use microgrid_opt::core::wire::{
    encode_request, FleetSpec, PlanPoint, Request, RequestFrame, Response, ResponseFrame,
    StudyBudget, StudyRequest, WIRE_VERSION,
};
use microgrid_opt::optimizer::{Evaluation, Genome, Nsga2Optimizer, Problem, SearchControl};
use microgrid_opt::prelude::*;
use microgrid_opt::telemetry::{self, parse::parse_line, Counter, MemorySink};

/// Telemetry counters and sinks are process-global, and every test here
/// walks the fleet engine: serialize them all.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Three prepared members, synthesized once. Tests take clones, which
/// start with empty tables, and edit their space and policy freely.
fn pool() -> &'static [PreparedScenario; 3] {
    static POOL: OnceLock<[PreparedScenario; 3]> = OnceLock::new();
    POOL.get_or_init(|| {
        [
            ScenarioConfig::paper_houston().prepare(),
            ScenarioConfig::paper_berkeley().prepare(),
            ScenarioConfig {
                seed: 7,
                ..ScenarioConfig::paper_houston()
            }
            .prepare(),
        ]
    })
}

fn small_spaces() -> Vec<CompositionSpace> {
    vec![
        CompositionSpace::tiny(),
        CompositionSpace {
            wind_choices: vec![0, 4],
            solar_choices_kw: vec![0.0, 16_000.0],
            battery_choices_kwh: vec![0.0, 22_500.0],
        },
        CompositionSpace {
            wind_choices: vec![2],
            solar_choices_kw: vec![0.0, 8_000.0, 24_000.0],
            battery_choices_kwh: vec![7_500.0, 45_000.0],
        },
    ]
}

fn policies() -> Vec<DispatchPolicy> {
    vec![
        DispatchPolicy::SelfConsumption,
        DispatchPolicy::Islanded,
        DispatchPolicy::CarbonAwareGridCharge {
            ci_threshold_g_per_kwh: 330.0,
            target_soc: 0.9,
        },
        DispatchPolicy::BatterySparing {
            deficit_threshold_kw: 2_000.0,
        },
    ]
}

/// A fresh fleet (empty tables) of the first `members.len()` pool sites,
/// each with the given space and policy.
fn fresh_fleet(members: &[(CompositionSpace, DispatchPolicy)]) -> PreparedFleet {
    PreparedFleet {
        names: (0..members.len()).map(|k| format!("site{k}")).collect(),
        members: pool()
            .iter()
            .zip(members)
            .map(|(base, (space, policy))| {
                let mut m = base.clone();
                m.config.space = space.clone();
                m.config.sim.policy = *policy;
                Arc::new(m)
            })
            .collect(),
    }
}

/// Objective bits of the plan walk, the reference every table-backed
/// answer must match.
fn plan_walk_bits(problem: &FleetProblem<'_>, cohort: &[Genome]) -> Vec<[u64; 2]> {
    let plans: Vec<Vec<Composition>> = cohort.iter().map(|g| problem.plan(g)).collect();
    problem
        .fleet()
        .evaluator()
        .evaluate_plans(&plans)
        .iter()
        .map(|r| {
            [
                r.fleet.operational_t_per_day.to_bits(),
                r.fleet.embodied_t.to_bits(),
            ]
        })
        .collect()
}

fn bits(evals: &[Evaluation]) -> Vec<[u64; 2]> {
    evals
        .iter()
        .map(|e| {
            assert!(
                e.violations.is_empty(),
                "uncapped evaluations carry no violation"
            );
            [e.objectives[0].to_bits(), e.objectives[1].to_bits()]
        })
        .collect()
}

/// Run `f` with tracing into a memory sink; returns its value and the
/// captured `fleet_eval` events' `(rows, walked_rows, table_hits,
/// plans × sites)`.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<(u64, u64, u64, u64)>) {
    let (sink, lines) = MemorySink::new();
    telemetry::install_sink(Box::new(sink));
    telemetry::reset_stats();
    telemetry::set_enabled(true);
    let out = f();
    telemetry::set_enabled(false);
    telemetry::take_sink();
    let events = lines
        .lock()
        .unwrap()
        .iter()
        .map(|l| parse_line(l).expect("captured event parses"))
        .filter(|ev| ev.kind == "fleet_eval")
        .map(|ev| {
            let u = |k: &str| {
                ev.uint(k)
                    .unwrap_or_else(|| panic!("fleet_eval without {k}"))
            };
            (
                u("rows"),
                u("walked_rows"),
                u("table_hits"),
                u("plans") * u("sites"),
            )
        })
        .collect();
    (out, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn table_backed_cohorts_equal_the_plan_walk_bitwise(
        members in prop::collection::vec(
            (prop::sample::select(small_spaces()), prop::sample::select(policies())),
            1..=3,
        ),
        raw in prop::collection::vec(prop::collection::vec(0u16..1_000, 3), 1..40),
        split in 0usize..40,
    ) {
        let _guard = lock();
        let fleet = fresh_fleet(&members);
        let problem = FleetProblem::new(&fleet);
        let dims = problem.dims().to_vec();
        // Genomes drawn with replacement from small spaces repeat, within
        // a cohort and across the two cohorts below.
        let cohort: Vec<Genome> = raw
            .iter()
            .map(|g| dims.iter().zip(g).map(|(&d, &x)| x % d as u16).collect())
            .collect();
        let want = plan_walk_bits(&problem, &cohort);

        // A partial cohort first, so the full one meets a half-filled table.
        let head = &cohort[..split.min(cohort.len())];
        prop_assert_eq!(bits(&problem.evaluate_batch_constrained(head)), want[..head.len()].to_vec());
        prop_assert_eq!(bits(&problem.evaluate_batch_constrained(&cohort)), want.clone());
        for (k, g) in cohort.iter().enumerate().take(3) {
            prop_assert_eq!(bits(&[problem.evaluate_constrained(g)]), vec![want[k]]);
        }

        // A second problem over the same prepared fleet: every lookup hits.
        let (again, events) = traced(|| {
            FleetProblem::new(&fleet).evaluate_batch_constrained(&cohort)
        });
        prop_assert_eq!(bits(&again), want);
        prop_assert_eq!(telemetry::counter_value(Counter::FleetRows), 0);
        prop_assert_eq!(events.len(), 1, "one fleet_eval per cohort");
        let (rows, walked, hits, lookups) = events[0];
        prop_assert_eq!(walked, 0);
        prop_assert_eq!(hits, lookups);
        prop_assert_eq!(rows, lookups * 8_760);
    }
}

#[test]
fn racing_threads_fill_one_fresh_table_identically() {
    let _guard = lock();
    let spaces = small_spaces();
    let policies = policies();
    for round in 0..4 {
        let fleet = fresh_fleet(&[
            (spaces[0].clone(), policies[round % 4]),
            (spaces[1].clone(), policies[(round + 1) % 4]),
        ]);
        let problem = FleetProblem::new(&fleet);
        let cohort = |offset: usize| -> Vec<Genome> {
            (0..30)
                .map(|k| vec![((k * 7 + offset) % 27) as u16, ((k + offset) % 8) as u16])
                .collect()
        };
        let (a, b) = (cohort(0), cohort(3));
        let (got_a, got_b) = thread::scope(|s| {
            let ta = s.spawn(|| FleetProblem::new(&fleet).evaluate_batch_constrained(&a));
            let tb = s.spawn(|| FleetProblem::new(&fleet).evaluate_batch_constrained(&b));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(bits(&got_a), plan_walk_bits(&problem, &a), "round {round}");
        assert_eq!(bits(&got_b), plan_walk_bits(&problem, &b), "round {round}");
    }
}

#[test]
fn capped_problems_never_allocate_a_table_and_walk_every_row() {
    let _guard = lock();
    let spaces = small_spaces();
    let fleet = fresh_fleet(&[
        (spaces[1].clone(), DispatchPolicy::SelfConsumption),
        (spaces[2].clone(), DispatchPolicy::SelfConsumption),
    ]);
    let problem = FleetProblem::new(&fleet).with_peak_cap_kw(3_500.0);
    let cohort: Vec<Genome> = (0..12u16).map(|k| vec![k % 8, k % 6]).collect();
    let (evals, events) = traced(|| {
        let mut evals = problem.evaluate_batch_constrained(&cohort);
        evals.push(problem.evaluate_constrained(&cohort[0]));
        evals
    });
    assert_eq!(evals.len(), 13);
    assert_eq!(events.len(), 2, "one fleet_eval per cohort");
    for (rows, walked, hits, _) in events {
        assert_eq!(walked, rows);
        assert_eq!(hits, 0);
    }
    for member in &fleet.members {
        assert!(
            member.site_table().is_none(),
            "a capped search allocated a table"
        );
    }
}

fn study(seed: u64) -> StudyRequest {
    StudyRequest {
        fleet: FleetSpec::Preset("paper".into()),
        space: Some(CompositionSpace {
            wind_choices: vec![0, 4],
            solar_choices_kw: vec![0.0, 16_000.0],
            battery_choices_kwh: vec![0.0, 22_500.0],
        }),
        objectives: None,
        budget: StudyBudget {
            population_size: 8,
            max_trials: 32,
            seed,
        },
        peak_cap_kw: None,
        stream: false,
    }
}

/// The study's front from a fresh prepared fleet, outside any daemon.
fn standalone_front(study: &StudyRequest) -> Vec<(Genome, [u64; 2])> {
    let fleet = study.resolved_scenario().unwrap().prepare();
    let problem = FleetProblem::new(&fleet);
    let optimizer = Nsga2Optimizer::new(Nsga2Config {
        population_size: study.budget.population_size,
        max_trials: study.budget.max_trials,
        seed: study.budget.seed,
        ..Nsga2Config::default()
    });
    let mut front = Vec::new();
    optimizer.run_controlled(&problem, &mut |view| {
        front = view
            .front
            .iter()
            .map(|(g, e)| {
                (
                    g.clone(),
                    [e.objectives[0].to_bits(), e.objectives[1].to_bits()],
                )
            })
            .collect();
        SearchControl::Continue
    });
    front
}

fn front_bits(front: &[PlanPoint]) -> Vec<(Genome, [u64; 2])> {
    front
        .iter()
        .map(|p| {
            (
                p.genome.clone(),
                [p.objectives[0].to_bits(), p.objectives[1].to_bits()],
            )
        })
        .collect()
}

#[test]
fn daemon_studies_on_one_fleet_share_its_tables() {
    let _guard = lock();
    let studies = [study(3), study(11)];
    let server = Arc::new(Server::new(ServerConfig::default()));
    let (client, server_end) = microgrid_opt::server::pipe::duplex();
    let join = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.serve_connection(server_end.reader, server_end.writer))
    };
    let mut writer = client.writer;
    let mut reader = BufReader::new(client.reader);

    let (sink, lines) = MemorySink::new();
    telemetry::install_sink(Box::new(sink));
    telemetry::set_enabled(true);
    // One study at a time, so every event between two Done frames
    // belongs to the later study.
    let mut fronts = Vec::new();
    let mut marks = vec![0usize];
    for (k, s) in studies.iter().enumerate() {
        let frame = RequestFrame {
            v: WIRE_VERSION,
            id: format!("s{k}"),
            req: Request::Study(s.clone()),
        };
        writeln!(writer, "{}", encode_request(&frame)).unwrap();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "early EOF");
            let frame: ResponseFrame = serde_json::from_str(line.trim_end()).unwrap();
            match frame.resp {
                Response::Done(d) => {
                    fronts.push(d.front);
                    break;
                }
                Response::Accepted(_) => {}
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        marks.push(lines.lock().unwrap().len());
    }
    telemetry::set_enabled(false);
    telemetry::take_sink();
    drop(writer);
    join.join().unwrap().unwrap();

    let captured = lines.lock().unwrap();
    let sums = |from: usize, to: usize| {
        captured[from..to]
            .iter()
            .map(|l| parse_line(l).expect("captured event parses"))
            .filter(|ev| ev.kind == "fleet_eval")
            .fold((0u64, 0u64), |(rows, walked), ev| {
                (
                    rows + ev.uint("rows").unwrap(),
                    walked + ev.uint("walked_rows").unwrap(),
                )
            })
    };
    let (rows1, walked1) = sums(marks[0], marks[1]);
    let (rows2, walked2) = sums(marks[1], marks[2]);
    assert!(rows1 > 0 && walked1 > 0, "the first study walked nothing");
    assert!(
        walked2 < rows2,
        "the second study walked {walked2} of its {rows2} rows: tables not shared"
    );
    for (s, front) in studies.iter().zip(&fronts) {
        assert!(!front.is_empty());
        assert_eq!(
            front_bits(front),
            standalone_front(s),
            "seed {}: daemon front differs from a standalone run",
            s.budget.seed
        );
    }
}
