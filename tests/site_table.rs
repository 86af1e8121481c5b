//! The per-site result table: fleet searches answer cohorts from one
//! table per prepared member, walking each (site, composition) pair at
//! most once when uncapped, and only the plans the table cannot settle
//! when capped. They must be indistinguishable from walking every plan.
//!
//! * Table-backed `FleetProblem` objectives equal the plan walk's
//!   (`FleetEvaluator::evaluate_plans`) bit for bit, over random fleets
//!   of 1–3 sites, random dispatch policies and random cohorts with
//!   repeats.
//! * A second problem on the same prepared fleet answers the same cohort
//!   from the table with the same bits and walks no rows.
//! * Capped objectives and violations equal the plan walk's bit for bit,
//!   on empty and on filled tables, for caps below, inside and above the
//!   plans' peaks, and for a cap exactly equal to one plan's summed site
//!   peaks. On filled tables, exactly the plans whose summed site peaks
//!   exceed the cap walk.
//! * Every capped cohort emits one `fleet_eval`, and a repeated capped
//!   cohort walks nothing, under a tight cap as under a loose one.
//! * Plans walked under one cap and answered from the fleet's plan-peak
//!   memo under another equal a fresh plan walk plus
//!   `peak_cap_violation_kw`, bit for bit, at either lane width; only the
//!   plans the summed site peaks cannot settle come from the memo.
//! * Two fleets that differ only in one member's scenario seed never
//!   share a peak, even from one prepared cache.
//! * A capped and an uncapped problem on one fleet share its tables and
//!   read the same bits in either order.
//! * Two threads racing over one fresh fleet's tables get the same bits.
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

/// A fresh fleet (empty tables and plan-peak memo) of the first
/// `members.len()` pool sites, each with the given space and policy.
fn fresh_fleet(members: &[(CompositionSpace, DispatchPolicy)]) -> PreparedFleet {
    PreparedFleet::new(
        (0..members.len()).map(|k| format!("site{k}")).collect(),
        pool()
            .iter()
            .zip(members)
            .map(|(base, (space, policy))| {
                let mut m = base.clone();
                m.config.space = space.clone();
                m.config.sim.policy = *policy;
                Arc::new(m)
            })
            .collect(),
    )
}

/// One evaluation's objective bits and, under a cap, its violation bits.
type Bits = ([u64; 2], Option<u64>);

/// The plan walk's results for a cohort, with peak tracking.
fn plan_walk(problem: &FleetProblem<'_>, cohort: &[Genome]) -> Vec<FleetResult> {
    let plans: Vec<Vec<Composition>> = cohort.iter().map(|g| problem.plan(g)).collect();
    problem.fleet().evaluator().evaluate_plans(&plans)
}

/// Bits of one plan-walk result: its objectives and, under `cap`, its
/// violation.
fn result_bits(r: &FleetResult, cap: Option<f64>) -> Bits {
    (
        [
            r.fleet.operational_t_per_day.to_bits(),
            r.fleet.embodied_t.to_bits(),
        ],
        cap.map(|cap| r.fleet.peak_cap_violation_kw(cap).to_bits()),
    )
}

/// Bits of the plan walk, the reference every table-backed answer must
/// match.
fn plan_walk_bits(problem: &FleetProblem<'_>, cohort: &[Genome]) -> Vec<Bits> {
    plan_walk(problem, cohort)
        .iter()
        .map(|r| result_bits(r, problem.peak_cap_kw()))
        .collect()
}

fn bits(evals: &[Evaluation]) -> Vec<Bits> {
    evals
        .iter()
        .map(|e| {
            assert!(e.violations.len() <= 1, "one cap, one violation");
            (
                [e.objectives[0].to_bits(), e.objectives[1].to_bits()],
                e.violations.first().map(|v| v.to_bits()),
            )
        })
        .collect()
}

/// Each plan's site peaks from the fleet's filled tables, summed in site
/// order.
fn summed_site_peaks(fleet: &PreparedFleet, cohort: &[Genome]) -> Vec<f64> {
    cohort
        .iter()
        .map(|g| {
            g.iter()
                .zip(&fleet.members)
                .map(|(&i, m)| {
                    m.site_table()
                        .expect("allocated")
                        .get(usize::from(i))
                        .expect("walked")
                        .peak_import_kw
                })
                .sum()
        })
        .collect()
}

/// The counts of one captured `fleet_eval` event.
#[derive(Debug, Clone, Copy)]
struct FleetEval {
    rows: u64,
    walked_rows: u64,
    table_hits: u64,
    peak_hits: u64,
    /// Plans × sites.
    lookups: u64,
}

/// Run `f` with tracing into a memory sink; returns its value and the
/// captured `fleet_eval` events.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<FleetEval>) {
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
            FleetEval {
                rows: u("rows"),
                walked_rows: u("walked_rows"),
                table_hits: u("table_hits"),
                peak_hits: u("peak_hits"),
                lookups: u("plans") * u("sites"),
            }
        })
        .collect();
    (out, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn capped_cohorts_equal_the_plan_walk_bitwise(
        members in prop::collection::vec(
            (prop::sample::select(small_spaces()), prop::sample::select(policies())),
            1..=3,
        ),
        raw in prop::collection::vec(prop::collection::vec(0u16..1_000, 3), 1..40),
        split in 0usize..40,
        cap_kind in 0usize..5,
        pick in 0usize..40,
    ) {
        let _guard = lock();
        // Two copies of one fleet: `cold` meets the capped cohorts with
        // empty tables, `warm` after an uncapped pass filled them.
        let (cold, warm) = (fresh_fleet(&members), fresh_fleet(&members));
        let dims = FleetProblem::new(&cold).dims().to_vec();
        let cohort: Vec<Genome> = raw
            .iter()
            .map(|g| dims.iter().zip(g).map(|(&d, &x)| x % d as u16).collect())
            .collect();
        FleetProblem::new(&warm).evaluate_batch_constrained(&cohort);
        let sums = summed_site_peaks(&warm, &cohort);
        let walks = plan_walk(&FleetProblem::new(&cold), &cohort);
        let peaks: Vec<f64> = walks
            .iter()
            .map(|r| r.fleet.peak_concurrent_import_kw.expect("tracked"))
            .collect();
        let (lo, hi) = peaks
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        let k = pick % cohort.len();
        let cap = match cap_kind {
            0 => lo * 0.5,        // below every plan's peak
            1 => peaks[k],        // one plan's peak
            2 => sums[k],         // one plan's bound: the `<=` boundary
            3 => 0.5 * (lo + hi), // between the peaks
            _ => 2.0 * sums.iter().copied().fold(0.0, f64::max), // above every bound
        }
        .max(1e-3);
        let want: Vec<Bits> = walks.iter().map(|r| result_bits(r, Some(cap))).collect();

        for fleet in [&cold, &warm] {
            let problem = FleetProblem::new(fleet).with_peak_cap_kw(cap);
            let head = &cohort[..split.min(cohort.len())];
            prop_assert_eq!(
                bits(&problem.evaluate_batch_constrained(head)),
                want[..head.len()].to_vec()
            );
            prop_assert_eq!(bits(&problem.evaluate_batch_constrained(&cohort)), want.clone());
            for (k, g) in cohort.iter().enumerate().take(3) {
                prop_assert_eq!(bits(&[problem.evaluate_constrained(g)]), vec![want[k]]);
            }
        }

        // On filled tables and an empty plan-peak memo, exactly the plans
        // whose summed site peaks exceed the cap take the plan walk. Once
        // they have (on `warm`, above), the memo answers each of them.
        let filled = fresh_fleet(&members);
        FleetProblem::new(&filled).evaluate_batch_constrained(&cohort);
        let over = sums.iter().filter(|&&sum| sum > cap).count() as u64;
        for (fleet, walked, peak_hits) in [(&filled, over, 0), (&warm, 0, over)] {
            let (_, events) = traced(|| {
                FleetProblem::new(fleet)
                    .with_peak_cap_kw(cap)
                    .evaluate_batch_constrained(&cohort)
            });
            prop_assert_eq!(events.len(), 1, "one fleet_eval per cohort");
            prop_assert_eq!(events[0].walked_rows, walked * members.len() as u64 * 8_760);
            prop_assert_eq!(events[0].peak_hits, peak_hits);
        }
    }

    #[test]
    fn memo_answers_under_another_cap_equal_the_plan_walk_bitwise(
        members in prop::collection::vec(
            (prop::sample::select(small_spaces()), prop::sample::select(policies())),
            1..=3,
        ),
        raw in prop::collection::vec(prop::collection::vec(0u16..1_000, 3), 1..40),
        cap_kinds in (0usize..4, 0usize..4),
        widths in (0usize..2, 0usize..2),
    ) {
        let _guard = lock();
        let fleet = fresh_fleet(&members);
        let dims = FleetProblem::new(&fleet).dims().to_vec();
        let cohort: Vec<Genome> = raw
            .iter()
            .map(|g| dims.iter().zip(g).map(|(&d, &x)| x % d as u16).collect())
            .collect();
        // The reference: a fresh plan walk, which reads no table or memo.
        let walks = plan_walk(&FleetProblem::new(&fleet), &cohort);
        let peaks: Vec<f64> = walks
            .iter()
            .map(|r| r.fleet.peak_concurrent_import_kw.expect("tracked"))
            .collect();
        let (lo, hi) = peaks
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        let cap = |kind: usize| {
            match kind {
                0 => lo * 0.5,        // below every plan's peak
                1 => peaks[0],        // one plan's peak
                2 => 0.5 * (lo + hi), // between the peaks
                _ => 2.0 * hi,        // above every peak
            }
            .max(1e-3)
        };
        let width = |w: usize| [BatchBackend::Scalar, BatchBackend::Simd][w];
        let problem = |cap: f64, w: usize| {
            FleetProblem::new(&fleet)
                .with_backend(width(w))
                .with_peak_cap_kw(cap)
        };

        // Fresh tables: the first cap walks every plan, filling the memo.
        let (first, second) = (cap(cap_kinds.0), cap(cap_kinds.1));
        let want: Vec<Bits> = walks.iter().map(|r| result_bits(r, Some(first))).collect();
        prop_assert_eq!(bits(&problem(first, widths.0).evaluate_batch_constrained(&cohort)), want);

        // The second cap walks nothing: the summed site peaks settle the
        // plans that meet it, and the memo answers every other one.
        let (got, events) = traced(|| problem(second, widths.1).evaluate_batch_constrained(&cohort));
        let want: Vec<Bits> = walks.iter().map(|r| result_bits(r, Some(second))).collect();
        prop_assert_eq!(bits(&got), want);
        let over = summed_site_peaks(&fleet, &cohort)
            .iter()
            .filter(|&&sum| sum > second)
            .count() as u64;
        prop_assert_eq!(events.len(), 1, "one fleet_eval per cohort");
        prop_assert_eq!(events[0].walked_rows, 0);
        prop_assert_eq!(events[0].peak_hits, over);
    }

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
        let e = events[0];
        prop_assert_eq!(e.walked_rows, 0);
        prop_assert_eq!(e.table_hits, e.lookups);
        prop_assert_eq!(e.rows, e.lookups * 8_760);
        prop_assert_eq!(e.peak_hits, 0, "uncapped cohorts never read the memo");
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
fn capped_cohorts_emit_one_fleet_eval_each_and_repeats_walk_nothing() {
    let _guard = lock();
    let spaces = small_spaces();
    let fleet = fresh_fleet(&[
        (spaces[1].clone(), DispatchPolicy::SelfConsumption),
        (spaces[2].clone(), DispatchPolicy::SelfConsumption),
    ]);
    let tight = FleetProblem::new(&fleet).with_peak_cap_kw(3_500.0);
    let loose = FleetProblem::new(&fleet).with_peak_cap_kw(1e9);
    let cohort: Vec<Genome> = (0..12u16).map(|k| vec![k % 8, k % 6]).collect();
    let (evals, events) = traced(|| {
        let mut evals = tight.evaluate_batch_constrained(&cohort);
        evals.push(tight.evaluate_constrained(&cohort[0]));
        evals.extend(loose.evaluate_batch_constrained(&cohort));
        evals.extend(loose.evaluate_batch_constrained(&cohort));
        evals.extend(tight.evaluate_batch_constrained(&cohort));
        evals
    });
    assert_eq!(evals.len(), 49);
    assert_eq!(
        bits(&evals[..12]),
        bits(&evals[37..]),
        "a repeat reads the same"
    );
    assert_eq!(events.len(), 5, "one fleet_eval per cohort");
    for (e, plans) in events.iter().zip([12u64, 1, 12, 12, 12]) {
        assert_eq!(e.lookups, plans * 2);
        assert_eq!(e.rows, e.lookups * 8_760);
        assert!(e.walked_rows <= e.rows);
        assert_eq!(e.table_hits + e.walked_rows / 8_760, e.lookups);
    }
    // The first cohort met empty tables, so every plan walked, and its
    // walk filled every pair the cohort holds and every plan's peak.
    assert_eq!(events[0].walked_rows, events[0].rows);
    assert_eq!(events[0].peak_hits, 0);
    // Repeats walk nothing: loose, the summed site peaks settle every
    // plan; tight, the memo answers the plans they cannot settle.
    for e in &events[1..] {
        assert_eq!((e.walked_rows, e.table_hits), (0, e.lookups), "{e:?}");
    }
    let over = summed_site_peaks(&fleet, &cohort)
        .iter()
        .filter(|&&sum| sum > 3_500.0)
        .count() as u64;
    assert!(over > 0, "the tight cap bites");
    let peak_hits: Vec<u64> = events.iter().map(|e| e.peak_hits).collect();
    assert_eq!(peak_hits, [0, 1, 0, 0, over]);
}

#[test]
fn fleets_differing_in_one_members_seed_never_share_a_peak() {
    let _guard = lock();
    let cache = PreparedCache::new(8);
    let scenario = |berkeley_seed: u64| {
        let mut f = FleetScenario::paper();
        for m in &mut f.members {
            m.scenario.space = small_spaces()[1].clone();
        }
        f.members[1].scenario.seed = berkeley_seed;
        f
    };
    let (a, _) = scenario(42).prepare_shared(&cache);
    let (b, _) = scenario(43).prepare_shared(&cache);
    assert!(
        Arc::ptr_eq(&a.members[0], &b.members[0]),
        "one shared Houston member, one table"
    );
    let cap = 3_500.0;
    let cohort: Vec<Genome> = (0..16u16).map(|k| vec![k % 8, (k * 3) % 8]).collect();
    // `b`'s tables fill uncapped, which stores no peak; `a` then walks
    // every plan under the cap, which stores all of its peaks.
    FleetProblem::new(&b).evaluate_batch_constrained(&cohort);
    FleetProblem::new(&a)
        .with_peak_cap_kw(cap)
        .evaluate_batch_constrained(&cohort);

    // `b` reads none of `a`'s peaks: the plans its summed site peaks
    // cannot settle walk, with `b`'s own bits.
    let problem = FleetProblem::new(&b).with_peak_cap_kw(cap);
    let (got, events) = traced(|| problem.evaluate_batch_constrained(&cohort));
    assert_eq!(bits(&got), plan_walk_bits(&problem, &cohort));
    let over = summed_site_peaks(&b, &cohort)
        .iter()
        .filter(|&&sum| sum > cap)
        .count() as u64;
    assert!(over > 0, "the cap bites");
    assert_eq!(events[0].peak_hits, 0);
    assert_eq!(events[0].walked_rows, over * 2 * 8_760);

    // The same scenario through the same cache gets `a`'s memo back.
    let (again, _) = scenario(42).prepare_shared(&cache);
    let problem = FleetProblem::new(&again).with_peak_cap_kw(cap);
    let (got, events) = traced(|| problem.evaluate_batch_constrained(&cohort));
    assert_eq!(bits(&got), plan_walk_bits(&problem, &cohort));
    assert_eq!(events[0].walked_rows, 0);
    assert!(events[0].peak_hits > 0);
}

#[test]
fn capped_and_uncapped_problems_share_one_fleets_tables_in_either_order() {
    let _guard = lock();
    let spaces = small_spaces();
    let members = [
        (spaces[0].clone(), policies()[2]),
        (spaces[1].clone(), DispatchPolicy::SelfConsumption),
    ];
    let cohort: Vec<Genome> = (0..20u16).map(|k| vec![(k * 7) % 27, k % 8]).collect();
    // A cap at the median plan's summed site peaks: about half the plans
    // settle on filled tables.
    let probe = fresh_fleet(&members);
    FleetProblem::new(&probe).evaluate_batch_constrained(&cohort);
    let sums = summed_site_peaks(&probe, &cohort);
    let mut sorted = sums.clone();
    sorted.sort_by(f64::total_cmp);
    let cap = sorted[sorted.len() / 2];
    let over = sums.iter().filter(|&&sum| sum > cap).count() as u64;
    let rows = 20 * 2 * 8_760;

    let mut reads = Vec::new();
    for capped_first in [true, false] {
        let fleet = fresh_fleet(&members);
        let capped = FleetProblem::new(&fleet).with_peak_cap_kw(cap);
        let uncapped = FleetProblem::new(&fleet);
        let ((c, u), events) = traced(|| {
            if capped_first {
                let c = capped.evaluate_batch_constrained(&cohort);
                (c, uncapped.evaluate_batch_constrained(&cohort))
            } else {
                let u = uncapped.evaluate_batch_constrained(&cohort);
                (capped.evaluate_batch_constrained(&cohort), u)
            }
        });
        assert_eq!(bits(&c), plan_walk_bits(&capped, &cohort));
        assert_eq!(bits(&u), plan_walk_bits(&uncapped, &cohort));
        let walked: Vec<u64> = events.iter().map(|e| e.walked_rows).collect();
        if capped_first {
            // The capped walk filled every pair the uncapped cohort needs.
            assert_eq!(walked, [rows, 0]);
        } else {
            // The capped cohort walks only the plans over the cap.
            assert_eq!(walked[1], over * 2 * 8_760);
        }
        reads.push((bits(&c), bits(&u)));
    }
    assert!(over > 0 && over < 20, "the cap splits the cohort");
    assert_eq!(reads[0], reads[1]);
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
