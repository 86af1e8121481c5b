//! NSGA-II sampled histories, pinned bit for bit across commits.
//!
//! The search tests elsewhere check properties of a front (feasible,
//! non-dominated, close to exhaustive truth), so a change to selection or
//! sorting that picks different survivors can pass them all. This test
//! hashes every sampled trial of seven searches — the genome, the
//! objective bits and the violation bits — with FNV-1a, and compares the
//! digest with a recorded constant. The first four were recorded before
//! NSGA-II's entry points and sorts were consolidated. The last three run
//! the daemon's budget (population 50, 350 trials) and a population of 80,
//! so their combined cohorts reach 100 and 160 members, past one and two
//! 64-bit words of the dominance sort's bit rows; they were recorded
//! before the sort moved onto bit rows. Each search runs through
//! `run_controlled` twice, once untraced and once with a trace sink
//! installed, and both must match.

use std::sync::Mutex;

use microgrid_opt::optimizer::{
    FnProblem, Nsga2Optimizer, OptimizationResult, Problem, SearchControl,
};
use microgrid_opt::prelude::*;
use microgrid_opt::telemetry::{self, MemorySink};

/// Telemetry state is process-global; serialize the tests that flip it.
static TELEMETRY: Mutex<()> = Mutex::new(());

/// The recorded searches: `(name, digest)`.
const DIGESTS: [(&str, u64); 7] = [
    ("fn-unconstrained", 0x09dc_07d6_e5e4_d2d5),
    ("fn-constrained", 0xb87b_5285_9fb4_25da),
    ("paper-tiny-uncapped", 0x6b62_c00f_7cb5_10aa),
    ("paper-tiny-capped", 0x49be_a4d4_bdef_d386),
    ("paper-tiny-uncapped-daemon-budget", 0x7609_b634_bcb6_ba0d),
    ("paper-tiny-capped-daemon-budget", 0x94f0_5d4c_afb6_5a7a),
    ("fn-unconstrained-pop80", 0xbe80_3790_7c9d_ed0a),
];

/// Minimize `(x + p, 1 - x + p)` over a 21 x 8 x 8 grid, where `x` comes
/// from the first gene and the penalty `p` from the other two.
fn convex(g: &[u16]) -> Vec<f64> {
    let x = g[0] as f64 / 20.0;
    let penalty = (g[1] as f64 + g[2] as f64) * 0.05;
    vec![x + penalty, 1.0 - x + penalty]
}

/// The `paper-tiny` wire preset: the paper fleet on 27 compositions per
/// site.
fn paper_tiny() -> PreparedFleet {
    let mut scenario = FleetScenario::paper();
    for m in &mut scenario.members {
        m.scenario.space = CompositionSpace::tiny();
    }
    scenario.prepare()
}

fn search(problem: &dyn Problem, population_size: usize, max_trials: usize, seed: u64) -> u64 {
    let optimizer = Nsga2Optimizer::new(Nsga2Config {
        population_size,
        max_trials,
        seed,
        ..Nsga2Config::default()
    });
    digest(&optimizer.run_controlled(problem, &mut |_| SearchControl::Continue))
}

/// FNV-1a over the little-endian bytes of every trial's genes, objective
/// bits and violation bits, in sampling order.
fn digest(result: &OptimizationResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in &result.history {
        for g in &t.genome {
            eat(&g.to_le_bytes());
        }
        for v in t.objectives.iter().chain(&t.violations) {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// Digest of every recorded search, in [`DIGESTS`] order.
fn digests(fleet: &PreparedFleet) -> [u64; 7] {
    let unconstrained = FnProblem::new(vec![21, 8, 8], 2, convex);
    let constrained = FnProblem::new(vec![21, 8, 8], 2, convex)
        .with_constraints(1, |g| vec![(g[0] as f64 - 10.0).max(0.0)]);
    [
        search(&unconstrained, 16, 160, 5),
        search(&constrained, 30, 400, 11),
        search(&FleetProblem::new(fleet), 20, 200, 3),
        search(
            &FleetProblem::new(fleet).with_peak_cap_kw(3_500.0),
            20,
            200,
            3,
        ),
        search(&FleetProblem::new(fleet), 50, 350, 3),
        search(
            &FleetProblem::new(fleet).with_peak_cap_kw(3_500.0),
            50,
            350,
            3,
        ),
        search(&unconstrained, 80, 640, 7),
    ]
}

#[test]
fn search_histories_match_the_recorded_digests() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let fleet = paper_tiny();

    telemetry::set_enabled(false);
    let untraced = digests(&fleet);

    let (sink, lines) = MemorySink::new();
    telemetry::install_sink(Box::new(sink));
    telemetry::set_enabled(true);
    // A fresh copy of the fleet, so the traced run walks the same rows
    // instead of reading the per-site tables the untraced run filled.
    let traced = digests(&paper_tiny());
    telemetry::set_enabled(false);
    telemetry::take_sink();
    let generations = lines
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .filter(|l| l.contains(r#""ev":"generation""#))
        .count();
    assert!(
        generations > 0,
        "the traced runs emitted no generation event"
    );

    let mut failures = Vec::new();
    for (k, (name, want)) in DIGESTS.iter().enumerate() {
        if untraced[k] != *want || traced[k] != *want {
            failures.push(format!(
                "{name}: untraced {:#018x}, traced {:#018x}, recorded {want:#018x}",
                untraced[k], traced[k]
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
