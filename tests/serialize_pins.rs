//! The JSON text of real workspace values, pinned byte for byte.
//!
//! `tests/wire_golden.rs` pins one synthetic frame per variant; this test
//! pins what the serializer writes for the values the daemon and the
//! bench bins actually encode: the scenario cache key
//! (`ScenarioConfig::paper_houston()`), the paper fleet, and every
//! `Front` frame plus the `Done` frame of real paper studies, uncapped
//! and capped. Each text is compared by length and FNV-1a digest with a
//! constant recorded before the serializer stopped building an
//! intermediate value tree. The committed `BENCH_*.json` artifacts must
//! also re-serialize byte for byte after a round trip through the parse
//! tree, and a non-finite float must stay an encoding error.

use std::fs;
use std::path::PathBuf;

use microgrid_opt::core::scenario_cache_key;
use microgrid_opt::core::wire::{
    encode_response, FrontUpdate, PlanPoint, Response, ResponseFrame, StudyDone, WIRE_VERSION,
};
use microgrid_opt::optimizer::{Nsga2Optimizer, SearchControl};
use microgrid_opt::prelude::*;
use serde::Value;

/// FNV-1a over the UTF-8 bytes of a text.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Assert a text's `(length, digest)` against its recorded pair.
#[track_caller]
fn assert_pinned(what: &str, text: &str, want: (usize, u64)) {
    let got = (text.len(), fnv1a(text));
    assert_eq!(
        got, want,
        "{what}: (len, digest) is ({}, {:#018x})",
        got.0, got.1
    );
}

fn frame(resp: Response) -> ResponseFrame {
    ResponseFrame {
        v: WIRE_VERSION,
        id: "pin".into(),
        resp,
    }
}

/// Every `Front` frame of a paper study at the daemon's budget
/// (population 50, 350 trials) followed by its `Done` frame, each encoded
/// as the daemon encodes it (`Done`'s `wall_ms` fixed at 0).
fn study_frames(fleet: &PreparedFleet, cap_kw: Option<f64>, seed: u64) -> Vec<String> {
    let mut problem = FleetProblem::new(fleet);
    if let Some(cap) = cap_kw {
        problem = problem.with_peak_cap_kw(cap);
    }
    let optimizer = Nsga2Optimizer::new(Nsga2Config {
        population_size: 50,
        max_trials: 350,
        seed,
        ..Nsga2Config::default()
    });
    let mut lines = Vec::new();
    let mut generations = 0u32;
    let mut last: Vec<PlanPoint> = Vec::new();
    let result = optimizer.run_controlled(&problem, &mut |view| {
        generations = view.generation as u32 + 1;
        last = view
            .front
            .iter()
            .map(|(genome, eval)| PlanPoint {
                genome: genome.clone(),
                plan: problem.plan(genome),
                objectives: eval.objectives.clone(),
                violation: eval.total_violation(),
            })
            .collect();
        lines.push(encode_response(&frame(Response::Front(FrontUpdate {
            generation: view.generation as u32,
            sampled: view.sampled as u64,
            front: last.clone(),
        }))));
        SearchControl::Continue
    });
    lines.push(encode_response(&frame(Response::Done(StudyDone {
        generations,
        sampled_trials: result.sampled_trials as u64,
        unique_evaluations: result.unique_evaluations as u64,
        cache_hits: result.cache_hits as u64,
        cache_misses: result.cache_misses as u64,
        wall_ms: 0,
        front: last,
    }))));
    lines
}

#[test]
fn scenario_configs_write_their_pinned_text() {
    let houston = ScenarioConfig::paper_houston();
    let key = scenario_cache_key(&houston);
    assert_eq!(key, serde_json::to_string(&houston).unwrap());
    assert_pinned("paper_houston compact", &key, (688, 0xafff_154c_c169_9268));
    assert_pinned(
        "paper_houston pretty",
        &serde_json::to_string_pretty(&houston).unwrap(),
        (1111, 0xfc76_226b_17c1_a1ba),
    );
    let fleet = FleetScenario::paper();
    assert_pinned(
        "paper fleet compact",
        &serde_json::to_string(&fleet).unwrap(),
        (1453, 0xd235_0df8_f241_1386),
    );
    assert_pinned(
        "paper fleet pretty",
        &serde_json::to_string_pretty(&fleet).unwrap(),
        (3163, 0x7698_9bee_2c5d_2020),
    );
}

#[test]
fn paper_study_frames_write_their_pinned_text() {
    let fleet = FleetScenario::paper().prepare();
    for (cap, seed, want_frames, want_done, want_all) in [
        (
            None,
            7,
            8,
            (6628, 0xaf38_8547_83a6_b20a),
            (34076, 0x294e_e07a_9ef2_5ac1),
        ),
        (
            Some(3_500.0),
            11,
            8,
            (4114, 0x9114_2e4d_b398_be7b),
            (18826, 0x89b6_613f_5b26_83bf),
        ),
    ] {
        let lines = study_frames(&fleet, cap, seed);
        let what = format!("cap {cap:?} seed {seed}");
        assert_eq!(lines.len(), want_frames, "{what}: frames");
        assert_pinned(&format!("{what} Done"), lines.last().unwrap(), want_done);
        assert_pinned(&format!("{what} all frames"), &lines.join("\n"), want_all);
        // The pretty form of the same frame parses back to the same tree.
        let done: Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        let pretty = serde_json::to_string_pretty(&done).unwrap();
        assert_eq!(serde_json::from_str::<Value>(&pretty).unwrap(), done);
        assert_eq!(
            serde_json::to_string(&done).unwrap(),
            *lines.last().unwrap()
        );
    }
}

#[test]
fn committed_artifacts_reserialize_byte_for_byte() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let names = [
        "BENCH_baseline.json",
        "BENCH_fleet.json",
        "BENCH_fleet_search.json",
        "BENCH_server.json",
        "BENCH_sweep.json",
    ];
    for name in names {
        let text = fs::read_to_string(root.join(name)).unwrap();
        let tree: Value = serde_json::from_str(&text).unwrap();
        let again = serde_json::to_string_pretty(&tree).unwrap() + "\n";
        assert!(again == text, "{name} does not re-serialize byte for byte");
    }
}

#[test]
fn non_finite_floats_do_not_encode() {
    let point = |x: f64| PlanPoint {
        genome: vec![0, 1],
        plan: vec![Composition::BASELINE; 2],
        objectives: vec![1.0, x],
        violation: 0.0,
    };
    let front = |x| {
        frame(Response::Front(FrontUpdate {
            generation: 0,
            sampled: 1,
            front: vec![point(x)],
        }))
    };
    assert!(serde_json::to_string(&front(2.0)).is_ok());
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for text in [
            serde_json::to_string(&front(x)),
            serde_json::to_string_pretty(&front(x)),
        ] {
            assert_eq!(
                text.unwrap_err().to_string(),
                "cannot serialize non-finite float"
            );
        }
    }
    let mut config = ScenarioConfig::paper_houston();
    config.space.solar_choices_kw.push(f64::NAN);
    assert!(serde_json::to_string(&config).is_err());
}
