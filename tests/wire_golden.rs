//! Golden-fixture pinning of the on-wire bytes.
//!
//! `tests/fixtures/wire/{requests,responses}.jsonl` hold one committed
//! frame per line, covering every request and response variant. Each
//! line must decode through the real parser and re-encode **byte for
//! byte** — so any drift in field names, field order, number formatting,
//! or enum tagging shows up as a fixture diff, which is exactly when
//! `WIRE_VERSION` must be bumped (see `core::wire`'s versioning rule).
//!
//! To regenerate after an intentional protocol change:
//!
//! ```text
//! MGOPT_BLESS=1 cargo test --test wire_golden
//! ```
//!
//! then commit the updated fixtures together with the version bump.

use std::fs;
use std::path::PathBuf;

use microgrid_opt::core::wire::{
    encode_request, encode_response, parse_request, ErrorCode, FleetSpec, FrontUpdate, PlanPoint,
    Request, RequestFrame, Response, ResponseFrame, StudyAccepted, StudyBudget, StudyCancelled,
    StudyDone, StudyQueued, StudyRequest, WireError, WIRE_VERSION,
};
use microgrid_opt::core::FleetScenario;
use microgrid_opt::prelude::{Composition, CompositionSpace};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/wire")
        .join(name)
}

fn frame(id: &str, req: Request) -> RequestFrame {
    RequestFrame {
        v: WIRE_VERSION,
        id: id.into(),
        req,
    }
}

/// One request frame per protocol shape.
fn fixture_requests() -> Vec<RequestFrame> {
    let mut tiny_fleet = FleetScenario::paper();
    tiny_fleet.members.truncate(1);
    vec![
        frame("r1", Request::Ping),
        frame("r2", Request::Shutdown),
        // Minimal study: preset fleet, every optional field defaulted.
        frame(
            "r3",
            Request::Study(StudyRequest {
                fleet: FleetSpec::Preset("paper-tiny".into()),
                space: None,
                objectives: None,
                budget: StudyBudget {
                    population_size: 8,
                    max_trials: 24,
                    seed: 42,
                },
                peak_cap_kw: None,
                stream: false,
            }),
        ),
        // Maximal study: every optional field set.
        frame(
            "r4",
            Request::Study(StudyRequest {
                fleet: FleetSpec::Preset("paper".into()),
                space: Some(CompositionSpace {
                    wind_choices: vec![0, 4],
                    solar_choices_kw: vec![0.0, 16_000.0],
                    battery_choices_kwh: vec![0.0, 22_500.0],
                }),
                objectives: Some(vec![
                    "operational_tco2_per_day".into(),
                    "embodied_tco2".into(),
                ]),
                budget: StudyBudget {
                    population_size: 50,
                    max_trials: 350,
                    seed: 7,
                },
                peak_cap_kw: Some(30_000.0),
                stream: true,
            }),
        ),
        // Inline fleet: the full scenario rides the wire.
        frame(
            "r5",
            Request::Study(StudyRequest {
                fleet: FleetSpec::Inline(tiny_fleet),
                space: None,
                objectives: None,
                budget: StudyBudget {
                    population_size: 4,
                    max_trials: 8,
                    seed: 1,
                },
                peak_cap_kw: None,
                stream: false,
            }),
        ),
        // Cancellation: the body is the target study's correlation id.
        // Appended after the original five so the committed prefix stays
        // byte-identical — `Cancel` is an additive variant, no version
        // bump (see `core::wire`'s versioning rule).
        frame("r6", Request::Cancel("r4".into())),
    ]
}

/// One response frame per protocol shape.
fn fixture_responses() -> Vec<ResponseFrame> {
    let point = PlanPoint {
        genome: vec![5, 2],
        plan: vec![
            Composition::new(4, 0.0, 22_500.0),
            Composition::new(0, 16_000.0, 0.0),
        ],
        objectives: vec![123.456, 7_890.0],
        violation: 0.0,
    };
    let mk = |id: &str, resp: Response| ResponseFrame {
        v: WIRE_VERSION,
        id: id.into(),
        resp,
    };
    vec![
        mk("r1", Response::Pong),
        mk("", Response::Bye),
        mk(
            "r3",
            Response::Accepted(StudyAccepted {
                sites: vec!["houston".into(), "berkeley".into()],
                plan_space: 64,
                prep_cache_hits: 1,
                prep_cache_misses: 1,
            }),
        ),
        mk(
            "r3",
            Response::Front(FrontUpdate {
                generation: 0,
                sampled: 8,
                front: vec![point.clone()],
            }),
        ),
        mk(
            "r3",
            Response::Done(StudyDone {
                generations: 3,
                sampled_trials: 24,
                unique_evaluations: 19,
                cache_hits: 5,
                cache_misses: 19,
                wall_ms: 12,
                front: vec![point],
            }),
        ),
        mk(
            "bad",
            Response::Error(WireError::new(
                ErrorCode::UnknownPreset,
                "unknown fleet preset \"atlantis\"",
            )),
        ),
        // One pinned frame per remaining error code, so every variant's
        // on-wire shape is golden (mgopt_lint's schema_drift rule keeps
        // this list in sync with the enum).
        mk(
            "bad",
            Response::Error(WireError::new(
                ErrorCode::InvalidRequest,
                "fleet has no members",
            )),
        ),
        mk(
            "",
            Response::Error(WireError::new(
                ErrorCode::Oversized,
                "request line exceeds 1048576 bytes",
            )),
        ),
        mk(
            "r9",
            Response::Error(WireError::new(
                ErrorCode::Internal,
                "study worker terminated unexpectedly",
            )),
        ),
        // Queueing + cancellation lifecycle frames (appended after the
        // original nine so the committed prefix stays byte-identical).
        mk("r4", Response::Queued(StudyQueued { ahead: 3 })),
        mk(
            "r4",
            Response::Cancelled(StudyCancelled {
                generations: 2,
                sampled_trials: 150,
                wall_ms: 48,
            }),
        ),
        mk(
            "r6",
            Response::Error(WireError::new(
                ErrorCode::UnknownStudy,
                "no in-flight study `r4` on this connection",
            )),
        ),
    ]
}

fn check_golden(name: &str, encoded: Vec<String>) {
    let path = fixture_path(name);
    let blob = encoded.join("\n") + "\n";
    if std::env::var("MGOPT_BLESS").is_ok_and(|v| v == "1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, blob).unwrap();
        return;
    }
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {path:?} ({e}); run with MGOPT_BLESS=1 to create it")
    });
    assert_eq!(
        committed, blob,
        "{name} drifted from the committed fixture — if the protocol change \
         is intentional, bump WIRE_VERSION and re-bless"
    );
}

#[test]
fn golden_requests_encode_parse_and_reencode_byte_identically() {
    let frames = fixture_requests();
    let encoded: Vec<String> = frames.iter().map(encode_request).collect();
    for (frame, line) in frames.iter().zip(&encoded) {
        let parsed = parse_request(line).expect("fixture must parse strictly");
        assert_eq!(&parsed, frame, "decode(encode(x)) != x");
        assert_eq!(&encode_request(&parsed), line, "re-encode is not stable");
    }
    check_golden("requests.jsonl", encoded);
}

#[test]
fn golden_responses_round_trip_byte_identically() {
    let frames = fixture_responses();
    let encoded: Vec<String> = frames.iter().map(encode_response).collect();
    for (frame, line) in frames.iter().zip(&encoded) {
        let parsed: ResponseFrame = serde_json::from_str(line).expect("fixture must decode");
        assert_eq!(&parsed, frame, "decode(encode(x)) != x");
        assert_eq!(&encode_response(&parsed), line, "re-encode is not stable");
    }
    check_golden("responses.jsonl", encoded);
}

/// The documented error frames for malformed input: unknown fields,
/// missing fields, bad types, and version drift each map to a specific
/// [`ErrorCode`] — never a crash, never a silent accept.
#[test]
fn rejected_requests_produce_the_documented_error_codes() {
    use ErrorCode::*;
    let cases: &[(&str, ErrorCode)] = &[
        // Not JSON at all.
        ("junk{", MalformedFrame),
        // JSON, wrong shape.
        ("[1,2,3]", MalformedFrame),
        // Missing envelope fields.
        (r#"{"id":"x","req":"Ping"}"#, MalformedFrame),
        (r#"{"v":1,"req":"Ping"}"#, MalformedFrame),
        (r#"{"v":1,"id":"x"}"#, MalformedFrame),
        // Unknown envelope field (strict reject).
        (
            r#"{"v":1,"id":"x","req":"Ping","turbo":true}"#,
            MalformedFrame,
        ),
        // Version drift wins over field checks.
        (
            r#"{"v":2,"id":"x","req":"Ping","turbo":true}"#,
            UnsupportedVersion,
        ),
        (r#"{"v":0,"id":"x","req":"Ping"}"#, UnsupportedVersion),
        // Bad field types.
        (r#"{"v":1,"id":5,"req":"Ping"}"#, MalformedFrame),
        (r#"{"v":"1","id":"x","req":"Ping"}"#, MalformedFrame),
        // Unknown request variant.
        (r#"{"v":1,"id":"x","req":"Reboot"}"#, MalformedFrame),
        // Study body: unknown field.
        (
            r#"{"v":1,"id":"x","req":{"Study":{"fleet":{"Preset":"paper"},"budget":{"population_size":8,"max_trials":24,"seed":1},"gpu":true}}}"#,
            MalformedFrame,
        ),
        // Study body: missing required budget.
        (
            r#"{"v":1,"id":"x","req":{"Study":{"fleet":{"Preset":"paper"}}}}"#,
            MalformedFrame,
        ),
        // Budget: missing field.
        (
            r#"{"v":1,"id":"x","req":{"Study":{"fleet":{"Preset":"paper"},"budget":{"population_size":8,"max_trials":24}}}}"#,
            MalformedFrame,
        ),
        // Budget: extra field.
        (
            r#"{"v":1,"id":"x","req":{"Study":{"fleet":{"Preset":"paper"},"budget":{"population_size":8,"max_trials":24,"seed":1,"retries":3}}}}"#,
            MalformedFrame,
        ),
        // Fleet: not a single-variant map.
        (
            r#"{"v":1,"id":"x","req":{"Study":{"fleet":"paper","budget":{"population_size":8,"max_trials":24,"seed":1}}}}"#,
            MalformedFrame,
        ),
        // Cancel: the body must be the target id as a plain string.
        (r#"{"v":1,"id":"x","req":{"Cancel":5}}"#, MalformedFrame),
        (
            r#"{"v":1,"id":"x","req":{"Cancel":{"target":"t1"}}}"#,
            MalformedFrame,
        ),
    ];
    for (line, want) in cases {
        let err = parse_request(line).expect_err(&format!("must reject: {line}"));
        assert_eq!(err.code, *want, "wrong code for: {line}");
    }

    // Well-formed inline fleets whose step `prepare()` would panic on:
    // steps that neither divide an hour nor are whole hours (7, 90 min),
    // and whole hours longer than a day (1,800 min), which CAISO's daily
    // coupling cannot split into days. Resolution answers InvalidRequest.
    for step_minutes in [0, 7, 90, 1_800] {
        let mut fleet = FleetScenario::paper();
        for m in &mut fleet.members {
            m.scenario.step_minutes = step_minutes;
        }
        let line = encode_request(&frame(
            "x",
            Request::Study(StudyRequest {
                fleet: FleetSpec::Inline(fleet),
                space: None,
                objectives: None,
                budget: StudyBudget {
                    population_size: 4,
                    max_trials: 8,
                    seed: 1,
                },
                peak_cap_kw: None,
                stream: false,
            }),
        ));
        let Request::Study(study) = parse_request(&line).expect("well-formed frame").req else {
            panic!("decoded a study request as another variant");
        };
        let err = study
            .resolved_scenario()
            .expect_err(&format!("step {step_minutes} min must be rejected"));
        assert_eq!(err.code, InvalidRequest, "step {step_minutes} min");
    }
}
