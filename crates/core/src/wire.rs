//! Versioned request/response wire format for the optimization daemon.
//!
//! The daemon in `crates/server` speaks newline-delimited JSON: one
//! [`RequestFrame`] per line in, one or more [`ResponseFrame`]s per line
//! out. This module owns the frame types, the **strict-reject** request
//! parser, and the pure validation that turns a study request into a
//! ready-to-prepare [`FleetScenario`] — everything protocol-shaped that
//! does not need a socket.
//!
//! ## Frame shapes
//!
//! A request line is an object with exactly three fields:
//!
//! ```json
//! {"v": 1, "id": "job-7", "req": {"Study": {
//!     "fleet": {"Preset": "paper-tiny"},
//!     "budget": {"population_size": 16, "max_trials": 64, "seed": 42},
//!     "peak_cap_kw": 2500.0,
//!     "stream": true}}}
//! ```
//!
//! `req` is externally tagged: `"Ping"` and `"Shutdown"` are bare strings,
//! `Study` wraps a [`StudyRequest`], and `Cancel` wraps the correlation
//! id of an in-flight study (`{"Cancel": "job-7"}`). Responses mirror the
//! envelope (`{"v": 1, "id": ..., "resp": ...}`) and echo the request
//! `id`, so clients can multiplex concurrent studies over one connection.
//!
//! ## Study lifecycle: queueing and cancellation
//!
//! A validated study answers, in order: an optional [`Response::Queued`]
//! (only when the daemon's process-wide concurrency cap is saturated and
//! the study must wait for admission), then [`Response::Accepted`], zero
//! or more [`Response::Front`] frames (when streaming), and exactly one
//! terminal frame — [`Response::Done`], [`Response::Cancelled`], or
//! [`Response::Error`]. A [`Request::Cancel`] naming an in-flight study
//! stops it cooperatively at the next generation boundary; the
//! acknowledgement is the `Cancelled` frame on the *target* id. A cancel
//! naming nothing in flight (unknown id, or a study that already sent its
//! terminal frame) answers [`ErrorCode::UnknownStudy`] on the cancel
//! frame's own id. A cancelled study never also answers `Done`.
//!
//! ## Strict rejection and the versioning rule
//!
//! [`parse_request`] validates the frame against the exact field sets
//! documented here *before* typed deserialization: an unknown or missing
//! field in the envelope, the study body, or the budget is a
//! [`ErrorCode::MalformedFrame`], and any `v` other than [`WIRE_VERSION`]
//! is [`ErrorCode::UnsupportedVersion`]. The flip side is the versioning
//! rule: **any** field added to (or removed from) the envelope,
//! [`StudyRequest`], or [`StudyBudget`] must bump [`WIRE_VERSION`].
//! Adding a *new* externally tagged [`Request`] or [`Response`] variant
//! is additive — every frame an old client could produce still parses
//! byte-identically — so new variants (like `Cancel`) do not bump the
//! version; old servers answer them with a structured unknown-variant
//! error rather than misbehaving.
//! Fields *inside* an inline [`FleetScenario`] follow ordinary serde
//! semantics (they are config-layer types shared with files on disk), so
//! scenario evolution does not force protocol bumps.
//!
//! Every failure mode maps to a structured [`WireError`] — the daemon
//! turns these into [`Response::Error`] frames and never crashes on bad
//! input.

use mgopt_microgrid::{is_supported_step, Composition, CompositionSpace};
use serde::{Deserialize, Serialize, Value};

use crate::fleet::FleetScenario;

/// Protocol version spoken by this build. Bump on **any** change to the
/// envelope, [`StudyRequest`], or [`StudyBudget`] field sets — strict
/// parsing means old servers reject new fields, so there are no silent
/// partial upgrades.
pub const WIRE_VERSION: u32 = 1;

/// Objective names accepted in [`StudyRequest::objectives`], in order.
/// This is the paper pair lifted to the fleet account; requests may omit
/// the field (same default) or spell it out, but cannot reorder or
/// substitute it.
pub const PAPER_OBJECTIVES: [&str; 2] = ["operational_tco2_per_day", "embodied_tco2"];

/// Fleet presets resolvable by name via [`FleetSpec::Preset`].
pub const KNOWN_PRESETS: [&str; 2] = ["paper", "paper-tiny"];

/// Stable machine-readable error category carried by [`WireError`] and
/// [`Response::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The line was not a valid frame: bad JSON, wrong envelope shape,
    /// unknown/missing/duplicate fields, or a type mismatch.
    MalformedFrame,
    /// The frame's `v` is not [`WIRE_VERSION`].
    UnsupportedVersion,
    /// [`FleetSpec::Preset`] named none of [`KNOWN_PRESETS`].
    UnknownPreset,
    /// The frame parsed but the study is unrunnable: empty fleet, step
    /// mismatch, oversized space, bad budget, infeasible cap, or an
    /// unsupported objective set.
    InvalidRequest,
    /// A request line exceeded the server's frame-size limit. Terminal
    /// for the connection (framing is lost mid-line).
    Oversized,
    /// The server hit an internal failure running the study.
    Internal,
    /// A [`Request::Cancel`] named a study that is not in flight on this
    /// connection: the id is unknown, or the study already sent its
    /// terminal frame (`Done`, `Cancelled`, or `Error`).
    UnknownStudy,
}

/// A structured protocol error: stable [`ErrorCode`] plus human-readable
/// detail. Doubles as the payload of [`Response::Error`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail (not part of the stability contract).
    pub message: String,
}

impl WireError {
    /// Construct an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    fn malformed(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::MalformedFrame, message)
    }

    fn invalid(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::InvalidRequest, message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

/// One request line: version, client-chosen correlation id, payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Protocol version; must equal [`WIRE_VERSION`].
    pub v: u32,
    /// Correlation id echoed on every response to this request.
    pub id: String,
    /// The request payload.
    pub req: Request,
}

/// Request payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Drain in-flight studies, answer [`Response::Bye`], close down.
    Shutdown,
    /// Run an NSGA-II composition study.
    Study(StudyRequest),
    /// Cooperatively cancel the in-flight study whose request id is the
    /// payload. Acknowledged by [`Response::Cancelled`] on the *target*
    /// id; answers [`ErrorCode::UnknownStudy`] on this frame's id when
    /// nothing with that id is in flight.
    Cancel(String),
}

/// Which fleet a study runs over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FleetSpec {
    /// A named built-in fleet (one of [`KNOWN_PRESETS`]).
    Preset(String),
    /// A full inline fleet scenario.
    Inline(FleetScenario),
}

/// Generation/evaluation budget for one study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyBudget {
    /// NSGA-II population size (≥ 2).
    pub population_size: usize,
    /// Total evaluation budget (≥ `population_size`).
    pub max_trials: usize,
    /// Search seed — same seed, same fleet, same budget ⇒ bit-identical
    /// fronts, regardless of how studies interleave on the server.
    pub seed: u64,
}

/// A study request: fleet, optional overrides, budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyRequest {
    /// The fleet to optimize.
    pub fleet: FleetSpec,
    /// Replace every member's composition space (e.g. shrink a preset for
    /// a fast interactive query). `null`/absent keeps member spaces.
    #[serde(default)]
    pub space: Option<CompositionSpace>,
    /// Objective names. Only [`PAPER_OBJECTIVES`] (in order) is accepted;
    /// absent means the same.
    #[serde(default)]
    pub objectives: Option<Vec<String>>,
    /// Search budget.
    pub budget: StudyBudget,
    /// Cap on the fleet's peak concurrent grid import, kW (must be finite
    /// and positive). Handled as an NSGA-II constraint.
    #[serde(default)]
    pub peak_cap_kw: Option<f64>,
    /// Stream one [`Response::Front`] per generation before the final
    /// [`Response::Done`]. Off by default.
    #[serde(default)]
    pub stream: bool,
}

impl StudyRequest {
    /// Resolve the preset / inline fleet, apply the space override, and
    /// validate everything [`FleetScenario::prepare`],
    /// [`FleetProblem`](crate::problem::FleetProblem) construction, or the
    /// optimizer would otherwise panic on. Returns the ready-to-prepare
    /// scenario, or the structured error the daemon should answer with.
    pub fn resolved_scenario(&self) -> Result<FleetScenario, WireError> {
        if let Some(objs) = &self.objectives {
            if objs.len() != PAPER_OBJECTIVES.len()
                || objs.iter().zip(PAPER_OBJECTIVES).any(|(a, b)| a != b)
            {
                return Err(WireError::invalid(format!(
                    "unsupported objectives {objs:?}; this build serves exactly {PAPER_OBJECTIVES:?}"
                )));
            }
        }
        if self.budget.population_size < 2 {
            return Err(WireError::invalid(format!(
                "population_size {} < 2",
                self.budget.population_size
            )));
        }
        if self.budget.max_trials < self.budget.population_size {
            return Err(WireError::invalid(format!(
                "max_trials {} < population_size {}",
                self.budget.max_trials, self.budget.population_size
            )));
        }
        if let Some(cap) = self.peak_cap_kw {
            if !(cap.is_finite() && cap > 0.0) {
                return Err(WireError::invalid(format!(
                    "infeasible peak_cap_kw {cap}: must be finite and positive"
                )));
            }
        }
        let mut scenario = match &self.fleet {
            FleetSpec::Preset(name) => resolve_preset(name)?,
            FleetSpec::Inline(s) => s.clone(),
        };
        if let Some(space) = &self.space {
            for m in &mut scenario.members {
                m.scenario.space = space.clone();
            }
        }
        validate_scenario(&scenario)?;
        Ok(scenario)
    }
}

/// Resolve a [`FleetSpec::Preset`] name.
pub fn resolve_preset(name: &str) -> Result<FleetScenario, WireError> {
    match name {
        "paper" => Ok(FleetScenario::paper()),
        "paper-tiny" => {
            let mut f = FleetScenario::paper();
            for m in &mut f.members {
                m.scenario.space = CompositionSpace::tiny();
            }
            Ok(f)
        }
        other => Err(WireError::new(
            ErrorCode::UnknownPreset,
            format!("unknown fleet preset `{other}`; known: {KNOWN_PRESETS:?}"),
        )),
    }
}

/// The checks `prepare()` / `FleetProblem::new` enforce by panicking,
/// rephrased as a structured error for untrusted input.
fn validate_scenario(scenario: &FleetScenario) -> Result<(), WireError> {
    let Some(first) = scenario.members.first() else {
        return Err(WireError::invalid("fleet has no members"));
    };
    let step = first.scenario.step_minutes;
    for m in &scenario.members {
        if !is_supported_step(m.scenario.step()) {
            return Err(WireError::invalid(format!(
                "member {}: step_minutes {} must divide an hour, or be a whole number \
                 of hours (at most 24) that divides the year",
                m.name, m.scenario.step_minutes
            )));
        }
        if m.scenario.step_minutes != step {
            return Err(WireError::invalid(format!(
                "member {}: step {} != fleet step {step} (one shared clock)",
                m.name, m.scenario.step_minutes
            )));
        }
        let n = m.scenario.space.len();
        if n == 0 {
            return Err(WireError::invalid(format!(
                "member {}: empty composition space",
                m.name
            )));
        }
        if n > u16::MAX as usize + 1 {
            return Err(WireError::invalid(format!(
                "member {}: {n} compositions exceed the u16 genome",
                m.name
            )));
        }
    }
    Ok(())
}

/// One response line; echoes the request's `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// Protocol version ([`WIRE_VERSION`]).
    pub v: u32,
    /// The originating request's correlation id (empty when the request
    /// was too malformed to carry one).
    pub id: String,
    /// The response payload.
    pub resp: Response,
}

/// Response payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Last frame before the server side closes after a
    /// [`Request::Shutdown`].
    Bye,
    /// The study was validated, its fleet prepared (or fetched from the
    /// prepared cache), and a worker started.
    Accepted(StudyAccepted),
    /// The study is valid but waits in the process-wide admission queue:
    /// the daemon's global concurrency cap is saturated. Followed by the
    /// normal `Accepted` lifecycle once a slot frees, or by `Cancelled`
    /// if the client cancels while it is still queued.
    Queued(StudyQueued),
    /// One generation's current first front (streamed when
    /// [`StudyRequest::stream`] is set).
    Front(FrontUpdate),
    /// Final study result.
    Done(StudyDone),
    /// The study stopped at a generation boundary after a
    /// [`Request::Cancel`] (or a client disconnect). Terminal for that
    /// request `id`; a cancelled study never also answers `Done`.
    Cancelled(StudyCancelled),
    /// Structured failure; terminal for that request `id`.
    Error(WireError),
}

/// Payload of [`Response::Accepted`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyAccepted {
    /// Member site names, in evaluation order.
    pub sites: Vec<String>,
    /// Cross-product plan-space size (saturating).
    pub plan_space: u64,
    /// Members whose prepared inputs were served from the shared cache.
    pub prep_cache_hits: u32,
    /// Members synthesized from scratch for this request.
    pub prep_cache_misses: u32,
}

/// Payload of [`Response::Queued`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyQueued {
    /// Studies admitted or queued ahead of this one at enqueue time.
    pub ahead: u64,
}

/// Payload of [`Response::Cancelled`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyCancelled {
    /// Generations completed before the stop (including generation 0);
    /// zero when the study was cancelled while still queued.
    pub generations: u32,
    /// Trials sampled before the stop.
    pub sampled_trials: u64,
    /// Wall time from admission to the stop, milliseconds.
    pub wall_ms: u64,
}

/// Payload of [`Response::Front`]: one generation's snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontUpdate {
    /// Generation index (0 = the evaluated initial population).
    pub generation: u32,
    /// Trials sampled so far.
    pub sampled: u64,
    /// The current non-dominated (and feasible-first) front.
    pub front: Vec<PlanPoint>,
}

/// Payload of [`Response::Done`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyDone {
    /// Generations run (including generation 0).
    pub generations: u32,
    /// Trials sampled (genome draws, including memoized repeats).
    pub sampled_trials: u64,
    /// Distinct genomes evaluated. An uncapped study may answer some or
    /// all of them from the members' per-site result tables without a
    /// walk, so this counts genomes, not simulations.
    pub unique_evaluations: u64,
    /// Genome-memo cache hits inside the search.
    pub cache_hits: u64,
    /// Genome-memo cache misses inside the search.
    pub cache_misses: u64,
    /// Study wall time, milliseconds.
    pub wall_ms: u64,
    /// The final front.
    pub front: Vec<PlanPoint>,
}

/// One plan on a reported front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanPoint {
    /// Genome (one composition index per member).
    pub genome: Vec<u16>,
    /// The decoded plan, one composition per member.
    pub plan: Vec<Composition>,
    /// Objective values, in [`PAPER_OBJECTIVES`] order.
    pub objectives: Vec<f64>,
    /// Total constraint violation (0 = feasible).
    pub violation: f64,
}

/// Encode a request frame as one wire line (no trailing newline).
pub fn encode_request(frame: &RequestFrame) -> String {
    // mgopt-lint: allow(panic_free) — serializing an owned frame struct cannot fail
    serde_json::to_string(frame).expect("request frames always encode")
}

/// Encode a response frame as one wire line (no trailing newline).
pub fn encode_response(frame: &ResponseFrame) -> String {
    // mgopt-lint: allow(panic_free) — serializing an owned frame struct cannot fail
    serde_json::to_string(frame).expect("response frames always encode")
}

/// Parse one request line with strict rejection.
///
/// Order of checks: JSON validity → envelope is an object carrying an
/// integer `v` → `v == `[`WIRE_VERSION`] → exact envelope/body/budget
/// field sets → typed deserialization. The version check runs *before*
/// the envelope's unknown-field check so that frames from a future
/// protocol version fail with [`ErrorCode::UnsupportedVersion`] rather
/// than a confusing unknown-field complaint.
pub fn parse_request(line: &str) -> Result<RequestFrame, WireError> {
    let value: Value = serde_json::from_str(line)
        .map_err(|e| WireError::malformed(format!("invalid JSON: {e}")))?;
    let map = value
        .as_map()
        .ok_or_else(|| WireError::malformed("request frame must be a JSON object"))?;
    match value.get("v") {
        Some(Value::Int(v)) if *v == i64::from(WIRE_VERSION) => {}
        Some(Value::Int(v)) => {
            return Err(WireError::new(
                ErrorCode::UnsupportedVersion,
                format!("protocol version {v} not supported; this server speaks v{WIRE_VERSION}"),
            ));
        }
        Some(_) => return Err(WireError::malformed("field `v` must be an integer")),
        None => return Err(WireError::malformed("missing field `v` in request frame")),
    }
    strict_keys(
        map,
        &["v", "id", "req"],
        &["v", "id", "req"],
        "request frame",
    )?;
    let req = map
        .iter()
        .find(|(k, _)| k == "req")
        .map(|(_, v)| v)
        .ok_or_else(|| WireError::malformed("missing field `req` in request frame"))?;
    validate_req_shape(req)?;
    RequestFrame::from_value(&value).map_err(|e| WireError::malformed(e.to_string()))
}

/// Shape-check the `req` payload before typed deserialization so unknown
/// variants and unknown/missing study fields produce precise errors.
fn validate_req_shape(req: &Value) -> Result<(), WireError> {
    match req {
        Value::Str(s) if s == "Ping" || s == "Shutdown" => Ok(()),
        Value::Str(s) => Err(WireError::malformed(format!(
            "unknown request variant `{s}`"
        ))),
        Value::Map(m) if m.len() == 1 => {
            let [(tag, body)] = m.as_slice() else {
                return Err(WireError::malformed(
                    "field `req` must be a variant string or a single-variant object",
                ));
            };
            if tag == "Cancel" {
                return match body {
                    Value::Str(_) => Ok(()),
                    _ => Err(WireError::malformed(
                        "`Cancel` carries the target study id as a string",
                    )),
                };
            }
            if tag != "Study" {
                return Err(WireError::malformed(format!(
                    "unknown request variant `{tag}`"
                )));
            }
            let body_map = body
                .as_map()
                .ok_or_else(|| WireError::malformed("study request must be a JSON object"))?;
            strict_keys(
                body_map,
                &[
                    "fleet",
                    "space",
                    "objectives",
                    "budget",
                    "peak_cap_kw",
                    "stream",
                ],
                &["fleet", "budget"],
                "study request",
            )?;
            if let Some(budget) = body.get("budget") {
                let budget_map = budget
                    .as_map()
                    .ok_or_else(|| WireError::malformed("study budget must be a JSON object"))?;
                strict_keys(
                    budget_map,
                    &["population_size", "max_trials", "seed"],
                    &["population_size", "max_trials", "seed"],
                    "study budget",
                )?;
            }
            if let Some(fleet) = body.get("fleet") {
                validate_fleet_shape(fleet)?;
            }
            Ok(())
        }
        _ => Err(WireError::malformed(
            "field `req` must be a variant string or a single-variant object",
        )),
    }
}

fn validate_fleet_shape(fleet: &Value) -> Result<(), WireError> {
    let [(tag, _)] = fleet.as_map().unwrap_or(&[]) else {
        return Err(WireError::malformed(
            "field `fleet` must be a single-variant object (`Preset` or `Inline`)",
        ));
    };
    match tag.as_str() {
        "Preset" | "Inline" => Ok(()),
        other => Err(WireError::malformed(format!(
            "unknown fleet variant `{other}`"
        ))),
    }
}

/// Reject unknown, missing, and duplicate keys against an exact schema.
fn strict_keys(
    map: &[(String, Value)],
    allowed: &[&str],
    required: &[&str],
    ctx: &str,
) -> Result<(), WireError> {
    for (i, (key, _)) in map.iter().enumerate() {
        if !allowed.contains(&key.as_str()) {
            return Err(WireError::malformed(format!(
                "unknown field `{key}` in {ctx}"
            )));
        }
        if map.iter().take(i).any(|(k, _)| k == key) {
            return Err(WireError::malformed(format!(
                "duplicate field `{key}` in {ctx}"
            )));
        }
    }
    for key in required {
        if !map.iter().any(|(k, _)| k == key) {
            return Err(WireError::malformed(format!(
                "missing field `{key}` in {ctx}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study_frame() -> RequestFrame {
        RequestFrame {
            v: WIRE_VERSION,
            id: "t1".into(),
            req: Request::Study(StudyRequest {
                fleet: FleetSpec::Preset("paper-tiny".into()),
                space: None,
                objectives: None,
                budget: StudyBudget {
                    population_size: 8,
                    max_trials: 24,
                    seed: 7,
                },
                peak_cap_kw: Some(4_000.0),
                stream: true,
            }),
        }
    }

    #[test]
    fn frames_round_trip() {
        for frame in [
            RequestFrame {
                v: WIRE_VERSION,
                id: "p".into(),
                req: Request::Ping,
            },
            RequestFrame {
                v: WIRE_VERSION,
                id: "c1".into(),
                req: Request::Cancel("t1".into()),
            },
            study_frame(),
        ] {
            let line = encode_request(&frame);
            assert_eq!(parse_request(&line).unwrap(), frame);
        }
    }

    #[test]
    fn response_frames_round_trip() {
        let frame = ResponseFrame {
            v: WIRE_VERSION,
            id: "t1".into(),
            resp: Response::Done(StudyDone {
                generations: 3,
                sampled_trials: 24,
                unique_evaluations: 20,
                cache_hits: 4,
                cache_misses: 20,
                wall_ms: 12,
                front: vec![PlanPoint {
                    genome: vec![0, 1],
                    plan: vec![Composition::BASELINE, Composition::new(1, 4_000.0, 0.0)],
                    objectives: vec![30.0, 1.5],
                    violation: 0.0,
                }],
            }),
        };
        let line = encode_response(&frame);
        let back: ResponseFrame = serde_json::from_str(&line).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn rejects_bad_json_and_shapes() {
        for (line, want) in [
            ("{not json", ErrorCode::MalformedFrame),
            ("[1,2]", ErrorCode::MalformedFrame),
            (r#"{"id":"x","req":"Ping"}"#, ErrorCode::MalformedFrame),
            (
                r#"{"v":"1","id":"x","req":"Ping"}"#,
                ErrorCode::MalformedFrame,
            ),
            (
                r#"{"v":2,"id":"x","req":"Ping"}"#,
                ErrorCode::UnsupportedVersion,
            ),
            (
                r#"{"v":1,"id":"x","req":"Ping","extra":0}"#,
                ErrorCode::MalformedFrame,
            ),
            (r#"{"v":1,"req":"Ping"}"#, ErrorCode::MalformedFrame),
            (
                r#"{"v":1,"id":"x","req":"Pong"}"#,
                ErrorCode::MalformedFrame,
            ),
            (
                r#"{"v":1,"id":"x","req":{"Study":{"fleet":{"Preset":"paper"},"budget":{"population_size":4,"max_trials":8,"seed":1},"bogus":true}}}"#,
                ErrorCode::MalformedFrame,
            ),
            (
                r#"{"v":1,"id":"x","req":{"Study":{"budget":{"population_size":4,"max_trials":8,"seed":1}}}}"#,
                ErrorCode::MalformedFrame,
            ),
            (
                r#"{"v":1,"id":"x","req":{"Study":{"fleet":{"Preset":"paper"},"budget":{"population_size":4,"seed":1}}}}"#,
                ErrorCode::MalformedFrame,
            ),
            (
                r#"{"v":1,"id":"x","req":{"Study":{"fleet":{"Sites":["paper"]},"budget":{"population_size":4,"max_trials":8,"seed":1}}}}"#,
                ErrorCode::MalformedFrame,
            ),
            (
                r#"{"v":1,"id":"x","req":{"Cancel":5}}"#,
                ErrorCode::MalformedFrame,
            ),
            (
                r#"{"v":1,"id":"x","req":{"Cancel":{"target":"t1"}}}"#,
                ErrorCode::MalformedFrame,
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, want, "line {line}: {}", err.message);
        }
    }

    #[test]
    fn cancel_and_cancellation_responses_round_trip() {
        let cancel = parse_request(r#"{"v":1,"id":"c1","req":{"Cancel":"job-7"}}"#).unwrap();
        assert_eq!(cancel.req, Request::Cancel("job-7".into()));

        for resp in [
            Response::Queued(StudyQueued { ahead: 3 }),
            Response::Cancelled(StudyCancelled {
                generations: 2,
                sampled_trials: 16,
                wall_ms: 5,
            }),
            Response::Error(WireError::new(ErrorCode::UnknownStudy, "no such study")),
        ] {
            let frame = ResponseFrame {
                v: WIRE_VERSION,
                id: "c1".into(),
                resp,
            };
            let line = encode_response(&frame);
            let back: ResponseFrame = serde_json::from_str(&line).unwrap();
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn version_check_precedes_strict_fields() {
        // A future-version frame with fields this build doesn't know must
        // report the version, not the unknown field.
        let err = parse_request(r#"{"v":9,"id":"x","req":"Ping","deadline_ms":5}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnsupportedVersion);
    }

    #[test]
    fn study_validation_catches_unrunnable_requests() {
        let ok = match study_frame().req {
            Request::Study(s) => s,
            _ => unreachable!(),
        };
        assert!(ok.resolved_scenario().is_ok());

        let mut bad = ok.clone();
        bad.budget.population_size = 1;
        assert_eq!(
            bad.resolved_scenario().unwrap_err().code,
            ErrorCode::InvalidRequest
        );

        let mut bad = ok.clone();
        bad.budget.max_trials = 4;
        assert_eq!(
            bad.resolved_scenario().unwrap_err().code,
            ErrorCode::InvalidRequest
        );

        let mut bad = ok.clone();
        bad.peak_cap_kw = Some(-1.0);
        assert_eq!(
            bad.resolved_scenario().unwrap_err().code,
            ErrorCode::InvalidRequest
        );

        let mut bad = ok.clone();
        bad.objectives = Some(vec!["cost_usd".into()]);
        assert_eq!(
            bad.resolved_scenario().unwrap_err().code,
            ErrorCode::InvalidRequest
        );

        let mut bad = ok.clone();
        bad.fleet = FleetSpec::Preset("atlantis".into());
        assert_eq!(
            bad.resolved_scenario().unwrap_err().code,
            ErrorCode::UnknownPreset
        );

        let mut bad = ok.clone();
        bad.space = Some(CompositionSpace {
            wind_choices: vec![],
            solar_choices_kw: vec![],
            battery_choices_kwh: vec![],
        });
        assert_eq!(
            bad.resolved_scenario().unwrap_err().code,
            ErrorCode::InvalidRequest
        );

        let mut bad = ok;
        bad.fleet = FleetSpec::Inline(FleetScenario { members: vec![] });
        assert_eq!(
            bad.resolved_scenario().unwrap_err().code,
            ErrorCode::InvalidRequest
        );
    }

    #[test]
    fn objectives_accept_exactly_the_paper_pair() {
        let mut s = match study_frame().req {
            Request::Study(s) => s,
            _ => unreachable!(),
        };
        s.objectives = Some(PAPER_OBJECTIVES.iter().map(|o| o.to_string()).collect());
        assert!(s.resolved_scenario().is_ok());
        s.objectives = Some(vec![
            PAPER_OBJECTIVES[1].to_string(),
            PAPER_OBJECTIVES[0].to_string(),
        ]);
        assert_eq!(
            s.resolved_scenario().unwrap_err().code,
            ErrorCode::InvalidRequest
        );
    }

    #[test]
    fn inline_fleet_round_trips_and_space_override_applies() {
        let frame = RequestFrame {
            v: WIRE_VERSION,
            id: "inline".into(),
            req: Request::Study(StudyRequest {
                fleet: FleetSpec::Inline(FleetScenario::paper()),
                space: Some(CompositionSpace::tiny()),
                objectives: None,
                budget: StudyBudget {
                    population_size: 4,
                    max_trials: 8,
                    seed: 1,
                },
                peak_cap_kw: None,
                stream: false,
            }),
        };
        let parsed = parse_request(&encode_request(&frame)).unwrap();
        assert_eq!(parsed, frame);
        let Request::Study(s) = parsed.req else {
            unreachable!()
        };
        let scenario = s.resolved_scenario().unwrap();
        for m in &scenario.members {
            assert_eq!(m.scenario.space, CompositionSpace::tiny());
        }
    }
}
