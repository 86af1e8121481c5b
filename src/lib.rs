#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # microgrid-opt
//!
//! A Rust reproduction of *"Optimizing Microgrid Composition for
//! Sustainable Data Centers"* (Irion, Wiesner, Bader, Kao — SC Workshops
//! '25): a computing/energy co-simulation stack plus a multi-objective
//! black-box optimizer that right-sizes wind / solar / battery microgrids
//! for data centers against the trade-off between operational and embodied
//! carbon emissions.
//!
//! This crate is the umbrella: it re-exports the workspace's layers.
//!
//! ```
//! use microgrid_opt::prelude::*;
//!
//! // One candidate composition at the paper's Houston site.
//! let scenario = ScenarioConfig::paper_houston().prepare();
//! let comp = Composition::new(4, 0.0, 7_500.0); // 12 MW wind + 7.5 MWh
//! let result = simulate_year(&scenario.data, &scenario.load, &comp,
//!                            &scenario.config.sim);
//! assert!(result.metrics.coverage > 0.5);
//! ```
//!
//! ## Layer map
//!
//! | Layer | Crate | Role |
//! |---|---|---|
//! | observability | [`telemetry`] | spans, counters, JSONL trace sink (`MGOPT_TRACE`) |
//! | quantities | [`units`] | typed kW/kWh/kgCO2, calendar, time series |
//! | weather | [`weather`] | synthetic NSRDB / WIND-Toolkit substitute |
//! | generation | [`sam`] | PVWatts + Windpower performance models |
//! | storage | [`storage`] | C/L/C battery, rainflow, degradation |
//! | grid | [`gridcarbon`] | carbon-intensity + price signals |
//! | load | [`workload`] | Perlmutter-like power traces |
//! | bus | [`cosim`] | Vessim-style co-simulation engine |
//! | domain | [`microgrid`] | compositions, policies, year simulators, the lane-width-generic chunk walk, per-site result tables |
//! | search | [`optimizer`] | NSGA-II, exhaustive, Pareto tooling |
//! | framework | [`core`] | scenarios, studies, paper experiments, wire format, prepared cache (inputs plus result tables) |
//! | service | [`server`] | optimization daemon: concurrent studies over the wire protocol |
//! | correctness tooling | [`analysis`] | `mgopt_lint` workspace invariant linter (CI gate) |
//!
//! ## Evaluation engines
//!
//! Three engines simulate the same physics and are pinned to agree
//! (`tests/engine_agreement.rs`):
//!
//! * **scalar** — [`microgrid::simulate_year`]: the reference tight loop,
//!   one composition per pass;
//! * **cosim** — [`microgrid::simulate_year_cosim`]: the actor/bus
//!   machinery, used by examples and as a cross-check;
//! * **batch** — [`microgrid::simulate_batch`] behind the
//!   [`microgrid::Evaluator`] abstraction: a time-major columnar pass over
//!   a whole cohort of compositions at once (monomorphized battery
//!   kernels, shared generation profiles, chunk-level parallelism).
//!
//! The batch and fleet engines share one chunk walk over the hand-rolled
//! lane types in [`microgrid::simd`], generic over lane width and run 4
//! lanes wide. **Lanes are candidates, never timesteps**: each lane
//! advances a different composition through the exact scalar arithmetic,
//! so every lane width gives bit-identical results (pinned by
//! `tests/engine_agreement.rs`, not merely ≤1e-9); a short last lane
//! group is padded with copies of its last candidate.
//! [`microgrid::BatchBackend`] selects 1 lane instead, which is how the
//! bench bins record their 4-lane vs 1-lane A/B.
//!
//! Every search layer funnels cohorts through
//! `optimizer::Problem::evaluate_batch`, so NSGA-II generations,
//! exhaustive sweeps, random cohorts and successive-halving rungs all ride
//! the batch engine (`core::CompositionProblem` wires it up;
//! `core::sweep_all` is a thin wrapper over it).
//!
//! Multi-site studies ride [`microgrid::FleetEvaluator`]: the batch walk
//! per prepared site, advanced site by site in step blocks, yielding
//! per-site results bit-identical to single-site batch runs plus fleet
//! aggregates (fleet tCO2/day, peak *concurrent* grid import).
//! `core::FleetScenario` / `core::fleet_sweep` are the configuration and
//! sweep layers on top (`tests/fleet_agreement.rs` pins the fleet engine
//! to both the batch engine and the cosim `Environment` oracle), and
//! `core::FleetProblem` exposes the cross-product plan space (one
//! composition index per site) to every sampler, with the peak
//! concurrent-import cap as an optional constraint under NSGA-II's
//! constraint-dominance (`tests/fleet_search_agreement.rs` pins the
//! search against exhaustive fleet sweeps). The fleet objectives are
//! sums of per-site metrics, so `FleetProblem` answers cohorts from a
//! per-site result table on each prepared member
//! ([`microgrid::SiteTable`]), shared by every study on that member.
//! Uncapped, each (site, composition) pair is walked once. Capped, a
//! plan whose per-site peak imports sum to at most the cap is feasible
//! without a walk, and only the other plans take the step-aligned plan
//! walk, which fills the table (`tests/site_table.rs` pins both
//! bit-identical to the plan walk).
//!
//! ## Observability
//!
//! The engines and search layers are instrumented through [`telemetry`]
//! (std-only, zero dependencies): scoped span timers over the hot stages
//! (`batch.prepare` / `batch.kernel` / `fleet.prepare` / `fleet.kernel`),
//! atomic counters (chunks, candidate-rows, memo-cache hits/misses), and
//! structured JSONL events — engine passes, NSGA-II generations (front
//! size, feasible count, 2-D hypervolume, best objectives),
//! successive-halving rungs. Tracing is off by default and costs one
//! relaxed atomic load per instrumented call; `MGOPT_TRACE=<path>` turns
//! it on and streams events to `path`, which the `trace_report` bench bin
//! summarizes. `tests/telemetry_determinism.rs` pins that an enabled
//! trace does not perturb results.
//!
//! ## Service layer
//!
//! [`server`] turns the batch research code into a long-lived service:
//! the `mgopt_serve` daemon holds prepared sites hot in a shared
//! `core::PreparedCache` (Arc-handout, LRU, `prep_cache.*` hit/miss
//! counters), accepts newline-delimited JSON study requests over TCP
//! (connections served concurrently, up to `MGOPT_ACCEPTORS` at once),
//! stdin/stdout, or an in-process pipe, and multiplexes concurrent
//! NSGA-II studies over the shared SIMD batch engine — streaming per
//! generation `Front` updates and a final `Done` frame per request. The
//! versioned wire format with strict-reject parsing lives in
//! `core::wire`; results depend only on `(fleet, budget, seed)`, never
//! on how studies interleave — or on how many connections they arrive
//! over, or whether a neighbouring study is cancelled mid-flight
//! (`tests/server_interleaving_props.rs` pins all three,
//! `tests/server_protocol.rs` drives the daemon through the real
//! wire format including fault injection, and `tests/wire_golden.rs`
//! pins the on-wire bytes against committed fixtures).
//!
//! A study's lifecycle: an optional `Queued` frame (sent only when the
//! **process-wide** in-flight cap `MGOPT_SERVER_CONCURRENCY` is
//! saturated across all connections; carries how many studies are
//! ahead), then `Accepted`, zero or more `Front` updates, and exactly
//! one terminal frame — `Done`, `Cancelled`, or `Error`. A `Cancel`
//! request names an in-flight study's id; the target stops
//! cooperatively at its next generation boundary and answers
//! `Cancelled` (with the generations/trials it completed — the prefix
//! it did run is bit-identical to an uncancelled run), never `Done`.
//! Client disconnect mid-study cancels every study in flight on that
//! connection. `Cancel` is an additive variant, so `WIRE_VERSION` is
//! unchanged — old frames still parse byte-identically.
//!
//! The transport contract: every response frame leaves the daemon in one
//! write, and TCP streams run with `TCP_NODELAY`, so no frame waits for
//! the client's delayed ACK. A study frees its admission slot before it
//! writes its terminal frame, so a client that sends its next study on
//! reading `Done` never gets `Queued` unless the cap is genuinely
//! saturated (`tests/server_protocol.rs` pins all three).
//!
//! Every rejection maps to one of the wire protocol's error codes —
//! `MalformedFrame` (invalid JSON, unknown/missing/duplicate fields, bad
//! types, unknown variants), `UnsupportedVersion` (a `v` other than
//! `WIRE_VERSION`), `UnknownPreset` (a `FleetSpec::Preset` name the
//! server does not know), `InvalidRequest` (well-formed but semantically
//! impossible studies: empty fleets, mismatched step clocks, spaces
//! exceeding the u16 genome), `Oversized` (a request line longer than
//! `MGOPT_SERVER_MAX_FRAME`), `UnknownStudy` (a `Cancel` naming an id
//! that is not in flight on that connection — never seen, or already
//! terminal), and `Internal` (the study panicked or its worker died; the
//! connection survives). Each code is pinned byte-level by the golden
//! fixtures.
//!
//! ## Invariants as code
//!
//! The guarantees above are enforced mechanically by [`analysis`]'s
//! `mgopt_lint` binary, which CI runs over the whole workspace:
//!
//! | Rule | Contract |
//! |---|---|
//! | `determinism` | no `Instant::now`/`SystemTime::now`/`thread_rng`, no `HashMap`/`HashSet` import or call, in engine crates (`microgrid`, `optimizer`, `core`, `storage`, `weather`) |
//! | `panic_free` | no `unwrap`/`expect`/`panic!`-class macros/direct indexing in `core::wire` parsing or `server` connection handling |
//! | `env_registry` | every `MGOPT_*` read has a row in the bench env-var table, and vice versa |
//! | `schema_drift` | every wire `ErrorCode` variant appears in the golden fixtures and this spec; every telemetry event/field emitted matches `trace_report`'s schema |
//! | `unsafe_safety` | every `unsafe` carries a `// SAFETY:` comment and lands in a machine-readable inventory |
//!
//! Violations that are genuinely fine carry a justified suppression on
//! the line above: `// mgopt-lint: allow(<rule>) — <why this is sound>`.
//! An allow without a justification (or naming an unknown rule) is
//! itself a violation, so the lint gate cannot silently rot.

pub use mgopt_analysis as analysis;
pub use mgopt_core as core;
pub use mgopt_cosim as cosim;
pub use mgopt_gridcarbon as gridcarbon;
pub use mgopt_microgrid as microgrid;
pub use mgopt_optimizer as optimizer;
pub use mgopt_sam as sam;
pub use mgopt_server as server;
pub use mgopt_storage as storage;
pub use mgopt_telemetry as telemetry;
pub use mgopt_units as units;
pub use mgopt_weather as weather;
pub use mgopt_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use mgopt_core::experiments;
    pub use mgopt_core::{
        fleet_sweep, sweep_all, CompositionProblem, FleetAssignment, FleetProblem, FleetScenario,
        ObjectiveKind, ObjectiveSet, PreparedCache, PreparedFleet, PreparedScenario,
        ScenarioConfig, SitePreset, WorkloadConfig,
    };
    pub use mgopt_microgrid::{
        simulate_batch, simulate_year, simulate_year_cosim, BatchBackend, BatchEvaluator,
        Composition, CompositionSpace, DispatchPolicy, EmbodiedDb, Evaluator, FleetEvaluator,
        FleetResult, FleetSite, SimConfig, Site,
    };
    pub use mgopt_optimizer::{Nsga2Config, Sampler, Study};
    pub use mgopt_server::{Server, ServerConfig};
    pub use mgopt_units::{
        CarbonIntensity, Emissions, Energy, Power, SimDuration, SimTime, TimeSeries,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_exposes_core_types() {
        use crate::prelude::*;
        let c = Composition::new(1, 1_000.0, 0.0);
        assert_eq!(c.wind_mw(), 3.0);
        let db = EmbodiedDb::paper();
        assert_eq!(db.total_t(&c), 1_046.0 + 630.0);
    }
}
