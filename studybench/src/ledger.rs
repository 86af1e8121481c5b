//! The per-layer ledger: replay the daemon's request stream in process and
//! time each layer's public entry points from outside, then read the
//! daemon's own `fleet_eval` trace events for the same load.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mgopt_core::problem::FleetProblem;
use mgopt_core::wire::{
    self, FrontUpdate, PlanPoint, Request, Response, ResponseFrame, StudyAccepted, StudyDone,
    WIRE_VERSION,
};
use mgopt_core::{PreparedCache, PreparedFleet, ScenarioConfig};
use mgopt_gridcarbon::CarbonIntensityModel;
use mgopt_optimizer::{
    Evaluation, GenerationView, Genome, Nsga2Config, Nsga2Optimizer, Problem, SearchControl,
};
use mgopt_sam::{GenerationModel, PvSystem, WindFarm};
use mgopt_telemetry::parse::parse_line;
use mgopt_weather::WeatherGenerator;

/// Time spent in each layer for one replayed study (ms unless noted),
/// plus the search's exact counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// `wire::parse_request` + `StudyRequest::resolved_scenario`, µs.
    pub decode_us: f64,
    /// `FleetScenario::prepare_shared` against the replay's cache.
    pub prep_ms: f64,
    /// Prep split for cache misses: `WeatherGenerator::generate`.
    pub weather_ms: f64,
    /// `PvSystem::simulate` (PVWatts).
    pub pvwatts_ms: f64,
    /// `WindFarm::simulate`.
    pub wind_ms: f64,
    /// `CarbonIntensityModel::generate`.
    pub ci_ms: f64,
    /// `PriceModel::generate`.
    pub price_ms: f64,
    /// `WorkloadConfig::generate`.
    pub load_ms: f64,
    /// `Site::prepare` minus its timed parts: the private coupling of
    /// carbon intensity to weather, and unit scaling.
    pub prep_other_ms: f64,
    /// `FleetProblem::evaluate_batch_constrained`, summed over cohorts.
    pub eval_ms: f64,
    /// Non-empty evaluation cohorts.
    pub cohorts: u64,
    /// Evaluated plans × sites × steps.
    pub rows: u64,
    /// `Nsga2Optimizer::run_controlled` minus evaluation and observer time.
    pub search_ms: f64,
    /// Building and encoding the study's response frames, µs.
    pub encode_us: f64,
    /// Generations run (including generation 0).
    pub generations: u32,
    /// Trials sampled.
    pub sampled: u64,
    /// Distinct genomes evaluated.
    pub unique: u64,
    /// Genome-memo hits and misses inside the search.
    pub memo_hits: u64,
    /// See `memo_hits`.
    pub memo_misses: u64,
    /// The final front the replay computed.
    pub front: Vec<PlanPoint>,
}

/// Replays study frames through the layers, sharing one prepared cache
/// across the stream the way the daemon does.
pub struct Replayer {
    cache: PreparedCache,
}

impl Replayer {
    /// A replayer whose prepared cache holds `capacity` members, as the
    /// daemon's does.
    pub fn new(capacity: usize) -> Self {
        Self {
            cache: PreparedCache::new(capacity),
        }
    }

    /// Replay one study request line, timing each layer.
    pub fn replay(&self, line: &str) -> Result<LayerTimes, String> {
        let mut t = LayerTimes::default();

        let start = Instant::now();
        let frame = wire::parse_request(line).map_err(|e| e.to_string())?;
        let Request::Study(study) = frame.req else {
            return Err(format!("not a study request: {line}"));
        };
        let scenario = study.resolved_scenario().map_err(|e| e.to_string())?;
        t.decode_us = micros(start);

        let start = Instant::now();
        let (fleet, stats) = scenario.prepare_shared(&self.cache);
        t.prep_ms = millis(start);
        if stats.misses > 0 {
            // The sub-layer split re-runs every member's preparation, so it
            // needs to know that every member missed.
            if stats.hits > 0 {
                return Err(format!(
                    "study {}: {} prep hits and {} misses; the prep split assumes all or none",
                    frame.id, stats.hits, stats.misses
                ));
            }
            for m in &scenario.members {
                time_prep_parts(&m.scenario, &mut t);
            }
        }

        let steps = fleet.members.first().map_or(0, |m| m.data.len());
        let mut problem = FleetProblem::new(&fleet);
        if let Some(cap) = study.peak_cap_kw {
            problem = problem.with_peak_cap_kw(cap);
        }
        let timed = TimedProblem::new(&problem, (fleet.n_sites() * steps) as u64);
        let optimizer = Nsga2Optimizer::new(Nsga2Config {
            population_size: study.budget.population_size,
            max_trials: study.budget.max_trials,
            seed: study.budget.seed,
            ..Nsga2Config::default()
        });

        let start = Instant::now();
        let plan_space = fleet.members.iter().fold(1u64, |acc, m| {
            acc.saturating_mul(m.config.space.len() as u64)
        });
        black_box(encode(
            &frame.id,
            Response::Accepted(StudyAccepted {
                sites: fleet.names.clone(),
                plan_space,
                prep_cache_hits: stats.hits,
                prep_cache_misses: stats.misses,
            }),
        ));
        let accepted_ns = start.elapsed().as_nanos() as u64;
        let mut observer_ns = 0u64;

        let mut generations = 0u32;
        let mut last_front: Vec<PlanPoint> = Vec::new();
        let start = Instant::now();
        let result = optimizer.run_controlled(&timed, &mut |view: GenerationView| {
            let obs = Instant::now();
            generations = view.generation as u32 + 1;
            last_front = plan_points(&fleet, &view.front);
            if study.stream {
                black_box(encode(
                    &frame.id,
                    Response::Front(FrontUpdate {
                        generation: view.generation as u32,
                        sampled: view.sampled as u64,
                        front: last_front.clone(),
                    }),
                ));
            }
            observer_ns += obs.elapsed().as_nanos() as u64;
            SearchControl::Continue
        });
        let run_ns = start.elapsed().as_nanos() as u64;
        let eval_ns = timed.eval_ns.load(Ordering::Relaxed);

        let done = StudyDone {
            generations,
            sampled_trials: result.sampled_trials as u64,
            unique_evaluations: result.unique_evaluations as u64,
            cache_hits: result.cache_hits as u64,
            cache_misses: result.cache_misses as u64,
            wall_ms: 0,
            front: last_front,
        };
        t.generations = done.generations;
        t.sampled = done.sampled_trials;
        t.unique = done.unique_evaluations;
        t.memo_hits = done.cache_hits;
        t.memo_misses = done.cache_misses;
        t.front = done.front.clone();
        let start = Instant::now();
        black_box(encode(&frame.id, Response::Done(done)));
        let done_ns = start.elapsed().as_nanos() as u64;

        t.eval_ms = eval_ns as f64 / 1e6;
        t.cohorts = timed.cohorts.load(Ordering::Relaxed);
        t.rows = timed.rows.load(Ordering::Relaxed);
        // The observer builds the streamed frames inside `run_controlled`.
        t.search_ms = run_ns.saturating_sub(eval_ns + observer_ns) as f64 / 1e6;
        t.encode_us = (accepted_ns + observer_ns + done_ns) as f64 / 1e3;
        Ok(t)
    }
}

/// The front of a standalone run: a fresh `FleetProblem` + NSGA-II over
/// the study's fleet, outside any daemon. Fleets come from `cache`.
pub fn standalone_front(line: &str, cache: &PreparedCache) -> Result<Vec<PlanPoint>, String> {
    let frame = wire::parse_request(line).map_err(|e| e.to_string())?;
    let Request::Study(study) = frame.req else {
        return Err(format!("not a study request: {line}"));
    };
    let (fleet, _) = study
        .resolved_scenario()
        .map_err(|e| e.to_string())?
        .prepare_shared(cache);
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
    let mut last = Vec::new();
    optimizer.run_controlled(&problem, &mut |view| {
        last = plan_points(&fleet, &view.front);
        SearchControl::Continue
    });
    Ok(last)
}

/// Whether two fronts agree bit for bit (objectives and violations
/// compared by `to_bits`).
pub fn fronts_identical(a: &[PlanPoint], b: &[PlanPoint]) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.genome == y.genome
                && x.plan == y.plan
                && bits(&x.objectives) == bits(&y.objectives)
                && x.violation.to_bits() == y.violation.to_bits()
        })
}

fn plan_points(fleet: &PreparedFleet, front: &[(Genome, Evaluation)]) -> Vec<PlanPoint> {
    front
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
        .collect()
}

fn encode(id: &str, resp: Response) -> String {
    wire::encode_response(&ResponseFrame {
        v: WIRE_VERSION,
        id: id.to_string(),
        resp,
    })
}

/// Time a member's preparation piece by piece, the way `Site::prepare`
/// and `ScenarioConfig::prepare` compose it, and add it to `t`.
fn time_prep_parts(cfg: &ScenarioConfig, t: &mut LayerTimes) {
    let step = cfg.step();
    let site = cfg.site.site();

    let start = Instant::now();
    let weather = WeatherGenerator::new(site.climate.clone(), cfg.seed).generate(step);
    let weather_ms = millis(start);

    let start = Instant::now();
    let pv = PvSystem::with_capacity_kw(1_000.0, site.climate.location.latitude_deg);
    black_box(pv.simulate(&weather));
    let pvwatts_ms = millis(start);

    let start = Instant::now();
    black_box(WindFarm::with_turbines(1).simulate(&weather));
    let wind_ms = millis(start);

    let start = Instant::now();
    black_box(CarbonIntensityModel::for_region(site.grid_region).generate(step, cfg.seed));
    let ci_ms = millis(start);

    let start = Instant::now();
    black_box(site.price_model.generate(step, cfg.seed));
    let price_ms = millis(start);

    let start = Instant::now();
    black_box(site.prepare(step, cfg.seed));
    let site_ms = millis(start);

    let start = Instant::now();
    black_box(cfg.workload.generate(step, cfg.seed));
    t.load_ms += millis(start);

    t.weather_ms += weather_ms;
    t.pvwatts_ms += pvwatts_ms;
    t.wind_ms += wind_ms;
    t.ci_ms += ci_ms;
    t.price_ms += price_ms;
    t.prep_other_ms += site_ms - (weather_ms + pvwatts_ms + wind_ms + ci_ms + price_ms);
}

/// A [`Problem`] that forwards to a [`FleetProblem`] and times its
/// batched evaluations.
struct TimedProblem<'a> {
    inner: &'a FleetProblem<'a>,
    rows_per_plan: u64,
    eval_ns: AtomicU64,
    cohorts: AtomicU64,
    rows: AtomicU64,
}

impl<'a> TimedProblem<'a> {
    fn new(inner: &'a FleetProblem<'a>, rows_per_plan: u64) -> Self {
        Self {
            inner,
            rows_per_plan,
            eval_ns: AtomicU64::new(0),
            cohorts: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        }
    }
}

impl Problem for TimedProblem<'_> {
    fn dims(&self) -> &[usize] {
        self.inner.dims()
    }

    fn n_objectives(&self) -> usize {
        self.inner.n_objectives()
    }

    fn n_constraints(&self) -> usize {
        self.inner.n_constraints()
    }

    fn evaluate(&self, genome: &[u16]) -> Vec<f64> {
        self.inner.evaluate(genome)
    }

    fn evaluate_constrained(&self, genome: &[u16]) -> Evaluation {
        self.inner.evaluate_constrained(genome)
    }

    fn evaluate_batch(&self, genomes: &[Genome]) -> Vec<Vec<f64>> {
        self.inner.evaluate_batch(genomes)
    }

    fn evaluate_batch_constrained(&self, genomes: &[Genome]) -> Vec<Evaluation> {
        let start = Instant::now();
        let out = self.inner.evaluate_batch_constrained(genomes);
        self.eval_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if !genomes.is_empty() {
            self.cohorts.fetch_add(1, Ordering::Relaxed);
            self.rows
                .fetch_add(genomes.len() as u64 * self.rows_per_plan, Ordering::Relaxed);
        }
        out
    }
}

/// What the daemon's trace says about one study, times in ms since the
/// daemon's trace epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaemonStudy {
    /// When the study entered the admission queue (`study_queued`).
    pub queued_at: Option<f64>,
    /// When the study sent `Done` (`study_done`).
    pub done_at: Option<f64>,
    /// Admission to `Done` (`study_done.wall_ms`).
    pub wall_ms: Option<f64>,
}

impl DaemonStudy {
    /// Time in the admission queue: from `study_queued` to admission
    /// (`done_at - wall_ms`); 0 for a study that never queued.
    pub fn admission_wait_ms(&self) -> Option<f64> {
        let admitted = self.done_at? - self.wall_ms?;
        Some(self.queued_at.map_or(0.0, |q| (admitted - q).max(0.0)))
    }
}

/// The parts of a daemon's JSONL trace the ledger reads: totals over its
/// `fleet_eval` events and, per study id, its audit events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonTrace {
    /// Summed `rows` (plans × sites × steps).
    pub rows: u64,
    /// Summed `simd_rows`.
    pub simd_rows: u64,
    /// Summed `simd_remainder_rows`.
    pub remainder_rows: u64,
    /// Per study id.
    pub studies: BTreeMap<String, DaemonStudy>,
}

impl DaemonTrace {
    /// SIMD rows over SIMD plus remainder rows. Each event's counts are
    /// process-wide counter deltas, so passes that overlap in time count
    /// each other's rows; the ratio is an estimate, `rows` is exact.
    pub fn lane_util(&self) -> f64 {
        let lanes = self.simd_rows + self.remainder_rows;
        if lanes == 0 {
            0.0
        } else {
            self.simd_rows as f64 / lanes as f64
        }
    }
}

/// Read a daemon's JSONL trace; event kinds the ledger does not use are
/// skipped, a malformed line or a missing field is an error.
pub fn parse_trace(trace: &str) -> Result<DaemonTrace, String> {
    let mut total = DaemonTrace::default();
    for (i, line) in trace.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("trace line {}: {e}", i + 1);
        let ev = parse_line(line).map_err(at)?;
        let uint = |key: &str| {
            ev.uint(key)
                .ok_or_else(|| at(format!("{} without `{key}`", ev.kind)))
        };
        let id = || {
            ev.str("id")
                .map(str::to_string)
                .ok_or_else(|| at(format!("{} without `id`", ev.kind)))
        };
        match ev.kind.as_str() {
            "fleet_eval" => {
                total.rows += uint("rows")?;
                total.simd_rows += uint("simd_rows")?;
                total.remainder_rows += uint("simd_remainder_rows")?;
            }
            "study_queued" => {
                total.studies.entry(id()?).or_default().queued_at = Some(ev.t_ms);
            }
            "study_done" => {
                let wall = ev
                    .num("wall_ms")
                    .ok_or_else(|| at("study_done without `wall_ms`".into()))?;
                let study = total.studies.entry(id()?).or_default();
                study.done_at = Some(ev.t_ms);
                study.wall_ms = Some(wall);
            }
            _ => {}
        }
    }
    Ok(total)
}

fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn micros(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_events_are_summed_and_others_skipped() {
        let trace = concat!(
            r#"{"ev":"trace_start","t_ms":0.0,"crate":"mgopt-telemetry","pid":7}"#,
            "\n",
            r#"{"ev":"study_queued","t_ms":0.5,"id":"c0-1","ahead":2}"#,
            "\n",
            r#"{"ev":"fleet_eval","t_ms":1.5,"plans":50,"sites":2,"steps":8760,"chunks":1,"rows":876000,"simd":true,"simd_rows":840960,"simd_remainder_rows":35040,"prepare_ms":0.1,"kernel_ms":9.0,"wall_ms":9.2}"#,
            "\n",
            r#"{"ev":"generation","t_ms":2.0,"gen":0,"cohort":50}"#,
            "\n\n",
            r#"{"ev":"fleet_eval","t_ms":3.0,"plans":4,"sites":2,"steps":8760,"chunks":1,"rows":70080,"simd":true,"simd_rows":70080,"simd_remainder_rows":0,"prepare_ms":0.0,"kernel_ms":1.0,"wall_ms":1.0}"#,
            "\n",
            r#"{"ev":"study_done","t_ms":12.0,"id":"c0-1","generations":7,"sampled":350,"unique":290,"front":9,"wall_ms":4.0}"#,
            "\n",
            r#"{"ev":"study_done","t_ms":13.0,"id":"c1-0","generations":7,"sampled":350,"unique":290,"front":9,"wall_ms":13.0}"#,
            "\n",
        );
        let t = parse_trace(trace).unwrap();
        assert_eq!(t.rows, 876_000 + 70_080);
        assert_eq!(t.simd_rows, 840_960 + 70_080);
        assert_eq!(t.remainder_rows, 35_040);
        assert!((t.lane_util() - 911_040.0 / 946_080.0).abs() < 1e-12);
        assert_eq!(DaemonTrace::default().lane_util(), 0.0);

        // Queued at 0.5, admitted at 12 - 4 = 8.
        let queued = t.studies["c0-1"];
        assert_eq!(queued.admission_wait_ms(), Some(7.5));
        assert_eq!(t.studies["c1-0"].admission_wait_ms(), Some(0.0));
        assert_eq!(DaemonStudy::default().admission_wait_ms(), None);
    }

    #[test]
    fn malformed_trace_events_are_errors() {
        let missing =
            r#"{"ev":"fleet_eval","t_ms":1.0,"plans":1,"simd_rows":0,"simd_remainder_rows":0}"#;
        assert!(parse_trace(missing).unwrap_err().contains("`rows`"));
        let no_id = r#"{"ev":"study_done","t_ms":1.0,"wall_ms":1.0}"#;
        assert!(parse_trace(no_id).unwrap_err().contains("`id`"));
        assert!(parse_trace("{not json")
            .unwrap_err()
            .starts_with("trace line 1"));
    }

    #[test]
    fn bitwise_front_comparison() {
        let p = PlanPoint {
            genome: vec![1, 2],
            plan: vec![mgopt_microgrid::Composition::BASELINE; 2],
            objectives: vec![30.0, 0.0],
            violation: 0.0,
        };
        let mut q = p.clone();
        assert!(fronts_identical(
            std::slice::from_ref(&p),
            std::slice::from_ref(&q)
        ));
        q.objectives[1] = -0.0;
        assert!(
            !fronts_identical(std::slice::from_ref(&p), &[q]),
            "-0.0 is not 0.0 bitwise"
        );
        assert!(!fronts_identical(std::slice::from_ref(&p), &[]));
    }
}
