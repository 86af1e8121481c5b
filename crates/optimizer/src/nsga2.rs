//! NSGA-II (Deb, Pratap, Agarwal, Meyarivan 2002) over discrete spaces —
//! the sampler Optuna uses for the paper's multi-objective study (350
//! trials, population 50).
//!
//! Implementation notes:
//! * **Memoization.** The composition space is small (1,089 points) while a
//!   genetic run samples 350+ genomes with repeats; duplicate genomes are
//!   evaluated once and both *sampled* and *unique* counts are reported —
//!   speedups in §4.4 are computed from unique evaluations.
//! * **Parallelism.** Each generation's unseen genomes are evaluated with
//!   rayon (`par_iter`), mirroring the paper's Hydra/Optuna
//!   parallelization across cores.
//! * **Determinism.** All stochastic choices flow from a seeded ChaCha12
//!   stream; parallel evaluation only computes pure functions, so results
//!   are reproducible regardless of thread scheduling.
//! * **Constraints.** Problems with [`Problem::n_constraints`] > 0 are
//!   handled by Deb's constraint-dominance: ranking, tournament and
//!   environmental selection all use
//!   [`constrained_non_dominated_sort`], so any feasible point outranks
//!   every infeasible one and infeasible points are layered by total
//!   violation. Unconstrained problems see the exact original behavior.

// mgopt-lint: allow(determinism) — memo cache is keyed get/insert/extend only, never iterated
use std::collections::HashMap;

use mgopt_telemetry::{self as telemetry, Counter, Stage};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::pareto::{constrained_non_dominated_sort, crowding_distance, hypervolume_2d};
use crate::problem::{Evaluation, Genome, Problem, Trial};
use crate::study::OptimizationResult;

/// NSGA-II configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Nsga2Config {
    /// Population size (the paper uses 50).
    pub population_size: usize,
    /// Total sampled trials budget, duplicates included (the paper: 350).
    pub max_trials: usize,
    /// Per-genome uniform-crossover probability.
    pub crossover_prob: f64,
    /// Per-gene mutation probability; `None` = `1/n_dims`.
    pub mutation_prob: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population_size: 50,
            max_trials: 350,
            crossover_prob: 0.9,
            mutation_prob: None,
            seed: 0,
        }
    }
}

/// One generation's snapshot, handed to a [`Nsga2Optimizer::run_observed`]
/// observer after environmental selection (and once for the evaluated
/// initial population, `generation == 0`).
///
/// `front` is the population's current first front under
/// constraint-dominance, deduplicated by genome, in population order —
/// what a streaming client would want to render incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationView {
    /// Generation index (0 = initial population).
    pub generation: u64,
    /// Trials sampled so far (duplicates included).
    pub sampled: usize,
    /// The current first front: `(genome, evaluation)` pairs.
    pub front: Vec<(Genome, Evaluation)>,
}

/// Verdict returned by a [`Nsga2Optimizer::run_controlled`] observer
/// after each generation: keep searching, or stop cooperatively at this
/// generation boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchControl {
    /// Keep running.
    Continue,
    /// Stop after this generation; the result covers the completed
    /// generations only (its history is a prefix of the uncancelled
    /// run's history).
    Stop,
}

/// The NSGA-II optimizer.
#[derive(Debug, Clone)]
pub struct Nsga2Optimizer {
    config: Nsga2Config,
}

impl Nsga2Optimizer {
    /// Create an optimizer.
    ///
    /// # Panics
    /// Panics on a zero population or a budget smaller than one population.
    pub fn new(config: Nsga2Config) -> Self {
        assert!(
            config.population_size >= 2,
            "population must hold at least 2"
        );
        assert!(
            config.max_trials >= config.population_size,
            "budget must cover the initial population"
        );
        assert!((0.0..=1.0).contains(&config.crossover_prob));
        Self { config }
    }

    /// Run the optimization.
    pub fn run(&self, problem: &dyn Problem) -> OptimizationResult {
        self.run_inner(problem, None)
    }

    /// Run the optimization, calling `observer` once per generation with
    /// the current first front — the hook streaming clients (the
    /// optimization daemon) use for incremental front updates.
    ///
    /// The observer is outside the search's decision path: `run_observed`
    /// with any observer and [`run`](Self::run) produce bit-identical
    /// results for the same problem and seed.
    pub fn run_observed(
        &self,
        problem: &dyn Problem,
        observer: &mut dyn FnMut(GenerationView),
    ) -> OptimizationResult {
        self.run_inner(
            problem,
            Some(&mut |view| {
                observer(view);
                SearchControl::Continue
            }),
        )
    }

    /// Like [`run_observed`](Self::run_observed), but the observer's
    /// return value can stop the search cooperatively at the current
    /// generation boundary ([`SearchControl::Stop`]) — the hook the
    /// optimization daemon uses for study cancellation.
    ///
    /// Completed generations are unaffected by the control channel: up to
    /// the stopping point, the sampled history is bit-identical to the
    /// same seed's uncancelled run.
    pub fn run_controlled(
        &self,
        problem: &dyn Problem,
        observer: &mut dyn FnMut(GenerationView) -> SearchControl,
    ) -> OptimizationResult {
        self.run_inner(problem, Some(observer))
    }

    fn run_inner(
        &self,
        problem: &dyn Problem,
        mut observer: Option<&mut dyn FnMut(GenerationView) -> SearchControl>,
    ) -> OptimizationResult {
        let cfg = &self.config;
        let dims = problem.dims().to_vec();
        let mutation_prob = cfg
            .mutation_prob
            .unwrap_or(1.0 / dims.len() as f64)
            .clamp(0.0, 1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ 0x4e59_a211);

        // mgopt-lint: allow(determinism) — memo cache is keyed get/insert/extend only, never iterated
        let mut cache: HashMap<Genome, Evaluation> = HashMap::new();
        let mut history: Vec<Trial> = Vec::new();
        let mut sampled = 0usize;
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;

        // Initial population: unique random genomes where possible.
        let mut population: Vec<Genome> = Vec::with_capacity(cfg.population_size);
        let mut guard = 0;
        while population.len() < cfg.population_size {
            let g = random_genome(&dims, &mut rng);
            guard += 1;
            if guard < 20 * cfg.population_size && population.contains(&g) {
                continue;
            }
            population.push(g);
        }
        sampled += population.len();
        let (hits, misses) = evaluate_batch(problem, &population, &mut cache, &mut history);
        cache_hits += hits;
        cache_misses += misses;

        // Fix the hypervolume reference point from the initial population
        // (worst per objective, padded) so per-generation `hv` values in
        // the trace are comparable across the whole run. 2-objective only
        // (the workspace's `hypervolume_2d` metric); computed only when a
        // trace is being collected.
        let hv_ref: Option<[f64; 2]> =
            (telemetry::enabled() && problem.n_objectives() == 2).then(|| {
                let mut r = [f64::NEG_INFINITY; 2];
                for g in &population {
                    let o = &cache[g].objectives;
                    r[0] = r[0].max(o[0]);
                    r[1] = r[1].max(o[1]);
                }
                [pad_reference(r[0]), pad_reference(r[1])]
            });
        let mut generation = 0u64;
        emit_generation_event(generation, &population, &cache, hits, misses, hv_ref);
        let mut stopped = false;
        if let Some(obs) = observer.as_deref_mut() {
            stopped = obs(generation_view(generation, sampled, &population, &cache))
                == SearchControl::Stop;
        }

        while !stopped && sampled < cfg.max_trials {
            let obj: Vec<Vec<f64>> = population
                .iter()
                .map(|g| cache[g].objectives.clone())
                .collect();
            let viol: Vec<f64> = population
                .iter()
                .map(|g| cache[g].total_violation())
                .collect();
            let sort_span = telemetry::span(Stage::SearchSort);
            let fronts = constrained_non_dominated_sort(&obj, &viol);
            let (rank, crowd) = rank_and_crowding(&obj, &fronts);
            drop(sort_span);

            // Offspring generation.
            let n_children = cfg.population_size.min(cfg.max_trials - sampled).max(1);
            let mut children: Vec<Genome> = Vec::with_capacity(n_children);
            while children.len() < n_children {
                let a = tournament(&population, &rank, &crowd, &mut rng);
                let b = tournament(&population, &rank, &crowd, &mut rng);
                let (mut c1, mut c2) = if rng.gen::<f64>() < cfg.crossover_prob {
                    uniform_crossover(&population[a], &population[b], &mut rng)
                } else {
                    (population[a].clone(), population[b].clone())
                };
                mutate(&mut c1, &dims, mutation_prob, &mut rng);
                mutate(&mut c2, &dims, mutation_prob, &mut rng);
                children.push(c1);
                if children.len() < n_children {
                    children.push(c2);
                }
            }
            sampled += children.len();
            let (hits, misses) = evaluate_batch(problem, &children, &mut cache, &mut history);
            cache_hits += hits;
            cache_misses += misses;

            // Environmental selection over parents + children.
            let mut combined: Vec<Genome> = population.clone();
            combined.extend(children);
            combined.dedup_by(|a, b| a == b);
            let comb_obj: Vec<Vec<f64>> = combined
                .iter()
                .map(|g| cache[g].objectives.clone())
                .collect();
            let comb_viol: Vec<f64> = combined
                .iter()
                .map(|g| cache[g].total_violation())
                .collect();
            let sort_span = telemetry::span(Stage::SearchSort);
            let comb_fronts = constrained_non_dominated_sort(&comb_obj, &comb_viol);
            population =
                select_next_population(&combined, &comb_obj, &comb_fronts, cfg.population_size);
            drop(sort_span);
            generation += 1;
            emit_generation_event(generation, &population, &cache, hits, misses, hv_ref);
            if let Some(obs) = observer.as_deref_mut() {
                stopped = obs(generation_view(generation, sampled, &population, &cache))
                    == SearchControl::Stop;
            }
        }

        let mut result = OptimizationResult::from_history(history, sampled, cache.len());
        result.cache_hits = cache_hits;
        result.cache_misses = cache_misses;
        result
    }
}

/// Build the observer's snapshot: the population's deduplicated first
/// front under constraint-dominance. Only runs when an observer is
/// installed (cohorts are small, so the extra sort is negligible next to
/// a generation's evaluations).
fn generation_view(
    generation: u64,
    sampled: usize,
    population: &[Genome],
    cache: &HashMap<Genome, Evaluation>,
) -> GenerationView {
    let obj: Vec<Vec<f64>> = population
        .iter()
        .map(|g| cache[g].objectives.clone())
        .collect();
    let viol: Vec<f64> = population
        .iter()
        .map(|g| cache[g].total_violation())
        .collect();
    let fronts = constrained_non_dominated_sort(&obj, &viol);
    let mut front: Vec<(Genome, Evaluation)> = Vec::new();
    if let Some(first) = fronts.first() {
        for &i in first {
            if !front.iter().any(|(g, _)| *g == population[i]) {
                front.push((population[i].clone(), cache[&population[i]].clone()));
            }
        }
    }
    GenerationView {
        generation,
        sampled,
        front,
    }
}

/// Pad one coordinate of the hypervolume reference point: 10% beyond the
/// initial population's worst value (sign-safe) plus an absolute epsilon,
/// so boundary points still contribute area.
fn pad_reference(worst: f64) -> f64 {
    worst + 0.1 * worst.abs() + 1e-9
}

/// Emit one per-generation trace event. A cheap no-op when telemetry is
/// off; when tracing, re-derives the population's feasible count and first
/// front (outside the budget-relevant path — cohort sizes are ≤ a few
/// hundred).
fn emit_generation_event(
    generation: u64,
    population: &[Genome],
    cache: &HashMap<Genome, Evaluation>,
    hits: usize,
    misses: usize,
    hv_ref: Option<[f64; 2]>,
) {
    if !telemetry::enabled() {
        return;
    }
    let obj: Vec<Vec<f64>> = population
        .iter()
        .map(|g| cache[g].objectives.clone())
        .collect();
    let viol: Vec<f64> = population
        .iter()
        .map(|g| cache[g].total_violation())
        .collect();
    let feasible = viol.iter().filter(|&&v| v <= 0.0).count();
    let fronts = constrained_non_dominated_sort(&obj, &viol);
    let mut event = telemetry::Event::new("generation")
        .u64("gen", generation)
        .u64("cohort", population.len() as u64)
        .u64("cache_hits", hits as u64)
        .u64("cache_misses", misses as u64)
        .u64("feasible", feasible as u64)
        .u64("front", fronts.first().map_or(0, Vec::len) as u64);
    if let Some(reference) = hv_ref {
        event = event.f64("hv", hypervolume_2d(&obj, &reference));
    }
    let n_obj = obj.first().map_or(0, Vec::len);
    for k in 0..n_obj {
        let best = obj.iter().map(|o| o[k]).fold(f64::INFINITY, f64::min);
        event = event.f64(&format!("best_obj{k}"), best);
    }
    event.emit();
}

/// Evaluate genomes not in the cache (one batched pass), extending the
/// history with one trial per *sampled* genome (duplicates repeat their
/// cached objectives, matching how Optuna counts trials). Returns this
/// batch's `(cache_hits, cache_misses)` — hits count genomes answered
/// from the cache or deduplicated within the batch.
fn evaluate_batch(
    problem: &dyn Problem,
    genomes: &[Genome],
    cache: &mut HashMap<Genome, Evaluation>,
    history: &mut Vec<Trial>,
) -> (usize, usize) {
    let mut unseen: Vec<Genome> = Vec::new();
    for g in genomes {
        if !cache.contains_key(g) && !unseen.contains(g) {
            unseen.push(g.clone());
        }
    }
    let misses = unseen.len();
    let hits = genomes.len() - misses;
    telemetry::add(Counter::CacheHits, hits as u64);
    telemetry::add(Counter::CacheMisses, misses as u64);
    let evaluations = problem.evaluate_batch_constrained(&unseen);
    cache.extend(unseen.into_iter().zip(evaluations));
    for g in genomes {
        history.push(Trial::from_evaluation(g.clone(), cache[g].clone()));
    }
    (hits, misses)
}

fn random_genome(dims: &[usize], rng: &mut ChaCha12Rng) -> Genome {
    dims.iter().map(|&d| rng.gen_range(0..d) as u16).collect()
}

/// Per-individual `(front rank, crowding distance)` lookup tables.
fn rank_and_crowding(obj: &[Vec<f64>], fronts: &[Vec<usize>]) -> (Vec<usize>, Vec<f64>) {
    let n = obj.len();
    let mut rank = vec![0usize; n];
    let mut crowd = vec![0.0f64; n];
    for (r, front) in fronts.iter().enumerate() {
        let d = crowding_distance(obj, front);
        for (k, &i) in front.iter().enumerate() {
            rank[i] = r;
            crowd[i] = d[k];
        }
    }
    (rank, crowd)
}

/// Binary tournament on (rank asc, crowding desc).
fn tournament(
    population: &[Genome],
    rank: &[usize],
    crowd: &[f64],
    rng: &mut ChaCha12Rng,
) -> usize {
    let i = rng.gen_range(0..population.len());
    let j = rng.gen_range(0..population.len());
    if rank[i] < rank[j] || (rank[i] == rank[j] && crowd[i] > crowd[j]) {
        i
    } else {
        j
    }
}

fn uniform_crossover(a: &Genome, b: &Genome, rng: &mut ChaCha12Rng) -> (Genome, Genome) {
    let mut c1 = a.clone();
    let mut c2 = b.clone();
    for d in 0..a.len() {
        if rng.gen::<bool>() {
            c1[d] = b[d];
            c2[d] = a[d];
        }
    }
    (c1, c2)
}

/// Mutation: mostly ±1 steps on the discrete grid (local refinement), with
/// occasional uniform resets (exploration).
fn mutate(g: &mut Genome, dims: &[usize], prob: f64, rng: &mut ChaCha12Rng) {
    for (d, gene) in g.iter_mut().enumerate() {
        if rng.gen::<f64>() >= prob {
            continue;
        }
        let n = dims[d];
        if n <= 1 {
            continue;
        }
        if rng.gen::<f64>() < 0.7 {
            // step mutation
            let step: i32 = if rng.gen::<bool>() { 1 } else { -1 };
            let v = (*gene as i32 + step).clamp(0, n as i32 - 1);
            *gene = v as u16;
        } else {
            *gene = rng.gen_range(0..n) as u16;
        }
    }
}

/// NSGA-II environmental selection: fill by fronts, break the last front by
/// crowding distance.
fn select_next_population(
    combined: &[Genome],
    obj: &[Vec<f64>],
    fronts: &[Vec<usize>],
    target: usize,
) -> Vec<Genome> {
    let mut next: Vec<Genome> = Vec::with_capacity(target);
    for front in fronts {
        if next.len() >= target {
            break;
        }
        if next.len() + front.len() <= target {
            next.extend(front.iter().map(|&i| combined[i].clone()));
        } else {
            let d = crowding_distance(obj, front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| d[b].partial_cmp(&d[a]).expect("NaN crowding"));
            for &k in order.iter().take(target - next.len()) {
                next.push(combined[front[k]].clone());
            }
            break;
        }
    }
    // Degenerate case: fewer unique genomes than the target — pad by
    // repeating front members (keeps invariants simple).
    let mut k = 0;
    while next.len() < target && !next.is_empty() {
        next.push(next[k % next.len()].clone());
        k += 1;
    }
    next
}

/// Convenience: shuffle-based deduplicated initial sampling shared with
/// tests.
pub(crate) fn sample_unique_genomes(
    dims: &[usize],
    n: usize,
    rng: &mut ChaCha12Rng,
) -> Vec<Genome> {
    let space: usize = dims.iter().product();
    if space <= n {
        return (0..space)
            .map(|i| {
                let mut idx = i;
                let mut g = vec![0u16; dims.len()];
                for d in (0..dims.len()).rev() {
                    g[d] = (idx % dims[d]) as u16;
                    idx /= dims[d];
                }
                g
            })
            .collect();
    }
    let mut indices: Vec<usize> = (0..space).collect();
    indices.shuffle(rng);
    indices
        .into_iter()
        .take(n)
        .map(|i| {
            let mut idx = i;
            let mut g = vec![0u16; dims.len()];
            for d in (0..dims.len()).rev() {
                g[d] = (idx % dims[d]) as u16;
                idx /= dims[d];
            }
            g
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;

    /// A 2-objective test problem with a known Pareto front: minimize
    /// (g0, K - g0) subject to noise dims — front = all g0 values with
    /// minimal noise contribution.
    fn convex_problem() -> FnProblem<impl Fn(&[u16]) -> Vec<f64> + Sync> {
        FnProblem::new(vec![21, 8, 8], 2, |g| {
            let x = g[0] as f64 / 20.0;
            let penalty = (g[1] as f64 + g[2] as f64) * 0.05;
            vec![x + penalty, 1.0 - x + penalty]
        })
    }

    #[test]
    fn finds_most_of_a_simple_front() {
        let problem = convex_problem();
        let result = Nsga2Optimizer::new(Nsga2Config {
            population_size: 30,
            max_trials: 300,
            seed: 1,
            ..Nsga2Config::default()
        })
        .run(&problem);

        // True front: genomes with g1 = g2 = 0 (21 points).
        let front = result.pareto_front();
        let clean = front
            .iter()
            .filter(|t| t.genome[1] == 0 && t.genome[2] == 0)
            .count();
        assert!(
            clean as f64 / front.len() as f64 > 0.8,
            "front polluted: {clean}/{}",
            front.len()
        );
        assert!(front.len() >= 10, "front too sparse: {}", front.len());
    }

    #[test]
    fn constraint_dominance_returns_a_feasible_front() {
        // Cap g0 at 10: the unconstrained front's low-x half (g0 > 10 gives
        // the best second objective) becomes infeasible.
        let problem = convex_problem().with_constraints(1, |g| vec![(g[0] as f64 - 10.0).max(0.0)]);
        let result = Nsga2Optimizer::new(Nsga2Config {
            population_size: 30,
            max_trials: 400,
            seed: 11,
            ..Nsga2Config::default()
        })
        .run(&problem);

        let front = result.pareto_front();
        assert!(!front.is_empty());
        assert!(
            front.iter().all(|t| t.is_feasible()),
            "infeasible trial on the front: {front:?}"
        );
        assert!(front.iter().all(|t| t.genome[0] <= 10));
        // The search still spreads over the feasible part of the front.
        assert!(front.len() >= 5, "front too sparse: {}", front.len());
        // History records violations for the infeasible samples it visited.
        assert!(result.history.iter().any(|t| !t.is_feasible()));
    }

    #[test]
    fn unconstrained_behavior_is_unchanged_by_constraint_plumbing() {
        // A constraint that never fires must not perturb the search: the
        // zero-violation constrained sort is pinned to the plain sort, so
        // the sampled history must be identical genome-for-genome.
        let run = |constrained: bool| {
            let base = convex_problem();
            let p = if constrained {
                base.with_constraints(1, |_| vec![0.0])
            } else {
                base
            };
            Nsga2Optimizer::new(Nsga2Config {
                population_size: 16,
                max_trials: 96,
                seed: 5,
                ..Nsga2Config::default()
            })
            .run(&p)
            .history
            .into_iter()
            .map(|t| (t.genome, t.objectives))
            .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn respects_trial_budget() {
        let problem = convex_problem();
        let result = Nsga2Optimizer::new(Nsga2Config {
            population_size: 20,
            max_trials: 100,
            seed: 2,
            ..Nsga2Config::default()
        })
        .run(&problem);
        assert_eq!(result.sampled_trials, 100);
        assert!(result.unique_evaluations <= 100);
        assert_eq!(result.history.len(), 100);
    }

    #[test]
    fn deterministic_per_seed() {
        let problem = convex_problem();
        let run = |seed| {
            Nsga2Optimizer::new(Nsga2Config {
                population_size: 16,
                max_trials: 64,
                seed,
                ..Nsga2Config::default()
            })
            .run(&problem)
            .history
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn memoization_reduces_unique_evaluations() {
        // Tiny space: duplicates guaranteed.
        let problem = FnProblem::new(vec![3, 3], 2, |g| vec![g[0] as f64, g[1] as f64]);
        let result = Nsga2Optimizer::new(Nsga2Config {
            population_size: 8,
            max_trials: 200,
            seed: 3,
            ..Nsga2Config::default()
        })
        .run(&problem);
        assert_eq!(result.sampled_trials, 200);
        assert!(result.unique_evaluations <= 9, "space only has 9 points");
    }

    #[test]
    fn cache_hit_and_miss_counts_partition_the_sampled_trials() {
        let problem = FnProblem::new(vec![3, 3], 2, |g| vec![g[0] as f64, g[1] as f64]);
        let result = Nsga2Optimizer::new(Nsga2Config {
            population_size: 8,
            max_trials: 200,
            seed: 3,
            ..Nsga2Config::default()
        })
        .run(&problem);
        assert_eq!(result.cache_hits + result.cache_misses, 200);
        assert_eq!(result.cache_misses, result.unique_evaluations);
        assert!(
            result.cache_hits > 0,
            "9-point space at 200 trials must hit"
        );
        let rate = result.cache_hit_rate().expect("cache activity recorded");
        assert!(rate > 0.9, "hit rate {rate} suspiciously low for 9 points");
    }

    #[test]
    fn improves_over_random_seeding_generations() {
        // Hypervolume of the final front should beat the initial pop's.
        let problem = convex_problem();
        let result = Nsga2Optimizer::new(Nsga2Config {
            population_size: 20,
            max_trials: 400,
            seed: 4,
            ..Nsga2Config::default()
        })
        .run(&problem);
        let initial: Vec<Vec<f64>> = result.history[..20]
            .iter()
            .map(|t| t.objectives.clone())
            .collect();
        let final_front: Vec<Vec<f64>> = result
            .pareto_front()
            .iter()
            .map(|t| t.objectives.clone())
            .collect();
        let hv0 = crate::pareto::hypervolume_2d(&initial, &[3.0, 3.0]);
        let hv1 = crate::pareto::hypervolume_2d(&final_front, &[3.0, 3.0]);
        assert!(hv1 > hv0, "no improvement: {hv1} <= {hv0}");
    }

    #[test]
    fn mutation_respects_bounds() {
        let dims = vec![5usize, 1, 3];
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        for _ in 0..500 {
            let mut g = random_genome(&dims, &mut rng);
            mutate(&mut g, &dims, 1.0, &mut rng);
            for (d, &gene) in g.iter().enumerate() {
                assert!((gene as usize) < dims[d]);
            }
        }
    }

    #[test]
    fn sample_unique_covers_small_spaces() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let got = sample_unique_genomes(&[2, 2], 10, &mut rng);
        assert_eq!(got.len(), 4);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let got = sample_unique_genomes(&[10, 10], 5, &mut rng);
        assert_eq!(got.len(), 5);
        let unique: std::collections::HashSet<_> = got.iter().collect();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn observer_sees_every_generation_and_never_perturbs_the_search() {
        let problem = convex_problem();
        let opt = Nsga2Optimizer::new(Nsga2Config {
            population_size: 16,
            max_trials: 64,
            seed: 5,
            ..Nsga2Config::default()
        });
        let mut views: Vec<GenerationView> = Vec::new();
        let observed = opt.run_observed(&problem, &mut |v| views.push(v));
        let plain = opt.run(&problem);
        assert_eq!(observed.history, plain.history, "observer changed the run");

        // gen 0 plus one view per offspring generation, monotone sampled.
        assert_eq!(views[0].generation, 0);
        assert_eq!(views[0].sampled, 16);
        assert_eq!(views.len(), 1 + (64 - 16) / 16);
        for (k, v) in views.iter().enumerate() {
            assert_eq!(v.generation, k as u64);
            assert!(!v.front.is_empty(), "gen {k}: empty front");
            let unique: std::collections::HashSet<_> =
                v.front.iter().map(|(g, _)| g.clone()).collect();
            assert_eq!(unique.len(), v.front.len(), "gen {k}: duplicate genomes");
        }
        assert_eq!(views.last().unwrap().sampled, 64);

        // The final view's front matches the final population's front as
        // recovered from the plain result's trials.
        let last = views.last().unwrap();
        for (g, e) in &last.front {
            let t = plain
                .history
                .iter()
                .find(|t| &t.genome == g)
                .expect("front genome was sampled");
            assert_eq!(&t.objectives, &e.objectives);
        }
    }

    #[test]
    fn controlled_stop_truncates_to_a_bit_identical_prefix() {
        let problem = convex_problem();
        let opt = Nsga2Optimizer::new(Nsga2Config {
            population_size: 16,
            max_trials: 96,
            seed: 5,
            ..Nsga2Config::default()
        });
        let full = opt.run(&problem);

        // Stop after two generations (gen 0 + one offspring cohort).
        let mut seen = 0u64;
        let cancelled = opt.run_controlled(&problem, &mut |v| {
            seen = v.generation + 1;
            if v.generation >= 1 {
                SearchControl::Stop
            } else {
                SearchControl::Continue
            }
        });
        assert_eq!(seen, 2);
        assert_eq!(cancelled.sampled_trials, 32);
        assert_eq!(
            cancelled.history.as_slice(),
            &full.history[..32],
            "cancelled run diverged from the uncancelled prefix"
        );

        // Stop at generation 0: only the initial population is sampled.
        let immediate = opt.run_controlled(&problem, &mut |_| SearchControl::Stop);
        assert_eq!(immediate.sampled_trials, 16);
        assert_eq!(immediate.history.as_slice(), &full.history[..16]);

        // A Continue-forever controller matches the plain run exactly.
        let uncancelled = opt.run_controlled(&problem, &mut |_| SearchControl::Continue);
        assert_eq!(uncancelled.history, full.history);
    }

    #[test]
    #[should_panic(expected = "budget must cover")]
    fn tiny_budget_panics() {
        Nsga2Optimizer::new(Nsga2Config {
            population_size: 50,
            max_trials: 10,
            ..Nsga2Config::default()
        });
    }
}
