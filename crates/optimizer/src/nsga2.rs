//! NSGA-II (Deb, Pratap, Agarwal, Meyarivan 2002) over discrete spaces —
//! the sampler Optuna uses for the paper's multi-objective study (350
//! trials, population 50).
//!
//! Implementation notes:
//! * **Memoization.** The composition space is small (1,089 points) while a
//!   genetic run samples 350+ genomes with repeats; duplicate genomes are
//!   evaluated once and both *sampled* and *unique* counts are reported —
//!   speedups in §4.4 are computed from unique evaluations.
//! * **Flat state.** Each unique genome lives once in an arena under a
//!   dense `u32` id (first-seen order): its genes, objectives and
//!   violations are rows of flat row-major tables, and the memo hashes
//!   each sampled genome once to find its id. Populations, children and
//!   the combined cohort move as ids, and each cohort is ranked by
//!   gathering its objective rows into one matrix for
//!   [`constrained_non_dominated_sort`].
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

// mgopt-lint: allow(determinism) — the memo is keyed entry lookups only, never iterated
use std::collections::hash_map::{Entry, HashMap};

use mgopt_telemetry::{self as telemetry, Counter, Stage};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

use crate::pareto::{
    constrained_non_dominated_sort, crowding_distance, crowding_order, hypervolume_2d, Objectives,
};
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

/// One generation's snapshot, handed to the
/// [`Nsga2Optimizer::run_controlled`] observer after environmental
/// selection (and once for the evaluated initial population,
/// `generation == 0`).
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
    /// Panics on a population smaller than 2 or a budget smaller than one
    /// population.
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

    /// Run the optimization, calling `observer` once per generation with
    /// the current first front — the hook streaming clients (the
    /// optimization daemon) use for incremental front updates. The
    /// observer's verdict can stop the search cooperatively at the
    /// current generation boundary ([`SearchControl::Stop`]), which is how
    /// the daemon cancels a study; a caller that only wants the result
    /// passes `&mut |_| SearchControl::Continue`.
    ///
    /// The observer is outside the search's decision path: up to the
    /// stopping point, the sampled history is bit-identical for every
    /// observer and the same problem and seed.
    pub fn run_controlled(
        &self,
        problem: &dyn Problem,
        observer: &mut dyn FnMut(GenerationView) -> SearchControl,
    ) -> OptimizationResult {
        let cfg = &self.config;
        let dims = problem.dims().to_vec();
        let mutation_prob = cfg
            .mutation_prob
            .unwrap_or(1.0 / dims.len() as f64)
            .clamp(0.0, 1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(cfg.seed ^ 0x4e59_a211);

        let mut arena = Arena::new(problem);
        let mut history: Vec<Trial> = Vec::new();
        let mut sampled = 0usize;
        let mut cache_hits = 0usize;
        let mut cache_misses = 0usize;

        // Initial population: unique random genomes where possible. Every
        // genome interned so far is in the population, so "seen" means
        // "already a member".
        let mut population: Vec<u32> = Vec::with_capacity(cfg.population_size);
        let mut guard = 0;
        while population.len() < cfg.population_size {
            let (id, seen) = arena.intern(random_genome(&dims, &mut rng));
            guard += 1;
            if guard < 20 * cfg.population_size && seen {
                continue;
            }
            population.push(id);
        }
        sampled += population.len();
        let (hits, misses) = evaluate_batch(problem, &population, &mut arena, &mut history);
        cache_hits += hits;
        cache_misses += misses;

        // Fix the hypervolume reference point from the initial population
        // (worst per objective, padded) so per-generation `hv` values in
        // the trace are comparable across the whole run. 2-objective only
        // (the workspace's `hypervolume_2d` metric); computed only when a
        // trace is being collected.
        let hv_ref = (telemetry::enabled() && problem.n_objectives() == 2)
            .then(|| reference_point(population.iter().map(|&id| arena.objectives(id))));
        let mut generation = 0u64;
        let mut ranked = Ranked::new(population, &arena);
        let view = ranked.view(generation, sampled, &arena);
        emit_generation_event(&view, &ranked.population, &arena, hits, misses, hv_ref);
        let mut stopped = observer(view) == SearchControl::Stop;

        while !stopped && sampled < cfg.max_trials {
            // Offspring generation.
            let n_children = cfg.population_size.min(cfg.max_trials - sampled).max(1);
            let mut children: Vec<u32> = Vec::with_capacity(n_children);
            while children.len() < n_children {
                let a = arena.genome(ranked.population[tournament(&ranked, &mut rng)]);
                let b = arena.genome(ranked.population[tournament(&ranked, &mut rng)]);
                let (mut c1, mut c2) = if rng.gen::<f64>() < cfg.crossover_prob {
                    uniform_crossover(a, b, &mut rng)
                } else {
                    (a.to_vec(), b.to_vec())
                };
                mutate(&mut c1, &dims, mutation_prob, &mut rng);
                mutate(&mut c2, &dims, mutation_prob, &mut rng);
                children.push(arena.intern(c1).0);
                if children.len() < n_children {
                    children.push(arena.intern(c2).0);
                }
            }
            sampled += children.len();
            let (hits, misses) = evaluate_batch(problem, &children, &mut arena, &mut history);
            cache_hits += hits;
            cache_misses += misses;

            // Environmental selection over parents + children. Ids are
            // unique per genome, so `dedup` drops exactly the adjacent
            // repeated genomes.
            let mut combined = ranked.population;
            combined.extend(children);
            combined.dedup();
            let (matrix, violations) = arena.gather(&combined);
            let points = Objectives::new(&matrix, arena.n_obj);
            let sort_span = telemetry::span(Stage::SearchSort);
            let fronts = constrained_non_dominated_sort(points, &violations);
            let survivors = select_next_population(&combined, points, &fronts, cfg.population_size);
            drop(sort_span);
            generation += 1;
            ranked = Ranked::new(survivors, &arena);
            let view = ranked.view(generation, sampled, &arena);
            emit_generation_event(&view, &ranked.population, &arena, hits, misses, hv_ref);
            stopped = observer(view) == SearchControl::Stop;
        }

        let mut result = OptimizationResult::from_history(history, sampled, arena.len());
        result.cache_hits = cache_hits;
        result.cache_misses = cache_misses;
        result
    }
}

/// Every unique genome a search has sampled, once, under a dense `u32` id
/// in first-seen order. Each id owns one row of four flat row-major
/// tables: its genes, its objectives, its per-constraint violations and
/// its total violation. Ids from `total_violation.len()` on are interned
/// but not yet evaluated.
#[derive(Default)]
struct Arena {
    /// Genome → id; hashed once per sampled genome.
    // mgopt-lint: allow(determinism) — keyed entry lookups only, never iterated
    memo: HashMap<Genome, u32>,
    n_genes: usize,
    genes: Vec<u16>,
    n_obj: usize,
    objectives: Vec<f64>,
    n_con: usize,
    violations: Vec<f64>,
    total_violation: Vec<f64>,
}

impl Arena {
    fn new(problem: &dyn Problem) -> Self {
        Self {
            n_genes: problem.dims().len(),
            n_obj: problem.n_objectives(),
            n_con: problem.n_constraints(),
            ..Self::default()
        }
    }

    /// Number of interned genomes.
    fn len(&self) -> usize {
        self.memo.len()
    }

    /// The id of `genome` and whether it was interned before. A new genome
    /// takes the next id and waits for [`Arena::evaluate_pending`].
    fn intern(&mut self, genome: Genome) -> (u32, bool) {
        let next = u32::try_from(self.len()).expect("fewer than 2^32 genomes");
        match self.memo.entry(genome) {
            Entry::Occupied(e) => (*e.get(), true),
            Entry::Vacant(e) => {
                self.genes.extend_from_slice(e.key());
                e.insert(next);
                (next, false)
            }
        }
    }

    /// Number of interned genomes awaiting evaluation.
    fn pending(&self) -> usize {
        self.len() - self.total_violation.len()
    }

    /// Evaluate every pending genome in one batched pass, in id
    /// (first-seen) order. The problem is called even when none is
    /// pending, so it sees one batch per sampled cohort.
    ///
    /// # Panics
    /// Panics when an evaluation's objective or violation count differs
    /// from the problem's [`Problem::n_objectives`] or
    /// [`Problem::n_constraints`].
    fn evaluate_pending(&mut self, problem: &dyn Problem) {
        let pending: Vec<Genome> = (self.total_violation.len()..self.len())
            .map(|id| self.genome(id as u32).to_vec())
            .collect();
        for e in problem.evaluate_batch_constrained(&pending) {
            assert_eq!(e.objectives.len(), self.n_obj, "objective count");
            assert_eq!(e.violations.len(), self.n_con, "violation count");
            self.objectives.extend_from_slice(&e.objectives);
            self.violations.extend_from_slice(&e.violations);
            self.total_violation.push(e.total_violation());
        }
    }

    fn genome(&self, id: u32) -> &[u16] {
        row(&self.genes, self.n_genes, id)
    }

    fn objectives(&self, id: u32) -> &[f64] {
        row(&self.objectives, self.n_obj, id)
    }

    fn evaluation(&self, id: u32) -> Evaluation {
        Evaluation {
            objectives: self.objectives(id).to_vec(),
            violations: row(&self.violations, self.n_con, id).to_vec(),
        }
    }

    /// The objective rows (one row-major matrix) and total violations of
    /// `ids`, in order.
    fn gather(&self, ids: &[u32]) -> (Vec<f64>, Vec<f64>) {
        let mut matrix = Vec::with_capacity(ids.len() * self.n_obj);
        for &id in ids {
            matrix.extend_from_slice(self.objectives(id));
        }
        let violations = ids
            .iter()
            .map(|&id| self.total_violation[id as usize])
            .collect();
        (matrix, violations)
    }
}

/// Row `id` of a row-major `table` whose rows hold `width` values.
fn row<T>(table: &[T], width: usize, id: u32) -> &[T] {
    let start = id as usize * width;
    &table[start..start + width]
}

/// A population sorted once under constraint-dominance. That one sort
/// feeds every consumer of a generation: the next generation's
/// tournament (rank and crowding), the observer's [`GenerationView`] and
/// the `generation` trace event.
struct Ranked {
    /// Member ids, in population order.
    population: Vec<u32>,
    fronts: Vec<Vec<usize>>,
    /// Front index per member.
    rank: Vec<usize>,
    /// Crowding distance per member, within its front.
    crowd: Vec<f64>,
}

impl Ranked {
    fn new(population: Vec<u32>, arena: &Arena) -> Self {
        let (matrix, violations) = arena.gather(&population);
        let points = Objectives::new(&matrix, arena.n_obj);
        let _span = telemetry::span(Stage::SearchSort);
        let fronts = constrained_non_dominated_sort(points, &violations);
        let mut rank = vec![0usize; population.len()];
        let mut crowd = vec![0.0f64; population.len()];
        for (r, front) in fronts.iter().enumerate() {
            for (&i, d) in front.iter().zip(crowding_distance(points, front)) {
                rank[i] = r;
                crowd[i] = d;
            }
        }
        Self {
            population,
            fronts,
            rank,
            crowd,
        }
    }

    /// The observer's snapshot: the first front, deduplicated by genome.
    fn view(&self, generation: u64, sampled: usize, arena: &Arena) -> GenerationView {
        let mut ids: Vec<u32> = Vec::new();
        if let Some(first) = self.fronts.first() {
            for &i in first {
                let id = self.population[i];
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
        let front = ids
            .into_iter()
            .map(|id| (arena.genome(id).to_vec(), arena.evaluation(id)))
            .collect();
        GenerationView {
            generation,
            sampled,
            front,
        }
    }
}

/// The 2-D hypervolume reference point for `objectives` (a run's initial
/// population): 10% beyond the worst value per objective (sign-safe)
/// plus an absolute epsilon, so boundary points still contribute area.
fn reference_point<'a>(objectives: impl Iterator<Item = &'a [f64]>) -> [f64; 2] {
    let mut worst = [f64::NEG_INFINITY; 2];
    for o in objectives {
        worst[0] = worst[0].max(o[0]);
        worst[1] = worst[1].max(o[1]);
    }
    worst.map(|w| w + 0.1 * w.abs() + 1e-9)
}

/// Emit one per-generation trace event; a cheap no-op when telemetry is
/// off. `front` counts the observer's view (the unique first front);
/// `hv` and `best_obj{k}` cover that front's feasible members and are
/// left out when none is feasible, so an infeasible plan never sets them.
fn emit_generation_event(
    view: &GenerationView,
    population: &[u32],
    arena: &Arena,
    hits: usize,
    misses: usize,
    hv_ref: Option<[f64; 2]>,
) {
    if !telemetry::enabled() {
        return;
    }
    let feasible = population
        .iter()
        .filter(|&&id| arena.total_violation[id as usize] <= 0.0)
        .count();
    let front: Vec<&[f64]> = view
        .front
        .iter()
        .filter(|(_, e)| e.total_violation() <= 0.0)
        .map(|(_, e)| e.objectives.as_slice())
        .collect();
    let mut event = telemetry::Event::new("generation")
        .u64("gen", view.generation)
        .u64("cohort", population.len() as u64)
        .u64("cache_hits", hits as u64)
        .u64("cache_misses", misses as u64)
        .u64("feasible", feasible as u64)
        .u64("front", view.front.len() as u64);
    if let Some(first) = front.first() {
        if let Some(reference) = hv_ref {
            event = event.f64("hv", hypervolume_2d(&front, &reference));
        }
        for k in 0..first.len() {
            let best = front.iter().map(|o| o[k]).fold(f64::INFINITY, f64::min);
            event = event.f64(&format!("best_obj{k}"), best);
        }
    }
    event.emit();
}

/// Evaluate the arena's pending genomes (one batched pass) and extend the
/// history with one trial per *sampled* id in `batch` (duplicates repeat
/// their memoized evaluation, matching how Optuna counts trials). Returns
/// this batch's `(cache_hits, cache_misses)` — hits count genomes answered
/// from the memo or deduplicated within the batch.
fn evaluate_batch(
    problem: &dyn Problem,
    batch: &[u32],
    arena: &mut Arena,
    history: &mut Vec<Trial>,
) -> (usize, usize) {
    let misses = arena.pending();
    let hits = batch.len() - misses;
    telemetry::add(Counter::CacheHits, hits as u64);
    telemetry::add(Counter::CacheMisses, misses as u64);
    arena.evaluate_pending(problem);
    history.extend(
        batch
            .iter()
            .map(|&id| Trial::from_evaluation(arena.genome(id).to_vec(), arena.evaluation(id))),
    );
    (hits, misses)
}

fn random_genome(dims: &[usize], rng: &mut ChaCha12Rng) -> Genome {
    dims.iter().map(|&d| rng.gen_range(0..d) as u16).collect()
}

/// Binary tournament on (rank asc, crowding desc).
fn tournament(ranked: &Ranked, rng: &mut ChaCha12Rng) -> usize {
    let (rank, crowd) = (&ranked.rank, &ranked.crowd);
    let i = rng.gen_range(0..ranked.population.len());
    let j = rng.gen_range(0..ranked.population.len());
    if rank[i] < rank[j] || (rank[i] == rank[j] && crowd[i] > crowd[j]) {
        i
    } else {
        j
    }
}

fn uniform_crossover(a: &[u16], b: &[u16], rng: &mut ChaCha12Rng) -> (Genome, Genome) {
    let mut c1 = a.to_vec();
    let mut c2 = b.to_vec();
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

/// NSGA-II environmental selection over a cohort of ids: fill by fronts,
/// break the last front by crowding distance. `points` and `fronts` index
/// the cohort.
fn select_next_population(
    cohort: &[u32],
    points: Objectives<'_>,
    fronts: &[Vec<usize>],
    target: usize,
) -> Vec<u32> {
    let mut next: Vec<u32> = Vec::with_capacity(target);
    for front in fronts {
        if next.len() >= target {
            break;
        }
        if next.len() + front.len() <= target {
            next.extend(front.iter().map(|&i| cohort[i]));
        } else {
            let d = crowding_distance(points, front);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| crowding_order(d[a], d[b]));
            let room = target - next.len();
            next.extend(order.iter().take(room).map(|&k| cohort[front[k]]));
            break;
        }
    }
    // Degenerate case: fewer unique genomes than the target — pad by
    // repeating front members (keeps invariants simple).
    let mut k = 0;
    while next.len() < target && !next.is_empty() {
        next.push(next[k % next.len()]);
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
    let mut indices: Vec<usize> = (0..space).collect();
    if space > n {
        indices.shuffle(rng);
        indices.truncate(n);
    }
    indices
        .into_iter()
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
    fn truncating_a_front_with_an_infinite_objective_does_not_panic() {
        // The infinite objective spans the front infinitely, so the
        // interior member's crowding distance is `inf / inf`: NaN.
        let obj = [0.0, 3.0, 1.0, 2.0, f64::INFINITY, 1.0];
        let points = Objectives::new(&obj, 2);
        assert!(crowding_distance(points, &[0, 1, 2])[1].is_nan());
        let fronts = constrained_non_dominated_sort(points, &[0.0; 3]);
        assert_eq!(fronts, vec![vec![0, 1, 2]]);
        let next = select_next_population(&[10, 11, 12], points, &fronts, 2);
        // The NaN distance ranks after both boundary members.
        assert_eq!(next, vec![10, 12]);
    }

    #[test]
    fn a_nan_objective_does_not_panic_the_search() {
        // Crowding sorts each objective with NaN after every number, so a
        // genome whose objective is NaN ranks and survives like any other.
        let problem = FnProblem::new(vec![10, 10], 2, |g| {
            if g[0] == 3 {
                vec![f64::NAN, 1.0]
            } else {
                vec![g[0] as f64, 9.0 - g[0] as f64 + g[1] as f64]
            }
        });
        let result = Nsga2Optimizer::new(Nsga2Config {
            population_size: 20,
            max_trials: 200,
            seed: 1,
            ..Nsga2Config::default()
        })
        .run_controlled(&problem, &mut |_| SearchControl::Continue);
        assert_eq!(result.sampled_trials, 200);
        assert!(result.history.iter().any(|t| t.objectives[0].is_nan()));
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
        .run_controlled(&problem, &mut |_| SearchControl::Continue);

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
        .run_controlled(&problem, &mut |_| SearchControl::Continue);

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
            .run_controlled(&p, &mut |_| SearchControl::Continue)
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
        .run_controlled(&problem, &mut |_| SearchControl::Continue);
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
            .run_controlled(&problem, &mut |_| SearchControl::Continue)
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
        .run_controlled(&problem, &mut |_| SearchControl::Continue);
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
        .run_controlled(&problem, &mut |_| SearchControl::Continue);
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
        .run_controlled(&problem, &mut |_| SearchControl::Continue);
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
        let observed = opt.run_controlled(&problem, &mut |v| {
            views.push(v);
            SearchControl::Continue
        });
        let plain = opt.run_controlled(&problem, &mut |_| SearchControl::Continue);
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
    fn generation_events_describe_the_feasible_unique_front() {
        use crate::pareto::dominates;
        use mgopt_telemetry::{parse::parse_line, MemorySink};

        // Low penalty genes (g1 < 4) are infeasible, so infeasible genomes
        // dominate the feasible ones with the same g0.
        let problem = FnProblem::new(vec![21, 8], 2, |g| {
            let x = g[0] as f64 / 20.0;
            let penalty = g[1] as f64 * 0.05;
            vec![x + penalty, 1.0 - x + penalty]
        })
        .with_constraints(1, |g| vec![(4.0 - g[1] as f64).max(0.0)]);
        // Telemetry is process-wide and other tests may emit while this one
        // traces; no other test in this crate runs a population of 12.
        const POPULATION: usize = 12;
        let opt = Nsga2Optimizer::new(Nsga2Config {
            population_size: POPULATION,
            max_trials: 120,
            seed: 3,
            ..Nsga2Config::default()
        });
        let (sink, lines) = MemorySink::new();
        telemetry::install_sink(Box::new(sink));
        telemetry::set_enabled(true);
        let mut views: Vec<GenerationView> = Vec::new();
        let result = opt.run_controlled(&problem, &mut |v| {
            views.push(v);
            SearchControl::Continue
        });
        telemetry::set_enabled(false);
        telemetry::take_sink();

        let initial = result.history[..POPULATION].iter();
        let reference = reference_point(initial.map(|t| t.objectives.as_slice()));

        let lines = lines.lock().unwrap_or_else(|e| e.into_inner());
        let events: Vec<_> = lines
            .iter()
            .map(|l| parse_line(l).expect("well-formed event"))
            .filter(|e| e.kind == "generation" && e.uint("cohort") == Some(POPULATION as u64))
            .collect();
        assert_eq!(events.len(), views.len());
        for (e, v) in events.iter().zip(&views) {
            assert_eq!(e.uint("gen"), Some(v.generation));
            assert_eq!(e.uint("front"), Some(v.front.len() as u64));
            let feasible: Vec<Vec<f64>> = v
                .front
                .iter()
                .filter(|(_, ev)| ev.is_feasible())
                .map(|(_, ev)| ev.objectives.clone())
                .collect();
            let hv = e.num("hv").map(f64::to_bits);
            if feasible.is_empty() {
                assert_eq!(
                    hv, None,
                    "gen {}: hv without a feasible front",
                    v.generation
                );
                assert_eq!(e.num("best_obj0"), None);
            } else {
                assert_eq!(
                    hv,
                    Some(hypervolume_2d(&feasible, &reference).to_bits()),
                    "gen {}",
                    v.generation
                );
                for k in 0..2 {
                    let best = feasible.iter().map(|o| o[k]).fold(f64::INFINITY, f64::min);
                    assert_eq!(e.num(&format!("best_obj{k}")), Some(best));
                }
            }
        }
        // The search met infeasible genomes that dominate its final front,
        // so a population-wide `hv` would have counted them.
        let last = &views.last().expect("at least one view").front;
        assert!(result.history.iter().any(|t| !t.is_feasible()
            && last
                .iter()
                .any(|(_, ev)| dominates(&t.objectives, &ev.objectives))));
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
        let full = opt.run_controlled(&problem, &mut |_| SearchControl::Continue);

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
