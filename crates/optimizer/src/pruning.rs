//! Multi-fidelity search with successive halving — the "dynamic pruning or
//! early stopping for non-promising simulation runs" the paper names as
//! future work (§4.4).
//!
//! The idea: most of a year-long co-simulation's cost is wasted on
//! configurations that a few simulated weeks already rule out. Successive
//! halving evaluates a large initial cohort at low fidelity (a fraction of
//! the year), keeps the most promising `1/eta` per rung (multi-objective:
//! by non-dominated rank, then crowding distance), and re-evaluates the
//! survivors at `eta×` higher fidelity until full-year fidelity is
//! reached. The cost bookkeeping is in *full-evaluation equivalents* so
//! speedups are comparable to trial counts.

use mgopt_telemetry as telemetry;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::nsga2::sample_unique_genomes;
use crate::pareto::{crowding_distance, crowding_order, fast_non_dominated_sort, Objectives};
use crate::problem::{Genome, Problem, Trial};
use crate::study::OptimizationResult;

/// A problem that can be evaluated at reduced fidelity.
///
/// `fidelity` is in `(0, 1]`; `1.0` must agree with [`Problem::evaluate`].
/// Lower fidelities may be noisy approximations (e.g. simulating only the
/// first fraction of the year).
pub trait MultiFidelityProblem: Problem {
    /// Evaluate a genome at the given fidelity.
    fn evaluate_at_fidelity(&self, genome: &[u16], fidelity: f64) -> Vec<f64>;

    /// Evaluate a whole rung cohort at one fidelity, in input order.
    ///
    /// The default evaluates scalars in parallel; batched-engine problems
    /// override this so every rung is a single columnar pass.
    fn evaluate_batch_at_fidelity(&self, genomes: &[Genome], fidelity: f64) -> Vec<Vec<f64>> {
        genomes
            .par_iter()
            .map(|g| self.evaluate_at_fidelity(g, fidelity))
            .collect()
    }
}

/// Successive-halving configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuccessiveHalvingConfig {
    /// Initial cohort size.
    pub initial_cohort: usize,
    /// Keep `1/eta` of the cohort per rung (eta ≥ 2).
    pub eta: usize,
    /// Fidelity of the first rung, `(0, 1]`.
    pub min_fidelity: f64,
    /// RNG seed for the initial cohort.
    pub seed: u64,
}

impl Default for SuccessiveHalvingConfig {
    fn default() -> Self {
        Self {
            initial_cohort: 128,
            eta: 2,
            min_fidelity: 1.0 / 8.0,
            seed: 0,
        }
    }
}

/// Outcome of a successive-halving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuccessiveHalvingResult {
    /// Full-fidelity survivors (the final rung), as trials.
    pub survivors: Vec<Trial>,
    /// All full-fidelity evaluations performed.
    pub full_fidelity_history: Vec<Trial>,
    /// Total cost in full-evaluation equivalents (Σ fidelity per eval).
    pub equivalent_full_evaluations: f64,
    /// Number of raw evaluations at any fidelity.
    pub raw_evaluations: usize,
    /// The rung fidelities visited, in order.
    pub rung_fidelities: Vec<f64>,
}

impl SuccessiveHalvingResult {
    /// Convert into a plain [`OptimizationResult`] over the full-fidelity
    /// history (for Pareto-front extraction and recovery metrics).
    pub fn as_optimization_result(&self) -> OptimizationResult {
        OptimizationResult::from_history(
            self.full_fidelity_history.clone(),
            self.raw_evaluations,
            self.full_fidelity_history.len(),
        )
    }
}

/// Rank a cohort's objective vectors: best-first by (front rank asc,
/// crowding desc).
fn rank_cohort(objectives: &[Vec<f64>]) -> Vec<usize> {
    let matrix = objectives.concat();
    let points = Objectives::new(&matrix, objectives.first().map_or(1, Vec::len));
    let fronts = fast_non_dominated_sort(points);
    let mut order: Vec<usize> = Vec::with_capacity(objectives.len());
    for front in &fronts {
        let d = crowding_distance(points, front);
        let mut members: Vec<(usize, f64)> = front.iter().copied().zip(d).collect();
        members.sort_by(|a, b| crowding_order(a.1, b.1));
        order.extend(members.into_iter().map(|(i, _)| i));
    }
    order
}

/// Run successive halving on a multi-fidelity problem.
///
/// Constrained problems are supported at the **final rung only**: the
/// full-fidelity cohort goes through
/// [`Problem::evaluate_batch_constrained`], so survivors are the feasible
/// front of the full-fidelity history. Reduced-fidelity pruning decisions
/// remain objective-only ([`MultiFidelityProblem`] defines no per-fidelity
/// constraint semantics), so a genome may survive rungs it would fail at
/// full fidelity — never the other way around.
pub fn successive_halving(
    problem: &dyn MultiFidelityProblem,
    config: &SuccessiveHalvingConfig,
) -> SuccessiveHalvingResult {
    assert!(config.eta >= 2, "eta must be at least 2");
    assert!(
        config.min_fidelity > 0.0 && config.min_fidelity <= 1.0,
        "min_fidelity in (0, 1]"
    );
    assert!(config.initial_cohort >= 1);

    // Keep this sampler's randomness independent of NSGA-II's at equal seeds.
    const SEED_MIX: u64 = 0x5417_a1f0;
    let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ SEED_MIX);
    let mut cohort: Vec<Genome> =
        sample_unique_genomes(problem.dims(), config.initial_cohort, &mut rng);

    let mut fidelity = config.min_fidelity;
    let mut cost = 0.0f64;
    let mut raw = 0usize;
    let mut rung_fidelities = Vec::new();
    let mut full_fidelity_history: Vec<Trial> = Vec::new();

    loop {
        if fidelity >= 1.0 - 1e-12 {
            // Final rung: evaluate through the constrained path so any
            // violations land on the trials — the (constraint-aware)
            // non-dominated set of the full-fidelity history is then the
            // *feasible* front for constrained problems.
            rung_fidelities.push(1.0);
            let evaluations = problem.evaluate_batch_constrained(&cohort);
            cost += cohort.len() as f64;
            raw += cohort.len();
            full_fidelity_history.extend(
                cohort
                    .iter()
                    .cloned()
                    .zip(evaluations)
                    .map(|(g, e)| Trial::from_evaluation(g, e)),
            );
            let survivors = crate::pareto::non_dominated_trials(&full_fidelity_history);
            telemetry::Event::new("rung")
                .u64("rung", rung_fidelities.len() as u64 - 1)
                .f64("fidelity", 1.0)
                .u64("cohort", cohort.len() as u64)
                .u64("kept", survivors.len() as u64)
                .emit();
            return SuccessiveHalvingResult {
                survivors,
                full_fidelity_history,
                equivalent_full_evaluations: cost,
                raw_evaluations: raw,
                rung_fidelities,
            };
        }

        rung_fidelities.push(fidelity);
        let objectives = problem.evaluate_batch_at_fidelity(&cohort, fidelity);
        cost += fidelity * cohort.len() as f64;
        raw += cohort.len();
        let order = rank_cohort(&objectives);

        // Keep the best 1/eta (at least enough to stay meaningful).
        let keep = (cohort.len() / config.eta).max(1);
        telemetry::Event::new("rung")
            .u64("rung", rung_fidelities.len() as u64 - 1)
            .f64("fidelity", fidelity)
            .u64("cohort", cohort.len() as u64)
            .u64("kept", keep as u64)
            .emit();
        cohort = order
            .into_iter()
            .take(keep)
            .map(|i| cohort[i].clone())
            .collect();
        fidelity = (fidelity * config.eta as f64).min(1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;

    /// Wraps an FnProblem with a fidelity-noise model: low fidelity adds a
    /// deterministic pseudo-noise that vanishes at fidelity 1.
    struct NoisyProblem<F: Fn(&[u16]) -> Vec<f64> + Sync> {
        inner: FnProblem<F>,
    }

    impl<F: Fn(&[u16]) -> Vec<f64> + Sync> Problem for NoisyProblem<F> {
        fn dims(&self) -> &[usize] {
            self.inner.dims()
        }
        fn n_objectives(&self) -> usize {
            self.inner.n_objectives()
        }
        fn evaluate(&self, genome: &[u16]) -> Vec<f64> {
            self.inner.evaluate(genome)
        }
        fn n_constraints(&self) -> usize {
            self.inner.n_constraints()
        }
        fn evaluate_constrained(&self, genome: &[u16]) -> crate::problem::Evaluation {
            self.inner.evaluate_constrained(genome)
        }
    }

    impl<F: Fn(&[u16]) -> Vec<f64> + Sync> MultiFidelityProblem for NoisyProblem<F> {
        fn evaluate_at_fidelity(&self, genome: &[u16], fidelity: f64) -> Vec<f64> {
            let mut obj = self.inner.evaluate(genome);
            let noise = (1.0 - fidelity)
                * 0.3
                * ((genome.iter().map(|&g| g as u64).sum::<u64>() * 2_654_435_761 % 97) as f64
                    / 97.0
                    - 0.5);
            for o in obj.iter_mut() {
                *o *= 1.0 + noise;
            }
            obj
        }
    }

    fn problem() -> NoisyProblem<impl Fn(&[u16]) -> Vec<f64> + Sync> {
        NoisyProblem {
            inner: FnProblem::new(vec![16, 16], 2, |g| {
                let x = g[0] as f64 / 15.0;
                let penalty = g[1] as f64 * 0.08;
                vec![x + penalty, 1.0 - x + penalty]
            }),
        }
    }

    #[test]
    fn ranking_a_front_with_an_infinite_objective_does_not_panic() {
        // One front whose interior member has a NaN crowding distance:
        // both boundary members rank before it.
        let obj = vec![vec![0.0, 3.0], vec![1.0, 2.0], vec![f64::INFINITY, 1.0]];
        assert_eq!(rank_cohort(&obj), vec![0, 2, 1]);
    }

    #[test]
    fn halving_reduces_cost_below_exhaustive() {
        let p = problem();
        let result = successive_halving(
            &p,
            &SuccessiveHalvingConfig {
                initial_cohort: 128,
                eta: 2,
                min_fidelity: 0.125,
                seed: 1,
            },
        );
        // Cohorts: 128@.125 + 64@.25 + 32@.5 + 16@1.0 = 16+16+16+16 = 64 eq.
        assert!(
            result.equivalent_full_evaluations < 0.5 * 256.0,
            "cost {} should be well below the 256-point space",
            result.equivalent_full_evaluations
        );
        assert_eq!(result.rung_fidelities, vec![0.125, 0.25, 0.5, 1.0]);
        assert!(!result.survivors.is_empty());
    }

    #[test]
    fn survivors_are_non_dominated_at_full_fidelity() {
        let p = problem();
        let result = successive_halving(&p, &SuccessiveHalvingConfig::default());
        for a in &result.survivors {
            for b in &result.survivors {
                if a.genome != b.genome {
                    assert!(!crate::pareto::dominates(&a.objectives, &b.objectives));
                }
            }
        }
        // Survivor objectives equal true full-fidelity objectives.
        for t in &result.survivors {
            assert_eq!(t.objectives, p.evaluate(&t.genome));
        }
    }

    #[test]
    fn finds_good_genomes_despite_low_fidelity_noise() {
        let p = problem();
        let result = successive_halving(
            &p,
            &SuccessiveHalvingConfig {
                initial_cohort: 200,
                eta: 2,
                min_fidelity: 0.25,
                seed: 3,
            },
        );
        // The true front lives at g1 = 0; most survivors should have g1 <= 2.
        let clean = result.survivors.iter().filter(|t| t.genome[1] <= 2).count();
        assert!(
            clean * 2 >= result.survivors.len(),
            "only {clean}/{} survivors near the true front",
            result.survivors.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = problem();
        let cfg = SuccessiveHalvingConfig {
            seed: 9,
            ..SuccessiveHalvingConfig::default()
        };
        let a = successive_halving(&p, &cfg);
        let b = successive_halving(&p, &cfg);
        assert_eq!(a.survivors, b.survivors);
        assert_eq!(a.equivalent_full_evaluations, b.equivalent_full_evaluations);
    }

    #[test]
    fn full_fidelity_start_is_single_rung() {
        let p = problem();
        let result = successive_halving(
            &p,
            &SuccessiveHalvingConfig {
                initial_cohort: 32,
                eta: 2,
                min_fidelity: 1.0,
                seed: 2,
            },
        );
        assert_eq!(result.rung_fidelities, vec![1.0]);
        assert_eq!(result.raw_evaluations, 32);
        assert!((result.equivalent_full_evaluations - 32.0).abs() < 1e-12);
    }

    #[test]
    fn constrained_survivors_are_feasible() {
        // Constraint: g0 <= 7. Low-fidelity rungs prune on objectives
        // alone, but the final rung records violations, so no
        // cap-breaking genome may reach the survivor front while any
        // feasible genome was evaluated at full fidelity.
        let p = NoisyProblem {
            inner: FnProblem::new(vec![16, 16], 2, |g| {
                let x = g[0] as f64 / 15.0;
                let penalty = g[1] as f64 * 0.08;
                vec![x + penalty, 1.0 - x + penalty]
            })
            .with_constraints(1, |g| vec![(g[0] as f64 - 7.0).max(0.0)]),
        };
        let result = successive_halving(
            &p,
            &SuccessiveHalvingConfig {
                initial_cohort: 128,
                eta: 2,
                min_fidelity: 0.25,
                seed: 4,
            },
        );
        assert!(result
            .full_fidelity_history
            .iter()
            .any(|t| t.genome[0] <= 7));
        assert!(!result.survivors.is_empty());
        for t in &result.survivors {
            assert!(t.is_feasible(), "cap-breaking survivor: {t:?}");
            assert!(t.genome[0] <= 7);
        }
    }

    #[test]
    #[should_panic(expected = "eta must be at least 2")]
    fn eta_one_panics() {
        successive_halving(
            &problem(),
            &SuccessiveHalvingConfig {
                eta: 1,
                ..SuccessiveHalvingConfig::default()
            },
        );
    }
}
