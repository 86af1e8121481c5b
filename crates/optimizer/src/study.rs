//! The Optuna-style `Study` front end.
//!
//! A [`Study`] owns a sampler and exposes `optimize(problem)`, returning an
//! [`OptimizationResult`] with the full trial history, the Pareto front,
//! and bookkeeping for the paper's §4.4 search-performance comparison
//! (sampled vs unique trials, wall time).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::exhaustive::exhaustive_search;
use crate::nsga2::{Nsga2Config, Nsga2Optimizer, SearchControl};
use crate::pareto::non_dominated_trials;
use crate::problem::{Problem, Trial};
use crate::random_search::random_search;

/// The sampling strategy of a study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Sampler {
    /// NSGA-II genetic sampling (the paper's configuration).
    Nsga2(Nsga2Config),
    /// Uniform random sampling without replacement.
    Random {
        /// Number of trials.
        n_trials: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Full enumeration of the space.
    Exhaustive,
}

/// The outcome of an optimization run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizationResult {
    /// Every sampled trial in order (duplicates included, like Optuna).
    pub history: Vec<Trial>,
    /// Number of sampled trials (duplicates included).
    pub sampled_trials: usize,
    /// Number of unique objective evaluations actually computed.
    pub unique_evaluations: usize,
    /// Wall-clock duration of the run in seconds (0 until run via `Study`).
    pub wall_seconds: f64,
    /// Sampled genomes answered from the NSGA-II memo cache (duplicates
    /// within and across generations). Zero for cacheless samplers.
    /// Defaulted so artifacts written before this field existed still load.
    #[serde(default)]
    pub cache_hits: usize,
    /// Sampled genomes that required a fresh objective evaluation. Zero
    /// for cacheless samplers (which report via `unique_evaluations`).
    #[serde(default)]
    pub cache_misses: usize,
}

impl OptimizationResult {
    /// Assemble a result from a trial history.
    pub fn from_history(history: Vec<Trial>, sampled: usize, unique: usize) -> Self {
        Self {
            history,
            sampled_trials: sampled,
            unique_evaluations: unique,
            wall_seconds: 0.0,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Memo-cache hit rate over sampled genomes, in `[0, 1]`. `None` when
    /// the sampler recorded no cache activity (random / exhaustive runs).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// The non-dominated trials of the history (deduplicated by genome).
    pub fn pareto_front(&self) -> Vec<Trial> {
        non_dominated_trials(&self.history)
    }
}

/// An optimization study (Optuna parity: a sampler plus bookkeeping).
#[derive(Debug, Clone)]
pub struct Study {
    sampler: Sampler,
}

impl Study {
    /// Create a study with the given sampler.
    pub fn new(sampler: Sampler) -> Self {
        Self { sampler }
    }

    /// The sampler in use.
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Run the study against a problem, timing the wall clock.
    pub fn optimize(&self, problem: &dyn Problem) -> OptimizationResult {
        // mgopt-lint: allow(determinism) — wall_seconds is a reporting artifact; fronts never depend on it
        let start = Instant::now();
        let mut result = match &self.sampler {
            Sampler::Nsga2(cfg) => Nsga2Optimizer::new(cfg.clone())
                .run_controlled(problem, &mut |_| SearchControl::Continue),
            Sampler::Random { n_trials, seed } => random_search(problem, *n_trials, *seed),
            Sampler::Exhaustive => exhaustive_search(problem),
        };
        result.wall_seconds = start.elapsed().as_secs_f64();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnProblem;

    fn problem() -> FnProblem<impl Fn(&[u16]) -> Vec<f64> + Sync> {
        FnProblem::new(vec![11, 9], 2, |g| {
            vec![g[0] as f64, (10 - g[0]) as f64 + g[1] as f64]
        })
    }

    #[test]
    fn exhaustive_study_finds_complete_front() {
        let result = Study::new(Sampler::Exhaustive).optimize(&problem());
        assert_eq!(result.sampled_trials, 99);
        let front = result.pareto_front();
        // Front: all g0 with g1 = 0 -> 11 points.
        assert_eq!(front.len(), 11);
        assert!(result.wall_seconds >= 0.0);
    }

    #[test]
    fn nsga2_study_runs_with_paper_settings() {
        // The config default is the paper's budget: population 50, 350
        // trials.
        let result = Study::new(Sampler::Nsga2(Nsga2Config {
            seed: 1,
            ..Nsga2Config::default()
        }))
        .optimize(&problem());
        assert_eq!(result.sampled_trials, 350);
        assert!(result.unique_evaluations <= 99, "space has 99 points");
        assert!(!result.pareto_front().is_empty());
    }

    #[test]
    fn random_study_samples() {
        let result = Study::new(Sampler::Random {
            n_trials: 40,
            seed: 5,
        })
        .optimize(&problem());
        assert_eq!(result.sampled_trials, 40);
        assert_eq!(result.unique_evaluations, 40);
    }

    #[test]
    fn pareto_front_trials_mutually_non_dominated() {
        let result = Study::new(Sampler::Nsga2(Nsga2Config {
            seed: 2,
            ..Nsga2Config::default()
        }))
        .optimize(&problem());
        let front = result.pareto_front();
        for a in &front {
            for b in &front {
                if a.genome != b.genome {
                    assert!(!crate::pareto::dominates(&a.objectives, &b.objectives));
                }
            }
        }
    }
}
