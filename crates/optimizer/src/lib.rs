#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # mgopt-optimizer
//!
//! Multi-objective black-box optimization — the workspace's substitute for
//! the Optuna framework (with its NSGA-II sampler) and the Hydra sweeper
//! the paper builds on.
//!
//! * [`problem`] — the discrete search-space / objective abstraction;
//! * [`pareto`] — dominance (plain and constrained), fast non-dominated
//!   sorting, crowding distance, 2-D hypervolume, IGD, and Pareto-recovery
//!   metrics;
//! * [`nsga2`] — the NSGA-II genetic sampler (Deb et al. 2002) with
//!   evaluation memoization, rayon-parallel trial evaluation and
//!   constraint-dominance for constrained problems;
//! * [`mod@random_search`] — the naive sampler baseline;
//! * [`exhaustive`] — full grid enumeration (the paper's ground-truth
//!   baseline over 1,089 compositions);
//! * [`extract`] — candidate-extraction strategies from §3.3: embodied-
//!   budget thresholds, k-means clustering, greedy diversity maximization;
//! * [`study`] — an Optuna-style `Study` front end tying it together.

pub mod exhaustive;
pub mod extract;
pub mod nsga2;
pub mod pareto;
pub mod problem;
pub mod pruning;
pub mod random_search;
pub mod study;

pub use exhaustive::exhaustive_search;
pub use nsga2::{GenerationView, Nsga2Config, Nsga2Optimizer, SearchControl};
pub use pareto::{
    constrained_dominates, constrained_non_dominated_sort, crowding_distance, dominates,
    fast_non_dominated_sort, non_dominated_indices, Objectives,
};
pub use problem::{Evaluation, FnProblem, Genome, Problem, Trial};
pub use pruning::{successive_halving, MultiFidelityProblem, SuccessiveHalvingConfig};
pub use random_search::random_search;
pub use study::{OptimizationResult, Sampler, Study};
