//! The exhaustive sweep: every composition in the space — the ground truth
//! the paper's §4.4 compares NSGA-II against, and the data source for
//! Figure 2 and Tables 1/2.
//!
//! Since the batched engine landed this is a thin wrapper: one columnar
//! [`BatchEvaluator`] pass over the space (time-major, chunk-parallel)
//! instead of one scalar year-simulation per composition.

use mgopt_microgrid::{
    AnnualResult, BatchBackend, BatchEvaluator, Composition, Evaluator, ScalarEvaluator,
};

use crate::scenario::PreparedScenario;

/// Simulate every composition of the scenario's space with the batched
/// columnar engine.
///
/// Results are returned in the space's flat index order.
pub fn sweep_all(scenario: &PreparedScenario) -> Vec<AnnualResult> {
    sweep_all_with_backend(scenario, BatchBackend::default())
}

/// [`sweep_all`] at an explicit lane width — the benchmark bins'
/// like-for-like 4-lane vs 1-lane A/B (the widths are bit-identical, so
/// the choice only changes speed).
pub fn sweep_all_with_backend(
    scenario: &PreparedScenario,
    backend: BatchBackend,
) -> Vec<AnnualResult> {
    let comps: Vec<Composition> = scenario.config.space.iter().collect();
    BatchEvaluator::new(&scenario.data, &scenario.load, &scenario.config.sim)
        .with_backend(backend)
        .evaluate_batch(&comps)
}

/// The same sweep through the scalar reference engine (one simulation per
/// composition, rayon-parallel). Kept for cross-checks and benchmarks.
pub fn sweep_all_scalar(scenario: &PreparedScenario) -> Vec<AnnualResult> {
    let comps: Vec<Composition> = scenario.config.space.iter().collect();
    ScalarEvaluator {
        data: &scenario.data,
        load: &scenario.load,
        cfg: &scenario.config.sim,
    }
    .evaluate_batch(&comps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use mgopt_microgrid::CompositionSpace;

    #[test]
    fn sweep_covers_space_in_order() {
        let scenario = ScenarioConfig {
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_berkeley()
        }
        .prepare();
        let results = sweep_all(&scenario);
        assert_eq!(results.len(), 27);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.composition, scenario.config.space.at(i));
        }
        // Baseline first, max build-out last.
        assert_eq!(results[0].metrics.embodied_t, 0.0);
        assert!(results[26].metrics.embodied_t > 30_000.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let scenario = ScenarioConfig {
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
        .prepare();
        let a = sweep_all(&scenario);
        let b = sweep_all(&scenario);
        assert_eq!(a, b);
    }

    #[test]
    fn batched_sweep_matches_scalar_reference() {
        let scenario = ScenarioConfig {
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
        .prepare();
        let batched = sweep_all(&scenario);
        let scalar = sweep_all_scalar(&scenario);
        assert_eq!(batched.len(), scalar.len());
        for (b, s) in batched.iter().zip(&scalar) {
            assert_eq!(b.composition, s.composition);
            // One shared, symmetric tolerance definition across every
            // engine-agreement check (mgopt_units::rel_error), over every
            // metrics field rather than a hand-picked subset.
            let (err, field) = b.metrics.max_rel_error(&s.metrics);
            assert!(err <= 1e-9, "{}: {field} rel err {err:e}", b.composition);
        }
    }
}
