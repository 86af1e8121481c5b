//! The composition space as an optimizer [`Problem`].
//!
//! Scalar evaluations go through the reference [`simulate_year`] path;
//! cohort evaluations override [`Problem::evaluate_batch`] /
//! [`MultiFidelityProblem::evaluate_batch_at_fidelity`] with the columnar
//! [`BatchEvaluator`], so NSGA-II generations, exhaustive sweeps, random
//! cohorts and successive-halving rungs are each a single time-major pass
//! over the site data.
//!
//! [`FleetProblem`] is the multi-site analogue: the genome assigns one
//! composition *index* per fleet member, cohorts route through one
//! [`FleetEvaluator`] pass answered from the members' per-site result
//! tables, and an optional cap on the fleet's peak concurrent grid
//! import becomes a first-class constraint handled by NSGA-II's
//! constraint-dominance.

use mgopt_microgrid::{
    simulate_period, simulate_year, BatchBackend, BatchEvaluator, Composition, CompositionSpace,
    Evaluator, FleetEvaluator,
};
use mgopt_optimizer::{Evaluation, Genome, MultiFidelityProblem, Problem};

use crate::fleet::PreparedFleet;
use crate::objectives::ObjectiveSet;
use crate::scenario::PreparedScenario;

/// Adapts a prepared scenario to the optimizer's problem interface.
///
/// Genome layout: `[wind index, solar index, battery index]` into the
/// scenario's [`CompositionSpace`] choice lists.
pub struct CompositionProblem<'a> {
    scenario: &'a PreparedScenario,
    objectives: ObjectiveSet,
    dims: Vec<usize>,
}

impl<'a> CompositionProblem<'a> {
    /// Create a problem over the scenario's space and objective set.
    pub fn new(scenario: &'a PreparedScenario, objectives: ObjectiveSet) -> Self {
        let space = &scenario.config.space;
        let dims = vec![
            space.wind_choices.len(),
            space.solar_choices_kw.len(),
            space.battery_choices_kwh.len(),
        ];
        assert!(!objectives.is_empty(), "at least one objective required");
        Self {
            scenario,
            objectives,
            dims,
        }
    }

    /// The composition encoded by a genome.
    pub fn composition(&self, genome: &[u16]) -> Composition {
        let space = &self.scenario.config.space;
        Composition::new(
            space.wind_choices[genome[0] as usize],
            space.solar_choices_kw[genome[1] as usize],
            space.battery_choices_kwh[genome[2] as usize],
        )
    }

    /// Genome encoding a composition (must lie on the grid).
    pub fn genome_of(&self, c: &Composition) -> Option<Vec<u16>> {
        let space = &self.scenario.config.space;
        let w = space
            .wind_choices
            .iter()
            .position(|&x| x == c.wind_turbines)?;
        let s = space
            .solar_choices_kw
            .iter()
            .position(|&x| (x - c.solar_kw).abs() < 1e-9)?;
        let b = space
            .battery_choices_kwh
            .iter()
            .position(|&x| (x - c.battery_kwh).abs() < 1e-9)?;
        Some(vec![w as u16, s as u16, b as u16])
    }

    /// The underlying space.
    pub fn space(&self) -> &CompositionSpace {
        &self.scenario.config.space
    }

    /// The objective set.
    pub fn objective_set(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// The batched engine over this scenario's prepared inputs.
    pub fn evaluator(&self) -> BatchEvaluator<'_> {
        BatchEvaluator::new(
            &self.scenario.data,
            &self.scenario.load,
            &self.scenario.config.sim,
        )
    }

    /// The number of simulated steps for a fidelity in `(0, 1]`.
    fn steps_for_fidelity(&self, fidelity: f64) -> usize {
        ((self.scenario.data.len() as f64 * fidelity).round() as usize)
            .clamp(1, self.scenario.data.len())
    }
}

impl Problem for CompositionProblem<'_> {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn n_objectives(&self) -> usize {
        self.objectives.len()
    }

    fn evaluate(&self, genome: &[u16]) -> Vec<f64> {
        let comp = self.composition(genome);
        let result = simulate_year(
            &self.scenario.data,
            &self.scenario.load,
            &comp,
            &self.scenario.config.sim,
        );
        self.objectives.extract(&result)
    }

    fn evaluate_batch(&self, genomes: &[Genome]) -> Vec<Vec<f64>> {
        let comps: Vec<Composition> = genomes.iter().map(|g| self.composition(g)).collect();
        self.evaluator()
            .evaluate_batch(&comps)
            .iter()
            .map(|r| self.objectives.extract(r))
            .collect()
    }
}

impl MultiFidelityProblem for CompositionProblem<'_> {
    /// Low fidelity = simulate only the first `fidelity` fraction of the
    /// year. Rates are period-normalized, so low-fidelity objectives are
    /// noisy (seasonal bias) but unbiased enough for pruning.
    fn evaluate_at_fidelity(&self, genome: &[u16], fidelity: f64) -> Vec<f64> {
        let comp = self.composition(genome);
        let result = simulate_period(
            &self.scenario.data,
            &self.scenario.load,
            &comp,
            &self.scenario.config.sim,
            self.steps_for_fidelity(fidelity),
        );
        self.objectives.extract(&result)
    }

    fn evaluate_batch_at_fidelity(&self, genomes: &[Genome], fidelity: f64) -> Vec<Vec<f64>> {
        let comps: Vec<Composition> = genomes.iter().map(|g| self.composition(g)).collect();
        self.evaluator()
            .evaluate_batch_period(&comps, self.steps_for_fidelity(fidelity))
            .iter()
            .map(|r| self.objectives.extract(r))
            .collect()
    }
}

/// A whole fleet plan as an optimizer [`Problem`]: one dimension per fleet
/// member, each gene the flat index into that member's
/// [`CompositionSpace`] — NSGA-II searches the cross-product plan space
/// directly instead of one site at a time.
///
/// Objectives are fixed to the paper pair lifted to the fleet account:
/// `[fleet operational tCO2/day, total embodied tCO2]`. An optional
/// [peak concurrent grid-import cap](Self::with_peak_cap_kw) adds one
/// constraint whose violation is the exceedance in kW; samplers handle it
/// via constraint-dominance, so every feasible plan outranks every
/// cap-breaking one.
///
/// Cohorts evaluate in **one fleet pass** per generation, and single
/// genomes as a cohort of one: [`FleetEvaluator::evaluate_tabled`] over
/// each member's per-site result table (see [`PreparedScenario`]). The
/// tables are shared with every earlier cohort, of this study or of any
/// other study on the same prepared members.
///
/// * **Uncapped**, only (site, composition) pairs no earlier cohort has
///   walked are walked, each once, and every plan is summed from the
///   tables. So a warm daemon answers most cohorts with few or no walks.
/// * **Capped**, a plan whose pairs are all in the tables and whose
///   per-site peak imports sum to at most the cap is answered from them,
///   feasible. Every other plan walks all of its sites step-aligned, for
///   its concurrent peak, and fills the tables.
///
/// Objectives and violations equal a plan walk's bit for bit.
pub struct FleetProblem<'a> {
    fleet: &'a PreparedFleet,
    dims: Vec<usize>,
    peak_cap_kw: Option<f64>,
    backend: BatchBackend,
}

impl<'a> FleetProblem<'a> {
    /// Number of fleet objectives (operational tCO2/day, embodied tCO2).
    pub const N_OBJECTIVES: usize = 2;

    /// Create a problem over a prepared fleet's member spaces.
    ///
    /// # Panics
    /// Panics when a member's composition space is empty or larger than a
    /// `u16` gene can index.
    pub fn new(fleet: &'a PreparedFleet) -> Self {
        let dims: Vec<usize> = fleet
            .members
            .iter()
            .zip(&fleet.names)
            .map(|(m, name)| {
                let n = m.config.space.len();
                assert!(n >= 1, "member {name}: empty composition space");
                assert!(
                    n <= u16::MAX as usize + 1,
                    "member {name}: {n} compositions exceed the u16 genome"
                );
                n
            })
            .collect();
        Self {
            fleet,
            dims,
            peak_cap_kw: None,
            backend: BatchBackend::default(),
        }
    }

    /// Set the fleet engine's lane width (default: 4 lanes). Both widths
    /// are pinned bit-identical, so search trajectories do not depend on
    /// the choice; benches use this for like-for-like A/B timing.
    pub fn with_backend(mut self, backend: BatchBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Constrain the fleet's peak *concurrent* grid import to `cap_kw`.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite cap.
    pub fn with_peak_cap_kw(mut self, cap_kw: f64) -> Self {
        assert!(
            cap_kw.is_finite() && cap_kw > 0.0,
            "peak import cap must be positive and finite"
        );
        self.peak_cap_kw = Some(cap_kw);
        self
    }

    /// The configured peak-import cap, kW, if any.
    pub fn peak_cap_kw(&self) -> Option<f64> {
        self.peak_cap_kw
    }

    /// The underlying prepared fleet.
    pub fn fleet(&self) -> &PreparedFleet {
        self.fleet
    }

    /// The fleet plan a genome encodes (one composition per site).
    pub fn plan(&self, genome: &[u16]) -> Vec<Composition> {
        assert_eq!(genome.len(), self.dims.len());
        genome
            .iter()
            .zip(&self.fleet.members)
            .map(|(&g, m)| m.config.space.at(g as usize))
            .collect()
    }

    /// Genome encoding a plan (every composition must lie on its member's
    /// grid).
    pub fn genome_of_plan(&self, plan: &[Composition]) -> Option<Genome> {
        if plan.len() != self.fleet.members.len() {
            return None;
        }
        plan.iter()
            .zip(&self.fleet.members)
            .map(|(c, m)| m.config.space.index_of(c).map(|i| i as u16))
            .collect()
    }

    /// The fleet engine over the fleet's prepared inputs — peak tracking
    /// only when the cap needs it.
    pub fn evaluator(&self) -> FleetEvaluator<'_> {
        self.fleet
            .evaluator()
            .with_peak_tracking(self.peak_cap_kw.is_some())
            .with_backend(self.backend)
    }

    fn evaluate_plans(&self, genomes: &[Genome]) -> Vec<Evaluation> {
        let tables: Vec<_> = self
            .fleet
            .members
            .iter()
            .map(|m| (&m.config.space, m.site_table_or_init()))
            .collect();
        self.evaluator()
            .evaluate_tabled(genomes, &tables, self.peak_cap_kw)
            .into_iter()
            .map(|(r, violation)| Evaluation {
                objectives: vec![r.fleet.operational_t_per_day, r.fleet.embodied_t],
                violations: violation.into_iter().collect(),
            })
            .collect()
    }
}

impl Problem for FleetProblem<'_> {
    fn dims(&self) -> &[usize] {
        &self.dims
    }

    fn n_objectives(&self) -> usize {
        Self::N_OBJECTIVES
    }

    fn n_constraints(&self) -> usize {
        usize::from(self.peak_cap_kw.is_some())
    }

    fn evaluate(&self, genome: &[u16]) -> Vec<f64> {
        self.evaluate_constrained(genome).objectives
    }

    fn evaluate_constrained(&self, genome: &[u16]) -> Evaluation {
        self.evaluate_plans(&[genome.to_vec()])
            .pop()
            .expect("one genome in, one evaluation out")
    }

    fn evaluate_batch(&self, genomes: &[Genome]) -> Vec<Vec<f64>> {
        self.evaluate_plans(genomes)
            .into_iter()
            .map(|e| e.objectives)
            .collect()
    }

    fn evaluate_batch_constrained(&self, genomes: &[Genome]) -> Vec<Evaluation> {
        self.evaluate_plans(genomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use mgopt_microgrid::CompositionSpace;

    fn scenario() -> PreparedScenario {
        ScenarioConfig {
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
        .prepare()
    }

    #[test]
    fn dims_match_space() {
        let s = scenario();
        let p = CompositionProblem::new(&s, ObjectiveSet::paper());
        assert_eq!(p.dims(), &[3, 3, 3]);
        assert_eq!(p.space_size(), 27);
        assert_eq!(p.n_objectives(), 2);
    }

    #[test]
    fn genome_composition_round_trip() {
        let s = scenario();
        let p = CompositionProblem::new(&s, ObjectiveSet::paper());
        for i in 0..p.space_size() {
            let g = p.genome_at(i);
            let c = p.composition(&g);
            assert_eq!(p.genome_of(&c), Some(g));
        }
    }

    #[test]
    fn evaluation_matches_direct_simulation() {
        let s = scenario();
        let p = CompositionProblem::new(&s, ObjectiveSet::paper());
        let genome = vec![1u16, 1, 1];
        let comp = p.composition(&genome);
        let direct = simulate_year(&s.data, &s.load, &comp, &s.config.sim);
        assert_eq!(p.evaluate(&genome), ObjectiveSet::paper().extract(&direct));
    }

    #[test]
    fn baseline_genome_has_zero_embodied() {
        let s = scenario();
        let p = CompositionProblem::new(&s, ObjectiveSet::paper());
        let obj = p.evaluate(&[0, 0, 0]);
        assert_eq!(obj[1], 0.0, "embodied of baseline");
        assert!(obj[0] > 10.0, "houston baseline emissions");
    }

    mod fleet {
        use super::*;
        use crate::fleet::FleetScenario;

        fn tiny_fleet() -> crate::fleet::PreparedFleet {
            let mut f = FleetScenario::paper();
            for m in &mut f.members {
                m.scenario.space = CompositionSpace::tiny();
            }
            f.prepare()
        }

        #[test]
        fn dims_are_member_space_sizes() {
            let fleet = tiny_fleet();
            let p = FleetProblem::new(&fleet);
            assert_eq!(p.dims(), &[27, 27]);
            assert_eq!(p.space_size(), 27 * 27);
            assert_eq!(p.n_objectives(), 2);
            assert_eq!(p.n_constraints(), 0);
        }

        #[test]
        fn genome_plan_round_trip() {
            let fleet = tiny_fleet();
            let p = FleetProblem::new(&fleet);
            for i in [0usize, 1, 26, 27, 300, 728] {
                let g = p.genome_at(i);
                let plan = p.plan(&g);
                assert_eq!(p.genome_of_plan(&plan), Some(g));
            }
            // Off-grid plans have no genome.
            let odd = vec![Composition::new(1, 1.0, 0.0); 2];
            assert_eq!(p.genome_of_plan(&odd), None);
        }

        #[test]
        fn scalar_and_batch_agree_with_fleet_engine() {
            let fleet = tiny_fleet();
            let p = FleetProblem::new(&fleet);
            let genomes = vec![vec![0u16, 0], vec![5, 20], vec![26, 26]];
            let batch = p.evaluate_batch(&genomes);
            for (g, obj) in genomes.iter().zip(&batch) {
                assert_eq!(&p.evaluate(g), obj, "genome {g:?}");
                let direct = fleet.evaluator().evaluate(&p.plan(g));
                assert_eq!(obj[0], direct.fleet.operational_t_per_day);
                assert_eq!(obj[1], direct.fleet.embodied_t);
            }
        }

        #[test]
        fn peak_cap_becomes_a_constraint_violation() {
            let fleet = tiny_fleet();
            let genome = vec![0u16, 0]; // all-baseline plan: pure grid import
            let unconstrained = FleetProblem::new(&fleet);
            assert!(unconstrained.evaluate_constrained(&genome).is_feasible());

            let direct = fleet.evaluator().evaluate(&unconstrained.plan(&genome));
            let peak = direct.fleet.peak_concurrent_import_kw.unwrap();

            // A cap below the baseline peak: violated by the exceedance.
            let tight = FleetProblem::new(&fleet).with_peak_cap_kw(peak * 0.5);
            assert_eq!(tight.n_constraints(), 1);
            let e = tight.evaluate_constrained(&genome);
            assert!(!e.is_feasible());
            assert!((e.total_violation() - peak * 0.5).abs() < 1e-9);
            // Objectives unchanged by the constraint.
            assert_eq!(e.objectives, unconstrained.evaluate(&genome));
            // Batch path reports the same violation.
            let batch = tight.evaluate_batch_constrained(std::slice::from_ref(&genome));
            assert_eq!(batch[0], e);

            // A generous cap: satisfied.
            let loose = FleetProblem::new(&fleet).with_peak_cap_kw(peak * 2.0);
            assert!(loose.evaluate_constrained(&genome).is_feasible());
        }

        #[test]
        #[should_panic(expected = "must be positive")]
        fn non_positive_cap_panics() {
            let fleet = tiny_fleet();
            let _ = FleetProblem::new(&fleet).with_peak_cap_kw(0.0);
        }
    }
}
