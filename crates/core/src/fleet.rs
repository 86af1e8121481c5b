//! Multi-site fleet scenarios and sweeps — the geo-distributed analogue of
//! [`sweep_all`](crate::sweep_all).
//!
//! A [`FleetScenario`] names several [`ScenarioConfig`]s and prepares them
//! into one [`PreparedFleet`] whose member sites share a simulation clock.
//! [`fleet_sweep`] then scores a cohort of **fleet plans** (one composition
//! per site) through the [`FleetEvaluator`], which runs the batch chunk
//! walk per site in step blocks, producing per-site results
//! bit-identical to single-site sweeps plus fleet aggregates (fleet
//! tCO2/day, peak concurrent grid import) that only a step-aligned walk
//! can report.
//!
//! ## Search layers
//!
//! [`fleet_sweep`] is the *exhaustive* layer (ground truth; exponential in
//! the number of sites under [`FleetAssignment::CrossProduct`]). For
//! searching the cross-product plan space directly, wrap the prepared
//! fleet in a [`FleetProblem`](crate::problem::FleetProblem): one genome
//! dimension per member, NSGA-II / random / exhaustive samplers all route
//! their cohorts through the same fleet engine (answered from each
//! member's per-site result table as far as it can), and a peak
//! concurrent-import cap becomes a first-class constraint
//! (`examples/fleet_search.rs` walks the whole stack).

use std::sync::Arc;

use mgopt_microgrid::{Composition, FleetEvaluator, FleetResult, FleetSite, PeakMemo};
use serde::{Deserialize, Serialize};

use crate::cache::{scenario_cache_key, PreparedCache};
use crate::scenario::{prepare_group, seed_groups, PreparedScenario, ScenarioConfig};

/// One named member of a fleet scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMember {
    /// Display name ("houston").
    pub name: String,
    /// The member's full scenario configuration.
    pub scenario: ScenarioConfig,
}

/// A serializable multi-site scenario: several sites, one fleet account.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetScenario {
    /// Member sites in evaluation order.
    pub members: Vec<FleetMember>,
}

impl FleetScenario {
    /// The paper's two case-study sites as one fleet (Houston + Berkeley,
    /// identical workload statistics, shared seed).
    pub fn paper() -> Self {
        Self {
            members: vec![
                FleetMember {
                    name: "houston".into(),
                    scenario: ScenarioConfig::paper_houston(),
                },
                FleetMember {
                    name: "berkeley".into(),
                    scenario: ScenarioConfig::paper_berkeley(),
                },
            ],
        }
    }

    /// Synthesize every member's inputs (expensive; do once).
    ///
    /// Members that share a seed are prepared in one pass
    /// ([`Site::prepare_group`](mgopt_microgrid::Site::prepare_group)):
    /// every weather and carbon-intensity stream is seeded by the seed
    /// alone, so the pass makes each random draw once and applies it to
    /// every member. Members that also share a workload share one
    /// generated load, each getting a copy. Every member is bit-identical
    /// to its own [`ScenarioConfig::prepare`].
    ///
    /// # Panics
    /// Panics when members disagree on the simulation step — the fleet
    /// advances on a single clock.
    pub fn prepare(&self) -> PreparedFleet {
        self.check_shared_clock();
        let configs: Vec<&ScenarioConfig> = self.members.iter().map(|m| &m.scenario).collect();
        let mut members: Vec<Option<Arc<PreparedScenario>>> = vec![None; configs.len()];
        for group in seed_groups(&configs) {
            let group_configs: Vec<&ScenarioConfig> = group.iter().map(|&i| configs[i]).collect();
            for (i, prepared) in group.into_iter().zip(prepare_group(&group_configs)) {
                members[i] = Some(Arc::new(prepared));
            }
        }
        let members = members
            .into_iter()
            .map(|m| m.expect("every member is in one group"))
            .collect();
        PreparedFleet::new(self.names(), members)
    }

    /// Like [`prepare`](Self::prepare), but member scenarios come from (and
    /// land in) a shared [`PreparedCache`] — repeated studies over the same
    /// sites skip synthesis entirely — and so does the fleet's plan-peak
    /// memo, keyed by the members' scenarios in order. Returns the fleet
    /// plus the per-member cache [`PrepStats`] for this call.
    ///
    /// Every member's cache slot is looked up first, and a slot inserted
    /// for each one missing; only then are the members this call inserted
    /// prepared, those sharing a seed in one pass as in
    /// [`prepare`](Self::prepare). So the cache evicts its victims before
    /// any preparation allocates (see the [`PreparedCache`] docs).
    ///
    /// # Panics
    /// Panics exactly when [`prepare`](Self::prepare) would (empty fleet,
    /// step mismatch).
    pub fn prepare_shared(&self, cache: &PreparedCache) -> (PreparedFleet, PrepStats) {
        self.check_shared_clock();
        let keys: Vec<String> = self
            .members
            .iter()
            .map(|m| scenario_cache_key(&m.scenario))
            .collect();
        let configs: Vec<&ScenarioConfig> = self.members.iter().map(|m| &m.scenario).collect();
        let mut stats = PrepStats::default();
        let members = cache
            .get_or_prepare_all(&keys, &configs)
            .into_iter()
            .map(|(prepared, hit)| {
                if hit {
                    stats.hits += 1;
                } else {
                    stats.misses += 1;
                }
                prepared
            })
            .collect();
        let fleet = PreparedFleet {
            names: self.names(),
            members,
            peaks: cache.peak_memo(keys),
        };
        (fleet, stats)
    }

    fn names(&self) -> Vec<String> {
        self.members.iter().map(|m| m.name.clone()).collect()
    }

    fn check_shared_clock(&self) {
        assert!(!self.members.is_empty(), "fleet scenario has no members");
        let step = self.members[0].scenario.step_minutes;
        for m in &self.members {
            assert_eq!(
                m.scenario.step_minutes, step,
                "member {}: step mismatch",
                m.name
            );
        }
    }
}

/// Prepared-cache outcome of one [`FleetScenario::prepare_shared`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepStats {
    /// Members served from the cache.
    pub hits: u32,
    /// Members synthesized from scratch.
    pub misses: u32,
}

/// A fleet scenario with all member inputs synthesized.
///
/// Members are [`Arc`]-shared: cloning a `PreparedFleet` (or building
/// several fleets from one [`PreparedCache`]) shares the heavyweight site
/// arrays instead of copying them, and evaluation only ever takes `&self`,
/// so any number of concurrent studies can run over one prepared fleet.
///
/// ## Plan-peak memo
///
/// Capped fleet searches ([`FleetProblem`](crate::FleetProblem) with a
/// peak cap) store the peak concurrent grid import of every plan they
/// walk in the fleet's [`PeakMemo`], and answer a later capped plan from
/// it and the members' per-site tables, under any cap. A plan's peak
/// depends only on the members' prepared inputs, in order, and the plan.
///
/// * **Who shares it.** [`new`](Self::new) and
///   [`FleetScenario::prepare`] start an empty memo; clones share it, as
///   they share the members; [`FleetScenario::prepare_shared`] hands
///   every fleet with the same member scenarios, in order, the memo the
///   [`PreparedCache`] keeps for them.
/// * **Edit a new fleet.** The memo cannot see `members`: never replace
///   or reorder the members of a fleet a capped search has evaluated.
///   Build another with [`new`](Self::new).
/// * **Memory bound.** The memo allocates on its first stored peak and
///   holds at most [`PEAK_MEMO_CAPACITY`](mgopt_microgrid::PEAK_MEMO_CAPACITY)
///   peaks, about 1.06 MiB; plans beyond that walk every time.
#[derive(Debug, Clone)]
pub struct PreparedFleet {
    /// Member names, in evaluation order.
    pub names: Vec<String>,
    /// Prepared member scenarios, in evaluation order (shared, read-only).
    pub members: Vec<Arc<PreparedScenario>>,
    peaks: Arc<PeakMemo>,
}

impl PreparedFleet {
    /// A fleet of prepared members, in evaluation order, with an empty
    /// plan-peak memo.
    pub fn new(names: Vec<String>, members: Vec<Arc<PreparedScenario>>) -> Self {
        Self {
            names,
            members,
            peaks: Arc::default(),
        }
    }

    /// The fleet's plan-peak memo.
    pub(crate) fn peak_memo(&self) -> &PeakMemo {
        &self.peaks
    }

    /// Number of member sites.
    pub fn n_sites(&self) -> usize {
        self.members.len()
    }

    /// The multi-site engine over this fleet's inputs.
    pub fn evaluator(&self) -> FleetEvaluator<'_> {
        FleetEvaluator::new(
            self.names
                .iter()
                .zip(&self.members)
                .map(|(name, m)| FleetSite {
                    name,
                    data: &m.data,
                    load: &m.load,
                    cfg: &m.config.sim,
                })
                .collect(),
        )
    }
}

/// How fleet plans are drawn from the members' composition spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetAssignment {
    /// Every site gets the *same* composition, iterating one shared space
    /// (all members must agree on it): `space.len()` plans. The fleet
    /// analogue of the paper's single-site sweep.
    Uniform,
    /// Every combination of per-site compositions (cross product of member
    /// spaces): `∏ space.len()` plans. Exhaustive but exponential in the
    /// number of sites — use reduced or
    /// [`dense`](mgopt_microgrid::CompositionSpace::dense)-stepped spaces.
    CrossProduct,
}

/// Materialize the plan cohort for an assignment mode.
///
/// # Panics
/// Panics for [`FleetAssignment::Uniform`] when members disagree on the
/// composition space.
pub fn fleet_plans(fleet: &PreparedFleet, assignment: FleetAssignment) -> Vec<Vec<Composition>> {
    let n_sites = fleet.n_sites();
    match assignment {
        FleetAssignment::Uniform => {
            let space = &fleet.members[0].config.space;
            for (name, m) in fleet.names.iter().zip(&fleet.members) {
                assert_eq!(
                    &m.config.space, space,
                    "member {name}: uniform assignment needs one shared space"
                );
            }
            space.iter().map(|c| vec![c; n_sites]).collect()
        }
        FleetAssignment::CrossProduct => {
            let mut plans: Vec<Vec<Composition>> = vec![Vec::new()];
            for m in &fleet.members {
                let mut next = Vec::with_capacity(plans.len() * m.config.space.len());
                for plan in &plans {
                    for c in m.config.space.iter() {
                        let mut p = plan.clone();
                        p.push(c);
                        next.push(p);
                    }
                }
                plans = next;
            }
            plans
        }
    }
}

/// Evaluate every plan of the assignment through the fleet engine's
/// plan walk. Results are returned in plan order (for
/// [`FleetAssignment::Uniform`], the shared space's index order).
pub fn fleet_sweep(fleet: &PreparedFleet, assignment: FleetAssignment) -> Vec<FleetResult> {
    let plans = fleet_plans(fleet, assignment);
    fleet.evaluator().evaluate_plans(&plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_all;
    use mgopt_microgrid::CompositionSpace;

    fn tiny_fleet() -> FleetScenario {
        let mut f = FleetScenario::paper();
        for m in &mut f.members {
            m.scenario.space = CompositionSpace::tiny();
        }
        f
    }

    /// Compile-time pin of the daemon's re-entrancy contract: prepared
    /// sites and fleets must be shareable across study worker threads.
    #[test]
    fn prepared_types_are_send_and_sync() {
        fn sharable<T: Send + Sync>() {}
        sharable::<PreparedScenario>();
        sharable::<Arc<PreparedScenario>>();
        sharable::<PreparedFleet>();
        sharable::<crate::cache::PreparedCache>();
    }

    #[test]
    fn uniform_sweep_matches_single_site_sweeps() {
        let fleet = tiny_fleet().prepare();
        let results = fleet_sweep(&fleet, FleetAssignment::Uniform);
        assert_eq!(results.len(), 27);
        for (s, member) in fleet.members.iter().enumerate() {
            let single = sweep_all(member);
            for (r, x) in results.iter().zip(&single) {
                assert_eq!(
                    r.per_site[s].metrics, x.metrics,
                    "site {} diverges from sweep_all",
                    fleet.names[s]
                );
            }
        }
    }

    #[test]
    fn cross_product_covers_all_combinations() {
        let mut f = tiny_fleet();
        // Shrink further: 2 points per site -> 4 plans.
        for m in &mut f.members {
            m.scenario.space = CompositionSpace {
                wind_choices: vec![0, 4],
                solar_choices_kw: vec![0.0],
                battery_choices_kwh: vec![0.0],
            };
        }
        let fleet = f.prepare();
        let plans = fleet_plans(&fleet, FleetAssignment::CrossProduct);
        assert_eq!(plans.len(), 4);
        // Member 0 is the outer dimension.
        assert_eq!(plans[0][0].wind_turbines, 0);
        assert_eq!(plans[0][1].wind_turbines, 0);
        assert_eq!(plans[1][1].wind_turbines, 4);
        assert_eq!(plans[2][0].wind_turbines, 4);
        let results = fleet_sweep(&fleet, FleetAssignment::CrossProduct);
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn paper_fleet_prepares_with_shared_clock() {
        let fleet = tiny_fleet().prepare();
        assert_eq!(fleet.n_sites(), 2);
        assert_eq!(fleet.names, vec!["houston", "berkeley"]);
        let ev = fleet.evaluator();
        assert_eq!(ev.n_sites(), 2);
        assert_eq!(ev.len(), 8_760);
    }

    #[test]
    fn serde_round_trip() {
        let f = FleetScenario::paper();
        let json = serde_json::to_string(&f).unwrap();
        let back: FleetScenario = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
        assert!(json.contains("houston"));
    }

    #[test]
    #[should_panic(expected = "no members")]
    fn empty_fleet_scenario_panics() {
        FleetScenario { members: vec![] }.prepare();
    }
}
