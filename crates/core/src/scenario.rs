//! Scenario configuration — the Hydra-YAML equivalent.
//!
//! A [`ScenarioConfig`] is a plain serde value (JSON in this workspace)
//! that fully determines an experiment: site, simulation step, seeds,
//! workload, search space, and simulation parameters. `prepare()` turns it
//! into the heavyweight [`PreparedScenario`] (synthesized weather, unit
//! generation profiles, CI/price signals, load trace) shared by all trials.

use std::sync::OnceLock;

use mgopt_microgrid::{CompositionSpace, SimConfig, Site, SiteData, SiteTable};
use mgopt_units::{SimDuration, TimeSeries};
use mgopt_workload::{constant_load, diurnal_web_load, HpcWorkload, HpcWorkloadParams};
use serde::{Deserialize, Serialize};

/// Built-in sites (the paper's two case studies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SitePreset {
    /// Berkeley, CA (CAISO).
    Berkeley,
    /// Houston, TX (ERCOT).
    Houston,
}

impl SitePreset {
    /// Materialize the site definition.
    pub fn site(self) -> Site {
        match self {
            SitePreset::Berkeley => Site::berkeley(),
            SitePreset::Houston => Site::houston(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SitePreset::Berkeley => "Berkeley, CA",
            SitePreset::Houston => "Houston, TX",
        }
    }
}

/// Workload families.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadConfig {
    /// Synthetic Perlmutter-class HPC trace (the paper's workload).
    PerlmutterLike {
        /// Exact mean power, kW.
        mean_kw: f64,
    },
    /// Perfectly flat load.
    Constant {
        /// Power, kW.
        kw: f64,
    },
    /// Interactive/web diurnal load.
    Web {
        /// Exact mean power, kW.
        mean_kw: f64,
    },
}

impl WorkloadConfig {
    /// Generate the year-long power trace.
    pub fn generate(&self, step: SimDuration, seed: u64) -> TimeSeries {
        match *self {
            WorkloadConfig::PerlmutterLike { mean_kw } => {
                let params = HpcWorkloadParams {
                    mean_power_kw: mean_kw,
                    peak_power_kw: (mean_kw * 1.6).max(mean_kw + 1.0),
                    ..HpcWorkloadParams::default()
                };
                HpcWorkload::new(params, seed).generate(step)
            }
            WorkloadConfig::Constant { kw } => constant_load(step, kw),
            WorkloadConfig::Web { mean_kw } => diurnal_web_load(step, mean_kw, seed),
        }
    }
}

/// A fully specified experiment scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// The site.
    pub site: SitePreset,
    /// Simulation step in minutes (the paper runs minutely; 60 is the
    /// default here and reproduces the same annual statistics).
    pub step_minutes: u32,
    /// Master seed for every stochastic substrate.
    pub seed: u64,
    /// Workload family.
    pub workload: WorkloadConfig,
    /// Search space.
    pub space: CompositionSpace,
    /// Simulation parameters (battery model, policy, embodied factors).
    pub sim: SimConfig,
}

impl ScenarioConfig {
    /// The paper's Houston scenario.
    pub fn paper_houston() -> Self {
        Self {
            site: SitePreset::Houston,
            step_minutes: 60,
            seed: 42,
            workload: WorkloadConfig::PerlmutterLike { mean_kw: 1_620.0 },
            space: CompositionSpace::paper(),
            sim: SimConfig::default(),
        }
    }

    /// The paper's Berkeley scenario.
    pub fn paper_berkeley() -> Self {
        Self {
            site: SitePreset::Berkeley,
            ..Self::paper_houston()
        }
    }

    /// Simulation step as a duration.
    pub fn step(&self) -> SimDuration {
        SimDuration::from_minutes(self.step_minutes as f64)
    }

    /// Synthesize all inputs (expensive; do once, share across trials).
    pub fn prepare(&self) -> PreparedScenario {
        let step = self.step();
        let data = self.site.site().prepare(step, self.seed);
        let load = self.workload.generate(step, self.seed);
        PreparedScenario {
            config: self.clone(),
            data,
            load,
            table: OnceLock::new(),
        }
    }
}

/// A scenario with all inputs synthesized.
///
/// ## Per-site result table
///
/// A member's full-horizon metrics depend only on these inputs and the
/// composition, so uncapped fleet searches
/// ([`FleetProblem`](crate::FleetProblem)) remember them here: a
/// [`SiteTable`] with one slot per index of `config.space`, each walked
/// at most once. Every study over this scenario shares it — through the
/// daemon's [`PreparedCache`](crate::PreparedCache) entry, every study on
/// that member. The table is allocated on the first uncapped
/// evaluation; capped searches and every other engine never touch it.
///
/// * **Clones start empty.** A clone is a new scenario that may be
///   edited, so it never inherits results. Edit a clone, never a
///   scenario an uncapped search has already evaluated.
/// * **Memory bound.** 136 bytes per composition: a paper member's
///   1,089 entries take about 145 KiB, and the largest space a fleet
///   genome can index (65,536 entries) at most 8.5 MiB.
#[derive(Debug)]
pub struct PreparedScenario {
    /// The originating configuration.
    pub config: ScenarioConfig,
    /// Site data (weather, unit profiles, CI, prices).
    pub data: SiteData,
    /// The data-center load trace, kW.
    pub load: TimeSeries,
    table: OnceLock<SiteTable>,
}

impl Clone for PreparedScenario {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            data: self.data.clone(),
            load: self.load.clone(),
            table: OnceLock::new(),
        }
    }
}

impl PreparedScenario {
    /// Site display name.
    pub fn site_name(&self) -> &str {
        &self.data.site.name
    }

    /// The per-site result table, once an uncapped fleet evaluation has
    /// allocated it.
    pub fn site_table(&self) -> Option<&SiteTable> {
        self.table.get()
    }

    /// The per-site result table, allocated (empty) on first use.
    pub(crate) fn site_table_or_init(&self) -> &SiteTable {
        self.table
            .get_or_init(|| SiteTable::new(self.config.space.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenarios_differ_only_in_site() {
        let h = ScenarioConfig::paper_houston();
        let b = ScenarioConfig::paper_berkeley();
        assert_eq!(h.seed, b.seed);
        assert_eq!(h.space, b.space);
        assert_ne!(h.site, b.site);
    }

    #[test]
    fn serde_round_trip() {
        let cfg = ScenarioConfig::paper_houston();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        assert!(json.contains("Houston"));
    }

    #[test]
    fn prepare_produces_consistent_shapes() {
        let cfg = ScenarioConfig {
            step_minutes: 60,
            ..ScenarioConfig::paper_berkeley()
        };
        let prepared = cfg.prepare();
        assert_eq!(prepared.load.len(), prepared.data.len());
        assert_eq!(prepared.load.step(), prepared.data.step());
        assert_eq!(prepared.site_name(), "Berkeley, CA");
    }

    #[test]
    fn workload_families_generate() {
        let step = SimDuration::from_hours(1.0);
        let hpc = WorkloadConfig::PerlmutterLike { mean_kw: 1_620.0 }.generate(step, 1);
        assert!((hpc.mean() - 1_620.0).abs() < 1e-6);
        let flat = WorkloadConfig::Constant { kw: 500.0 }.generate(step, 1);
        assert_eq!(flat.std(), 0.0);
        let web = WorkloadConfig::Web { mean_kw: 800.0 }.generate(step, 1);
        assert!((web.mean() - 800.0).abs() < 1e-6);
        assert!(web.std() > 0.0);
    }

    #[test]
    fn clones_start_with_an_empty_table() {
        let prepared = ScenarioConfig {
            space: CompositionSpace::tiny(),
            ..ScenarioConfig::paper_houston()
        }
        .prepare();
        assert!(prepared.site_table().is_none(), "allocated lazily");
        assert_eq!(prepared.site_table_or_init().len(), 27);
        assert!(prepared.clone().site_table().is_none());
    }

    #[test]
    fn preparation_deterministic() {
        let cfg = ScenarioConfig::paper_houston();
        let a = cfg.prepare();
        let b = cfg.prepare();
        assert_eq!(a.load, b.load);
        assert_eq!(a.data.ci_g_per_kwh, b.data.ci_g_per_kwh);
    }
}
