//! Experiment harness: one module per group of tables/figures from the paper.
//!
//! Almost every simulated figure is a [`Grid`] of [`CellSpec`]s: unprotected
//! baselines and protected runs over workloads, configurations and an outer
//! axis of thresholds or attack studies. A figure builds its grid, runs
//! [`Grid::cells`] through a [`CellBackend`], and folds the results, one
//! slice per (outer point, configuration), into its figure/table data
//! structure. The mixed-intensity
//! multicore study needs one *alone* run per core rather than one baseline
//! per workload, so it keeps its own
//! [`MixedMulticorePlan`](multicore::MixedMulticorePlan).
//!
//! Execution sits behind the [`CellBackend`] seam: the plain
//! [`ParallelExecutor`] fans the cells out and runs all of them, while the
//! experiment service (crate `comet-service`) memoizes each cell in a
//! content-addressed cache so repeat and overlapping sweeps only simulate
//! novel cells. Both backends serve every experiment unchanged.

pub mod adversarial;
pub mod cells;
pub mod comparison;
pub mod fpr;
pub mod multicore;
pub mod parallel;
pub mod ranks;
pub mod singlecore;
pub mod sweeps;

pub use adversarial::{attack_grid, fig16_adversarial, AdversarialResult};
pub use cells::{CellBackend, CellSpec, WorkloadSpec};
pub use comparison::{fig12_fig14_comparison, radar_fig4, ComparisonResult, RadarPoint};
pub use fpr::{fig17_false_positive_rate, FprPoint};
pub use multicore::{fig13_fig15_multicore, mixed_multicore, MixedMulticoreResult, MulticoreResult};
pub use parallel::ParallelExecutor;
pub use ranks::{rank_sweep, RankPoint, RankSweepResult};
pub use singlecore::{fig10_fig11_singlecore, SingleCoreResult};
pub use sweeps::{fig6_ct_sweep, fig7_rat_sweep, fig8_eprt_sweep, fig9_k_sweep, SweepPoint};

use crate::metrics::RunResult;
use crate::runner::MechanismKind;
use serde::Serialize;

/// Scope of an experiment run: which workloads and how much simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExperimentScope {
    /// Tiny runs for CI / unit tests (a handful of workloads, sub-millisecond windows).
    Smoke,
    /// The default: a stratified workload subset and a scaled tracker window.
    Quick,
    /// Every workload of Table 3 with the full 64 ms refresh window.
    Full,
}

impl ExperimentScope {
    /// The scope named `smoke`, `quick` or `full`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(ExperimentScope::Smoke),
            "quick" => Some(ExperimentScope::Quick),
            "full" => Some(ExperimentScope::Full),
            _ => None,
        }
    }

    /// The single-core workload names this scope simulates.
    pub fn workloads(&self) -> Vec<String> {
        match self {
            ExperimentScope::Smoke => vec![
                "bfs_ny".to_string(),
                "429.mcf".to_string(),
                "462.libquantum".to_string(),
                "473.astar".to_string(),
                "541.leela".to_string(),
            ],
            ExperimentScope::Quick => {
                comet_trace::catalog::representative_subset().iter().map(|w| w.name.clone()).collect()
            }
            ExperimentScope::Full => {
                comet_trace::catalog::all_workloads().iter().map(|w| w.name.clone()).collect()
            }
        }
    }

    /// The RowHammer thresholds swept by this scope.
    pub fn thresholds(&self) -> Vec<u64> {
        match self {
            ExperimentScope::Smoke => vec![1000, 125],
            _ => vec![1000, 500, 250, 125],
        }
    }

    /// The simulation configuration for this scope.
    pub fn sim_config(&self) -> crate::SimConfig {
        match self {
            ExperimentScope::Smoke => crate::SimConfig::quick_test(),
            ExperimentScope::Quick => crate::SimConfig::quick(8),
            ExperimentScope::Full => crate::SimConfig::paper_full(),
        }
    }

    /// Number of 8-core mixes evaluated by this scope.
    pub fn mix_count(&self) -> usize {
        match self {
            ExperimentScope::Smoke => 2,
            ExperimentScope::Quick => 10,
            ExperimentScope::Full => 56,
        }
    }
}

/// The cell grid behind almost every figure: at each outer point (a
/// threshold or an attack study), one unprotected baseline per workload and
/// one protected run per (configuration, workload).
///
/// [`cells`](Self::cells) lists every baseline (outer × workload), then every
/// protected run (outer × configuration × workload); a backend runs them in
/// that order, and `slices` hands the results back per (outer point,
/// configuration), each run paired with its own baseline.
#[derive(Debug)]
pub struct Grid<O, C> {
    outers: Vec<O>,
    configs: Vec<C>,
    workloads: Vec<String>,
    cells: Vec<CellSpec>,
}

impl<O, C> Grid<O, C> {
    /// Enumerates the grid. `spec(outer, None, workload)` makes a baseline
    /// cell and `spec(outer, Some(config), workload)` a protected run.
    pub(crate) fn new(
        outers: Vec<O>,
        configs: Vec<C>,
        workloads: Vec<String>,
        spec: impl Fn(&O, Option<&C>, &str) -> CellSpec,
    ) -> Self {
        let mut cells = Vec::with_capacity(outers.len() * (1 + configs.len()) * workloads.len());
        for outer in &outers {
            cells.extend(workloads.iter().map(|workload| spec(outer, None, workload)));
        }
        for outer in &outers {
            for config in &configs {
                cells.extend(workloads.iter().map(|workload| spec(outer, Some(config), workload)));
            }
        }
        Grid { outers, configs, workloads, cells }
    }

    /// Every cell, baselines first, in the order `slices` expects results.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Splits per-cell `results` (parallel to [`cells`](Self::cells)) into
    /// one [`Slice`] per (outer point, configuration), outer point first.
    pub(crate) fn slices<'a>(
        &'a self,
        results: &'a [RunResult],
    ) -> impl Iterator<Item = Slice<'a, O, C>> + 'a {
        assert_eq!(results.len(), self.cells.len(), "one result per cell");
        let width = self.workloads.len();
        let (baselines, runs) = results.split_at(self.outers.len() * width);
        self.outers.iter().enumerate().flat_map(move |(o, outer)| {
            let baselines = &baselines[o * width..(o + 1) * width];
            self.configs.iter().enumerate().map(move |(c, config)| {
                let first = (o * self.configs.len() + c) * width;
                Slice {
                    outer,
                    config,
                    runs: self
                        .workloads
                        .iter()
                        .zip(baselines.iter().zip(&runs[first..first + width]))
                        .map(|(workload, (baseline, run))| (workload.as_str(), baseline, run))
                        .collect(),
                }
            })
        })
    }
}

/// The results of one (outer point, configuration) of a [`Grid`].
pub(crate) struct Slice<'a, O, C> {
    /// The outer point: a threshold or an attack study.
    pub outer: &'a O,
    /// The configuration of the protected runs.
    pub config: &'a C,
    /// `(workload, baseline, run)` per workload, in workload order.
    pub runs: Vec<(&'a str, &'a RunResult, &'a RunResult)>,
}

impl<O, C> Slice<'_, O, C> {
    /// Each run's IPC normalized to its baseline, in workload order.
    pub(crate) fn normalized_ipc(&self) -> Vec<f64> {
        self.runs.iter().map(|(_, baseline, run)| run.normalized_ipc(baseline)).collect()
    }

    /// Each run's DRAM energy normalized to its baseline, in workload order.
    pub(crate) fn normalized_energy(&self) -> Vec<f64> {
        self.runs.iter().map(|(_, baseline, run)| run.normalized_energy(baseline)).collect()
    }
}

/// A grid over `thresholds` of `workloads` on one core (`cores <= 1`) or as
/// `cores`-copy homogeneous mixes, unprotected and under every
/// configuration; `kind` names a configuration's mechanism.
pub(crate) fn threshold_grid<C>(
    workloads: Vec<String>,
    configs: Vec<C>,
    thresholds: &[u64],
    cores: usize,
    kind: impl Fn(&C) -> MechanismKind,
) -> Grid<u64, C> {
    Grid::new(thresholds.to_vec(), configs, workloads, |&nrh, config, workload| {
        let mechanism = config.map_or(MechanismKind::Baseline, &kind);
        if cores <= 1 {
            CellSpec::single(workload, mechanism, nrh)
        } else {
            CellSpec::homogeneous(workload, cores, mechanism, nrh)
        }
    })
}

/// The per-kilo-activation preventive-refresh rate of one run — the headline
/// tracker-pressure metric the sweeps report.
pub(crate) fn preventive_per_kilo_act(run: &RunResult) -> f64 {
    if run.mitigation.activations_observed == 0 {
        0.0
    } else {
        1000.0 * run.mitigation.preventive_refreshes as f64 / run.mitigation.activations_observed as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_parsing() {
        assert_eq!(ExperimentScope::from_name("smoke"), Some(ExperimentScope::Smoke));
        assert_eq!(ExperimentScope::from_name("quick"), Some(ExperimentScope::Quick));
        assert_eq!(ExperimentScope::from_name("full"), Some(ExperimentScope::Full));
        assert_eq!(ExperimentScope::from_name("nope"), None);
    }

    #[test]
    fn scopes_grow_in_size() {
        assert!(ExperimentScope::Smoke.workloads().len() < ExperimentScope::Quick.workloads().len());
        assert!(ExperimentScope::Quick.workloads().len() < ExperimentScope::Full.workloads().len());
        assert_eq!(ExperimentScope::Full.workloads().len(), 61);
    }

    #[test]
    fn smoke_scope_uses_two_thresholds() {
        assert_eq!(ExperimentScope::Smoke.thresholds(), vec![1000, 125]);
        assert_eq!(ExperimentScope::Full.thresholds().len(), 4);
    }

    #[test]
    fn every_scope_workload_is_in_the_catalog() {
        for scope in [ExperimentScope::Smoke, ExperimentScope::Quick, ExperimentScope::Full] {
            for name in scope.workloads() {
                assert!(comet_trace::catalog::workload(&name).is_some(), "{name} missing");
            }
        }
    }

    #[test]
    fn grid_pairs_every_run_with_its_own_baseline() {
        let mechanisms = vec![MechanismKind::Comet, MechanismKind::Para, MechanismKind::Rega];
        let workloads = vec!["a".to_string(), "b".to_string()];
        let grid = threshold_grid(workloads, mechanisms, &[1000, 125], 1, |&m| m);
        assert_eq!(grid.cells().len(), 2 * 2 + 2 * 3 * 2);
        // Stand-in results that carry their cell's label.
        let results: Vec<RunResult> =
            grid.cells().iter().map(|cell| RunResult { label: cell.label(), ..Default::default() }).collect();
        let slices: Vec<_> = grid.slices(&results).collect();
        assert_eq!(slices.len(), 2 * 3);
        for slice in &slices {
            assert_eq!(slice.runs.iter().map(|(w, _, _)| *w).collect::<Vec<_>>(), ["a", "b"]);
            for (workload, baseline, run) in &slice.runs {
                assert_eq!(baseline.label, format!("{workload}/Baseline/nrh{}", slice.outer));
                assert_eq!(run.label, format!("{workload}/{}/nrh{}", slice.config.name(), slice.outer));
            }
        }
        assert_eq!((*slices[4].outer, *slices[4].config), (125, MechanismKind::Para));
    }
}
