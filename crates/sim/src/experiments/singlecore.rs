//! Figures 10 and 11: CoMeT's single-core performance and DRAM energy,
//! normalized to a system without any RowHammer mitigation. Also covers the
//! high-threshold evaluation of §8.4 (NRH = 2000 and 4000).

use super::{
    baseline_cells, plan_grid, preventive_per_kilo_act, CellBackend, CellSpec, ExperimentScope, GridView,
};
use crate::metrics::{geometric_mean, normalized_distribution, DistributionSummary, RunResult};
use crate::runner::{MechanismKind, Runner, RunnerError};
use serde::Serialize;

/// One workload's normalized IPC and energy at one RowHammer threshold.
#[derive(Debug, Clone, Serialize)]
pub struct SingleCorePoint {
    /// Workload name.
    pub workload: String,
    /// RowHammer threshold.
    pub nrh: u64,
    /// IPC normalized to the unprotected baseline.
    pub normalized_ipc: f64,
    /// DRAM energy normalized to the unprotected baseline.
    pub normalized_energy: f64,
    /// Preventive refreshes per kilo-activation.
    pub preventive_refreshes_per_kilo_act: f64,
}

/// The full Figure 10/11 dataset plus per-threshold summaries.
#[derive(Debug, Clone, Serialize)]
pub struct SingleCoreResult {
    /// The mechanism evaluated (CoMeT for Figures 10/11).
    pub mechanism: String,
    /// Per-workload, per-threshold points.
    pub points: Vec<SingleCorePoint>,
    /// Per-threshold geometric-mean normalized IPC.
    pub ipc_geomean: Vec<(u64, f64)>,
    /// Per-threshold geometric-mean normalized energy.
    pub energy_geomean: Vec<(u64, f64)>,
    /// Per-threshold normalized-IPC distribution summary.
    pub ipc_distribution: Vec<(u64, DistributionSummary)>,
}

/// The Figure 10/11 cell grid as data: unprotected baselines followed by the
/// mechanism's runs, both (threshold × workload) row-major.
#[derive(Debug, Clone)]
pub struct SingleCorePlan {
    mechanism: MechanismKind,
    workloads: Vec<String>,
    thresholds: Vec<u64>,
    cells: Vec<CellSpec>,
}

impl SingleCorePlan {
    /// Enumerates the grid for `mechanism` over `scope`'s workloads.
    pub fn new(scope: ExperimentScope, mechanism: MechanismKind, thresholds: &[u64]) -> Self {
        let workloads = scope.workloads();
        let mut cells = Vec::new();
        baseline_cells(&mut cells, &workloads, thresholds);
        plan_grid(&mut cells, thresholds, &[()], &workloads, |&nrh, _, workload| {
            CellSpec::single(workload, mechanism, nrh)
        });
        SingleCorePlan { mechanism, workloads, thresholds: thresholds.to_vec(), cells }
    }

    /// Every cell of the plan, in the order `assemble` expects results.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Folds per-cell results (parallel to [`cells`](Self::cells)) into the
    /// figure dataset.
    pub fn assemble(&self, results: &[RunResult]) -> SingleCoreResult {
        assert_eq!(results.len(), self.cells.len(), "one result per planned cell");
        let grid = self.thresholds.len() * self.workloads.len();
        let baselines = GridView::new(&results[..grid], 1, self.workloads.len());
        let runs = GridView::new(&results[grid..], 1, self.workloads.len());

        let mut points = Vec::new();
        let mut ipc_geomean = Vec::new();
        let mut energy_geomean = Vec::new();
        let mut ipc_distribution = Vec::new();

        for (t, &nrh) in self.thresholds.iter().enumerate() {
            let mut norm_ipcs = Vec::new();
            let mut norm_energies = Vec::new();
            for (w, workload) in self.workloads.iter().enumerate() {
                let baseline = baselines.at(t, 0, w);
                let protected = runs.at(t, 0, w);
                let normalized_ipc = protected.normalized_ipc(baseline);
                let normalized_energy = protected.normalized_energy(baseline);
                norm_ipcs.push(normalized_ipc);
                norm_energies.push(normalized_energy);
                points.push(SingleCorePoint {
                    workload: workload.clone(),
                    nrh,
                    normalized_ipc,
                    normalized_energy,
                    preventive_refreshes_per_kilo_act: preventive_per_kilo_act(protected),
                });
            }
            ipc_geomean.push((nrh, geometric_mean(&norm_ipcs)));
            energy_geomean.push((nrh, geometric_mean(&norm_energies)));
            ipc_distribution.push((nrh, normalized_distribution(&norm_ipcs)));
        }

        SingleCoreResult {
            mechanism: self.mechanism.name().to_string(),
            points,
            ipc_geomean,
            energy_geomean,
            ipc_distribution,
        }
    }
}

/// Runs the Figure 10/11 experiment for `mechanism` over `thresholds`,
/// executing every (workload × threshold) cell through `backend`.
pub fn singlecore_for(
    scope: ExperimentScope,
    mechanism: MechanismKind,
    thresholds: &[u64],
    backend: &dyn CellBackend,
) -> Result<SingleCoreResult, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    let plan = SingleCorePlan::new(scope, mechanism, thresholds);
    let results = backend.run_cells(&runner, plan.cells())?;
    Ok(plan.assemble(&results))
}

/// Figures 10 and 11: CoMeT across the paper's four RowHammer thresholds.
pub fn fig10_fig11_singlecore(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<SingleCoreResult, RunnerError> {
    singlecore_for(scope, MechanismKind::Comet, &scope.thresholds(), backend)
}

/// §8.4: CoMeT at high RowHammer thresholds (2000 and 4000).
pub fn high_threshold_singlecore(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<SingleCoreResult, RunnerError> {
    singlecore_for(scope, MechanismKind::Comet, &[2000, 4000], backend)
}

#[cfg(test)]
mod tests {
    use super::super::ParallelExecutor;
    use super::*;

    #[test]
    fn smoke_singlecore_has_low_overhead_at_high_threshold() {
        let result =
            singlecore_for(ExperimentScope::Smoke, MechanismKind::Comet, &[1000], &ParallelExecutor::new())
                .unwrap();
        assert_eq!(result.points.len(), ExperimentScope::Smoke.workloads().len());
        let (_, geomean) = result.ipc_geomean[0];
        assert!(geomean > 0.9, "CoMeT at NRH=1K should be near-baseline, got {geomean}");
        assert!(geomean <= 1.01);
        for p in &result.points {
            assert!(p.normalized_ipc > 0.5 && p.normalized_ipc <= 1.05, "{p:?}");
            assert!(p.normalized_energy > 0.9 && p.normalized_energy < 1.5, "{p:?}");
        }
    }

    #[test]
    fn plan_enumerates_baselines_then_runs() {
        let plan = SingleCorePlan::new(ExperimentScope::Smoke, MechanismKind::Comet, &[1000, 125]);
        let workloads = ExperimentScope::Smoke.workloads().len();
        assert_eq!(plan.cells().len(), 2 * 2 * workloads);
        assert!(plan.cells()[..2 * workloads].iter().all(|c| c.mechanism == MechanismKind::Baseline));
        assert!(plan.cells()[2 * workloads..].iter().all(|c| c.mechanism == MechanismKind::Comet));
    }
}
