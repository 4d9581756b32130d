//! Figures 10 and 11: CoMeT's single-core performance and DRAM energy,
//! normalized to a system without any RowHammer mitigation. Also covers the
//! high-threshold evaluation of §8.4 (NRH = 2000 and 4000).

use super::{preventive_per_kilo_act, threshold_grid, CellBackend, ExperimentScope};
use crate::metrics::{geometric_mean, normalized_distribution, DistributionSummary};
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

/// Runs the Figure 10/11 experiment for `mechanism` over `thresholds`,
/// executing every (workload × threshold) cell through `backend`.
pub fn singlecore_for(
    scope: ExperimentScope,
    mechanism: MechanismKind,
    thresholds: &[u64],
    backend: &dyn CellBackend,
) -> Result<SingleCoreResult, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    let grid = threshold_grid(scope.workloads(), vec![mechanism], thresholds, 1, |&m| m);
    let results = backend.run_cells(&runner, grid.cells())?;
    let mut result = SingleCoreResult {
        mechanism: mechanism.name().to_string(),
        points: Vec::new(),
        ipc_geomean: Vec::new(),
        energy_geomean: Vec::new(),
        ipc_distribution: Vec::new(),
    };
    for slice in grid.slices(&results) {
        let nrh = *slice.outer;
        let ipc = slice.normalized_ipc();
        let energy = slice.normalized_energy();
        for (i, &(workload, _, run)) in slice.runs.iter().enumerate() {
            result.points.push(SingleCorePoint {
                workload: workload.to_string(),
                nrh,
                normalized_ipc: ipc[i],
                normalized_energy: energy[i],
                preventive_refreshes_per_kilo_act: preventive_per_kilo_act(run),
            });
        }
        result.ipc_geomean.push((nrh, geometric_mean(&ipc)));
        result.energy_geomean.push((nrh, geometric_mean(&energy)));
        result.ipc_distribution.push((nrh, normalized_distribution(&ipc)));
    }
    Ok(result)
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
}
