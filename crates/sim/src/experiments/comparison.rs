//! Figures 12 and 14 (single-core comparison against the state of the art),
//! Figure 3 (Hydra's overhead), Figure 4 (the trade-off radar plot), and
//! Figure 18 (CoMeT vs BlockHammer).

use super::{threshold_grid, CellBackend, ExperimentScope};
use crate::metrics::{normalized_distribution, DistributionSummary};
use crate::runner::{MechanismKind, Runner, RunnerError};
use serde::Serialize;

/// Distribution of normalized IPC and energy for one mechanism at one threshold.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonCell {
    /// Mechanism name.
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Normalized IPC distribution across workloads.
    pub ipc: DistributionSummary,
    /// Normalized DRAM energy distribution across workloads.
    pub energy: DistributionSummary,
    /// Per-workload normalized IPC (workload, value).
    pub per_workload_ipc: Vec<(String, f64)>,
}

/// The Figure 12/14 dataset: one cell per (mechanism, threshold).
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonResult {
    /// All cells.
    pub cells: Vec<ComparisonCell>,
}

impl ComparisonResult {
    /// Looks up the cell for `mechanism` at `nrh`.
    pub fn cell(&self, mechanism: &str, nrh: u64) -> Option<&ComparisonCell> {
        self.cells.iter().find(|c| c.mechanism == mechanism && c.nrh == nrh)
    }
}

/// Runs the comparison for an arbitrary mechanism set (Figure 12/14 uses
/// [`MechanismKind::comparison_set`], Figure 18 uses CoMeT vs BlockHammer,
/// Figure 3 uses Hydra alone).
///
/// Every (workload × mechanism × threshold) cell — and every shared baseline —
/// is an independent simulation executed through `backend`; results are
/// bit-identical regardless of worker count or cache state.
pub fn comparison_for(
    scope: ExperimentScope,
    mechanisms: &[MechanismKind],
    thresholds: &[u64],
    backend: &dyn CellBackend,
) -> Result<ComparisonResult, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    // Baselines are shared across mechanisms for a threshold.
    let grid = threshold_grid(scope.workloads(), mechanisms.to_vec(), thresholds, 1, |&m| m);
    let results = backend.run_cells(&runner, grid.cells())?;
    let cells = grid
        .slices(&results)
        .map(|slice| {
            let ipc = slice.normalized_ipc();
            ComparisonCell {
                mechanism: slice.config.name().to_string(),
                nrh: *slice.outer,
                ipc: normalized_distribution(&ipc),
                energy: normalized_distribution(&slice.normalized_energy()),
                per_workload_ipc: slice
                    .runs
                    .iter()
                    .map(|(workload, _, _)| workload.to_string())
                    .zip(ipc)
                    .collect(),
            }
        })
        .collect();
    Ok(ComparisonResult { cells })
}

/// Figures 12 and 14: Graphene, CoMeT, Hydra, REGA, and PARA across thresholds.
pub fn fig12_fig14_comparison(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<ComparisonResult, RunnerError> {
    comparison_for(scope, &MechanismKind::comparison_set(), &scope.thresholds(), backend)
}

/// Figure 3: Hydra's normalized IPC distribution across thresholds.
pub fn fig3_hydra_motivation(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<ComparisonResult, RunnerError> {
    comparison_for(scope, &[MechanismKind::Hydra], &scope.thresholds(), backend)
}

/// Figure 18: CoMeT versus BlockHammer.
pub fn fig18_blockhammer(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<ComparisonResult, RunnerError> {
    comparison_for(scope, &[MechanismKind::Comet, MechanismKind::BlockHammer], &scope.thresholds(), backend)
}

/// One mechanism's position in the Figure 4 radar plot at NRH = 125.
#[derive(Debug, Clone, Serialize)]
pub struct RadarPoint {
    /// Mechanism name.
    pub mechanism: String,
    /// Average performance overhead (1 − geomean normalized IPC).
    pub performance_overhead: f64,
    /// Average DRAM energy overhead (geomean normalized energy − 1).
    pub energy_overhead: f64,
    /// Processor-side chip area in mm².
    pub cpu_area_mm2: f64,
    /// DRAM area overhead fraction.
    pub dram_area_fraction: f64,
}

/// Figure 4: the four-axis trade-off at NRH = 125 for all five mechanisms and CoMeT.
pub fn radar_fig4(scope: ExperimentScope, backend: &dyn CellBackend) -> Result<Vec<RadarPoint>, RunnerError> {
    let nrh = 125;
    let comparison = comparison_for(scope, &MechanismKind::comparison_set(), &[nrh], backend)?;
    Ok(MechanismKind::comparison_set()
        .iter()
        .map(|&kind| {
            let cell = comparison.cell(kind.name(), nrh).expect("cell exists for every compared mechanism");
            let area = match kind {
                MechanismKind::Comet => comet_area::comet_report(nrh),
                MechanismKind::Graphene => comet_area::graphene_report(nrh),
                MechanismKind::Hydra => comet_area::hydra_report(nrh),
                MechanismKind::Rega => comet_area::rega_report(nrh),
                MechanismKind::Para => comet_area::para_report(nrh),
                _ => comet_area::para_report(nrh),
            };
            RadarPoint {
                mechanism: kind.name().to_string(),
                performance_overhead: 1.0 - cell.ipc.geomean,
                energy_overhead: cell.energy.geomean - 1.0,
                cpu_area_mm2: area.area_mm2,
                dram_area_fraction: area.dram_area_fraction,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::super::ParallelExecutor;
    use super::*;

    #[test]
    fn smoke_comparison_orders_mechanisms_sensibly_at_low_threshold() {
        let result = comparison_for(
            ExperimentScope::Smoke,
            &[MechanismKind::Comet, MechanismKind::Para],
            &[125],
            &ParallelExecutor::new(),
        )
        .unwrap();
        let comet = result.cell("CoMeT", 125).unwrap();
        let para = result.cell("PARA", 125).unwrap();
        // PARA's 24 % refresh probability at NRH=125 must cost more than CoMeT.
        assert!(
            comet.ipc.geomean >= para.ipc.geomean,
            "CoMeT {} should outperform PARA {}",
            comet.ipc.geomean,
            para.ipc.geomean
        );
        assert!(comet.ipc.geomean > 0.7);
    }
}
