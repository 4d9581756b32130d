//! Figures 13 and 15: 8-core weighted speedup and DRAM energy comparison.

use super::{threshold_grid, CellBackend, CellSpec, ExperimentScope};
use crate::metrics::{normalized_distribution, DistributionSummary, RunResult};
use crate::runner::{MechanismKind, Runner, RunnerError};
use serde::Serialize;

/// Distribution of normalized weighted speedup / energy for one mechanism at one threshold.
#[derive(Debug, Clone, Serialize)]
pub struct MulticoreCell {
    /// Mechanism name.
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Normalized weighted speedup distribution across mixes.
    pub weighted_speedup: DistributionSummary,
    /// Normalized DRAM energy distribution across mixes.
    pub energy: DistributionSummary,
}

/// The Figure 13/15 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct MulticoreResult {
    /// Names of the mixes evaluated.
    pub mixes: Vec<String>,
    /// One cell per (mechanism, threshold).
    pub cells: Vec<MulticoreCell>,
}

impl MulticoreResult {
    /// Looks up the cell for `mechanism` at `nrh`.
    pub fn cell(&self, mechanism: &str, nrh: u64) -> Option<&MulticoreCell> {
        self.cells.iter().find(|c| c.mechanism == mechanism && c.nrh == nrh)
    }
}

/// Runs the multicore comparison for the given mechanisms and thresholds,
/// executing every (mix × mechanism × threshold) cell through `backend`.
/// Each mix is `cores` copies of one workload; `cores == 1` runs the
/// single-core cells.
///
/// The paper evaluates homogeneous 8-core mixes; for those, normalizing the
/// weighted speedup to the baseline system is equivalent to normalizing the
/// summed IPC (the alone-IPC terms cancel), which is what this function computes.
pub fn multicore_for(
    scope: ExperimentScope,
    mechanisms: &[MechanismKind],
    thresholds: &[u64],
    cores: usize,
    backend: &dyn CellBackend,
) -> Result<MulticoreResult, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    // Pick the most memory-intensive workloads for the mixes: they are where
    // multi-core contention (and tracker pressure) is visible.
    let mixes: Vec<String> = comet_trace::mix::paper_eight_core_mixes()
        .into_iter()
        .take(scope.mix_count())
        .map(|m| m.cores[0].name.clone())
        .collect();
    let grid = threshold_grid(mixes.clone(), mechanisms.to_vec(), thresholds, cores, |&m| m);
    let results = backend.run_cells(&runner, grid.cells())?;
    Ok(MulticoreResult {
        mixes: mixes.iter().map(|m| format!("{m}-x{cores}")).collect(),
        cells: grid
            .slices(&results)
            .map(|slice| MulticoreCell {
                mechanism: slice.config.name().to_string(),
                nrh: *slice.outer,
                weighted_speedup: normalized_distribution(&slice.normalized_ipc()),
                energy: normalized_distribution(&slice.normalized_energy()),
            })
            .collect(),
    })
}

/// Figures 13 and 15: the five-mechanism comparison on 8-core mixes.
pub fn fig13_fig15_multicore(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<MulticoreResult, RunnerError> {
    multicore_for(scope, &MechanismKind::comparison_set(), &scope.thresholds(), 8, backend)
}

/// Weighted speedup of one heterogeneous mix under one mechanism, with true
/// alone-IPC normalization.
#[derive(Debug, Clone, Serialize)]
pub struct MixedMixCell {
    /// Mix name (`mixMH00`, ...).
    pub mix: String,
    /// Mechanism name.
    pub mechanism: String,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Weighted speedup `Σ IPC_shared[i] / IPC_alone[i]` where each alone
    /// IPC comes from running that core's workload *alone* on the same
    /// protected system (same mechanism, same threshold).
    pub weighted_speedup: f64,
    /// The mix's weighted speedup normalized to the unprotected baseline's
    /// weighted speedup on the same mix (the paper's reporting convention).
    pub normalized_weighted_speedup: f64,
}

/// The mixed medium/high-intensity multicore dataset.
#[derive(Debug, Clone, Serialize)]
pub struct MixedMulticoreResult {
    /// One cell per (mix × mechanism × threshold), baseline included.
    pub cells: Vec<MixedMixCell>,
}

impl MixedMulticoreResult {
    /// The cells of `mechanism` at `nrh`, one per mix.
    pub fn cells_for(&self, mechanism: &str, nrh: u64) -> Vec<&MixedMixCell> {
        self.cells.iter().filter(|c| c.mechanism == mechanism && c.nrh == nrh).collect()
    }
}

/// The heterogeneous-mix grid as data. Unlike the homogeneous grid — where
/// normalizing summed IPC to the baseline cancels the alone-IPC terms — true
/// weighted speedup needs one *alone* run per distinct (workload, mechanism,
/// threshold): those single-core cells are enumerated alongside the mix
/// cells, and the backend's dedupe (in-batch and service-side) collapses the
/// heavy overlap between mixes for free.
#[derive(Debug, Clone)]
pub struct MixedMulticorePlan {
    mixes: Vec<(String, Vec<String>)>,
    /// Baseline first, then the compared mechanisms.
    mechanisms: Vec<MechanismKind>,
    thresholds: Vec<u64>,
    cells: Vec<CellSpec>,
    /// For each (threshold, mechanism, mix): the result indices of the mix
    /// cell and of each core's alone cell, parallel to the mix's workloads.
    layout: Vec<MixedCellLayout>,
}

#[derive(Debug, Clone)]
struct MixedCellLayout {
    mix_index: usize,
    alone_indices: Vec<usize>,
}

impl MixedMulticorePlan {
    /// Enumerates mixed medium/high mixes for `mechanisms` (the baseline is
    /// prepended automatically) at `thresholds`.
    pub fn new(scope: ExperimentScope, mechanisms: &[MechanismKind], thresholds: &[u64]) -> Self {
        let mixes: Vec<(String, Vec<String>)> = comet_trace::mix::mixed_intensity_eight_core_mixes()
            .into_iter()
            .take(scope.mix_count())
            .map(|m| (m.name.clone(), m.cores.iter().map(|c| c.name.clone()).collect()))
            .collect();
        let mut all = vec![MechanismKind::Baseline];
        all.extend(mechanisms.iter().copied().filter(|&m| m != MechanismKind::Baseline));
        let mut cells: Vec<CellSpec> = Vec::new();
        let mut layout = Vec::new();
        for &nrh in thresholds {
            for &mechanism in &all {
                for (name, workloads) in &mixes {
                    let mix_index = cells.len();
                    cells.push(CellSpec::mix(name.clone(), workloads.clone(), mechanism, nrh));
                    let alone_indices = workloads
                        .iter()
                        .map(|workload| {
                            let index = cells.len();
                            cells.push(CellSpec::single(workload.clone(), mechanism, nrh));
                            index
                        })
                        .collect();
                    layout.push(MixedCellLayout { mix_index, alone_indices });
                }
            }
        }
        MixedMulticorePlan { mixes, mechanisms: all, thresholds: thresholds.to_vec(), cells, layout }
    }

    /// Every cell of the plan (mix cells interleaved with their alone
    /// cells; heavily duplicated by construction — backends dedupe).
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Folds per-cell results (parallel to [`cells`](Self::cells)) into the
    /// dataset.
    pub fn assemble(&self, results: &[RunResult]) -> MixedMulticoreResult {
        assert_eq!(results.len(), self.cells.len(), "one result per planned cell");
        let mut cells = Vec::with_capacity(self.layout.len());
        let mut slot = 0;
        for &nrh in &self.thresholds {
            // Baseline weighted speedups of this threshold's mixes, for the
            // normalized column (the baseline mechanism comes first).
            let mut baseline_ws: Vec<f64> = Vec::with_capacity(self.mixes.len());
            for &mechanism in &self.mechanisms {
                for (mix_position, (mix_name, _)) in self.mixes.iter().enumerate() {
                    let entry = &self.layout[slot];
                    slot += 1;
                    let shared = &results[entry.mix_index];
                    let alone_ipc: Vec<f64> =
                        entry.alone_indices.iter().map(|&index| results[index].ipc).collect();
                    let ws = shared.weighted_speedup(&alone_ipc);
                    if mechanism == MechanismKind::Baseline {
                        baseline_ws.push(ws);
                    }
                    let baseline = baseline_ws.get(mix_position).copied().unwrap_or(0.0);
                    cells.push(MixedMixCell {
                        mix: mix_name.clone(),
                        mechanism: mechanism.name().to_string(),
                        nrh,
                        weighted_speedup: ws,
                        normalized_weighted_speedup: if baseline > 0.0 { ws / baseline } else { 1.0 },
                    });
                }
            }
        }
        MixedMulticoreResult { cells }
    }
}

/// Heterogeneous mixed medium/high-intensity multicore study: weighted
/// speedup with true alone-IPC normalization (each core's shared IPC divided
/// by its workload's single-core IPC on the same protected system), plus the
/// baseline-normalized convention the paper plots.
pub fn mixed_multicore(
    scope: ExperimentScope,
    mechanisms: &[MechanismKind],
    thresholds: &[u64],
    backend: &dyn CellBackend,
) -> Result<MixedMulticoreResult, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    let plan = MixedMulticorePlan::new(scope, mechanisms, thresholds);
    let results = backend.run_cells(&runner, plan.cells())?;
    Ok(plan.assemble(&results))
}

#[cfg(test)]
mod tests {
    use super::super::ParallelExecutor;
    use super::*;

    #[test]
    fn smoke_multicore_runs_two_mixes() {
        // Use 4 cores and one threshold to keep the smoke test fast.
        let result = multicore_for(
            ExperimentScope::Smoke,
            &[MechanismKind::Comet],
            &[1000],
            4,
            &ParallelExecutor::new(),
        )
        .unwrap();
        assert_eq!(result.mixes.len(), 2);
        let cell = result.cell("CoMeT", 1000).unwrap();
        assert!(cell.weighted_speedup.geomean > 0.7);
        assert!(cell.weighted_speedup.geomean <= 1.02);
    }

    #[test]
    fn mixed_multicore_reports_true_alone_ipc_weighted_speedup() {
        let result = mixed_multicore(
            ExperimentScope::Smoke,
            &[MechanismKind::Comet],
            &[1000],
            &ParallelExecutor::new(),
        )
        .unwrap();
        let baseline = result.cells_for("Baseline", 1000);
        let comet = result.cells_for("CoMeT", 1000);
        assert_eq!(baseline.len(), 2, "smoke scope runs two mixes");
        assert_eq!(comet.len(), 2);
        for cell in baseline.iter().chain(&comet) {
            // Eight cores sharing one channel: contention keeps each core
            // well below its alone IPC, so the weighted speedup lands
            // strictly between "one core's worth" and the core count.
            assert!(
                cell.weighted_speedup > 0.5 && cell.weighted_speedup < 8.0,
                "{}/{}: ws = {}",
                cell.mix,
                cell.mechanism,
                cell.weighted_speedup
            );
        }
        for cell in &baseline {
            assert!((cell.normalized_weighted_speedup - 1.0).abs() < 1e-12, "baseline normalizes to itself");
        }
        for cell in &comet {
            assert!(
                cell.normalized_weighted_speedup > 0.6 && cell.normalized_weighted_speedup <= 1.02,
                "{}: normalized ws = {}",
                cell.mix,
                cell.normalized_weighted_speedup
            );
        }
    }
}
