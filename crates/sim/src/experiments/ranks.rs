//! Rank-count sweep: tracker pressure versus rank parallelism.
//!
//! The per-channel shard models multiple ranks; this sweep runs the same
//! workloads with 1, 2, and 4 ranks per channel and reports how spreading
//! banks over more ranks trades DRAM-level parallelism against per-rank
//! tracker pressure (CoMeT's counters observe the same activation stream, but
//! rank-level early preventive refreshes and bank contention shift).
//!
//! Each rank count is a distinct simulation configuration, so the sweep runs
//! one threshold [`Grid`](super::Grid) once per rank count, each batch under
//! its own [`Runner`]. The experiment service keys its cache on the full
//! configuration, so every rank count's cells cache independently.

use super::{preventive_per_kilo_act, threshold_grid, CellBackend, ExperimentScope};
use crate::metrics::geometric_mean;
use crate::runner::{MechanismKind, Runner, RunnerError};
use serde::Serialize;

/// One (rank count, threshold) summary row.
#[derive(Debug, Clone, Serialize)]
pub struct RankPoint {
    /// Ranks per channel.
    pub ranks: usize,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Geometric-mean IPC normalized to the unprotected baseline at the same rank count.
    pub normalized_ipc_geomean: f64,
    /// Geometric-mean DRAM energy normalized to the same baseline.
    pub normalized_energy_geomean: f64,
    /// Mean preventive refreshes per kilo-activation (tracker pressure).
    pub preventive_per_kilo_act: f64,
    /// Mean aggressor identifications per kilo-activation.
    pub aggressors_per_kilo_act: f64,
    /// Rank-level early preventive refreshes summed across workloads.
    pub early_rank_refreshes: u64,
    /// Mean demand-read latency of the protected runs, in nanoseconds.
    pub avg_read_latency_ns: f64,
}

/// The rank sweep dataset.
#[derive(Debug, Clone, Serialize)]
pub struct RankSweepResult {
    /// Mechanism evaluated.
    pub mechanism: String,
    /// Workloads aggregated per point.
    pub workloads: Vec<String>,
    /// One row per (rank count, threshold).
    pub points: Vec<RankPoint>,
}

/// Runs the rank sweep for `mechanism` over explicit rank counts and
/// thresholds. Each rank count executes as its own cell batch under its own
/// configuration.
pub fn rank_sweep_for(
    scope: ExperimentScope,
    mechanism: MechanismKind,
    rank_counts: &[usize],
    thresholds: &[u64],
    backend: &dyn CellBackend,
) -> Result<RankSweepResult, RunnerError> {
    let workloads = scope.workloads();
    // Every rank count runs the same cells; only the runner's configuration differs.
    let grid = threshold_grid(workloads.clone(), vec![mechanism], thresholds, 1, |&m| m);
    let mut points = Vec::new();
    for &ranks in rank_counts {
        let runner = Runner::new(scope.sim_config().with_ranks(ranks));
        let results = backend.run_cells(&runner, grid.cells())?;
        for slice in grid.slices(&results) {
            let runs = || slice.runs.iter().map(|&(_, _, run)| run);
            let n = slice.runs.len().max(1) as f64;
            points.push(RankPoint {
                ranks,
                nrh: *slice.outer,
                normalized_ipc_geomean: geometric_mean(&slice.normalized_ipc()),
                normalized_energy_geomean: geometric_mean(&slice.normalized_energy()),
                preventive_per_kilo_act: runs().map(preventive_per_kilo_act).sum::<f64>() / n,
                aggressors_per_kilo_act: runs()
                    .map(|run| {
                        let kilo_acts = run.mitigation.activations_observed.max(1) as f64 / 1000.0;
                        run.mitigation.aggressors_identified as f64 / kilo_acts
                    })
                    .sum::<f64>()
                    / n,
                early_rank_refreshes: runs().map(|run| run.mitigation.early_rank_refreshes).sum(),
                avg_read_latency_ns: runs().map(|run| run.avg_read_latency_ns).sum::<f64>() / n,
            });
        }
    }
    Ok(RankSweepResult { mechanism: mechanism.name().to_string(), workloads, points })
}

/// The ROADMAP's rank-parallelism sweep: CoMeT at 1, 2, and 4 ranks per
/// channel across the scope's thresholds.
pub fn rank_sweep(scope: ExperimentScope, backend: &dyn CellBackend) -> Result<RankSweepResult, RunnerError> {
    rank_sweep_for(scope, MechanismKind::Comet, &[1, 2, 4], &scope.thresholds(), backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ParallelExecutor;

    #[test]
    fn smoke_rank_sweep_covers_every_rank_and_threshold() {
        let result = rank_sweep_for(
            ExperimentScope::Smoke,
            MechanismKind::Comet,
            &[1, 2],
            &[1000],
            &ParallelExecutor::new(),
        )
        .unwrap();
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.normalized_ipc_geomean > 0.5, "{p:?}");
            assert!(p.normalized_ipc_geomean <= 1.02, "{p:?}");
            assert!(p.avg_read_latency_ns > 0.0, "{p:?}");
        }
        assert_eq!(result.points[0].ranks, 1);
        assert_eq!(result.points[1].ranks, 2);
    }
}
