//! Rank-count sweep: tracker pressure versus rank parallelism.
//!
//! The per-channel shard models multiple ranks; this sweep runs the same
//! workloads with 1, 2, and 4 ranks per channel and reports how spreading
//! banks over more ranks trades DRAM-level parallelism against per-rank
//! tracker pressure (CoMeT's counters observe the same activation stream, but
//! rank-level early preventive refreshes and bank contention shift).
//!
//! Each rank count is a distinct simulation configuration, so the sweep is a
//! *set* of service-schedulable cell grids — one [`RankPlan`] per rank count,
//! each executed under its own [`Runner`] — rather than one grid. The
//! experiment service keys its cache on the full configuration, so every rank
//! count's cells cache independently.

use super::{baseline_cells, plan_grid, preventive_per_kilo_act, CellBackend, CellSpec, ExperimentScope};
use super::{GridView, ParallelExecutor};
use crate::metrics::{geometric_mean, RunResult};
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

/// The cell grid for one rank count: unprotected baselines then the
/// mechanism's runs, both (threshold × workload) row-major, plus the
/// configuration they must run under.
#[derive(Debug, Clone)]
pub struct RankPlan {
    /// Ranks per channel this plan's cells simulate.
    pub ranks: usize,
    /// The configuration (scope config scaled to `ranks`).
    pub config: crate::SimConfig,
    workloads: Vec<String>,
    thresholds: Vec<u64>,
    cells: Vec<CellSpec>,
}

impl RankPlan {
    /// Enumerates the grid for `mechanism` at `ranks` ranks per channel.
    pub fn new(scope: ExperimentScope, mechanism: MechanismKind, ranks: usize, thresholds: &[u64]) -> Self {
        let workloads = scope.workloads();
        let mut cells = Vec::new();
        baseline_cells(&mut cells, &workloads, thresholds);
        plan_grid(&mut cells, thresholds, &[()], &workloads, |&nrh, _, workload| {
            CellSpec::single(workload, mechanism, nrh)
        });
        RankPlan {
            ranks,
            config: scope.sim_config().with_ranks(ranks),
            workloads,
            thresholds: thresholds.to_vec(),
            cells,
        }
    }

    /// Every cell of the plan, in the order `assemble` expects results.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Folds per-cell results (parallel to [`cells`](Self::cells)) into one
    /// [`RankPoint`] per threshold.
    pub fn assemble(&self, results: &[RunResult]) -> Vec<RankPoint> {
        assert_eq!(results.len(), self.cells.len(), "one result per planned cell");
        let grid = self.thresholds.len() * self.workloads.len();
        let baselines = GridView::new(&results[..grid], 1, self.workloads.len());
        let runs = GridView::new(&results[grid..], 1, self.workloads.len());

        let mut points = Vec::with_capacity(self.thresholds.len());
        for (t, &nrh) in self.thresholds.iter().enumerate() {
            let mut ipcs = Vec::new();
            let mut energies = Vec::new();
            let mut preventive = 0.0;
            let mut aggressors = 0.0;
            let mut early_rank = 0u64;
            let mut latency = 0.0;
            for (w, _) in self.workloads.iter().enumerate() {
                let baseline = baselines.at(t, 0, w);
                let run = runs.at(t, 0, w);
                ipcs.push(run.normalized_ipc(baseline));
                energies.push(run.normalized_energy(baseline));
                preventive += preventive_per_kilo_act(run);
                let kilo_acts = run.mitigation.activations_observed.max(1) as f64 / 1000.0;
                aggressors += run.mitigation.aggressors_identified as f64 / kilo_acts;
                early_rank += run.mitigation.early_rank_refreshes;
                latency += run.avg_read_latency_ns;
            }
            let n = self.workloads.len().max(1) as f64;
            points.push(RankPoint {
                ranks: self.ranks,
                nrh,
                normalized_ipc_geomean: geometric_mean(&ipcs),
                normalized_energy_geomean: geometric_mean(&energies),
                preventive_per_kilo_act: preventive / n,
                aggressors_per_kilo_act: aggressors / n,
                early_rank_refreshes: early_rank,
                avg_read_latency_ns: latency / n,
            });
        }
        points
    }
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
    let mut points = Vec::new();
    let mut workloads = Vec::new();
    for &ranks in rank_counts {
        let plan = RankPlan::new(scope, mechanism, ranks, thresholds);
        let runner = Runner::new(plan.config.clone());
        let results = backend.run_cells(&runner, plan.cells())?;
        points.extend(plan.assemble(&results));
        workloads = plan.workloads;
    }
    Ok(RankSweepResult { mechanism: mechanism.name().to_string(), workloads, points })
}

/// The ROADMAP's rank-parallelism sweep: CoMeT at 1, 2, and 4 ranks per
/// channel across the scope's thresholds.
pub fn rank_sweep(scope: ExperimentScope, backend: &dyn CellBackend) -> Result<RankSweepResult, RunnerError> {
    rank_sweep_for(scope, MechanismKind::Comet, &[1, 2, 4], &scope.thresholds(), backend)
}

/// Convenience wrapper running the sweep on a plain executor (used by tests
/// and examples that have no service).
pub fn rank_sweep_serial(scope: ExperimentScope) -> Result<RankSweepResult, RunnerError> {
    rank_sweep(scope, &ParallelExecutor::serial())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn rank_plans_differ_only_in_configuration() {
        let one = RankPlan::new(ExperimentScope::Smoke, MechanismKind::Comet, 1, &[1000]);
        let four = RankPlan::new(ExperimentScope::Smoke, MechanismKind::Comet, 4, &[1000]);
        assert_eq!(one.cells(), four.cells(), "cells are identical; the config carries the rank count");
        assert_eq!(one.config.dram.geometry.ranks_per_channel, 1);
        assert_eq!(four.config.dram.geometry.ranks_per_channel, 4);
    }
}
