//! Design-space sweeps: Figure 6 (Counter Table), Figure 7 (RAT size),
//! Figure 8 (early preventive refresh), Figure 9 (reset period k), and the
//! ablation studies listed in DESIGN.md.

use super::{
    baseline_cells, homogeneous_baseline_cells, plan_grid, CellBackend, CellSpec, ExperimentScope, GridView,
};
use crate::metrics::{geometric_mean, RunResult};
use crate::runner::{MechanismKind, Runner, RunnerError};
use serde::Serialize;

/// One configuration point of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Human-readable configuration label (e.g. `"NHash=4,NCounters=512"`).
    pub configuration: String,
    /// RowHammer threshold.
    pub nrh: u64,
    /// Geometric-mean IPC normalized to the unprotected baseline.
    pub normalized_ipc_geomean: f64,
    /// Geometric-mean DRAM energy normalized to the unprotected baseline.
    pub normalized_energy_geomean: f64,
}

/// A sweep cell grid as data: per-(threshold × workload) baselines shared by
/// every configuration point, followed by the (threshold × configuration ×
/// workload) grid. `cores == 1` sweeps single-core workloads; `cores > 1`
/// sweeps homogeneous mixes (Figure 8).
#[derive(Debug, Clone)]
pub struct SweepPlan {
    configs: Vec<(String, MechanismKind)>,
    workloads: Vec<String>,
    thresholds: Vec<u64>,
    cells: Vec<CellSpec>,
}

impl SweepPlan {
    /// Enumerates the grid for `configs` over `workloads`.
    pub fn new(
        workloads: Vec<String>,
        configs: &[(String, MechanismKind)],
        thresholds: &[u64],
        cores: usize,
    ) -> Self {
        let mut cells = Vec::new();
        if cores <= 1 {
            baseline_cells(&mut cells, &workloads, thresholds);
        } else {
            homogeneous_baseline_cells(&mut cells, &workloads, cores, thresholds);
        }
        plan_grid(&mut cells, thresholds, configs, &workloads, |&nrh, (_, kind), workload| {
            if cores <= 1 {
                CellSpec::single(workload, *kind, nrh)
            } else {
                CellSpec::homogeneous(workload, cores, *kind, nrh)
            }
        });
        SweepPlan { configs: configs.to_vec(), workloads, thresholds: thresholds.to_vec(), cells }
    }

    /// Every cell of the plan, in the order `assemble` expects results.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }

    /// Folds per-cell results (parallel to [`cells`](Self::cells)) into
    /// sweep points, one per (threshold, configuration).
    pub fn assemble(&self, results: &[RunResult]) -> Vec<SweepPoint> {
        assert_eq!(results.len(), self.cells.len(), "one result per planned cell");
        let baseline_len = self.thresholds.len() * self.workloads.len();
        let baselines = GridView::new(&results[..baseline_len], 1, self.workloads.len());
        let runs = GridView::new(&results[baseline_len..], self.configs.len(), self.workloads.len());

        let mut points = Vec::with_capacity(self.thresholds.len() * self.configs.len());
        for (t, &nrh) in self.thresholds.iter().enumerate() {
            for (c, (label, _)) in self.configs.iter().enumerate() {
                let mut ipcs = Vec::new();
                let mut energies = Vec::new();
                for (w, _) in self.workloads.iter().enumerate() {
                    let baseline = baselines.at(t, 0, w);
                    let run = runs.at(t, c, w);
                    ipcs.push(run.normalized_ipc(baseline));
                    energies.push(run.normalized_energy(baseline));
                }
                points.push(SweepPoint {
                    configuration: label.clone(),
                    nrh,
                    normalized_ipc_geomean: geometric_mean(&ipcs),
                    normalized_energy_geomean: geometric_mean(&energies),
                });
            }
        }
        points
    }
}

/// Runs a grid of single-core sweep configurations: baselines are simulated
/// once per (workload, threshold) and shared by every configuration point.
fn sweep_grid(
    scope: ExperimentScope,
    configs: &[(String, MechanismKind)],
    thresholds: &[u64],
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    let plan = SweepPlan::new(scope.workloads(), configs, thresholds, 1);
    let results = backend.run_cells(&runner, plan.cells())?;
    Ok(plan.assemble(&results))
}

fn comet_custom(
    n_hash: usize,
    n_counters: usize,
    rat: usize,
    k: u64,
    history: usize,
    eprt: u32,
) -> MechanismKind {
    MechanismKind::CometCustom {
        n_hash,
        n_counters,
        rat_entries: rat,
        reset_divisor: k,
        history_length: history,
        eprt_percent: eprt,
    }
}

/// Figure 6: sweep of the Counter Table shape (NHash × NCounters) at one threshold,
/// with a fixed 128-entry RAT.
pub fn fig6_ct_sweep(
    scope: ExperimentScope,
    nrh: u64,
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
    let hash_counts: &[usize] = match scope {
        ExperimentScope::Smoke => &[1, 4],
        _ => &[1, 2, 4, 8],
    };
    let counter_counts: &[usize] = match scope {
        ExperimentScope::Smoke => &[128, 512],
        _ => &[128, 256, 512, 1024],
    };
    let configs: Vec<(String, MechanismKind)> = hash_counts
        .iter()
        .flat_map(|&n_hash| {
            counter_counts.iter().map(move |&n_counters| {
                (
                    format!("NHash={n_hash},NCounters={n_counters}"),
                    comet_custom(n_hash, n_counters, 128, 3, 256, 25),
                )
            })
        })
        .collect();
    sweep_grid(scope, &configs, &[nrh], backend)
}

/// Figure 7: sweep of the Recent Aggressor Table size across thresholds,
/// with the Counter Table fixed at 4 × 512.
pub fn fig7_rat_sweep(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
    let rat_sizes: &[usize] = match scope {
        ExperimentScope::Smoke => &[32, 128],
        _ => &[32, 64, 128, 256, 512],
    };
    let configs: Vec<(String, MechanismKind)> =
        rat_sizes.iter().map(|&rat| (format!("NRAT={rat}"), comet_custom(4, 512, rat, 3, 256, 25))).collect();
    sweep_grid(scope, &configs, &scope.thresholds(), backend)
}

/// Figure 8: sweep of the early-preventive-refresh threshold (EPRT) and the RAT
/// miss history length on 8-core mixes at NRH = 125.
pub fn fig8_eprt_sweep(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    let nrh = 125;
    let cores = match scope {
        ExperimentScope::Smoke => 2,
        _ => 8,
    };
    let mixes: Vec<String> = comet_trace::mix::paper_eight_core_mixes()
        .into_iter()
        .take(scope.mix_count().min(6))
        .map(|m| m.cores[0].name.clone())
        .collect();
    let history_lengths: &[usize] = match scope {
        ExperimentScope::Smoke => &[256],
        _ => &[64, 256, 1024],
    };
    let eprts: &[u32] = match scope {
        ExperimentScope::Smoke => &[0, 25],
        _ => &[0, 25, 50, 75, 100],
    };
    let configs: Vec<(String, MechanismKind)> = history_lengths
        .iter()
        .flat_map(|&history| {
            eprts.iter().map(move |&eprt| {
                (format!("History={history},EPRT={eprt}%"), comet_custom(4, 512, 128, 3, history, eprt))
            })
        })
        .collect();

    let plan = SweepPlan::new(mixes, &configs, &[nrh], cores);
    let results = backend.run_cells(&runner, plan.cells())?;
    Ok(plan.assemble(&results))
}

/// Figure 9: sweep of the reset-period divisor `k` (and thus `NPR = NRH/(k+1)`).
pub fn fig9_k_sweep(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
    let ks: &[u64] = match scope {
        ExperimentScope::Smoke => &[1, 3],
        _ => &[1, 2, 3, 4, 5],
    };
    // k = 5 at NRH = 125 gives NPR = 20, still a valid configuration.
    let configs: Vec<(String, MechanismKind)> =
        ks.iter().map(|&k| (format!("k={k}"), comet_custom(4, 512, 128, k, 256, 25))).collect();
    sweep_grid(scope, &configs, &scope.thresholds(), backend)
}

/// Ablation: CoMeT without the Recent Aggressor Table, without early preventive
/// refresh, and the full design, at one threshold (DESIGN.md §3).
pub fn ablation(
    scope: ExperimentScope,
    nrh: u64,
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
    let configs = vec![
        ("full".to_string(), comet_custom(4, 512, 128, 3, 256, 25)),
        ("no-rat".to_string(), comet_custom(4, 512, 0, 3, 256, 25)),
        ("tiny-rat-8".to_string(), comet_custom(4, 512, 8, 3, 256, 25)),
        // EPRT at 100 % means the early refresh effectively never fires.
        ("no-early-refresh".to_string(), comet_custom(4, 512, 128, 3, 256, 100)),
    ];
    sweep_grid(scope, &configs, &[nrh], backend)
}

#[cfg(test)]
mod tests {
    use super::super::ParallelExecutor;
    use super::*;

    #[test]
    fn fig6_smoke_larger_ct_is_not_worse() {
        let points = fig6_ct_sweep(ExperimentScope::Smoke, 125, &ParallelExecutor::new()).unwrap();
        assert_eq!(points.len(), 4);
        let small = points
            .iter()
            .find(|p| p.configuration == "NHash=1,NCounters=128")
            .unwrap()
            .normalized_ipc_geomean;
        let large = points
            .iter()
            .find(|p| p.configuration == "NHash=4,NCounters=512")
            .unwrap()
            .normalized_ipc_geomean;
        assert!(large + 0.02 >= small, "large CT {large} should not be worse than small CT {small}");
    }

    #[test]
    fn fig9_smoke_produces_points_for_each_k_and_threshold() {
        let points = fig9_k_sweep(ExperimentScope::Smoke, &ParallelExecutor::new()).unwrap();
        assert_eq!(points.len(), 2 * 2);
        assert!(points.iter().all(|p| p.normalized_ipc_geomean > 0.5));
    }
}
