//! Design-space sweeps: Figure 6 (Counter Table), Figure 7 (RAT size),
//! Figure 8 (early preventive refresh), Figure 9 (reset period k), and an
//! ablation that removes CoMeT's Recent Aggressor Table or its early
//! preventive refresh.

use super::{threshold_grid, CellBackend, ExperimentScope};
use crate::metrics::geometric_mean;
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

/// Runs `configs` over `workloads` at every threshold, on one core
/// (`cores <= 1`) or as `cores`-copy homogeneous mixes, and reports one point
/// per (threshold, configuration). Baselines are simulated once per
/// (threshold, workload) and shared by every configuration.
fn sweep(
    scope: ExperimentScope,
    workloads: Vec<String>,
    configs: Vec<(String, MechanismKind)>,
    thresholds: &[u64],
    cores: usize,
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    let grid = threshold_grid(workloads, configs, thresholds, cores, |(_, kind)| *kind);
    let results = backend.run_cells(&runner, grid.cells())?;
    Ok(grid
        .slices(&results)
        .map(|slice| SweepPoint {
            configuration: slice.config.0.clone(),
            nrh: *slice.outer,
            normalized_ipc_geomean: geometric_mean(&slice.normalized_ipc()),
            normalized_energy_geomean: geometric_mean(&slice.normalized_energy()),
        })
        .collect())
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
    sweep(scope, scope.workloads(), configs, &[nrh], 1, backend)
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
    sweep(scope, scope.workloads(), configs, &scope.thresholds(), 1, backend)
}

/// Figure 8: sweep of the early-preventive-refresh threshold (EPRT) and the RAT
/// miss history length on 8-core mixes at NRH = 125.
pub fn fig8_eprt_sweep(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<Vec<SweepPoint>, RunnerError> {
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
    sweep(scope, mixes, configs, &[nrh], cores, backend)
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
    sweep(scope, scope.workloads(), configs, &scope.thresholds(), 1, backend)
}

/// Ablation: the full CoMeT design against CoMeT without the Recent Aggressor
/// Table, with an 8-entry one, and without early preventive refresh, at one
/// threshold.
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
    sweep(scope, scope.workloads(), configs, &[nrh], 1, backend)
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
