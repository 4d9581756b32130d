//! Experiment cells as data.
//!
//! A *cell* is one full simulation — a workload placement, a mitigation
//! mechanism, and a RowHammer threshold. Every experiment family lays its
//! cells out as [`CellSpec`] values (a [`Grid`](super::Grid) for all but the
//! mixed-intensity study) and reads its figure/table data back from the
//! per-cell [`RunResult`]s, instead of closing over an executor. That
//! split is what lets the experiment service (crate `comet-service`) schedule,
//! deduplicate, and memoize cells: a cell's full identity — spec plus the
//! [`Runner`]'s configuration, seed, and loop mode — is a content-addressable
//! cache key, and anything that can run cells can serve any experiment.
//!
//! [`CellBackend`] is the execution seam. [`ParallelExecutor`] implements it
//! directly (fan out, run everything); the service implements it with a
//! result cache and in-flight deduplication in front of the same executor.

use super::ParallelExecutor;
use crate::metrics::RunResult;
use crate::runner::{MechanismKind, Runner, RunnerError};
use comet_trace::AttackKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How a cell places its workload(s) on cores.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// One workload on one core.
    Single {
        /// Workload name from the Table 3 catalog.
        workload: String,
    },
    /// A homogeneous multi-core mix: `cores` copies of one workload.
    Homogeneous {
        /// Workload name from the Table 3 catalog.
        workload: String,
        /// Number of cores (= copies).
        cores: usize,
    },
    /// A benign workload on core 0 plus an attacker trace on core 1.
    Attacked {
        /// Benign workload name from the Table 3 catalog.
        workload: String,
        /// The attack pattern the second core executes.
        attack: AttackKind,
    },
    /// A heterogeneous multi-core mix: one named workload per core, in core
    /// order (the mixed medium/high-intensity families). `name` labels the
    /// mix in reports; the workload list is the simulated identity.
    Mix {
        /// Mix name used in reports (e.g. `mixMH03`).
        name: String,
        /// One Table 3 workload name per core.
        workloads: Vec<String>,
    },
}

/// One experiment cell: a workload placement under a mechanism at a threshold.
///
/// Equality and hashing cover the full spec; together with a runner identity
/// (config, seed, loop mode) this is the content-addressed cache key the
/// experiment service memoizes results under.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellSpec {
    /// Workload placement.
    pub workload: WorkloadSpec,
    /// Mitigation mechanism.
    pub mechanism: MechanismKind,
    /// RowHammer threshold.
    pub nrh: u64,
}

impl CellSpec {
    /// A single-core cell.
    pub fn single(workload: impl Into<String>, mechanism: MechanismKind, nrh: u64) -> Self {
        CellSpec { workload: WorkloadSpec::Single { workload: workload.into() }, mechanism, nrh }
    }

    /// A homogeneous multi-core cell.
    pub fn homogeneous(
        workload: impl Into<String>,
        cores: usize,
        mechanism: MechanismKind,
        nrh: u64,
    ) -> Self {
        CellSpec { workload: WorkloadSpec::Homogeneous { workload: workload.into(), cores }, mechanism, nrh }
    }

    /// A benign-plus-attacker cell.
    pub fn attacked(
        workload: impl Into<String>,
        attack: AttackKind,
        mechanism: MechanismKind,
        nrh: u64,
    ) -> Self {
        CellSpec { workload: WorkloadSpec::Attacked { workload: workload.into(), attack }, mechanism, nrh }
    }

    /// A heterogeneous multi-core mix cell (one workload per core).
    pub fn mix(name: impl Into<String>, workloads: Vec<String>, mechanism: MechanismKind, nrh: u64) -> Self {
        CellSpec { workload: WorkloadSpec::Mix { name: name.into(), workloads }, mechanism, nrh }
    }

    /// Runs this cell on `runner`. Deterministic: the result depends only on
    /// the spec and the runner's identity (config, seed, loop mode).
    pub fn run(&self, runner: &Runner) -> Result<RunResult, RunnerError> {
        match &self.workload {
            WorkloadSpec::Single { workload } => runner.run_single_core(workload, self.mechanism, self.nrh),
            WorkloadSpec::Homogeneous { workload, cores } => {
                runner.run_homogeneous(workload, *cores, self.mechanism, self.nrh)
            }
            WorkloadSpec::Attacked { workload, attack } => {
                runner.run_with_attacker(workload, *attack, self.mechanism, self.nrh)
            }
            WorkloadSpec::Mix { name, workloads } => {
                runner.run_mix(name, workloads, self.mechanism, self.nrh)
            }
        }
    }

    /// Human-readable cell label (`workload/mechanism/nrh`-style), for logs
    /// and service-side progress reporting.
    pub fn label(&self) -> String {
        let placement = match &self.workload {
            WorkloadSpec::Single { workload } => workload.clone(),
            WorkloadSpec::Homogeneous { workload, cores } => format!("{workload}-x{cores}"),
            WorkloadSpec::Attacked { workload, .. } => format!("{workload}+attack"),
            WorkloadSpec::Mix { name, .. } => name.clone(),
        };
        format!("{placement}/{}/nrh{}", self.mechanism.name(), self.nrh)
    }
}

/// Anything that can execute a batch of experiment cells for a runner.
///
/// Implementations must be deterministic per cell: duplicate specs in one
/// batch (or across batches with the same runner identity) may legally be
/// simulated once and their result shared — [`ParallelExecutor`]'s
/// implementation dedupes within a batch, and the experiment service also
/// memoizes across batches.
pub trait CellBackend: Sync {
    /// Runs every cell, returning results in cell order. The first failing
    /// cell's error (by batch order) is returned if any cell fails.
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError>;
}

impl CellBackend for ParallelExecutor {
    /// Fans the batch's *unique* cells out over the worker pool and fans
    /// results back to every occurrence. The in-batch dedupe is what makes
    /// grids free to enumerate overlapping cells (e.g. the adversarial
    /// studies' shared attacked baselines) without hand-rolled key tracking.
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError> {
        let mut unique: Vec<&CellSpec> = Vec::with_capacity(cells.len());
        let mut position: HashMap<&CellSpec, usize> = HashMap::with_capacity(cells.len());
        let slot: Vec<usize> = cells
            .iter()
            .map(|cell| {
                *position.entry(cell).or_insert_with(|| {
                    unique.push(cell);
                    unique.len() - 1
                })
            })
            .collect();
        let results = self.try_run(&unique, |_, cell| cell.run(runner))?;
        Ok(slot.into_iter().map(|index| results[index].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    #[test]
    fn labels_are_stable_and_descriptive() {
        let cell = CellSpec::single("429.mcf", MechanismKind::Comet, 1000);
        assert_eq!(cell.label(), "429.mcf/CoMeT/nrh1000");
        let mix = CellSpec::homogeneous("429.mcf", 4, MechanismKind::Baseline, 500);
        assert_eq!(mix.label(), "429.mcf-x4/Baseline/nrh500");
        let attacked = CellSpec::attacked(
            "473.astar",
            AttackKind::Traditional { rows_per_bank: 8 },
            MechanismKind::Para,
            125,
        );
        assert_eq!(attacked.label(), "473.astar+attack/PARA/nrh125");
    }

    #[test]
    fn executor_backend_dedupes_within_a_batch() {
        let runner = Runner::new(SimConfig::quick_test());
        let a = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
        let b = CellSpec::single("473.astar", MechanismKind::Baseline, 1000);
        let batch = vec![a.clone(), b.clone(), a.clone(), a];
        let results = ParallelExecutor::serial().run_cells(&runner, &batch).unwrap();
        assert_eq!(results.len(), 4);
        // Duplicates share one simulation: bit-identical stats.
        assert_eq!(results[0].instructions, results[2].instructions);
        assert_eq!(results[0].ipc, results[3].ipc);
        assert_ne!(results[0].label, results[1].label);
    }

    #[test]
    fn cell_errors_propagate() {
        let runner = Runner::new(SimConfig::quick_test());
        let bad = CellSpec::single("no-such-workload", MechanismKind::Baseline, 1000);
        let err = ParallelExecutor::serial().run_cells(&runner, &[bad]).unwrap_err();
        assert_eq!(err, RunnerError::UnknownWorkload("no-such-workload".to_string()));
    }
}
