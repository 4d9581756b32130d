//! Figure 16: performance of benign workloads running concurrently with
//! RowHammer attacks (a traditional attack and mechanism-targeted attacks).

use super::{CellBackend, CellSpec, ExperimentScope, Grid};
use crate::metrics::{normalized_distribution, DistributionSummary};
use crate::runner::{MechanismKind, Runner, RunnerError};
use comet_trace::AttackKind;
use serde::Serialize;

/// Benign-core performance under attack for one mechanism.
#[derive(Debug, Clone, Serialize)]
pub struct AdversarialCell {
    /// Mechanism name.
    pub mechanism: String,
    /// Attack description.
    pub attack: String,
    /// Normalized benign-core IPC distribution across workloads.
    pub benign_ipc: DistributionSummary,
}

/// The Figure 16 dataset.
#[derive(Debug, Clone, Serialize)]
pub struct AdversarialResult {
    /// Part (a): traditional RowHammer attack at NRH = 500.
    pub traditional: Vec<AdversarialCell>,
    /// Part (b): attacks targeting CoMeT's RAT and Hydra's group counters at NRH = 125.
    pub targeted: Vec<AdversarialCell>,
}

fn attack_label(kind: AttackKind) -> String {
    match kind {
        AttackKind::Traditional { rows_per_bank } => format!("traditional({rows_per_bank} rows/bank)"),
        AttackKind::CometTargeted { rows_per_bank } => format!("comet-targeted({rows_per_bank} rows/bank)"),
        AttackKind::HydraTargeted { groups_per_bank, .. } => {
            format!("hydra-targeted({groups_per_bank} groups/bank)")
        }
    }
}

/// The cell grid of `studies`, each a (mechanism, attack, nrh) triple, over
/// `workloads`: per study, an attacked baseline and a protected run per
/// workload.
///
/// The baseline is the same benign workload plus the same attacker on an
/// unprotected system, so the normalization isolates the mitigation's cost
/// (matching the paper, which normalizes to the no-mitigation system).
/// Studies sharing an (attack, nrh) pair — e.g. every mechanism under the
/// traditional attack — enumerate *identical* baseline cells; the grid does
/// not deduplicate them, because every [`CellBackend`] already shares
/// duplicate cells (in-batch for the plain executor, cross-request through
/// the experiment service's result cache).
pub fn attack_grid(
    workloads: Vec<String>,
    studies: &[(MechanismKind, AttackKind, u64)],
) -> Grid<(MechanismKind, AttackKind, u64), ()> {
    Grid::new(studies.to_vec(), vec![()], workloads, |&(mechanism, attack, nrh), run, workload| {
        let mechanism = if run.is_some() { mechanism } else { MechanismKind::Baseline };
        CellSpec::attacked(workload, attack, mechanism, nrh)
    })
}

/// Runs every (mechanism, attack, nrh) attack study over `workloads` through
/// `backend`, normalizing the benign core's IPC to its attacked baseline.
fn attack_cells(
    runner: &Runner,
    workloads: &[String],
    studies: &[(MechanismKind, AttackKind, u64)],
    backend: &dyn CellBackend,
) -> Result<Vec<AdversarialCell>, RunnerError> {
    let grid = attack_grid(workloads.to_vec(), studies);
    let results = backend.run_cells(runner, grid.cells())?;
    Ok(grid
        .slices(&results)
        .map(|slice| {
            let &(mechanism, attack, _) = slice.outer;
            let benign_ipc: Vec<f64> = slice
                .runs
                .iter()
                .map(|(_, baseline, run)| {
                    if baseline.per_core_ipc[0] > 0.0 {
                        run.per_core_ipc[0] / baseline.per_core_ipc[0]
                    } else {
                        1.0
                    }
                })
                .collect();
            AdversarialCell {
                mechanism: mechanism.name().to_string(),
                attack: attack_label(attack),
                benign_ipc: normalized_distribution(&benign_ipc),
            }
        })
        .collect())
}

/// Figure 16: (a) benign workloads + a traditional attack under every mechanism
/// at NRH = 500; (b) benign workloads + mechanism-targeted attacks for CoMeT and
/// Hydra at NRH = 125.
pub fn fig16_adversarial(
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<AdversarialResult, RunnerError> {
    let runner = Runner::new(scope.sim_config());
    // Attack studies focus on medium/high intensity benign workloads.
    let workloads: Vec<String> = scope.workloads().into_iter().take(scope.mix_count().max(4)).collect();

    let traditional_attack = AttackKind::Traditional { rows_per_bank: 8 };
    let mechanisms: Vec<MechanismKind> = match scope {
        ExperimentScope::Smoke => vec![MechanismKind::Comet, MechanismKind::Hydra],
        _ => MechanismKind::comparison_set(),
    };
    let traditional_studies: Vec<(MechanismKind, AttackKind, u64)> =
        mechanisms.iter().map(|&m| (m, traditional_attack, 500)).collect();
    let traditional = attack_cells(&runner, &workloads, &traditional_studies, backend)?;

    let targeted_studies = [
        (MechanismKind::Comet, AttackKind::CometTargeted { rows_per_bank: 512 }, 125),
        (MechanismKind::Hydra, AttackKind::HydraTargeted { groups_per_bank: 64, rows_per_group: 128 }, 125),
    ];
    let targeted = attack_cells(&runner, &workloads, &targeted_studies, backend)?;

    Ok(AdversarialResult { traditional, targeted })
}

#[cfg(test)]
mod tests {
    use super::super::ParallelExecutor;
    use super::*;

    #[test]
    fn smoke_adversarial_produces_cells() {
        let result = fig16_adversarial(ExperimentScope::Smoke, &ParallelExecutor::new()).unwrap();
        assert_eq!(result.traditional.len(), 2);
        assert_eq!(result.targeted.len(), 2);
        for cell in result.traditional.iter().chain(&result.targeted) {
            assert!(cell.benign_ipc.geomean > 0.1, "{cell:?}");
            assert!(cell.benign_ipc.geomean <= 1.2, "{cell:?}");
        }
    }

    #[test]
    fn shared_baselines_are_enumerated_per_study_and_deduped_by_the_backend() {
        // Two studies under the same (attack, nrh): the grid enumerates the
        // attacked baseline twice per workload; backends collapse them.
        let attack = AttackKind::Traditional { rows_per_bank: 4 };
        let studies = [(MechanismKind::Comet, attack, 500), (MechanismKind::Hydra, attack, 500)];
        let grid = attack_grid(vec!["429.mcf".to_string()], &studies);
        let baselines: Vec<_> =
            grid.cells().iter().filter(|c| c.mechanism == MechanismKind::Baseline).collect();
        assert_eq!(baselines.len(), 2);
        assert_eq!(baselines[0], baselines[1], "shared baselines must be identical specs");
    }
}
