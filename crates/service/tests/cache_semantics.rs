//! Cache-semantics suite: hit / miss / in-flight dedup, overlapping-sweep
//! novelty, error paths, and the bit-exactness of cached results against
//! fresh `Runner` results for the same key.

use comet_service::store::result_projection;
use comet_service::{ExperimentService, FaultPlan, ServiceConfig};
use comet_sim::experiments::{attack_grid, CellBackend, CellSpec, ExperimentScope, ParallelExecutor};
use comet_sim::{MechanismKind, Runner, RunnerError, SimConfig};
use comet_trace::AttackKind;
use std::sync::Arc;
use std::time::Duration;

fn service() -> ExperimentService {
    ExperimentService::new(ParallelExecutor::new())
}

fn smoke_runner() -> Runner {
    Runner::new(ExperimentScope::Smoke.sim_config())
}

fn small_grid() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for workload in ["429.mcf", "473.astar", "bfs_ny"] {
        for mechanism in [MechanismKind::Baseline, MechanismKind::Comet] {
            cells.push(CellSpec::single(workload, mechanism, 1000));
        }
    }
    cells
}

#[test]
fn identical_sweep_resubmission_is_served_entirely_from_cache() {
    let service = service();
    let runner = smoke_runner();
    let cells = small_grid();

    let first = service.run_cells(&runner, &cells).unwrap();
    let cold = service.stats();
    assert_eq!(cold.simulated, cells.len() as u64, "cold run simulates every cell");
    assert_eq!(cold.cache_hits, 0);

    let second = service.run_cells(&runner, &cells).unwrap();
    let warm = service.stats().delta_since(&cold);
    // The acceptance property: zero simulations, hit counter == cell count.
    assert_eq!(warm.simulated, 0, "warm resubmission must not simulate");
    assert_eq!(warm.cache_hits, cells.len() as u64);
    assert_eq!(warm.cells_requested, cells.len() as u64);

    for (a, b) in first.iter().zip(&second) {
        assert_eq!(result_projection(a), result_projection(b), "cached results are bit-identical");
    }
}

#[test]
fn overlapping_sweeps_rerun_only_their_novel_cells() {
    // The adversarial grid shares attacked baselines between studies: after a
    // CoMeT-only request, a CoMeT+Hydra request must only simulate Hydra's
    // protected runs (the baselines and CoMeT runs are warm).
    let service = service();
    let runner = smoke_runner();
    let workloads: Vec<String> = vec!["429.mcf".to_string(), "473.astar".to_string()];
    let attack = AttackKind::Traditional { rows_per_bank: 8 };

    let comet_only = attack_grid(workloads.clone(), &[(MechanismKind::Comet, attack, 500)]);
    service.run_cells(&runner, comet_only.cells()).unwrap();
    let after_first = service.stats();
    assert_eq!(after_first.simulated, 2 * workloads.len() as u64, "baselines + CoMeT runs");

    let both = attack_grid(
        workloads.clone(),
        &[(MechanismKind::Comet, attack, 500), (MechanismKind::Hydra, attack, 500)],
    );
    // The grid enumerates the shared baseline twice (once per study) and the
    // warm CoMeT cells again; only Hydra's runs are novel.
    service.run_cells(&runner, both.cells()).unwrap();
    let delta = service.stats().delta_since(&after_first);
    assert_eq!(delta.simulated, workloads.len() as u64, "only the novel Hydra cells simulate");
    assert_eq!(delta.cells_requested, both.cells().len() as u64);
    assert!(delta.batch_shared >= workloads.len() as u64, "duplicate baselines shared in-batch");
}

#[test]
fn concurrent_identical_requests_dedup_in_flight() {
    let service = service();
    let runner = smoke_runner();
    let cells = small_grid();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| service.run_cells(&runner, &cells).unwrap());
        }
    });
    let stats = service.stats();
    assert_eq!(
        stats.simulated,
        cells.len() as u64,
        "four concurrent identical requests must simulate each unique cell exactly once"
    );
    assert_eq!(stats.cells_requested, 4 * cells.len() as u64);
    assert_eq!(stats.failed, 0);
}

#[test]
fn cached_results_equal_fresh_runner_results_bit_exactly() {
    let service = service();
    let runner = smoke_runner();
    let cell = CellSpec::single("462.libquantum", MechanismKind::Comet, 125);

    let via_service = service.run_cells(&runner, std::slice::from_ref(&cell)).unwrap();
    let cached = service.run_cells(&runner, std::slice::from_ref(&cell)).unwrap();
    let fresh = cell.run(&runner).unwrap();

    let expected = result_projection(&fresh);
    assert_eq!(result_projection(&via_service[0]), expected);
    assert_eq!(result_projection(&cached[0]), expected);
    assert_eq!(service.stats().simulated, 1);
}

#[test]
fn failed_cells_report_errors_without_poisoning_the_cache() {
    let service = service();
    let runner = smoke_runner();
    let good = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
    let bad = CellSpec::single("no-such-workload", MechanismKind::Baseline, 1000);

    let error = service.run_cells(&runner, &[good.clone(), bad.clone()]).unwrap_err();
    assert_eq!(error, RunnerError::UnknownWorkload("no-such-workload".to_string()));
    let stats = service.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.simulated, 1, "the good sibling still completed and cached");

    // The good cell is warm; the bad cell fails again (it was released, not cached).
    let error = service.run_cells(&runner, &[good, bad]).unwrap_err();
    assert_eq!(error, RunnerError::UnknownWorkload("no-such-workload".to_string()));
    let delta = service.stats().delta_since(&stats);
    assert_eq!(delta.cache_hits, 1);
    assert_eq!(delta.simulated, 0);
    assert_eq!(delta.failed, 1);
}

#[test]
fn different_runner_identities_never_share_cells() {
    let service = service();
    let cell = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
    let base = Runner::new(SimConfig::quick_test());
    let other_seed = Runner::with_seed(SimConfig::quick_test(), 7);

    service.run_cells(&base, std::slice::from_ref(&cell)).unwrap();
    service.run_cells(&other_seed, std::slice::from_ref(&cell)).unwrap();
    assert_eq!(service.stats().simulated, 2, "a different seed is a different cell identity");
}

/// An owner whose cell keeps panicking releases its claim, and a call that
/// was waiting on it claims the cell and simulates it. The worker gate holds
/// the owner until the waiter is known to wait, so the re-claim always runs.
#[test]
fn a_waiter_reclaims_a_cell_whose_owner_failed() {
    let runner = smoke_runner();
    let cell = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
    // Default config: 3 attempts, so the owner spends every scripted panic.
    let plan = Arc::new(FaultPlan::new().panic_on(cell.label(), 3));
    let service = ExperimentService::with_fault_plan(
        ParallelExecutor::serial(),
        None,
        ServiceConfig::default(),
        plan.clone(),
    )
    .unwrap();
    plan.hold_workers();

    let (owner, waiter) = std::thread::scope(|scope| {
        let owner = scope.spawn(|| service.run_cells(&runner, std::slice::from_ref(&cell)));
        while plan.workers_held() != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let waiter = scope.spawn(|| service.run_cells(&runner, std::slice::from_ref(&cell)));
        while service.stats().inflight_waits != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        plan.release_workers();
        (owner.join().unwrap(), waiter.join().unwrap())
    });

    assert_eq!(owner.unwrap_err(), RunnerError::WorkerPanic { label: cell.label(), attempts: 3 });
    let fresh = cell.run(&runner).unwrap();
    assert_eq!(result_projection(&waiter.unwrap()[0]), result_projection(&fresh));
    let stats = service.stats();
    assert_eq!((stats.inflight_waits, stats.failed, stats.simulated, stats.worker_retries), (1, 1, 1, 2));
}
