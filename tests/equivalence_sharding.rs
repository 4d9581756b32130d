//! Sharding-equivalence tests: the channel-sharded `MemorySystem` with
//! `channels = 1` must reproduce the legacy single-controller simulator
//! *exactly* — same IPC, same completed reads/writes, same preventive-refresh
//! counts — and a parallel experiment sweep must be bit-identical to the
//! serial one, cell for cell.

use comet::dram::Cycle;
use comet::mitigations::MitigationStats;
use comet::sim::experiments::{comparison::comparison_for, ExperimentScope, ParallelExecutor};
use comet::sim::{
    ControllerStats, MechanismKind, MechanismRegistry, MemoryController, RegisteredFactory, Runner,
    SimConfig, System, TraceCore,
};
use comet::trace::{catalog, SyntheticTrace, TraceSource};

/// What the legacy (pre-sharding) simulator reported for one run.
#[derive(Debug, PartialEq)]
struct ReferenceResult {
    instructions: Vec<u64>,
    reads_issued: u64,
    writes_issued: u64,
    controller: ControllerStats,
    mitigation: MitigationStats,
    activations: u64,
}

/// The single-controller simulation loop exactly as `System::run` performed it
/// before the memory system was sharded (warmup omitted: the configs below use
/// `warmup_cycles = 0`, so the legacy warmup snapshot logic is a no-op).
fn run_reference(
    config: &SimConfig,
    mut traces: Vec<Box<dyn TraceSource>>,
    factory: &RegisteredFactory,
) -> ReferenceResult {
    assert_eq!(config.warmup_cycles, 0, "the reference loop models the zero-warmup path");
    assert_eq!(config.channels(), 1, "the reference loop drives exactly one controller");
    let mut controller =
        MemoryController::new(config.dram.clone(), config.controller.clone(), factory.build(0));
    let mut cores: Vec<TraceCore> = traces
        .drain(..)
        .enumerate()
        .map(|(id, trace)| TraceCore::new(id, trace, config.core.clone(), &config.dram))
        .collect();

    let end = config.total_cycles();
    let mut now: Cycle = 0;
    let mut completions = Vec::new();
    while now < end {
        controller.drain_completions_into(&mut completions);
        for completion in completions.drain(..) {
            cores[completion.core].note_completion(completion.id, completion.completion);
        }
        let mut earliest_core: Option<Cycle> = None;
        for core in &mut cores {
            let wake = core.advance(now, &mut controller);
            if let Some(w) = wake.or_else(|| core.next_wake()) {
                earliest_core = Some(earliest_core.map_or(w, |e| e.min(w)));
            }
        }
        let controller_next = controller.tick(now);
        let mut next = controller_next.max(now + 1);
        if let Some(c) = earliest_core {
            next = next.min(c.max(now + 1));
        }
        now = next.min(now + 512).min(end);
    }

    ReferenceResult {
        instructions: cores.iter().map(|c| c.instructions()).collect(),
        reads_issued: cores.iter().map(|c| c.reads_issued()).sum(),
        writes_issued: cores.iter().map(|c| c.writes_issued()).sum(),
        controller: controller.stats(),
        mitigation: controller.mitigation_stats(),
        activations: controller.channel_stats().acts,
    }
}

fn config() -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.warmup_cycles = 0;
    config.sim_cycles = 300_000;
    config
}

fn traces(workload: &str, cores: usize, config: &SimConfig) -> Vec<Box<dyn TraceSource>> {
    (0..cores)
        .map(|core| {
            let seed = 0xC0E7 ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Box::new(SyntheticTrace::new(
                catalog::workload(workload).expect("catalog workload"),
                config.dram.geometry.clone(),
                seed,
            )) as Box<dyn TraceSource>
        })
        .collect()
}

/// Compares the sharded system against the reference loop for one
/// (workload, mechanism, cores) combination.
fn assert_sharding_equivalent(workload: &str, kind: MechanismKind, cores: usize, nrh: u64) {
    let config = config();
    let registry = MechanismRegistry::with_defaults();
    let factory = registry.factory(kind, nrh, &config.dram, 0xC0E7).expect("registered mechanism");

    let reference = run_reference(&config, traces(workload, cores, &config), &factory);
    let sharded = System::new(config.clone(), traces(workload, cores, &config), &factory).run(workload);

    assert_eq!(
        sharded.instructions,
        reference.instructions.iter().sum::<u64>(),
        "{workload}/{kind:?}: instruction counts diverged"
    );
    assert_eq!(sharded.reads, reference.reads_issued, "{workload}/{kind:?}: reads diverged");
    assert_eq!(sharded.writes, reference.writes_issued, "{workload}/{kind:?}: writes diverged");
    assert_eq!(sharded.controller, reference.controller, "{workload}/{kind:?}: controller stats diverged");
    assert_eq!(sharded.mitigation, reference.mitigation, "{workload}/{kind:?}: mitigation stats diverged");
    assert_eq!(sharded.activations, reference.activations, "{workload}/{kind:?}: activations diverged");
}

#[test]
fn single_channel_sharded_system_reproduces_legacy_results_baseline() {
    assert_sharding_equivalent("429.mcf", MechanismKind::Baseline, 1, 1000);
}

#[test]
fn single_channel_sharded_system_reproduces_legacy_results_comet() {
    assert_sharding_equivalent("bfs_ny", MechanismKind::Comet, 1, 125);
}

#[test]
fn single_channel_sharded_system_reproduces_legacy_results_probabilistic() {
    // PARA's decisions come from the seeded per-channel RNG: channel 0 keeps
    // the legacy seed, so even the probabilistic mechanism must match exactly.
    assert_sharding_equivalent("473.astar", MechanismKind::Para, 1, 125);
}

#[test]
fn single_channel_sharded_system_reproduces_legacy_results_multicore() {
    assert_sharding_equivalent("450.soplex", MechanismKind::Comet, 4, 250);
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial_sweep() {
    let mechanisms = [MechanismKind::Comet, MechanismKind::Graphene, MechanismKind::Para];
    let serial =
        comparison_for(ExperimentScope::Smoke, &mechanisms, &[1000, 125], &ParallelExecutor::serial())
            .expect("serial sweep");
    let parallel =
        comparison_for(ExperimentScope::Smoke, &mechanisms, &[1000, 125], &ParallelExecutor::with_threads(8))
            .expect("parallel sweep");
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.mechanism, p.mechanism);
        assert_eq!(s.nrh, p.nrh);
        assert_eq!(s.per_workload_ipc, p.per_workload_ipc, "cell {}/{} diverged", s.mechanism, s.nrh);
        assert_eq!(s.ipc, p.ipc);
        assert_eq!(s.energy, p.energy);
    }
}

#[test]
fn repeated_runs_of_the_sharded_runner_are_deterministic() {
    for channels in [1usize, 2] {
        let config = SimConfig::quick_test().with_channels(channels);
        let a = Runner::with_seed(config.clone(), 7)
            .run_single_core("473.astar", MechanismKind::Comet, 250)
            .unwrap();
        let b = Runner::with_seed(config, 7).run_single_core("473.astar", MechanismKind::Comet, 250).unwrap();
        assert_eq!(a.instructions, b.instructions, "channels={channels}");
        assert_eq!(a.activations, b.activations);
        assert_eq!(a.mitigation, b.mitigation);
        assert!((a.ipc - b.ipc).abs() < 1e-12);
    }
}
