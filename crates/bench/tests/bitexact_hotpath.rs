//! Bit-exactness regression suite for the simulation hot path.
//!
//! Two layers of protection:
//!
//! 1. **Loop equivalence (runtime-proved).** Every cell of the smoke perf
//!    basket runs under both simulation-loop modes — the event-driven loop
//!    (next-event caches, unbounded idle skipping) and the dense reference
//!    loop of the pre-event-driven simulator (every shard stepped every
//!    iteration, 512-cycle bounded skip) — and their complete statistics
//!    checksums must be identical. This proves the controllers' next-event
//!    bounds sound: if a bound ever let the event-driven loop skip a cycle
//!    where a command could issue, the modes would diverge here.
//! 2. **Golden pinning.** The event-driven results are additionally pinned to
//!    committed golden checksums over the full integer statistics —
//!    reads/writes completed, latency sums, preventive and periodic
//!    refreshes, throttling, metadata traffic, tracker counters, and
//!    per-core IPC bit patterns — so unintended behavioral drift is caught
//!    even if it affects both modes equally.
//!
//! Any legitimate behavioral change to the simulator must regenerate the
//! golden tables via `cargo run -p comet-bench --release --bin perf --
//! --print-goldens` and justify the diff in review.
//!
//! The FCFS stress cells extend both layers to the per-bank scheduler's
//! worst case: queue-saturating multi-bank attacks at a high RowHammer
//! threshold, where the 64-entry queues stay full of row conflicts spread
//! over every bank lane and the arbitration order (arrival seq within and
//! across banks) is the entire story. Randomized enqueue-interleaving
//! coverage lives in `fcfs_interleavings.rs` alongside this suite.

use comet_bench::hotpath::{
    basket, stats_checksum, stress_basket, CellWorkload, HotpathCell, HotpathScope, HOTPATH_SEED,
};
use comet_sim::{LoopMode, MechanismKind, RunResult, Runner, SimConfig};

// Generated by `cargo run -p comet-bench --release --bin perf -- --print-goldens`.
const GOLDEN_SMOKE_CHECKSUMS: &[(&str, u64)] = &[
    ("429.mcf/ch1/Baseline", 0x17450226fc1acb42),
    ("429.mcf/ch1/Graphene", 0x1740fa26fc16d4d3),
    ("429.mcf/ch1/CoMeT", 0x17309e26fc209194),
    ("429.mcf/ch2/Baseline", 0x563dc1f382796a97),
    ("429.mcf/ch2/Graphene", 0x5635f1f38271ea79),
    ("429.mcf/ch2/CoMeT", 0x564721f3824f9983),
    ("429.mcf/ch4/Baseline", 0x06879773052691af),
    ("429.mcf/ch4/Graphene", 0x06910f73052b1bf3),
    ("429.mcf/ch4/CoMeT", 0x0648577304d23137),
    ("473.astar+attack/ch1/Baseline", 0x4c40d0b9ac15f7ca),
    ("473.astar+attack/ch1/Graphene", 0x3404b99f73899e82),
    ("473.astar+attack/ch1/CoMeT", 0x535dea34fce8bcd5),
    ("473.astar+attack/ch2/Baseline", 0xb0b1aceb81205fa6),
    ("473.astar+attack/ch2/Graphene", 0x97c743f3769e353f),
    ("473.astar+attack/ch2/CoMeT", 0x01326bdfd80a0c1f),
    ("473.astar+attack/ch4/Baseline", 0x8e384e9ef5e83a94),
    ("473.astar+attack/ch4/Graphene", 0x1209f9329e639b9b),
    ("473.astar+attack/ch4/CoMeT", 0xc455ac125ecc1634),
];

// Generated by `cargo run -p comet-bench --release --bin perf -- --print-goldens`.
const GOLDEN_STRESS_CHECKSUMS: &[(&str, u64)] = &[
    ("bfs_ny+attack16/ch1/Baseline@nrh50000", 0xb7e4bfbeee326593),
    ("bfs_ny+attack16/ch1/CoMeT@nrh50000", 0xe86765bef82c18cd),
    ("bfs_ny+attack16/ch2/Baseline@nrh50000", 0x27a799af2fb78540),
    ("bfs_ny+attack16/ch2/CoMeT@nrh50000", 0x1464fdaea0a2a81c),
];

/// RowHammer threshold of the wake-rule cells below: low enough that
/// BlockHammer throttles and Hydra's counters spill to DRAM within the run.
const WAKE_RULE_NRH: u64 = 125;

/// Runs the cells that cover what the event-driven loop's wake rules touch
/// beyond the smoke basket, under `mode`:
/// - an 8-core homogeneous mix, where many cores block at once, on full
///   queues and on their own reads;
/// - Hydra and BlockHammer under attack at 1 and 4 channels, the mechanisms
///   whose metadata holds and ACT throttling delay requests in the queues;
/// - short single-core runs whose end falls while a blocked core's dispatch
///   clock has already passed a returned read. Such a core makes progress
///   on its next advance, before its `blocked_wake` cycle, and the
///   instructions it dispatches there count toward the run. The lengths were
///   found by scanning: a wake rule that waits for `blocked_wake` in that
///   state diverges on them.
///
/// The mix runs 60k measured cycles instead of `quick_test`'s 400k, and the
/// attack cells run the smoke basket's length, to keep the suite cheap.
fn wake_rule_runs(mode: LoopMode) -> Vec<(String, RunResult)> {
    let mut config = SimConfig::quick_test();
    config.sim_cycles = 60_000;
    let runner = Runner::with_seed(config, HOTPATH_SEED).with_loop_mode(mode);
    let mix = runner.run_homogeneous("450.soplex", 8, MechanismKind::Comet, WAKE_RULE_NRH).expect("mix runs");
    let mut runs = vec![("450.soplex-x8/CoMeT@nrh125".to_string(), mix)];
    for channels in [1usize, 4] {
        for mechanism in [MechanismKind::Hydra, MechanismKind::BlockHammer] {
            let cell = HotpathCell {
                workload: CellWorkload::Attack { benign: "473.astar", rows_per_bank: 4 },
                channels,
                mechanism,
                nrh: WAKE_RULE_NRH,
            };
            runs.push((cell.label(), cell.run_with_mode(HotpathScope::Smoke, mode).expect("cell runs")));
        }
    }
    let mut short = SimConfig::quick_test();
    short.warmup_cycles = 2_000;
    for (workload, lengths) in [("429.mcf", 100..=110), ("450.soplex", 920..=930)] {
        for sim_cycles in lengths {
            short.sim_cycles = sim_cycles;
            let runner = Runner::with_seed(short.clone(), HOTPATH_SEED).with_loop_mode(mode);
            let run = runner.run_single_core(workload, MechanismKind::Baseline, WAKE_RULE_NRH).expect("run");
            runs.push((format!("{workload}/Baseline/2000+{sim_cycles}"), run));
        }
    }
    runs
}

#[test]
fn event_driven_loop_matches_dense_reference_loop() {
    let mut failures = Vec::new();
    let mut compare = |label: String, event: &RunResult, dense: &RunResult| {
        if stats_checksum(event) != stats_checksum(dense) {
            failures.push(format!(
                "{label}: event {:?} (checksum {:016x}) != dense {:?} (checksum {:016x})",
                event.controller,
                stats_checksum(event),
                dense.controller,
                stats_checksum(dense),
            ));
        }
    };
    for cell in basket(HotpathScope::Smoke) {
        let event = cell.run_with_mode(HotpathScope::Smoke, LoopMode::EventDriven).expect("cell runs");
        let dense = cell.run_with_mode(HotpathScope::Smoke, LoopMode::DenseReference).expect("cell runs");
        compare(cell.label(), &event, &dense);
    }
    let event_runs = wake_rule_runs(LoopMode::EventDriven);
    for ((label, event), (_, dense)) in event_runs.iter().zip(wake_rule_runs(LoopMode::DenseReference)) {
        compare(label.clone(), event, &dense);
    }
    assert!(
        failures.is_empty(),
        "event-driven loop diverged from the dense reference loop:\n{}",
        failures.join("\n")
    );
    // Guard the wake-rule inputs' own premise: if a future trace or
    // mechanism change stopped them from blocking cores or holding requests,
    // the comparison would lose its teeth.
    let (_, mix) = &event_runs[0];
    assert!(
        mix.engine.core_wakes_skipped > mix.engine.core_advances,
        "the 8-core mix must skip most of the old rule's blocked-core advances: {:?}",
        mix.engine
    );
    for (label, run) in &event_runs {
        let held = match run.mechanism.as_str() {
            "Hydra" => run.controller.metadata_accesses,
            "BlockHammer" => run.controller.throttled_acts,
            _ => continue,
        };
        assert!(held > 0, "{label} must hold requests: {:?}", run.controller);
    }
}

#[test]
fn smoke_basket_stats_match_goldens() {
    let cells = basket(HotpathScope::Smoke);
    assert_eq!(
        cells.len(),
        GOLDEN_SMOKE_CHECKSUMS.len(),
        "basket changed shape: regenerate the golden table with `perf --print-goldens`"
    );
    let mut failures = Vec::new();
    for (cell, &(label, expected)) in cells.iter().zip(GOLDEN_SMOKE_CHECKSUMS) {
        assert_eq!(cell.label(), label, "basket order changed: regenerate the golden table");
        let run = cell.run(HotpathScope::Smoke).expect("basket cell must run");
        let actual = stats_checksum(&run);
        if actual != expected {
            failures.push(format!(
                "{label}: checksum {actual:016x} != golden {expected:016x} \
                 (reads={} latency_sum={} prev_refreshes={} resets={})",
                run.controller.reads_completed,
                run.controller.read_latency_sum,
                run.controller.preventive_refreshes_done,
                run.mitigation.periodic_resets,
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "simulation statistics diverged from the golden checksums:\n{}",
        failures.join("\n")
    );
}

#[test]
fn stress_cells_match_dense_reference_and_goldens() {
    let cells = stress_basket();
    assert_eq!(
        cells.len(),
        GOLDEN_STRESS_CHECKSUMS.len(),
        "stress basket changed shape: regenerate the golden table with `perf --print-goldens`"
    );
    let mut failures = Vec::new();
    for (cell, &(label, expected)) in cells.iter().zip(GOLDEN_STRESS_CHECKSUMS) {
        assert_eq!(cell.label(), label, "stress basket order changed: regenerate the golden table");
        let event = cell.run_with_mode(HotpathScope::Smoke, LoopMode::EventDriven).expect("cell runs");
        let dense = cell.run_with_mode(HotpathScope::Smoke, LoopMode::DenseReference).expect("cell runs");
        if stats_checksum(&event) != stats_checksum(&dense) {
            failures.push(format!(
                "{label}: event checksum {:016x} != dense checksum {:016x}",
                stats_checksum(&event),
                stats_checksum(&dense),
            ));
        }
        if stats_checksum(&event) != expected {
            failures.push(format!(
                "{label}: checksum {:016x} != golden {expected:016x} (reads={} acts={})",
                stats_checksum(&event),
                event.controller.reads_completed,
                event.activations,
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "FCFS stress cells diverged from the dense reference or the goldens:\n{}",
        failures.join("\n")
    );
}

#[test]
fn stress_cells_saturate_the_queues() {
    // Guard the stress cells' own premise: a high threshold keeps the
    // trackers quiet while the attacker keeps the controller queues full of
    // row conflicts — the regime the per-bank scheduler is stressed by.
    let cell = stress_basket().into_iter().next().expect("stress basket non-empty");
    let run = cell.run(HotpathScope::Smoke).expect("stress cell runs");
    assert_eq!(run.controller.preventive_refreshes_done, 0, "nRH must be high enough to keep trackers quiet");
    assert!(
        run.activations > run.dram_cycles / 40,
        "attack must keep activations flowing (acts={} cycles={})",
        run.activations,
        run.dram_cycles
    );
    // Saturation itself, not just throughput: with the read queue full of
    // conflicts, a read's latency is dominated by queueing delay — the cell
    // measures ~220 ns against a ~30 ns unloaded row-miss latency. If a
    // future trace change let the queues run shallow, latency would collapse
    // toward the unloaded figure and this guard would catch it. (The value
    // is deterministic: it derives from the same golden-pinned statistics.)
    assert!(
        run.avg_read_latency_ns > 150.0,
        "queues no longer saturate: avg read latency {} ns is near the unloaded latency",
        run.avg_read_latency_ns
    );
}

#[test]
fn goldens_cover_resets_refreshes_and_multi_channel() {
    // Guard the suite's own coverage: if a future basket edit stops
    // exercising tracker resets or preventive refreshes, the golden table
    // would silently lose its teeth.
    let cells = basket(HotpathScope::Smoke);
    assert!(cells.iter().any(|c| c.channels == 4), "multi-channel coverage lost");
    let comet_attack = cells
        .iter()
        .find(|c| c.label() == "473.astar+attack/ch1/CoMeT")
        .expect("attack cell present")
        .run(HotpathScope::Smoke)
        .expect("attack cell runs");
    assert!(comet_attack.mitigation.periodic_resets > 0, "smoke window must include a tracker reset");
    assert!(comet_attack.controller.preventive_refreshes_done > 0, "attack must trigger refreshes");
}
