//! The fixed hot-path performance basket.
//!
//! One basket = a fixed cross of workloads × channel counts × mechanisms,
//! simulated with a fixed seed and threshold. Two consumers share it:
//!
//! * the `perf` binary, which times the basket and records accesses/sec,
//!   cells/sec, wall-clock and a checksum per cell into a snapshot such as
//!   `BENCH_hotpath.json`. The bench-smoke CI job runs it on the reduced
//!   (`Smoke`) basket and fails through `perf --diff … --max-regress` on
//!   large throughput regressions and on any checksum drift;
//! * the bit-exactness regression suite
//!   (`crates/bench/tests/bitexact_hotpath.rs`), which asserts that the
//!   simulation *statistics* of every smoke cell match golden checksums
//!   recorded before the hot-path optimization — proving that performance
//!   work never changes simulated behavior.
//!
//! The basket definition is deliberately the single source of truth: changing
//! a cell here invalidates both the golden checksums and the recorded
//! baseline, which is exactly the reminder a future editor needs.

use comet_sim::{LoopMode, MechanismKind, RunResult, Runner, RunnerError, SimConfig};
use comet_trace::AttackKind;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Seed every basket cell runs with (the runner's default experiment seed).
pub const HOTPATH_SEED: u64 = 0xC0E7;

/// RowHammer threshold every basket cell defends against. Low enough that the
/// trackers do real work (preventive refreshes, RAT traffic) on the attack
/// cells.
pub const HOTPATH_NRH: u64 = 250;

/// Which slice of the basket to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotpathScope {
    /// Reduced cell count and simulation length: the bit-exactness suite and
    /// the CI bench-smoke job.
    Smoke,
    /// The full basket: the committed baseline numbers.
    Full,
}

impl HotpathScope {
    /// Measured simulation length in DRAM cycles for each cell.
    pub fn sim_cycles(self) -> u64 {
        match self {
            HotpathScope::Smoke => 120_000,
            HotpathScope::Full => 400_000,
        }
    }

    /// Tracker-window (`tREFW`) divisor for each cell's [`SimConfig::quick`]
    /// base. The smoke scope shrinks the window hard so that periodic tracker
    /// resets — a behavior the event-driven simulation loop must reproduce
    /// cycle-exactly — happen within its short runs.
    pub fn refw_divisor(self) -> u64 {
        match self {
            HotpathScope::Smoke => 512,
            HotpathScope::Full => 64,
        }
    }

    /// Display name (`smoke` / `full`).
    pub fn name(self) -> &'static str {
        match self {
            HotpathScope::Smoke => "smoke",
            HotpathScope::Full => "full",
        }
    }
}

/// The workload half of a basket cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// A single-core synthetic trace from the Table 3 catalog.
    Synthetic(&'static str),
    /// A benign core plus an attacker core hammering `rows_per_bank` rows.
    Attack {
        /// The benign workload sharing the system with the attacker.
        benign: &'static str,
        /// Aggressor rows per bank the attacker cycles through.
        rows_per_bank: usize,
    },
}

impl CellWorkload {
    fn label(&self) -> String {
        match self {
            CellWorkload::Synthetic(name) => (*name).to_string(),
            // The historical basket only uses 4 rows per bank; its labels key
            // the golden checksum table and the committed baseline, so the
            // row count is spelled out only for the non-default stress cells.
            CellWorkload::Attack { benign, rows_per_bank: 4 } => format!("{benign}+attack"),
            CellWorkload::Attack { benign, rows_per_bank } => format!("{benign}+attack{rows_per_bank}"),
        }
    }
}

/// One basket cell: a workload on a channel count under a mechanism.
#[derive(Debug, Clone, Copy)]
pub struct HotpathCell {
    /// The traces driving the cores.
    pub workload: CellWorkload,
    /// Memory channels (one controller + mitigation shard each).
    pub channels: usize,
    /// The RowHammer mitigation protecting every shard.
    pub mechanism: MechanismKind,
    /// The RowHammer threshold the cell defends against
    /// ([`HOTPATH_NRH`] for the historical basket).
    pub nrh: u64,
}

impl HotpathCell {
    /// Stable cell label, e.g. `429.mcf/ch2/CoMeT`. Cells at a non-default
    /// threshold (the FCFS stress cells) get an `@nrh…` suffix so the
    /// historical basket labels stay byte-identical.
    pub fn label(&self) -> String {
        let base = format!("{}/ch{}/{}", self.workload.label(), self.channels, self.mechanism.name());
        if self.nrh == HOTPATH_NRH {
            base
        } else {
            format!("{base}@nrh{}", self.nrh)
        }
    }

    /// The RowHammer threshold this cell defends against.
    pub fn nrh(&self, _scope: HotpathScope) -> u64 {
        self.nrh
    }

    /// The simulation configuration this cell runs under `scope`.
    pub fn sim_config(&self, scope: HotpathScope) -> SimConfig {
        let mut config = SimConfig::quick(scope.refw_divisor()).with_channels(self.channels);
        config.warmup_cycles = 20_000;
        config.sim_cycles = scope.sim_cycles();
        config
    }

    /// Runs the cell to completion with the default (event-driven) loop.
    ///
    /// # Errors
    ///
    /// Returns a [`RunnerError`] when the workload or mechanism cannot be
    /// resolved (the fixed basket never triggers this for the built-ins).
    pub fn run(&self, scope: HotpathScope) -> Result<RunResult, RunnerError> {
        self.run_with_mode(scope, LoopMode::default())
    }

    /// Runs the cell under an explicit simulation-loop mode. The equivalence
    /// suite runs cells under both modes and asserts identical statistics.
    ///
    /// # Errors
    ///
    /// Returns a [`RunnerError`] when the workload or mechanism cannot be
    /// resolved (the fixed basket never triggers this for the built-ins).
    pub fn run_with_mode(&self, scope: HotpathScope, mode: LoopMode) -> Result<RunResult, RunnerError> {
        self.run_on(Runner::with_seed(self.sim_config(scope), HOTPATH_SEED).with_loop_mode(mode), scope)
    }

    fn run_on(&self, runner: Runner, scope: HotpathScope) -> Result<RunResult, RunnerError> {
        let nrh = self.nrh(scope);
        match self.workload {
            CellWorkload::Synthetic(name) => runner.run_single_core(name, self.mechanism, nrh),
            CellWorkload::Attack { benign, rows_per_bank } => runner.run_with_attacker(
                benign,
                AttackKind::Traditional { rows_per_bank },
                self.mechanism,
                nrh,
            ),
        }
    }
}

/// The fixed basket for `scope`, in a stable order.
pub fn basket(scope: HotpathScope) -> Vec<HotpathCell> {
    let workloads: &[CellWorkload] = match scope {
        HotpathScope::Smoke => &[
            CellWorkload::Synthetic("429.mcf"),
            CellWorkload::Attack { benign: "473.astar", rows_per_bank: 4 },
        ],
        HotpathScope::Full => &[
            CellWorkload::Synthetic("429.mcf"),
            CellWorkload::Synthetic("450.soplex"),
            CellWorkload::Synthetic("541.leela"),
            CellWorkload::Attack { benign: "473.astar", rows_per_bank: 4 },
        ],
    };
    let mechanisms = [MechanismKind::Baseline, MechanismKind::Graphene, MechanismKind::Comet];
    let mut cells = Vec::new();
    for &workload in workloads {
        for channels in [1usize, 2, 4] {
            for mechanism in mechanisms {
                cells.push(HotpathCell { workload, channels, mechanism, nrh: HOTPATH_NRH });
            }
        }
    }
    cells
}

/// RowHammer threshold of the FCFS stress cells: high enough that the
/// trackers almost never fire, so the request queues stay saturated with
/// demand traffic and the cells measure (and pin) pure FR-FCFS arbitration.
pub const STRESS_NRH: u64 = 50_000;

/// The FCFS-ordering stress cells: queue-saturating multi-bank attacks at a
/// high RowHammer threshold. The attacker round-robins 16 aggressor rows per
/// bank across every bank as fast as the protocol allows, keeping the
/// 64-entry queues full of row conflicts spread over all lanes — the
/// worst case for the per-bank scheduler's arbitration and exactly the
/// regime where a FCFS-ordering bug would surface. The bit-exactness suite
/// runs these under both loop modes and pins their golden checksums.
pub fn stress_basket() -> Vec<HotpathCell> {
    let workload = CellWorkload::Attack { benign: "bfs_ny", rows_per_bank: 16 };
    let mut cells = Vec::new();
    for channels in [1usize, 2] {
        for mechanism in [MechanismKind::Baseline, MechanismKind::Comet] {
            cells.push(HotpathCell { workload, channels, mechanism, nrh: STRESS_NRH });
        }
    }
    cells
}

fn mix(h: &mut u64, value: u64) {
    *h ^= value;
    *h = h.wrapping_mul(0x100_0000_01b3);
}

/// Deterministic FNV-1a-style checksum over every integer statistic of a run
/// (controller, channel-command, and tracker counters) plus the bit patterns
/// of the per-core IPC values. Two runs with the same checksum completed the
/// same reads/writes with the same latency sums, issued the same refreshes,
/// and drove the trackers identically.
pub fn stats_checksum(result: &RunResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    mix(&mut h, result.cores as u64);
    mix(&mut h, result.dram_cycles);
    mix(&mut h, result.instructions);
    mix(&mut h, result.reads);
    mix(&mut h, result.writes);
    mix(&mut h, result.activations);
    let c = &result.controller;
    for v in [
        c.reads_completed,
        c.writes_completed,
        c.read_latency_sum,
        c.preventive_refreshes_done,
        c.rank_refreshes_done,
        c.periodic_refreshes,
        c.throttled_acts,
        c.metadata_accesses,
    ] {
        mix(&mut h, v);
    }
    let m = &result.mitigation;
    for v in [
        m.activations_observed,
        m.preventive_refreshes,
        m.aggressors_identified,
        m.early_rank_refreshes,
        m.counter_reads,
        m.counter_writes,
        m.throttled_activations,
        m.throttle_cycles,
        m.periodic_resets,
    ] {
        mix(&mut h, v);
    }
    for ipc in &result.per_core_ipc {
        mix(&mut h, ipc.to_bits());
    }
    h
}

/// Timing and checksum of one executed basket cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Stable cell label.
    pub label: String,
    /// Memory channels simulated.
    pub channels: usize,
    /// Mechanism name.
    pub mechanism: String,
    /// Demand accesses completed (reads + writes), warmup excluded.
    pub accesses: u64,
    /// Measured DRAM cycles simulated.
    pub dram_cycles: u64,
    /// Wall-clock seconds spent simulating the cell.
    pub wall_s: f64,
    /// Simulated demand accesses per wall-clock second.
    pub accesses_per_sec: f64,
    /// [`stats_checksum`] of the run.
    pub checksum: u64,
}

/// Aggregate result of one basket execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BasketResult {
    /// `smoke` or `full`.
    pub scope: String,
    /// Wall-clock seconds for the whole basket.
    pub wall_s: f64,
    /// Total demand accesses across cells.
    pub accesses: u64,
    /// Accesses per second across the whole basket (the headline metric).
    pub accesses_per_sec: f64,
    /// Cells completed per second.
    pub cells_per_sec: f64,
    /// Per-cell details.
    pub cells: Vec<CellResult>,
}

/// Runs every cell of the `scope` basket serially (perf numbers must not be
/// confounded by parallel cell execution) and aggregates the results.
///
/// # Errors
///
/// Propagates the first [`RunnerError`] a cell reports.
pub fn run_basket(scope: HotpathScope) -> Result<BasketResult, RunnerError> {
    let _span = comet_telemetry::span("perf.basket");
    let cells = basket(scope);
    let started = Instant::now();
    let results = run_cells(&cells, scope)?;
    let wall_s = started.elapsed().as_secs_f64();
    let accesses: u64 = results.iter().map(|r| r.accesses).sum();
    Ok(BasketResult {
        scope: scope.name().to_string(),
        wall_s,
        accesses,
        accesses_per_sec: if wall_s > 0.0 { accesses as f64 / wall_s } else { 0.0 },
        cells_per_sec: if wall_s > 0.0 { results.len() as f64 / wall_s } else { 0.0 },
        cells: results,
    })
}

/// Runs an arbitrary list of cells serially under `scope`, timing each.
///
/// # Errors
///
/// Propagates the first [`RunnerError`] a cell reports.
pub fn run_cells(cells: &[HotpathCell], scope: HotpathScope) -> Result<Vec<CellResult>, RunnerError> {
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let cell_start = Instant::now();
        let run = cell.run(scope)?;
        let wall_s = cell_start.elapsed().as_secs_f64();
        let accesses = run.controller.reads_completed + run.controller.writes_completed;
        results.push(CellResult {
            label: cell.label(),
            channels: cell.channels,
            mechanism: cell.mechanism.name().to_string(),
            accesses,
            dram_cycles: run.dram_cycles,
            wall_s,
            accesses_per_sec: if wall_s > 0.0 { accesses as f64 / wall_s } else { 0.0 },
            checksum: stats_checksum(&run),
        });
    }
    Ok(results)
}

/// Wall-clock timing of one experiment-suite target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetTiming {
    /// Target name (`fig16`, `fig13_15`, ...).
    pub name: String,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

/// Aggregate result of the macro benchmark: the full experiment suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteResult {
    /// Total wall-clock seconds across all targets.
    pub wall_s: f64,
    /// Per-target timings.
    pub targets: Vec<TargetTiming>,
}

/// Runs every simulation-driven target of the experiment suite (smoke scope,
/// serial executor — bit-reproducible and unconfounded by thread scheduling)
/// and reports wall-clock per target. This is the macro benchmark: the time a
/// user waits for `experiments --scope smoke --serial all`, dominated by
/// exactly the per-access simulation loop the hot-path work targets.
///
/// # Errors
///
/// Propagates the first [`RunnerError`] a target reports.
pub fn run_suite_smoke_serial() -> Result<SuiteResult, RunnerError> {
    use comet_sim::experiments::{self, ExperimentScope, ParallelExecutor};
    let scope = ExperimentScope::Smoke;
    let executor = ParallelExecutor::serial();
    let mut targets: Vec<TargetTiming> = Vec::new();
    let started = Instant::now();
    let mut timed =
        |name: &str, wall: f64| targets.push(TargetTiming { name: name.to_string(), wall_s: wall });

    macro_rules! run {
        ($name:literal, $call:expr) => {{
            let t = Instant::now();
            let _ = $call?;
            timed($name, t.elapsed().as_secs_f64());
        }};
    }
    run!("fig3", experiments::comparison::fig3_hydra_motivation(scope, &executor));
    run!("fig4", experiments::radar_fig4(scope, &executor));
    run!("fig6_nrh1000", experiments::fig6_ct_sweep(scope, 1000, &executor));
    run!("fig7", experiments::fig7_rat_sweep(scope, &executor));
    run!("fig8", experiments::fig8_eprt_sweep(scope, &executor));
    run!("fig9", experiments::fig9_k_sweep(scope, &executor));
    run!("fig10_11", experiments::fig10_fig11_singlecore(scope, &executor));
    run!("fig12_14", experiments::fig12_fig14_comparison(scope, &executor));
    run!("fig13_15", experiments::fig13_fig15_multicore(scope, &executor));
    run!("fig16", experiments::fig16_adversarial(scope, &executor));
    run!("fig18", experiments::comparison::fig18_blockhammer(scope, &executor));
    run!("highnrh", experiments::singlecore::high_threshold_singlecore(scope, &executor));
    run!("ablation", experiments::sweeps::ablation(scope, 125, &executor));
    Ok(SuiteResult { wall_s: started.elapsed().as_secs_f64(), targets })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basket_is_stable_and_covers_the_advertised_cross() {
        let smoke = basket(HotpathScope::Smoke);
        let full = basket(HotpathScope::Full);
        // workloads × channels × mechanisms.
        assert_eq!(smoke.len(), 2 * 3 * 3);
        assert_eq!(full.len(), 4 * 3 * 3);
        // The smoke basket is a subset of the full basket's labels.
        let full_labels: Vec<String> = full.iter().map(HotpathCell::label).collect();
        for cell in &smoke {
            assert!(full_labels.contains(&cell.label()), "{} missing from full basket", cell.label());
        }
        // Labels are unique (they key the golden checksum table).
        let mut labels: Vec<String> = full_labels.clone();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), full_labels.len());
    }

    #[test]
    fn checksum_distinguishes_different_stats() {
        let cell = basket(HotpathScope::Smoke)[0];
        let run = cell.run(HotpathScope::Smoke).expect("basket cell runs");
        let mut tweaked = run.clone();
        tweaked.controller.read_latency_sum += 1;
        assert_ne!(stats_checksum(&run), stats_checksum(&tweaked));
        assert_eq!(stats_checksum(&run), stats_checksum(&run.clone()));
    }
}
