//! The full simulated system: cores + sharded memory system + simulation loop.

use crate::controller::{ControllerConfig, ControllerStats};
use crate::cpu::{BlockedOn, CoreConfig, TraceCore};
use crate::memory::MemorySystem;
use crate::metrics::{EngineTelemetry, RunResult};
use crate::registry::RegisteredFactory;
use comet_dram::{ChannelStats, Cycle, DramConfig, EnergyCounters};
use comet_mitigations::MitigationStats;
use comet_trace::TraceSource;

/// Simulation-level configuration: which DRAM preset to use and how long to run.
///
/// `Serialize` feeds the experiment service's canonical cell-key encoding:
/// every field of this struct (transitively) is part of a cached result's
/// identity, so adding a field both changes the serialized form and — by
/// design — invalidates previously cached results.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimConfig {
    /// DRAM device configuration (geometry, timing, energy).
    pub dram: DramConfig,
    /// Memory controller policy (applied to every channel shard).
    pub controller: ControllerConfig,
    /// Core parameters.
    pub core: CoreConfig,
    /// Warmup period in DRAM cycles (statistics are excluded).
    pub warmup_cycles: Cycle,
    /// Measured simulation length in DRAM cycles (after warmup).
    pub sim_cycles: Cycle,
}

impl SimConfig {
    /// The paper's configuration: full DDR4 with a 64 ms refresh window, run
    /// for two CoMeT reset periods (≈ 43 ms) after a short warmup. This is
    /// expensive — use [`SimConfig::quick`] for the default experiment presets.
    pub fn paper_full() -> Self {
        let dram = DramConfig::ddr4_paper_default();
        let window = dram.timing.t_refw;
        SimConfig {
            controller: ControllerConfig::default(),
            core: CoreConfig::default(),
            warmup_cycles: window / 64,
            sim_cycles: 2 * window / 3,
            dram,
        }
    }

    /// The quick preset used by default in the experiment harness: the tracker
    /// reset window (`tREFW`) is scaled down by `refw_divisor` (periodic refresh
    /// cadence `tREFI` is left untouched, so the baseline refresh overhead stays
    /// realistic) and the simulation covers two full CoMeT reset periods of the
    /// scaled window. Trackers reset every scaled window, so rows accumulate
    /// fewer activations between resets than in [`paper_full`](Self::paper_full)
    /// and tracker pressure reads lower; paper-grade figures use the full scope.
    pub fn quick(refw_divisor: u64) -> Self {
        let mut dram = DramConfig::ddr4_paper_default();
        dram.timing.t_refw /= refw_divisor.max(1);
        let window = dram.timing.t_refw;
        SimConfig {
            controller: ControllerConfig::default(),
            core: CoreConfig::default(),
            warmup_cycles: window / 16,
            sim_cycles: 2 * window / 3,
            dram,
        }
    }

    /// A very small configuration for unit and integration tests (hundreds of
    /// microseconds of simulated time).
    pub fn quick_test() -> Self {
        let mut config = Self::quick(64);
        config.warmup_cycles = 20_000;
        config.sim_cycles = 400_000;
        config
    }

    /// Returns this configuration scaled out to `channels` independent memory
    /// channels (builder style). Each channel gets its own controller shard
    /// and mitigation instance; traces interleave their accesses across
    /// channels through the address mapping.
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.dram.geometry = self.dram.geometry.with_channels(channels);
        self
    }

    /// Returns this configuration with `ranks` ranks per channel (builder
    /// style) — the knob the rank-parallelism sweep turns.
    pub fn with_ranks(mut self, ranks: usize) -> Self {
        self.dram.geometry = self.dram.geometry.with_ranks(ranks);
        self
    }

    /// Number of memory channels this configuration simulates.
    pub fn channels(&self) -> usize {
        self.dram.geometry.channels
    }

    /// Validates the configuration, returning human-readable problems (empty = OK).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.dram.validate();
        if self.sim_cycles == 0 {
            problems.push("sim_cycles must be non-zero".to_string());
        }
        problems
    }

    /// Total simulated DRAM cycles (warmup + measurement).
    pub fn total_cycles(&self) -> Cycle {
        self.warmup_cycles + self.sim_cycles
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::quick(8)
    }
}

/// How [`System::run`] advances simulated time.
///
/// Both modes produce bit-identical simulation results: every command issues
/// at the cycle the controllers' next-event bounds dictate, and the dense
/// mode's extra intermediate steps and core advances are no-ops. The
/// equivalence suite (`crates/bench/tests/bitexact_hotpath.rs`) runs the perf
/// basket, the FCFS stress cells, an 8-core mix, the hold-setting
/// mechanisms and short runs that end while a core is stalled under both
/// modes and asserts equal statistics, which keeps the bounds and the core
/// wake rule honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopMode {
    /// Jump straight to the next controller or core event; channel shards
    /// whose cached next-event time has not arrived are not stepped, and a
    /// blocked core is not re-advanced until the event it waits for. The
    /// default, and several times faster.
    #[default]
    EventDriven,
    /// The reference loop of the pre-event-driven simulator: every shard is
    /// stepped and every blocked core re-advanced at every iteration, and
    /// time never advances by more than 512 cycles at once.
    DenseReference,
}

impl LoopMode {
    /// Stable short name, used in the experiment service's canonical
    /// cell-key encoding. Changing a name changes every cache key.
    pub fn name(&self) -> &'static str {
        match self {
            LoopMode::EventDriven => "event",
            LoopMode::DenseReference => "dense",
        }
    }
}

/// What a core's last [`TraceCore::advance`] said, which tells the loop when
/// the next one can do anything.
#[derive(Debug, Clone, Copy)]
enum CoreWait {
    /// Waiting on its own dispatch clock: nothing to do before this cycle.
    Until(Cycle),
    /// Blocked on `on`. `wake` is its [`TraceCore::blocked_wake`];
    /// `dequeues` is the awaited queue's dequeue count when it blocked.
    Blocked { on: BlockedOn, wake: Option<Cycle>, dequeues: u64 },
}

impl CoreWait {
    /// Whether the core must be advanced at `now`. Skipping it otherwise is
    /// bit-exact, because the skipped advance would change nothing:
    /// - a core waiting on its dispatch clock would re-derive the same
    ///   cycle (completions only mark outstanding reads, which
    ///   `note_completion` already did);
    /// - a core refused by a full queue waits for a dequeue from it;
    /// - a core whose window is full waits for a completion, which the loop
    ///   signals by resetting the wait to `Until(now)`, and once its oldest
    ///   read's completion is known, for that read's `blocked_wake` cycle;
    /// - a core blocked on [`BlockedOn::Nothing`] is always due.
    ///
    /// The dense reference loop keeps the old rule and re-advances every
    /// blocked core on every iteration, so the equivalence tests compare the
    /// two rules.
    fn due(&self, now: Cycle, memory: &MemorySystem, mode: LoopMode) -> bool {
        match *self {
            CoreWait::Until(w) => now >= w,
            CoreWait::Blocked { .. } if mode == LoopMode::DenseReference => true,
            CoreWait::Blocked { on: BlockedOn::QueueSlot { channel, is_write }, dequeues, .. } => {
                memory.shard(channel).dequeues(is_write) != dequeues
            }
            CoreWait::Blocked { on: BlockedOn::ReadReturn, wake, .. } => wake.is_some_and(|w| now >= w),
            CoreWait::Blocked { on: BlockedOn::Nothing, .. } => true,
        }
    }

    /// The cycle the loop must run at for this core, if it knows one.
    fn wake(&self) -> Option<Cycle> {
        match *self {
            CoreWait::Until(w) => Some(w),
            CoreWait::Blocked { wake, .. } => wake,
        }
    }
}

/// Snapshot of per-core progress used to exclude warmup from the results.
#[derive(Debug, Clone, Default)]
struct CoreSnapshot {
    instructions: u64,
    reads: u64,
    writes: u64,
}

/// Snapshot of every statistic taken at the warmup boundary, so the measured
/// result covers only the post-warmup window.
struct WarmSnapshot {
    core: Vec<CoreSnapshot>,
    ctrl: ControllerStats,
    energy: EnergyCounters,
    mitigation: MitigationStats,
    channel: ChannelStats,
}

/// The simulated system: a sharded memory system shared by one or more cores.
pub struct System {
    config: SimConfig,
    memory: MemorySystem,
    cores: Vec<TraceCore>,
}

impl System {
    /// Builds a system running `traces` (one per core); `mitigation` builds
    /// one independent mechanism instance per memory-channel shard.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration fails
    /// [`SimConfig::validate`]. The [`Runner`](crate::Runner) validates
    /// configurations up front and returns a `RunnerError` instead.
    pub fn new(config: SimConfig, traces: Vec<Box<dyn TraceSource>>, mitigation: &RegisteredFactory) -> Self {
        assert!(!traces.is_empty(), "at least one core is required");
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid simulation configuration: {problems:?}");
        let memory = MemorySystem::new(config.dram.clone(), config.controller.clone(), mitigation);
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(id, trace)| TraceCore::new(id, trace, config.core.clone(), &config.dram))
            .collect();
        System { config, memory, cores }
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of memory-channel shards.
    pub fn channel_count(&self) -> usize {
        self.memory.channels()
    }

    /// Runs the simulation to completion and returns the measured result
    /// (warmup excluded), advancing time event-driven.
    pub fn run(self, label: impl Into<String>) -> RunResult {
        self.run_with_mode(label, LoopMode::default())
    }

    /// Runs the simulation under an explicit [`LoopMode`]. Results are
    /// bit-identical across modes; only wall-clock time differs.
    pub fn run_with_mode(mut self, label: impl Into<String>, mode: LoopMode) -> RunResult {
        let _span = comet_telemetry::span("sim.run");
        let warmup_end = self.config.warmup_cycles;
        let end = self.config.total_cycles();
        let mut now: Cycle = 0;
        let mut warm = self.warm_snapshot();
        let mut warm_taken = warmup_end == 0;
        // Reused across iterations so the loop allocates nothing per step.
        let mut completions = Vec::new();
        // What each core's last `advance` said; the loop skips a core's
        // advance until what it waits for happens (see `CoreWait::due`).
        let mut waits = vec![CoreWait::Until(0); self.cores.len()];
        // Loop counters, kept in plain locals and folded into the result.
        let mut counts = EngineTelemetry::default();

        while now < end {
            counts.loop_iterations += 1;
            if !warm_taken && now >= warmup_end {
                warm = self.warm_snapshot();
                warm_taken = true;
            }

            completions.clear();
            self.memory.drain_completions_into(&mut completions);
            for completion in &completions {
                self.cores[completion.core].note_completion(completion.id, completion.completion);
                // A returned read is the event a read-blocked core waits for.
                if let CoreWait::Blocked { on: BlockedOn::ReadReturn, .. } = waits[completion.core] {
                    waits[completion.core] = CoreWait::Until(now);
                }
            }
            let mut earliest_core: Option<Cycle> = None;
            for (core, wait) in self.cores.iter_mut().zip(&mut waits) {
                if wait.due(now, &self.memory, mode) {
                    counts.core_advances += 1;
                    *wait = match core.advance(now, &mut self.memory) {
                        Some(w) => CoreWait::Until(w),
                        None => {
                            let on = core.blocked_on();
                            let dequeues = match on {
                                BlockedOn::QueueSlot { channel, is_write } => {
                                    self.memory.shard(channel).dequeues(is_write)
                                }
                                _ => 0,
                            };
                            CoreWait::Blocked { on, wake: core.blocked_wake(), dequeues }
                        }
                    };
                } else if let CoreWait::Blocked { .. } = wait {
                    counts.core_wakes_skipped += 1;
                }
                // A blocked core contributes a wakeup only if it knows one (a
                // pending read-data return); cores waiting on a memory-system
                // event (unknown completion, full queue) are woken by that
                // event, which only a memory tick can cause.
                if let Some(w) = wait.wake() {
                    earliest_core = Some(earliest_core.map_or(w, |e| e.min(w)));
                }
            }
            let memory_next = match mode {
                LoopMode::EventDriven => self.memory.tick(now),
                LoopMode::DenseReference => self.memory.tick_dense(now),
            };

            // Advance time directly to the next memory or core event (never
            // past the warmup boundary). The event times are *sound* lower
            // bounds on when anything can happen: the memory system's
            // next-event cache covers every shard, and each controller's
            // wakeup covers its queues, timing constraints, refresh
            // deadlines, and the mitigation's scheduled tick deadline (the
            // periodic-reset boundaries each mechanism reports through
            // `next_tick_deadline`). Event-driven runs
            // therefore cross memory-idle phases in a single step, without
            // the bounded `now + 512` skip the reference loop keeps. Cores
            // blocked on a full queue report no wakeup of their own: a slot
            // only frees when the controller issues a column command, whose
            // tick returns `now + 1`, so the loop runs again on the very next
            // cycle and re-advances the cores waiting on that queue — the
            // same cycle the dense per-cycle retry probing would first
            // succeed on.
            let mut next = memory_next.max(now + 1);
            if let Some(c) = earliest_core {
                next = next.min(c.max(now + 1));
            }
            if !warm_taken {
                next = next.min(warmup_end);
            }
            now = match mode {
                LoopMode::EventDriven => next.min(end),
                LoopMode::DenseReference => next.min(now + 512).min(end),
            };
        }

        self.assemble(label.into(), &warm, counts)
    }

    /// Snapshots every statistic for warmup exclusion.
    fn warm_snapshot(&self) -> WarmSnapshot {
        WarmSnapshot {
            core: self
                .cores
                .iter()
                .map(|c| CoreSnapshot {
                    instructions: c.instructions(),
                    reads: c.reads_issued(),
                    writes: c.writes_issued(),
                })
                .collect(),
            ctrl: self.memory.stats(),
            energy: self.memory.energy_counters(0),
            mitigation: self.memory.mitigation_stats(),
            channel: self.memory.channel_stats(),
        }
    }

    /// Assembles the measured (post-warmup) result and publishes the run's
    /// telemetry into the process-global metrics registry.
    fn assemble(self, label: String, warm: &WarmSnapshot, counts: EngineTelemetry) -> RunResult {
        let measured_cycles = self.config.total_cycles() - self.config.warmup_cycles;
        let ctrl = self.memory.stats().delta_since(&warm.ctrl);
        let mut energy = self.memory.energy_counters(0).delta_since(&warm.energy);
        energy.elapsed_cycles = measured_cycles;
        let mitigation = self.memory.mitigation_stats().delta_since(&warm.mitigation);
        let channel_now = self.memory.channel_stats();
        let acts = channel_now.acts - warm.channel.acts;

        let timing = &self.config.dram.timing;
        let cpu_cycles = self.cores[0].dram_to_cpu(measured_cycles);
        let per_core_instructions: Vec<u64> =
            self.cores.iter().zip(&warm.core).map(|(c, w)| c.instructions() - w.instructions).collect();
        let per_core_ipc: Vec<f64> = per_core_instructions.iter().map(|&i| i as f64 / cpu_cycles).collect();
        let total_reads: u64 =
            self.cores.iter().zip(&warm.core).map(|(c, w)| c.reads_issued() - w.reads).sum();
        let total_writes: u64 =
            self.cores.iter().zip(&warm.core).map(|(c, w)| c.writes_issued() - w.writes).sum();

        // Background energy scales with every rank of every channel.
        let total_ranks = self.config.dram.geometry.ranks_per_channel * self.config.dram.geometry.channels;
        let energy_breakdown = self.config.dram.energy.breakdown(&energy, timing, total_ranks);

        // End-of-run structure snapshots for the telemetry layer — all cold
        // accessors, gathered once here, never on the simulated path.
        let engine = EngineTelemetry {
            scheduler: self.memory.per_channel_scheduler_pressure(),
            bank_depth_peak: self
                .memory
                .per_channel_bank_queue_depths()
                .iter()
                .map(|lanes| lanes.iter().map(|l| l.depth_peak).max().unwrap_or(0))
                .collect(),
            tracker_gauges: self.memory.per_channel_mitigation_telemetry(),
            ..counts
        };

        let result = RunResult {
            label,
            mechanism: self.memory.mitigation_name().to_string(),
            cores: self.cores.len(),
            dram_cycles: measured_cycles,
            cpu_cycles,
            instructions: per_core_instructions.iter().sum(),
            per_core_ipc: per_core_ipc.clone(),
            ipc: per_core_ipc.iter().sum(),
            reads: total_reads,
            writes: total_writes,
            activations: acts,
            avg_read_latency_ns: timing.cycles_to_ns(1) * ctrl.avg_read_latency(),
            energy_nj: energy_breakdown.total_nj(),
            energy_breakdown,
            controller: ctrl,
            mitigation,
            engine,
        };
        crate::telemetry::publish_run(&result, comet_telemetry::global());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MechanismRegistry;
    use crate::runner::MechanismKind;
    use comet_trace::{catalog, SyntheticTrace};

    fn trace(name: &str, seed: u64, dram: &DramConfig) -> Box<dyn TraceSource> {
        Box::new(SyntheticTrace::new(catalog::workload(name).unwrap(), dram.geometry.clone(), seed))
    }

    /// An unprotected system running `traces`.
    fn baseline(config: SimConfig, traces: Vec<Box<dyn TraceSource>>) -> System {
        let registry = MechanismRegistry::with_defaults();
        let factory = registry.factory(MechanismKind::Baseline, 1000, &config.dram, 1).unwrap();
        System::new(config, traces, &factory)
    }

    #[test]
    fn single_core_run_produces_sane_metrics() {
        let config = SimConfig::quick_test();
        let t = trace("429.mcf", 1, &config.dram);
        let result = baseline(config, vec![t]).run("mcf-baseline");
        assert!(result.ipc > 0.05 && result.ipc < 4.0, "ipc = {}", result.ipc);
        assert!(result.reads > 100, "reads = {}", result.reads);
        assert!(result.activations > 10);
        assert!(result.avg_read_latency_ns > 10.0, "latency = {}", result.avg_read_latency_ns);
        assert!(result.energy_nj > 0.0);
    }

    #[test]
    fn low_intensity_workload_has_higher_ipc_than_high_intensity() {
        let config = SimConfig::quick_test();
        let low = baseline(config.clone(), vec![trace("541.leela", 3, &config.dram)]).run("low");
        let high = baseline(config.clone(), vec![trace("bfs_ny", 3, &config.dram)]).run("high");
        assert!(
            low.ipc > high.ipc,
            "low-intensity IPC {} must exceed high-intensity IPC {}",
            low.ipc,
            high.ipc
        );
    }

    #[test]
    fn eight_core_run_accumulates_per_core_ipc() {
        let mut config = SimConfig::quick_test();
        config.sim_cycles = 150_000;
        let traces: Vec<Box<dyn TraceSource>> =
            (0..8).map(|i| trace("450.soplex", i as u64, &config.dram)).collect();
        let result = baseline(config, traces).run("soplex-x8");
        assert_eq!(result.cores, 8);
        assert_eq!(result.per_core_ipc.len(), 8);
        assert!(result.ipc > 0.0);
        // Shared-channel contention keeps the sum well under 8× the single-core IPC.
        assert!(result.ipc < 16.0);
    }

    #[test]
    fn quick_config_scales_tracker_window_only() {
        let full = SimConfig::paper_full();
        let quick = SimConfig::quick(8);
        assert_eq!(quick.dram.timing.t_refi, full.dram.timing.t_refi);
        assert!(quick.dram.timing.t_refw < full.dram.timing.t_refw);
        assert!(quick.total_cycles() < full.total_cycles());
    }

    #[test]
    fn with_channels_builds_one_shard_per_channel() {
        let config = SimConfig::quick_test().with_channels(2);
        assert_eq!(config.channels(), 2);
        let t = trace("429.mcf", 1, &config.dram);
        assert_eq!(baseline(config, vec![t]).channel_count(), 2);
    }

    #[test]
    fn multi_channel_run_spreads_load_and_improves_bandwidth() {
        let mut config = SimConfig::quick_test();
        config.sim_cycles = 150_000;
        // Eight memory-hungry cores saturate one channel; with four channels
        // the same workload must retire at least as many instructions.
        let one = {
            let traces: Vec<Box<dyn TraceSource>> =
                (0..8).map(|i| trace("bfs_ny", i as u64, &config.dram)).collect();
            baseline(config.clone(), traces).run("one-channel")
        };
        let four_config = config.clone().with_channels(4);
        let four = {
            let traces: Vec<Box<dyn TraceSource>> =
                (0..8).map(|i| trace("bfs_ny", i as u64, &four_config.dram)).collect();
            baseline(four_config, traces).run("four-channels")
        };
        assert!(
            four.ipc > one.ipc,
            "four channels ({}) must outperform one ({}) for a bandwidth-bound mix",
            four.ipc,
            one.ipc
        );
    }
}
