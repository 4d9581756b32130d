//! The outside-in traced simulation: a benchmark-side copy of the serial
//! event loop (`System::run`), built only from public items, with calls into
//! each layer bracketed by timeline boundaries.
//!
//! * `trace`: a [`TraceSource`] wrapper around each core's trace.
//! * `cpu`: [`TraceCore::advance`], minus the nested trace and enqueue time.
//! * `controller`: [`MemorySink`] calls plus [`MemorySystem::tick`], minus
//!   the nested tracker time.
//! * `tracker`: a [`RowHammerMitigation`] wrapper registered for every key
//!   through [`MechanismRegistry::register`]; it forwards every method and
//!   times the ones that do per-activation or per-tick work.
//!
//! The timeline reads one clock value per boundary and charges the interval
//! since the previous boundary to the layer on top of a small stack, so every
//! tick of the traced wall lands in exactly one layer. A clock read costs
//! about as much as a small layer call, so two things keep it from
//! distorting the split:
//!
//! * Sampling: only a random 1 in [`SAMPLE_EVERY`] loop iterations is timed,
//!   in full detail; the others run with no boundary at all. Each layer's
//!   time is estimated from the sampled iterations with a ratio estimator
//!   (see [`Profile::estimate`]).
//! * Correction: [`calibrate`] measures what one boundary costs with this
//!   very code, and half of it is subtracted for every boundary a layer's
//!   intervals start or end at.

use crate::util::{median, ticks};
use comet_dram::{ChannelStats, Cycle, DramAddr};
use comet_mitigations::{MitigationResponse, MitigationStats, RowHammerMitigation};
use comet_sim::experiments::{CellSpec, WorkloadSpec};
use comet_sim::{MechanismRegistry, MemRequest, MemorySink, MemorySystem, RunResult, SimConfig, TraceCore};
use comet_trace::{catalog, AttackTrace, SyntheticTrace, TraceRecord, TraceSource};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// One loop iteration in this many is timed.
pub const SAMPLE_EVERY: u64 = 16;

/// Timeline layers. `UNSAMPLED` is the base: everything outside a timed
/// iteration or set-up span. `ITER` is the loop's own code inside timed
/// iterations; `SETUP` is system construction and result assembly.
const UNSAMPLED: usize = 0;
const ITER: usize = 1;
const SETUP: usize = 2;
pub const CPU: usize = 3;
pub const TRACE: usize = 4;
pub const CTRL_TICK: usize = 5;
pub const CTRL_ENQ: usize = 6;
pub const TRACKER_ACT: usize = 7;
pub const TRACKER_TICK: usize = 8;
pub const TRACKER_OTHER: usize = 9;
const CALIBRATION: usize = 10;
const LAYERS: usize = 11;

/// Layers nested in timed iterations, whose times the estimator scales.
const IN_ITERATION: [usize; 8] =
    [ITER, CPU, TRACE, CTRL_TICK, CTRL_ENQ, TRACKER_ACT, TRACKER_TICK, TRACKER_OTHER];

/// Event counters kept beside the timeline, counted on every call.
pub const ACTS: usize = 0;
pub const NOPS: usize = 1;
pub const RESPONSES: usize = 2;
pub const QUEUE_FULL: usize = 3;
pub const ACT_CALLS: usize = 4;
const COUNTERS: usize = 5;

struct Timeline {
    /// Whether the current iteration is timed.
    on: Cell<bool>,
    cur: Cell<u8>,
    depth: Cell<u8>,
    stack: [Cell<u8>; 8],
    last: Cell<u64>,
    acc: [Cell<u64>; LAYERS],
    touches: [Cell<u64>; LAYERS],
    calls: [Cell<u64>; LAYERS],
    counts: [Cell<u64>; COUNTERS],
}

thread_local! {
    static TIMELINE: Timeline = const {
        Timeline {
            on: Cell::new(false),
            cur: Cell::new(UNSAMPLED as u8),
            depth: Cell::new(0),
            stack: [const { Cell::new(0) }; 8],
            last: Cell::new(0),
            acc: [const { Cell::new(0) }; LAYERS],
            touches: [const { Cell::new(0) }; LAYERS],
            calls: [const { Cell::new(0) }; LAYERS],
            counts: [const { Cell::new(0) }; COUNTERS],
        }
    };
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get().wrapping_add(by));
}

/// Charges the interval since the last boundary to the current layer and
/// makes `layer` current.
#[inline(always)]
fn enter(layer: usize) {
    let now = ticks();
    TIMELINE.with(|tl| {
        let cur = tl.cur.get() as usize;
        bump(&tl.acc[cur], now.wrapping_sub(tl.last.get()));
        bump(&tl.touches[cur], 1);
        bump(&tl.touches[layer], 1);
        bump(&tl.calls[layer], 1);
        let depth = tl.depth.get() as usize;
        tl.stack[depth].set(cur as u8);
        tl.depth.set(depth as u8 + 1);
        tl.cur.set(layer as u8);
        tl.last.set(now);
    });
}

/// Charges the interval since the last boundary to the current layer and
/// returns to the layer that was current before the matching [`enter`].
#[inline(always)]
fn exit() {
    let now = ticks();
    TIMELINE.with(|tl| {
        let cur = tl.cur.get() as usize;
        bump(&tl.acc[cur], now.wrapping_sub(tl.last.get()));
        bump(&tl.touches[cur], 1);
        let depth = tl.depth.get() as usize - 1;
        let prev = tl.stack[depth].get();
        bump(&tl.touches[prev as usize], 1);
        tl.depth.set(depth as u8);
        tl.cur.set(prev);
        tl.last.set(now);
    });
}

/// Runs `f` as a call into `layer`, bracketed by boundaries when the current
/// iteration is timed.
#[inline(always)]
fn timed<R>(layer: usize, f: impl FnOnce() -> R) -> R {
    if !TIMELINE.with(|tl| tl.on.get()) {
        return f();
    }
    enter(layer);
    let result = f();
    exit();
    result
}

fn set_on(on: bool) {
    TIMELINE.with(|tl| tl.on.set(on));
}

#[inline(always)]
fn count(counter: usize, by: u64) {
    TIMELINE.with(|tl| bump(&tl.counts[counter], by));
}

/// Everything the timeline recorded over one session, in ticks.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    acc: [u64; LAYERS],
    touches: [u64; LAYERS],
    /// Timed calls per layer (sampled iterations only).
    pub calls: [u64; LAYERS],
    /// Event counts over every call.
    pub counts: [u64; COUNTERS],
}

impl Profile {
    /// Self time of `layer` with the clock cost removed: half a boundary
    /// for every boundary its intervals start or end at.
    pub fn self_ticks(&self, layer: usize, boundary_ticks: f64) -> f64 {
        (self.acc[layer] as f64 - self.touches[layer] as f64 * boundary_ticks / 2.0).max(0.0)
    }

    /// Estimated self time of every layer over the whole run. Within timed
    /// iterations the split is exact; the untimed iterations' time is
    /// shared out in the same proportions (a ratio estimator over randomly
    /// sampled iterations). The loop's estimate includes set-up.
    pub fn estimate(&self, boundary_ticks: f64) -> [f64; LAYERS] {
        let sampled: f64 = IN_ITERATION.iter().map(|&l| self.self_ticks(l, boundary_ticks)).sum();
        let total = sampled + self.self_ticks(UNSAMPLED, boundary_ticks);
        let scale = if sampled > 0.0 { total / sampled } else { 0.0 };
        let mut estimate = [0.0; LAYERS];
        for &layer in &IN_ITERATION {
            estimate[layer] = self.self_ticks(layer, boundary_ticks) * scale;
        }
        estimate[ITER] += self.self_ticks(SETUP, boundary_ticks);
        estimate
    }

    pub fn add(&mut self, other: &Profile) {
        for i in 0..LAYERS {
            self.acc[i] += other.acc[i];
            self.touches[i] += other.touches[i];
            self.calls[i] += other.calls[i];
        }
        for i in 0..COUNTERS {
            self.counts[i] += other.counts[i];
        }
    }
}

/// The loop's share: its own code in timed iterations (scaled) plus set-up.
pub const LOOP: usize = ITER;

fn begin_session() {
    TIMELINE.with(|tl| {
        tl.on.set(false);
        tl.cur.set(UNSAMPLED as u8);
        tl.depth.set(0);
        for i in 0..LAYERS {
            tl.acc[i].set(0);
            tl.touches[i].set(0);
            tl.calls[i].set(0);
        }
        for c in &tl.counts {
            c.set(0);
        }
        tl.last.set(ticks());
    });
}

fn end_session() -> Profile {
    let now = ticks();
    TIMELINE.with(|tl| {
        assert_eq!(tl.depth.get(), 0, "unbalanced timeline boundaries");
        bump(&tl.acc[UNSAMPLED], now.wrapping_sub(tl.last.get()));
        bump(&tl.touches[UNSAMPLED], 1);
        let mut profile = Profile::default();
        for i in 0..LAYERS {
            profile.acc[i] = tl.acc[i].get();
            profile.touches[i] = tl.touches[i].get();
            profile.calls[i] = tl.calls[i].get();
        }
        for i in 0..COUNTERS {
            profile.counts[i] = tl.counts[i].get();
        }
        profile
    })
}

/// Ticks one enter/exit boundary costs, measured by running empty boundary
/// pairs through the same timeline code (median of several batches). An
/// empty pair's interval holds the second half of one boundary and the first
/// half of the next, i.e. one whole boundary.
pub fn calibrate() -> f64 {
    const PAIRS: u64 = 50_000;
    let mut samples = Vec::new();
    for _ in 0..9 {
        begin_session();
        for _ in 0..PAIRS {
            enter(CALIBRATION);
            exit();
        }
        let profile = end_session();
        samples.push(profile.acc[CALIBRATION] as f64 / PAIRS as f64);
    }
    median(&samples)
}

/// A trace wrapper timing every record the core pulls.
struct TimedTrace(Box<dyn TraceSource>);

impl TraceSource for TimedTrace {
    fn next_record(&mut self) -> TraceRecord {
        timed(TRACE, || self.0.next_record())
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A mechanism wrapper: forwards every method, times the per-activation,
/// per-tick, and refresh notifications, and counts activations and nop
/// responses. The cheap accessors the controller polls are forwarded
/// untimed; their cost stays in the controller's share.
struct TimedTracker(Box<dyn RowHammerMitigation>);

fn note_responses(responses: &[MitigationResponse]) {
    let nops = responses.iter().filter(|r| r.is_nop()).count() as u64;
    count(NOPS, nops);
    count(RESPONSES, responses.len() as u64);
}

impl RowHammerMitigation for TimedTracker {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        let response = timed(TRACKER_ACT, || self.0.on_activation(addr, now, weight));
        count(ACTS, 1);
        count(ACT_CALLS, 1);
        note_responses(std::slice::from_ref(&response));
        response
    }

    fn on_activations(&mut self, batch: &[(DramAddr, Cycle, u64)]) -> Vec<MitigationResponse> {
        let responses = timed(TRACKER_ACT, || self.0.on_activations(batch));
        count(ACTS, batch.len() as u64);
        count(ACT_CALLS, 1);
        note_responses(&responses);
        responses
    }

    fn on_periodic_refresh(&mut self, rank: usize, now: Cycle) {
        timed(TRACKER_OTHER, || self.0.on_periodic_refresh(rank, now));
    }

    fn on_tick(&mut self, now: Cycle) {
        timed(TRACKER_TICK, || self.0.on_tick(now));
    }

    fn next_tick_deadline(&self) -> Cycle {
        self.0.next_tick_deadline()
    }

    fn on_rank_refreshed(&mut self, rank: usize, now: Cycle) {
        timed(TRACKER_OTHER, || self.0.on_rank_refreshed(rank, now));
    }

    fn act_latency_penalty(&self) -> Cycle {
        self.0.act_latency_penalty()
    }

    fn stats(&self) -> MitigationStats {
        self.0.stats()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }

    fn storage_bits(&self) -> u64 {
        self.0.storage_bits()
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        self.0.telemetry_gauges()
    }

    fn quiescent_activations(&self) -> u64 {
        self.0.quiescent_activations()
    }

    fn checkpoint(&self) -> Box<dyn RowHammerMitigation> {
        Box::new(TimedTracker(self.0.checkpoint()))
    }

    fn restore(&mut self, checkpoint: &dyn RowHammerMitigation) {
        let inner =
            &checkpoint.as_any().downcast_ref::<TimedTracker>().expect("checkpoint of a timed tracker").0;
        self.0.restore(inner.as_ref());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The default registry with every key re-registered behind [`TimedTracker`].
pub fn timed_registry() -> MechanismRegistry {
    let base = Arc::new(MechanismRegistry::with_defaults());
    let mut registry = MechanismRegistry::empty();
    for key in base.keys() {
        let base = base.clone();
        registry.register(key, move |spec, channel| {
            let kind = spec.kind.expect("the traced loop resolves mechanisms by kind");
            let inner =
                base.build(kind, spec.nrh, &spec.dram, spec.seed, channel).expect("key is registered");
            Box::new(TimedTracker(inner))
        });
    }
    registry
}

/// The memory-system side of `TraceCore::advance`, timed as controller work.
struct TimedSink<'a>(&'a mut MemorySystem);

impl MemorySink for TimedSink<'_> {
    fn can_accept(&self, addr: &DramAddr, is_write: bool) -> bool {
        let ok = timed(CTRL_ENQ, || self.0.can_accept(addr, is_write));
        if !ok {
            count(QUEUE_FULL, 1);
        }
        ok
    }

    fn enqueue(&mut self, request: MemRequest) -> bool {
        let ok = timed(CTRL_ENQ, || self.0.enqueue(request));
        if !ok {
            count(QUEUE_FULL, 1);
        }
        ok
    }
}

/// The traces `Runner` would build for `spec`, each behind [`TimedTrace`]
/// when `timed`. Mirrors the runner's per-core seed derivation; the
/// exactness gate catches any drift.
pub fn traces(spec: &CellSpec, config: &SimConfig, seed: u64, timed: bool) -> Vec<Box<dyn TraceSource>> {
    let geometry = &config.dram.geometry;
    let wrap = |trace: Box<dyn TraceSource>| -> Box<dyn TraceSource> {
        if timed {
            Box::new(TimedTrace(trace))
        } else {
            trace
        }
    };
    let synthetic = |name: &str, core: usize| {
        let profile = catalog::workload(name).expect("benchmark workloads are in the catalog");
        let trace_seed = seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        wrap(Box::new(SyntheticTrace::new(profile, geometry.clone(), trace_seed)))
    };
    match &spec.workload {
        WorkloadSpec::Single { workload } => vec![synthetic(workload, 0)],
        WorkloadSpec::Homogeneous { workload, cores } => {
            (0..*cores).map(|c| synthetic(workload, c)).collect()
        }
        WorkloadSpec::Attacked { workload, attack } => vec![
            synthetic(workload, 0),
            wrap(Box::new(AttackTrace::new(*attack, geometry.clone(), seed ^ 0xA77AC))),
        ],
        WorkloadSpec::Mix { workloads, .. } => {
            workloads.iter().enumerate().map(|(c, w)| synthetic(w, c)).collect()
        }
    }
}

/// One traced cell.
pub struct TracedCell {
    /// The run's statistics, assembled the way `System::run` assembles them
    /// (the fields `stats_checksum` reads).
    pub result: RunResult,
    /// DRAM commands issued over the whole run, warmup included.
    pub commands: ChannelStats,
    pub wall_s: f64,
    pub profile: Profile,
    /// `TraceCore::advance` calls, and those that returned `None` (blocked).
    pub advances: u64,
    pub blocked: u64,
    /// `MemorySystem::tick` calls.
    pub ticks: u64,
}

struct Snapshot {
    instructions: Vec<u64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    ctrl: comet_sim::ControllerStats,
    mitigation: MitigationStats,
    channel: ChannelStats,
}

fn snapshot(cores: &[TraceCore], memory: &MemorySystem) -> Snapshot {
    Snapshot {
        instructions: cores.iter().map(TraceCore::instructions).collect(),
        reads: cores.iter().map(TraceCore::reads_issued).collect(),
        writes: cores.iter().map(TraceCore::writes_issued).collect(),
        ctrl: memory.stats(),
        mitigation: memory.mitigation_stats(),
        channel: memory.channel_stats(),
    }
}

/// Runs `spec` under `config` and `seed` through the traced copy of the
/// serial event-driven loop.
pub fn run_traced(
    spec: &CellSpec,
    config: &SimConfig,
    seed: u64,
    registry: &MechanismRegistry,
) -> TracedCell {
    let factory = registry
        .factory(spec.mechanism, spec.nrh, &config.dram, seed)
        .expect("benchmark mechanisms are registered");
    // Construction and result assembly stay inside the session (charged to
    // the loop), as they are inside the untraced `Runner` call it is
    // compared against.
    let started = Instant::now();
    begin_session();
    enter(SETUP);
    let mut memory = MemorySystem::new(config.dram.clone(), config.controller.clone(), &factory);
    let mut cores: Vec<TraceCore> = traces(spec, config, seed, true)
        .into_iter()
        .enumerate()
        .map(|(id, trace)| TraceCore::new(id, trace, config.core.clone(), &config.dram))
        .collect();
    exit();

    let warmup_end = config.warmup_cycles;
    let end = config.total_cycles();
    let mut now: Cycle = 0;
    let mut warm = snapshot(&cores, &memory);
    let mut warm_taken = warmup_end == 0;
    let mut completions = Vec::new();
    let mut core_wake: Vec<Option<Cycle>> = vec![Some(0); cores.len()];
    let mut blocked = 0u64;
    let mut advances = 0u64;
    let mut ticks = 0u64;
    let mut sampler = 0x2545_F491_4F6C_DD1Du64;
    while now < end {
        // xorshift64: a fresh pseudo-random draw per iteration, so the timed
        // iterations cannot alias with any periodic pattern in the loop.
        sampler ^= sampler << 13;
        sampler ^= sampler >> 7;
        sampler ^= sampler << 17;
        let sampled = sampler.is_multiple_of(SAMPLE_EVERY);
        if sampled {
            enter(ITER);
            set_on(true);
        }
        if !warm_taken && now >= warmup_end {
            warm = snapshot(&cores, &memory);
            warm_taken = true;
        }
        completions.clear();
        memory.drain_completions_into(&mut completions);
        for completion in &completions {
            cores[completion.core].note_completion(completion.id, completion.completion);
        }
        let mut earliest_core: Option<Cycle> = None;
        for (core, memo) in cores.iter_mut().zip(&mut core_wake) {
            let wake = match *memo {
                Some(w) if now < w => Some(w),
                _ => {
                    let wake = timed(CPU, || core.advance(now, &mut TimedSink(&mut memory)));
                    advances += 1;
                    blocked += u64::from(wake.is_none());
                    *memo = wake;
                    wake
                }
            };
            if let Some(w) = wake.or_else(|| core.blocked_wake()) {
                earliest_core = Some(earliest_core.map_or(w, |e| e.min(w)));
            }
        }
        let memory_next = timed(CTRL_TICK, || memory.tick(now));
        ticks += 1;
        let mut next = memory_next.max(now + 1);
        if let Some(c) = earliest_core {
            next = next.min(c.max(now + 1));
        }
        if !warm_taken {
            next = next.min(warmup_end);
        }
        now = next.min(end);
        if sampled {
            set_on(false);
            exit();
        }
    }
    enter(SETUP);
    let measured_cycles = end - warmup_end;
    let channel = memory.channel_stats();
    let cpu_cycles = cores[0].dram_to_cpu(measured_cycles);
    let instructions: Vec<u64> =
        cores.iter().zip(&warm.instructions).map(|(c, w)| c.instructions() - w).collect();
    let per_core_ipc: Vec<f64> = instructions.iter().map(|&i| i as f64 / cpu_cycles).collect();
    let result = RunResult {
        label: spec.label(),
        mechanism: memory.mitigation_name().to_string(),
        cores: cores.len(),
        dram_cycles: measured_cycles,
        cpu_cycles,
        instructions: instructions.iter().sum(),
        ipc: per_core_ipc.iter().sum(),
        per_core_ipc,
        reads: cores.iter().zip(&warm.reads).map(|(c, w)| c.reads_issued() - w).sum(),
        writes: cores.iter().zip(&warm.writes).map(|(c, w)| c.writes_issued() - w).sum(),
        activations: channel.acts - warm.channel.acts,
        avg_read_latency_ns: 0.0,
        energy_nj: 0.0,
        energy_breakdown: Default::default(),
        controller: memory.stats().delta_since(&warm.ctrl),
        mitigation: memory.mitigation_stats().delta_since(&warm.mitigation),
        engine: Default::default(),
    };
    exit();
    let profile = end_session();
    let wall_s = started.elapsed().as_secs_f64();
    TracedCell { result, commands: channel, wall_s, profile, blocked, advances, ticks }
}
