//! Trace-driven CPU core model with a bounded instruction window.

use crate::memory::MemorySink;
use crate::request::MemRequest;
use comet_dram::{AddressMapper, AddressScheme, Cycle};
use comet_trace::{TraceRecord, TraceSource};
use std::collections::VecDeque;

/// Core model parameters (Table 2: 3.6 GHz, 4-wide issue, 128-entry window).
///
/// `Serialize` feeds the experiment service's canonical cell-key encoding:
/// every field here is part of a cached result's identity.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoreConfig {
    /// CPU clock frequency in GHz.
    pub freq_ghz: f64,
    /// Instructions retired per CPU cycle when not memory bound.
    pub retire_width: u32,
    /// Instruction (reorder) window size.
    pub window_size: u64,
    /// Physical-address interleaving scheme the core decodes requests with.
    /// Part of a cached cell's identity: changing the scheme re-routes every
    /// access, so the service's `KEY_SCHEMA` covers this field.
    pub scheme: AddressScheme,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig { freq_ghz: 3.6, retire_width: 4, window_size: 128, scheme: AddressScheme::RoRaBgBaCoCh }
    }
}

/// An outstanding demand read: the instruction index that issued it, and its
/// completion time (in CPU cycles) once the memory controller reports it.
#[derive(Debug, Clone, Copy)]
struct OutstandingRead {
    request_id: u64,
    instruction_index: u64,
    completion_cpu: Option<f64>,
}

/// What a blocked core waits for (see [`TraceCore::blocked_on`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockedOn {
    /// A slot in `channel`'s read queue, or its write queue when `is_write`:
    /// the pending request was refused, and only a demand dequeue from that
    /// queue can let it in.
    QueueSlot {
        /// Channel of the refused request.
        channel: usize,
        /// Whether the refused request is a write.
        is_write: bool,
    },
    /// The oldest outstanding read: its completion, once noted, and then the
    /// cycle [`TraceCore::blocked_wake`] reports for its return.
    ReadReturn,
    /// No event: the next advance makes progress whenever it runs.
    Nothing,
}

/// A trace-driven core.
///
/// The core dispatches the trace in program order: each record's `gap`
/// non-memory instructions take `gap / retire_width` CPU cycles, and its memory
/// access is sent to the memory controller. Demand reads occupy the instruction
/// window until their data returns; when the window fills behind an incomplete
/// read the core stalls, which is how memory latency translates into lost IPC.
/// Writes are posted to the controller's write queue and only stall the core
/// when that queue is full.
pub struct TraceCore {
    id: usize,
    config: CoreConfig,
    trace: Box<dyn TraceSource>,
    mapper: AddressMapper,
    cpu_cycles_per_dram_cycle: f64,
    /// Core-local dispatch clock in CPU cycles.
    clock_cpu: f64,
    instructions_dispatched: u64,
    reads_issued: u64,
    writes_issued: u64,
    outstanding: VecDeque<OutstandingRead>,
    /// Record currently being dispatched (its `gap` counts the *remaining*
    /// non-memory instructions; once the gap reaches zero only the memory access
    /// is left to hand over to the controller).
    pending: Option<TraceRecord>,
    /// Whether the pending record's memory access was rejected by a full
    /// controller queue. Such a core is woken by memory events only; the
    /// wait it would have accumulated probing the queue every cycle is
    /// accounted at the successful retry instead (see `advance`).
    stalled_on_full_queue: bool,
    /// The pending record's already-decoded DRAM address, kept across
    /// full-queue retries so a re-probe skips the address-map arithmetic (a
    /// stalled core retries after every dequeue from the queue it waits on).
    pending_addr: Option<comet_dram::DramAddr>,
    next_request_id: u64,
}

impl TraceCore {
    /// Creates core `id` driven by `trace` against DRAM with the given timing.
    pub fn new(
        id: usize,
        trace: Box<dyn TraceSource>,
        config: CoreConfig,
        dram: &comet_dram::DramConfig,
    ) -> Self {
        let dram_freq_ghz = 1.0 / dram.timing.t_ck_ns;
        TraceCore {
            id,
            cpu_cycles_per_dram_cycle: config.freq_ghz / dram_freq_ghz,
            mapper: AddressMapper::new(dram.geometry.clone(), config.scheme),
            config,
            trace,
            clock_cpu: 0.0,
            instructions_dispatched: 0,
            reads_issued: 0,
            writes_issued: 0,
            outstanding: VecDeque::new(),
            pending: None,
            stalled_on_full_queue: false,
            pending_addr: None,
            next_request_id: 0,
        }
    }

    /// Core index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions dispatched so far (the IPC numerator).
    pub fn instructions(&self) -> u64 {
        self.instructions_dispatched
    }

    /// Demand reads issued to memory so far.
    pub fn reads_issued(&self) -> u64 {
        self.reads_issued
    }

    /// Writes issued to memory so far.
    pub fn writes_issued(&self) -> u64 {
        self.writes_issued
    }

    /// Converts a DRAM-cycle timestamp to CPU cycles.
    pub fn dram_to_cpu(&self, cycle: Cycle) -> f64 {
        cycle as f64 * self.cpu_cycles_per_dram_cycle
    }

    fn cpu_to_dram(&self, cpu: f64) -> Cycle {
        (cpu / self.cpu_cycles_per_dram_cycle).ceil() as Cycle
    }

    /// Records that read `request_id` completed at DRAM cycle `completion`.
    pub fn note_completion(&mut self, request_id: u64, completion: Cycle) {
        let cpu = self.dram_to_cpu(completion);
        if let Some(entry) = self.outstanding.iter_mut().find(|o| o.request_id == request_id) {
            entry.completion_cpu = Some(cpu);
        }
    }

    /// Whether the core is currently unable to make progress without a memory
    /// completion (instruction window full behind an incomplete read).
    pub fn window_blocked(&self) -> bool {
        match self.outstanding.front() {
            Some(front) if front.completion_cpu.is_none() => {
                self.instructions_dispatched - front.instruction_index >= self.config.window_size
            }
            _ => false,
        }
    }

    /// DRAM cycle at which the core next has something to do, if known: the
    /// completion of the read it is blocked on, or its own dispatch clock.
    pub fn next_wake(&self) -> Option<Cycle> {
        if self.window_blocked() {
            return self.outstanding.front().and_then(|f| f.completion_cpu).map(|t| self.cpu_to_dram(t));
        }
        Some(self.first_cycle_covering(self.clock_cpu))
    }

    /// DRAM cycle at which a core whose [`advance`](Self::advance) returned
    /// `None` (blocked) next needs to run, or `None` when only a
    /// memory-system event can unblock it — a read-data return for an
    /// instruction window stalled on an unknown completion, or a freed queue
    /// slot for a core stalled on a full controller queue. The event-driven
    /// loop re-advances a blocked core when that event happens (a completion
    /// noted for the core, a dequeue from the queue it waits on) or when this
    /// cycle comes, and not on the iterations in between, whose advances
    /// would change nothing.
    pub fn blocked_wake(&self) -> Option<Cycle> {
        if self.window_headroom() == 0 {
            // Window full: runnable again once the oldest read's data is back.
            return self
                .outstanding
                .front()
                .and_then(|f| f.completion_cpu)
                .map(|t| self.first_cycle_covering(t));
        }
        if self.stalled_on_full_queue {
            None
        } else {
            // Conservative fallback (not reachable from `advance`'s `None`
            // paths today): behave like `next_wake`.
            Some(self.first_cycle_covering(self.clock_cpu))
        }
    }

    /// The event a core whose [`advance`](Self::advance) returned `None`
    /// waits for. Until that event, and before
    /// [`blocked_wake`](Self::blocked_wake), a further `advance` changes
    /// nothing that a later one would not change the same way: a full-queue
    /// stall only creeps the dispatch clock, which the next `advance`
    /// reconstructs from `now`, and retires returned reads, which any later
    /// `advance` retires too. So the loop may skip those advances.
    pub(crate) fn blocked_on(&self) -> BlockedOn {
        if self.stalled_on_full_queue {
            let addr = self.pending_addr.expect("a full-queue stall keeps the decoded address");
            let is_write = self.pending.is_some_and(|r| r.is_write);
            return BlockedOn::QueueSlot { channel: addr.channel, is_write };
        }
        match self.outstanding.front().and_then(|f| f.completion_cpu) {
            // The dispatch clock ran past the read's return inside the last
            // record, so the next advance retires it whenever it runs.
            Some(t) if t <= self.clock_cpu => BlockedOn::Nothing,
            _ => BlockedOn::ReadReturn,
        }
    }

    /// First DRAM cycle `w` whose dispatch window in [`advance`](Self::advance)
    /// (`until_cpu = dram_to_cpu(w + 1) - 1e-9`) covers the CPU-cycle
    /// timestamp `t` — i.e. the earliest iteration at which a read completing
    /// at `t` can retire. One cycle earlier than `cpu_to_dram(t)` rounds to
    /// whenever `t` falls strictly inside a DRAM cycle.
    fn first_cycle_covering(&self, t: f64) -> Cycle {
        let mut w = ((t / self.cpu_cycles_per_dram_cycle).floor() as Cycle).saturating_sub(1);
        while self.dram_to_cpu(w + 1) - 1e-9 < t {
            w += 1;
        }
        w
    }

    /// Current number of instructions occupying the window past the oldest
    /// incomplete read; `None` when no read is outstanding.
    fn window_headroom(&self) -> u64 {
        match self.outstanding.front() {
            Some(front) => {
                let used = self.instructions_dispatched - front.instruction_index;
                self.config.window_size.saturating_sub(used)
            }
            None => u64::MAX,
        }
    }

    fn retire_completed(&mut self) {
        while let Some(front) = self.outstanding.front() {
            match front.completion_cpu {
                Some(t) if t <= self.clock_cpu => {
                    self.outstanding.pop_front();
                }
                _ => break,
            }
        }
    }

    /// Waits for the oldest read if the window is exhausted. Returns `false`
    /// when the core must stall (completion unknown or beyond `until_cpu`).
    fn resolve_window(&mut self, until_cpu: f64) -> bool {
        while self.window_headroom() == 0 {
            let front = *self.outstanding.front().expect("headroom is only zero with an outstanding read");
            match front.completion_cpu {
                Some(t) if t <= until_cpu => {
                    self.clock_cpu = self.clock_cpu.max(t);
                    self.outstanding.pop_front();
                }
                _ => return false,
            }
        }
        true
    }

    /// Advances the core at DRAM cycle `now`, dispatching instructions and
    /// enqueueing memory requests into `memory` — a single controller or the
    /// sharded multi-channel memory system; requests carry their decoded
    /// channel in the address and the sink routes them.
    ///
    /// Memory accesses are handed over cycle-accurately (never before the
    /// dispatch clock's cycle arrives), but the non-memory instructions of
    /// the current trace record are dispatched as a whole, so the
    /// instruction counters may run up to one record ahead of `now`.
    ///
    /// Returns the DRAM cycle at which the core next wants to act, or `None`
    /// when it is blocked waiting for a completion or controller queue space.
    pub fn advance(&mut self, now: Cycle, memory: &mut impl MemorySink) -> Option<Cycle> {
        let until_cpu = self.dram_to_cpu(now + 1) - 1e-9;
        if self.stalled_on_full_queue {
            // Since the enqueue failed, the core would have re-probed the
            // full queue every cycle (the dense reference loop literally
            // does, advancing the clock at each failed probe). Reconstruct
            // that creep up to the last cycle the probe still failed, before
            // any retirement below observes the clock.
            self.clock_cpu = self.clock_cpu.max(self.dram_to_cpu(now.saturating_sub(1)));
        }
        loop {
            self.retire_completed();

            let mut record = match self.pending.take() {
                Some(r) => r,
                None => self.trace.next_record(),
            };

            // Dispatch the record's remaining non-memory instructions. Only
            // the instruction window paces this: the dispatch clock may run
            // ahead of simulated time within the record, because nothing
            // observes it until the memory-access handover below
            // re-synchronizes with `now`. (The final clock value is the same
            // chunk sum and completion-max sequence the cycle-by-cycle
            // pacing produced, so simulated behavior is identical — the
            // event-driven loop just gets one wakeup per record instead of
            // one per cycle.)
            while record.gap > 0 {
                if !self.resolve_window(until_cpu) {
                    self.pending = Some(record);
                    return None;
                }
                let chunk = (record.gap as u64).min(self.window_headroom());
                self.instructions_dispatched += chunk;
                self.clock_cpu += chunk as f64 / self.config.retire_width as f64;
                record.gap -= chunk as u32;
            }

            // The memory access itself: only hand it over once simulated time has
            // caught up with the core's dispatch clock.
            if self.clock_cpu > until_cpu {
                self.pending = Some(record);
                return Some(self.first_cycle_covering(self.clock_cpu));
            }
            if !self.resolve_window(until_cpu) {
                self.pending = Some(record);
                return None;
            }
            let addr = self.pending_addr.take().unwrap_or_else(|| self.mapper.map(record.addr));
            let accepted = memory.can_accept(&addr, record.is_write)
                && memory.enqueue(MemRequest::new(self.next_request_id, self.id, addr, record.is_write, now));
            if !accepted {
                // The core genuinely stalls here; account for the time spent waiting.
                self.clock_cpu = self.clock_cpu.max(self.dram_to_cpu(now));
                self.stalled_on_full_queue = true;
                self.pending = Some(record);
                self.pending_addr = Some(addr);
                return None;
            }
            self.stalled_on_full_queue = false;
            if record.is_write {
                self.writes_issued += 1;
            } else {
                self.outstanding.push_back(OutstandingRead {
                    request_id: self.next_request_id,
                    instruction_index: self.instructions_dispatched,
                    completion_cpu: None,
                });
                self.reads_issued += 1;
            }
            self.next_request_id += 1;
            self.instructions_dispatched += 1;
            self.clock_cpu += 1.0 / self.config.retire_width as f64;
        }
    }
}

impl std::fmt::Debug for TraceCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCore")
            .field("id", &self.id)
            .field("instructions", &self.instructions_dispatched)
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{ControllerConfig, MemoryController};
    use comet_dram::DramConfig;
    use comet_mitigations::NoMitigation;
    use comet_trace::request::ReplayTrace;

    fn controller() -> MemoryController {
        MemoryController::new(
            DramConfig::ddr4_paper_default(),
            ControllerConfig::default(),
            Box::new(NoMitigation::new()),
        )
    }

    fn core_with(records: Vec<TraceRecord>) -> TraceCore {
        TraceCore::new(
            0,
            Box::new(ReplayTrace::new("test", records)),
            CoreConfig::default(),
            &DramConfig::ddr4_paper_default(),
        )
    }

    fn run(core: &mut TraceCore, mc: &mut MemoryController, dram_cycles: u64) -> u64 {
        let mut now = 0u64;
        let mut done = Vec::new();
        while now < dram_cycles {
            mc.drain_completions_into(&mut done);
            for c in done.drain(..) {
                core.note_completion(c.id, c.completion);
            }
            core.advance(now, mc);
            now = mc.tick(now).clamp(now + 1, now + 64);
        }
        now
    }

    #[test]
    fn pure_compute_advances_at_retire_width() {
        // One access every 4000 instructions: the core is compute bound.
        let mut core = core_with(vec![TraceRecord::read(4000, 0)]);
        let mut mc = controller();
        let end = run(&mut core, &mut mc, 1000);
        let cpu_cycles = core.dram_to_cpu(end);
        let ipc = core.instructions() as f64 / cpu_cycles;
        assert!(ipc > 3.0, "compute-bound IPC should approach 4, got {ipc}");
    }

    #[test]
    fn window_blocks_behind_slow_memory() {
        // Every instruction is a read alternating between conflicting rows: memory bound.
        let mut core = core_with(vec![TraceRecord::read(0, 0), TraceRecord::read(0, 1 << 22)]);
        let mut mc = controller();
        let end = run(&mut core, &mut mc, 20_000);
        let ipc = core.instructions() as f64 / core.dram_to_cpu(end);
        assert!(ipc < 1.5, "memory-bound IPC must be low, got {ipc}");
        assert!(core.reads_issued() > 10);
    }

    #[test]
    fn memory_bound_ipc_is_lower_than_compute_bound_ipc() {
        let mut compute = core_with(vec![TraceRecord::read(2000, 0)]);
        let mut mc1 = controller();
        let end1 = run(&mut compute, &mut mc1, 30_000);
        let compute_ipc = compute.instructions() as f64 / compute.dram_to_cpu(end1);

        let mut memory = core_with(vec![
            TraceRecord::read(4, 0),
            TraceRecord::read(4, 1 << 22),
            TraceRecord::read(4, 1 << 23),
        ]);
        let mut mc2 = controller();
        let end2 = run(&mut memory, &mut mc2, 30_000);
        let memory_ipc = memory.instructions() as f64 / memory.dram_to_cpu(end2);
        assert!(
            memory_ipc < compute_ipc / 2.0,
            "memory-bound IPC {memory_ipc} should be well below compute-bound IPC {compute_ipc}"
        );
    }

    #[test]
    fn writes_do_not_block_the_window() {
        let mut core = core_with(vec![TraceRecord::write(2, 0), TraceRecord::write(2, 64)]);
        let mut mc = controller();
        run(&mut core, &mut mc, 2_000);
        // The write queue back-pressures the core, but posted writes never occupy
        // the instruction window.
        assert!(core.writes_issued() > 50, "writes issued: {}", core.writes_issued());
        assert!(!core.window_blocked());
    }

    #[test]
    fn completions_unblock_the_core() {
        // A pure read stream with no compute: the core is limited by the memory
        // system (read queue and instruction window), not by its retire width.
        let mut core = core_with(vec![TraceRecord::read(0, 0)]);
        let mut mc = controller();
        let mut now = 0u64;
        let mut stalled_once = false;
        let mut done = Vec::new();
        for _ in 0..20_000 {
            mc.drain_completions_into(&mut done);
            for c in done.drain(..) {
                core.note_completion(c.id, c.completion);
            }
            if core.advance(now, &mut mc).is_none() {
                stalled_once = true;
            }
            now = mc.tick(now).clamp(now + 1, now + 64);
        }
        assert!(stalled_once, "a pure read stream must back-pressure the core at some point");
        assert!(core.instructions() > 200, "the core must still make forward progress");
        let ipc = core.instructions() as f64 / core.dram_to_cpu(now);
        assert!(ipc < 4.0, "a pure memory stream cannot run at full retire width");
    }

    #[test]
    fn dram_cpu_clock_conversion_is_three_to_one() {
        let core = core_with(vec![TraceRecord::read(1, 0)]);
        let cpu = core.dram_to_cpu(1000);
        assert!((cpu - 2999.0).abs() < 5.0, "cpu cycles for 1000 DRAM cycles: {cpu}");
    }

    #[test]
    fn next_wake_reports_dispatch_clock_when_not_blocked() {
        let core = core_with(vec![TraceRecord::read(100, 0)]);
        assert_eq!(core.next_wake(), Some(0));
    }
}
