//! The sharded memory system: one [`MemoryController`] per DRAM channel.
//!
//! The CoMeT paper evaluates a single DDR4 channel; scaling the simulator to
//! multi-channel systems means every channel gets its own controller — with
//! its own request queues, refresh scheduler, and RowHammer-mitigation
//! instance — exactly as in hardware, where per-channel memory controllers
//! operate independently. [`MemorySystem`] owns those controller shards,
//! routes demand requests by [`DramAddr::channel`], and aggregates statistics
//! and energy across shards for reporting.
//!
//! Cores talk to the memory system through the [`MemorySink`] trait, which
//! both a bare [`MemoryController`] (single-channel, used by unit tests and
//! the sharding-equivalence suite) and the [`MemorySystem`] implement.

use crate::controller::{ControllerConfig, ControllerStats, MemoryController};
use crate::request::{CompletedRead, MemRequest};
use comet_dram::{ChannelStats, Cycle, DramAddr, DramConfig, EnergyCounters};
use comet_mitigations::{MitigationFactory, MitigationStats};

/// Where cores hand their demand requests.
///
/// Implemented by [`MemoryController`] (one channel) and [`MemorySystem`]
/// (one shard per channel, routed by address).
pub trait MemorySink {
    /// Whether the queue that would receive a request for `addr` has room.
    fn can_accept(&self, addr: &DramAddr, is_write: bool) -> bool;

    /// Enqueues a demand request. Returns `false` (dropping nothing) when the
    /// corresponding queue is full — the caller must retry later.
    fn enqueue(&mut self, request: MemRequest) -> bool;
}

impl MemorySink for MemoryController {
    fn can_accept(&self, _addr: &DramAddr, is_write: bool) -> bool {
        if is_write {
            self.can_accept_write()
        } else {
            self.can_accept_read()
        }
    }

    fn enqueue(&mut self, request: MemRequest) -> bool {
        MemoryController::enqueue(self, request)
    }
}

/// The sharded multi-channel memory system.
///
/// `tick` is event-driven: each shard's returned next-event time is cached,
/// and a shard is only stepped again once that time has arrived or a new
/// request was routed to it. Idle channels therefore cost nothing while a
/// busy sibling is stepped every cycle. The cached times are lower bounds on
/// when the shard can make progress (the controller's contract), so skipping
/// the intermediate ticks — which would mutate nothing — is bit-exact; the
/// regression suite in `crates/bench/tests/bitexact_hotpath.rs` pins this.
pub struct MemorySystem {
    shards: Vec<MemoryController>,
    /// Per-shard cached next-event time: the shard is not ticked again before
    /// this cycle unless [`enqueue`](MemorySink::enqueue) invalidates it.
    next_event: Vec<Cycle>,
}

impl MemorySystem {
    /// Builds one controller shard per channel of `dram.geometry`, each
    /// protected by its own mechanism instance from `mitigation`.
    ///
    /// # Panics
    ///
    /// Panics if `dram` fails [`DramConfig::validate`] — the runner validates
    /// configurations up front and reports a `RunnerError` instead.
    pub fn new(dram: DramConfig, controller: ControllerConfig, mitigation: &dyn MitigationFactory) -> Self {
        let problems = dram.validate();
        assert!(problems.is_empty(), "invalid DRAM configuration: {problems:?}");
        let shards: Vec<MemoryController> = (0..dram.geometry.channels)
            .map(|channel| MemoryController::new(dram.clone(), controller.clone(), mitigation.build(channel)))
            .collect();
        let next_event = vec![0; shards.len()];
        MemorySystem { shards, next_event }
    }

    /// Number of channel shards.
    pub fn channels(&self) -> usize {
        self.shards.len()
    }

    /// The controller shard driving `channel`.
    pub fn shard(&self, channel: usize) -> &MemoryController {
        &self.shards[channel]
    }

    /// Mutable access to the controller shard driving `channel`.
    pub fn shard_mut(&mut self, channel: usize) -> &mut MemoryController {
        &mut self.shards[channel]
    }

    /// The DRAM configuration the shards were built from.
    pub fn dram_config(&self) -> &DramConfig {
        self.shards[0].dram_config()
    }

    /// The mitigation mechanism's name (identical across shards).
    pub fn mitigation_name(&self) -> &str {
        self.shards[0].mitigation_name()
    }

    /// Attempts to issue at most one DRAM command per channel whose cached
    /// next-event time has arrived at cycle `now`.
    ///
    /// Returns a lower bound on the next cycle at which calling `tick` again
    /// could make progress on *any* channel. Shards whose cached next-event
    /// time is still in the future are skipped — an intermediate tick of an
    /// idle shard cannot issue anything and mutates no state, so skipping it
    /// leaves the simulated command stream unchanged.
    pub fn tick(&mut self, now: Cycle) -> Cycle {
        let mut min_next = Cycle::MAX;
        for (shard, next) in self.shards.iter_mut().zip(&mut self.next_event) {
            if *next <= now {
                *next = shard.tick(now);
            }
            min_next = min_next.min(*next);
        }
        min_next
    }

    /// Reference-mode variant of [`tick`](Self::tick): steps *every* shard
    /// unconditionally, exactly like the pre-event-driven simulator did. The
    /// equivalence tests run both variants and assert identical statistics,
    /// which proves the cached next-event times sound.
    pub fn tick_dense(&mut self, now: Cycle) -> Cycle {
        let mut min_next = Cycle::MAX;
        for (shard, next) in self.shards.iter_mut().zip(&mut self.next_event) {
            *next = shard.tick(now);
            min_next = min_next.min(*next);
        }
        min_next
    }

    /// Drains the reads completed since the last call, in channel order.
    ///
    /// Allocates a fresh `Vec` per call; the simulation loop uses
    /// [`drain_completions_into`](Self::drain_completions_into) with a
    /// reusable buffer instead.
    pub fn take_completions(&mut self) -> Vec<CompletedRead> {
        let mut completions = Vec::new();
        self.drain_completions_into(&mut completions);
        completions
    }

    /// Moves the reads completed since the last call into `out`, in channel
    /// order, keeping every shard's internal buffer for reuse.
    pub fn drain_completions_into(&mut self, out: &mut Vec<CompletedRead>) {
        for shard in &mut self.shards {
            shard.drain_completions_into(out);
        }
    }

    /// Whether every shard is out of pending work besides periodic refresh.
    pub fn idle(&self) -> bool {
        self.shards.iter().all(MemoryController::idle)
    }

    /// Demand requests currently queued across all shards.
    pub fn queued_requests(&self) -> usize {
        self.shards.iter().map(MemoryController::queued_requests).sum()
    }

    /// Controller statistics aggregated across shards.
    pub fn stats(&self) -> ControllerStats {
        self.shards
            .iter()
            .map(MemoryController::stats)
            .fold(ControllerStats::default(), |acc, s| acc.merged(&s))
    }

    /// Controller statistics per channel shard.
    pub fn per_channel_stats(&self) -> Vec<ControllerStats> {
        self.shards.iter().map(MemoryController::stats).collect()
    }

    /// Mitigation statistics aggregated across shards.
    pub fn mitigation_stats(&self) -> MitigationStats {
        self.shards
            .iter()
            .map(MemoryController::mitigation_stats)
            .fold(MitigationStats::default(), |acc, s| acc.merged(&s))
    }

    /// Mitigation statistics per channel shard.
    pub fn per_channel_mitigation_stats(&self) -> Vec<MitigationStats> {
        self.shards.iter().map(MemoryController::mitigation_stats).collect()
    }

    /// Mechanism structure gauges per channel shard (telemetry layer).
    pub fn per_channel_mitigation_telemetry(&self) -> Vec<Vec<(&'static str, f64)>> {
        self.shards.iter().map(MemoryController::mitigation_telemetry).collect()
    }

    /// Ready-set scheduler pressure per channel shard.
    pub fn per_channel_scheduler_pressure(&self) -> Vec<crate::metrics::SchedulerPressure> {
        self.shards.iter().map(MemoryController::scheduler_pressure).collect()
    }

    /// Per-bank queue depths (current and peak) per channel shard.
    pub fn per_channel_bank_queue_depths(&self) -> Vec<Vec<crate::metrics::BankQueueDepth>> {
        self.shards.iter().map(MemoryController::bank_queue_depths).collect()
    }

    /// Raw channel command statistics aggregated across shards.
    pub fn channel_stats(&self) -> ChannelStats {
        self.shards
            .iter()
            .map(MemoryController::channel_stats)
            .fold(ChannelStats::default(), |acc, s| acc.merged(&s))
    }

    /// DRAM energy counters aggregated across shards (commands summed,
    /// `elapsed_cycles` set to the given wall-clock value).
    pub fn energy_counters(&self, elapsed_cycles: Cycle) -> EnergyCounters {
        let mut total = self
            .shards
            .iter()
            .map(|shard| shard.energy_counters(elapsed_cycles))
            .fold(EnergyCounters::default(), |acc, e| acc.merged(&e));
        total.elapsed_cycles = elapsed_cycles;
        total
    }
}

impl MemorySink for MemorySystem {
    fn can_accept(&self, addr: &DramAddr, is_write: bool) -> bool {
        self.shards[addr.channel].can_accept(addr, is_write)
    }

    fn enqueue(&mut self, request: MemRequest) -> bool {
        let channel = request.addr.channel;
        let accepted = self.shards[channel].enqueue(request);
        if accepted {
            // The shard has new work: drop its cached next-event time so the
            // next `tick` steps it again.
            self.next_event[channel] = 0;
        }
        accepted
    }
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("channels", &self.channels())
            .field("mitigation", &self.mitigation_name())
            .field("queued_requests", &self.queued_requests())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_mitigations::{FnFactory, NoMitigation, PerRowCounters};

    fn baseline_factory() -> FnFactory {
        FnFactory::new("Baseline", |_channel| Box::new(NoMitigation::new()))
    }

    fn addr(channel: usize, row: usize) -> DramAddr {
        DramAddr { channel, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    fn drain(memory: &mut MemorySystem, limit: Cycle) -> Vec<CompletedRead> {
        let mut now = 0;
        let mut done = Vec::new();
        while now < limit {
            let next = memory.tick(now);
            done.extend(memory.take_completions());
            if memory.idle() && memory.queued_requests() == 0 && !done.is_empty() {
                break;
            }
            now = next.max(now + 1);
        }
        done
    }

    #[test]
    fn requests_are_routed_to_their_channel_shard() {
        let dram = DramConfig::ddr4_multi_channel(2);
        let mut memory = MemorySystem::new(dram, ControllerConfig::default(), &baseline_factory());
        assert!(memory.enqueue(MemRequest::new(0, 0, addr(0, 10), false, 0)));
        assert!(memory.enqueue(MemRequest::new(1, 0, addr(1, 20), false, 0)));
        assert_eq!(memory.shard(0).queued_requests(), 1);
        assert_eq!(memory.shard(1).queued_requests(), 1);
        let done = drain(&mut memory, 10_000);
        assert_eq!(done.len(), 2);
        assert_eq!(memory.stats().reads_completed, 2);
        // Each shard served exactly one read.
        for stats in memory.per_channel_stats() {
            assert_eq!(stats.reads_completed, 1);
        }
    }

    #[test]
    fn single_channel_system_matches_bare_controller() {
        let dram = DramConfig::ddr4_paper_default();
        let mut memory = MemorySystem::new(dram.clone(), ControllerConfig::default(), &baseline_factory());
        let mut bare =
            MemoryController::new(dram, ControllerConfig::default(), Box::new(NoMitigation::new()));
        for id in 0..8u64 {
            let request = MemRequest::new(id, 0, addr(0, (id as usize % 4) * 7), id % 3 == 0, 0);
            assert!(memory.enqueue(request));
            assert!(MemorySink::enqueue(&mut bare, request));
        }
        let mut now = 0;
        let mut memory_done = Vec::new();
        let mut bare_done = Vec::new();
        for _ in 0..20_000 {
            let a = memory.tick(now);
            let b = bare.tick(now);
            assert_eq!(a, b, "shard tick must match the bare controller at cycle {now}");
            memory_done.extend(memory.take_completions());
            bare_done.extend(bare.take_completions());
            now = a.max(now + 1);
            if memory.idle() && memory.queued_requests() == 0 {
                break;
            }
        }
        assert_eq!(memory_done, bare_done);
        assert_eq!(memory.stats(), bare.stats());
        assert_eq!(memory.channel_stats(), bare.channel_stats());
    }

    #[test]
    fn shards_get_independent_mitigation_instances() {
        let dram = DramConfig::ddr4_multi_channel(2);
        let timing = dram.timing.clone();
        let geometry = dram.geometry.clone();
        let factory = FnFactory::new("PerRow", move |_channel| {
            Box::new(PerRowCounters::new(100, &timing, geometry.clone()))
        });
        let mut memory = MemorySystem::new(dram, ControllerConfig::default(), &factory);
        // Hammer two alternating rows on channel 0 only.
        let mut now = 0;
        let mut id = 0;
        let mut issued = 0u64;
        while issued < 300 || memory.queued_requests() > 0 || !memory.idle() {
            if issued < 300 && memory.queued_requests() == 0 {
                let row = if issued.is_multiple_of(2) { 100 } else { 300 };
                memory.enqueue(MemRequest::new(id, 0, addr(0, row), false, now));
                id += 1;
                issued += 1;
            }
            now = memory.tick(now).max(now + 1);
            memory.take_completions();
            assert!(now < 10_000_000, "memory system failed to drain");
        }
        let per_channel = memory.per_channel_mitigation_stats();
        assert!(per_channel[0].preventive_refreshes > 0, "hammered channel must react");
        assert_eq!(per_channel[1].preventive_refreshes, 0, "idle channel tracker must stay clean");
        assert_eq!(
            memory.mitigation_stats().preventive_refreshes,
            per_channel[0].preventive_refreshes,
            "aggregate equals the sum of shards"
        );
    }

    #[test]
    fn energy_counters_aggregate_across_shards() {
        let dram = DramConfig::ddr4_multi_channel(2);
        let mut memory = MemorySystem::new(dram, ControllerConfig::default(), &baseline_factory());
        memory.enqueue(MemRequest::new(0, 0, addr(0, 1), false, 0));
        memory.enqueue(MemRequest::new(1, 0, addr(1, 1), false, 0));
        drain(&mut memory, 10_000);
        let energy = memory.energy_counters(5000);
        assert_eq!(energy.acts, 2);
        assert_eq!(energy.reads, 2);
        assert_eq!(energy.elapsed_cycles, 5000);
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn zero_channel_configuration_is_rejected() {
        let mut dram = DramConfig::ddr4_paper_default();
        dram.geometry.channels = 0;
        let _ = MemorySystem::new(dram, ControllerConfig::default(), &baseline_factory());
    }
}
