//! The interface between the memory controller and a RowHammer mitigation mechanism.

use crate::stats::MitigationStats;
use comet_dram::{Cycle, DramAddr};

/// Actions a mitigation mechanism asks the memory controller to carry out in
/// response to a row activation.
///
/// A response may combine several actions (e.g. Hydra may both fetch a counter
/// from DRAM and request a preventive refresh). The controller interprets the
/// fields as follows:
///
/// * `refresh_victims` — rows to preventively refresh (one ACT + PRE each),
///   prioritized over pending demand requests (paper §7.2.2);
/// * `refresh_rank` — perform an *early preventive refresh*: issue
///   `tREFW / tREFI` back-to-back REF commands to the rank of the activated
///   row and then call
///   [`RowHammerMitigation::on_rank_refreshed`] so the mechanism can reset its
///   counters (paper §4.2);
/// * `counter_reads` / `counter_writes` — number of DRAM accesses the
///   mechanism performs for its own metadata (Hydra's row-count table); the
///   controller injects that many high-priority requests and charges their
///   latency to the triggering activation;
/// * `throttle_cycles` — the activation may only be re-issued after this many
///   cycles (BlockHammer-style throttling); `0` means no throttling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MitigationResponse {
    /// Victim rows to preventively refresh.
    pub refresh_victims: Vec<DramAddr>,
    /// Refresh every row of the activated row's rank and reset the tracker.
    pub refresh_rank: bool,
    /// Metadata reads the mechanism performs in DRAM.
    pub counter_reads: u32,
    /// Metadata writes the mechanism performs in DRAM.
    pub counter_writes: u32,
    /// Delay before the activation may proceed (0 = proceed immediately).
    pub throttle_cycles: Cycle,
}

impl MitigationResponse {
    /// A response requiring no controller action.
    pub fn none() -> Self {
        Self::default()
    }

    /// A response that preventively refreshes `victims`.
    pub fn refresh(victims: Vec<DramAddr>) -> Self {
        MitigationResponse { refresh_victims: victims, ..Default::default() }
    }

    /// Whether the response requires any controller action at all.
    pub fn is_nop(&self) -> bool {
        self.refresh_victims.is_empty()
            && !self.refresh_rank
            && self.counter_reads == 0
            && self.counter_writes == 0
            && self.throttle_cycles == 0
    }
}

/// A RowHammer mitigation mechanism living in the memory controller.
///
/// The controller calls [`on_activation`](Self::on_activation) for every ACT
/// command it issues and executes the returned [`MitigationResponse`].
/// Implementations must be deterministic given their construction-time seed so
/// experiments are reproducible.
///
/// `Send` is a supertrait, so a mechanism instance, and the system that owns
/// it, can be moved to another thread.
///
/// # Methods the simulator does not call
///
/// The memory controller notifies one activation at a time and never copies
/// a mechanism, so [`on_activations`](Self::on_activations),
/// [`quiescent_activations`](Self::quiescent_activations),
/// [`checkpoint`](Self::checkpoint), [`restore`](Self::restore) and
/// [`as_any`](Self::as_any) have no caller in the simulator. Each has a
/// default body, so a mechanism implements none of them. They stay on the
/// trait only because the repository benchmark's timing wrapper
/// (`TimedTracker` in `repobench/src/traced.rs`) forwards all five; ROADMAP
/// item 4(b) drops those forwards, after which the methods can go.
pub trait RowHammerMitigation: Send {
    /// Short, stable mechanism name used in experiment reports (e.g. `"CoMeT"`).
    fn name(&self) -> &str;

    /// Notifies the mechanism that row `addr` was activated at cycle `now`.
    ///
    /// `weight` is the number of equivalent activations to charge. The
    /// controller always passes 1: nothing feeds RowPress-adjusted weights
    /// (`comet_dram::rowpress`) into the simulator, so a weight above 1 only
    /// reaches a mechanism through a direct call.
    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse;

    /// Notifies the mechanism of a batch of activations in one call.
    ///
    /// `batch` entries are `(address, cycle, weight)` in nondecreasing cycle
    /// order; the returned responses correspond to the entries in order and
    /// are exactly what per-entry [`on_activation`](Self::on_activation)
    /// calls would have produced. The default implementation is that loop;
    /// mechanisms can override it to amortize per-activation overhead
    /// (epoch checks, repeated lookups of a hot bank's tables) over the
    /// batch, as long as the responses stay bit-identical. The simulator
    /// does not call it (see the trait-level note).
    fn on_activations(&mut self, batch: &[(DramAddr, Cycle, u64)]) -> Vec<MitigationResponse> {
        batch.iter().map(|(addr, now, weight)| self.on_activation(addr, *now, *weight)).collect()
    }

    /// Notifies the mechanism that a periodic REF command was issued to `rank`.
    fn on_periodic_refresh(&mut self, _rank: usize, _now: Cycle) {}

    /// Gives the mechanism an opportunity to perform time-based work
    /// (e.g. CoMeT's periodic counter reset).
    ///
    /// The controller calls this on every tick it performs, and additionally
    /// guarantees a tick at [`next_tick_deadline`](Self::next_tick_deadline)
    /// even on an otherwise idle channel — so time-based bookkeeping must be
    /// *scheduled* through the deadline, not assumed to run on a fixed
    /// cadence: an idle channel shard reports its full idle window, and the
    /// event-driven loop crosses it in one jump.
    fn on_tick(&mut self, _now: Cycle) {}

    /// The next cycle at which the mechanism needs [`on_tick`](Self::on_tick)
    /// to run (its next scheduled periodic-reset boundary), or `Cycle::MAX`
    /// when it has no time-based work. The controller folds this into its
    /// next-event bound, so the deadline is honored exactly even when the
    /// channel is otherwise idle. Mechanisms with periodic state (epoch
    /// rotations, counter resets) must keep this current; returning a stale
    /// early value only costs a no-op wakeup, but returning a value past the
    /// true boundary would delay the reset.
    fn next_tick_deadline(&self) -> Cycle {
        Cycle::MAX
    }

    /// Notifies the mechanism that the controller finished refreshing every row
    /// of `rank` (in response to `refresh_rank`), so saturated state can be reset.
    fn on_rank_refreshed(&mut self, _rank: usize, _now: Cycle) {}

    /// Extra cycles of bank busy time added to *every* activation by the
    /// mechanism (REGA's refresh-generating activations). `0` for most mechanisms.
    fn act_latency_penalty(&self) -> Cycle {
        0
    }

    /// Statistics accumulated since construction (or the last [`Self::reset_stats`]).
    fn stats(&self) -> MitigationStats;

    /// Clears the statistics (e.g. after the warmup phase of a simulation).
    fn reset_stats(&mut self);

    /// Processor-side storage the mechanism requires, in bits, for the whole
    /// channel it protects. Used for cross-checking the analytic area model.
    fn storage_bits(&self) -> u64;

    /// Cold-path structure gauges for the telemetry layer: `(name, value)`
    /// pairs describing internal tracker state the [`MitigationStats`]
    /// counters cannot see (cache occupancy, sketch saturation). Called once
    /// at run end — never on the activation path — and surfaced as
    /// `comet_tracker_<name>` gauges labeled by mechanism and channel.
    /// Mechanisms without interesting internal structure report nothing.
    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// An activation *weight budget* the mechanism guarantees to absorb
    /// without any observable reaction, given its current state.
    ///
    /// If the next activations notified to the mechanism carry a total weight
    /// of at most this value, then — barring an intervening periodic boundary
    /// ([`next_tick_deadline`](Self::next_tick_deadline)), rank refresh, or
    /// periodic refresh, all of which invalidate the promise — every one of
    /// those [`on_activation`](Self::on_activation) calls would return a
    /// [nop](MitigationResponse::is_nop) response. The default of `0` makes no
    /// promise and is always sound; no built-in mechanism overrides it, and
    /// the simulator does not call it (see the trait-level note).
    fn quiescent_activations(&self) -> u64 {
        0
    }

    /// Clones the mechanism into a boxed trait object. No mechanism
    /// supports it: the default panics (see the trait-level note).
    fn checkpoint(&self) -> Box<dyn RowHammerMitigation> {
        panic!("{}: `checkpoint` is not implemented (kept only until ROADMAP item 4(b))", self.name())
    }

    /// Restores the mechanism to a state captured by
    /// [`checkpoint`](Self::checkpoint). No mechanism supports it: the
    /// default panics (see the trait-level note).
    fn restore(&mut self, _checkpoint: &dyn RowHammerMitigation) {
        panic!("{}: `restore` is not implemented (kept only until ROADMAP item 4(b))", self.name())
    }

    /// The mechanism as [`Any`](std::any::Any). No mechanism supports it:
    /// the default panics (see the trait-level note).
    fn as_any(&self) -> &dyn std::any::Any {
        panic!("{}: `as_any` is not implemented (kept only until ROADMAP item 4(b))", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_response_is_nop() {
        assert!(MitigationResponse::none().is_nop());
        assert!(MitigationResponse::default().is_nop());
    }

    #[test]
    fn refresh_response_is_not_nop() {
        let addr = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 5, column: 0 };
        let r = MitigationResponse::refresh(vec![addr]);
        assert!(!r.is_nop());
        assert_eq!(r.refresh_victims.len(), 1);
    }

    #[test]
    fn throttle_only_response_is_not_nop() {
        let r = MitigationResponse { throttle_cycles: 10, ..Default::default() };
        assert!(!r.is_nop());
    }

    #[test]
    fn counter_traffic_response_is_not_nop() {
        let r = MitigationResponse { counter_reads: 1, ..Default::default() };
        assert!(!r.is_nop());
        let w = MitigationResponse { counter_writes: 1, ..Default::default() };
        assert!(!w.is_nop());
    }

    #[test]
    fn batched_activations_match_the_per_activation_loop() {
        use comet_dram::{DramGeometry, TimingParams};

        let geometry = DramGeometry::paper_default();
        let timing = TimingParams::ddr4_2400();
        let config = crate::GrapheneConfig::for_threshold(500, &timing, &geometry);
        let mut batched = crate::Graphene::new(config.clone(), geometry.clone());
        let mut looped = crate::Graphene::new(config, geometry);

        let batch: Vec<(DramAddr, Cycle, u64)> = (0..600u64)
            .map(|i| {
                let addr = DramAddr {
                    channel: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 0,
                    row: (i % 3) as usize,
                    column: 0,
                };
                (addr, i * 20, 1)
            })
            .collect();

        let responses = batched.on_activations(&batch);
        assert_eq!(responses.len(), batch.len());
        for (response, (addr, now, weight)) in responses.iter().zip(&batch) {
            assert_eq!(*response, looped.on_activation(addr, *now, *weight));
        }
        assert_eq!(batched.stats(), looped.stats());
        assert!(responses.iter().any(|r| !r.is_nop()), "the hammer batch must trigger refreshes");
    }

    #[test]
    #[should_panic(expected = "Baseline: `checkpoint` is not implemented")]
    fn uncalled_checkpoint_methods_panic_by_default() {
        let _ = crate::NoMitigation::new().checkpoint();
    }

    #[test]
    fn mechanisms_are_send() {
        fn assert_send<T: Send + ?Sized>() {}
        assert_send::<dyn RowHammerMitigation>();
        assert_send::<Box<dyn RowHammerMitigation>>();
    }
}
