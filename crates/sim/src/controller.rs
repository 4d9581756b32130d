//! The memory controller: per-bank request queues, FR-FCFS scheduling,
//! refresh management, and the RowHammer-mitigation hook on every activation.
//!
//! # Per-bank scheduler architecture
//!
//! `tick` runs on every loop iteration whose cycle reaches the shard's
//! next-event bound: the cycle after each issued command, and each wakeup
//! the bound names. Its cost dominates simulation throughput. Earlier
//! revisions kept two monolithic read/write queues and re-scanned all of
//! them on every tick; this controller keeps one *lane* per DRAM bank
//! (`BankLane`: a read FIFO and a write FIFO in arrival order, plus
//! open-row hit counts) and arbitrates over at most one memoized candidate
//! per lane per scheduling class. The invariants, in dependency order:
//!
//! * **Seq order is FCFS order.** Every accepted request is stamped with a
//!   globally increasing arrival sequence number. Lane FIFOs are seq-sorted
//!   by construction, and the cross-lane arbitration queues are seq-sorted
//!   by maintenance, so "oldest first" never needs a global scan: the FCFS
//!   arbitration order of a full-queue scan is reproduced bit-exactly.
//! * **One candidate per lane per class.** For each of the four scheduling
//!   classes — {read, write} × {open-row hit, non-hit} — only the lane's
//!   *oldest unheld* entry can ever be picked (FR-FCFS never serves a
//!   younger entry of the same class first, and per-bank command timing
//!   does not depend on which entry is served). `LaneSched` memoizes
//!   these candidates; `MemoryController::refresh_lane`
//!   re-derives them with one front-biased FIFO scan, but only for lanes
//!   marked **dirty** — by an enqueue, by a command issued to the bank
//!   (ACT/PRE/column directly, PREA/REF via their whole-rank sweep), by a
//!   mitigation hold, or by a recorded hold maturing (`next_hold_check`).
//!   Undisturbed lanes are never rescanned.
//! * **The ready set is keyed by memoized earliest-legal-issue cycles.**
//!   The four `ClassCand` queues are the persistent arbitration
//!   structure: each entry carries `blocked_until`, the candidate's last
//!   computed earliest-legal-issue cycle. DRAM timing constraints only move
//!   *later* as other commands issue, and every event that could move a
//!   bank's schedule *earlier* dirties the lane and re-arms its entries, so
//!   a tick skips non-matured candidates with a single compare — no timing
//!   recomputation — and evaluates only the candidates whose bound has
//!   matured (the ready set). A pass walks its class queue in seq order:
//!   skip blocked (fold the bound into the next-event time), evaluate
//!   matured (memoized ACT/PRE constraint caches below), issue the first
//!   legal one.
//!
//! Scheduling passes run in the historical order — column hits (FR) for the
//! write-drain-preferred kind then the other kind, then activations and
//! precharges (FCFS) likewise — and each issues at most one command per
//! tick, so the command stream is a pure function of controller state.
//! While the channel's data bus is busy no column command is legal, so the
//! FR pass sleeps: it neither walks nor evaluates its candidates, and only
//! when the FCFS pass issues nothing does the tick fold their recorded
//! bounds, each raised to the bus-free cycle, into its next-event bound.
//!
//! The returned next-event bound is the minimum over skipped candidates'
//! bounds, freshly evaluated constraint times, pending hold expiries,
//! refresh deadlines, and the mitigation's scheduled tick deadline
//! (`RowHammerMitigation::next_tick_deadline`, which retired the historical
//! `now + tREFI` clamp) — exactly what `MemorySystem`'s per-shard next-event
//! cache and `System::run`'s event jumps consume. The tighter the bound, the
//! fewer no-op ticks the simulation performs.
//!
//! All of this is pure bookkeeping: scheduling decisions are bit-identical
//! to the straightforward full-queue scans, which the bit-exactness suite
//! pins down three ways — golden checksums unchanged across the per-bank
//! rewrite (`crates/bench/tests/bitexact_hotpath.rs`), dense-vs-event
//! equivalence with `LoopMode::DenseReference` as the independent oracle
//! (including the queue-saturating FCFS stress cells), and randomized
//! enqueue-interleaving properties
//! (`crates/bench/tests/fcfs_interleavings.rs`).

use crate::metrics::{BankQueueDepth, SchedulerPressure};
use crate::request::{CompletedRead, MemRequest};
use comet_dram::{
    CommandKind, Cycle, DramAddr, DramChannel, DramConfig, DramGeometry, EnergyCounters, RefreshScheduler,
    TimingParams,
};
use comet_mitigations::{MitigationResponse, RowHammerMitigation};
use std::collections::VecDeque;

/// Controller policy parameters (Table 2 of the paper).
///
/// `Serialize` feeds the experiment service's canonical cell-key encoding:
/// every field here is part of a cached result's identity.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ControllerConfig {
    /// Read queue capacity.
    pub read_queue_size: usize,
    /// Write queue capacity.
    pub write_queue_size: usize,
    /// FR-FCFS column-access cap: consecutive row hits served before a conflicting
    /// request may force a precharge.
    pub column_cap: u32,
    /// Write drain starts when the write queue reaches this occupancy.
    pub write_drain_high: usize,
    /// Write drain stops when the write queue falls to this occupancy.
    pub write_drain_low: usize,
    /// Cycles charged per Hydra-style metadata access (row-counter read or write
    /// in DRAM): approximately one full row-miss access.
    pub counter_access_cycles: Cycle,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            read_queue_size: 64,
            write_queue_size: 64,
            column_cap: 16,
            write_drain_high: 48,
            write_drain_low: 16,
            counter_access_cycles: 45,
        }
    }
}

/// Statistics accumulated by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerStats {
    /// Demand reads completed.
    pub reads_completed: u64,
    /// Demand writes issued to DRAM.
    pub writes_completed: u64,
    /// Sum of read latencies in DRAM cycles (arrival → data return).
    pub read_latency_sum: u64,
    /// Preventive-refresh victim rows fully refreshed (ACT + PRE).
    pub preventive_refreshes_done: u64,
    /// Rank-level early preventive refresh operations carried out.
    pub rank_refreshes_done: u64,
    /// Periodic REF commands issued.
    pub periodic_refreshes: u64,
    /// Activations delayed by mitigation throttling.
    pub throttled_acts: u64,
    /// Extra DRAM accesses performed for mitigation metadata (Hydra).
    pub metadata_accesses: u64,
}

impl ControllerStats {
    /// Average read latency in DRAM cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_completed as f64
        }
    }

    /// Field-wise sum (`self + other`), used to aggregate per-channel shards.
    pub fn merged(&self, other: &ControllerStats) -> ControllerStats {
        ControllerStats {
            reads_completed: self.reads_completed + other.reads_completed,
            writes_completed: self.writes_completed + other.writes_completed,
            read_latency_sum: self.read_latency_sum + other.read_latency_sum,
            preventive_refreshes_done: self.preventive_refreshes_done + other.preventive_refreshes_done,
            rank_refreshes_done: self.rank_refreshes_done + other.rank_refreshes_done,
            periodic_refreshes: self.periodic_refreshes + other.periodic_refreshes,
            throttled_acts: self.throttled_acts + other.throttled_acts,
            metadata_accesses: self.metadata_accesses + other.metadata_accesses,
        }
    }

    /// Field-wise difference (`self - earlier`), used for warmup exclusion.
    pub fn delta_since(&self, earlier: &ControllerStats) -> ControllerStats {
        ControllerStats {
            reads_completed: self.reads_completed - earlier.reads_completed,
            writes_completed: self.writes_completed - earlier.writes_completed,
            read_latency_sum: self.read_latency_sum - earlier.read_latency_sum,
            preventive_refreshes_done: self.preventive_refreshes_done - earlier.preventive_refreshes_done,
            rank_refreshes_done: self.rank_refreshes_done - earlier.rank_refreshes_done,
            periodic_refreshes: self.periodic_refreshes - earlier.periodic_refreshes,
            throttled_acts: self.throttled_acts - earlier.throttled_acts,
            metadata_accesses: self.metadata_accesses - earlier.metadata_accesses,
        }
    }
}

/// A queued demand request in a compact layout.
///
/// Entries are packed (48 bytes vs. ~104 for `MemRequest` plus bank and seq)
/// with the scheduling-hot fields first; the original [`MemRequest`] is
/// reconstructed only at the issue and completion sites.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// The request's next command may not issue before this cycle.
    hold_until: Cycle,
    /// Global arrival sequence number: FCFS order within and across banks.
    seq: u64,
    /// Row index within the bank.
    row: u32,
    /// Whether the mitigation was already notified of the pending activation.
    act_notified: bool,
    /// Whether the request is a (posted) write.
    is_write: bool,
    /// Unique request id (assigned by the issuing core).
    id: u64,
    /// DRAM cycle at which the request entered the controller.
    arrival: Cycle,
    /// Issuing core.
    core: u16,
    /// Remaining decoded address fields for reconstruction.
    channel: u8,
    rank: u8,
    bank_group: u8,
    bank_in_group: u8,
    /// Column (cache line) index within the row.
    column: u16,
}

impl Queued {
    fn new(request: MemRequest, seq: u64) -> Self {
        Queued {
            hold_until: request.hold_until,
            seq,
            row: request.addr.row as u32,
            act_notified: request.act_notified,
            is_write: request.is_write,
            id: request.id,
            arrival: request.arrival,
            core: request.core as u16,
            channel: request.addr.channel as u8,
            rank: request.addr.rank as u8,
            bank_group: request.addr.bank_group as u8,
            bank_in_group: request.addr.bank as u8,
            column: request.addr.column as u16,
        }
    }

    fn addr(&self) -> DramAddr {
        DramAddr {
            channel: self.channel as usize,
            rank: self.rank as usize,
            bank_group: self.bank_group as usize,
            bank: self.bank_in_group as usize,
            row: self.row as usize,
            column: self.column as usize,
        }
    }

    fn request(&self) -> MemRequest {
        MemRequest {
            id: self.id,
            core: self.core as usize,
            addr: self.addr(),
            is_write: self.is_write,
            arrival: self.arrival,
            hold_until: self.hold_until,
            act_notified: self.act_notified,
        }
    }
}

/// Per-bank count of queued requests targeting the bank's currently open row,
/// split by queue kind. Maintained incrementally; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
struct HitCounts {
    reads: u32,
    writes: u32,
}

/// The lane is not a member of the pending set.
const NOT_PENDING: u32 = u32::MAX;

/// "No candidate" marker in [`LaneSched::cand_seq`].
const NO_CAND: u64 = u64::MAX;

/// Scheduling classes, indexing [`LaneSched::cand_seq`]: the oldest unheld
/// open-row hit and the oldest unheld non-hit, per queue kind.
const READ_HIT: usize = 0;
const WRITE_HIT: usize = 1;
const READ_MISS: usize = 2;
const WRITE_MISS: usize = 3;

/// One bank's scheduling lane: its demand FIFOs plus the per-bank state that
/// changes only on enqueue or on commands to the bank.
#[derive(Debug)]
struct BankLane {
    /// Queued demand reads, in arrival (seq) order.
    reads: VecDeque<Queued>,
    /// Queued demand writes, in arrival (seq) order.
    writes: VecDeque<Queued>,
    /// Open-row hits currently queued in this lane, split by kind.
    hits: HitCounts,
    /// Index of this lane in `pending` ([`NOT_PENDING`] when empty).
    pending_pos: u32,
    /// Highest queued demand count (reads + writes) ever observed, a
    /// per-bank pressure metric for sweep reports.
    depth_peak: u32,
}

impl BankLane {
    fn new() -> Self {
        BankLane {
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            hits: HitCounts::default(),
            pending_pos: NOT_PENDING,
            depth_peak: 0,
        }
    }

    fn fifo(&self, writes: bool) -> &VecDeque<Queued> {
        if writes {
            &self.writes
        } else {
            &self.reads
        }
    }

    fn fifo_mut(&mut self, writes: bool) -> &mut VecDeque<Queued> {
        if writes {
            &mut self.writes
        } else {
            &mut self.reads
        }
    }

    fn queued(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// The per-lane scheduling summary, kept in a dense array so candidate
/// maintenance never has to touch a lane's heap-allocated FIFOs unless the
/// lane actually changed.
///
/// The candidate fields memoize, per scheduling class, the lane's oldest
/// entry with `hold_until <= now` — the only entry of that class the FR-FCFS
/// arbitration can ever pick. They stay valid until the lane is marked dirty
/// (an enqueue, a command to the bank, or a mitigation hold) or until
/// `holds_valid` passes (a held entry older than a candidate matures and
/// takes over candidacy); [`MemoryController::refresh_lane`] recomputes them
/// lazily at the next demand tick.
#[derive(Debug, Clone, Copy)]
struct LaneSched {
    /// The memo is valid strictly before this cycle (the earliest
    /// `hold_until` of a held entry that precedes a candidate of its class,
    /// `Cycle::MAX` when no such entry is held). Also a next-event term: a
    /// maturing hold is a scheduling event.
    holds_valid: Cycle,
    /// Arrival seq of the four class candidates ([`NO_CAND`] when absent).
    cand_seq: [u64; 4],
    /// FIFO index of each candidate within its kind's queue.
    cand_index: [u16; 4],
    /// Column accesses served since the last activation (for the column cap).
    columns_since_act: u32,
    /// Whether the lane awaits a candidate recompute (member of `dirty`).
    dirty: bool,
}

impl LaneSched {
    fn new() -> Self {
        LaneSched {
            holds_valid: Cycle::MAX,
            cand_seq: [NO_CAND; 4],
            cand_index: [0; 4],
            columns_since_act: 0,
            dirty: false,
        }
    }
}

/// One entry of a persistent per-class arbitration queue, sorted by arrival
/// seq (FCFS order). `blocked_until` memoizes the candidate's last computed
/// earliest-legal-issue cycle: DRAM timing constraints only ever move
/// *later* as other commands issue, and every event that could move this
/// bank's schedule *earlier* (enqueue, command to the bank, hold changes)
/// marks the lane dirty and rebuilds its entries — so a recorded bound stays
/// a sound reason to skip the candidate without recomputation.
#[derive(Debug, Clone, Copy)]
struct ClassCand {
    /// Arrival sequence number (the FCFS arbitration key and sort key).
    seq: u64,
    /// The candidate cannot issue before this cycle (0 = not yet evaluated).
    blocked_until: Cycle,
    /// Flat bank index.
    bank: u16,
    /// Index of the entry within the lane's FIFO for this class's kind.
    index: u16,
}

/// A memoized timing-constraint value stamped with the command sequence
/// number it was computed under (`seq == 0` never matches, marking the entry
/// invalid). ACT/PRE constraints only change when a command is issued to the
/// covered bank or rank, so a stamped entry stays exact until its sequence
/// counter moves.
#[derive(Debug, Clone, Copy, Default)]
struct CachedConstraint {
    at: Cycle,
    seq: u64,
}

/// The memory controller for one DRAM channel.
pub struct MemoryController {
    config: ControllerConfig,
    /// DRAM timing, copied out of the channel config at construction so the
    /// scheduling passes never clone it per call.
    timing: TimingParams,
    /// DRAM geometry, copied for the same reason (flat-bank decoding).
    geometry: DramGeometry,
    channel: DramChannel,
    refresh: RefreshScheduler,
    mitigation: Box<dyn RowHammerMitigation>,
    /// One scheduling lane per bank of the channel.
    lanes: Vec<BankLane>,
    /// The lanes' scheduling summaries (dense).
    sched: Vec<LaneSched>,
    /// Persistent per-class arbitration queues, sorted by arrival seq:
    /// read hits, write hits, read misses, write misses (one candidate per
    /// lane per class). Maintained incrementally through `dirty`.
    class_queues: [Vec<ClassCand>; 4],
    /// Lanes whose candidate memos must be recomputed before the next
    /// demand arbitration (deduplicated via [`LaneSched::dirty`]).
    dirty: Vec<u16>,
    /// Earliest cycle at which some lane's held entry matures and its
    /// candidate memo expires (`Cycle::MAX` when nothing is held). May fire
    /// spuriously early after holds are cleared; a firing re-derives it.
    next_hold_check: Cycle,
    /// Banks with at least one queued demand request (dense set; order is
    /// irrelevant because arbitration orders by candidate seq, not by lane).
    pending: Vec<u16>,
    /// Next arrival sequence number (strictly increasing per accepted request).
    next_seq: u64,
    /// Queued demand reads across all lanes.
    read_len: usize,
    /// Queued demand writes across all lanes.
    write_len: usize,
    /// Victim rows awaiting preventive refresh (served before demand requests).
    preventive_queue: VecDeque<DramAddr>,
    /// Whether a victim activation is in flight (row open, awaiting its PRE).
    preventive_open: Option<DramAddr>,
    /// Rank awaiting an early preventive (rank-level) refresh.
    rank_refresh_pending: Option<usize>,
    /// Shadow of each bank's open row, updated on ACT/PRE/PREA issue.
    open_rows: Vec<Option<usize>>,
    /// Rank-state-changing commands per rank (invalidation stamp).
    rank_seq: Vec<u64>,
    /// Commands issued per bank (invalidation stamp).
    bank_seq: Vec<u64>,
    /// Memoized bank-local ACT constraints (tRC/tRP), stamped by `bank_seq`.
    bank_act_c: Vec<CachedConstraint>,
    /// Memoized bank-local PRE constraints (tRAS/tRTP/tWR), stamped by `bank_seq`.
    bank_pre_c: Vec<CachedConstraint>,
    /// Memoized rank-level ACT constraints per bank group (tRRD/tFAW/busy),
    /// indexed `rank * groups_per_rank + group`, stamped by `rank_seq`.
    group_act_c: Vec<CachedConstraint>,
    draining_writes: bool,
    completions: Vec<CompletedRead>,
    stats: ControllerStats,
    /// Ready-set pressure counters (see [`SchedulerPressure`]).
    pressure: SchedulerPressure,
    /// Candidates whose bound had matured in the current demand tick
    /// (transient; folded into `pressure` per tick).
    tick_evals: u32,
    /// Extra energy events for metadata traffic not issued through the channel.
    extra_energy: EnergyCounters,
    last_tick: Cycle,
}

impl MemoryController {
    /// Creates a controller for `dram` protected by `mitigation`.
    pub fn new(dram: DramConfig, config: ControllerConfig, mitigation: Box<dyn RowHammerMitigation>) -> Self {
        let timing = dram.timing.clone();
        let geometry = dram.geometry.clone();
        let refresh = RefreshScheduler::new(geometry.ranks_per_channel, &timing);
        let banks = geometry.banks_per_channel();
        let ranks = geometry.ranks_per_channel;
        let groups = geometry.bank_groups_per_rank;
        // The compact queue layout packs address fields into narrow integers.
        assert!(
            geometry.channels <= u8::MAX as usize + 1
                && ranks <= u8::MAX as usize + 1
                && groups <= u8::MAX as usize + 1
                && geometry.banks_per_bank_group <= u8::MAX as usize + 1
                && banks <= u16::MAX as usize + 1
                && geometry.rows_per_bank <= u32::MAX as usize + 1
                && geometry.columns_per_row <= u16::MAX as usize + 1,
            "DRAM geometry exceeds the controller's compact queue layout"
        );
        MemoryController {
            config,
            timing,
            geometry,
            channel: DramChannel::new(dram),
            refresh,
            mitigation,
            lanes: (0..banks).map(|_| BankLane::new()).collect(),
            sched: vec![LaneSched::new(); banks],
            class_queues: std::array::from_fn(|_| Vec::with_capacity(banks)),
            dirty: Vec::with_capacity(banks),
            next_hold_check: Cycle::MAX,
            pending: Vec::with_capacity(banks),
            next_seq: 0,
            read_len: 0,
            write_len: 0,
            preventive_queue: VecDeque::new(),
            preventive_open: None,
            rank_refresh_pending: None,
            open_rows: vec![None; banks],
            rank_seq: vec![1; ranks],
            bank_seq: vec![1; banks],
            bank_act_c: vec![CachedConstraint::default(); banks],
            bank_pre_c: vec![CachedConstraint::default(); banks],
            group_act_c: vec![CachedConstraint::default(); ranks * groups],
            draining_writes: false,
            completions: Vec::new(),
            stats: ControllerStats::default(),
            pressure: SchedulerPressure::default(),
            tick_evals: 0,
            extra_energy: EnergyCounters::default(),
            last_tick: 0,
        }
    }

    /// The DRAM configuration being driven.
    pub fn dram_config(&self) -> &DramConfig {
        self.channel.config()
    }

    /// Controller statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Mitigation statistics.
    pub fn mitigation_stats(&self) -> comet_mitigations::MitigationStats {
        self.mitigation.stats()
    }

    /// The mitigation mechanism's name.
    pub fn mitigation_name(&self) -> &str {
        self.mitigation.name()
    }

    /// The mitigation's cold-path structure gauges (telemetry layer).
    pub fn mitigation_telemetry(&self) -> Vec<(&'static str, f64)> {
        self.mitigation.telemetry_gauges()
    }

    /// Ready-set pressure counters accumulated over all demand ticks.
    pub fn scheduler_pressure(&self) -> SchedulerPressure {
        self.pressure
    }

    /// Current and peak queue depth of every bank lane, for per-bank
    /// controller-pressure reporting.
    pub fn bank_queue_depths(&self) -> Vec<BankQueueDepth> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(bank, lane)| BankQueueDepth {
                bank,
                queued_reads: lane.reads.len() as u32,
                queued_writes: lane.writes.len() as u32,
                depth_peak: lane.depth_peak,
            })
            .collect()
    }

    /// Combined DRAM energy counters: channel commands plus metadata traffic.
    pub fn energy_counters(&self, elapsed_cycles: Cycle) -> EnergyCounters {
        let ch = *self.channel.energy();
        EnergyCounters {
            acts: ch.acts + self.extra_energy.acts,
            pres: ch.pres + self.extra_energy.pres,
            reads: ch.reads + self.extra_energy.reads,
            writes: ch.writes + self.extra_energy.writes,
            refs: ch.refs + self.extra_energy.refs,
            elapsed_cycles,
        }
    }

    /// Raw channel command statistics.
    pub fn channel_stats(&self) -> comet_dram::ChannelStats {
        self.channel.stats()
    }

    /// Whether the read queue can accept another request.
    pub fn can_accept_read(&self) -> bool {
        self.read_len < self.config.read_queue_size
    }

    /// Whether the write queue can accept another request.
    pub fn can_accept_write(&self) -> bool {
        self.write_len < self.config.write_queue_size
    }

    /// Demand requests dequeued so far from the read queue, or the write
    /// queue when `is_write`. A slot in that queue frees exactly when this
    /// count moves: a request leaves its queue only when its column command
    /// issues, which is when it counts as completed.
    pub(crate) fn dequeues(&self, is_write: bool) -> u64 {
        if is_write {
            self.stats.writes_completed
        } else {
            self.stats.reads_completed
        }
    }

    /// Enqueues a demand request. Returns `false` (and drops nothing) when the
    /// corresponding queue is full — the caller must retry later.
    pub fn enqueue(&mut self, request: MemRequest) -> bool {
        let bank = request.addr.flat_bank(&self.geometry);
        let is_hit = self.open_rows[bank] == Some(request.addr.row);
        if request.is_write {
            if !self.can_accept_write() {
                return false;
            }
            self.write_len += 1;
        } else {
            if !self.can_accept_read() {
                return false;
            }
            self.read_len += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Queued::new(request, seq);
        let lane = &mut self.lanes[bank];
        let index;
        if request.is_write {
            lane.writes.push_back(entry);
            index = lane.writes.len() - 1;
            if is_hit {
                lane.hits.writes += 1;
            }
        } else {
            lane.reads.push_back(entry);
            index = lane.reads.len() - 1;
            if is_hit {
                lane.hits.reads += 1;
            }
        }
        lane.depth_peak = lane.depth_peak.max(lane.queued() as u32);
        if lane.pending_pos == NOT_PENDING {
            lane.pending_pos = self.pending.len() as u32;
            self.pending.push(bank as u16);
            self.pressure.pending_lanes_max = self.pressure.pending_lanes_max.max(self.pending.len() as u32);
        }
        // Appending the youngest entry never changes existing candidates
        // (it loses every FCFS comparison) and never relaxes timing, so the
        // lane's memo stays exact: the entry matters now only if its class
        // had no candidate at all, and then it goes to the *back* of the
        // class queue (its seq is globally maximal) — O(1), no rescan. The
        // slow path covers lanes already awaiting a refresh and the
        // (never-generated) case of a request arriving pre-held.
        if self.sched[bank].dirty || entry.hold_until > 0 {
            self.mark_dirty(bank);
        } else {
            let class = match (request.is_write, is_hit) {
                (false, true) => READ_HIT,
                (true, true) => WRITE_HIT,
                (false, false) => READ_MISS,
                (true, false) => WRITE_MISS,
            };
            let sched = &mut self.sched[bank];
            if sched.cand_seq[class] == NO_CAND {
                sched.cand_seq[class] = seq;
                sched.cand_index[class] = index as u16;
                self.class_queues[class].push(ClassCand {
                    seq,
                    blocked_until: 0,
                    bank: bank as u16,
                    index: index as u16,
                });
            }
        }
        true
    }

    /// Removes `bank` from the pending set when its lane just became empty.
    fn after_dequeue(&mut self, bank: usize) {
        let lane = &self.lanes[bank];
        if lane.queued() > 0 || lane.pending_pos == NOT_PENDING {
            return;
        }
        let pos = lane.pending_pos as usize;
        self.lanes[bank].pending_pos = NOT_PENDING;
        self.pending.swap_remove(pos);
        if let Some(&moved) = self.pending.get(pos) {
            self.lanes[moved as usize].pending_pos = pos as u32;
        }
    }

    /// Number of requests currently queued (reads + writes).
    pub fn queued_requests(&self) -> usize {
        self.read_len + self.write_len
    }

    /// Moves the reads completed since the last call into `out`, preserving
    /// completion order and keeping the controller's internal buffer (and its
    /// capacity) for reuse.
    pub fn drain_completions_into(&mut self, out: &mut Vec<CompletedRead>) {
        out.append(&mut self.completions);
    }

    /// Whether the controller has any pending work besides periodic refresh.
    pub fn idle(&self) -> bool {
        self.read_len == 0
            && self.write_len == 0
            && self.preventive_queue.is_empty()
            && self.preventive_open.is_none()
            && self.rank_refresh_pending.is_none()
    }

    fn flat_bank(&self, addr: &DramAddr) -> usize {
        addr.flat_bank(&self.geometry)
    }

    /// Updates the open-row shadow, hit counts, ready-cache invalidation
    /// stamps, and lane ready bounds after `cmd` was issued to `addr`. Must
    /// be called for every command handed to the channel.
    fn note_issued(&mut self, cmd: CommandKind, addr: &DramAddr) {
        // Drop the memoized ready times the command can have tightened: only
        // ACT moves the rank-level ACT constraints (tRRD, tFAW) and only REF
        // makes the rank busy, while every command updates its own bank's
        // history (tRC/tRP for ACT, tRAS/tRTP/tWR for PRE). PREA and REF
        // touch every bank of the rank. A command issued to a bank is also
        // the only event (besides enqueue) that can make the bank's lane
        // issuable *earlier* than recorded, so the same arms reset the
        // lane's ready bound.
        match cmd {
            CommandKind::Act | CommandKind::Ref | CommandKind::PreAll => {
                self.rank_seq[addr.rank] += 1;
            }
            _ => {}
        }
        match cmd {
            CommandKind::PreAll | CommandKind::Ref => {
                let banks_per_rank = self.geometry.banks_per_rank();
                for bank in addr.rank * banks_per_rank..(addr.rank + 1) * banks_per_rank {
                    self.bank_seq[bank] += 1;
                    self.mark_dirty(bank);
                }
            }
            _ => {
                let bank = self.flat_bank(addr);
                self.bank_seq[bank] += 1;
                self.mark_dirty(bank);
            }
        }
        match cmd {
            CommandKind::Act => {
                let bank = self.flat_bank(addr);
                self.open_rows[bank] = Some(addr.row);
                self.recount_bank_hits(bank);
            }
            CommandKind::Pre => {
                let bank = self.flat_bank(addr);
                self.open_rows[bank] = None;
                self.lanes[bank].hits = HitCounts::default();
            }
            CommandKind::PreAll => {
                let banks_per_rank = self.geometry.banks_per_rank();
                for bank in addr.rank * banks_per_rank..(addr.rank + 1) * banks_per_rank {
                    self.open_rows[bank] = None;
                    self.lanes[bank].hits = HitCounts::default();
                }
            }
            // Column and refresh commands leave open rows untouched. (The
            // controller never issues RdA/WrA; the lane hit counts are
            // adjusted at the column-issue site itself.)
            _ => {}
        }
        debug_assert_eq!(
            self.open_rows[self.flat_bank(addr)],
            self.channel.open_row(addr),
            "open-row shadow diverged from the channel after {cmd:?}"
        );
    }

    /// Recounts `bank`'s open-row hits from scratch (after an ACT changed the
    /// open row). Scans only the bank's own lane — the payoff of per-bank
    /// FIFOs over the old whole-queue recount.
    fn recount_bank_hits(&mut self, bank: usize) {
        let open = self.open_rows[bank];
        let lane = &mut self.lanes[bank];
        let mut fresh = HitCounts::default();
        if let Some(row) = open {
            fresh.reads = lane.reads.iter().filter(|e| e.row as usize == row).count() as u32;
            fresh.writes = lane.writes.iter().filter(|e| e.row as usize == row).count() as u32;
        }
        lane.hits = fresh;
    }

    /// Earliest cycle an ACT for `addr` can issue, from memoized constraint
    /// parts: the bank-local part (tRC/tRP, stamped by the bank's command
    /// sequence) and the rank-level part (tRRD/tFAW/refresh busy, stamped by
    /// the rank's). Exact, not heuristic — the decomposition equals
    /// [`DramChannel::earliest_issue`] (asserted in debug builds, and
    /// `issue` re-validates timing independently, so a stale cache would
    /// panic rather than corrupt the simulation).
    fn cached_act_at(&mut self, bank: usize, addr: &DramAddr, now: Cycle) -> Cycle {
        let bank_c = {
            let cached = self.bank_act_c[bank];
            if cached.seq == self.bank_seq[bank] {
                cached.at
            } else {
                let at = self.channel.rank(addr.rank).bank(addr.bank_in_rank(&self.geometry)).earliest_issue(
                    CommandKind::Act,
                    0,
                    &self.timing,
                );
                self.bank_act_c[bank] = CachedConstraint { at, seq: self.bank_seq[bank] };
                at
            }
        };
        let group_index = addr.rank * self.geometry.bank_groups_per_rank + addr.bank_group;
        let group_c = {
            let cached = self.group_act_c[group_index];
            if cached.seq == self.rank_seq[addr.rank] {
                cached.at
            } else {
                let at = self.channel.rank(addr.rank).act_constraint(addr.bank_group, &self.timing);
                self.group_act_c[group_index] = CachedConstraint { at, seq: self.rank_seq[addr.rank] };
                at
            }
        };
        let at = bank_c.max(group_c).max(now);
        debug_assert_eq!(
            at,
            self.channel.earliest_issue(CommandKind::Act, addr, now),
            "split ACT constraint cache diverged for bank {bank}"
        );
        at
    }

    /// Earliest cycle a PRE for `addr` can issue: the memoized bank-local
    /// constraint (tRAS/tRTP/tWR) plus the rank's refresh busy time (a plain
    /// field read). Same exactness argument as [`cached_act_at`](Self::cached_act_at).
    fn cached_pre_at(&mut self, bank: usize, addr: &DramAddr, now: Cycle) -> Cycle {
        let bank_c = {
            let cached = self.bank_pre_c[bank];
            if cached.seq == self.bank_seq[bank] {
                cached.at
            } else {
                let at = self.channel.rank(addr.rank).bank(addr.bank_in_rank(&self.geometry)).earliest_issue(
                    CommandKind::Pre,
                    0,
                    &self.timing,
                );
                self.bank_pre_c[bank] = CachedConstraint { at, seq: self.bank_seq[bank] };
                at
            }
        };
        let at = bank_c.max(self.channel.rank(addr.rank).busy_until()).max(now);
        debug_assert_eq!(
            at,
            self.channel.earliest_issue(CommandKind::Pre, addr, now),
            "split PRE constraint cache diverged for bank {bank}"
        );
        at
    }

    /// Verifies every incremental index against a from-scratch recount.
    /// Test-only: the maintenance above must keep these in lockstep.
    #[cfg(test)]
    fn assert_index_invariants(&self) {
        let mut read_total = 0;
        let mut write_total = 0;
        for (bank, lane) in self.lanes.iter().enumerate() {
            let probe = DramAddr {
                channel: 0,
                rank: bank / self.geometry.banks_per_rank(),
                bank_group: (bank % self.geometry.banks_per_rank()) / self.geometry.banks_per_bank_group,
                bank: bank % self.geometry.banks_per_bank_group,
                row: 0,
                column: 0,
            };
            assert_eq!(probe.flat_bank(&self.geometry), bank, "probe address must decode to the bank");
            assert_eq!(self.open_rows[bank], self.channel.open_row(&probe), "shadow open row, bank {bank}");
            let mut fresh = HitCounts::default();
            if let Some(row) = self.open_rows[bank] {
                fresh.reads = lane.reads.iter().filter(|e| e.row as usize == row).count() as u32;
                fresh.writes = lane.writes.iter().filter(|e| e.row as usize == row).count() as u32;
            }
            assert_eq!(lane.hits.reads, fresh.reads, "read hits, bank {bank}");
            assert_eq!(lane.hits.writes, fresh.writes, "write hits, bank {bank}");
            read_total += lane.reads.len();
            write_total += lane.writes.len();
            for fifo in [&lane.reads, &lane.writes] {
                for entry in fifo {
                    assert_eq!(entry.addr().flat_bank(&self.geometry), bank, "entry filed in the wrong lane");
                }
                for pair in fifo.iter().zip(fifo.iter().skip(1)) {
                    assert!(pair.0.seq < pair.1.seq, "lane FIFO out of seq order, bank {bank}");
                }
            }
            let in_pending = lane.pending_pos != NOT_PENDING;
            assert_eq!(in_pending, lane.queued() > 0, "pending membership, bank {bank}");
            if in_pending {
                assert_eq!(
                    self.pending[lane.pending_pos as usize] as usize, bank,
                    "pending position stale, bank {bank}"
                );
            }
        }
        assert_eq!(self.read_len, read_total, "read total");
        assert_eq!(self.write_len, write_total, "write total");
        assert_eq!(
            self.pending.len(),
            self.lanes.iter().filter(|l| l.queued() > 0).count(),
            "pending set size"
        );
        // The sorted class queues must mirror the lanes' candidate memos
        // exactly (one entry per lane per class, seq-sorted).
        for class in 0..4 {
            let queue = &self.class_queues[class];
            for pair in queue.iter().zip(queue.iter().skip(1)) {
                assert!(pair.0.seq < pair.1.seq, "class queue {class} out of seq order");
            }
            let memoized = self.sched.iter().filter(|s| s.cand_seq[class] != NO_CAND).count();
            assert_eq!(queue.len(), memoized, "class queue {class} size");
            for cand in queue {
                let sched = &self.sched[cand.bank as usize];
                assert_eq!(sched.cand_seq[class], cand.seq, "class queue {class} stale seq");
                assert_eq!(sched.cand_index[class], cand.index, "class queue {class} stale index");
            }
        }
        for (bank, sched) in self.sched.iter().enumerate() {
            assert_eq!(
                sched.dirty,
                self.dirty.contains(&(bank as u16)),
                "dirty flag out of sync, bank {bank}"
            );
        }
    }

    fn apply_response(&mut self, response: MitigationResponse, request_addr: &DramAddr, now: Cycle) -> Cycle {
        let mut hold = now;
        if response.counter_reads > 0 || response.counter_writes > 0 {
            let accesses = (response.counter_reads + response.counter_writes) as u64;
            self.stats.metadata_accesses += accesses;
            self.extra_energy.acts += accesses;
            self.extra_energy.pres += accesses;
            self.extra_energy.reads += response.counter_reads as u64;
            self.extra_energy.writes += response.counter_writes as u64;
            hold += accesses * self.config.counter_access_cycles;
        }
        if response.throttle_cycles > 0 {
            self.stats.throttled_acts += 1;
            hold = hold.max(now + response.throttle_cycles);
        }
        for victim in response.refresh_victims {
            self.preventive_queue.push_back(victim);
        }
        if response.refresh_rank {
            self.rank_refresh_pending = Some(request_addr.rank);
        }
        hold
    }

    /// Performs the early preventive refresh: precharge the rank, then issue
    /// one full refresh window's worth of REF commands back to back.
    fn perform_rank_refresh(&mut self, rank: usize, now: Cycle) {
        let refs = self.timing.refs_per_window().max(1);
        let addr = DramAddr { channel: 0, rank, bank_group: 0, bank: 0, row: 0, column: 0 };
        let pre_at = self.channel.earliest_issue(CommandKind::PreAll, &addr, now);
        self.channel.issue_trusted(CommandKind::PreAll, &addr, pre_at);
        self.note_issued(CommandKind::PreAll, &addr);
        let mut t = pre_at;
        for _ in 0..refs {
            t = self.channel.earliest_issue(CommandKind::Ref, &addr, t);
            self.channel.issue_trusted(CommandKind::Ref, &addr, t);
            self.note_issued(CommandKind::Ref, &addr);
        }
        self.stats.rank_refreshes_done += 1;
        self.mitigation.on_rank_refreshed(rank, t);
        self.rank_refresh_pending = None;
    }

    /// Attempts to issue at most one DRAM command at cycle `now`.
    ///
    /// Returns a *sound* lower bound on the next cycle at which calling
    /// `tick` again could make progress: as long as no new request is
    /// enqueued, ticks strictly before the returned cycle are guaranteed
    /// no-ops. The event-driven simulation loop relies on this to skip them
    /// entirely.
    pub fn tick(&mut self, now: Cycle) -> Cycle {
        self.last_tick = now;
        self.mitigation.on_tick(now);

        // 1. Early preventive refresh requested by the mitigation.
        if let Some(rank) = self.rank_refresh_pending {
            self.perform_rank_refresh(rank, now);
            return now + 1;
        }

        // 2. Periodic refresh: issue as soon as due (precharging the rank first).
        if let Some(next) = self.try_periodic_refresh(now) {
            return self.bounded_by_refresh_deadline(next, now);
        }

        // 3. Preventive refreshes are prioritized over demand requests (§7.2.2).
        if let Some(next) = self.try_preventive_refresh(now) {
            return self.bounded_by_refresh_deadline(next, now);
        }

        // 4. Demand requests (already bounded by the refresh deadlines).
        self.try_demand(now)
    }

    /// Clamps a next-event bound to the earliest upcoming periodic-refresh
    /// deadline. A rank whose refresh becomes due preempts every other
    /// scheduling branch, so a bound that waits past a deadline (e.g. for a
    /// timing constraint of another rank's refresh, or for a preventive
    /// victim's ACT) would not be sound: a tick at the deadline issues the
    /// rank's precharge-all immediately.
    fn bounded_by_refresh_deadline(&self, next: Cycle, now: Cycle) -> Cycle {
        match self.refresh.earliest_due_after(now) {
            Some(due) => next.min(due),
            None => next,
        }
    }

    fn try_periodic_refresh(&mut self, now: Cycle) -> Option<Cycle> {
        for rank in 0..self.channel.rank_count() {
            if !self.refresh.refresh_due(rank, now) {
                continue;
            }
            let addr = DramAddr { channel: 0, rank, bank_group: 0, bank: 0, row: 0, column: 0 };
            // All banks must be precharged before REF.
            if !self.channel.rank(rank).all_banks_closed() {
                let pre_at = self.channel.earliest_issue(CommandKind::PreAll, &addr, now);
                if pre_at <= now {
                    self.channel.issue_trusted(CommandKind::PreAll, &addr, now);
                    self.note_issued(CommandKind::PreAll, &addr);
                    // Any in-flight preventive activation in this rank was closed by the PreAll.
                    if let Some(open) = self.preventive_open {
                        if open.rank == rank {
                            self.preventive_queue.push_front(open);
                            self.preventive_open = None;
                        }
                    }
                    return Some(now + 1);
                }
                return Some(pre_at);
            }
            let ref_at = self.channel.earliest_issue(CommandKind::Ref, &addr, now);
            if ref_at <= now {
                self.channel.issue_trusted(CommandKind::Ref, &addr, now);
                self.note_issued(CommandKind::Ref, &addr);
                self.refresh.note_refresh_issued(rank);
                self.stats.periodic_refreshes += 1;
                self.mitigation.on_periodic_refresh(rank, now);
                // Another rank may be refresh-due (or demand ready) the very
                // next cycle, so the only sound next-event bound after issuing
                // a command is `now + 1` — the refreshed rank itself stays
                // busy for tRFC, which its own constraints enforce.
                return Some(now + 1);
            }
            return Some(ref_at);
        }
        None
    }

    fn try_preventive_refresh(&mut self, now: Cycle) -> Option<Cycle> {
        // Finish an in-flight victim activation with its precharge.
        if let Some(victim) = self.preventive_open {
            let bank = self.flat_bank(&victim);
            let pre_at = self.cached_pre_at(bank, &victim, now);
            if pre_at <= now {
                self.channel.issue_trusted(CommandKind::Pre, &victim, now);
                self.note_issued(CommandKind::Pre, &victim);
                self.preventive_open = None;
                self.stats.preventive_refreshes_done += 1;
                return Some(now + 1);
            }
            return Some(pre_at);
        }
        let victim = *self.preventive_queue.front()?;
        let bank = self.flat_bank(&victim);
        match self.open_rows[bank] {
            Some(row) if row == victim.row => {
                // The victim row happens to be open: precharging it completes the refresh.
                let pre_at = self.cached_pre_at(bank, &victim, now);
                if pre_at <= now {
                    self.channel.issue_trusted(CommandKind::Pre, &victim, now);
                    self.note_issued(CommandKind::Pre, &victim);
                    self.preventive_queue.pop_front();
                    self.stats.preventive_refreshes_done += 1;
                    Some(now + 1)
                } else {
                    Some(pre_at)
                }
            }
            Some(_) => {
                // Another row is open: close it first.
                let pre_at = self.cached_pre_at(bank, &victim, now);
                if pre_at <= now {
                    self.channel.issue_trusted(CommandKind::Pre, &victim, now);
                    self.note_issued(CommandKind::Pre, &victim);
                    self.sched[bank].columns_since_act = 0;
                    Some(now + 1)
                } else {
                    Some(pre_at)
                }
            }
            None => {
                let act_at = self.cached_act_at(bank, &victim, now);
                if act_at <= now {
                    self.channel.issue_trusted(CommandKind::Act, &victim, now);
                    self.note_issued(CommandKind::Act, &victim);
                    self.preventive_queue.pop_front();
                    self.preventive_open = Some(victim);
                    Some(now + 1)
                } else {
                    Some(act_at)
                }
            }
        }
    }

    /// Marks `bank`'s candidate memo stale; the next demand tick recomputes
    /// it (and its class-queue entries) before arbitrating.
    fn mark_dirty(&mut self, bank: usize) {
        if !self.sched[bank].dirty {
            self.sched[bank].dirty = true;
            self.dirty.push(bank as u16);
        }
    }

    /// Recomputes a dirty lane's candidate memo — one front-biased scan per
    /// FIFO that finds the oldest entry with `hold_until <= now` of each
    /// class and the earliest hold among held entries preceding them — and
    /// splices the changes into the sorted per-class arbitration queues.
    fn refresh_lane(&mut self, bank: usize, now: Cycle) {
        let old_seq = self.sched[bank].cand_seq;
        let lane = &self.lanes[bank];
        let open = self.open_rows[bank];
        let mut new_seq = [NO_CAND; 4];
        let mut new_index = [0u16; 4];
        let mut holds_valid = Cycle::MAX;
        for (kind, fifo) in [(false, &lane.reads), (true, &lane.writes)] {
            let (hit_class, miss_class) = if kind { (WRITE_HIT, WRITE_MISS) } else { (READ_HIT, READ_MISS) };
            let hits = if kind { lane.hits.writes } else { lane.hits.reads };
            // A class with no entries at all needs no scan to come up empty.
            let mut need_hit = hits > 0;
            let mut need_miss = fifo.len() as u32 > hits;
            for (index, entry) in fifo.iter().enumerate() {
                if !need_hit && !need_miss {
                    break;
                }
                let is_hit = open == Some(entry.row as usize);
                let need = if is_hit { &mut need_hit } else { &mut need_miss };
                if !*need {
                    continue;
                }
                if entry.hold_until > now {
                    // Held: when the hold matures this entry outranks any
                    // younger candidate of its class, so the memo expires.
                    holds_valid = holds_valid.min(entry.hold_until);
                    continue;
                }
                let class = if is_hit { hit_class } else { miss_class };
                new_seq[class] = entry.seq;
                new_index[class] = index as u16;
                *need = false;
            }
        }
        for class in 0..4 {
            let queue = &mut self.class_queues[class];
            if old_seq[class] == new_seq[class] {
                if new_seq[class] != NO_CAND {
                    // Same candidate; its constraints may have relaxed (a
                    // command to this bank) and its FIFO position may have
                    // shifted, so re-arm it for evaluation.
                    let pos = queue
                        .binary_search_by_key(&new_seq[class], |c| c.seq)
                        .expect("memoized candidate present in its class queue");
                    queue[pos].blocked_until = 0;
                    queue[pos].index = new_index[class];
                }
                continue;
            }
            if old_seq[class] != NO_CAND {
                let pos = queue
                    .binary_search_by_key(&old_seq[class], |c| c.seq)
                    .expect("memoized candidate present in its class queue");
                queue.remove(pos);
            }
            if new_seq[class] != NO_CAND {
                let pos = queue
                    .binary_search_by_key(&new_seq[class], |c| c.seq)
                    .expect_err("arrival sequence numbers are unique");
                queue.insert(
                    pos,
                    ClassCand {
                        seq: new_seq[class],
                        blocked_until: 0,
                        bank: bank as u16,
                        index: new_index[class],
                    },
                );
            }
        }
        let sched = &mut self.sched[bank];
        sched.cand_seq = new_seq;
        sched.cand_index = new_index;
        sched.holds_valid = holds_valid;
        sched.dirty = false;
        self.next_hold_check = self.next_hold_check.min(holds_valid);
    }

    /// One demand-scheduling attempt: refresh the dirty lanes' candidate
    /// memos, run the FR (column) pass for the preferred then the other
    /// kind if the data bus is free, then the FCFS (row) pass. Between lane
    /// invalidations the arbitration queues persist, so a tick's cost is a
    /// compare-skip walk over at most one candidate per pending bank — with
    /// timing actually evaluated only where the memoized per-bank bound has
    /// matured.
    fn try_demand(&mut self, now: Cycle) -> Cycle {
        self.tick_evals = 0;
        let next = self.demand_inner(now);
        self.pressure.ready_lanes_sum += self.tick_evals as u64;
        self.pressure.ready_lanes_max = self.pressure.ready_lanes_max.max(self.tick_evals);
        next
    }

    fn demand_inner(&mut self, now: Cycle) -> Cycle {
        // Select which queue to serve: drain writes when the write queue is full
        // enough, or when there is nothing else to do.
        if self.write_len >= self.config.write_drain_high {
            self.draining_writes = true;
        }
        if self.write_len <= self.config.write_drain_low {
            self.draining_writes = false;
        }
        let serve_writes = self.draining_writes || self.read_len == 0;

        // A matured hold expires its lane's memo: mark those lanes dirty so
        // the drain below re-derives them before arbitrating. Rare — only
        // mitigation metadata traffic, throttling, and REGA penalties set
        // holds.
        let holds_matured = now >= self.next_hold_check;
        if holds_matured {
            for i in 0..self.pending.len() {
                let bank = self.pending[i] as usize;
                if self.sched[bank].holds_valid <= now {
                    self.mark_dirty(bank);
                }
            }
        }
        while let Some(bank) = self.dirty.pop() {
            self.refresh_lane(bank as usize, now);
        }
        if holds_matured {
            // Re-derive the next expiry exactly; the running minimum kept by
            // `refresh_lane` can only be stale-early, never stale-late.
            self.next_hold_check = Cycle::MAX;
            for i in 0..self.pending.len() {
                let bank = self.pending[i] as usize;
                self.next_hold_check = self.next_hold_check.min(self.sched[bank].holds_valid);
            }
        }

        // The mitigation's next scheduled tick replaces the historical
        // `now + tREFI` clamp: mechanisms report their periodic-reset
        // boundaries through `next_tick_deadline`, so a quiet shard wakes
        // exactly at each boundary (preserving the reset cadence bit-exactly)
        // instead of once per refresh interval — and a shard with neither
        // resets nor demand pending reports its full idle window, which the
        // event-driven loop crosses in one jump.
        let mut next_wake = self.mitigation.next_tick_deadline().max(now + 1);
        let refresh_due = self.refresh.earliest_due();
        next_wake = next_wake.min(refresh_due.max(now + 1));
        next_wake = next_wake.min(self.next_hold_check);
        self.pressure.demand_ticks += 1;

        // Pass 1: column hits (FR part of FR-FCFS), oldest first, in the
        // preferred kind then the other kind. No column command can issue
        // while the shared data bus is busy, so the pass sleeps until the bus
        // frees: it neither walks nor evaluates its candidates.
        let bus_free = self.channel.data_bus_free_at();
        if bus_free <= now {
            for writes in [serve_writes, !serve_writes] {
                if self.column_pass(now, writes, &mut next_wake) {
                    return now + 1;
                }
            }
        }
        // Pass 2: activations and precharges (FCFS part).
        if self.row_pass(now, serve_writes, &mut next_wake) {
            return now + 1;
        }
        if bus_free > now {
            // Nothing issued, so the bound counts: fold the sleeping column
            // candidates in, each no earlier than the bus.
            self.column_bounds(bus_free, &mut next_wake);
        }
        next_wake.max(now + 1)
    }

    /// FR pass over one kind: walks the memoized open-row-hit candidates in
    /// arrival order and issues the first whose column command is legal at
    /// `now`. Candidates whose recorded bound has not matured are skipped
    /// with a single compare. Returns `true` when a command was issued.
    fn column_pass(&mut self, now: Cycle, writes: bool, next_wake: &mut Cycle) -> bool {
        let class = if writes { WRITE_HIT } else { READ_HIT };
        let mut queue = std::mem::take(&mut self.class_queues[class]);
        let mut issued = false;
        let cmd = if writes { CommandKind::Wr } else { CommandKind::Rd };
        for cand in queue.iter_mut() {
            let bank = cand.bank as usize;
            if self.sched[bank].columns_since_act >= self.config.column_cap {
                // The column cap forces the row pass to resolve the conflict
                // first; no contribution until a command to this bank.
                continue;
            }
            if cand.blocked_until > now {
                *next_wake = (*next_wake).min(cand.blocked_until);
                continue;
            }
            self.tick_evals += 1;
            let addr = self.lanes[bank].fifo(writes)[cand.index as usize].addr();
            // Column timing does not depend on the column, so one
            // earliest-issue computation covers the whole lane.
            let at = self.channel.earliest_issue(cmd, &addr, now);
            if at > now {
                cand.blocked_until = at;
                *next_wake = (*next_wake).min(at);
                continue;
            }
            let entry =
                self.lanes[bank].fifo_mut(writes).remove(cand.index as usize).expect("candidate index valid");
            self.channel.issue_trusted(cmd, &addr, now);
            self.note_issued(cmd, &addr);
            let lane = &mut self.lanes[bank];
            // The request was an open-row hit by construction.
            if writes {
                lane.hits.writes -= 1;
                self.write_len -= 1;
            } else {
                lane.hits.reads -= 1;
                self.read_len -= 1;
            }
            self.sched[bank].columns_since_act += 1;
            self.after_dequeue(bank);
            if writes {
                self.stats.writes_completed += 1;
            } else {
                let completion = self.channel.read_data_available_at(now);
                self.stats.reads_completed += 1;
                self.stats.read_latency_sum += completion - entry.arrival;
                self.completions.push(CompletedRead {
                    core: entry.core as usize,
                    id: entry.id,
                    completion,
                    arrival: entry.arrival,
                });
            }
            issued = true;
            break;
        }
        self.class_queues[class] = queue;
        issued
    }

    /// The FR pass's contribution to the next-event bound while the data bus
    /// is busy until `bus_free`: no candidate can issue before the later of
    /// its recorded bound and `bus_free`. Capped candidates contribute
    /// nothing, as in [`column_pass`](Self::column_pass).
    fn column_bounds(&self, bus_free: Cycle, next_wake: &mut Cycle) {
        for class in [READ_HIT, WRITE_HIT] {
            for cand in &self.class_queues[class] {
                if self.sched[cand.bank as usize].columns_since_act < self.config.column_cap {
                    *next_wake = (*next_wake).min(cand.blocked_until.max(bus_free));
                }
            }
        }
    }

    /// FCFS pass: walks the memoized non-hit candidates (the request whose
    /// row must be activated, or whose conflicting open row must be
    /// precharged) in arrival order — preferred kind first, like the column
    /// pass — and issues the first legal ACT or PRE. Applies the mitigation
    /// hook when an ACT is issued. Returns `true` when a command was issued
    /// or the mitigation held the activation.
    fn row_pass(&mut self, now: Cycle, writes_first: bool, next_wake: &mut Cycle) -> bool {
        for writes in [writes_first, !writes_first] {
            let class = if writes { WRITE_MISS } else { READ_MISS };
            let mut queue = std::mem::take(&mut self.class_queues[class]);
            let mut issued = false;
            for cand in queue.iter_mut() {
                let bank = cand.bank as usize;
                if cand.blocked_until > now {
                    *next_wake = (*next_wake).min(cand.blocked_until);
                    continue;
                }
                match self.open_rows[bank] {
                    None => {
                        self.tick_evals += 1;
                        // Activate the row, notifying the mitigation first.
                        let request = self.lanes[bank].fifo(writes)[cand.index as usize].request();
                        let act_at = self.cached_act_at(bank, &request.addr, now);
                        if act_at > now {
                            cand.blocked_until = act_at;
                            *next_wake = (*next_wake).min(act_at);
                            continue;
                        }
                        if !request.act_notified {
                            let response = self.mitigation.on_activation(&request.addr, now, 1);
                            let throttled = response.throttle_cycles > 0;
                            let hold = self.apply_response(response, &request.addr, now);
                            let entry = &mut self.lanes[bank].fifo_mut(writes)[cand.index as usize];
                            entry.act_notified = true;
                            if hold > now {
                                entry.hold_until = hold;
                            }
                            if throttled || hold > now {
                                // Re-evaluate on the next tick; do not issue
                                // the ACT now. The entry's hold changed, so
                                // the lane's candidate may have too.
                                self.mark_dirty(bank);
                                issued = true;
                            }
                        }
                        if !issued {
                            self.channel.issue_trusted(CommandKind::Act, &request.addr, now);
                            // REGA-style activation penalty: the refresh-generating
                            // activation keeps the bank busy beyond a normal ACT, so
                            // every ACT-relative window (tRCD for columns, tRAS for
                            // the precharge, tRC for the next ACT) shifts with it —
                            // not just this request's own column access, which a
                            // 17-cycle penalty would hide under tRCD.
                            let penalty = self.mitigation.act_latency_penalty();
                            if penalty > 0 {
                                self.channel.extend_act_busy(&request.addr, penalty);
                            }
                            self.note_issued(CommandKind::Act, &request.addr);
                            self.sched[bank].columns_since_act = 0;
                            // Reset the notification flag so a future re-activation (after
                            // a conflict-induced precharge) is tracked again.
                            let entry = &mut self.lanes[bank].fifo_mut(writes)[cand.index as usize];
                            entry.act_notified = false;
                            issued = true;
                        }
                        break;
                    }
                    Some(_other_row) => {
                        // Conflict: precharge unless a younger request still wants the open
                        // row and the column cap has not been reached.
                        let lane = &self.lanes[bank];
                        let cap_hit = self.sched[bank].columns_since_act >= self.config.column_cap;
                        let hit_pending = lane.hits.reads + lane.hits.writes > 0;
                        if hit_pending && !cap_hit {
                            // The PRE stays blocked until the hits drain —
                            // which takes a column command to this bank, and
                            // that re-derives the lane's candidates.
                            continue;
                        }
                        self.tick_evals += 1;
                        let addr = lane.fifo(writes)[cand.index as usize].addr();
                        let pre_at = self.cached_pre_at(bank, &addr, now);
                        if pre_at > now {
                            cand.blocked_until = pre_at;
                            *next_wake = (*next_wake).min(pre_at);
                            continue;
                        }
                        self.channel.issue_trusted(CommandKind::Pre, &addr, now);
                        self.note_issued(CommandKind::Pre, &addr);
                        self.sched[bank].columns_since_act = 0;
                        issued = true;
                        break;
                    }
                }
            }
            self.class_queues[class] = queue;
            if issued {
                return true;
            }
        }
        false
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("mitigation", &self.mitigation.name())
            .field("read_queue", &self.read_len)
            .field("write_queue", &self.write_len)
            .field("pending_banks", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_mitigations::{NoMitigation, PerRowCounters, Rega};

    fn controller_with(mitigation: Box<dyn RowHammerMitigation>) -> MemoryController {
        MemoryController::new(DramConfig::ddr4_paper_default(), ControllerConfig::default(), mitigation)
    }

    fn addr(bank_group: usize, bank: usize, row: usize, column: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group, bank, row, column }
    }

    /// Runs the controller until all queued requests complete or `limit` cycles pass.
    fn run_until_drained(mc: &mut MemoryController, limit: Cycle) -> Vec<CompletedRead> {
        let mut now = 0;
        let mut done = Vec::new();
        while now < limit {
            let next = mc.tick(now);
            mc.drain_completions_into(&mut done);
            if mc.idle() && !done.is_empty() && mc.queued_requests() == 0 {
                break;
            }
            now = next.max(now + 1);
        }
        done
    }

    #[test]
    fn single_read_completes_with_row_miss_latency() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        let a = addr(0, 0, 10, 3);
        assert!(mc.enqueue(MemRequest::new(1, 0, a, false, 0)));
        let done = run_until_drained(&mut mc, 10_000);
        assert_eq!(done.len(), 1);
        let t = &mc.dram_config().timing;
        let expected_min = t.t_rcd + t.cl + t.burst_cycles;
        assert!(done[0].completion >= expected_min);
        assert!(done[0].completion < expected_min + 20, "completion = {}", done[0].completion);
    }

    #[test]
    fn rega_penalty_extends_the_bank_busy_window() {
        let timing = DramConfig::ddr4_paper_default().timing;
        let rega = Rega::new(125, &timing);
        let penalty = rega.act_latency_penalty();
        assert!(penalty > 0, "NRH = 125 must carry a non-zero penalty");
        let mut plain = controller_with(Box::new(NoMitigation::new()));
        let mut slowed = controller_with(Box::new(rega));
        for mc in [&mut plain, &mut slowed] {
            assert!(mc.enqueue(MemRequest::new(1, 0, addr(0, 0, 10, 0), false, 0)));
        }
        let base = run_until_drained(&mut plain, 10_000);
        let shifted = run_until_drained(&mut slowed, 10_000);
        // The read depends on the activation, so its data returns exactly the
        // penalty later: the busy window pushes tRCD out from under the column
        // access instead of hiding beneath it.
        assert_eq!(shifted[0].completion, base[0].completion + penalty);
    }

    #[test]
    fn row_hits_are_faster_than_row_misses() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        let first = addr(0, 0, 10, 0);
        let second = addr(0, 0, 10, 1); // same row: hit
        mc.enqueue(MemRequest::new(1, 0, first, false, 0));
        mc.enqueue(MemRequest::new(2, 0, second, false, 0));
        let done = run_until_drained(&mut mc, 10_000);
        assert_eq!(done.len(), 2);
        let lat1 = done[0].completion - done[0].arrival;
        let lat2 = done[1].completion - done[1].arrival;
        assert!(lat2 < lat1 + 10, "second access should ride the open row");
        // Only one activation happened.
        assert_eq!(mc.channel_stats().acts, 1);
    }

    #[test]
    fn row_conflicts_cause_precharge_and_second_activation() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        mc.enqueue(MemRequest::new(1, 0, addr(0, 0, 10, 0), false, 0));
        mc.enqueue(MemRequest::new(2, 0, addr(0, 0, 20, 0), false, 0));
        let done = run_until_drained(&mut mc, 10_000);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.channel_stats().acts, 2);
        assert!(mc.channel_stats().pres >= 1);
    }

    #[test]
    fn conflicting_reads_in_one_bank_complete_in_arrival_order() {
        // Pure FCFS stress: every request targets a distinct row of one bank,
        // so there are never open-row hits to reorder — completions must come
        // back exactly in arrival (seq) order.
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        for i in 0..12u64 {
            assert!(mc.enqueue(MemRequest::new(i, 0, addr(0, 0, (10 + 3 * i) as usize, 0), false, 0)));
        }
        let done = run_until_drained(&mut mc, 100_000);
        let ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>(), "FCFS order must equal arrival order");
    }

    #[test]
    fn writes_are_buffered_and_drained() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        for i in 0..60 {
            assert!(mc.enqueue(MemRequest::new(
                i,
                0,
                addr(0, 0, (i % 8) as usize, i as usize % 64),
                true,
                0
            )));
        }
        let mut now = 0;
        for _ in 0..200_000 {
            now = mc.tick(now).max(now + 1);
            if mc.queued_requests() == 0 {
                break;
            }
        }
        assert_eq!(mc.queued_requests(), 0, "writes must eventually drain");
        assert_eq!(mc.stats().writes_completed, 60);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        for i in 0..64 {
            assert!(mc.enqueue(MemRequest::new(i, 0, addr(0, 0, i as usize, 0), false, 0)));
        }
        assert!(!mc.enqueue(MemRequest::new(999, 0, addr(0, 0, 1, 0), false, 0)));
        assert!(mc.can_accept_write());
    }

    #[test]
    fn periodic_refreshes_are_issued() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        let t_refi = mc.dram_config().timing.t_refi;
        let mut now = 0;
        let horizon = 10 * t_refi;
        while now < horizon {
            now = mc.tick(now).max(now + 1);
        }
        // ~10 refresh intervals × 2 ranks.
        let refs = mc.channel_stats().refs;
        assert!((15..=22).contains(&refs), "refs = {refs}");
        assert_eq!(mc.stats().periodic_refreshes, refs);
    }

    #[test]
    fn hammered_row_triggers_preventive_refreshes_through_controller() {
        let tracker = PerRowCounters::new(
            200,
            &DramConfig::ddr4_paper_default().timing,
            DramConfig::ddr4_paper_default().geometry,
        );
        let mut mc = controller_with(Box::new(tracker));
        // Alternate two conflicting rows one request at a time so that every
        // access re-activates its row (no row hits to coalesce).
        let mut now = 0;
        let mut id = 0;
        let mut issued = 0u64;
        let mut done = Vec::new();
        while issued < 400 || mc.queued_requests() > 0 || !mc.idle() {
            if issued < 400 && mc.queued_requests() == 0 {
                let row = if issued.is_multiple_of(2) { 100 } else { 300 };
                mc.enqueue(MemRequest::new(id, 0, addr(0, 0, row, 0), false, now));
                id += 1;
                issued += 1;
            }
            now = mc.tick(now).max(now + 1);
            mc.drain_completions_into(&mut done);
            done.clear();
            assert!(now < 10_000_000, "controller failed to drain");
        }
        // Each row is activated ~200 times; with NPR = 100 both trigger refreshes
        // (two victims each, at 100 and 200 activations).
        assert!(mc.stats().preventive_refreshes_done >= 4, "{:?}", mc.stats());
        assert!(mc.mitigation_stats().preventive_refreshes >= 4);
        assert!(mc.channel_stats().acts >= 400, "every request must activate a row");
    }

    #[test]
    fn energy_counters_combine_channel_and_metadata() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        mc.enqueue(MemRequest::new(1, 0, addr(0, 0, 10, 3), false, 0));
        run_until_drained(&mut mc, 10_000);
        let e = mc.energy_counters(5000);
        assert_eq!(e.acts, 1);
        assert_eq!(e.reads, 1);
        assert_eq!(e.elapsed_cycles, 5000);
    }

    #[test]
    fn scheduling_indices_stay_consistent_under_mixed_traffic() {
        // Drive a mix of row hits, conflicts, writes, preventive refreshes,
        // and periodic refreshes, and verify after every tick that the
        // incrementally maintained open-row shadow, per-lane hit counters,
        // totals, and pending set match a from-scratch recount.
        let tracker = PerRowCounters::new(
            64,
            &DramConfig::ddr4_paper_default().timing,
            DramConfig::ddr4_paper_default().geometry,
        );
        let mut mc = controller_with(Box::new(tracker));
        let mut now = 0;
        let mut id = 0u64;
        let mut done = Vec::new();
        for step in 0..6_000u64 {
            if mc.queued_requests() < 40 {
                // Alternate hits (same row), conflicts (distinct rows in one
                // bank), bank spread, and writes.
                let (bank_group, bank, row) = match step % 7 {
                    0 | 1 => (0, 0, 10),                        // row hits
                    2 => (0, 0, 20 + (step % 3) as usize * 17), // conflicts
                    3 => (1, 2, 10),
                    4 => (2, 1, (step % 5) as usize * 3),
                    5 => (3, 3, 40),
                    _ => (0, 2, 40),
                };
                let is_write = step % 5 == 4;
                mc.enqueue(MemRequest::new(id, 0, addr(bank_group, bank, row, 0), is_write, now));
                id += 1;
            }
            now = mc.tick(now).max(now + 1);
            mc.drain_completions_into(&mut done);
            done.clear();
            mc.assert_index_invariants();
        }
        assert!(mc.stats().reads_completed > 100, "{:?}", mc.stats());
        assert!(mc.stats().writes_completed > 50);
        assert!(mc.stats().preventive_refreshes_done > 0, "tracker must fire in this test");
    }

    #[test]
    fn pressure_counters_report_per_bank_and_ready_set_load() {
        let mut mc = controller_with(Box::new(NoMitigation::new()));
        // Load two banks unevenly, then run a few scheduling ticks.
        for i in 0..6u64 {
            mc.enqueue(MemRequest::new(i, 0, addr(0, 0, 5 + i as usize, 0), false, 0));
        }
        mc.enqueue(MemRequest::new(10, 0, addr(1, 1, 7, 0), false, 0));
        let depths = mc.bank_queue_depths();
        let heavy = addr(0, 0, 0, 0).flat_bank(&mc.geometry);
        let light = addr(1, 1, 0, 0).flat_bank(&mc.geometry);
        assert_eq!(depths[heavy].queued_reads, 6);
        assert_eq!(depths[heavy].depth_peak, 6);
        assert_eq!(depths[light].queued_reads, 1);
        assert_eq!(depths[heavy].bank, heavy);
        run_until_drained(&mut mc, 100_000);
        let pressure = mc.scheduler_pressure();
        assert!(pressure.demand_ticks > 0, "demand ticks must be counted");
        assert!(pressure.ready_lanes_max >= 2, "some tick must evaluate candidates of both banks");
        assert!(pressure.pending_lanes_max >= 2, "{pressure:?}");
        assert!(pressure.avg_ready_lanes() > 0.0);
        // Everything drained: lanes are empty but peaks persist.
        let after = mc.bank_queue_depths();
        assert_eq!(after[heavy].queued_reads, 0);
        assert_eq!(after[heavy].depth_peak, 6);
    }

    #[test]
    fn stats_delta_subtracts_warmup() {
        let a = ControllerStats { reads_completed: 10, read_latency_sum: 100, ..Default::default() };
        let b = ControllerStats { reads_completed: 25, read_latency_sum: 400, ..Default::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.reads_completed, 15);
        assert_eq!(d.read_latency_sum, 300);
        assert!((d.avg_read_latency() - 20.0).abs() < 1e-12);
    }
}
