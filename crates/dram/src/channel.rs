//! The DRAM channel: ranks plus shared command/data bus constraints.

use crate::addr::DramAddr;
use crate::command::CommandKind;
use crate::config::DramConfig;
use crate::energy::EnergyCounters;
use crate::error::DramError;
use crate::rank::Rank;
use crate::timing::Cycle;
use serde::Serialize;

/// Aggregate command statistics for a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ChannelStats {
    /// ACT commands issued.
    pub acts: u64,
    /// PRE / PREA commands issued.
    pub pres: u64,
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// REF commands issued.
    pub refs: u64,
}

impl ChannelStats {
    /// Total commands issued.
    pub fn total(&self) -> u64 {
        self.acts + self.pres + self.reads + self.writes + self.refs
    }

    /// Field-wise sum (`self + other`), used to aggregate per-channel shards.
    pub fn merged(&self, other: &ChannelStats) -> ChannelStats {
        ChannelStats {
            acts: self.acts + other.acts,
            pres: self.pres + other.pres,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            refs: self.refs + other.refs,
        }
    }
}

/// A DRAM channel: the unit the memory controller schedules commands onto.
///
/// The channel owns its ranks and enforces the channel-wide data bus constraint
/// (only one burst can occupy the data bus at a time).
#[derive(Debug, Clone, Serialize)]
pub struct DramChannel {
    config: DramConfig,
    ranks: Vec<Rank>,
    /// The data bus is busy until this cycle.
    data_bus_free_at: Cycle,
    stats: ChannelStats,
    energy: EnergyCounters,
}

impl DramChannel {
    /// Creates a channel with all banks precharged.
    pub fn new(config: DramConfig) -> Self {
        let ranks = (0..config.geometry.ranks_per_channel).map(|_| Rank::new(&config.geometry)).collect();
        DramChannel {
            config,
            ranks,
            data_bus_free_at: 0,
            stats: ChannelStats::default(),
            energy: EnergyCounters::default(),
        }
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Command statistics.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Energy counters accumulated so far.
    pub fn energy(&self) -> &EnergyCounters {
        &self.energy
    }

    /// Immutable access to a rank.
    pub fn rank(&self, index: usize) -> &Rank {
        &self.ranks[index]
    }

    /// Number of ranks in the channel.
    pub fn rank_count(&self) -> usize {
        self.ranks.len()
    }

    /// The row currently open in the bank addressed by `addr`, if any.
    pub fn open_row(&self, addr: &DramAddr) -> Option<usize> {
        let rank = &self.ranks[addr.rank];
        rank.bank(addr.bank_in_rank(&self.config.geometry)).open_row()
    }

    /// The cycle the shared data bus frees: no column command can issue
    /// before it.
    pub fn data_bus_free_at(&self) -> Cycle {
        self.data_bus_free_at
    }

    /// Earliest cycle at which `cmd` targeting `addr` can be legally issued.
    pub fn earliest_issue(&self, cmd: CommandKind, addr: &DramAddr, now: Cycle) -> Cycle {
        let t = &self.config.timing;
        let mut earliest = self.ranks[addr.rank].earliest_issue(cmd, addr.bank_group, addr.bank, now, t);
        if cmd.is_column() {
            // One burst at a time on the shared data bus. The burst occupies the bus
            // CL/CWL cycles after the command; conservatively serialize command issue
            // so bursts never overlap.
            earliest = earliest.max(self.data_bus_free_at);
        }
        earliest
    }

    /// Issues `cmd` to `addr` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns a [`DramError`] if the command violates protocol state or timing.
    pub fn issue(&mut self, cmd: CommandKind, addr: &DramAddr, now: Cycle) -> Result<(), DramError> {
        addr.validate(&self.config.geometry)?;
        let earliest = self.earliest_issue(cmd, addr, now);
        if now < earliest {
            return Err(DramError::TimingViolation { cmd, now, earliest });
        }
        if cmd == CommandKind::Ref && !self.ranks[addr.rank].all_banks_closed() {
            return Err(DramError::IllegalState { cmd, state: "bank open during REF".to_string() });
        }
        self.issue_trusted(cmd, addr, now);
        Ok(())
    }

    /// [`issue`](Self::issue) for callers that already established legality —
    /// the memory controller's scheduler computes every command's earliest
    /// legal cycle (and validates its address at enqueue) before issuing, so
    /// the checked path would re-derive the same rank and bus constraints a
    /// second time per command. Debug builds still verify everything.
    pub fn issue_trusted(&mut self, cmd: CommandKind, addr: &DramAddr, now: Cycle) {
        debug_assert!(addr.validate(&self.config.geometry).is_ok(), "invalid address {addr:?}");
        debug_assert!(
            now >= self.earliest_issue(cmd, addr, now),
            "{cmd:?} issued at {now} before its earliest legal cycle"
        );
        let t = &self.config.timing;
        self.ranks[addr.rank].issue_trusted(cmd, addr.bank_group, addr.bank, addr.row, now, t);

        match cmd {
            CommandKind::Act => {
                self.stats.acts += 1;
                self.energy.acts += 1;
            }
            CommandKind::Pre | CommandKind::PreAll => {
                self.stats.pres += 1;
                self.energy.pres += 1;
            }
            CommandKind::Rd | CommandKind::RdA => {
                self.stats.reads += 1;
                self.energy.reads += 1;
                self.data_bus_free_at = now + t.t_ccd_s.max(t.burst_cycles);
                if cmd == CommandKind::RdA {
                    self.stats.pres += 1;
                    self.energy.pres += 1;
                }
            }
            CommandKind::Wr | CommandKind::WrA => {
                self.stats.writes += 1;
                self.energy.writes += 1;
                self.data_bus_free_at = now + t.t_ccd_s.max(t.burst_cycles);
                if cmd == CommandKind::WrA {
                    self.stats.pres += 1;
                    self.energy.pres += 1;
                }
            }
            CommandKind::Ref => {
                self.stats.refs += 1;
                self.energy.refs += 1;
            }
        }
    }

    /// Extends the busy window of `addr`'s bank after its most recent ACT by
    /// `extra` cycles (see [`Bank::delay_act_timing`](crate::bank::Bank::delay_act_timing)).
    /// Rank-level ACT-to-ACT constraints (tRRD, tFAW) are deliberately left
    /// untouched: the extra time is internal to the bank — an in-DRAM refresh
    /// riding on the activation — not extra command-bus traffic.
    pub fn extend_act_busy(&mut self, addr: &DramAddr, extra: Cycle) {
        let bank = addr.bank_in_rank(&self.config.geometry);
        self.ranks[addr.rank].bank_mut(bank).delay_act_timing(extra);
    }

    /// Cycle when the data for a read issued at `issue_cycle` is fully returned.
    pub fn read_data_available_at(&self, issue_cycle: Cycle) -> Cycle {
        let t = &self.config.timing;
        issue_cycle + t.cl + t.burst_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    fn addr(rank: usize, bg: usize, bank: usize, row: usize) -> DramAddr {
        DramAddr { channel: 0, rank, bank_group: bg, bank, row, column: 0 }
    }

    fn channel() -> DramChannel {
        DramChannel::new(DramConfig::ddr4_paper_default())
    }

    #[test]
    fn act_read_pre_sequence() {
        let mut ch = channel();
        let a = addr(0, 0, 0, 42);
        let t0 = ch.earliest_issue(CommandKind::Act, &a, 0);
        ch.issue(CommandKind::Act, &a, t0).unwrap();
        assert_eq!(ch.open_row(&a), Some(42));
        let t1 = ch.earliest_issue(CommandKind::Rd, &a, t0);
        ch.issue(CommandKind::Rd, &a, t1).unwrap();
        let t2 = ch.earliest_issue(CommandKind::Pre, &a, t1);
        ch.issue(CommandKind::Pre, &a, t2).unwrap();
        assert_eq!(ch.open_row(&a), None);
        assert_eq!(ch.stats().acts, 1);
        assert_eq!(ch.stats().reads, 1);
        assert_eq!(ch.stats().pres, 1);
    }

    #[test]
    fn data_bus_serializes_reads_across_ranks() {
        let mut ch = channel();
        let a = addr(0, 0, 0, 1);
        let b = addr(1, 0, 0, 1);
        let ta = ch.earliest_issue(CommandKind::Act, &a, 0);
        ch.issue(CommandKind::Act, &a, ta).unwrap();
        let tb = ch.earliest_issue(CommandKind::Act, &b, 0);
        ch.issue(CommandKind::Act, &b, tb).unwrap();
        let ra = ch.earliest_issue(CommandKind::Rd, &a, ta);
        ch.issue(CommandKind::Rd, &a, ra).unwrap();
        let rb = ch.earliest_issue(CommandKind::Rd, &b, ra);
        assert!(rb >= ra + ch.config().timing.burst_cycles);
    }

    #[test]
    fn early_issue_is_rejected() {
        let mut ch = channel();
        let a = addr(0, 0, 0, 7);
        ch.issue(CommandKind::Act, &a, 0).unwrap();
        let err = ch.issue(CommandKind::Rd, &a, 1).unwrap_err();
        assert!(matches!(err, DramError::TimingViolation { .. }));
    }

    #[test]
    fn invalid_address_is_rejected() {
        let mut ch = channel();
        let bad = DramAddr { channel: 0, rank: 9, bank_group: 0, bank: 0, row: 0, column: 0 };
        assert!(matches!(ch.issue(CommandKind::Act, &bad, 0), Err(DramError::AddressOutOfRange { .. })));
    }

    #[test]
    fn refresh_counts_per_rank() {
        let mut ch = channel();
        let a = addr(0, 0, 0, 0);
        let t0 = ch.earliest_issue(CommandKind::Ref, &a, 0);
        ch.issue(CommandKind::Ref, &a, t0).unwrap();
        assert_eq!(ch.stats().refs, 1);
        assert_eq!(ch.rank(0).ref_count(), 1);
        assert_eq!(ch.rank(1).ref_count(), 0);
    }

    #[test]
    fn ranks_operate_independently_for_activation_timing() {
        let mut ch = channel();
        let a = addr(0, 0, 0, 1);
        let b = addr(1, 0, 0, 1);
        ch.issue(CommandKind::Act, &a, 0).unwrap();
        // A different rank is not constrained by the first rank's tRRD.
        let e = ch.earliest_issue(CommandKind::Act, &b, 0);
        assert_eq!(e, 0);
    }
}
