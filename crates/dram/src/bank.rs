//! Per-bank command state machine and timing bookkeeping.

use crate::command::CommandKind;
use crate::error::DramError;
use crate::timing::{Cycle, TimingParams};
use serde::Serialize;

/// The row-buffer state of a DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BankState {
    /// No row is open; the bank is precharged.
    Closed,
    /// `row` is open in the row buffer.
    Opened {
        /// Index of the open row.
        row: usize,
    },
}

/// A single DRAM bank: row-buffer state plus the per-bank timing history needed
/// to decide when the next command may be issued.
#[derive(Debug, Clone, Serialize)]
pub struct Bank {
    state: BankState,
    /// Cycle of the most recent ACT (u64::MAX/2-biased sentinel avoided by Option).
    last_act: Option<Cycle>,
    last_pre: Option<Cycle>,
    last_rd: Option<Cycle>,
    last_wr: Option<Cycle>,
    /// Cycle at which the most recent write burst's data finishes (for tWR).
    last_wr_data_end: Option<Cycle>,
    /// Lifetime statistics.
    act_count: u64,
    row_hits: u64,
    row_misses: u64,
}

impl Bank {
    /// Creates a closed, idle bank.
    pub fn new() -> Self {
        Bank {
            state: BankState::Closed,
            last_act: None,
            last_pre: None,
            last_rd: None,
            last_wr: None,
            last_wr_data_end: None,
            act_count: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// Row currently open, if any.
    pub fn open_row(&self) -> Option<usize> {
        match self.state {
            BankState::Opened { row } => Some(row),
            BankState::Closed => None,
        }
    }

    /// Cycle of the most recent activation, if any.
    pub fn last_act(&self) -> Option<Cycle> {
        self.last_act
    }

    /// Number of ACT commands this bank has received.
    pub fn act_count(&self) -> u64 {
        self.act_count
    }

    /// Number of column accesses that hit the open row.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Number of activations that had to open a new row (row misses/conflicts).
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Shifts the most recent activation's timing anchor `extra` cycles into
    /// the future, as if the ACT had completed that much later. Every
    /// ACT-relative window moves with it: column accesses wait tRCD + extra,
    /// a precharge waits tRAS + extra, and the next ACT waits tRC + extra.
    ///
    /// Models in-DRAM mechanisms (REGA's refresh-generating activation) that
    /// keep the bank busy beyond a normal row activation. A no-op when no
    /// ACT has been issued yet.
    pub fn delay_act_timing(&mut self, extra: Cycle) {
        if let Some(a) = self.last_act.as_mut() {
            *a += extra;
        }
    }

    /// Whether `cmd` is legal in the current row-buffer state (ignoring timing).
    pub fn is_legal(&self, cmd: CommandKind) -> bool {
        match (cmd, self.state) {
            (CommandKind::Act, BankState::Closed) => true,
            (CommandKind::Act, BankState::Opened { .. }) => false,
            (CommandKind::Pre, _) => true, // PRE to a closed bank is a harmless NOP
            (CommandKind::PreAll, _) => true,
            (
                CommandKind::Rd | CommandKind::RdA | CommandKind::Wr | CommandKind::WrA,
                BankState::Opened { .. },
            ) => true,
            (CommandKind::Rd | CommandKind::RdA | CommandKind::Wr | CommandKind::WrA, BankState::Closed) => {
                false
            }
            (CommandKind::Ref, BankState::Closed) => true,
            (CommandKind::Ref, BankState::Opened { .. }) => false,
        }
    }

    /// Earliest cycle at which `cmd` satisfies all *bank-local* timing constraints.
    ///
    /// Rank-level constraints (tRRD, tFAW, tRFC, bus contention) are handled by
    /// [`crate::rank::Rank`] and [`crate::channel::DramChannel`].
    #[inline]
    pub fn earliest_issue(&self, cmd: CommandKind, now: Cycle, t: &TimingParams) -> Cycle {
        let mut earliest = now;
        let bump = |earliest: &mut Cycle, candidate: Option<Cycle>| {
            if let Some(c) = candidate {
                *earliest = (*earliest).max(c);
            }
        };
        match cmd {
            CommandKind::Act => {
                // tRC after previous ACT, tRP after previous PRE.
                bump(&mut earliest, self.last_act.map(|a| a + t.t_rc));
                bump(&mut earliest, self.last_pre.map(|p| p + t.t_rp));
            }
            CommandKind::Pre | CommandKind::PreAll => {
                // tRAS after ACT, tRTP after RD, tWR after write data.
                bump(&mut earliest, self.last_act.map(|a| a + t.t_ras));
                bump(&mut earliest, self.last_rd.map(|r| r + t.t_rtp));
                bump(&mut earliest, self.last_wr_data_end.map(|w| w + t.t_wr));
            }
            CommandKind::Rd | CommandKind::RdA | CommandKind::Wr | CommandKind::WrA => {
                // tRCD after ACT, tCCD handled at rank/channel level; write→read
                // turnaround handled at the rank level (tWTR).
                bump(&mut earliest, self.last_act.map(|a| a + t.t_rcd));
            }
            CommandKind::Ref => {
                // REF requires the bank precharged; tRP after last PRE.
                bump(&mut earliest, self.last_pre.map(|p| p + t.t_rp));
                bump(&mut earliest, self.last_act.map(|a| a + t.t_rc));
            }
        }
        earliest
    }

    /// Applies `cmd` at cycle `now`, updating state and timing history.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::IllegalState`] if the command is illegal in the
    /// current row-buffer state and [`DramError::TimingViolation`] if `now` is
    /// earlier than [`earliest_issue`](Self::earliest_issue).
    pub fn issue(
        &mut self,
        cmd: CommandKind,
        row: usize,
        now: Cycle,
        t: &TimingParams,
    ) -> Result<(), DramError> {
        if !self.is_legal(cmd) {
            return Err(DramError::IllegalState { cmd, state: format!("{:?}", self.state) });
        }
        let earliest = self.earliest_issue(cmd, now, t);
        if now < earliest {
            return Err(DramError::TimingViolation { cmd, now, earliest });
        }
        self.issue_trusted(cmd, row, now, t);
        Ok(())
    }

    /// [`issue`](Self::issue) for callers that already established legality
    /// (the scheduler computes every command's earliest legal cycle before
    /// issuing, so the checked path would re-derive the same constraints a
    /// third time per command). Debug builds still verify both checks.
    pub fn issue_trusted(&mut self, cmd: CommandKind, row: usize, now: Cycle, t: &TimingParams) {
        debug_assert!(self.is_legal(cmd), "illegal {cmd:?} in state {:?}", self.state);
        debug_assert!(
            now >= self.earliest_issue(cmd, now, t),
            "{cmd:?} issued at {now} before its earliest legal cycle"
        );
        match cmd {
            CommandKind::Act => {
                self.state = BankState::Opened { row };
                self.last_act = Some(now);
                self.act_count += 1;
                self.row_misses += 1;
            }
            CommandKind::Pre | CommandKind::PreAll => {
                self.state = BankState::Closed;
                self.last_pre = Some(now);
            }
            CommandKind::Rd => {
                self.last_rd = Some(now);
                self.row_hits += 1;
            }
            CommandKind::RdA => {
                self.last_rd = Some(now);
                self.row_hits += 1;
                self.state = BankState::Closed;
                // Auto-precharge takes effect after tRTP; model it as a PRE at now + tRTP.
                self.last_pre = Some(now + t.t_rtp);
            }
            CommandKind::Wr => {
                self.last_wr = Some(now);
                self.last_wr_data_end = Some(now + t.cwl + t.burst_cycles);
                self.row_hits += 1;
            }
            CommandKind::WrA => {
                self.last_wr = Some(now);
                self.last_wr_data_end = Some(now + t.cwl + t.burst_cycles);
                self.row_hits += 1;
                self.state = BankState::Closed;
                self.last_pre = Some(now + t.cwl + t.burst_cycles + t.t_wr);
            }
            CommandKind::Ref => {
                // Rank-level busy time is tracked by the rank; the bank just stays closed.
                self.last_pre = Some(now + t.t_rfc);
            }
        }
    }
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn new_bank_is_closed() {
        let b = Bank::new();
        assert_eq!(b.state(), BankState::Closed);
        assert_eq!(b.open_row(), None);
        assert_eq!(b.act_count(), 0);
    }

    #[test]
    fn act_opens_row_and_counts() {
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 7, 0, &t()).unwrap();
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.act_count(), 1);
        assert_eq!(b.row_misses(), 1);
    }

    #[test]
    fn act_to_open_bank_is_illegal() {
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 7, 0, &t()).unwrap();
        let err = b.issue(CommandKind::Act, 8, 1000, &t()).unwrap_err();
        assert!(matches!(err, DramError::IllegalState { .. }));
    }

    #[test]
    fn read_requires_open_row() {
        let mut b = Bank::new();
        let err = b.issue(CommandKind::Rd, 0, 0, &t()).unwrap_err();
        assert!(matches!(err, DramError::IllegalState { .. }));
    }

    #[test]
    fn trcd_enforced_between_act_and_read() {
        let timing = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 3, 100, &timing).unwrap();
        let earliest = b.earliest_issue(CommandKind::Rd, 100, &timing);
        assert_eq!(earliest, 100 + timing.t_rcd);
        assert!(matches!(
            b.issue(CommandKind::Rd, 3, 100 + timing.t_rcd - 1, &timing),
            Err(DramError::TimingViolation { .. })
        ));
        b.issue(CommandKind::Rd, 3, 100 + timing.t_rcd, &timing).unwrap();
        assert_eq!(b.row_hits(), 1);
    }

    #[test]
    fn tras_enforced_between_act_and_pre() {
        let timing = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 3, 0, &timing).unwrap();
        assert!(b.issue(CommandKind::Pre, 0, timing.t_ras - 1, &timing).is_err());
        b.issue(CommandKind::Pre, 0, timing.t_ras, &timing).unwrap();
        assert_eq!(b.state(), BankState::Closed);
    }

    #[test]
    fn trc_enforced_between_activations() {
        let timing = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 3, 0, &timing).unwrap();
        b.issue(CommandKind::Pre, 0, timing.t_ras, &timing).unwrap();
        // tRC from the ACT dominates tRP from the PRE here (tRC >= tRAS + tRP).
        let earliest = b.earliest_issue(CommandKind::Act, 0, &timing);
        assert_eq!(earliest, timing.t_rc.max(timing.t_ras + timing.t_rp));
        b.issue(CommandKind::Act, 5, earliest, &timing).unwrap();
        assert_eq!(b.open_row(), Some(5));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let timing = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 1, 0, &timing).unwrap();
        let wr_at = timing.t_rcd;
        b.issue(CommandKind::Wr, 1, wr_at, &timing).unwrap();
        let data_end = wr_at + timing.cwl + timing.burst_cycles;
        let earliest_pre = b.earliest_issue(CommandKind::Pre, 0, &timing);
        assert_eq!(earliest_pre, (data_end + timing.t_wr).max(timing.t_ras));
    }

    #[test]
    fn read_with_autoprecharge_closes_row() {
        let timing = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 1, 0, &timing).unwrap();
        b.issue(CommandKind::RdA, 1, timing.t_rcd, &timing).unwrap();
        assert_eq!(b.state(), BankState::Closed);
        // Next ACT must wait for the implicit precharge plus tRP and the original tRC.
        let earliest = b.earliest_issue(CommandKind::Act, 0, &timing);
        assert!(earliest >= timing.t_rcd + timing.t_rtp + timing.t_rp);
    }

    #[test]
    fn delay_act_timing_shifts_every_act_relative_window() {
        let timing = t();
        let mut b = Bank::new();
        b.issue(CommandKind::Act, 3, 100, &timing).unwrap();
        b.delay_act_timing(17);
        assert_eq!(b.earliest_issue(CommandKind::Rd, 100, &timing), 117 + timing.t_rcd);
        assert_eq!(b.earliest_issue(CommandKind::Pre, 100, &timing), 117 + timing.t_ras);
        assert!(matches!(
            b.issue(CommandKind::Rd, 3, 100 + timing.t_rcd, &timing),
            Err(DramError::TimingViolation { .. })
        ));
        b.issue(CommandKind::Rd, 3, 117 + timing.t_rcd, &timing).unwrap();
    }

    #[test]
    fn pre_to_closed_bank_is_nop_like() {
        let timing = t();
        let mut b = Bank::new();
        // Legal even when closed.
        b.issue(CommandKind::Pre, 0, 0, &timing).unwrap();
        assert_eq!(b.state(), BankState::Closed);
    }
}
