//! Per-rank timing bookkeeping: tRRD, tFAW, tRFC, and read/write bus turnaround.

use crate::bank::Bank;
use crate::command::CommandKind;
use crate::error::DramError;
use crate::geometry::DramGeometry;
use crate::timing::{Cycle, TimingParams};
use serde::Serialize;
use std::collections::VecDeque;

/// A DRAM rank: a set of banks that share rank-level timing constraints.
#[derive(Debug, Clone, Serialize)]
pub struct Rank {
    banks: Vec<Bank>,
    banks_per_bank_group: usize,
    /// Timestamps of the most recent activations (bounded to 4 for the tFAW window).
    recent_acts: VecDeque<Cycle>,
    /// Most recent ACT per bank group (index = bank group) for tRRD_L.
    last_act_per_group: Vec<Option<Cycle>>,
    /// Most recent ACT anywhere in the rank for tRRD_S.
    last_act_any: Option<Cycle>,
    /// Most recent column read / write issue cycles (for tCCD / tWTR).
    last_rd: Option<Cycle>,
    last_rd_group: Vec<Option<Cycle>>,
    last_wr: Option<Cycle>,
    last_wr_group: Vec<Option<Cycle>>,
    /// The rank is unavailable until this cycle (refresh in progress).
    busy_until: Cycle,
    /// Lifetime statistics.
    ref_count: u64,
    act_count: u64,
}

impl Rank {
    /// Creates a rank with all banks closed.
    pub fn new(geometry: &DramGeometry) -> Self {
        let n_banks = geometry.banks_per_rank();
        let n_groups = geometry.bank_groups_per_rank;
        Rank {
            banks: (0..n_banks).map(|_| Bank::new()).collect(),
            banks_per_bank_group: geometry.banks_per_bank_group,
            recent_acts: VecDeque::with_capacity(4),
            last_act_per_group: vec![None; n_groups],
            last_act_any: None,
            last_rd: None,
            last_rd_group: vec![None; n_groups],
            last_wr: None,
            last_wr_group: vec![None; n_groups],
            busy_until: 0,
            ref_count: 0,
            act_count: 0,
        }
    }

    /// Immutable access to a bank by flat index within the rank.
    pub fn bank(&self, index: usize) -> &Bank {
        &self.banks[index]
    }

    /// Mutable access to a bank by flat index within the rank.
    pub fn bank_mut(&mut self, index: usize) -> &mut Bank {
        &mut self.banks[index]
    }

    /// Number of REF commands this rank has received.
    pub fn ref_count(&self) -> u64 {
        self.ref_count
    }

    /// Number of ACT commands this rank has received.
    pub fn act_count(&self) -> u64 {
        self.act_count
    }

    /// The rank is busy (refreshing) until this cycle.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    fn flat_bank(&self, bank_group: usize, bank: usize) -> usize {
        bank_group * self.banks_per_bank_group + bank
    }

    /// The rank-level part of the ACT timing constraint for a bank of
    /// `bank_group`: tRRD_S after any ACT in the rank, tRRD_L after an ACT in
    /// the same group, the tFAW four-activation window, and the refresh busy
    /// time. Independent of the target bank and of the query time, so
    /// event-driven controllers can memoize it per bank group:
    /// `earliest_issue(Act, g, b, now) == max(now, act_constraint(g),
    /// bank(g, b).earliest_issue(Act, 0))`.
    pub fn act_constraint(&self, bank_group: usize, t: &TimingParams) -> Cycle {
        let mut earliest = self.busy_until;
        if let Some(a) = self.last_act_any {
            earliest = earliest.max(a + t.t_rrd_s);
        }
        if let Some(a) = self.last_act_per_group[bank_group] {
            earliest = earliest.max(a + t.t_rrd_l);
        }
        if self.recent_acts.len() == 4 {
            if let Some(&a) = self.recent_acts.front() {
                earliest = earliest.max(a + t.t_faw);
            }
        }
        earliest
    }

    /// Earliest cycle at which `cmd` targeting `(bank_group, bank)` satisfies both
    /// the bank-local and the rank-level timing constraints.
    pub fn earliest_issue(
        &self,
        cmd: CommandKind,
        bank_group: usize,
        bank: usize,
        now: Cycle,
        t: &TimingParams,
    ) -> Cycle {
        let flat = self.flat_bank(bank_group, bank);
        let mut earliest = self.banks[flat].earliest_issue(cmd, now, t).max(self.busy_until);
        let bump = |earliest: &mut Cycle, candidate: Option<Cycle>| {
            if let Some(c) = candidate {
                *earliest = (*earliest).max(c);
            }
        };
        match cmd {
            CommandKind::Act => {
                bump(&mut earliest, self.last_act_any.map(|a| a + t.t_rrd_s));
                bump(&mut earliest, self.last_act_per_group[bank_group].map(|a| a + t.t_rrd_l));
                if self.recent_acts.len() == 4 {
                    bump(&mut earliest, self.recent_acts.front().map(|a| a + t.t_faw));
                }
            }
            CommandKind::Rd | CommandKind::RdA => {
                bump(&mut earliest, self.last_rd.map(|r| r + t.t_ccd_s));
                bump(&mut earliest, self.last_rd_group[bank_group].map(|r| r + t.t_ccd_l));
                // Write-to-read turnaround: wait for write data plus tWTR.
                bump(&mut earliest, self.last_wr.map(|w| w + t.cwl + t.burst_cycles + t.t_wtr));
            }
            CommandKind::Wr | CommandKind::WrA => {
                bump(&mut earliest, self.last_wr.map(|w| w + t.t_ccd_s));
                bump(&mut earliest, self.last_wr_group[bank_group].map(|w| w + t.t_ccd_l));
                // Read-to-write: the data bus must drain the read burst first.
                bump(&mut earliest, self.last_rd.map(|r| r + t.cl + t.burst_cycles + 2 - t.cwl));
            }
            CommandKind::Ref | CommandKind::PreAll => {
                // All banks must be ready; take the maximum over banks.
                for b in &self.banks {
                    earliest = earliest.max(b.earliest_issue(CommandKind::Pre, now, t));
                }
            }
            CommandKind::Pre => {}
        }
        earliest
    }

    /// Issues `cmd` to `(bank_group, bank, row)` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Propagates bank-level errors and reports rank-level timing violations.
    pub fn issue(
        &mut self,
        cmd: CommandKind,
        bank_group: usize,
        bank: usize,
        row: usize,
        now: Cycle,
        t: &TimingParams,
    ) -> Result<(), DramError> {
        let earliest = self.earliest_issue(cmd, bank_group, bank, now, t);
        if now < earliest {
            return Err(DramError::TimingViolation { cmd, now, earliest });
        }
        if cmd == CommandKind::Ref {
            // All banks must be precharged; refresh makes the whole rank busy.
            for b in &self.banks {
                if b.open_row().is_some() {
                    return Err(DramError::IllegalState { cmd, state: "bank open during REF".to_string() });
                }
            }
        }
        self.issue_trusted(cmd, bank_group, bank, row, now, t);
        Ok(())
    }

    /// [`issue`](Self::issue) for callers that already established the
    /// command's legality at `now` (the memory controller schedules every
    /// command at a computed earliest legal cycle, making the checked path's
    /// constraint re-derivation redundant). Debug builds still verify.
    pub fn issue_trusted(
        &mut self,
        cmd: CommandKind,
        bank_group: usize,
        bank: usize,
        row: usize,
        now: Cycle,
        t: &TimingParams,
    ) {
        debug_assert!(
            now >= self.earliest_issue(cmd, bank_group, bank, now, t),
            "{cmd:?} issued at {now} before its earliest legal cycle"
        );
        let flat = self.flat_bank(bank_group, bank);
        match cmd {
            CommandKind::Ref => {
                // All banks must be precharged; refresh makes the whole rank busy for tRFC.
                debug_assert!(self.all_banks_closed(), "bank open during REF");
                self.busy_until = now + t.t_rfc;
                self.ref_count += 1;
            }
            CommandKind::PreAll => {
                for b in &mut self.banks {
                    if b.open_row().is_some() {
                        b.issue_trusted(CommandKind::Pre, 0, now, t);
                    }
                }
            }
            _ => {
                self.banks[flat].issue_trusted(cmd, row, now, t);
                match cmd {
                    CommandKind::Act => {
                        self.act_count += 1;
                        self.last_act_any = Some(now);
                        self.last_act_per_group[bank_group] = Some(now);
                        if self.recent_acts.len() == 4 {
                            self.recent_acts.pop_front();
                        }
                        self.recent_acts.push_back(now);
                    }
                    CommandKind::Rd | CommandKind::RdA => {
                        self.last_rd = Some(now);
                        self.last_rd_group[bank_group] = Some(now);
                    }
                    CommandKind::Wr | CommandKind::WrA => {
                        self.last_wr = Some(now);
                        self.last_wr_group[bank_group] = Some(now);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Returns `true` when every bank in the rank is precharged.
    pub fn all_banks_closed(&self) -> bool {
        self.banks.iter().all(|b| b.open_row().is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Rank, TimingParams, DramGeometry) {
        let g = DramGeometry::paper_default();
        (Rank::new(&g), TimingParams::ddr4_2400(), g)
    }

    #[test]
    fn trrd_enforced_across_banks() {
        let (mut r, t, _) = setup();
        r.issue(CommandKind::Act, 0, 0, 10, 0, &t).unwrap();
        // Same bank group: tRRD_L.
        let e = r.earliest_issue(CommandKind::Act, 0, 1, 0, &t);
        assert_eq!(e, t.t_rrd_l);
        // Different bank group: tRRD_S.
        let e = r.earliest_issue(CommandKind::Act, 1, 0, 0, &t);
        assert_eq!(e, t.t_rrd_s);
        // The memoizable decomposition reproduces the full computation.
        for (group, bank) in [(0usize, 1usize), (1, 0)] {
            let full = r.earliest_issue(CommandKind::Act, group, bank, 0, &t);
            let split = r.act_constraint(group, &t).max(r.bank(group * 4 + bank).earliest_issue(
                CommandKind::Act,
                0,
                &t,
            ));
            assert_eq!(full, split);
        }
    }

    #[test]
    fn tfaw_limits_burst_of_activations() {
        let (mut r, t, _) = setup();
        // Issue four activations as fast as tRRD allows, alternating bank groups.
        let mut now = 0;
        for i in 0..4 {
            let bg = i % 4;
            now = r.earliest_issue(CommandKind::Act, bg, 0, now, &t);
            r.issue(CommandKind::Act, bg, 0, i, now, &t).unwrap();
        }
        let first_act = 0;
        // The fifth activation must wait for the tFAW window to expire.
        let e = r.earliest_issue(CommandKind::Act, 0, 1, now, &t);
        assert!(e >= first_act + t.t_faw, "e = {e}, tFAW = {}", t.t_faw);
    }

    #[test]
    fn refresh_blocks_rank_for_trfc() {
        let (mut r, t, _) = setup();
        r.issue(CommandKind::Ref, 0, 0, 0, 0, &t).unwrap();
        assert_eq!(r.busy_until(), t.t_rfc);
        assert_eq!(r.ref_count(), 1);
        let e = r.earliest_issue(CommandKind::Act, 0, 0, 0, &t);
        assert!(e >= t.t_rfc);
    }

    #[test]
    fn refresh_rejected_when_a_bank_is_open() {
        let (mut r, t, _) = setup();
        r.issue(CommandKind::Act, 0, 0, 10, 0, &t).unwrap();
        // The earliest_issue for REF already accounts for the precharge, so force
        // the state error by issuing at that time without precharging.
        let e = r.earliest_issue(CommandKind::Ref, 0, 0, 0, &t);
        let err = r.issue(CommandKind::Ref, 0, 0, 0, e, &t).unwrap_err();
        assert!(matches!(err, DramError::IllegalState { .. }));
    }

    #[test]
    fn write_to_read_turnaround() {
        let (mut r, t, _) = setup();
        r.issue(CommandKind::Act, 0, 0, 10, 0, &t).unwrap();
        let wr_at = t.t_rcd;
        r.issue(CommandKind::Wr, 0, 0, 10, wr_at, &t).unwrap();
        let e = r.earliest_issue(CommandKind::Rd, 0, 0, wr_at, &t);
        assert!(e >= wr_at + t.cwl + t.burst_cycles + t.t_wtr);
    }

    #[test]
    fn pre_all_closes_every_open_bank() {
        let (mut r, t, _) = setup();
        r.issue(CommandKind::Act, 0, 0, 10, 0, &t).unwrap();
        let second_at = r.earliest_issue(CommandKind::Act, 1, 0, 0, &t);
        r.issue(CommandKind::Act, 1, 0, 20, second_at, &t).unwrap();
        assert!(!r.all_banks_closed());
        let e = r.earliest_issue(CommandKind::PreAll, 0, 0, second_at, &t);
        r.issue(CommandKind::PreAll, 0, 0, 0, e, &t).unwrap();
        assert!(r.all_banks_closed());
    }

    #[test]
    fn act_counts_accumulate() {
        let (mut r, t, _) = setup();
        let mut now = 0;
        for i in 0..10 {
            let bg = i % 4;
            let b = (i / 4) % 4;
            now = r.earliest_issue(CommandKind::Act, bg, b, now, &t);
            r.issue(CommandKind::Act, bg, b, i, now, &t).unwrap();
        }
        assert_eq!(r.act_count(), 10);
    }
}
