//! Periodic-refresh bookkeeping (`tREFI` / `tREFW`).

use crate::timing::{Cycle, TimingParams};

/// Tracks when each rank owes a periodic refresh command.
///
/// A rank's first refresh falls due at `tREFI` and each later one `tREFI`
/// after the previous deadline. The memory controller in `comet-sim` issues
/// every REF as soon as it is due: it consults
/// [`refresh_due`](Self::refresh_due) before any other scheduling step,
/// precharges the rank if needed, and never postpones a refresh.
#[derive(Debug, Clone)]
pub struct RefreshScheduler {
    t_refi: Cycle,
    /// Next refresh deadline per rank.
    next_due: Vec<Cycle>,
    /// Refreshes issued per rank.
    issued: Vec<u64>,
}

impl RefreshScheduler {
    /// Creates a scheduler for `ranks` ranks with the refresh interval from `timing`.
    pub fn new(ranks: usize, timing: &TimingParams) -> Self {
        RefreshScheduler {
            t_refi: timing.t_refi,
            next_due: vec![timing.t_refi; ranks],
            issued: vec![0; ranks],
        }
    }

    /// Number of ranks managed.
    pub fn rank_count(&self) -> usize {
        self.next_due.len()
    }

    /// Refreshes issued to `rank` so far.
    pub fn issued(&self, rank: usize) -> u64 {
        self.issued[rank]
    }

    /// Returns `true` when `rank` has a refresh due at or before `now`.
    pub fn refresh_due(&self, rank: usize, now: Cycle) -> bool {
        now >= self.next_due[rank]
    }

    /// Records that a REF command was issued to `rank`, advancing its deadline.
    pub fn note_refresh_issued(&mut self, rank: usize) {
        self.issued[rank] += 1;
        self.next_due[rank] += self.t_refi;
    }

    /// Cycle at which the next refresh for `rank` becomes due.
    pub fn next_due(&self, rank: usize) -> Cycle {
        self.next_due[rank]
    }

    /// Earliest refresh deadline across all ranks (useful for idle-time skipping).
    pub fn earliest_due(&self) -> Cycle {
        self.next_due.iter().copied().min().unwrap_or(Cycle::MAX)
    }

    /// Earliest refresh deadline strictly after `now`, if any rank has one.
    ///
    /// Event-driven controllers use this to bound their next-event times: a
    /// deadline arriving preempts other scheduling work, while ranks that are
    /// *already* due are in hand and bounded by their own timing constraints.
    pub fn earliest_due_after(&self, now: Cycle) -> Option<Cycle> {
        self.next_due.iter().copied().filter(|&due| due > now).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> RefreshScheduler {
        RefreshScheduler::new(2, &TimingParams::ddr4_2400())
    }

    #[test]
    fn no_refresh_due_initially() {
        let s = sched();
        assert!(!s.refresh_due(0, 0));
        assert!(!s.refresh_due(1, 0));
    }

    #[test]
    fn refresh_becomes_due_after_trefi() {
        let t = TimingParams::ddr4_2400();
        let s = sched();
        assert!(s.refresh_due(0, t.t_refi));
    }

    #[test]
    fn issuing_advances_deadline() {
        let t = TimingParams::ddr4_2400();
        let mut s = sched();
        assert!(s.refresh_due(0, t.t_refi));
        s.note_refresh_issued(0);
        assert!(!s.refresh_due(0, t.t_refi));
        assert!(s.refresh_due(0, 2 * t.t_refi));
        assert_eq!(s.issued(0), 1);
        assert_eq!(s.issued(1), 0);
    }

    #[test]
    fn full_window_requires_expected_refresh_count() {
        let t = TimingParams::ddr4_2400();
        let mut s = sched();
        let mut now = 0;
        let mut count = 0;
        while now < t.t_refw {
            now += t.t_refi;
            if s.refresh_due(0, now) {
                s.note_refresh_issued(0);
                count += 1;
            }
        }
        let expected = t.refs_per_window();
        assert!((count as i64 - expected as i64).abs() <= 1, "count={count} expected={expected}");
    }

    #[test]
    fn earliest_due_tracks_minimum() {
        let t = TimingParams::ddr4_2400();
        let mut s = sched();
        assert_eq!(s.earliest_due(), t.t_refi);
        s.note_refresh_issued(0);
        assert_eq!(s.earliest_due(), t.t_refi);
        s.note_refresh_issued(1);
        assert_eq!(s.earliest_due(), 2 * t.t_refi);
    }

    #[test]
    fn earliest_due_after_skips_already_due_ranks() {
        let t = TimingParams::ddr4_2400();
        let mut s = sched();
        // Both ranks due at tREFI; advance rank 1 only.
        s.note_refresh_issued(1);
        // At a cycle where rank 0 is already due, only rank 1's deadline counts.
        assert_eq!(s.earliest_due_after(t.t_refi), Some(2 * t.t_refi));
        // Before any deadline, the earliest is rank 0's.
        assert_eq!(s.earliest_due_after(0), Some(t.t_refi));
        // Past every deadline there is nothing left to wait for.
        assert_eq!(s.earliest_due_after(3 * t.t_refi), None);
    }
}
