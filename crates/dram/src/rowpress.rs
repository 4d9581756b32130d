//! Row-open-time accounting for RowPress-aware mitigation studies.
//!
//! RowPress (Luo et al., ISCA 2023) induces read-disturbance bitflips by keeping
//! rows open for long periods, lowering the effective activation count needed to
//! disturb a victim. The CoMeT paper (§3.1) notes that mitigations can account
//! for RowPress by charging a row extra "equivalent activations" proportional to
//! its open time. This module provides that accounting so the tracker can be
//! driven with RowPress-adjusted activation weights.

use crate::addr::{DramAddr, GlobalRowId};
use crate::geometry::DramGeometry;
use crate::timing::Cycle;
use serde::Serialize;
use std::collections::HashMap;

/// Converts row open time into equivalent extra activations.
///
/// A row kept open for `t_on` beyond the minimum (`t_ras`) is charged
/// `ceil((t_on - t_ras) / equivalence_cycles)` additional activations,
/// following the adaptation strategy described by the RowPress work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct RowPressPolicy {
    /// Minimum open time not charged (typically `t_ras`).
    pub free_cycles: Cycle,
    /// Every additional `equivalence_cycles` of open time counts as one more activation.
    pub equivalence_cycles: Cycle,
}

impl RowPressPolicy {
    /// A policy calibrated so that keeping a row open for ~7.8 µs (one tREFI)
    /// counts as roughly 10 extra activations, in line with the one-to-two
    /// orders-of-magnitude amplification the RowPress paper reports.
    pub fn paper_default() -> Self {
        RowPressPolicy { free_cycles: 39, equivalence_cycles: 900 }
    }

    /// Number of activations to charge for a row that stayed open `open_cycles`.
    pub fn equivalent_activations(&self, open_cycles: Cycle) -> u64 {
        if open_cycles <= self.free_cycles {
            1
        } else {
            1 + (open_cycles - self.free_cycles).div_ceil(self.equivalence_cycles)
        }
    }
}

impl Default for RowPressPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Tracks per-bank row open intervals and reports RowPress-adjusted activation weights.
#[derive(Debug, Clone, Default)]
pub struct RowOpenTracker {
    /// Open row per flat bank index → (row id, opened-at cycle).
    open: HashMap<usize, (GlobalRowId, Cycle)>,
    policy: RowPressPolicy,
}

impl RowOpenTracker {
    /// Creates a tracker with the given policy.
    pub fn new(policy: RowPressPolicy) -> Self {
        RowOpenTracker { open: HashMap::new(), policy }
    }

    /// Records that `addr`'s row was opened at `now`.
    pub fn note_open(&mut self, addr: &DramAddr, geometry: &DramGeometry, now: Cycle) {
        let bank = addr.channel * geometry.banks_per_channel() + addr.flat_bank(geometry);
        self.open.insert(bank, (addr.global_row_id(geometry), now));
    }

    /// Records that the bank addressed by `addr` was precharged at `now` and
    /// returns the RowPress-adjusted activation weight of the interval that just
    /// ended (1 for a short open interval, more for a long one).
    pub fn note_close(&mut self, addr: &DramAddr, geometry: &DramGeometry, now: Cycle) -> u64 {
        let bank = addr.channel * geometry.banks_per_channel() + addr.flat_bank(geometry);
        match self.open.remove(&bank) {
            Some((_row, opened_at)) => self.policy.equivalent_activations(now.saturating_sub(opened_at)),
            None => 1,
        }
    }

    /// Number of banks with a row currently open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    #[test]
    fn short_open_counts_as_one_activation() {
        let p = RowPressPolicy::paper_default();
        assert_eq!(p.equivalent_activations(10), 1);
        assert_eq!(p.equivalent_activations(p.free_cycles), 1);
    }

    #[test]
    fn long_open_charges_extra_activations() {
        let p = RowPressPolicy::paper_default();
        let one_extra = p.free_cycles + 1;
        assert_eq!(p.equivalent_activations(one_extra), 2);
        let many = p.free_cycles + 10 * p.equivalence_cycles;
        assert_eq!(p.equivalent_activations(many), 11);
    }

    #[test]
    fn tracker_measures_open_interval() {
        let g = DramGeometry::paper_default();
        let mut tr = RowOpenTracker::new(RowPressPolicy::paper_default());
        tr.note_open(&addr(5), &g, 100);
        assert_eq!(tr.open_count(), 1);
        let w = tr.note_close(&addr(5), &g, 100 + 39 + 1800);
        assert_eq!(w, 3);
        assert_eq!(tr.open_count(), 0);
    }

    #[test]
    fn close_without_open_is_benign() {
        let g = DramGeometry::paper_default();
        let mut tr = RowOpenTracker::new(RowPressPolicy::paper_default());
        assert_eq!(tr.note_close(&addr(5), &g, 50), 1);
    }
}
