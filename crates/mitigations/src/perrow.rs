//! Idealized per-DRAM-row activation counters (the "straightforward" tracker of §3.2).

use crate::stats::MitigationStats;
use crate::traits::{MitigationResponse, RowHammerMitigation};
use comet_dram::{Cycle, DramAddr, DramGeometry, TimingParams};
use std::collections::HashMap;

/// One dedicated activation counter per DRAM row.
///
/// This tracker is exact — it never over- or under-estimates — but requires a
/// counter for every row in the system (20 MiB for a modern DDR5 channel, per
/// the paper's introduction), which is why real mechanisms approximate it.
/// It serves as the ground-truth reference in tests and ablation studies.
#[derive(Debug, Clone)]
pub struct PerRowCounters {
    nrh: u64,
    prevention_threshold: u64,
    reset_period: Cycle,
    next_reset: Cycle,
    geometry: DramGeometry,
    counters: HashMap<(usize, usize), u64>,
    stats: MitigationStats,
}

impl PerRowCounters {
    /// Creates the ideal tracker with prevention threshold `nrh / 2` and a
    /// reset period of one refresh window.
    pub fn new(nrh: u64, timing: &TimingParams, geometry: DramGeometry) -> Self {
        PerRowCounters {
            nrh,
            prevention_threshold: (nrh / 2).max(1),
            reset_period: timing.t_refw,
            next_reset: timing.t_refw,
            geometry,
            counters: HashMap::new(),
            stats: MitigationStats::default(),
        }
    }

    /// Exact activation count recorded for `addr` in the current window.
    pub fn count(&self, addr: &DramAddr) -> u64 {
        let bank = addr.flat_bank(&self.geometry);
        *self.counters.get(&(bank, addr.row)).unwrap_or(&0)
    }

    /// The configured RowHammer threshold.
    pub fn nrh(&self) -> u64 {
        self.nrh
    }

    fn maybe_reset(&mut self, now: Cycle) {
        if now >= self.next_reset {
            self.counters.clear();
            self.stats.periodic_resets += 1;
            while self.next_reset <= now {
                self.next_reset += self.reset_period;
            }
        }
    }
}

impl RowHammerMitigation for PerRowCounters {
    fn name(&self) -> &str {
        "PerRow"
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        self.maybe_reset(now);
        self.stats.activations_observed += weight;
        let bank = addr.flat_bank(&self.geometry);
        let counter = self.counters.entry((bank, addr.row)).or_insert(0);
        *counter += weight;
        if *counter >= self.prevention_threshold {
            *counter = 0;
            self.stats.aggressors_identified += 1;
            let victims = addr.victim_rows(&self.geometry);
            self.stats.preventive_refreshes += victims.len() as u64;
            MitigationResponse::refresh(victims)
        } else {
            MitigationResponse::none()
        }
    }

    fn on_tick(&mut self, now: Cycle) {
        self.maybe_reset(now);
    }

    fn next_tick_deadline(&self) -> Cycle {
        self.next_reset
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MitigationStats::default();
    }

    fn storage_bits(&self) -> u64 {
        let counter_bits = (64 - self.prevention_threshold.leading_zeros()) as u64;
        self.geometry.banks_per_channel() as u64 * self.geometry.rows_per_bank as u64 * counter_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nrh: u64) -> PerRowCounters {
        PerRowCounters::new(nrh, &TimingParams::ddr4_2400(), DramGeometry::paper_default())
    }

    fn addr(row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    #[test]
    fn exact_counting() {
        let mut m = setup(1000);
        for i in 0..100 {
            m.on_activation(&addr(5), i, 1);
        }
        assert_eq!(m.count(&addr(5)), 100);
        assert_eq!(m.count(&addr(6)), 0);
    }

    #[test]
    fn refresh_exactly_at_half_threshold() {
        let mut m = setup(1000);
        let mut refresh_points = Vec::new();
        for i in 0..1000u64 {
            if !m.on_activation(&addr(9), i, 1).refresh_victims.is_empty() {
                refresh_points.push(i + 1);
            }
        }
        assert_eq!(refresh_points, vec![500, 1000]);
    }

    #[test]
    fn storage_is_enormous() {
        let m = setup(1000);
        // 32 banks × 128 K rows × ~9 bits ≈ 4.7 MiB — per-row counters do not scale.
        assert!(m.storage_bits() > 30_000_000);
    }

    #[test]
    fn window_reset_clears_counts() {
        let mut m = setup(1000);
        let period = TimingParams::ddr4_2400().t_refw;
        for i in 0..100 {
            m.on_activation(&addr(5), i, 1);
        }
        m.on_tick(period);
        assert_eq!(m.count(&addr(5)), 0);
    }
}
