//! The unprotected baseline: no RowHammer mitigation at all.

use crate::stats::MitigationStats;
use crate::traits::{MitigationResponse, RowHammerMitigation};
use comet_dram::{Cycle, DramAddr};

/// Baseline mechanism that observes activations but never takes any action.
///
/// Every experiment in the paper normalizes results to a system with this
/// "mechanism" installed.
#[derive(Debug, Clone, Default)]
pub struct NoMitigation {
    stats: MitigationStats,
}

impl NoMitigation {
    /// Creates the baseline mechanism.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RowHammerMitigation for NoMitigation {
    crate::impl_mitigation_checkpoint!(NoMitigation);

    fn name(&self) -> &str {
        "Baseline"
    }

    fn on_activation(&mut self, _addr: &DramAddr, _now: Cycle, weight: u64) -> MitigationResponse {
        self.stats.activations_observed += weight;
        MitigationResponse::none()
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MitigationStats::default();
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_acts() {
        let mut m = NoMitigation::new();
        let addr = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 1, column: 0 };
        for i in 0..10_000 {
            assert!(m.on_activation(&addr, i, 1).is_nop());
        }
        assert_eq!(m.stats().activations_observed, 10_000);
        assert_eq!(m.stats().preventive_refreshes, 0);
        assert_eq!(m.storage_bits(), 0);
    }

    #[test]
    fn reset_clears_stats() {
        let mut m = NoMitigation::new();
        let addr = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 1, column: 0 };
        m.on_activation(&addr, 0, 1);
        m.reset_stats();
        assert_eq!(m.stats().activations_observed, 0);
    }
}
