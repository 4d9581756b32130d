//! REGA: Refresh-Generating Activations (Marazzi et al., S&P 2023), modeled as
//! an activation latency penalty.

use crate::stats::MitigationStats;
use crate::traits::{MitigationResponse, RowHammerMitigation};
use comet_dram::{Cycle, DramAddr, TimingParams};

/// REGA modifies the DRAM chip so that each row activation concurrently
/// refreshes one or more potential victim rows using spare sense amplifiers.
///
/// From the memory controller's point of view the only observable effect is a
/// longer row cycle: to refresh `v` rows per activation the device needs the
/// row to stay open longer, so `tRC`/`tRAS` grow with `v`, and `v` itself grows
/// as the RowHammer threshold shrinks. Following the CoMeT paper's methodology
/// (§6, "we modify tRC as described in \[127\]"), this model derives a per-ACT
/// latency penalty from `NRH`:
///
/// * `NRH ≥ 1000` — the protection fits in the activation's slack: no penalty,
/// * `NRH = 500` — one extra victim refresh per ACT,
/// * `NRH = 250` — two extra victim refreshes per ACT,
/// * `NRH ≤ 125` — four extra victim refreshes per ACT,
///
/// each victim refresh costing roughly 3.5 ns of additional bank busy time.
/// REGA keeps no controller-side state (its cost is a DRAM-area cost of ~2%).
#[derive(Debug, Clone)]
pub struct Rega {
    nrh: u64,
    penalty_cycles: Cycle,
    stats: MitigationStats,
}

impl Rega {
    /// Nanoseconds of extra bank busy time charged per victim refresh.
    const NS_PER_VICTIM_REFRESH: f64 = 3.5;

    /// Creates REGA for RowHammer threshold `nrh` under `timing`.
    pub fn new(nrh: u64, timing: &TimingParams) -> Self {
        let victims = Self::victims_per_activation(nrh);
        let penalty_ns = victims as f64 * Self::NS_PER_VICTIM_REFRESH;
        Rega { nrh, penalty_cycles: timing.ns_to_cycles(penalty_ns), stats: MitigationStats::default() }
    }

    /// Number of rows REGA must refresh alongside each activation to stay secure
    /// at threshold `nrh`.
    pub fn victims_per_activation(nrh: u64) -> u64 {
        match nrh {
            n if n >= 1000 => 0,
            n if n >= 500 => 1,
            n if n >= 250 => 2,
            _ => 4,
        }
    }

    /// The configured RowHammer threshold.
    pub fn nrh(&self) -> u64 {
        self.nrh
    }

    /// DRAM chip area overhead fraction reported by the REGA paper.
    pub fn dram_area_overhead_fraction() -> f64 {
        0.0206
    }
}

impl RowHammerMitigation for Rega {
    fn name(&self) -> &str {
        "REGA"
    }

    fn on_activation(&mut self, _addr: &DramAddr, _now: Cycle, weight: u64) -> MitigationResponse {
        self.stats.activations_observed += weight;
        // The in-DRAM refreshes count as preventive refreshes for energy accounting.
        self.stats.preventive_refreshes += Self::victims_per_activation(self.nrh) * weight;
        MitigationResponse::none()
    }

    fn act_latency_penalty(&self) -> Cycle {
        self.penalty_cycles
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
    fn penalty_grows_as_threshold_shrinks() {
        let t = TimingParams::ddr4_2400();
        let p1k = Rega::new(1000, &t).act_latency_penalty();
        let p500 = Rega::new(500, &t).act_latency_penalty();
        let p125 = Rega::new(125, &t).act_latency_penalty();
        assert_eq!(p1k, 0);
        assert!(p500 > 0);
        assert!(p125 > p500);
    }

    #[test]
    fn no_controller_actions_requested() {
        let t = TimingParams::ddr4_2400();
        let mut r = Rega::new(125, &t);
        let addr = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 1, column: 0 };
        for i in 0..1000 {
            assert!(r.on_activation(&addr, i, 1).is_nop());
        }
        assert_eq!(r.storage_bits(), 0);
    }

    #[test]
    fn in_dram_refreshes_are_accounted() {
        let t = TimingParams::ddr4_2400();
        let mut r = Rega::new(250, &t);
        let addr = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 1, column: 0 };
        for i in 0..100 {
            r.on_activation(&addr, i, 1);
        }
        assert_eq!(r.stats().preventive_refreshes, 200);
    }

    #[test]
    fn dram_area_overhead_is_about_two_percent() {
        assert!((Rega::dram_area_overhead_fraction() - 0.02).abs() < 0.005);
    }
}
