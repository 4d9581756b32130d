//! CoMeT configuration and threshold math (Equation 1 of the paper).

use comet_dram::{Cycle, TimingParams};
use serde::Serialize;

/// Complete configuration of the CoMeT mechanism.
///
/// The defaults produced by [`CometConfig::for_threshold`] are the paper's
/// chosen design point (§7.1): 4 hash functions × 512 counters per bank, a
/// 128-entry Recent Aggressor Table, a 256-entry RAT-miss history with a 25 %
/// early-preventive-refresh threshold, and a counter reset period of
/// `tREFW / 3` which by Equation 1 puts the preventive refresh threshold at
/// `NPR = NRH / 4`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CometConfig {
    /// RowHammer threshold the mechanism must defend against.
    pub nrh: u64,
    /// Reset-period divisor `k`: counters are reset every `tREFW / k`.
    pub reset_divisor: u64,
    /// Number of hash functions (Counter Table rows).
    pub n_hash: usize,
    /// Counters per hash function (Counter Table columns).
    pub n_counters: usize,
    /// Recent Aggressor Table entries per bank.
    pub rat_entries: usize,
    /// RAT miss history window length (bits per bank).
    pub history_length: usize,
    /// Early preventive refresh threshold as a percentage of the history window.
    pub eprt_percent: u32,
    /// Whether the early-preventive-refresh mechanism is enabled (ablation knob).
    pub early_refresh_enabled: bool,
    /// Counter reset period in cycles (derived from `reset_divisor` and `tREFW`).
    pub reset_period: Cycle,
    /// Seed for the hash family and RAT eviction randomness.
    pub seed: u64,
}

impl CometConfig {
    /// The paper's design point for RowHammer threshold `nrh` under `timing`.
    pub fn for_threshold(nrh: u64, timing: &TimingParams) -> Self {
        Self::with_reset_divisor(nrh, 3, timing)
    }

    /// The paper's design point but with an explicit reset-period divisor `k`
    /// (Figure 9 sweeps `k` from 1 to 5).
    pub fn with_reset_divisor(nrh: u64, k: u64, timing: &TimingParams) -> Self {
        assert!(k >= 1, "reset divisor must be at least 1");
        CometConfig {
            nrh,
            reset_divisor: k,
            n_hash: 4,
            n_counters: 512,
            rat_entries: 128,
            history_length: 256,
            eprt_percent: 25,
            early_refresh_enabled: true,
            reset_period: timing.t_refw / k,
            seed: 0x0C0_FFEE,
        }
    }

    /// The preventive refresh threshold `NPR = NRH / (k + 1)` (Equation 1).
    ///
    /// With a reset period of `tREFW / k`, an attacker can accumulate at most
    /// `(k + 1) · (NPR − 1)` activations on one row between two refreshes of its
    /// victims, so `NPR = NRH / (k + 1)` guarantees the victims are refreshed
    /// before the row reaches `NRH` activations.
    pub fn npr(&self) -> u64 {
        (self.nrh / (self.reset_divisor + 1)).max(1)
    }

    /// Worst-case activations an aggressor row can accumulate between two
    /// refreshes of its victims under this configuration (must stay below `nrh`).
    pub fn worst_case_activations(&self) -> u64 {
        (self.reset_divisor + 1) * (self.npr().saturating_sub(1))
    }

    /// Bits per Counter Table counter (wide enough to hold `NPR`).
    pub fn ct_counter_bits(&self) -> u32 {
        64 - self.npr().leading_zeros()
    }

    /// Counter Table storage per bank, in bits.
    pub fn ct_storage_bits_per_bank(&self) -> u64 {
        (self.n_hash * self.n_counters) as u64 * self.ct_counter_bits() as u64
    }

    /// Recent Aggressor Table storage per bank, in bits (tag + counter per entry).
    pub fn rat_storage_bits_per_bank(&self, row_tag_bits: u32) -> u64 {
        self.rat_entries as u64 * (row_tag_bits as u64 + self.ct_counter_bits() as u64)
    }

    /// Total per-bank storage in bits: CT + RAT + RAT miss history vector.
    pub fn storage_bits_per_bank(&self, row_tag_bits: u32) -> u64 {
        self.ct_storage_bits_per_bank()
            + self.rat_storage_bits_per_bank(row_tag_bits)
            + self.history_length as u64
    }

    /// Validates the configuration, returning human-readable problems (empty = OK).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if !self.n_counters.is_power_of_two() {
            problems.push("n_counters must be a power of two".to_string());
        }
        if self.n_hash == 0 || self.n_hash > 8 {
            problems.push("n_hash must be between 1 and 8".to_string());
        }
        if self.npr() < 2 {
            problems.push(format!(
                "NPR = {} is too small: NRH {} with k = {} cannot be defended with a meaningful threshold",
                self.npr(),
                self.nrh,
                self.reset_divisor
            ));
        }
        if self.worst_case_activations() >= self.nrh {
            problems.push("worst-case activations reach NRH: configuration is insecure".to_string());
        }
        if self.eprt_percent > 100 {
            problems.push("eprt_percent must be at most 100".to_string());
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> TimingParams {
        TimingParams::ddr4_2400()
    }

    #[test]
    fn paper_defaults() {
        let c = CometConfig::for_threshold(1000, &timing());
        assert_eq!(c.n_hash, 4);
        assert_eq!(c.n_counters, 512);
        assert_eq!(c.rat_entries, 128);
        assert_eq!(c.history_length, 256);
        assert_eq!(c.eprt_percent, 25);
        assert_eq!(c.reset_divisor, 3);
        assert_eq!(c.npr(), 250);
        assert!(c.validate().is_empty());
    }

    #[test]
    fn equation_one_for_all_paper_thresholds() {
        for (nrh, expected_npr) in [(1000, 250), (500, 125), (250, 62), (125, 31)] {
            let c = CometConfig::for_threshold(nrh, &timing());
            assert_eq!(c.npr(), expected_npr, "NRH = {nrh}");
        }
    }

    #[test]
    fn security_bound_holds_for_every_k() {
        for nrh in [125u64, 250, 500, 1000, 4000] {
            for k in 1..=5 {
                let c = CometConfig::with_reset_divisor(nrh, k, &timing());
                assert!(
                    c.worst_case_activations() < nrh,
                    "insecure: NRH={nrh} k={k} worst={}",
                    c.worst_case_activations()
                );
            }
        }
    }

    #[test]
    fn reset_period_divides_refresh_window() {
        let t = timing();
        let c = CometConfig::with_reset_divisor(1000, 4, &t);
        assert_eq!(c.reset_period, t.t_refw / 4);
    }

    #[test]
    fn storage_shrinks_with_threshold() {
        // Fewer counter bits are needed at lower NRH, so storage decreases —
        // the trend shown in Table 4 (76.5 KiB at 1K down to 51.0 KiB at 125).
        let c1k = CometConfig::for_threshold(1000, &timing());
        let c125 = CometConfig::for_threshold(125, &timing());
        assert!(c125.ct_storage_bits_per_bank() < c1k.ct_storage_bits_per_bank());
        assert_eq!(c1k.ct_counter_bits(), 8);
        assert_eq!(c125.ct_counter_bits(), 5);
    }

    #[test]
    fn channel_storage_matches_table4_scale() {
        // CT storage for 32 banks at NRH = 1K: 2048 counters × 8 bits × 32 = 64 KiB.
        let c = CometConfig::for_threshold(1000, &timing());
        let ct_kib = c.ct_storage_bits_per_bank() as f64 * 32.0 / 8.0 / 1024.0;
        assert!((ct_kib - 64.0).abs() < 1.0, "CT = {ct_kib} KiB");
        // RAT storage: 128 × (17 + 8) bits × 32 banks ≈ 12.5 KiB.
        let rat_kib = c.rat_storage_bits_per_bank(17) as f64 * 32.0 / 8.0 / 1024.0;
        assert!((rat_kib - 12.5).abs() < 0.5, "RAT = {rat_kib} KiB");
    }

    #[test]
    fn invalid_configurations_are_reported() {
        let t = timing();
        let mut c = CometConfig::for_threshold(1000, &t);
        c.n_counters = 500;
        assert!(!c.validate().is_empty());
        let c = CometConfig::with_reset_divisor(4, 4, &t);
        assert!(!c.validate().is_empty());
    }

    #[test]
    #[should_panic(expected = "reset divisor")]
    fn zero_reset_divisor_panics() {
        let _ = CometConfig::with_reset_divisor(1000, 0, &timing());
    }
}
