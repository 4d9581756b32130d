//! JEDEC-style timing parameters, expressed in DRAM command-clock cycles.

use serde::{Deserialize, Serialize};

/// Simulation time, measured in DRAM command-clock cycles.
pub type Cycle = u64;

/// DRAM timing constraints in command-clock cycles.
///
/// The parameter names follow the JEDEC DDR4 specification. All values are in
/// cycles of the command clock whose period is [`t_ck_ns`](Self::t_ck_ns).
///
/// The preset [`TimingParams::ddr4_2400`] corresponds to a DDR4-2400 device
/// (the configuration simulated in the CoMeT paper); the derived quantities
/// `acts_per_t_refw_*` are what sizing formulas of counter-based RowHammer
/// mitigations (Graphene, CoMeT's CT) are computed from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Command-clock period in nanoseconds.
    pub t_ck_ns: f64,
    /// ACT→RD/WR delay (row-to-column delay).
    pub t_rcd: Cycle,
    /// PRE→ACT delay (row precharge).
    pub t_rp: Cycle,
    /// ACT→PRE minimum (row active time).
    pub t_ras: Cycle,
    /// ACT→ACT to the same bank (row cycle); normally `t_ras + t_rp`.
    pub t_rc: Cycle,
    /// ACT→ACT to different banks, same bank group.
    pub t_rrd_l: Cycle,
    /// ACT→ACT to different banks, different bank groups.
    pub t_rrd_s: Cycle,
    /// Four-activation window: at most 4 ACTs to a rank within this window.
    pub t_faw: Cycle,
    /// CAS latency: RD→first data.
    pub cl: Cycle,
    /// CAS write latency.
    pub cwl: Cycle,
    /// Burst length in bus transfers (DDR4: 8 ⇒ 4 command-clock cycles of data).
    pub burst_cycles: Cycle,
    /// Column-to-column delay, same bank group.
    pub t_ccd_l: Cycle,
    /// Column-to-column delay, different bank group.
    pub t_ccd_s: Cycle,
    /// Write recovery: last write data → PRE.
    pub t_wr: Cycle,
    /// Write-to-read turnaround, same rank.
    pub t_wtr: Cycle,
    /// RD→PRE minimum.
    pub t_rtp: Cycle,
    /// Refresh cycle time (rank busy after REF).
    pub t_rfc: Cycle,
    /// Average refresh command interval.
    pub t_refi: Cycle,
    /// Refresh window: every row is refreshed once per `t_refw`.
    pub t_refw: Cycle,
}

impl TimingParams {
    /// DDR4-2400 (1200 MHz command clock, tCK = 0.833 ns) timing preset with a
    /// 64 ms refresh window, as simulated in the CoMeT paper.
    pub fn ddr4_2400() -> Self {
        let t_ck_ns = 0.833;
        let ns = |x: f64| -> Cycle { (x / t_ck_ns).ceil() as Cycle };
        TimingParams {
            t_ck_ns,
            t_rcd: ns(13.75),
            t_rp: ns(13.75),
            t_ras: ns(32.0),
            // tRC = tRAS + tRP; compute from the rounded cycle values so the
            // constraint holds exactly after ns→cycle conversion.
            t_rc: ns(32.0) + ns(13.75),
            t_rrd_l: ns(4.9),
            t_rrd_s: ns(3.3),
            t_faw: ns(21.0),
            cl: 16,
            cwl: 12,
            burst_cycles: 4,
            t_ccd_l: 6,
            t_ccd_s: 4,
            t_wr: ns(15.0),
            t_wtr: ns(7.5),
            t_rtp: ns(7.5),
            t_rfc: ns(350.0),
            t_refi: ns(7_800.0),
            t_refw: ns(64_000_000.0),
        }
    }

    /// Converts nanoseconds to (rounded-up) command-clock cycles for this device.
    pub fn ns_to_cycles(&self, ns: f64) -> Cycle {
        (ns / self.t_ck_ns).ceil() as Cycle
    }

    /// Converts cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: Cycle) -> f64 {
        cycles as f64 * self.t_ck_ns
    }

    /// Number of REF commands needed to refresh every row once (one refresh window).
    pub fn refs_per_window(&self) -> u64 {
        self.t_refw / self.t_refi
    }

    /// Checks internal consistency of the parameters.
    ///
    /// Returns a list of human-readable violations; an empty list means the
    /// parameter set is self-consistent.
    pub fn consistency_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.t_rc < self.t_ras + self.t_rp {
            v.push(format!("t_rc ({}) must be >= t_ras + t_rp ({})", self.t_rc, self.t_ras + self.t_rp));
        }
        if self.t_rrd_l < self.t_rrd_s {
            v.push("t_rrd_l must be >= t_rrd_s".to_string());
        }
        if self.t_ccd_l < self.t_ccd_s {
            v.push("t_ccd_l must be >= t_ccd_s".to_string());
        }
        if self.t_faw < self.t_rrd_s {
            v.push("t_faw must be >= t_rrd_s".to_string());
        }
        if self.t_refi >= self.t_refw {
            v.push("t_refi must be < t_refw".to_string());
        }
        if self.t_ck_ns <= 0.0 {
            v.push("t_ck_ns must be positive".to_string());
        }
        v
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_preset_is_consistent() {
        let t = TimingParams::ddr4_2400();
        assert!(t.consistency_violations().is_empty(), "{:?}", t.consistency_violations());
        // tRC must allow tRAS + tRP.
        assert!(t.t_rc >= t.t_ras + t.t_rp);
    }

    #[test]
    fn refresh_window_counts() {
        let t = TimingParams::ddr4_2400();
        // 64 ms / 7.8 us ≈ 8192 refresh commands per window.
        let refs = t.refs_per_window();
        assert!((8000..8400).contains(&refs), "refs = {refs}");
    }

    #[test]
    fn ns_cycle_round_trip() {
        let t = TimingParams::ddr4_2400();
        let cycles = t.ns_to_cycles(100.0);
        let ns = t.cycles_to_ns(cycles);
        assert!((ns - 100.0).abs() < t.t_ck_ns + 1e-9);
    }
}
