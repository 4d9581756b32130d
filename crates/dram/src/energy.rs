//! IDD-based DRAM energy model in the spirit of DRAMPower.
//!
//! The model attributes energy to command events (ACT/PRE pairs, column reads
//! and writes, refreshes) plus a background component proportional to elapsed
//! time. Per-command energies are computed from datasheet IDD currents of a
//! DDR4 device; absolute joules are approximate, but the *relative* energy of
//! two simulations of the same workload under different mitigation mechanisms —
//! which is what the CoMeT paper reports — is dominated by the command counts
//! and execution time this model captures.

use crate::timing::TimingParams;
use serde::{Deserialize, Serialize};

/// Raw command/event counters used to compute energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EnergyCounters {
    /// ACT commands issued.
    pub acts: u64,
    /// PRE commands issued (explicit or auto-precharge).
    pub pres: u64,
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// REF commands issued.
    pub refs: u64,
    /// Total elapsed simulation time in DRAM cycles.
    pub elapsed_cycles: u64,
}

impl EnergyCounters {
    /// Field-wise sum of the command counters, used to aggregate per-channel
    /// shards. `elapsed_cycles` is *not* summed — channels run concurrently,
    /// so wall-clock time is the maximum, not the total.
    pub fn merged(&self, other: &EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            acts: self.acts + other.acts,
            pres: self.pres + other.pres,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            refs: self.refs + other.refs,
            elapsed_cycles: self.elapsed_cycles.max(other.elapsed_cycles),
        }
    }

    /// Field-wise difference (`self - earlier`) of the command counters, used
    /// for warmup exclusion. `elapsed_cycles` is carried over from `self`.
    pub fn delta_since(&self, earlier: &EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            acts: self.acts - earlier.acts,
            pres: self.pres - earlier.pres,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            refs: self.refs - earlier.refs,
            elapsed_cycles: self.elapsed_cycles,
        }
    }
}

/// Energy attributed to each component, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct EnergyBreakdown {
    /// Row activation + precharge energy.
    pub act_pre_nj: f64,
    /// Read burst energy.
    pub read_nj: f64,
    /// Write burst energy.
    pub write_nj: f64,
    /// Refresh energy.
    pub refresh_nj: f64,
    /// Background (standby) energy.
    pub background_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.act_pre_nj + self.read_nj + self.write_nj + self.refresh_nj + self.background_nj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() / 1.0e6
    }
}

/// DDR4-style IDD current parameters (per device, in milliamperes) and supply voltage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Activate-precharge current (one bank active, cycling).
    pub idd0_ma: f64,
    /// Precharge standby current.
    pub idd2n_ma: f64,
    /// Active standby current.
    pub idd3n_ma: f64,
    /// Read burst current.
    pub idd4r_ma: f64,
    /// Write burst current.
    pub idd4w_ma: f64,
    /// Refresh burst current.
    pub idd5b_ma: f64,
    /// Devices per rank sharing each command.
    pub devices_per_rank: usize,
}

impl EnergyModel {
    /// DDR4-2400 4 Gb x8 device, values in the range of vendor datasheets.
    pub fn ddr4_4gb_x8() -> Self {
        EnergyModel {
            vdd: 1.2,
            idd0_ma: 55.0,
            idd2n_ma: 34.0,
            idd3n_ma: 42.0,
            idd4r_ma: 140.0,
            idd4w_ma: 150.0,
            idd5b_ma: 190.0,
            devices_per_rank: 8,
        }
    }

    fn rank_factor(&self) -> f64 {
        self.devices_per_rank as f64
    }

    /// Energy of one ACT + PRE pair in nanojoules (all devices of the rank).
    pub fn act_pre_energy_nj(&self, t: &TimingParams) -> f64 {
        // E = (IDD0 - IDD3N) * VDD * tRAS + (IDD0 - IDD2N) * VDD * tRP   (per device)
        let t_ras_ns = t.cycles_to_ns(t.t_ras);
        let t_rp_ns = t.cycles_to_ns(t.t_rp);
        let per_device = (self.idd0_ma - self.idd3n_ma) * 1e-3 * self.vdd * t_ras_ns
            + (self.idd0_ma - self.idd2n_ma) * 1e-3 * self.vdd * t_rp_ns;
        per_device * self.rank_factor()
    }

    /// Energy of one read burst in nanojoules.
    pub fn read_energy_nj(&self, t: &TimingParams) -> f64 {
        let burst_ns = t.cycles_to_ns(t.burst_cycles);
        (self.idd4r_ma - self.idd3n_ma) * 1e-3 * self.vdd * burst_ns * self.rank_factor()
    }

    /// Energy of one write burst in nanojoules.
    pub fn write_energy_nj(&self, t: &TimingParams) -> f64 {
        let burst_ns = t.cycles_to_ns(t.burst_cycles);
        (self.idd4w_ma - self.idd3n_ma) * 1e-3 * self.vdd * burst_ns * self.rank_factor()
    }

    /// Energy of one all-bank refresh in nanojoules.
    pub fn refresh_energy_nj(&self, t: &TimingParams) -> f64 {
        let t_rfc_ns = t.cycles_to_ns(t.t_rfc);
        (self.idd5b_ma - self.idd3n_ma) * 1e-3 * self.vdd * t_rfc_ns * self.rank_factor()
    }

    /// Background power in nanojoules per nanosecond (i.e. watts), per rank.
    pub fn background_power_w(&self) -> f64 {
        // Weighted between precharge standby and active standby.
        let avg_ma = 0.5 * (self.idd2n_ma + self.idd3n_ma);
        avg_ma * 1e-3 * self.vdd * self.rank_factor()
    }

    /// Computes the energy breakdown for `counters` under timing `t`, for a
    /// system with `ranks` ranks (background energy scales with rank count).
    pub fn breakdown(&self, counters: &EnergyCounters, t: &TimingParams, ranks: usize) -> EnergyBreakdown {
        let elapsed_ns = t.cycles_to_ns(counters.elapsed_cycles);
        EnergyBreakdown {
            act_pre_nj: counters.acts as f64 * self.act_pre_energy_nj(t),
            read_nj: counters.reads as f64 * self.read_energy_nj(t),
            write_nj: counters.writes as f64 * self.write_energy_nj(t),
            refresh_nj: counters.refs as f64 * self.refresh_energy_nj(t),
            background_nj: self.background_power_w() * elapsed_ns * ranks as f64,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::ddr4_4gb_x8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (EnergyModel, TimingParams) {
        (EnergyModel::ddr4_4gb_x8(), TimingParams::ddr4_2400())
    }

    #[test]
    fn per_command_energies_are_positive_and_ordered() {
        let (m, t) = model();
        assert!(m.act_pre_energy_nj(&t) > 0.0);
        assert!(m.read_energy_nj(&t) > 0.0);
        assert!(m.write_energy_nj(&t) > m.read_energy_nj(&t) * 0.9);
        // A refresh (all banks, tRFC ≈ 350 ns) costs far more than one ACT/PRE pair.
        assert!(m.refresh_energy_nj(&t) > m.act_pre_energy_nj(&t) * 5.0);
    }

    #[test]
    fn breakdown_scales_linearly_with_counts() {
        let (m, t) = model();
        let c1 = EnergyCounters { acts: 10, pres: 10, reads: 20, writes: 5, refs: 2, elapsed_cycles: 1000 };
        let c2 = EnergyCounters { acts: 20, pres: 20, reads: 40, writes: 10, refs: 4, elapsed_cycles: 1000 };
        let b1 = m.breakdown(&c1, &t, 2);
        let b2 = m.breakdown(&c2, &t, 2);
        assert!((b2.act_pre_nj - 2.0 * b1.act_pre_nj).abs() < 1e-9);
        assert!((b2.read_nj - 2.0 * b1.read_nj).abs() < 1e-9);
        assert_eq!(b1.background_nj, b2.background_nj);
    }

    #[test]
    fn extra_activations_increase_total_energy() {
        let (m, t) = model();
        let base = EnergyCounters {
            acts: 1000,
            pres: 1000,
            reads: 5000,
            writes: 100,
            refs: 50,
            elapsed_cycles: 1_000_000,
        };
        let more = EnergyCounters { acts: 1500, pres: 1500, ..base };
        assert!(m.breakdown(&more, &t, 2).total_nj() > m.breakdown(&base, &t, 2).total_nj());
    }

    #[test]
    fn background_energy_scales_with_time_and_ranks() {
        let (m, t) = model();
        let short = EnergyCounters { elapsed_cycles: 1_000, ..Default::default() };
        let long = EnergyCounters { elapsed_cycles: 10_000, ..Default::default() };
        let b_short = m.breakdown(&short, &t, 2);
        let b_long = m.breakdown(&long, &t, 2);
        assert!((b_long.background_nj - 10.0 * b_short.background_nj).abs() < 1e-6);
        let one_rank = m.breakdown(&long, &t, 1);
        assert!((b_long.background_nj - 2.0 * one_rank.background_nj).abs() < 1e-6);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let (m, t) = model();
        let c = EnergyCounters { acts: 3, pres: 3, reads: 7, writes: 2, refs: 1, elapsed_cycles: 500 };
        let b = m.breakdown(&c, &t, 2);
        let sum = b.act_pre_nj + b.read_nj + b.write_nj + b.refresh_nj + b.background_nj;
        assert!((b.total_nj() - sum).abs() < 1e-12);
    }
}
