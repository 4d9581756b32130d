//! PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).

use crate::stats::MitigationStats;
use crate::traits::{MitigationResponse, RowHammerMitigation};
use comet_dram::{Cycle, DramAddr, DramGeometry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// PARA refreshes the neighbours of an activated row with a small probability.
///
/// The probability is tuned, as in the CoMeT paper's methodology (§6), for a
/// target failure probability of 10⁻¹⁵ within one refresh window: the chance
/// that a row hammered `NRH` times never triggers a neighbour refresh is
/// `(1 - p)^NRH ≤ 10⁻¹⁵`, i.e. `p = 1 - 10^(-15/NRH)`.
///
/// PARA keeps no state, so its processor-side storage is zero; its cost is the
/// preventive refreshes themselves, which grow quickly as `NRH` decreases.
#[derive(Debug, Clone)]
pub struct Para {
    probability: f64,
    geometry: DramGeometry,
    rng: SmallRng,
    stats: MitigationStats,
}

impl Para {
    /// Creates PARA for RowHammer threshold `nrh`, deterministic under `seed`.
    pub fn new(nrh: u64, seed: u64, geometry: DramGeometry) -> Self {
        Para {
            probability: Self::probability_for(nrh),
            geometry,
            rng: SmallRng::seed_from_u64(seed),
            stats: MitigationStats::default(),
        }
    }

    /// The per-activation refresh probability for a given RowHammer threshold,
    /// targeting a 10⁻¹⁵ failure probability.
    pub fn probability_for(nrh: u64) -> f64 {
        let exponent = -15.0 / nrh as f64;
        1.0 - 10f64.powf(exponent)
    }

    /// The configured refresh probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl RowHammerMitigation for Para {
    fn name(&self) -> &str {
        "PARA"
    }

    fn on_activation(&mut self, addr: &DramAddr, _now: Cycle, weight: u64) -> MitigationResponse {
        self.stats.activations_observed += weight;
        // A weight > 1 (RowPress-adjusted) activation gets `weight` independent chances.
        let mut refresh = false;
        for _ in 0..weight {
            if self.rng.gen_bool(self.probability) {
                refresh = true;
            }
        }
        if refresh {
            self.stats.aggressors_identified += 1;
            let victims = addr.victim_rows(&self.geometry);
            self.stats.preventive_refreshes += victims.len() as u64;
            MitigationResponse::refresh(victims)
        } else {
            MitigationResponse::none()
        }
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

    fn addr(row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    #[test]
    fn probability_increases_as_threshold_decreases() {
        let p1k = Para::probability_for(1000);
        let p125 = Para::probability_for(125);
        assert!(p125 > p1k);
        // ln(1e-15) ≈ -34.5, so p ≈ 34.5 / NRH for large NRH.
        assert!((p1k - 0.0339).abs() < 0.005, "p1k = {p1k}");
        assert!((p125 - 0.24).abs() < 0.03, "p125 = {p125}");
    }

    #[test]
    fn refresh_rate_matches_probability() {
        let g = DramGeometry::paper_default();
        let mut para = Para::new(500, 42, g);
        let n = 200_000u64;
        let mut triggered = 0u64;
        for i in 0..n {
            let r = para.on_activation(&addr((i % 1000) as usize + 1), i, 1);
            if !r.refresh_victims.is_empty() {
                triggered += 1;
            }
        }
        let rate = triggered as f64 / n as f64;
        let expected = Para::probability_for(500);
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs expected {expected}");
    }

    #[test]
    fn refreshes_target_adjacent_rows() {
        let g = DramGeometry::paper_default();
        let mut para = Para::new(125, 7, g);
        for i in 0..10_000u64 {
            let r = para.on_activation(&addr(500), i, 1);
            for v in &r.refresh_victims {
                assert!(v.row == 499 || v.row == 501);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = DramGeometry::paper_default();
        let mut a = Para::new(250, 99, g.clone());
        let mut b = Para::new(250, 99, g);
        for i in 0..5_000u64 {
            assert_eq!(a.on_activation(&addr(10), i, 1), b.on_activation(&addr(10), i, 1));
        }
    }

    #[test]
    fn stateless_storage() {
        let g = DramGeometry::paper_default();
        assert_eq!(Para::new(125, 0, g).storage_bits(), 0);
    }
}
