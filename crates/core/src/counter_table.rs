//! The Counter Table (CT): CoMeT's hash-based activation counters for one bank.

use crate::cms::CountMinSketch;
use serde::Serialize;

/// The Counter Table tracks the activation count of every row of one DRAM bank
/// using a Count-Min Sketch with conservative updates whose counters saturate
/// at the preventive refresh threshold `NPR` (§4 of the paper).
///
/// Counters are *never* decremented or selectively reset — doing so could
/// underestimate another row that shares a counter. They are only cleared all
/// at once, at periodic counter resets or after an early preventive refresh.
#[derive(Debug, Clone, Serialize)]
pub struct CounterTable {
    sketch: CountMinSketch,
    npr: u32,
}

impl CounterTable {
    /// Creates a Counter Table with `n_hash` hash functions, `n_counters`
    /// counters per hash function, saturating at `npr`.
    pub fn new(n_hash: usize, n_counters: usize, npr: u32, seed: u64) -> Self {
        CounterTable { sketch: CountMinSketch::new(n_hash, n_counters, seed, Some(npr)), npr }
    }

    /// The preventive refresh threshold the counters saturate at.
    pub fn npr(&self) -> u32 {
        self.npr
    }

    /// Number of hash functions.
    pub fn n_hash(&self) -> usize {
        self.sketch.rows()
    }

    /// Counters per hash function.
    pub fn n_counters(&self) -> usize {
        self.sketch.columns()
    }

    /// Minimum counter value of `row`'s counter group (`Min_Ctr` in the paper).
    pub fn estimate(&self, row: u64) -> u64 {
        self.sketch.estimate(row)
    }

    /// Whether `row`'s counter group is already saturated at `NPR`, which marks
    /// the row as a previously identified aggressor (used to classify RAT
    /// capacity misses, §4.2).
    pub fn is_saturated(&self, row: u64) -> bool {
        self.estimate(row) >= self.npr as u64
    }

    /// `(estimate, is_saturated)` from one sketch walk — the fused probe the
    /// per-activation path uses instead of calling [`estimate`](Self::estimate)
    /// and [`is_saturated`](Self::is_saturated) separately (each walks the
    /// full counter group).
    #[inline(always)]
    pub fn probe(&self, row: u64) -> (u64, bool) {
        let estimate = self.sketch.estimate(row);
        (estimate, estimate >= self.npr as u64)
    }

    /// Records `weight` activations of `row` with a conservative update and
    /// returns the updated estimate.
    pub fn record_activation(&mut self, row: u64, weight: u64) -> u64 {
        self.sketch.increment(row, weight)
    }

    /// The whole CT side of one activation in a single counter-group walk:
    /// below `NPR` the activation is recorded (conservative update), at or
    /// above `NPR` the group is pinned at `NPR` instead (the caller's
    /// aggressor path — equivalent to [`saturate`](Self::saturate)).
    ///
    /// Returns `(estimate_before, is_aggressor)`; `estimate_before ≥ NPR`
    /// tells the caller the row was a previously identified aggressor
    /// (the RAT capacity-miss classification of §4.2).
    #[inline(always)]
    pub fn record_or_saturate(&mut self, row: u64, weight: u64) -> (u64, bool) {
        self.sketch.increment_below(row, weight, self.npr)
    }

    /// Pins `row`'s counter group at `NPR` after its victims were preventively
    /// refreshed, so the shared counters are never lowered.
    pub fn saturate(&mut self, row: u64) {
        self.sketch.raise_group_to(row, self.npr);
    }

    /// Clears every counter (periodic reset or early preventive refresh).
    pub fn reset(&mut self) {
        self.sketch.clear();
    }

    /// Fraction of counters currently saturated at `NPR`.
    pub fn saturation_fraction(&self) -> f64 {
        self.sketch.saturation_fraction()
    }

    /// Storage for this table in bits (counters sized for `NPR`).
    pub fn storage_bits(&self) -> u64 {
        self.sketch.storage_bits()
    }

    /// Borrow of the underlying sketch (for false-positive-rate experiments).
    pub fn sketch(&self) -> &CountMinSketch {
        &self.sketch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_dimensions() {
        // 4 hash functions × 512 counters, NPR = 250 at NRH = 1K with k = 3.
        let ct = CounterTable::new(4, 512, 250, 0);
        assert_eq!(ct.n_hash(), 4);
        assert_eq!(ct.n_counters(), 512);
        assert_eq!(ct.npr(), 250);
        // 2048 counters × 8 bits = 2 KiB per bank, 64 KiB per 32-bank channel —
        // matching the CT (SRAM) row of Table 4 at NRH = 1K.
        assert_eq!(ct.storage_bits(), 2048 * 8);
    }

    #[test]
    fn estimate_never_underestimates_under_collisions() {
        let mut ct = CounterTable::new(2, 64, 1000, 7);
        let mut truth = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            let row = (i * 13) % 500;
            ct.record_activation(row, 1);
            *truth.entry(row).or_insert(0u64) += 1;
        }
        for (row, count) in truth {
            assert!(ct.estimate(row) >= count.min(1000));
        }
    }

    #[test]
    fn saturation_marks_prior_aggressors() {
        let mut ct = CounterTable::new(4, 512, 31, 0);
        assert!(!ct.is_saturated(77));
        for _ in 0..31 {
            ct.record_activation(77, 1);
        }
        assert!(ct.is_saturated(77));
        // A different row with disjoint counters is not saturated.
        assert!(!ct.is_saturated(78));
    }

    #[test]
    fn saturate_is_idempotent_and_never_lowers() {
        let mut ct = CounterTable::new(4, 512, 250, 0);
        ct.record_activation(5, 10);
        ct.saturate(5);
        assert_eq!(ct.estimate(5), 250);
        ct.saturate(5);
        assert_eq!(ct.estimate(5), 250);
    }

    #[test]
    fn reset_clears_all_counters() {
        let mut ct = CounterTable::new(4, 512, 250, 0);
        for row in 0..1000u64 {
            ct.record_activation(row, 5);
        }
        ct.reset();
        assert_eq!(ct.saturation_fraction(), 0.0);
        for row in 0..1000u64 {
            assert_eq!(ct.estimate(row), 0);
        }
    }
}
