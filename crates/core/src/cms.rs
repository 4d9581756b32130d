//! The Count-Min Sketch (Cormode & Muthukrishnan, 2005) with conservative updates.
//!
//! `increment` and `raise_group_to` run once per simulated row activation, so
//! they are written allocation-free: counter indices live in an inline
//! fixed-size buffer ([`MAX_FUNCTIONS`] entries) instead of a heap `Vec`.

use crate::hash::{HashFamily, MAX_FUNCTIONS};
use serde::Serialize;

/// A Count-Min Sketch: a `k × m` array of counters indexed by `k` hash
/// functions, one per counter row (§2.3 of the CoMeT paper).
///
/// Two properties make it suitable for secure RowHammer tracking:
///
/// 1. **No underestimation.** Every counter in an item's counter group is
///    incremented (or, with conservative updates, at least the minimum ones),
///    and counters are only reset globally, so `estimate(x) ≥ true_count(x)`
///    always holds between resets.
/// 2. **Bounded overestimation.** With enough counters per hash function and
///    enough hash functions, collisions rarely affect *all* counters of a
///    group simultaneously, so the minimum stays close to the true count.
///
/// ```rust
/// use comet_core::CountMinSketch;
/// let mut cms = CountMinSketch::new(4, 512, 0, None);
/// for _ in 0..10 { cms.increment(1234, 1); }
/// assert!(cms.estimate(1234) >= 10);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct CountMinSketch {
    hashes: HashFamily,
    /// Counters laid out row-major: `counters[row * columns + column]`.
    counters: Vec<u32>,
    /// Optional saturation cap (CoMeT saturates counters at `NPR`).
    cap: Option<u32>,
    /// Whether updates are conservative (only minimum counters incremented).
    conservative: bool,
}

impl CountMinSketch {
    /// Creates a sketch with `rows` hash functions × `columns` counters each.
    ///
    /// `cap` optionally saturates every counter at the given value. Updates use
    /// the conservative-update optimization (CMS-CU); construct with
    /// [`with_conservative_updates`](Self::with_conservative_updates) to control it explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is not a power of two or `rows` is not in `1..=8`.
    pub fn new(rows: usize, columns: usize, seed: u64, cap: Option<u32>) -> Self {
        Self::with_conservative_updates(rows, columns, seed, cap, true)
    }

    /// Creates a sketch and explicitly selects plain or conservative updates.
    pub fn with_conservative_updates(
        rows: usize,
        columns: usize,
        seed: u64,
        cap: Option<u32>,
        conservative: bool,
    ) -> Self {
        let hashes = HashFamily::new(columns, rows, seed);
        CountMinSketch { counters: vec![0; rows * columns], hashes, cap, conservative }
    }

    /// Number of hash functions (counter rows).
    pub fn rows(&self) -> usize {
        self.hashes.functions()
    }

    /// Counters per hash function.
    pub fn columns(&self) -> usize {
        self.hashes.columns()
    }

    /// Total number of counters.
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }

    /// The saturation cap, if any.
    pub fn cap(&self) -> Option<u32> {
        self.cap
    }

    /// Computes `item`'s counter-group indices into an inline buffer and
    /// returns `(buffer, rows)` — the allocation-free, fused form used on the
    /// per-activation hot path (all hashes in one pass, then the row-major
    /// offsets in a second fixed-arity pass over the same inline buffer).
    #[inline(always)]
    fn index_buf(&self, item: u64) -> ([usize; MAX_FUNCTIONS], usize) {
        let mut buf = [0usize; MAX_FUNCTIONS];
        let rows = self.hashes.fill_group(item, &mut buf);
        let columns = self.hashes.columns();
        for (r, slot) in buf.iter_mut().enumerate().take(rows) {
            *slot += r * columns;
        }
        (buf, rows)
    }

    /// Estimated count of `item`: the minimum over its counter group.
    pub fn estimate(&self, item: u64) -> u64 {
        let (indices, rows) = self.index_buf(item);
        indices[..rows].iter().map(|&i| self.counters[i] as u64).min().unwrap_or(0)
    }

    /// Adds `weight` occurrences of `item` and returns the updated estimate.
    ///
    /// With conservative updates only the counters equal to the group minimum
    /// are incremented; otherwise every counter of the group is incremented.
    /// Counters saturate at the cap if one was configured.
    ///
    /// One fused pass: the counter group is gathered into an inline buffer,
    /// the group minimum, the branch-free masked conservative update, the
    /// saturating cap, and the updated estimate are all computed over that
    /// buffer, and the new values are scattered back. Each counter of a group
    /// lives in a distinct row, so the gather/scatter cannot alias.
    pub fn increment(&mut self, item: u64, weight: u64) -> u64 {
        let (indices, rows) = self.index_buf(item);
        let indices = &indices[..rows];
        let mut values = [0u32; MAX_FUNCTIONS];
        for (value, &i) in values.iter_mut().zip(indices) {
            *value = self.counters[i];
        }
        let values = &mut values[..rows];
        let min = values.iter().copied().min().unwrap_or(0);
        let weight = weight.min(u32::MAX as u64) as u32;
        // Uncapped sketches clamp against u32::MAX, which `saturating_add`
        // already guarantees — one unconditional `min` serves both cases.
        let cap = self.cap.unwrap_or(u32::MAX);
        let update_all = !self.conservative;
        let mut updated_min = u32::MAX;
        for (value, &i) in values.iter_mut().zip(indices) {
            // `mask` is all-ones for counters that take the increment (every
            // counter under plain updates, the group minima under CU) and
            // zero otherwise; adding `weight & mask` updates without a
            // branch. Clamping unselected counters is a no-op: no counter
            // ever exceeds the cap.
            let mask = ((update_all || *value == min) as u32).wrapping_neg();
            let next = value.saturating_add(weight & mask).min(cap);
            self.counters[i] = next;
            updated_min = updated_min.min(next);
        }
        if rows == 0 {
            return 0;
        }
        updated_min as u64
    }

    /// Fused form of the CoMeT per-activation Counter Table update: one walk
    /// over `item`'s counter group that either applies the conservative
    /// increment (when the updated estimate stays below `threshold`) or
    /// raises the whole group to `threshold` (the aggressor path, which pins
    /// shared counters so they are never lowered).
    ///
    /// Returns `(pre_estimate, crossed)` where `pre_estimate` is the group
    /// minimum *before* the update and `crossed` is whether
    /// `pre_estimate + weight` reached `threshold`. Bit-identical to
    /// `estimate` + (`increment` | `raise_group_to`), in half the walks.
    pub fn increment_below(&mut self, item: u64, weight: u64, threshold: u32) -> (u64, bool) {
        let (indices, rows) = self.index_buf(item);
        let indices = &indices[..rows];
        let mut values = [0u32; MAX_FUNCTIONS];
        for (value, &i) in values.iter_mut().zip(indices) {
            *value = self.counters[i];
        }
        let values = &mut values[..rows];
        let min = values.iter().copied().min().unwrap_or(0);
        if rows == 0 {
            return (0, weight >= threshold as u64);
        }
        let cap = self.cap.unwrap_or(u32::MAX);
        if (min as u64) + weight < threshold as u64 {
            let weight = weight.min(u32::MAX as u64) as u32;
            let update_all = !self.conservative;
            for (value, &i) in values.iter_mut().zip(indices) {
                let mask = ((update_all || *value == min) as u32).wrapping_neg();
                self.counters[i] = value.saturating_add(weight & mask).min(cap);
            }
            (min as u64, false)
        } else {
            let raise = threshold.min(cap);
            for &i in indices {
                self.counters[i] = self.counters[i].max(raise);
            }
            (min as u64, true)
        }
    }

    /// Sets every counter in `item`'s group to at least `value` (used by CoMeT to
    /// pin an aggressor's group at `NPR` after a preventive refresh).
    pub fn raise_group_to(&mut self, item: u64, value: u32) {
        let value = match self.cap {
            Some(cap) => value.min(cap),
            None => value,
        };
        let (indices, rows) = self.index_buf(item);
        for &i in &indices[..rows] {
            // Branch-free form of `if counters[i] < value { counters[i] = value }`.
            self.counters[i] = self.counters[i].max(value);
        }
    }

    /// Resets every counter to zero.
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
    }

    /// Fraction of counters that have reached the saturation cap (0 when uncapped).
    pub fn saturation_fraction(&self) -> f64 {
        match self.cap {
            None => 0.0,
            Some(cap) => {
                let saturated = self.counters.iter().filter(|&&c| c >= cap).count();
                saturated as f64 / self.counters.len() as f64
            }
        }
    }

    /// Storage in bits assuming each counter is just wide enough for the cap
    /// (or 32 bits when uncapped).
    pub fn storage_bits(&self) -> u64 {
        let bits_per_counter = match self.cap {
            Some(cap) if cap > 0 => 32 - cap.leading_zeros(),
            _ => 32,
        } as u64;
        self.counters.len() as u64 * bits_per_counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn exercise(cms: &mut CountMinSketch, items: &[(u64, u64)]) -> HashMap<u64, u64> {
        let mut truth = HashMap::new();
        for &(item, weight) in items {
            cms.increment(item, weight);
            *truth.entry(item).or_insert(0) += weight;
        }
        truth
    }

    #[test]
    fn never_underestimates_plain_or_conservative() {
        for conservative in [false, true] {
            let mut cms = CountMinSketch::with_conservative_updates(4, 128, 3, None, conservative);
            let items: Vec<(u64, u64)> = (0..20_000u64).map(|i| ((i * 31) % 700, 1)).collect();
            let truth = exercise(&mut cms, &items);
            for (item, count) in truth {
                assert!(cms.estimate(item) >= count, "conservative={conservative}: underestimate for {item}");
            }
        }
    }

    #[test]
    fn exact_when_sparse() {
        let mut cms = CountMinSketch::new(4, 512, 9, None);
        for _ in 0..100 {
            cms.increment(7, 1);
        }
        assert_eq!(cms.estimate(7), 100);
        assert_eq!(cms.estimate(8), 0);
    }

    #[test]
    fn conservative_update_overestimates_no_more_than_plain() {
        let items: Vec<(u64, u64)> =
            (0..50_000u64).map(|i| ((i.wrapping_mul(2654435761)) % 3000, 1)).collect();
        let mut plain = CountMinSketch::with_conservative_updates(4, 256, 11, None, false);
        let mut cu = CountMinSketch::with_conservative_updates(4, 256, 11, None, true);
        let truth = exercise(&mut plain, &items);
        exercise(&mut cu, &items);
        let mut plain_err = 0u64;
        let mut cu_err = 0u64;
        for (&item, &count) in &truth {
            plain_err += plain.estimate(item) - count;
            cu_err += cu.estimate(item) - count;
        }
        assert!(cu_err <= plain_err, "CU error {cu_err} should not exceed plain error {plain_err}");
        assert!(cu_err < plain_err, "CU should strictly reduce total error under heavy collision");
    }

    #[test]
    fn increment_below_matches_split_estimate_and_update() {
        for conservative in [false, true] {
            for cap in [None, Some(250u32)] {
                let mut fused = CountMinSketch::with_conservative_updates(4, 128, 3, cap, conservative);
                let mut split = CountMinSketch::with_conservative_updates(4, 128, 3, cap, conservative);
                let threshold = 250u32;
                for i in 0..30_000u64 {
                    let item = (i.wrapping_mul(2654435761)) % 700;
                    let weight = 1 + i % 4;
                    let (pre, crossed) = fused.increment_below(item, weight, threshold);
                    let split_pre = split.estimate(item);
                    let split_crossed = split_pre + weight >= threshold as u64;
                    if split_crossed {
                        split.raise_group_to(item, threshold);
                    } else {
                        split.increment(item, weight);
                    }
                    assert_eq!((pre, crossed), (split_pre, split_crossed), "item {item} at step {i}");
                    assert_eq!(fused.estimate(item), split.estimate(item), "item {item} at step {i}");
                }
                assert_eq!(fused.counters, split.counters, "conservative={conservative} cap={cap:?}");
            }
        }
    }

    #[test]
    fn cap_saturates_counters() {
        let mut cms = CountMinSketch::new(2, 64, 5, Some(31));
        for _ in 0..100 {
            cms.increment(3, 1);
        }
        assert_eq!(cms.estimate(3), 31);
        assert!(cms.saturation_fraction() > 0.0);
    }

    #[test]
    fn raise_group_pins_estimate() {
        let mut cms = CountMinSketch::new(4, 128, 5, Some(250));
        cms.increment(42, 3);
        cms.raise_group_to(42, 250);
        assert_eq!(cms.estimate(42), 250);
        // Raising never lowers an existing higher counter.
        cms.raise_group_to(42, 10);
        assert_eq!(cms.estimate(42), 250);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cms = CountMinSketch::new(4, 128, 5, None);
        for i in 0..1000u64 {
            cms.increment(i % 64, 1);
        }
        cms.clear();
        for i in 0..64u64 {
            assert_eq!(cms.estimate(i), 0);
        }
    }

    #[test]
    fn storage_matches_geometry() {
        let cms = CountMinSketch::new(4, 512, 0, Some(250));
        // 2048 counters × 8 bits (250 fits in 8 bits).
        assert_eq!(cms.counter_count(), 2048);
        assert_eq!(cms.storage_bits(), 2048 * 8);
    }

    #[test]
    fn more_counters_reduce_overestimation() {
        let items: Vec<(u64, u64)> = (0..30_000u64).map(|i| ((i * 17) % 2000, 1)).collect();
        let mut small = CountMinSketch::new(4, 64, 1, None);
        let mut large = CountMinSketch::new(4, 1024, 1, None);
        let truth = exercise(&mut small, &items);
        exercise(&mut large, &items);
        let err = |cms: &CountMinSketch| -> u64 { truth.iter().map(|(&i, &c)| cms.estimate(i) - c).sum() };
        assert!(err(&large) < err(&small));
    }
}
