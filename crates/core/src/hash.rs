//! The hash-function family used to index the Counter Table.
//!
//! The paper (§7.2.1) uses "simple hash functions that consist of bit-shift and
//! bit-mask operations, which are easy to implement in hardware". This module
//! provides a deterministic family of such functions: each function multiplies
//! the row identifier by a distinct odd constant, folds in a shifted copy, and
//! masks to the counter-row width. Every function of the family is independent
//! of the others and uniform over its output range, which is what the
//! Count-Min-Sketch error bound assumes.

use serde::Serialize;

/// A family of `k` hardware-friendly hash functions mapping row ids to
/// `[0, columns)` where `columns` is a power of two.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HashFamily {
    columns: usize,
    functions: usize,
    seed: u64,
}

/// Odd multipliers for the first eight functions (Knuth-style multiplicative hashing).
const MULTIPLIERS: [u64; 8] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
    0x1050_43E3_43B3_5299,
    0x2545_F491_4F6C_DD1D,
    0x9E6C_9593_8FB2_1D4B,
    0xD6E8_FEB8_6659_FD93,
];

/// Per-function shift amounts that decorrelate the folded copy.
const SHIFTS: [u32; 8] = [7, 13, 17, 23, 29, 31, 37, 41];

impl HashFamily {
    /// Creates a family of `functions` hash functions onto `columns` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is not a power of two or `functions` exceeds 8 (the
    /// largest configuration explored in the paper's Figure 6 uses 8).
    pub fn new(columns: usize, functions: usize, seed: u64) -> Self {
        assert!(columns.is_power_of_two(), "column count must be a power of two");
        assert!(
            (1..=MULTIPLIERS.len()).contains(&functions),
            "between 1 and {} hash functions are supported",
            MULTIPLIERS.len()
        );
        HashFamily { columns, functions, seed }
    }

    /// Number of buckets each function maps onto.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of functions in the family.
    pub fn functions(&self) -> usize {
        self.functions
    }

    /// Applies function `index` to `item`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.functions()`.
    pub fn hash(&self, index: usize, item: u64) -> usize {
        assert!(index < self.functions, "hash index out of range");
        self.hash_unchecked(index, item)
    }

    /// The assert-free kernel behind [`hash`](Self::hash). Private: every
    /// internal caller guarantees `index < self.functions` by construction,
    /// so the hot path carries no per-index bound check.
    #[inline(always)]
    fn hash_unchecked(&self, index: usize, item: u64) -> usize {
        let x = item.wrapping_add(self.seed);
        let mixed = x.wrapping_mul(MULTIPLIERS[index]) ^ (x >> SHIFTS[index]);
        // Take the high bits of the product — the well-mixed ones — then mask.
        ((mixed >> 17) as usize) & (self.columns - 1)
    }

    /// All `K` hashes of `item` in one fused pass. `K` is a compile-time
    /// constant so the multiply/shift/mask loop fully unrolls and
    /// auto-vectorizes; the mixed value `x` and the column mask are hoisted
    /// out of the loop once instead of being recomputed per function.
    #[inline(always)]
    fn fill_exact<const K: usize>(&self, item: u64, buf: &mut [usize; MAX_FUNCTIONS]) {
        let x = item.wrapping_add(self.seed);
        let mask = self.columns - 1;
        for index in 0..K {
            let mixed = x.wrapping_mul(MULTIPLIERS[index]) ^ (x >> SHIFTS[index]);
            buf[index] = ((mixed >> 17) as usize) & mask;
        }
    }

    /// Fills `buf[..functions]` with `item`'s bucket per function and returns
    /// the function count — the fused kernel behind [`group`](Self::group)
    /// and the Count-Min-Sketch hot loops. The common arities of the paper's
    /// sweeps (k = 4 of the default configuration, k = 8 of Figure 6's
    /// largest point) dispatch to fixed-arity specializations.
    pub fn fill_group(&self, item: u64, buf: &mut [usize; MAX_FUNCTIONS]) -> usize {
        match self.functions {
            4 => self.fill_exact::<4>(item, buf),
            8 => self.fill_exact::<8>(item, buf),
            k => {
                for (index, slot) in buf.iter_mut().enumerate().take(k) {
                    *slot = self.hash_unchecked(index, item);
                }
            }
        }
        self.functions
    }

    /// The full index group for `item`: one bucket per function.
    ///
    /// Returns an inline fixed-size buffer (the family never exceeds
    /// [`MAX_FUNCTIONS`] functions), so the per-activation hot path of the
    /// trackers computes index groups without heap allocation. The result
    /// dereferences to a slice.
    pub fn group(&self, item: u64) -> IndexGroup {
        let mut buf = [0usize; MAX_FUNCTIONS];
        let len = self.fill_group(item, &mut buf);
        IndexGroup { buf, len }
    }
}

/// Largest supported hash-function count (Figure 6 explores up to 8).
pub const MAX_FUNCTIONS: usize = MULTIPLIERS.len();

/// An allocation-free group of bucket indices, one per hash function.
///
/// Produced by [`HashFamily::group`]; behaves like a `&[usize]` via `Deref`.
#[derive(Debug, Clone, Copy)]
pub struct IndexGroup {
    buf: [usize; MAX_FUNCTIONS],
    len: usize,
}

impl std::ops::Deref for IndexGroup {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.buf[..self.len]
    }
}

impl<'a> IntoIterator for &'a IndexGroup {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.buf[..self.len].iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic_and_in_range() {
        let f = HashFamily::new(512, 4, 42);
        for item in 0..10_000u64 {
            for i in 0..4 {
                let h = f.hash(i, item);
                assert!(h < 512);
                assert_eq!(h, f.hash(i, item));
            }
        }
    }

    #[test]
    fn different_functions_disagree() {
        let f = HashFamily::new(512, 4, 42);
        let mut disagreements = 0;
        for item in 0..1000u64 {
            let g = f.group(item);
            if g.iter().collect::<std::collections::HashSet<_>>().len() > 1 {
                disagreements += 1;
            }
        }
        // Almost all items should be mapped to distinct buckets by distinct functions.
        assert!(disagreements > 950, "only {disagreements} items had distinct buckets");
    }

    #[test]
    fn group_matches_individual_hashes_and_needs_no_heap() {
        let f = HashFamily::new(256, 8, 9);
        let g = f.group(1234);
        assert_eq!(g.len(), 8);
        for (i, &bucket) in g.iter().enumerate() {
            assert_eq!(bucket, f.hash(i, 1234));
        }
        // The buffer is a Copy value; slices and iteration work through Deref.
        let copied = g;
        assert_eq!(&copied[..], &g[..]);
        assert_eq!((&g).into_iter().count(), 8);
    }

    #[test]
    fn fused_fill_matches_individual_hashes_for_every_arity() {
        // Covers both fixed-arity specializations (k = 4, k = 8) and the
        // dynamic fallback for every other function count.
        for k in 1..=MAX_FUNCTIONS {
            let f = HashFamily::new(1024, k, 0xFEED ^ k as u64);
            for item in (0..5_000u64).map(|i| i.wrapping_mul(0x9E37_79B9)) {
                let mut buf = [0usize; MAX_FUNCTIONS];
                assert_eq!(f.fill_group(item, &mut buf), k);
                for (index, &bucket) in buf.iter().enumerate().take(k) {
                    assert_eq!(bucket, f.hash(index, item), "k={k} index={index} item={item}");
                }
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let f = HashFamily::new(256, 1, 7);
        let mut histogram = vec![0u32; 256];
        let n = 256 * 200;
        for item in 0..n as u64 {
            histogram[f.hash(0, item)] += 1;
        }
        let expected = 200.0;
        let max = *histogram.iter().max().unwrap() as f64;
        let min = *histogram.iter().min().unwrap() as f64;
        assert!(max < expected * 1.5, "max bucket {max}");
        assert!(min > expected * 0.5, "min bucket {min}");
    }

    #[test]
    fn seeds_produce_different_mappings() {
        let a = HashFamily::new(512, 2, 1);
        let b = HashFamily::new(512, 2, 2);
        let differing = (0..1000u64).filter(|&x| a.hash(0, x) != b.hash(0, x)).count();
        assert!(differing > 900);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_columns_rejected() {
        let _ = HashFamily::new(500, 4, 0);
    }

    #[test]
    #[should_panic(expected = "hash functions")]
    fn too_many_functions_rejected() {
        let _ = HashFamily::new(512, 9, 0);
    }
}
