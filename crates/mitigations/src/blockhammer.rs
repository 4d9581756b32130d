//! BlockHammer: counting-Bloom-filter blacklisting with activation throttling
//! (Yağlıkçı et al., HPCA 2021).

use crate::hashers::IntMap;
use crate::stats::MitigationStats;
use crate::traits::{MitigationResponse, RowHammerMitigation};
use comet_dram::{Cycle, DramAddr, DramGeometry, TimingParams};
use serde::Serialize;

/// A counting Bloom filter: `hashes` hash functions index a single shared
/// array of `counters` saturating counters.
///
/// In contrast to CoMeT's Counter Table — which partitions the counter array
/// into one row per hash function — BlockHammer's hash functions can map a row
/// to *any* counter in the shared array, which increases the collision (false
/// positive) rate for the same storage budget. Figure 17 of the CoMeT paper
/// compares exactly these two organizations; this type is that comparison's
/// BlockHammer side.
/// Counters are 32 bits wide: hardware CBF counters are a handful of bits
/// (sized for the blacklist threshold), and halving the modeled arrays keeps
/// a whole channel's filters cache-resident on the simulation hot path.
/// Counts saturate at `u32::MAX`, unreachable between epoch clears for any
/// physically meaningful activation stream.
#[derive(Debug, Clone, Serialize)]
pub struct CountingBloomFilter {
    counters: Vec<u32>,
    hashes: usize,
    seed: u64,
}

impl CountingBloomFilter {
    /// Creates a filter with `counters` counters shared by `hashes` hash functions.
    pub fn new(counters: usize, hashes: usize, seed: u64) -> Self {
        assert!(counters.is_power_of_two(), "counter count must be a power of two");
        assert!(hashes >= 1, "at least one hash function is required");
        CountingBloomFilter { counters: vec![0; counters], hashes, seed }
    }

    fn index(&self, item: u64, hash: usize) -> usize {
        // A small xorshift-multiply hash family; any counter can be selected by any hash.
        let mut x =
            item.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(hash as u64 + 1)).wrapping_add(self.seed);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 29;
        (x as usize) & (self.counters.len() - 1)
    }

    /// Inserts `item`, incrementing every counter of its group.
    ///
    /// This is the plain counting-Bloom-filter update BlockHammer uses. Unlike
    /// CoMeT's Count-Min Sketch with conservative updates, *all* counters grow
    /// on every insertion, which makes the filter's overestimates (and thus its
    /// false positive rate) larger under collisions — the algorithmic difference
    /// Figure 17 of the CoMeT paper highlights.
    pub fn insert(&mut self, item: u64, weight: u64) {
        let weight = weight.min(u32::MAX as u64) as u32;
        for h in 0..self.hashes {
            let i = self.index(item, h);
            self.counters[i] = self.counters[i].saturating_add(weight);
        }
    }

    /// Estimated count for `item` (never an underestimate).
    pub fn estimate(&self, item: u64) -> u64 {
        (0..self.hashes).map(|h| self.counters[self.index(item, h)] as u64).min().unwrap_or(0)
    }

    /// Inserts `item` and returns its updated estimate, computing each hash
    /// index once instead of once for the insert and again for the estimate.
    ///
    /// Two passes over an inline index buffer: unlike CoMeT's sketch, every
    /// hash function selects from the *same* shared counter array, so two
    /// hashes of one item may alias onto one counter — the estimate must be
    /// read after all increments have landed, never captured mid-update.
    pub fn insert_and_estimate(&mut self, item: u64, weight: u64) -> u64 {
        const MAX_INLINE: usize = 8;
        if self.hashes > MAX_INLINE {
            self.insert(item, weight);
            return self.estimate(item);
        }
        let weight = weight.min(u32::MAX as u64) as u32;
        let mut indices = [0usize; MAX_INLINE];
        for (h, slot) in indices.iter_mut().enumerate().take(self.hashes) {
            let i = self.index(item, h);
            self.counters[i] = self.counters[i].saturating_add(weight);
            *slot = i;
        }
        indices[..self.hashes].iter().map(|&i| self.counters[i] as u64).min().unwrap_or(0)
    }

    /// Clears all counters.
    pub fn clear(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = 0);
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the filter has zero counters (never true for a constructed filter).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// Configuration of the BlockHammer mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHammerConfig {
    /// RowHammer threshold to defend against.
    pub nrh: u64,
    /// Counters per counting Bloom filter (per bank).
    pub cbf_counters: usize,
    /// Hash functions per filter.
    pub cbf_hashes: usize,
    /// Estimated count at which a row is blacklisted.
    pub blacklist_threshold: u64,
    /// Epoch after which the active and shadow filters swap and the old one clears.
    pub epoch: Cycle,
    /// Minimum spacing enforced between activations of a blacklisted row.
    pub throttle_interval: Cycle,
}

impl BlockHammerConfig {
    /// BlockHammer sized for `nrh` following its paper: dual 1 Ki-counter CBFs with
    /// 4 hash functions per bank, blacklist threshold at half the per-epoch budget,
    /// epoch = half a refresh window, and a throttle that caps a blacklisted row to
    /// `nrh` activations per refresh window.
    pub fn for_threshold(nrh: u64, timing: &TimingParams) -> Self {
        BlockHammerConfig {
            nrh,
            cbf_counters: 1024,
            cbf_hashes: 4,
            blacklist_threshold: (nrh / 2).max(1),
            epoch: timing.t_refw / 2,
            throttle_interval: timing.t_refw / nrh.max(1),
        }
    }

    /// Storage bits per bank (two filters).
    pub fn storage_bits_per_bank(&self) -> u64 {
        let counter_bits = (64 - self.blacklist_threshold.leading_zeros()) as u64;
        2 * self.cbf_counters as u64 * counter_bits
    }
}

/// The BlockHammer mechanism protecting one channel.
#[derive(Debug, Clone)]
pub struct BlockHammer {
    config: BlockHammerConfig,
    geometry: DramGeometry,
    /// Two time-interleaved filters per bank: `filters[bank] = [active, shadow]`.
    filters: Vec<[CountingBloomFilter; 2]>,
    /// Which filter of the pair is currently active per bank.
    active: usize,
    next_epoch: Cycle,
    /// Last permitted activation time per blacklisted row, keyed by the
    /// packed `(bank << 32) | row` pair (one u64 through the hasher instead
    /// of a two-usize tuple on every blacklisted activation).
    last_allowed: IntMap<u64, Cycle>,
    stats: MitigationStats,
}

impl BlockHammer {
    /// Creates BlockHammer for one channel of `geometry`.
    pub fn new(config: BlockHammerConfig, geometry: DramGeometry, seed: u64) -> Self {
        let banks = geometry.banks_per_channel();
        let filters = (0..banks)
            .map(|b| {
                [
                    CountingBloomFilter::new(config.cbf_counters, config.cbf_hashes, seed ^ (b as u64)),
                    CountingBloomFilter::new(
                        config.cbf_counters,
                        config.cbf_hashes,
                        seed ^ (b as u64) ^ 0xDEAD,
                    ),
                ]
            })
            .collect();
        BlockHammer {
            next_epoch: config.epoch,
            config,
            geometry,
            filters,
            active: 0,
            last_allowed: IntMap::default(),
            stats: MitigationStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BlockHammerConfig {
        &self.config
    }

    fn maybe_rotate(&mut self, now: Cycle) {
        if now >= self.next_epoch {
            // The previously active filter becomes the shadow and is cleared.
            let old = self.active;
            self.active ^= 1;
            for pair in &mut self.filters {
                pair[old].clear();
            }
            self.last_allowed.clear();
            self.stats.periodic_resets += 1;
            while self.next_epoch <= now {
                self.next_epoch += self.config.epoch;
            }
        }
    }
}

impl RowHammerMitigation for BlockHammer {
    fn name(&self) -> &str {
        "BlockHammer"
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        self.maybe_rotate(now);
        self.stats.activations_observed += weight;
        let bank = addr.flat_bank(&self.geometry);
        let row = addr.row as u64;
        let pair = &mut self.filters[bank];
        // The row's exposure is the maximum estimate across both
        // time-interleaved filters; the active filter's estimate comes out of
        // the fused insert, so only the shadow filter needs a separate probe.
        let inserted = pair[self.active].insert_and_estimate(row, weight);
        let estimate = inserted.max(pair[self.active ^ 1].estimate(row));
        if estimate < self.config.blacklist_threshold {
            return MitigationResponse::none();
        }
        // Blacklisted: enforce a minimum spacing between this row's
        // activations. One map probe reads the old deadline and writes the
        // next one in place.
        let key = ((bank as u64) << 32) | row;
        let slot = self.last_allowed.entry(key).or_insert(0);
        let allowed_at = *slot;
        *slot = now.max(allowed_at) + self.config.throttle_interval;
        if allowed_at > now {
            let delay = allowed_at - now;
            self.stats.throttled_activations += 1;
            self.stats.throttle_cycles += delay;
            MitigationResponse { throttle_cycles: delay, ..Default::default() }
        } else {
            MitigationResponse::none()
        }
    }

    fn on_tick(&mut self, now: Cycle) {
        self.maybe_rotate(now);
    }

    fn next_tick_deadline(&self) -> Cycle {
        self.next_epoch
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MitigationStats::default();
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits_per_bank() * self.geometry.banks_per_channel() as u64
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        // Blacklist size is the live count of rows currently rate-limited;
        // filter load is the mean insert count per active CBF, a proxy for
        // how close the epoch's filters are to alias-driven false positives.
        let banks = self.filters.len().max(1) as f64;
        let filter_load: f64 =
            self.filters.iter().map(|pair| pair[self.active].len() as f64).sum::<f64>() / banks;
        vec![("blacklisted_rows", self.last_allowed.len() as f64), ("cbf_filter_load", filter_load)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nrh: u64) -> BlockHammer {
        let geometry = DramGeometry::paper_default();
        let timing = TimingParams::ddr4_2400();
        BlockHammer::new(BlockHammerConfig::for_threshold(nrh, &timing), geometry, 1234)
    }

    fn addr(row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    #[test]
    fn cbf_never_underestimates() {
        let mut cbf = CountingBloomFilter::new(256, 4, 7);
        let mut truth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for i in 0..5000u64 {
            let item = (i * 37) % 600;
            cbf.insert(item, 1);
            *truth.entry(item).or_insert(0) += 1;
        }
        for (item, count) in truth {
            assert!(cbf.estimate(item) >= count, "underestimate for {item}");
        }
    }

    #[test]
    fn cbf_estimates_exact_without_collisions() {
        let mut cbf = CountingBloomFilter::new(4096, 4, 7);
        for _ in 0..10 {
            cbf.insert(42, 1);
        }
        // A very sparse filter should report (close to) the exact count.
        assert_eq!(cbf.estimate(42), 10);
    }

    #[test]
    fn fused_insert_matches_insert_then_estimate_under_aliasing() {
        // A 2-counter filter with 4 hash functions forces hash aliasing on
        // every insert, the case where a mid-update estimate would be wrong.
        for (counters, hashes) in [(2usize, 4usize), (256, 4), (64, 1)] {
            let mut fused = CountingBloomFilter::new(counters, hashes, 11);
            let mut split = CountingBloomFilter::new(counters, hashes, 11);
            for i in 0..3000u64 {
                let item = (i * 37) % 97;
                let got = fused.insert_and_estimate(item, 1 + i % 3);
                split.insert(item, 1 + i % 3);
                assert_eq!(got, split.estimate(item), "item {item} in {counters}x{hashes}");
            }
        }
    }

    #[test]
    fn hammered_row_gets_throttled() {
        let mut bh = setup(500);
        let mut throttled = false;
        for i in 0..2_000u64 {
            let r = bh.on_activation(&addr(13), i * 30, 1);
            if r.throttle_cycles > 0 {
                throttled = true;
                break;
            }
        }
        assert!(throttled, "a heavily hammered row must eventually be throttled");
    }

    #[test]
    fn benign_rows_are_not_throttled() {
        let mut bh = setup(1000);
        for i in 0..10_000u64 {
            // Many distinct rows, a handful of activations each.
            let r = bh.on_activation(&addr((i % 5000) as usize), i * 30, 1);
            assert_eq!(r.throttle_cycles, 0, "benign access pattern must not be throttled");
        }
    }

    #[test]
    fn epoch_rotation_clears_old_state() {
        let mut bh = setup(500);
        let epoch = bh.config().epoch;
        for i in 0..300u64 {
            bh.on_activation(&addr(13), i, 1);
        }
        // After two epochs both filters have been cleared at least once.
        bh.on_tick(epoch + 1);
        bh.on_tick(2 * epoch + 1);
        let r = bh.on_activation(&addr(13), 2 * epoch + 10, 1);
        assert_eq!(r.throttle_cycles, 0);
        assert!(bh.stats().periodic_resets >= 2);
    }

    #[test]
    fn storage_accounting_is_nonzero_and_modest() {
        let bh = setup(125);
        let bits = bh.storage_bits();
        assert!(bits > 0);
        // Two 1K-counter filters with ~6-bit counters across 32 banks ≈ 48 KiB.
        assert!(bits < 2 * 1024 * 1024 * 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_counter_count_is_rejected() {
        let _ = CountingBloomFilter::new(1000, 4, 0);
    }
}
