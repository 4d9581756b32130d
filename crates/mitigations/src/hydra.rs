//! Hydra: hybrid group/per-row activation tracking (Qureshi et al., ISCA 2022).

use crate::hashers::IntMap;
use crate::stats::MitigationStats;
use crate::traits::{MitigationResponse, RowHammerMitigation};
use comet_dram::{Cycle, DramAddr, DramGeometry, TimingParams};

/// Configuration of the Hydra mechanism.
///
/// Hydra keeps a small SRAM *Group Count Table* (GCT) in the memory controller
/// that tracks activations at the granularity of row groups. Only when a group
/// counter exceeds `group_threshold` does Hydra start maintaining precise
/// per-row counters, which live in DRAM (*Row Count Table*, RCT) and are cached
/// in the memory controller (*Row Count Cache*, RCC). Per-row counters that are
/// not cached must be fetched from (and written back to) DRAM, which is where
/// Hydra's performance overhead comes from at low thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HydraConfig {
    /// RowHammer threshold to defend against.
    pub nrh: u64,
    /// Rows per tracking group.
    pub rows_per_group: usize,
    /// Group counter value that switches the group to per-row tracking.
    pub group_threshold: u64,
    /// Per-row counter value that triggers a preventive refresh.
    pub row_threshold: u64,
    /// Entries in the Row Count Cache (shared across the channel).
    pub rcc_entries: usize,
    /// Tracker reset period in cycles.
    pub reset_period: Cycle,
    /// Row-tag bits for RCC storage accounting.
    pub tag_bits: u32,
}

impl HydraConfig {
    /// Hydra's configuration for `nrh`, following the original paper's sizing
    /// (group threshold = 4/5 of the per-row threshold, 128 rows per group,
    /// 4 K-entry row count cache) as referenced by the CoMeT paper's §6.
    pub fn for_threshold(nrh: u64, timing: &TimingParams, geometry: &DramGeometry) -> Self {
        let row_threshold = (nrh / 2).max(2);
        HydraConfig {
            nrh,
            rows_per_group: 128,
            group_threshold: (row_threshold * 4 / 5).max(1),
            row_threshold,
            rcc_entries: 4096,
            reset_period: timing.t_refw,
            tag_bits: geometry.row_bits() + 5,
        }
    }

    /// Bits per activation counter.
    pub fn counter_bits(&self) -> u32 {
        64 - self.row_threshold.leading_zeros()
    }

    /// Processor-side storage in bits for a channel of `geometry`
    /// (GCT for every bank + the shared RCC). The RCT lives in DRAM and is not
    /// counted here (the paper reports it separately as 4 MiB of DRAM storage).
    pub fn storage_bits(&self, geometry: &DramGeometry) -> u64 {
        let groups_per_bank = geometry.rows_per_bank.div_ceil(self.rows_per_group) as u64;
        let gct_bits = groups_per_bank * geometry.banks_per_channel() as u64 * self.counter_bits() as u64;
        let rcc_bits = self.rcc_entries as u64 * (self.tag_bits + self.counter_bits()) as u64;
        gct_bits + rcc_bits
    }
}

/// Packs a `(bank, row)` pair into one `u64` key.
///
/// The per-row structures (RCT, RCC) are keyed by bank and row; hashing one
/// `u64` instead of a two-`usize` tuple halves the bytes fed to the hasher on
/// every per-row lookup of the activation path. Row indices fit comfortably
/// in 32 bits (banks hold at most a few hundred thousand rows).
#[inline(always)]
fn pack_key(bank: usize, row: usize) -> u64 {
    debug_assert!(row <= u32::MAX as usize);
    ((bank as u64) << 32) | row as u64
}

/// A direct-indexed model of the Row Count Cache with LRU-free random-ish replacement
/// (FIFO order), sized in entries. Keys are packed `(bank, row)` pairs.
#[derive(Debug, Clone, Default)]
struct RowCountCache {
    /// Packed (bank, row) → counter value.
    entries: IntMap<u64, u64>,
    /// Insertion order for eviction.
    order: std::collections::VecDeque<u64>,
}

impl RowCountCache {
    fn get_mut(&mut self, key: &u64) -> Option<&mut u64> {
        self.entries.get_mut(key)
    }

    /// Inserts `key`, evicting the oldest entry if at `capacity`.
    /// Returns the evicted `(key, value)` pair — the write-back — if any.
    fn insert(&mut self, key: u64, value: u64, capacity: usize) -> Option<(u64, u64)> {
        let mut evicted = None;
        if !self.entries.contains_key(&key) && self.entries.len() >= capacity {
            if let Some(old) = self.order.pop_front() {
                let old_value = self.entries.remove(&old).expect("ordered keys are cached");
                evicted = Some((old, old_value));
            }
        }
        if self.entries.insert(key, value).is_none() {
            self.order.push_back(key);
        }
        evicted
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// The Hydra mechanism protecting one DRAM channel.
#[derive(Debug, Clone)]
pub struct Hydra {
    config: HydraConfig,
    geometry: DramGeometry,
    /// Group counters as one flat array indexed `bank * groups + group` — the
    /// SRAM fast path touches exactly one cache-friendly slot instead of
    /// chasing a per-bank `Vec` pointer first.
    gct: Vec<u64>,
    /// Groups per bank (the flat GCT's inner stride).
    groups: usize,
    /// Backing store of per-row counters (models the RCT that lives in DRAM),
    /// keyed by packed `(bank, row)`.
    rct: IntMap<u64, u64>,
    rcc: RowCountCache,
    next_reset: Cycle,
    stats: MitigationStats,
}

impl Hydra {
    /// Creates Hydra for one channel of `geometry`.
    pub fn new(config: HydraConfig, geometry: DramGeometry) -> Self {
        let banks = geometry.banks_per_channel();
        let groups = geometry.rows_per_bank.div_ceil(config.rows_per_group);
        Hydra {
            next_reset: config.reset_period,
            config,
            geometry,
            gct: vec![0; banks * groups],
            groups,
            rct: IntMap::default(),
            rcc: RowCountCache::default(),
            stats: MitigationStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HydraConfig {
        &self.config
    }

    fn maybe_reset(&mut self, now: Cycle) {
        if now >= self.next_reset {
            self.gct.iter_mut().for_each(|c| *c = 0);
            self.rct.clear();
            self.rcc.clear();
            self.stats.periodic_resets += 1;
            while self.next_reset <= now {
                self.next_reset += self.config.reset_period;
            }
        }
    }
}

impl RowHammerMitigation for Hydra {
    fn name(&self) -> &str {
        "Hydra"
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        self.maybe_reset(now);
        self.stats.activations_observed += weight;
        let bank = addr.flat_bank(&self.geometry);
        let group = addr.row / self.config.rows_per_group;
        let key = pack_key(bank, addr.row);
        let mut response = MitigationResponse::none();

        let group_counter = &mut self.gct[bank * self.groups + group];
        if *group_counter < self.config.group_threshold {
            // Cheap path: only the SRAM group counter is touched.
            *group_counter += weight;
            return response;
        }

        // Per-row tracking: the counter must be present in the RCC. The cached
        // RCC entry is authoritative and the RCT is only written back on
        // eviction: the RCT is read exclusively on RCC misses, a key leaves
        // the RCC only through an eviction write-back or a full reset, so the
        // lazy RCT always agrees with what the former write-through model
        // (one RCT store per tracked activation) would have fetched.
        let value = match self.rcc.get_mut(&key) {
            // RCC hit: one cache probe covers the whole update.
            Some(counter) => {
                *counter += weight;
                *counter
            }
            None => {
                // Fetch from the RCT in DRAM. A row touched for the first time after its
                // group saturated inherits the (conservative) group counter value.
                let initial = *self.rct.get(&key).unwrap_or(&self.config.group_threshold);
                response.counter_reads += 1;
                self.stats.counter_reads += 1;
                let value = initial + weight;
                if let Some((old_key, old_value)) = self.rcc.insert(key, value, self.config.rcc_entries) {
                    self.rct.insert(old_key, old_value);
                    response.counter_writes += 1;
                    self.stats.counter_writes += 1;
                }
                value
            }
        };

        if value >= self.config.row_threshold {
            // Preventive refresh and counter reset.
            if let Some(c) = self.rcc.get_mut(&key) {
                *c = 0;
            }
            self.stats.aggressors_identified += 1;
            let victims = addr.victim_rows(&self.geometry);
            self.stats.preventive_refreshes += victims.len() as u64;
            response.refresh_victims = victims;
        }
        response
    }

    fn on_tick(&mut self, now: Cycle) {
        self.maybe_reset(now);
    }

    fn next_tick_deadline(&self) -> Cycle {
        self.next_reset
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MitigationStats::default();
    }

    fn storage_bits(&self) -> u64 {
        self.config.storage_bits(&self.geometry)
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        // RCC pressure is Hydra's whole performance story (every RCC miss is
        // off-chip counter traffic), so expose how full the cache and the
        // DRAM-resident row-count table are, plus how many groups have
        // escalated to per-row tracking.
        let escalated = self.gct.iter().filter(|&&c| c >= self.config.group_threshold).count();
        vec![
            ("rcc_occupancy", self.rcc.entries.len() as f64),
            ("rct_rows", self.rct.len() as f64),
            ("gct_escalated_groups", escalated as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nrh: u64) -> Hydra {
        let geometry = DramGeometry::paper_default();
        let timing = TimingParams::ddr4_2400();
        Hydra::new(HydraConfig::for_threshold(nrh, &timing, &geometry), geometry)
    }

    fn addr(row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    #[test]
    fn group_counting_avoids_dram_traffic_below_threshold() {
        let mut h = setup(1000);
        let gt = h.config().group_threshold;
        for i in 0..gt {
            let r = h.on_activation(&addr((i % 128) as usize), i, 1);
            assert!(r.is_nop(), "no DRAM traffic expected below the group threshold");
        }
        assert_eq!(h.stats().counter_reads, 0);
    }

    #[test]
    fn saturated_group_causes_counter_fetches() {
        let mut h = setup(1000);
        let gt = h.config().group_threshold;
        // Saturate group 0 by spreading activations over its 128 rows.
        for i in 0..gt {
            h.on_activation(&addr((i % 128) as usize), i, 1);
        }
        // The next activation to the group needs a per-row counter from DRAM.
        let r = h.on_activation(&addr(0), gt + 1, 1);
        assert_eq!(r.counter_reads, 1);
        assert!(h.stats().counter_reads >= 1);
    }

    #[test]
    fn hammered_row_is_refreshed_before_nrh() {
        let nrh = 500;
        let mut h = setup(nrh);
        let mut first_refresh = None;
        for i in 0..nrh {
            let r = h.on_activation(&addr(42), i, 1);
            if !r.refresh_victims.is_empty() && first_refresh.is_none() {
                first_refresh = Some(i + 1);
            }
        }
        let first = first_refresh.expect("hammered row must be refreshed before NRH activations");
        assert!(first <= nrh, "first refresh too late: {first}");
    }

    #[test]
    fn memory_intensive_group_spray_overestimates() {
        // Hydra's known weakness (paper §3.2): many distinct rows of the same group,
        // each activated a few times, saturate the group counter and force per-row
        // tracking with DRAM traffic even though no row is anywhere near NRH.
        let mut h = setup(125);
        let gt = h.config().group_threshold;
        let mut traffic = 0u64;
        for round in 0..(gt * 2) {
            let row = (round % 128) as usize;
            let r = h.on_activation(&addr(row), round, 1);
            traffic += (r.counter_reads + r.counter_writes) as u64;
        }
        assert!(traffic > 0, "group spraying should generate DRAM counter traffic");
    }

    #[test]
    fn rcc_evictions_cause_writebacks() {
        let geometry = DramGeometry::paper_default();
        let timing = TimingParams::ddr4_2400();
        let mut config = HydraConfig::for_threshold(125, &timing, &geometry);
        config.rcc_entries = 4; // tiny cache to force evictions
        config.group_threshold = 1;
        let mut h = Hydra::new(config, geometry);
        let mut writebacks = 0u64;
        for i in 0..1000u64 {
            let r = h.on_activation(&addr((i % 64) as usize), i, 1);
            writebacks += r.counter_writes as u64;
        }
        assert!(writebacks > 0);
    }

    #[test]
    fn periodic_reset_clears_group_counters() {
        let mut h = setup(1000);
        let gt = h.config().group_threshold;
        let period = h.config().reset_period;
        for i in 0..gt {
            h.on_activation(&addr((i % 128) as usize), i, 1);
        }
        // After the reset period the group counter starts from zero again.
        let r = h.on_activation(&addr(0), period + 1, 1);
        assert!(r.is_nop());
        assert_eq!(h.stats().periodic_resets, 1);
    }

    #[test]
    fn storage_smaller_than_graphene_at_low_threshold() {
        use crate::graphene::GrapheneConfig;
        let geometry = DramGeometry::paper_default();
        let timing = TimingParams::ddr4_2400();
        let hydra = HydraConfig::for_threshold(125, &timing, &geometry);
        let graphene = GrapheneConfig::for_threshold(125, &timing, &geometry);
        let graphene_bits = graphene.storage_bits_per_bank() * geometry.banks_per_channel() as u64;
        assert!(hydra.storage_bits(&geometry) < graphene_bits / 4);
    }
}
