//! Graphene: Misra-Gries-based aggressor tracking (Park et al., MICRO 2020).

use crate::hashers::IntMap;
use crate::stats::MitigationStats;
use crate::traits::{MitigationResponse, RowHammerMitigation};
use comet_dram::{Cycle, DramAddr, DramGeometry, TimingParams};

/// Configuration of the Graphene tracker.
///
/// Graphene runs the Misra-Gries frequent-item algorithm per bank with
/// `entries_per_bank` tagged counters and a spillover counter. A row whose
/// counter reaches a multiple of `prevention_threshold` has its neighbours
/// preventively refreshed. The table is reset every `reset_period` cycles.
///
/// `for_threshold` sizes the table the way the Graphene paper does: with a
/// table reset period of `tREFW / reset_divisor`, at most
/// `W = max ACTs per bank per reset period` activations can occur, so
/// `W / prevention_threshold + 1` entries suffice to guarantee that any row
/// activated `prevention_threshold` times is present in the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrapheneConfig {
    /// RowHammer threshold the mechanism must defend against.
    pub nrh: u64,
    /// Counter value at which victims are preventively refreshed.
    pub prevention_threshold: u64,
    /// Misra-Gries entries per bank.
    pub entries_per_bank: usize,
    /// Tracker state is cleared every this many cycles.
    pub reset_period: Cycle,
    /// Row-tag width in bits (for storage accounting).
    pub tag_bits: u32,
}

impl GrapheneConfig {
    /// Sizes Graphene for `nrh` under `timing`, as described in the Graphene
    /// paper and used by the CoMeT paper's comparison (§6): reset period
    /// `tREFW/2`, prevention threshold `NRH/4`, and enough entries to cover the
    /// worst-case activation count of one bank in a reset period.
    pub fn for_threshold(nrh: u64, timing: &TimingParams, geometry: &DramGeometry) -> Self {
        let reset_divisor = 2;
        let reset_period = timing.t_refw / reset_divisor;
        let prevention_threshold = (nrh / 4).max(1);
        let max_acts = reset_period / timing.t_rc;
        let entries_per_bank = (max_acts / prevention_threshold + 1) as usize;
        GrapheneConfig {
            nrh,
            prevention_threshold,
            entries_per_bank,
            reset_period,
            tag_bits: geometry.row_bits(),
        }
    }

    /// Counter width needed to count up to the prevention threshold.
    pub fn counter_bits(&self) -> u32 {
        64 - self.prevention_threshold.leading_zeros()
    }

    /// Storage in bits for one bank's table (tags + counters + spillover counter).
    pub fn storage_bits_per_bank(&self) -> u64 {
        let entry_bits = (self.tag_bits + self.counter_bits()) as u64;
        self.entries_per_bank as u64 * entry_bits + self.counter_bits() as u64
    }
}

/// One Misra-Gries entry: the activation-count estimate and the last multiple
/// of the prevention threshold at which the row's victims were refreshed.
///
/// Keeping the refresh level next to the count means one table probe serves
/// the whole per-activation decision; the previous layout paid a second
/// per-bank `HashMap<row, level>` lookup on every over-threshold activation.
#[derive(Debug, Clone, Copy, Default)]
struct MgEntry {
    count: u64,
    refreshed: u64,
}

/// Per-bank Misra-Gries table.
#[derive(Debug, Clone, Default)]
struct MisraGriesTable {
    /// Row → (count, refresh level).
    entries: IntMap<usize, MgEntry>,
    /// Rows in insertion order, driving the table-full victim scan. The scan
    /// has a *fixed* order (oldest insertion first), where the former
    /// `HashMap::iter().find` walk picked whichever eligible entry the
    /// hasher happened to enumerate first.
    order: Vec<usize>,
    /// Refresh levels of rows the table no longer (or never) tracks, so an
    /// evicted-and-reinserted aggressor is not refreshed twice at one level.
    spilled_refreshed: IntMap<usize, u64>,
    /// Spillover counter: lower bound for rows not in the table.
    spillover: u64,
}

impl MisraGriesTable {
    /// Performs one Misra-Gries update and returns the row's updated estimate
    /// and whether it just crossed a new multiple of `threshold` (meaning its
    /// victims must be refreshed now).
    fn update(&mut self, row: usize, weight: u64, capacity: usize, threshold: u64) -> (u64, bool) {
        if let Some(e) = self.entries.get_mut(&row) {
            e.count += weight;
            // Below the threshold the level is 0 by definition; comparing
            // first keeps the expensive 64-bit division (a third of the
            // per-activation budget) off the common below-threshold path.
            let fresh = e.count >= threshold && Self::crossed(&mut e.refreshed, e.count / threshold);
            return (e.count, fresh);
        }
        if self.entries.len() < capacity {
            let mut e = MgEntry { count: self.spillover + weight, refreshed: self.take_spilled_level(row) };
            let fresh = e.count >= threshold && Self::crossed(&mut e.refreshed, e.count / threshold);
            self.order.push(row);
            self.entries.insert(row, e);
            return (e.count, fresh);
        }
        // Table full: if some entry is at or below the spillover count, replace
        // it (classic Misra-Gries with spillover); otherwise count the
        // activation in the spillover.
        if let Some(pos) = self.order.iter().position(|r| self.entries[r].count <= self.spillover) {
            let victim = self.order[pos];
            let victim_entry = self.entries.remove(&victim).expect("ordered rows are tracked");
            if victim_entry.refreshed != 0 {
                self.spilled_refreshed.insert(victim, victim_entry.refreshed);
            }
            let mut e = MgEntry { count: self.spillover + weight, refreshed: self.take_spilled_level(row) };
            let fresh = e.count >= threshold && Self::crossed(&mut e.refreshed, e.count / threshold);
            self.order[pos] = row;
            self.entries.insert(row, e);
            (e.count, fresh)
        } else {
            self.spillover += weight;
            if self.spillover < threshold {
                return (self.spillover, false);
            }
            let level = self.spillover / threshold;
            let fresh = Self::crossed(self.spilled_refreshed.entry(row).or_insert(0), level);
            (self.spillover, fresh)
        }
    }

    /// Takes `row`'s spilled refresh level, skipping the hash lookup when no
    /// level was ever spilled (no eviction has fired since the last reset).
    #[inline(always)]
    fn take_spilled_level(&mut self, row: usize) -> u64 {
        if self.spilled_refreshed.is_empty() {
            0
        } else {
            self.spilled_refreshed.remove(&row).unwrap_or(0)
        }
    }

    /// Advances `last` to `level` if it is new; returns whether it was.
    #[inline(always)]
    fn crossed(last: &mut u64, level: u64) -> bool {
        if level > *last {
            *last = level;
            true
        } else {
            false
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.spilled_refreshed.clear();
        self.spillover = 0;
    }
}

/// The Graphene mechanism: one Misra-Gries table per bank.
#[derive(Debug, Clone)]
pub struct Graphene {
    config: GrapheneConfig,
    geometry: DramGeometry,
    tables: Vec<MisraGriesTable>,
    next_reset: Cycle,
    stats: MitigationStats,
}

impl Graphene {
    /// Creates Graphene protecting one channel of `geometry`.
    pub fn new(config: GrapheneConfig, geometry: DramGeometry) -> Self {
        let banks = geometry.banks_per_channel();
        Graphene {
            next_reset: config.reset_period,
            config,
            geometry,
            tables: vec![MisraGriesTable::default(); banks],
            stats: MitigationStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &GrapheneConfig {
        &self.config
    }

    fn maybe_reset(&mut self, now: Cycle) {
        if now >= self.next_reset {
            for t in &mut self.tables {
                t.clear();
            }
            self.stats.periodic_resets += 1;
            while self.next_reset <= now {
                self.next_reset += self.config.reset_period;
            }
        }
    }
}

impl RowHammerMitigation for Graphene {
    crate::impl_mitigation_checkpoint!(Graphene);

    fn name(&self) -> &str {
        "Graphene"
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        self.maybe_reset(now);
        self.stats.activations_observed += weight;
        let bank = addr.flat_bank(&self.geometry);
        let (_estimate, crossed) = self.tables[bank].update(
            addr.row,
            weight,
            self.config.entries_per_bank,
            self.config.prevention_threshold,
        );
        if crossed {
            self.stats.aggressors_identified += 1;
            let victims = addr.victim_rows(&self.geometry);
            self.stats.preventive_refreshes += victims.len() as u64;
            MitigationResponse::refresh(victims)
        } else {
            MitigationResponse::none()
        }
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
        self.config.storage_bits_per_bank() * self.geometry.banks_per_channel() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nrh: u64) -> Graphene {
        let geometry = DramGeometry::paper_default();
        let timing = TimingParams::ddr4_2400();
        let config = GrapheneConfig::for_threshold(nrh, &timing, &geometry);
        Graphene::new(config, geometry)
    }

    fn addr(row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    #[test]
    fn config_scales_entries_with_threshold() {
        let geometry = DramGeometry::paper_default();
        let timing = TimingParams::ddr4_2400();
        let c1k = GrapheneConfig::for_threshold(1000, &timing, &geometry);
        let c125 = GrapheneConfig::for_threshold(125, &timing, &geometry);
        assert!(c125.entries_per_bank > 6 * c1k.entries_per_bank);
        assert!(c125.storage_bits_per_bank() > 5 * c1k.storage_bits_per_bank());
    }

    #[test]
    fn hammered_row_triggers_refresh_at_threshold() {
        let mut g = setup(1000);
        let threshold = g.config().prevention_threshold;
        let mut refreshes = 0;
        for i in 0..threshold {
            let r = g.on_activation(&addr(100), i, 1);
            if !r.refresh_victims.is_empty() {
                refreshes += 1;
                assert_eq!(i + 1, threshold, "refresh must fire exactly at the threshold");
            }
        }
        assert_eq!(refreshes, 1);
    }

    #[test]
    fn repeated_hammering_triggers_repeated_refreshes() {
        let mut g = setup(1000);
        let threshold = g.config().prevention_threshold;
        let mut refreshes = 0;
        for i in 0..(4 * threshold) {
            if !g.on_activation(&addr(100), i, 1).refresh_victims.is_empty() {
                refreshes += 1;
            }
        }
        assert_eq!(refreshes, 4);
    }

    #[test]
    fn aggressor_never_reaches_nrh_without_refresh() {
        // Security property: a row activated NRH times must have been refreshed at
        // least once well before reaching NRH.
        let mut g = setup(500);
        let mut first_refresh_at = None;
        for i in 0..500u64 {
            if !g.on_activation(&addr(7), i, 1).refresh_victims.is_empty() && first_refresh_at.is_none() {
                first_refresh_at = Some(i + 1);
            }
        }
        let first = first_refresh_at.expect("row must be refreshed before NRH activations");
        assert!(first <= 500 / 2, "first refresh at {first} is too late");
    }

    #[test]
    fn distinct_rows_below_threshold_do_not_trigger() {
        let mut g = setup(1000);
        for row in 0..2000usize {
            let r = g.on_activation(&addr(row), row as u64, 1);
            assert!(r.is_nop(), "row {row} unexpectedly triggered a refresh");
        }
    }

    #[test]
    fn periodic_reset_clears_counts() {
        let mut g = setup(1000);
        let threshold = g.config().prevention_threshold;
        let period = g.config().reset_period;
        // Hammer just below the threshold, let the table reset, and hammer again:
        // no refresh should occur because the count never crosses the threshold
        // within one reset period.
        for i in 0..threshold - 1 {
            assert!(g.on_activation(&addr(3), i, 1).is_nop());
        }
        for i in 0..threshold - 1 {
            assert!(g.on_activation(&addr(3), period + i, 1).is_nop());
        }
        assert!(g.stats().periodic_resets >= 1);
    }

    #[test]
    fn storage_matches_per_bank_math() {
        let g = setup(1000);
        let per_bank = g.config().storage_bits_per_bank();
        assert_eq!(g.storage_bits(), per_bank * 32);
    }

    #[test]
    fn full_table_replaces_the_lowest_eligible_slot_deterministically() {
        let geometry = DramGeometry::paper_default();
        let config = GrapheneConfig {
            nrh: 100,
            prevention_threshold: 25,
            entries_per_bank: 2,
            reset_period: Cycle::MAX,
            tag_bits: geometry.row_bits(),
        };
        let mut a = Graphene::new(config.clone(), geometry.clone());
        let mut b = Graphene::new(config, geometry);
        // Fill the 2-entry table, grow the spillover past the weaker entry,
        // then insert new rows so the replacement scan runs repeatedly. Both
        // instances must agree on every response: victim choice is a dense
        // lowest-slot-first scan, not a hasher-ordered walk.
        for (i, row) in [(0u64, 1usize), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (7, 3)]
            .into_iter()
            .chain((8..64).map(|i| (i, (i % 7 + 1) as usize)))
        {
            assert_eq!(a.on_activation(&addr(row), i, 1), b.on_activation(&addr(row), i, 1));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn eviction_preserves_refresh_levels_across_reinsertion() {
        let geometry = DramGeometry::paper_default();
        let config = GrapheneConfig {
            nrh: 100,
            prevention_threshold: 4,
            entries_per_bank: 1,
            reset_period: Cycle::MAX,
            tag_bits: geometry.row_bits(),
        };
        let mut g = Graphene::new(config, geometry);
        // Row 1 crosses the threshold once and is refreshed at level 1.
        for i in 0..4u64 {
            g.on_activation(&addr(1), i, 1);
        }
        assert_eq!(g.stats().aggressors_identified, 1);
        // Spillover-driven churn evicts row 1; on reinsertion its count restarts
        // from the spillover (already ≥ the threshold), but level 1 was spilled
        // with it, so no duplicate refresh fires until a *new* level is reached.
        for i in 4..9u64 {
            g.on_activation(&addr(2), i, 1);
        }
        let r = g.on_activation(&addr(1), 9, 1);
        assert!(r.is_nop(), "level-1 refresh must not repeat after eviction and reinsertion");
    }

    #[test]
    fn banks_are_tracked_independently() {
        let mut g = setup(1000);
        let threshold = g.config().prevention_threshold;
        let a = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 9, column: 0 };
        let b = DramAddr { channel: 0, rank: 0, bank_group: 1, bank: 2, row: 9, column: 0 };
        for i in 0..threshold - 1 {
            assert!(g.on_activation(&a, i, 1).is_nop());
        }
        // The same row index in another bank has its own counter.
        assert!(g.on_activation(&b, threshold, 1).is_nop());
    }
}
