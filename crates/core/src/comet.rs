//! The CoMeT mechanism: Counter Table + Recent Aggressor Table per bank.

use crate::config::CometConfig;
use crate::counter_table::CounterTable;
use crate::history::RatMissHistory;
use crate::rat::RecentAggressorTable;
use comet_dram::{Cycle, DramAddr, DramGeometry};
use comet_mitigations::{MitigationResponse, MitigationStats, RowHammerMitigation};

/// Per-bank tracking state: one Counter Table, one Recent Aggressor Table, and
/// one RAT-miss history vector (§7.2.1 of the paper).
#[derive(Debug, Clone)]
struct BankTracker {
    ct: CounterTable,
    rat: RecentAggressorTable,
    history: RatMissHistory,
}

impl BankTracker {
    fn new(config: &CometConfig, bank_index: usize) -> Self {
        let npr = config.npr() as u32;
        let seed = config.seed.wrapping_add(bank_index as u64 * 0x9E37_79B9);
        BankTracker {
            ct: CounterTable::new(config.n_hash, config.n_counters, npr, seed),
            rat: RecentAggressorTable::new(config.rat_entries, seed ^ 0xABCD),
            history: RatMissHistory::new(config.history_length),
        }
    }

    fn reset(&mut self) {
        self.ct.reset();
        self.rat.clear();
        self.history.clear();
    }
}

/// Additional CoMeT-specific statistics beyond [`MitigationStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CometDetailStats {
    /// Activations whose estimate came from the Recent Aggressor Table.
    pub rat_hits: u64,
    /// Activations whose estimate came from the Counter Table.
    pub ct_estimates: u64,
    /// RAT misses classified as capacity misses (evicted aggressors).
    pub rat_capacity_misses: u64,
    /// RAT misses classified as compulsory misses (new aggressors).
    pub rat_compulsory_misses: u64,
    /// RAT entries evicted to make room for a new aggressor.
    pub rat_evictions: u64,
}

/// The CoMeT RowHammer mitigation mechanism for one DRAM channel.
///
/// See the crate-level documentation for an overview and the paper's §4 for
/// the step-by-step operation this type implements.
#[derive(Debug, Clone)]
pub struct Comet {
    config: CometConfig,
    geometry: DramGeometry,
    banks: Vec<BankTracker>,
    next_reset: Cycle,
    stats: MitigationStats,
    detail: CometDetailStats,
}

impl Comet {
    /// Creates CoMeT protecting one channel of `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CometConfig::validate`].
    pub fn new(config: CometConfig, geometry: DramGeometry) -> Self {
        let problems = config.validate();
        assert!(problems.is_empty(), "invalid CoMeT configuration: {problems:?}");
        let banks = (0..geometry.banks_per_channel()).map(|b| BankTracker::new(&config, b)).collect();
        Comet {
            next_reset: config.reset_period,
            config,
            geometry,
            banks,
            stats: MitigationStats::default(),
            detail: CometDetailStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CometConfig {
        &self.config
    }

    /// CoMeT-specific detail statistics.
    pub fn detail_stats(&self) -> CometDetailStats {
        self.detail
    }

    /// Current activation-count estimate for a row (RAT value if present,
    /// otherwise the Counter Table minimum). Exposed for tests and experiments.
    pub fn estimate(&self, addr: &DramAddr) -> u64 {
        let bank = self.bank_index(addr);
        let tracker = &self.banks[bank];
        tracker.rat.lookup(addr.row as u64).unwrap_or_else(|| tracker.ct.estimate(addr.row as u64))
    }

    fn bank_index(&self, addr: &DramAddr) -> usize {
        // One CoMeT instance protects exactly one channel (the sharded memory
        // system builds an instance per channel), so per-bank trackers are
        // indexed within the channel and `addr.channel` plays no part.
        addr.flat_bank(&self.geometry)
    }

    fn maybe_periodic_reset(&mut self, now: Cycle) {
        if now >= self.next_reset {
            for bank in &mut self.banks {
                bank.reset();
            }
            self.stats.periodic_resets += 1;
            while self.next_reset <= now {
                self.next_reset += self.config.reset_period;
            }
        }
    }
}

impl RowHammerMitigation for Comet {
    fn name(&self) -> &str {
        "CoMeT"
    }

    fn on_activation(&mut self, addr: &DramAddr, now: Cycle, weight: u64) -> MitigationResponse {
        self.maybe_periodic_reset(now);
        self.stats.activations_observed += weight;
        let npr = self.config.npr();
        let bank = self.bank_index(addr);
        let row = addr.row as u64;
        let eprt = self.config.eprt_percent;
        let early_enabled = self.config.early_refresh_enabled;
        let tracker = &mut self.banks[bank];

        // Steps 2 + 3 fused: estimation, the update, and the NPR comparison
        // happen in one walk of whichever structure owns the row's count. A
        // RAT hit bumps the private counter during the tag scan itself; a RAT
        // miss folds the estimate, the conservative update, and (on the
        // aggressor path) the NPR pinning into a single counter-group walk.
        // The pre-fusion code walked the sketch twice per miss (estimate,
        // then update) and scanned the RAT twice per hit (lookup, then
        // increment).
        let rat_value = tracker.rat.increment(row, weight);
        let (ct_saturated_before, is_aggressor) = match rat_value {
            Some(updated) => {
                self.detail.rat_hits += 1;
                // An aggressor's private counter is restarted below, so the
                // speculative increment never outlives this call.
                (false, updated >= npr)
            }
            None => {
                self.detail.ct_estimates += 1;
                let (estimate_before, is_aggressor) = tracker.ct.record_or_saturate(row, weight);
                (estimate_before >= npr, is_aggressor)
            }
        };
        if !is_aggressor {
            return MitigationResponse::none();
        }

        // The row is an aggressor: preventively refresh its victims. (This
        // branch runs at most once per NPR activations, so the victim list is
        // the only allocation left on the activation path; the common
        // below-threshold case above is allocation-free.)
        self.stats.aggressors_identified += 1;
        let victims = addr.victim_rows(&self.geometry);
        self.stats.preventive_refreshes += victims.len() as u64;
        let mut response = MitigationResponse::refresh(victims);

        let tracker = &mut self.banks[bank];
        let mut early_refresh = false;
        match rat_value {
            Some(_) => {
                // Pin the sketch counters at NPR (they are shared and must
                // never be lowered) and restart the private counter.
                tracker.ct.saturate(row);
                tracker.rat.reset_entry(row);
            }
            None => {
                // `record_or_saturate` already pinned the counter group.
                // RAT miss by an aggressor row: classify it for the early-refresh heuristic.
                if ct_saturated_before {
                    self.detail.rat_capacity_misses += 1;
                    tracker.history.record(true);
                } else {
                    self.detail.rat_compulsory_misses += 1;
                    tracker.history.record(false);
                }
                if let crate::rat::RatAllocation::Evicted { .. } = tracker.rat.allocate(row) {
                    self.detail.rat_evictions += 1;
                }
                if early_enabled && tracker.history.exceeds_threshold(eprt) {
                    early_refresh = true;
                }
            }
        }

        // Step 4: early preventive refresh at coarse granularity.
        if early_refresh {
            response.refresh_rank = true;
            self.stats.early_rank_refreshes += 1;
            // The controller will refresh every row of the rank and then call
            // `on_rank_refreshed`, which resets the trackers of that rank's banks.
        }
        response
    }

    fn on_tick(&mut self, now: Cycle) {
        self.maybe_periodic_reset(now);
    }

    fn next_tick_deadline(&self) -> Cycle {
        self.next_reset
    }

    fn on_rank_refreshed(&mut self, rank: usize, _now: Cycle) {
        // Reset the trackers of every bank belonging to `rank`: all their rows'
        // victims were just refreshed, so clearing the counters is safe (§4.2).
        let banks_per_rank = self.geometry.banks_per_rank();
        let start = rank * banks_per_rank;
        for bank in self.banks.iter_mut().skip(start).take(banks_per_rank) {
            bank.reset();
        }
    }

    fn stats(&self) -> MitigationStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MitigationStats::default();
        self.detail = CometDetailStats::default();
    }

    fn storage_bits(&self) -> u64 {
        let tag_bits = self.geometry.row_bits();
        self.config.storage_bits_per_bank(tag_bits) * self.geometry.banks_per_channel() as u64
    }

    fn telemetry_gauges(&self) -> Vec<(&'static str, f64)> {
        let banks = self.banks.len().max(1) as f64;
        let cms_saturation: f64 = self.banks.iter().map(|b| b.ct.saturation_fraction()).sum::<f64>() / banks;
        let rat_occupancy: f64 = self.banks.iter().map(|b| b.rat.len() as f64).sum::<f64>() / banks;
        vec![
            ("cms_saturation", cms_saturation),
            ("rat_occupancy", rat_occupancy),
            ("rat_hits", self.detail.rat_hits as f64),
            ("ct_estimates", self.detail.ct_estimates as f64),
            ("rat_capacity_misses", self.detail.rat_capacity_misses as f64),
            ("rat_compulsory_misses", self.detail.rat_compulsory_misses as f64),
            ("rat_evictions", self.detail.rat_evictions as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_dram::TimingParams;

    fn setup(nrh: u64) -> Comet {
        let timing = TimingParams::ddr4_2400();
        Comet::new(CometConfig::for_threshold(nrh, &timing), DramGeometry::paper_default())
    }

    fn addr(row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row, column: 0 }
    }

    fn addr_in(bank_group: usize, bank: usize, row: usize) -> DramAddr {
        DramAddr { channel: 0, rank: 0, bank_group, bank, row, column: 0 }
    }

    #[test]
    fn aggressor_refreshed_exactly_at_npr() {
        let mut comet = setup(1000);
        let npr = comet.config().npr();
        let mut refresh_points = Vec::new();
        for i in 0..npr {
            let r = comet.on_activation(&addr(77), i, 1);
            if !r.refresh_victims.is_empty() {
                refresh_points.push(i + 1);
            }
        }
        assert_eq!(refresh_points, vec![npr], "first refresh must fire exactly at NPR");
    }

    #[test]
    fn rat_prevents_repeated_refreshes_from_saturated_counters() {
        let mut comet = setup(1000);
        let npr = comet.config().npr();
        let mut refreshes = 0u64;
        // Hammer one row for 3×NPR activations: the RAT entry allocated after the
        // first refresh must make subsequent refreshes fire only every NPR
        // activations, not on every activation.
        for i in 0..(3 * npr) {
            if !comet.on_activation(&addr(77), i, 1).refresh_victims.is_empty() {
                refreshes += 1;
            }
        }
        assert_eq!(refreshes, 3, "one refresh per NPR activations expected");
        assert!(comet.detail_stats().rat_hits > 0);
    }

    #[test]
    fn victims_are_the_adjacent_rows() {
        let mut comet = setup(1000);
        let npr = comet.config().npr();
        let mut last = MitigationResponse::none();
        for i in 0..npr {
            last = comet.on_activation(&addr(500), i, 1);
        }
        let rows: Vec<usize> = last.refresh_victims.iter().map(|v| v.row).collect();
        assert_eq!(rows, vec![499, 501]);
    }

    #[test]
    fn never_underestimates_interleaved_rows() {
        // Interleave many rows; each row's estimate must always be at least its
        // true count (the CMS security property surfaced through the mechanism).
        let mut comet = setup(1000);
        let mut truth = std::collections::HashMap::new();
        for i in 0..50_000u64 {
            let row = ((i * 7919) % 4096) as usize;
            comet.on_activation(&addr(row), i, 1);
            *truth.entry(row).or_insert(0u64) += 1;
        }
        let npr = comet.config().npr();
        for (&row, &count) in &truth {
            let estimate = comet.estimate(&addr(row));
            // Rows that triggered refreshes have their private counter restarted, so only
            // rows below NPR are directly comparable.
            if count < npr {
                assert!(
                    estimate >= count || estimate == 0,
                    "row {row}: estimate {estimate} < true count {count}"
                );
            }
        }
    }

    #[test]
    fn hammering_distinct_rows_beyond_rat_capacity_triggers_early_refresh() {
        let timing = TimingParams::ddr4_2400();
        let mut config = CometConfig::for_threshold(1000, &timing);
        config.rat_entries = 4;
        config.history_length = 16;
        config.eprt_percent = 25;
        let mut comet = Comet::new(config, DramGeometry::paper_default());
        let npr = comet.config().npr();
        let mut early = false;
        // Hammer 64 distinct rows to NPR repeatedly: the 4-entry RAT thrashes and
        // capacity misses accumulate until the early preventive refresh fires.
        'outer: for round in 0..20u64 {
            for row in 0..64usize {
                for i in 0..npr {
                    let now = round * 1_000_000 + row as u64 * 1_000 + i;
                    let r = comet.on_activation(&addr(row * 32), now, 1);
                    if r.refresh_rank {
                        early = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(early, "RAT thrashing must eventually trigger an early preventive refresh");
        assert!(comet.stats().early_rank_refreshes >= 1);
    }

    #[test]
    fn rank_refresh_resets_only_that_ranks_banks() {
        let mut comet = setup(1000);
        let npr = comet.config().npr();
        let rank0_addr = addr(10);
        let rank1_addr = DramAddr { rank: 1, ..addr(10) };
        for i in 0..npr / 2 {
            comet.on_activation(&rank0_addr, i, 1);
            comet.on_activation(&rank1_addr, i, 1);
        }
        assert!(comet.estimate(&rank0_addr) > 0);
        assert!(comet.estimate(&rank1_addr) > 0);
        comet.on_rank_refreshed(0, 1_000_000);
        assert_eq!(comet.estimate(&rank0_addr), 0);
        assert!(comet.estimate(&rank1_addr) > 0, "rank 1 state must survive a rank-0 refresh");
    }

    #[test]
    fn periodic_reset_clears_every_bank() {
        let mut comet = setup(1000);
        let period = comet.config().reset_period;
        comet.on_activation(&addr(5), 0, 1);
        comet.on_activation(&addr_in(2, 3, 9), 0, 1);
        comet.on_tick(period + 1);
        assert_eq!(comet.estimate(&addr(5)), 0);
        assert_eq!(comet.estimate(&addr_in(2, 3, 9)), 0);
        assert_eq!(comet.stats().periodic_resets, 1);
    }

    #[test]
    fn banks_are_independent() {
        let mut comet = setup(1000);
        let npr = comet.config().npr();
        for i in 0..npr - 1 {
            assert!(comet.on_activation(&addr(42), i, 1).is_nop());
        }
        // The same row index in a different bank starts from zero.
        assert!(comet.on_activation(&addr_in(1, 1, 42), npr, 1).is_nop());
    }

    #[test]
    fn storage_matches_table4_at_1k() {
        let comet = setup(1000);
        let kib = comet.storage_bits() as f64 / 8.0 / 1024.0;
        // Table 4 reports 76.5 KiB (CT 64 KiB + RAT 12.5 KiB) for a dual-rank channel.
        assert!((kib - 77.5).abs() < 2.5, "storage = {kib} KiB");
    }

    #[test]
    fn storage_shrinks_at_lower_thresholds() {
        let s1k = setup(1000).storage_bits();
        let s125 = setup(125).storage_bits();
        assert!(s125 < s1k);
    }

    #[test]
    fn security_a_row_is_never_activated_nrh_times_without_refresh() {
        // Drive a worst-case single-row hammer across periodic resets and verify
        // that between two consecutive preventive refreshes of its victims the row
        // never accumulates NRH activations.
        let timing = TimingParams::ddr4_2400();
        let nrh = 500u64;
        let config = CometConfig::for_threshold(nrh, &timing);
        let reset_period = config.reset_period;
        let mut comet = Comet::new(config, DramGeometry::paper_default());
        let mut acts_since_refresh = 0u64;
        let mut max_between_refreshes = 0u64;
        // One activation every tRC-ish 55 cycles; run for two reset periods.
        let total_cycles = 2 * reset_period;
        let mut now = 0u64;
        while now < total_cycles {
            let r = comet.on_activation(&addr(1234), now, 1);
            acts_since_refresh += 1;
            if !r.refresh_victims.is_empty() {
                max_between_refreshes = max_between_refreshes.max(acts_since_refresh);
                acts_since_refresh = 0;
            }
            now += 55;
        }
        max_between_refreshes = max_between_refreshes.max(acts_since_refresh);
        assert!(
            max_between_refreshes < nrh,
            "aggressor accumulated {max_between_refreshes} activations without a victim refresh"
        );
    }

    #[test]
    #[should_panic(expected = "invalid CoMeT configuration")]
    fn invalid_config_is_rejected() {
        let timing = TimingParams::ddr4_2400();
        let mut config = CometConfig::for_threshold(1000, &timing);
        config.n_counters = 500;
        let _ = Comet::new(config, DramGeometry::paper_default());
    }
}
