//! RowHammer attack traces (§8.2 of the paper).

use crate::request::{TraceRecord, TraceSource};
use comet_dram::{AddressMapper, AddressScheme, DramAddr, DramGeometry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The adversarial access patterns the paper evaluates.
///
/// `Hash` and `Serialize` let attack studies participate in experiment-cell
/// identity (the experiment service keys its result cache on the full cell,
/// attack parameters included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// A traditional many-sided RowHammer attack: repeatedly activate a set of
    /// aggressor rows across all banks as fast as the DRAM protocol allows
    /// (the paper models one ACT every 20 ns while executing the attack trace).
    Traditional {
        /// Number of aggressor rows hammered per bank.
        rows_per_bank: usize,
    },
    /// CoMeT-targeted attack: hammer more distinct rows to the preventive
    /// refresh threshold than the Recent Aggressor Table can hold, forcing RAT
    /// evictions and early preventive refreshes.
    CometTargeted {
        /// Number of distinct aggressor rows (should exceed the RAT capacity).
        rows_per_bank: usize,
    },
    /// Hydra-targeted attack: touch many distinct rows of the same row groups a
    /// few times each, saturating Hydra's group counters and forcing off-chip
    /// row-counter traffic.
    HydraTargeted {
        /// Number of row groups sprayed per bank.
        groups_per_bank: usize,
        /// Rows per group in the Hydra configuration under attack.
        rows_per_group: usize,
    },
}

/// An endless attack trace.
///
/// Attack records always use `gap = 0` (the attacker issues memory requests as
/// fast as it can) and reads (writes would not change the activation stream).
#[derive(Debug, Clone)]
pub struct AttackTrace {
    kind: AttackKind,
    name: String,
    mapper: AddressMapper,
    rng: SmallRng,
    position: usize,
}

impl AttackTrace {
    /// Creates an attack trace of `kind` against `geometry`.
    pub fn new(kind: AttackKind, geometry: DramGeometry, seed: u64) -> Self {
        let name = match kind {
            AttackKind::Traditional { .. } => "attack-traditional",
            AttackKind::CometTargeted { .. } => "attack-comet-targeted",
            AttackKind::HydraTargeted { .. } => "attack-hydra-targeted",
        };
        AttackTrace {
            kind,
            name: name.to_string(),
            mapper: AddressMapper::new(geometry, AddressScheme::RoRaBgBaCoCh),
            rng: SmallRng::seed_from_u64(seed),
            position: 0,
        }
    }

    /// The attack pattern being generated.
    pub fn kind(&self) -> AttackKind {
        self.kind
    }

    fn geometry(&self) -> &DramGeometry {
        self.mapper.geometry()
    }

    fn addr_for(&self, bank: usize, row: usize) -> DramAddr {
        let g = self.geometry();
        let banks_per_rank = g.banks_per_rank();
        let channel = bank / g.banks_per_channel();
        let in_channel = bank % g.banks_per_channel();
        DramAddr {
            channel,
            rank: in_channel / banks_per_rank,
            bank_group: (in_channel % banks_per_rank) / g.banks_per_bank_group,
            bank: (in_channel % banks_per_rank) % g.banks_per_bank_group,
            row: row % g.rows_per_bank,
            column: 0,
        }
    }
}

impl TraceSource for AttackTrace {
    fn next_record(&mut self) -> TraceRecord {
        // Attacks sweep every bank of every channel, so each per-channel
        // tracker shard faces the same adversarial pressure.
        let banks = self.geometry().total_banks();
        let addr = match self.kind {
            AttackKind::Traditional { rows_per_bank } => {
                // Round-robin over (bank, aggressor row) pairs; aggressors are spaced
                // two rows apart so their victim sets do not overlap.
                let bank = self.position % banks;
                let row_index = (self.position / banks) % rows_per_bank;
                self.addr_for(bank, 2 * row_index + 1)
            }
            AttackKind::CometTargeted { rows_per_bank } => {
                // Sweep a large set of distinct rows in one bank at a time so each
                // reaches the preventive refresh threshold and competes for RAT slots.
                let bank = (self.position / (rows_per_bank * 64)) % banks;
                let row_index = self.position % rows_per_bank;
                self.addr_for(bank, 4 * row_index + 1)
            }
            AttackKind::HydraTargeted { groups_per_bank, rows_per_group } => {
                // Touch a random row of a random group: group counters climb while no
                // individual row gets hammered.
                let bank = self.rng.gen_range(0..banks);
                let group = self.rng.gen_range(0..groups_per_bank);
                let row_in_group = self.rng.gen_range(0..rows_per_group);
                self.addr_for(bank, group * rows_per_group + row_in_group)
            }
        };
        self.position = self.position.wrapping_add(1);
        TraceRecord { gap: 0, addr: self.mapper.unmap(&addr), is_write: false }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn decode(trace: &mut AttackTrace, n: usize) -> Vec<DramAddr> {
        let mapper = AddressMapper::new(trace.geometry().clone(), AddressScheme::RoRaBgBaCoCh);
        (0..n).map(|_| mapper.map(trace.next_record().addr)).collect()
    }

    #[test]
    fn traditional_attack_hammers_fixed_rows_across_banks() {
        let g = DramGeometry::paper_default();
        let mut t = AttackTrace::new(AttackKind::Traditional { rows_per_bank: 4 }, g.clone(), 0);
        let addrs = decode(&mut t, 10_000);
        let banks: HashSet<usize> = addrs.iter().map(|a| a.flat_bank(&g)).collect();
        assert_eq!(banks.len(), g.banks_per_channel(), "attack must cover all banks");
        let rows: HashSet<usize> = addrs.iter().map(|a| a.row).collect();
        assert_eq!(rows.len(), 4, "exactly rows_per_bank distinct rows per bank");
        // Every record is back-to-back.
        let mut t2 = AttackTrace::new(AttackKind::Traditional { rows_per_bank: 4 }, g, 0);
        assert!((0..100).all(|_| t2.next_record().gap == 0));
    }

    #[test]
    fn traditional_attack_repeats_each_row_many_times() {
        let g = DramGeometry::paper_default();
        let mut t = AttackTrace::new(AttackKind::Traditional { rows_per_bank: 2 }, g.clone(), 0);
        let addrs = decode(&mut t, 6400);
        let mut per_row: HashMap<(usize, usize), usize> = HashMap::new();
        for a in &addrs {
            *per_row.entry((a.flat_bank(&g), a.row)).or_insert(0) += 1;
        }
        // 6400 accesses over 32 banks × 2 rows = 100 activations per aggressor.
        for (&key, &count) in &per_row {
            assert_eq!(count, 100, "row {key:?}");
        }
    }

    #[test]
    fn comet_targeted_attack_uses_many_distinct_rows_per_bank() {
        let g = DramGeometry::paper_default();
        let rows_per_bank = 512; // well above the 128-entry RAT
        let mut t = AttackTrace::new(AttackKind::CometTargeted { rows_per_bank }, g.clone(), 0);
        let addrs = decode(&mut t, rows_per_bank * 8);
        let first_bank = addrs[0].flat_bank(&g);
        let rows_in_first_bank: HashSet<usize> =
            addrs.iter().filter(|a| a.flat_bank(&g) == first_bank).map(|a| a.row).collect();
        assert!(rows_in_first_bank.len() > 128, "must exceed RAT capacity");
    }

    #[test]
    fn hydra_targeted_attack_spreads_within_groups() {
        let g = DramGeometry::paper_default();
        let mut t = AttackTrace::new(
            AttackKind::HydraTargeted { groups_per_bank: 8, rows_per_group: 128 },
            g.clone(),
            3,
        );
        let addrs = decode(&mut t, 20_000);
        let groups: HashSet<usize> = addrs.iter().map(|a| a.row / 128).collect();
        assert!(groups.len() <= 8);
        // No single row is hammered heavily.
        let mut per_row: HashMap<usize, usize> = HashMap::new();
        for a in &addrs {
            *per_row.entry(a.row).or_insert(0) += 1;
        }
        let max = per_row.values().max().copied().unwrap_or(0);
        assert!(max < 200, "no row should be heavily hammered (max = {max})");
    }

    #[test]
    fn attack_names_are_stable() {
        let g = DramGeometry::paper_default();
        assert_eq!(
            AttackTrace::new(AttackKind::Traditional { rows_per_bank: 1 }, g.clone(), 0).name(),
            "attack-traditional"
        );
        assert_eq!(
            AttackTrace::new(AttackKind::CometTargeted { rows_per_bank: 1 }, g.clone(), 0).name(),
            "attack-comet-targeted"
        );
        assert_eq!(
            AttackTrace::new(AttackKind::HydraTargeted { groups_per_bank: 1, rows_per_group: 128 }, g, 0)
                .name(),
            "attack-hydra-targeted"
        );
    }
}
