//! Per-mechanism tracker-core microbenchmarks: a pure ACT-stream driver.
//!
//! The hot-path basket (`hotpath.rs`) measures whole simulations — CPU model,
//! scheduler, DRAM timing, tracker. The cells here isolate the *tracker core*:
//! a deterministic activation stream is fed straight into one
//! [`RowHammerMitigation`](comet_mitigations::RowHammerMitigation) instance
//! with no DRAM model in between, so the wall-clock is the per-activation
//! cost of the mechanism's own bookkeeping (CMS walks, Misra-Gries table
//! updates, Hydra's filter/RCC path, BlockHammer's dual Bloom filters).
//! `perf --tracker` runs the suite and records it in `BENCH_tracker.json`;
//! `perf --diff` renders the per-mechanism speedup table.
//!
//! Every cell also folds its final mitigation statistics (plus the response
//! stream it observed) into a checksum. The checksum must be identical across
//! tracker-core rewrites — it is the microbench's own bit-exactness guard,
//! complementing the simulation goldens in `bitexact_hotpath.rs`.

use comet_dram::{Cycle, DramAddr, DramConfig, DramGeometry};
use comet_sim::MechanismKind;
use comet_sim::MechanismRegistry;
use std::time::Instant;

/// RowHammer threshold the microbenches run at — the attack regime where
/// trackers do real work (aggressors identified, RAT churn, filter pressure).
pub const TRACKER_NRH: u64 = 250;

/// Base seed, matching the hot-path basket's.
pub const TRACKER_SEED: u64 = 0xC0E7;

/// Activations per timed repetition of one cell.
pub const TRACKER_ACTS: u64 = 1_000_000;

/// Timed repetitions per cell; the fastest is reported (the usual microbench
/// convention — slower reps measure the machine, not the code).
pub const TRACKER_REPS: usize = 3;

/// Cycles between consecutive activations fed to the tracker (~20 ns at the
/// paper's controller clock — the fastest an attacker can activate).
pub const TRACKER_NOW_STEP: u64 = 24;

/// The adversarial activation streams each mechanism is driven with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerStream {
    /// Traditional many-sided hammer: 8 aggressor rows per bank, round-robin
    /// over every bank — few distinct rows, maximal per-row pressure.
    Hammer,
    /// CoMeT-targeted spray: 512 distinct rows per bank in long per-bank
    /// bursts — exceeds the RAT, thrashes tracker tables.
    Spray,
    /// Pseudo-random rows and banks — the pointer-chasing worst case for
    /// table locality.
    Random,
}

impl TrackerStream {
    /// Stable stream name used in cell labels.
    pub fn name(&self) -> &'static str {
        match self {
            TrackerStream::Hammer => "hammer",
            TrackerStream::Spray => "spray",
            TrackerStream::Random => "random",
        }
    }
}

/// One microbench cell: a mechanism driven by one activation stream.
#[derive(Debug, Clone, Copy)]
pub struct TrackerCell {
    /// Mechanism under test.
    pub mechanism: MechanismKind,
    /// Activation stream driving it.
    pub stream: TrackerStream,
}

/// Result of one tracker cell: activations per second plus the bit-exactness
/// checksum over final statistics and the observed response stream.
#[derive(Debug, Clone)]
pub struct TrackerCellResult {
    /// `<Mechanism>/<stream>` label.
    pub label: String,
    /// Mechanism name.
    pub mechanism: String,
    /// Activations driven per repetition.
    pub acts: u64,
    /// Wall-clock seconds of the fastest repetition.
    pub wall_s: f64,
    /// Activations per second (fastest repetition).
    pub acts_per_sec: f64,
    /// Checksum over final stats + response tallies (rewrite invariant).
    pub checksum: u64,
}

/// The tracker microbench suite: every tracking mechanism with per-activation
/// work, crossed with every adversarial stream.
pub fn tracker_suite() -> Vec<TrackerCell> {
    let mechanisms =
        [MechanismKind::Comet, MechanismKind::Graphene, MechanismKind::Hydra, MechanismKind::BlockHammer];
    let streams = [TrackerStream::Hammer, TrackerStream::Spray, TrackerStream::Random];
    let mut cells = Vec::new();
    for mechanism in mechanisms {
        for stream in streams {
            cells.push(TrackerCell { mechanism, stream });
        }
    }
    cells
}

impl TrackerCell {
    /// Stable label: `CoMeT/hammer`, `Graphene/spray`, ...
    pub fn label(&self) -> String {
        format!("{}/{}", self.mechanism.name(), self.stream.name())
    }

    /// Runs the cell: [`TRACKER_REPS`] repetitions of [`TRACKER_ACTS`]
    /// activations against a fresh mechanism instance, reporting the fastest.
    pub fn run(&self) -> TrackerCellResult {
        self.run_sized(TRACKER_ACTS, TRACKER_REPS)
    }

    /// Runs the cell with explicit activation count and repetitions (tests
    /// use small sizes).
    pub fn run_sized(&self, acts: u64, reps: usize) -> TrackerCellResult {
        let dram = DramConfig::ddr4_paper_default();
        let registry = MechanismRegistry::with_defaults();
        let mut best_wall = f64::INFINITY;
        let mut checksum = 0u64;
        for rep in 0..reps.max(1) {
            let mut mechanism = registry
                .build(self.mechanism, TRACKER_NRH, &dram, TRACKER_SEED, 0)
                .expect("built-in mechanism must build");
            let mut stream = ActStream::new(self.stream, dram.geometry.clone());
            let mut tally = ResponseTally::default();
            let mut now: Cycle = 0;
            let started = Instant::now();
            for _ in 0..acts {
                let addr = stream.next_addr();
                let response = mechanism.on_activation(&addr, now, 1);
                tally.absorb(&addr, &response);
                if response.refresh_rank {
                    mechanism.on_rank_refreshed(addr.rank, now);
                }
                now += TRACKER_NOW_STEP;
            }
            let wall = started.elapsed().as_secs_f64();
            let rep_checksum = tally.checksum(&mechanism.stats());
            if rep == 0 {
                checksum = rep_checksum;
            } else {
                assert_eq!(rep_checksum, checksum, "tracker cell {} is nondeterministic", self.label());
            }
            if wall < best_wall {
                best_wall = wall;
            }
        }
        TrackerCellResult {
            label: self.label(),
            mechanism: self.mechanism.name().to_string(),
            acts,
            wall_s: best_wall,
            acts_per_sec: if best_wall > 0.0 { acts as f64 / best_wall } else { 0.0 },
            checksum,
        }
    }
}

/// Deterministic activation-stream generator (no allocation per step).
struct ActStream {
    kind: TrackerStream,
    geometry: DramGeometry,
    position: u64,
    lcg: u64,
}

impl ActStream {
    fn new(kind: TrackerStream, geometry: DramGeometry) -> Self {
        ActStream { kind, geometry, position: 0, lcg: TRACKER_SEED | 1 }
    }

    /// In-channel (bank, row) → `DramAddr`, mirroring the attack traces'
    /// decomposition (one tracker instance protects one channel).
    fn addr_for(&self, bank: usize, row: usize) -> DramAddr {
        let g = &self.geometry;
        let banks_per_rank = g.banks_per_rank();
        DramAddr {
            channel: 0,
            rank: bank / banks_per_rank,
            bank_group: (bank % banks_per_rank) / g.banks_per_bank_group,
            bank: (bank % banks_per_rank) % g.banks_per_bank_group,
            row: row % g.rows_per_bank,
            column: 0,
        }
    }

    fn next_addr(&mut self) -> DramAddr {
        let banks = self.geometry.banks_per_channel();
        let position = self.position;
        self.position = position.wrapping_add(1);
        match self.kind {
            TrackerStream::Hammer => {
                let bank = (position % banks as u64) as usize;
                let row = 2 * ((position / banks as u64) % 8) as usize + 1;
                self.addr_for(bank, row)
            }
            TrackerStream::Spray => {
                const ROWS: u64 = 512;
                let bank = ((position / (ROWS * 64)) % banks as u64) as usize;
                let row = 4 * (position % ROWS) as usize + 1;
                self.addr_for(bank, row)
            }
            TrackerStream::Random => {
                self.lcg = self.lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let bank = ((self.lcg >> 33) % banks as u64) as usize;
                let row = ((self.lcg >> 13) % 4096) as usize;
                self.addr_for(bank, row)
            }
        }
    }
}

/// Folds the response stream into a few tallies for the checksum (and keeps
/// the optimizer from discarding the tracker's outputs).
#[derive(Debug, Default)]
struct ResponseTally {
    responses: u64,
    victim_rows: u64,
    victim_row_sum: u64,
    rank_refreshes: u64,
    counter_reads: u64,
    counter_writes: u64,
    throttle_cycles: u64,
}

impl ResponseTally {
    fn absorb(&mut self, _addr: &DramAddr, response: &comet_mitigations::MitigationResponse) {
        self.responses += 1;
        self.victim_rows += response.refresh_victims.len() as u64;
        for victim in &response.refresh_victims {
            self.victim_row_sum = self.victim_row_sum.wrapping_add(victim.row as u64);
        }
        if response.refresh_rank {
            self.rank_refreshes += 1;
        }
        self.counter_reads += response.counter_reads as u64;
        self.counter_writes += response.counter_writes as u64;
        self.throttle_cycles += response.throttle_cycles;
    }

    fn checksum(&self, stats: &comet_mitigations::MitigationStats) -> u64 {
        let mut hash = 0xcbf29ce484222325u64;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
        };
        mix(self.responses);
        mix(self.victim_rows);
        mix(self.victim_row_sum);
        mix(self.rank_refreshes);
        mix(self.counter_reads);
        mix(self.counter_writes);
        mix(self.throttle_cycles);
        mix(stats.activations_observed);
        mix(stats.preventive_refreshes);
        mix(stats.aggressors_identified);
        mix(stats.early_rank_refreshes);
        mix(stats.counter_reads);
        mix(stats.counter_writes);
        mix(stats.throttled_activations);
        mix(stats.throttle_cycles);
        mix(stats.periodic_resets);
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_every_tracking_mechanism_and_stream() {
        let suite = tracker_suite();
        assert_eq!(suite.len(), 12);
        let labels: Vec<String> = suite.iter().map(|c| c.label()).collect();
        for needle in ["CoMeT/hammer", "Graphene/spray", "Hydra/random", "BlockHammer/hammer"] {
            assert!(labels.iter().any(|l| l == needle), "missing {needle}");
        }
    }

    #[test]
    fn cells_are_deterministic_and_do_tracker_work() {
        for cell in tracker_suite() {
            let a = cell.run_sized(20_000, 1);
            let b = cell.run_sized(20_000, 1);
            assert_eq!(a.checksum, b.checksum, "{} must be deterministic", a.label);
            assert!(a.acts_per_sec > 0.0);
        }
        // The attack streams actually push the trackers into their aggressor
        // paths: CoMeT under the hammer stream must identify aggressors.
        let comet = TrackerCell { mechanism: MechanismKind::Comet, stream: TrackerStream::Hammer }
            .run_sized(50_000, 1);
        assert_ne!(comet.checksum, 0);
    }

    #[test]
    fn streams_cover_all_banks() {
        let geometry = DramConfig::ddr4_paper_default().geometry;
        for kind in [TrackerStream::Hammer, TrackerStream::Spray, TrackerStream::Random] {
            let mut stream = ActStream::new(kind, geometry.clone());
            // The spray stream dwells on one bank for 512 × 64 activations, so
            // walk far enough for every stream to finish a full bank rotation.
            let steps = 512 * 64 * geometry.banks_per_channel() + 1;
            let banks: std::collections::HashSet<usize> = (0..steps)
                .map(|_| {
                    let a = stream.next_addr();
                    a.flat_bank(&geometry)
                })
                .collect();
            assert_eq!(banks.len(), geometry.banks_per_channel(), "{kind:?} must touch every bank");
        }
    }
}
