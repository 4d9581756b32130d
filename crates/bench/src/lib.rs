//! # comet-bench
//!
//! The `experiments`, `perf` and `service` binaries for the CoMeT
//! reproduction.
//!
//! * `cargo run -p comet-bench --release --bin experiments -- all` regenerates
//!   every table and figure of the paper's evaluation (`experiments -- help`
//!   lists the individual targets; README's "Reproducing the paper's figures"
//!   shows the common invocations).
//! * `cargo run -p comet-bench --release --bin perf` times the hot-path
//!   basket ([`hotpath`]) and, with `--tracker`, the per-mechanism tracker
//!   microbench suite ([`tracker`]).
//!
//! This library crate hosts what the binaries and the bit-exactness suites
//! share, and [`Snapshot`], the one record `perf` writes and `perf --diff`
//! reads back.

use hotpath::{BasketResult, SuiteResult};
use serde::{Deserialize, Serialize};

pub mod hotpath;
pub mod tracker;

/// Schema tag of every [`Snapshot`].
pub const SNAPSHOT_SCHEMA: &str = "bench-perf/2";

/// One `perf` run: the sections it ran, as measured, and nothing derived
/// from them. A basket run fills `full` and/or `smoke` (and `suite` with
/// `--suite`); a `--tracker` run fills `tracker`. `perf --diff` compares the
/// sections two snapshots share.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// [`SNAPSHOT_SCHEMA`].
    pub schema: String,
    /// Free-text description of the run (`perf --label`).
    pub label: String,
    /// The full hot-path basket.
    pub full: Option<BasketResult>,
    /// The smoke hot-path basket.
    pub smoke: Option<BasketResult>,
    /// The tracker microbench suite, one cell per (mechanism, ACT stream),
    /// with activations counted as accesses.
    pub tracker: Option<BasketResult>,
    /// The experiment-suite wall-clock (smoke scope, serial).
    pub suite: Option<SuiteResult>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a committed snapshot and checks that it is byte for byte what
    /// `perf` would write for it.
    fn committed(text: &str) -> Snapshot {
        let snapshot = Snapshot::from_value(&serde_json::from_str(text).unwrap()).unwrap();
        assert_eq!(serde_json::to_string_pretty(&snapshot).unwrap() + "\n", text);
        assert_eq!(snapshot.schema, SNAPSHOT_SCHEMA);
        snapshot
    }

    #[test]
    fn committed_snapshots_decode() {
        let hotpath = committed(include_str!("../../../BENCH_hotpath.json"));
        let (full, smoke) = (hotpath.full.unwrap(), hotpath.smoke.unwrap());
        assert_eq!((full.cells.len(), smoke.cells.len()), (36, 18));
        assert_eq!(smoke.cells[0].label, "429.mcf/ch1/Baseline");
        assert_eq!(smoke.cells[0].checksum, 0x17450226fc1acb42);
        assert_eq!(smoke.cells[17].label, "473.astar+attack/ch4/CoMeT");
        // CI's `--diff … --max-regress 70` gate sets its floor from this.
        assert_eq!(smoke.accesses_per_sec, 678336.7267623901);
        assert!(hotpath.tracker.is_none());
        assert_eq!(hotpath.suite.unwrap().targets.len(), 13);

        let tracker = committed(include_str!("../../../BENCH_tracker.json"));
        assert_eq!(tracker.label, "tracker microbench");
        assert!(tracker.full.is_none() && tracker.smoke.is_none() && tracker.suite.is_none());
        let tracker = tracker.tracker.unwrap();
        assert_eq!(tracker.cells.len(), 12);
        // A checksum above `i64::MAX` decodes exactly.
        assert_eq!(tracker.cells[4].label, "Graphene/spray");
        assert_eq!(tracker.cells[4].checksum, 0xed2cc66a19423709);
    }
}
