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
//! This library crate only hosts shared helpers for the binaries and the
//! bit-exactness suites. `perf` reads earlier snapshots back through the
//! derived `Deserialize` of [`hotpath::BasketResult`].

use comet_sim::experiments::ExperimentScope;

pub mod hotpath;
pub mod tracker;

/// Parses the `--scope` argument used by the experiments binary.
pub fn parse_scope(value: &str) -> Option<ExperimentScope> {
    match value {
        "smoke" => Some(ExperimentScope::Smoke),
        "quick" => Some(ExperimentScope::Quick),
        "full" => Some(ExperimentScope::Full),
        _ => None,
    }
}

/// Formats a float with a fixed number of decimals for table output.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotpath::BasketResult;
    use serde::{Deserialize, Value};

    #[test]
    fn scope_parsing() {
        assert_eq!(parse_scope("smoke"), Some(ExperimentScope::Smoke));
        assert_eq!(parse_scope("quick"), Some(ExperimentScope::Quick));
        assert_eq!(parse_scope("full"), Some(ExperimentScope::Full));
        assert_eq!(parse_scope("nope"), None);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(0.12345, 3), "0.123");
    }

    #[test]
    fn committed_snapshots_decode() {
        let hotpath = serde_json::from_str(include_str!("../../../BENCH_hotpath.json")).unwrap();
        let basket = |name: &str| BasketResult::from_value(hotpath.get(name).unwrap()).unwrap();
        let (full, smoke) = (basket("full"), basket("smoke"));
        assert_eq!((full.cells.len(), smoke.cells.len()), (36, 18));
        assert_eq!(smoke.cells[0].label, "429.mcf/ch1/Baseline");
        assert_eq!(smoke.cells[0].checksum, 0x17450226fc1acb42);
        assert_eq!(smoke.cells[17].label, "473.astar+attack/ch4/CoMeT");
        let top = |key: &str| hotpath.get(key).and_then(Value::as_f64);
        // The top-level headline duplicates the basket-level aggregate.
        assert_eq!(top("smoke_accesses_per_sec"), Some(smoke.accesses_per_sec));
        assert_eq!(top("ci_reference_smoke_accesses_per_sec"), Some(678336.7267623901));

        let tracker = serde_json::from_str(include_str!("../../../BENCH_tracker.json")).unwrap();
        assert_eq!(tracker.get("label").and_then(Value::as_str), Some("hot-path basket"));
        assert!(tracker.get("full").is_none());
        let tracker = BasketResult::from_value(tracker.get("tracker").unwrap()).unwrap();
        assert_eq!(tracker.cells.len(), 12);
        // A checksum above `i64::MAX` decodes exactly.
        assert_eq!(tracker.cells[4].label, "Graphene/spray");
        assert_eq!(tracker.cells[4].checksum, 0xed2cc66a19423709);
    }
}
