//! # comet-bench
//!
//! The `experiments`, `perf` and `service` binaries for the CoMeT
//! reproduction.
//!
//! * `cargo run -p comet-bench --release --bin experiments -- all` regenerates
//!   every table and figure of the paper's evaluation (see DESIGN.md for the
//!   experiment index and `experiments -- help` for the individual targets).
//! * `cargo run -p comet-bench --release --bin perf` times the hot-path
//!   basket ([`hotpath`]) and, with `--tracker`, the per-mechanism tracker
//!   microbench suite ([`tracker`]).
//!
//! This library crate only hosts shared helpers for the binaries and the
//! bit-exactness suites.

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

/// Extracts the first number stored under `"key":` in a JSON document.
///
/// The offline `serde_json` stand-in has no deserializer, so the perf harness
/// reads back the handful of scalar fields it needs (e.g. the CI reference
/// throughput in `BENCH_hotpath.json`) with this minimal scanner. It only
/// supports the flat `"key": <number>` shape the harness itself emits.
pub fn extract_json_number(text: &str, key: &str) -> Option<f64> {
    let raw = extract_json_raw(text, key)?;
    raw.parse::<f64>().ok()
}

/// Extracts the first string stored under `"key":` in a JSON document.
/// Escape sequences are not decoded (the harness never emits any in the
/// fields it reads back).
pub fn extract_json_string(text: &str, key: &str) -> Option<String> {
    let raw = extract_json_raw(text, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

/// One basket cell's headline numbers extracted from a perf snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Stable cell label (`429.mcf/ch2/CoMeT`, ...).
    pub label: String,
    /// Simulated demand accesses per wall-clock second.
    pub accesses_per_sec: f64,
    /// Wall-clock seconds spent simulating the cell.
    pub wall_s: f64,
    /// Raw checksum token as it appears in the snapshot, when present.
    /// Kept as text: a u64 checksum does not round-trip through `f64`.
    pub checksum: Option<String>,
}

/// Extracts the per-cell results of the `"full"` or `"smoke"` basket section
/// from a perf snapshot, for `perf --diff`. Returns an empty vector when the
/// snapshot has no such section (e.g. `"smoke": null`). Same offline-parser
/// caveats as [`extract_json_number`]: only the shapes the perf harness
/// itself emits are supported.
pub fn extract_scope_cells(text: &str, scope: &str) -> Vec<CellSummary> {
    let Some(section) = balanced_after_key(text, scope, '{', '}') else {
        return Vec::new();
    };
    let Some(array) = balanced_after_key(section, "cells", '[', ']') else {
        return Vec::new();
    };
    let mut cells = Vec::new();
    let mut rest = array.strip_prefix('[').unwrap_or(array);
    while let Some((start, end)) = balanced_range(rest, '{', '}') {
        let object = &rest[start..end];
        if let (Some(label), Some(accesses_per_sec), Some(wall_s)) = (
            extract_json_string(object, "label"),
            extract_json_number(object, "accesses_per_sec"),
            extract_json_number(object, "wall_s"),
        ) {
            let checksum = extract_json_raw(object, "checksum");
            cells.push(CellSummary { label, accesses_per_sec, wall_s, checksum });
        }
        rest = &rest[end..];
    }
    cells
}

/// The basket-level aggregate accesses/sec of a snapshot's `"full"` or
/// `"smoke"` section, if present.
pub fn extract_scope_accesses_per_sec(text: &str, scope: &str) -> Option<f64> {
    // The basket-level field precedes the per-cell array in the emitted
    // struct order, so the first occurrence within the section is the
    // aggregate.
    extract_json_number(balanced_after_key(text, scope, '{', '}')?, "accesses_per_sec")
}

/// Finds `"key":` (as a key, not a string value) and returns the balanced
/// `open…close` span of its value, or `None` when the key is missing or its
/// value does not start with `open` (e.g. `null`).
fn balanced_after_key<'a>(text: &'a str, key: &str, open: char, close: char) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let after = &text[from + pos + needle.len()..];
        let trimmed = after.trim_start();
        if let Some(value) = trimmed.strip_prefix(':') {
            let value = value.trim_start();
            if value.starts_with(open) {
                return balanced_span(value, open, close);
            }
            return None;
        }
        // Matched a string *value* that happens to equal the key; keep going.
        from += pos + needle.len();
    }
    None
}

/// Returns the span of `text` from its first `open` to the matching `close`,
/// skipping over string literals (escape sequences are not handled; the perf
/// harness never emits any).
fn balanced_span(text: &str, open: char, close: char) -> Option<&str> {
    balanced_range(text, open, close).map(|(start, end)| &text[start..end])
}

/// Byte range of the first balanced `open…close` span of `text`.
fn balanced_range(text: &str, open: char, close: char) -> Option<(usize, usize)> {
    let start = text.find(open)?;
    let mut depth = 0usize;
    let mut in_string = false;
    for (i, c) in text[start..].char_indices() {
        if in_string {
            if c == '"' {
                in_string = false;
            }
            continue;
        }
        if c == '"' {
            in_string = true;
        } else if c == open {
            depth += 1;
        } else if c == close {
            depth -= 1;
            if depth == 0 {
                return Some((start, start + i + c.len_utf8()));
            }
        }
    }
    None
}

fn extract_json_raw(text: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\"");
    let start = text.find(&needle)? + needle.len();
    let rest = text[start..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .char_indices()
        .scan(false, |in_string, (i, c)| {
            if c == '"' {
                if *in_string {
                    return Some(Some(i + 1));
                }
                *in_string = true;
            } else if !*in_string && (c == ',' || c == '}' || c == ']' || c.is_whitespace()) {
                return Some(Some(i));
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    let raw = rest[..end].trim();
    if raw.is_empty() {
        None
    } else {
        Some(raw.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn scope_cell_extraction() {
        let text = r#"{
  "schema": "bench-hotpath/1",
  "smoke_accesses_per_sec": 1.0,
  "full": null,
  "smoke": {
    "scope": "smoke",
    "wall_s": 2.5,
    "accesses": 100,
    "accesses_per_sec": 40.0,
    "cells_per_sec": 0.8,
    "cells": [
      { "label": "429.mcf/ch1/Baseline", "channels": 1, "mechanism": "Baseline",
        "accesses": 60, "dram_cycles": 1000, "wall_s": 1.0, "accesses_per_sec": 60.0, "checksum": 1 },
      { "label": "473.astar+attack/ch1/CoMeT", "channels": 1, "mechanism": "CoMeT",
        "accesses": 40, "dram_cycles": 1000, "wall_s": 1.5, "accesses_per_sec": 26.7, "checksum": 2 }
    ]
  }
}"#;
        let cells = extract_scope_cells(text, "smoke");
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label, "429.mcf/ch1/Baseline");
        assert_eq!(cells[0].accesses_per_sec, 60.0);
        assert_eq!(cells[1].wall_s, 1.5);
        // The aggregate is the basket-level field, not a per-cell one.
        assert_eq!(extract_scope_accesses_per_sec(text, "smoke"), Some(40.0));
        // A `null` section and a missing section both yield nothing.
        assert!(extract_scope_cells(text, "full").is_empty());
        assert!(extract_scope_cells(text, "nope").is_empty());
        assert_eq!(extract_scope_accesses_per_sec(text, "full"), None);
    }

    #[test]
    fn json_scalar_extraction() {
        let text = r#"{
  "label": "before: PR1",
  "full_accesses_per_sec": 12345.6,
  "nested": { "ci_reference_smoke_accesses_per_sec": 999 },
  "missing_value": null
}"#;
        assert_eq!(extract_json_string(text, "label"), Some("before: PR1".to_string()));
        assert_eq!(extract_json_number(text, "full_accesses_per_sec"), Some(12345.6));
        assert_eq!(extract_json_number(text, "ci_reference_smoke_accesses_per_sec"), Some(999.0));
        assert_eq!(extract_json_number(text, "nope"), None);
        assert_eq!(extract_json_number(text, "missing_value"), None);
        assert_eq!(extract_json_string(text, "full_accesses_per_sec"), None);
    }
}
