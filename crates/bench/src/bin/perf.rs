//! Hot-path performance harness: times the fixed basket of sweep cells and
//! records the result in `BENCH_hotpath.json`.
//!
//! Usage:
//!
//! ```text
//! perf [--cells smoke|full|all] [--suite] [--out FILE] [--label TEXT] [--before FILE]
//!      [--spans OUT.jsonl]
//! perf --tracker [--out FILE] [--label TEXT] [--before FILE]
//! perf --check FILE [--max-regress PCT]
//! perf --diff OLD.json NEW.json
//! perf --print-goldens
//! ```
//!
//! * Default mode runs the requested basket(s), prints a per-cell table, and
//!   (with `--out`) writes a JSON snapshot. `--before FILE` embeds the
//!   headline numbers of an earlier snapshot and the resulting speedup.
//! * `--check FILE` re-times the smoke basket and exits non-zero when the
//!   measured accesses/sec fall more than `--max-regress` percent (default
//!   30) below the `ci_reference_smoke_accesses_per_sec` recorded in FILE —
//!   the CI bench-smoke regression gate.
//! * `--diff OLD NEW` compares two snapshots without running anything: a
//!   per-cell speedup table (Markdown, so it can be piped straight into a CI
//!   job summary) plus basket, attack-cell, and suite aggregates. Every cell
//!   carries a checksum of its simulated state, so the diff is also a
//!   bit-exactness check: it exits 1, after printing the report, when any
//!   cell present in both snapshots has a different checksum.
//! * `--print-goldens` runs the smoke basket and the FCFS stress cells and
//!   prints the golden checksum tables consumed by
//!   `crates/bench/tests/bitexact_hotpath.rs`.
//! * `--spans OUT.jsonl` enables span tracing for the run and drains the
//!   collected spans (one JSON object per line: name, thread, start, and
//!   duration in microseconds) to the given file on exit. Tracing is off by
//!   default and costs one relaxed atomic load per span site when disabled,
//!   so a plain `perf` run measures the same hot path as ever.
//! * `--suite` also times every simulation-driven target of the experiment
//!   suite (smoke scope, serial executor) and records the wall-clock.
//! * `--tracker` runs the per-mechanism tracker microbench suite (ACT
//!   streams fed straight to the trackers, no DRAM model) instead of the
//!   baskets; `--diff` against an earlier tracker snapshot fails on any cell
//!   whose state checksum drifted.
//!
//! Every basket cell runs through the serial event-driven loop, one cell at
//! a time, so the numbers are not confounded by parallel cell execution.

use comet_bench::hotpath::CellResult;
use comet_bench::hotpath::{
    run_basket, run_cells, run_suite_smoke_serial, stress_basket, BasketResult, HotpathScope, SuiteResult,
};
use comet_bench::tracker::{tracker_suite, TRACKER_NOW_STEP};
use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, Serialize)]
struct BeforeSummary {
    label: String,
    full_accesses_per_sec: Option<f64>,
    smoke_accesses_per_sec: Option<f64>,
    suite_wall_s: Option<f64>,
}

#[derive(Debug, Clone, Serialize)]
struct Snapshot {
    schema: &'static str,
    label: String,
    /// Headline metrics, duplicated at the top level, where the CI gate
    /// (`--check`) and `--before` read them.
    full_accesses_per_sec: Option<f64>,
    smoke_accesses_per_sec: Option<f64>,
    /// Wall-clock of the full experiment suite (smoke scope, serial) — the
    /// macro benchmark; see `hotpath::run_suite_smoke_serial`.
    suite_wall_s: Option<f64>,
    /// The reference number the CI bench-smoke job regresses against.
    ci_reference_smoke_accesses_per_sec: Option<f64>,
    full: Option<BasketResult>,
    smoke: Option<BasketResult>,
    suite: Option<SuiteResult>,
    before: Option<BeforeSummary>,
    speedup_full: Option<f64>,
    speedup_smoke: Option<f64>,
    speedup_suite: Option<f64>,
}

/// Reads and parses a snapshot written by an earlier `perf` run.
fn read_snapshot(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// A snapshot's top-level label, or `default`.
fn label(snapshot: &Value, default: &str) -> String {
    snapshot.get("label").and_then(Value::as_str).unwrap_or(default).to_string()
}

/// A snapshot's non-empty `full`, `smoke` or `tracker` basket section.
fn basket(snapshot: &Value, scope: &str) -> Option<BasketResult> {
    BasketResult::from_value(snapshot.get(scope)?).ok().filter(|basket| !basket.cells.is_empty())
}

struct Args {
    scopes: Vec<HotpathScope>,
    suite: bool,
    tracker: bool,
    out: Option<PathBuf>,
    label: String,
    before: Option<PathBuf>,
    check: Option<PathBuf>,
    diff: Option<(PathBuf, PathBuf)>,
    max_regress_pct: f64,
    print_goldens: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scopes: vec![HotpathScope::Full],
        suite: false,
        tracker: false,
        out: None,
        label: "hot-path basket".to_string(),
        before: None,
        check: None,
        diff: None,
        max_regress_pct: 30.0,
        print_goldens: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    let value_for = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("error: {flag} requires a value");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cells" => {
                args.scopes = match value_for(&mut it, "--cells").as_str() {
                    "smoke" => vec![HotpathScope::Smoke],
                    "full" => vec![HotpathScope::Full],
                    "all" => vec![HotpathScope::Full, HotpathScope::Smoke],
                    other => {
                        eprintln!("error: unknown --cells '{other}' (smoke|full|all)");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => args.out = Some(PathBuf::from(value_for(&mut it, "--out"))),
            "--label" => args.label = value_for(&mut it, "--label"),
            "--before" => args.before = Some(PathBuf::from(value_for(&mut it, "--before"))),
            "--check" => args.check = Some(PathBuf::from(value_for(&mut it, "--check"))),
            "--diff" => {
                let old = PathBuf::from(value_for(&mut it, "--diff"));
                let new = PathBuf::from(value_for(&mut it, "--diff"));
                args.diff = Some((old, new));
            }
            "--max-regress" => {
                let value = value_for(&mut it, "--max-regress");
                args.max_regress_pct = value.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --max-regress '{value}'");
                    std::process::exit(2);
                });
            }
            "--suite" => args.suite = true,
            "--tracker" => args.tracker = true,
            "--print-goldens" => args.print_goldens = true,
            "--spans" => args.spans = Some(PathBuf::from(value_for(&mut it, "--spans"))),
            "help" | "--help" | "-h" => {
                println!(
                    "usage: perf [--cells smoke|full|all] [--suite] [--out FILE] [--label TEXT] [--before FILE] [--spans OUT.jsonl]"
                );
                println!("       perf --tracker [--out FILE] [--label TEXT] [--before FILE]");
                println!("       perf --check FILE [--max-regress PCT]");
                println!("       perf --diff OLD.json NEW.json");
                println!("       perf --print-goldens");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    args
}

fn print_basket(result: &BasketResult) {
    println!("\n-- {} basket: {} cells --", result.scope, result.cells.len());
    println!("{:<28} {:>10} {:>9} {:>14} {:>18}", "Cell", "accesses", "wall (s)", "accesses/sec", "checksum");
    for cell in &result.cells {
        println!(
            "{:<28} {:>10} {:>9.3} {:>14.0} {:>18}",
            cell.label,
            cell.accesses,
            cell.wall_s,
            cell.accesses_per_sec,
            format!("{:016x}", cell.checksum)
        );
    }
    println!(
        "total: {} accesses in {:.2} s  ->  {:.0} accesses/sec, {:.2} cells/sec",
        result.accesses, result.wall_s, result.accesses_per_sec, result.cells_per_sec
    );
}

fn run_check(path: &Path, max_regress_pct: f64, out: Option<&PathBuf>) -> ExitCode {
    let snapshot = match read_snapshot(path) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(reference) = snapshot.get("ci_reference_smoke_accesses_per_sec").and_then(Value::as_f64) else {
        eprintln!("error: {} has no ci_reference_smoke_accesses_per_sec", path.display());
        return ExitCode::from(2);
    };
    let current = match run_basket(HotpathScope::Smoke) {
        Ok(result) => {
            print_basket(&result);
            if let Some(out) = out {
                // Write a full snapshot (not a bare basket result) so the
                // artifact can itself be fed back into --check / --before.
                let snapshot = Snapshot {
                    schema: "bench-hotpath/1",
                    label: "bench-smoke gate measurement".to_string(),
                    full_accesses_per_sec: None,
                    smoke_accesses_per_sec: Some(result.accesses_per_sec),
                    suite_wall_s: None,
                    ci_reference_smoke_accesses_per_sec: Some(result.accesses_per_sec),
                    full: None,
                    smoke: Some(result.clone()),
                    suite: None,
                    before: None,
                    speedup_full: None,
                    speedup_smoke: None,
                    speedup_suite: None,
                };
                match serde_json::to_string_pretty(&snapshot) {
                    Ok(json) => {
                        if let Err(e) = std::fs::write(out, json + "\n") {
                            eprintln!("warning: cannot write {}: {e}", out.display());
                        }
                    }
                    Err(e) => eprintln!("warning: cannot serialize smoke snapshot: {e}"),
                }
            }
            result.accesses_per_sec
        }
        Err(e) => {
            eprintln!("error: smoke basket failed: {e}");
            return ExitCode::from(2);
        }
    };
    let floor = reference * (1.0 - max_regress_pct / 100.0);
    println!(
        "\nbench-smoke gate: current {current:.0} accesses/sec vs reference {reference:.0} \
         (floor {floor:.0}, max regression {max_regress_pct:.0}%)"
    );
    if current < floor {
        eprintln!("FAIL: hot-path throughput regressed more than {max_regress_pct:.0}%");
        return ExitCode::FAILURE;
    }
    println!("OK");
    ExitCode::SUCCESS
}

fn print_goldens() -> ExitCode {
    match run_basket(HotpathScope::Smoke) {
        Ok(result) => {
            println!("// Generated by `cargo run -p comet-bench --release --bin perf -- --print-goldens`.");
            println!("const GOLDEN_SMOKE_CHECKSUMS: &[(&str, u64)] = &[");
            for cell in &result.cells {
                println!("    (\"{}\", 0x{:016x}),", cell.label, cell.checksum);
            }
            println!("];");
        }
        Err(e) => {
            eprintln!("error: smoke basket failed: {e}");
            return ExitCode::from(2);
        }
    }
    match run_cells(&stress_basket(), HotpathScope::Smoke) {
        Ok(cells) => {
            println!("const GOLDEN_STRESS_CHECKSUMS: &[(&str, u64)] = &[");
            for cell in &cells {
                println!("    (\"{}\", 0x{:016x}),", cell.label, cell.checksum);
            }
            println!("];");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: stress cells failed: {e}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Clone, Serialize)]
struct TrackerSpeedup {
    label: String,
    speedup: f64,
}

/// Snapshot written by `perf --tracker`: the per-mechanism tracker-core
/// microbench suite (pure ACT-stream driver, no DRAM model). The `tracker`
/// section is a basket result, so `perf --diff` decodes and renders it like
/// the simulation baskets.
#[derive(Debug, Clone, Serialize)]
struct TrackerSnapshot {
    schema: &'static str,
    label: String,
    tracker_acts_per_sec: f64,
    tracker: BasketResult,
    before_label: Option<String>,
    speedups: Vec<TrackerSpeedup>,
    speedup_geomean: Option<f64>,
}

/// Runs the tracker microbench suite and prints/records it.
fn run_tracker(args: &Args) -> ExitCode {
    let mut cells = Vec::new();
    println!("-- tracker microbench suite: {} cells --", tracker_suite().len());
    println!("{:<22} {:>10} {:>9} {:>14} {:>18}", "Cell", "acts", "wall (s)", "acts/sec", "checksum");
    let mut total_acts = 0u64;
    let mut total_wall = 0.0f64;
    for cell in tracker_suite() {
        let result = cell.run();
        println!(
            "{:<22} {:>10} {:>9.3} {:>14.0} {:>18}",
            result.label,
            result.acts,
            result.wall_s,
            result.acts_per_sec,
            format!("{:016x}", result.checksum)
        );
        total_acts += result.acts;
        total_wall += result.wall_s;
        cells.push(CellResult {
            label: result.label,
            channels: 1,
            mechanism: result.mechanism,
            accesses: result.acts,
            dram_cycles: result.acts * TRACKER_NOW_STEP,
            wall_s: result.wall_s,
            accesses_per_sec: result.acts_per_sec,
            checksum: result.checksum,
        });
    }
    let acts_per_sec = if total_wall > 0.0 { total_acts as f64 / total_wall } else { 0.0 };
    println!("total: {total_acts} activations in {total_wall:.2} s  ->  {acts_per_sec:.0} acts/sec");

    let mut snapshot = TrackerSnapshot {
        schema: "bench-tracker/1",
        label: args.label.clone(),
        tracker_acts_per_sec: acts_per_sec,
        tracker: BasketResult {
            scope: "tracker".to_string(),
            wall_s: total_wall,
            accesses: total_acts,
            accesses_per_sec: acts_per_sec,
            cells_per_sec: if total_wall > 0.0 { cells.len() as f64 / total_wall } else { 0.0 },
            cells,
        },
        before_label: None,
        speedups: Vec::new(),
        speedup_geomean: None,
    };

    if let Some(path) = &args.before {
        match read_snapshot(path) {
            Ok(before) => {
                let old_cells = basket(&before, "tracker").map(|b| b.cells).unwrap_or_default();
                snapshot.before_label = Some(label(&before, "before"));
                for cell in &snapshot.tracker.cells {
                    let Some(old) = old_cells.iter().find(|c| c.label == cell.label) else { continue };
                    if old.accesses_per_sec > 0.0 {
                        snapshot.speedups.push(TrackerSpeedup {
                            label: cell.label.clone(),
                            speedup: cell.accesses_per_sec / old.accesses_per_sec,
                        });
                    }
                }
                let ratios: Vec<f64> = snapshot.speedups.iter().map(|s| s.speedup).collect();
                if let Some((g, n)) = geomean(&ratios) {
                    snapshot.speedup_geomean = Some(g);
                    println!(
                        "\nper-cell tracker speedup vs '{}':",
                        snapshot.before_label.as_deref().unwrap_or("before")
                    );
                    for s in &snapshot.speedups {
                        println!("  {:<22} {:.2}x", s.label, s.speedup);
                    }
                    println!("tracker speedup geomean: {g:.2}x over {n} cells");
                }
            }
            Err(e) => eprintln!("warning: --before: {e}"),
        }
    }

    if let Some(out) = &args.out {
        match serde_json::to_string_pretty(&snapshot) {
            Ok(json) => {
                if let Err(e) = std::fs::write(out, json + "\n") {
                    eprintln!("error: cannot write {}: {e}", out.display());
                    return ExitCode::from(2);
                }
                println!("\nwrote {}", out.display());
            }
            Err(e) => {
                eprintln!("error: cannot serialize tracker snapshot: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Geometric mean of per-cell speedups and the number of cells it covers
/// (`None` when no cell has a usable, positive ratio). The count is returned
/// alongside so reports never claim more samples than actually entered the
/// mean — a zero speedup marks a degenerate old measurement and is dropped.
fn geomean(speedups: &[f64]) -> Option<(f64, usize)> {
    let positive: Vec<f64> = speedups.iter().copied().filter(|s| *s > 0.0).collect();
    if positive.is_empty() {
        return None;
    }
    let g = (positive.iter().map(|s| s.ln()).sum::<f64>() / positive.len() as f64).exp();
    Some((g, positive.len()))
}

/// Compares two snapshots cell by cell and prints a Markdown speedup report
/// (suitable for a terminal and for a CI job summary alike). Exits 1 when a
/// cell's checksum drifted, 2 when the snapshots cannot be compared.
fn run_diff(old_path: &Path, new_path: &Path) -> ExitCode {
    let (old, new) = match (read_snapshot(old_path), read_snapshot(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("## perf diff");
    println!();
    println!("before: `{}` — after: `{}`", label(&old, "old"), label(&new, "new"));
    let mut compared_anything = false;
    let mut drifted = 0;
    for scope in ["full", "smoke", "tracker"] {
        let (Some(old_basket), Some(new_basket)) = (basket(&old, scope), basket(&new, scope)) else {
            continue;
        };
        let (old_cells, new_cells) = (&old_basket.cells, &new_basket.cells);
        compared_anything = true;
        let unit = if scope == "tracker" { "acts/s" } else { "acc/s" };
        println!();
        if scope == "tracker" {
            println!("### tracker microbenches (per-mechanism ACT-stream cost)");
        } else {
            println!("### {scope} basket");
        }
        println!();
        println!("| Cell | before {unit} | after {unit} | speedup |");
        println!("|---|---:|---:|---:|");
        let old_by_label: std::collections::HashMap<&str, &CellResult> =
            old_cells.iter().map(|c| (c.label.as_str(), c)).collect();
        let mut speedups = Vec::new();
        let mut attack_speedups = Vec::new();
        let mut by_mechanism: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        let mut checksum_drift = Vec::new();
        for cell in new_cells {
            let Some(old) = old_by_label.get(cell.label.as_str()) else {
                println!("| {} | — | {:.0} | new cell |", cell.label, cell.accesses_per_sec);
                continue;
            };
            let speedup =
                if old.accesses_per_sec > 0.0 { cell.accesses_per_sec / old.accesses_per_sec } else { 0.0 };
            println!(
                "| {} | {:.0} | {:.0} | {speedup:.2}x |",
                cell.label, old.accesses_per_sec, cell.accesses_per_sec
            );
            speedups.push(speedup);
            if cell.label.contains("+attack") {
                attack_speedups.push(speedup);
            }
            if scope == "tracker" {
                if let Some(mechanism) = cell.label.split('/').next() {
                    by_mechanism.entry(mechanism.to_string()).or_default().push(speedup);
                }
            }
            if old.checksum != cell.checksum {
                checksum_drift.push(cell.label.clone());
            }
        }
        for old in old_cells {
            if !new_cells.iter().any(|c| c.label == old.label) {
                println!("| {} | {:.0} | — | removed |", old.label, old.accesses_per_sec);
            }
        }
        println!();
        let (old_agg, new_agg) = (old_basket.accesses_per_sec, new_basket.accesses_per_sec);
        if old_agg > 0.0 {
            println!(
                "- **{scope} aggregate: {:.2}x** ({old_agg:.0} → {new_agg:.0} {unit})",
                new_agg / old_agg
            );
        }
        if let Some((g, n)) = geomean(&speedups) {
            println!("- per-cell speedup geomean: {g:.2}x over {n} cells");
        }
        if let Some((g, n)) = geomean(&attack_speedups) {
            println!("- **attack-cell speedup geomean: {g:.2}x** over {n} cells");
        }
        for (mechanism, ratios) in &by_mechanism {
            if let Some((g, n)) = geomean(ratios) {
                println!("- `{mechanism}` tracker speedup geomean: {g:.2}x over {n} streams");
            }
        }
        if !checksum_drift.is_empty() {
            println!(
                "- ⚠ {scope} checksums drifted for: {} (the simulated state is no longer bit-exact)",
                checksum_drift.join(", ")
            );
            drifted += checksum_drift.len();
        }
    }
    let suite_wall_s = |snapshot: &Value| snapshot.get("suite_wall_s").and_then(Value::as_f64);
    match (suite_wall_s(&old), suite_wall_s(&new)) {
        (Some(old_wall), Some(new_wall)) if new_wall > 0.0 => {
            println!();
            println!(
                "- experiment-suite wall-clock: {:.2}x ({old_wall:.1} s → {new_wall:.1} s)",
                old_wall / new_wall
            );
            compared_anything = true;
        }
        _ => {}
    }
    if !compared_anything {
        eprintln!("error: the snapshots share no basket or suite section to compare");
        return ExitCode::from(2);
    }
    if drifted > 0 {
        eprintln!("FAIL: {drifted} cell checksum(s) drifted");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.spans.is_some() {
        comet_telemetry::set_spans_enabled(true);
    }
    let code = run(&args);
    if let Some(path) = &args.spans {
        let jsonl = comet_telemetry::drain_spans_jsonl();
        match std::fs::write(path, &jsonl) {
            Ok(()) => println!("wrote {} span(s) to {}", jsonl.lines().count(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    code
}

fn run(args: &Args) -> ExitCode {
    if let Some((old, new)) = &args.diff {
        return run_diff(old, new);
    }
    if let Some(path) = &args.check {
        return run_check(path, args.max_regress_pct, args.out.as_ref());
    }
    if args.print_goldens {
        return print_goldens();
    }
    if args.tracker {
        return run_tracker(args);
    }

    let mut snapshot = Snapshot {
        schema: "bench-hotpath/1",
        label: args.label.clone(),
        full_accesses_per_sec: None,
        smoke_accesses_per_sec: None,
        suite_wall_s: None,
        ci_reference_smoke_accesses_per_sec: None,
        full: None,
        smoke: None,
        suite: None,
        before: None,
        speedup_full: None,
        speedup_smoke: None,
        speedup_suite: None,
    };
    for &scope in &args.scopes {
        match run_basket(scope) {
            Ok(result) => {
                print_basket(&result);
                match scope {
                    HotpathScope::Full => {
                        snapshot.full_accesses_per_sec = Some(result.accesses_per_sec);
                        snapshot.full = Some(result);
                    }
                    HotpathScope::Smoke => {
                        snapshot.smoke_accesses_per_sec = Some(result.accesses_per_sec);
                        snapshot.ci_reference_smoke_accesses_per_sec = Some(result.accesses_per_sec);
                        snapshot.smoke = Some(result);
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {} basket failed: {e}", scope.name());
                return ExitCode::from(2);
            }
        }
    }

    if args.suite {
        match run_suite_smoke_serial() {
            Ok(result) => {
                println!("\n-- experiment suite (smoke scope, serial): {:.2} s --", result.wall_s);
                for t in &result.targets {
                    println!("  {:<12} {:>7.2} s", t.name, t.wall_s);
                }
                snapshot.suite_wall_s = Some(result.wall_s);
                snapshot.suite = Some(result);
            }
            Err(e) => {
                eprintln!("error: experiment suite failed: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &args.before {
        match read_snapshot(path) {
            Ok(earlier) => {
                let before = BeforeSummary {
                    label: label(&earlier, "before"),
                    full_accesses_per_sec: earlier.get("full_accesses_per_sec").and_then(Value::as_f64),
                    smoke_accesses_per_sec: earlier.get("smoke_accesses_per_sec").and_then(Value::as_f64),
                    suite_wall_s: earlier.get("suite_wall_s").and_then(Value::as_f64),
                };
                let speedup = |now: Option<f64>, was: Option<f64>| match (now, was) {
                    (Some(now), Some(was)) if was > 0.0 => Some(now / was),
                    _ => None,
                };
                snapshot.speedup_full = speedup(snapshot.full_accesses_per_sec, before.full_accesses_per_sec);
                snapshot.speedup_smoke =
                    speedup(snapshot.smoke_accesses_per_sec, before.smoke_accesses_per_sec);
                // Wall-clock speedup is before/after (lower is better).
                snapshot.speedup_suite = match (before.suite_wall_s, snapshot.suite_wall_s) {
                    (Some(was), Some(now)) if now > 0.0 => Some(was / now),
                    _ => None,
                };
                if let Some(s) = snapshot.speedup_full {
                    println!("\nspeedup vs '{}' (full basket): {s:.2}x", before.label);
                }
                if let Some(s) = snapshot.speedup_smoke {
                    println!("speedup vs '{}' (smoke basket): {s:.2}x", before.label);
                }
                if let Some(s) = snapshot.speedup_suite {
                    println!("speedup vs '{}' (experiment suite wall-clock): {s:.2}x", before.label);
                }
                snapshot.before = Some(before);
            }
            Err(e) => eprintln!("warning: --before: {e}"),
        }
    }

    if let Some(out) = &args.out {
        match serde_json::to_string_pretty(&snapshot) {
            Ok(json) => {
                if let Err(e) = std::fs::write(out, json + "\n") {
                    eprintln!("error: cannot write {}: {e}", out.display());
                    return ExitCode::from(2);
                }
                println!("\nwrote {}", out.display());
            }
            Err(e) => {
                eprintln!("error: cannot serialize snapshot: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
