//! Hot-path performance harness: times the fixed basket of sweep cells and
//! records the result in `BENCH_hotpath.json`.
//!
//! Usage:
//!
//! ```text
//! perf [--cells smoke|full|all] [--suite] [--out FILE] [--label TEXT] [--spans OUT.jsonl]
//! perf --tracker [--out FILE] [--label TEXT]
//! perf --diff OLD.json NEW.json [--max-regress PCT]
//! perf --print-goldens
//! ```
//!
//! * Default mode runs the requested basket(s), prints a per-cell table, and
//!   (with `--out`) writes a JSON [`Snapshot`] of the sections it ran,
//!   labelled `hot-path basket` unless `--label` names it.
//! * `--diff OLD NEW` compares two snapshots without running anything: a
//!   per-cell speedup table (Markdown, so it can be piped straight into a CI
//!   job summary) plus basket, attack-cell, and suite aggregates. Every cell
//!   carries a checksum of its simulated state, so the diff is also a
//!   bit-exactness check: it exits 1, after printing the report, when any
//!   cell present in both snapshots has a different checksum.
//!   `--max-regress PCT` adds a throughput gate, the CI bench-smoke gate: it
//!   also exits 1 when a basket both snapshots have runs more than `PCT`
//!   percent fewer accesses/sec in NEW than in OLD.
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
//!   baskets, so it refuses `--cells` and `--suite` (exit 2). Its snapshot
//!   is labelled `tracker microbench` unless `--label` names it. `--diff`
//!   against an earlier tracker snapshot fails on any cell whose state
//!   checksum drifted.
//!
//! Every basket cell runs through the serial event-driven loop, one cell at
//! a time, so the numbers are not confounded by parallel cell execution.

use comet_bench::hotpath::{
    run_basket, run_cells, run_suite_smoke_serial, stress_basket, BasketResult, CellResult, HotpathScope,
};
use comet_bench::tracker::{tracker_suite, TRACKER_NOW_STEP};
use comet_bench::{Snapshot, SNAPSHOT_SCHEMA};
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Reads and decodes a snapshot written by an earlier `perf` run.
fn read_snapshot(path: &Path) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value = serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    Snapshot::from_value(&value).map_err(|e| format!("cannot decode {}: {e}", path.display()))
}

struct Args {
    /// `--cells`; the full basket when not given.
    scopes: Option<Vec<HotpathScope>>,
    suite: bool,
    tracker: bool,
    out: Option<PathBuf>,
    /// `--label`; each mode names its snapshot when not given.
    label: Option<String>,
    diff: Option<(PathBuf, PathBuf)>,
    max_regress_pct: Option<f64>,
    print_goldens: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scopes: None,
        suite: false,
        tracker: false,
        out: None,
        label: None,
        diff: None,
        max_regress_pct: None,
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
                args.scopes = Some(match value_for(&mut it, "--cells").as_str() {
                    "smoke" => vec![HotpathScope::Smoke],
                    "full" => vec![HotpathScope::Full],
                    "all" => vec![HotpathScope::Full, HotpathScope::Smoke],
                    other => {
                        eprintln!("error: unknown --cells '{other}' (smoke|full|all)");
                        std::process::exit(2);
                    }
                })
            }
            "--out" => args.out = Some(PathBuf::from(value_for(&mut it, "--out"))),
            "--label" => args.label = Some(value_for(&mut it, "--label")),
            "--diff" => {
                let old = PathBuf::from(value_for(&mut it, "--diff"));
                let new = PathBuf::from(value_for(&mut it, "--diff"));
                args.diff = Some((old, new));
            }
            "--max-regress" => {
                let value = value_for(&mut it, "--max-regress");
                args.max_regress_pct = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("error: invalid --max-regress '{value}'");
                    std::process::exit(2);
                }));
            }
            "--suite" => args.suite = true,
            "--tracker" => args.tracker = true,
            "--print-goldens" => args.print_goldens = true,
            "--spans" => args.spans = Some(PathBuf::from(value_for(&mut it, "--spans"))),
            "help" | "--help" | "-h" => {
                println!(
                    "usage: perf [--cells smoke|full|all] [--suite] [--out FILE] [--label TEXT] [--spans OUT.jsonl]"
                );
                println!("       perf --tracker [--out FILE] [--label TEXT]");
                println!("       perf --diff OLD.json NEW.json [--max-regress PCT]");
                println!("       perf --print-goldens");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    if args.max_regress_pct.is_some() && args.diff.is_none() {
        eprintln!("error: --max-regress gates a --diff");
        std::process::exit(2);
    }
    if args.tracker && (args.scopes.is_some() || args.suite) {
        eprintln!("error: --tracker runs the tracker suite alone; drop --cells and --suite");
        std::process::exit(2);
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

/// Runs the tracker microbench suite, prints it, and returns it as a basket
/// whose accesses are activations.
fn run_tracker() -> BasketResult {
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
    BasketResult {
        scope: "tracker".to_string(),
        wall_s: total_wall,
        accesses: total_acts,
        accesses_per_sec: acts_per_sec,
        cells_per_sec: if total_wall > 0.0 { cells.len() as f64 / total_wall } else { 0.0 },
        cells,
    }
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

/// A snapshot section with at least one cell.
fn non_empty(basket: &Option<BasketResult>) -> Option<&BasketResult> {
    basket.as_ref().filter(|basket| !basket.cells.is_empty())
}

/// Compares two snapshots cell by cell and prints a Markdown speedup report
/// (suitable for a terminal and for a CI job summary alike). Exits 1 when a
/// cell's checksum drifted or, with `max_regress_pct`, when a basket's
/// aggregate throughput fell by more than that percentage; 2 when the
/// snapshots cannot be compared.
fn run_diff(old_path: &Path, new_path: &Path, max_regress_pct: Option<f64>) -> ExitCode {
    let (old, new) = match (read_snapshot(old_path), read_snapshot(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("## perf diff");
    println!();
    println!("before: `{}` — after: `{}`", old.label, new.label);
    let mut compared_anything = false;
    let mut drifted = 0;
    let mut regressed = Vec::new();
    let sections = [
        ("full", &old.full, &new.full),
        ("smoke", &old.smoke, &new.smoke),
        ("tracker", &old.tracker, &new.tracker),
    ];
    for (scope, old_basket, new_basket) in sections {
        let (Some(old_basket), Some(new_basket)) = (non_empty(old_basket), non_empty(new_basket)) else {
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
        if let Some(pct) = max_regress_pct {
            let floor = old_agg * (1.0 - pct / 100.0);
            let verdict = if new_agg < floor { "**FAIL**" } else { "ok" };
            println!(
                "- {scope} gate: {new_agg:.0} vs floor {floor:.0} {unit} (max regression {pct}%): {verdict}"
            );
            if new_agg < floor {
                regressed.push(scope);
            }
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
    if let (Some(old_suite), Some(new_suite)) = (&old.suite, &new.suite) {
        let (old_wall, new_wall) = (old_suite.wall_s, new_suite.wall_s);
        if new_wall > 0.0 {
            println!();
            println!(
                "- experiment-suite wall-clock: {:.2}x ({old_wall:.1} s → {new_wall:.1} s)",
                old_wall / new_wall
            );
            compared_anything = true;
        }
    }
    if !compared_anything {
        eprintln!("error: the snapshots share no basket or suite section to compare");
        return ExitCode::from(2);
    }
    if drifted > 0 {
        eprintln!("FAIL: {drifted} cell checksum(s) drifted");
    }
    if !regressed.is_empty() {
        eprintln!("FAIL: {} throughput fell below the --max-regress floor", regressed.join(", "));
    }
    if drifted > 0 || !regressed.is_empty() {
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
        return run_diff(old, new, args.max_regress_pct);
    }
    if args.print_goldens {
        return print_goldens();
    }

    let default_label = if args.tracker { "tracker microbench" } else { "hot-path basket" };
    let mut snapshot = Snapshot {
        schema: SNAPSHOT_SCHEMA.to_string(),
        label: args.label.clone().unwrap_or_else(|| default_label.to_string()),
        full: None,
        smoke: None,
        tracker: None,
        suite: None,
    };
    if args.tracker {
        snapshot.tracker = Some(run_tracker());
    } else {
        for &scope in args.scopes.as_deref().unwrap_or(&[HotpathScope::Full]) {
            match run_basket(scope) {
                Ok(result) => {
                    print_basket(&result);
                    match scope {
                        HotpathScope::Full => snapshot.full = Some(result),
                        HotpathScope::Smoke => snapshot.smoke = Some(result),
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
                    snapshot.suite = Some(result);
                }
                Err(e) => {
                    eprintln!("error: experiment suite failed: {e}");
                    return ExitCode::from(2);
                }
            }
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
