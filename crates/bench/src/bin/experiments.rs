//! Regenerates every table and figure of the CoMeT paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [--scope smoke|quick|full] [--out DIR] [--threads N | --serial] [--cache DIR] <target> [<target> ...]
//! experiments all
//! ```
//!
//! Targets: `table1 table2 table3 table4 fig3 fig4 fig6 fig7 fig8 fig9 fig10
//! fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 highnrh ablation ranks
//! mixed all`.
//!
//! Each target prints a human-readable table and writes the raw series as JSON
//! under the output directory (default `results/`).
//!
//! The binary is a thin client of the experiment service layer: every
//! simulation cell runs through an in-process [`ExperimentService`], so
//! cells shared between targets (e.g. unprotected baselines) are simulated
//! once per invocation and `--cache DIR` makes the result cache persistent
//! across invocations (same layout the `comet-serviced` daemon uses — point
//! both at the same directory and they share warm results). `--threads 1` /
//! `--serial` force the reference serial path, which produces bit-identical
//! results; the wall-clock time of every target is reported.
//!
//! If any target fails, a per-target error summary is printed and the exit
//! code is nonzero.

use comet_bench::parse_scope;
use comet_service::ExperimentService;
use comet_sim::experiments::{self, CellBackend, ExperimentScope, ParallelExecutor};
use comet_sim::{RunnerError, SimConfig};
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    scope: ExperimentScope,
    out: PathBuf,
    executor: ParallelExecutor,
    cache: Option<PathBuf>,
    targets: Vec<String>,
}

fn parse_args() -> Args {
    let mut scope = ExperimentScope::Quick;
    let mut out = PathBuf::from("results");
    let mut executor = ParallelExecutor::new();
    let mut cache = None;
    let mut targets = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    // An option's value must not itself look like an option; exiting instead
    // of silently consuming the next flag keeps `--threads --serial` a usage
    // error rather than an accidental all-cores run.
    let value_for =
        |args: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>, flag: &str| match args.peek() {
            Some(value) if !value.starts_with('-') => args.next().expect("peeked"),
            _ => {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            }
        };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scope" => {
                let value = value_for(&mut args, "--scope");
                scope = parse_scope(&value).unwrap_or_else(|| {
                    eprintln!("unknown scope '{value}', using quick");
                    ExperimentScope::Quick
                });
            }
            "--out" => {
                out = PathBuf::from(value_for(&mut args, "--out"));
            }
            "--cache" => {
                cache = Some(PathBuf::from(value_for(&mut args, "--cache")));
            }
            "--threads" => {
                let value = value_for(&mut args, "--threads");
                match value.parse::<usize>() {
                    Ok(threads) if threads >= 1 => executor = ParallelExecutor::with_threads(threads),
                    _ => {
                        eprintln!("invalid --threads '{value}', using all cores");
                        executor = ParallelExecutor::new();
                    }
                }
            }
            "--serial" => {
                executor = ParallelExecutor::serial();
            }
            "help" | "--help" | "-h" => {
                println!("targets: table1 table2 table3 table4 fig3 fig4 fig6 fig7 fig8 fig9");
                println!("         fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18");
                println!("         highnrh ablation ranks mixed all");
                println!("options: --scope smoke|quick|full   --out DIR   --threads N   --serial");
                println!("         --cache DIR   (persistent cell cache shared with comet-serviced)");
                std::process::exit(0);
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Args { scope, out, executor, cache, targets }
}

fn save_json<T: Serialize>(out: &Path, name: &str, value: &T) {
    if fs::create_dir_all(out).is_err() {
        return;
    }
    let path = out.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1(out: &Path) -> Result<(), RunnerError> {
    header("Table 1: storage overhead of Graphene (KB) vs RowHammer threshold");
    let rows = comet_area::table1_rows();
    println!("{:>8} {:>14}", "NRH", "Storage (KB)");
    for row in &rows {
        println!("{:>8} {:>14.2}", row.nrh, row.graphene_storage_kib);
    }
    save_json(out, "table1", &rows);
    Ok(())
}

fn table2(out: &Path) -> Result<(), RunnerError> {
    header("Table 2: simulated system configuration");
    let config = SimConfig::paper_full();
    println!("Processor     : 1 or 8 cores, 3.6 GHz, 4-wide issue, 128-entry instruction window");
    println!(
        "DRAM          : DDR4, {} channel(s), {} ranks, {} bank groups x {} banks, {} rows/bank",
        config.dram.geometry.channels,
        config.dram.geometry.ranks_per_channel,
        config.dram.geometry.bank_groups_per_rank,
        config.dram.geometry.banks_per_bank_group,
        config.dram.geometry.rows_per_bank
    );
    println!(
        "Memory Ctrl   : one controller per channel, 64-entry read/write queues, FR-FCFS, column cap 16"
    );
    println!(
        "Timing        : tRC={} tRAS={} tRP={} tRCD={} tREFI={} tREFW={} (cycles @ {} ns)",
        config.dram.timing.t_rc,
        config.dram.timing.t_ras,
        config.dram.timing.t_rp,
        config.dram.timing.t_rcd,
        config.dram.timing.t_refi,
        config.dram.timing.t_refw,
        config.dram.timing.t_ck_ns
    );
    save_json(out, "table2", &config.dram);
    Ok(())
}

fn table3(out: &Path) -> Result<(), RunnerError> {
    header("Table 3: evaluated workloads and their characteristics");
    let workloads = comet_trace::all_workloads();
    println!("{:<18} {:>10} {:>12} {:>10}", "Workload", "RBMPKI", "BW (MB/s)", "Class");
    for w in &workloads {
        println!("{:<18} {:>10.2} {:>12.0} {:>10?}", w.name, w.rbmpki, w.bandwidth_mbps, w.intensity());
    }
    save_json(out, "table3", &workloads);
    Ok(())
}

fn table4(out: &Path) -> Result<(), RunnerError> {
    header("Table 4: dual-rank storage and area of CoMeT vs Graphene and Hydra");
    let rows = comet_area::table4_rows();
    println!("{:>6} {:<12} {:>14} {:>10}", "NRH", "Mechanism", "Storage (KB)", "mm^2");
    for row in &rows {
        println!(
            "{:>6} {:<12} {:>14.1} {:>10.3}",
            row.nrh, row.report.mechanism, row.report.storage_kib, row.report.area_mm2
        );
        for c in &row.report.components {
            println!("       - {:<24} {:>8.1} KB {:>8.3} mm^2", c.name, c.storage_kib, c.area_mm2);
        }
    }
    save_json(out, "table4", &rows);
    Ok(())
}

fn fig3(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 3: Hydra normalized IPC distribution vs RowHammer threshold");
    let result = experiments::comparison::fig3_hydra_motivation(scope, backend)?;
    print_comparison(&result);
    save_json(out, "fig3", &result);
    Ok(())
}

fn fig4(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 4: performance / energy / area trade-off at NRH = 125");
    let points = experiments::radar_fig4(scope, backend)?;
    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>12}",
        "Mechanism", "Perf ovh", "Energy ovh", "CPU area mm^2", "DRAM area %"
    );
    for p in &points {
        println!(
            "{:<12} {:>11.2}% {:>11.2}% {:>14.3} {:>11.2}%",
            p.mechanism,
            100.0 * p.performance_overhead,
            100.0 * p.energy_overhead,
            p.cpu_area_mm2,
            100.0 * p.dram_area_fraction
        );
    }
    save_json(out, "fig4", &points);
    Ok(())
}

fn print_sweep(points: &[experiments::SweepPoint]) {
    println!("{:<32} {:>6} {:>16} {:>18}", "Configuration", "NRH", "Norm. IPC (geo)", "Norm. energy (geo)");
    for p in points {
        println!(
            "{:<32} {:>6} {:>16.4} {:>18.4}",
            p.configuration, p.nrh, p.normalized_ipc_geomean, p.normalized_energy_geomean
        );
    }
}

fn fig6(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 6: Counter Table design sweep (NHash x NCounters)");
    for nrh in [1000u64, 125] {
        println!("\n-- NRH = {nrh} --");
        let points = experiments::fig6_ct_sweep(scope, nrh, backend)?;
        print_sweep(&points);
        save_json(out, &format!("fig6_nrh{nrh}"), &points);
    }
    Ok(())
}

fn fig7(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 7: Recent Aggressor Table size sweep");
    let points = experiments::fig7_rat_sweep(scope, backend)?;
    print_sweep(&points);
    save_json(out, "fig7", &points);
    Ok(())
}

fn fig8(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 8: early preventive refresh (EPRT x history length) sweep, 8-core, NRH = 125");
    let points = experiments::fig8_eprt_sweep(scope, backend)?;
    print_sweep(&points);
    save_json(out, "fig8", &points);
    Ok(())
}

fn fig9(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 9: counter reset period (k) sweep");
    let points = experiments::fig9_k_sweep(scope, backend)?;
    print_sweep(&points);
    save_json(out, "fig9", &points);
    Ok(())
}

fn fig10_11(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figures 10 & 11: CoMeT single-core normalized IPC and DRAM energy");
    let result = experiments::fig10_fig11_singlecore(scope, backend)?;
    println!("{:>6} {:>18} {:>20}", "NRH", "IPC geomean", "Energy geomean");
    for ((nrh, ipc), (_, energy)) in result.ipc_geomean.iter().zip(&result.energy_geomean) {
        println!("{:>6} {:>18.4} {:>20.4}", nrh, ipc, energy);
    }
    println!("\nPer-workload normalized IPC (worst 10 at the lowest threshold):");
    let lowest = result.points.iter().map(|p| p.nrh).min().unwrap_or(125);
    let mut worst: Vec<_> = result.points.iter().filter(|p| p.nrh == lowest).collect();
    worst.sort_by(|a, b| a.normalized_ipc.total_cmp(&b.normalized_ipc));
    for p in worst.iter().take(10) {
        println!("  {:<18} {:>8.4}", p.workload, p.normalized_ipc);
    }
    save_json(out, "fig10_fig11", &result);
    Ok(())
}

fn print_comparison(result: &experiments::ComparisonResult) {
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "Mechanism", "NRH", "geomean", "min", "median", "max", "energy geo"
    );
    for cell in &result.cells {
        println!(
            "{:<12} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>12.4}",
            cell.mechanism,
            cell.nrh,
            cell.ipc.geomean,
            cell.ipc.min,
            cell.ipc.median,
            cell.ipc.max,
            cell.energy.geomean
        );
    }
}

fn fig12_14(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figures 12 & 14: single-core comparison against state-of-the-art mitigations");
    let result = experiments::fig12_fig14_comparison(scope, backend)?;
    print_comparison(&result);
    save_json(out, "fig12_fig14", &result);
    Ok(())
}

fn fig13_15(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figures 13 & 15: 8-core weighted speedup and DRAM energy comparison");
    let result = experiments::fig13_fig15_multicore(scope, backend)?;
    println!("{:<12} {:>6} {:>14} {:>14} {:>14}", "Mechanism", "NRH", "WS geomean", "WS min", "Energy geo");
    for cell in &result.cells {
        println!(
            "{:<12} {:>6} {:>14.4} {:>14.4} {:>14.4}",
            cell.mechanism,
            cell.nrh,
            cell.weighted_speedup.geomean,
            cell.weighted_speedup.min,
            cell.energy.geomean
        );
    }
    save_json(out, "fig13_fig15", &result);
    Ok(())
}

fn fig16(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 16: benign performance under RowHammer attacks");
    let result = experiments::fig16_adversarial(scope, backend)?;
    println!("(a) traditional attack, NRH = 500");
    for cell in &result.traditional {
        println!(
            "  {:<12} {:<34} geomean {:>8.4} min {:>8.4}",
            cell.mechanism, cell.attack, cell.benign_ipc.geomean, cell.benign_ipc.min
        );
    }
    println!("(b) targeted attacks, NRH = 125");
    for cell in &result.targeted {
        println!(
            "  {:<12} {:<34} geomean {:>8.4} min {:>8.4}",
            cell.mechanism, cell.attack, cell.benign_ipc.geomean, cell.benign_ipc.min
        );
    }
    save_json(out, "fig16", &result);
    Ok(())
}

fn fig17(out: &Path) -> Result<(), RunnerError> {
    header("Figure 17: tracker false positive rate, CoMeT vs BlockHammer");
    let points = experiments::fig17_false_positive_rate(10_000, 125, 0xF17);
    println!("{:>12} {:>12} {:>16}", "Unique rows", "CoMeT FPR", "BlockHammer FPR");
    for p in &points {
        println!("{:>12} {:>12.4} {:>16.4}", p.unique_rows, p.comet_fpr, p.blockhammer_fpr);
    }
    save_json(out, "fig17", &points);
    Ok(())
}

fn fig18(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Figure 18: CoMeT vs BlockHammer normalized IPC");
    let result = experiments::comparison::fig18_blockhammer(scope, backend)?;
    print_comparison(&result);
    save_json(out, "fig18", &result);
    Ok(())
}

fn highnrh(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Section 8.4: CoMeT at high RowHammer thresholds (2000, 4000)");
    let result = experiments::singlecore::high_threshold_singlecore(scope, backend)?;
    for (nrh, geomean) in &result.ipc_geomean {
        println!("NRH = {nrh}: normalized IPC geomean = {geomean:.5}");
    }
    save_json(out, "highnrh", &result);
    Ok(())
}

fn ablation(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Ablation: RAT and early preventive refresh contributions at NRH = 125");
    let points = experiments::sweeps::ablation(scope, 125, backend)?;
    print_sweep(&points);
    save_json(out, "ablation", &points);
    Ok(())
}

fn ranks(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Rank sweep: tracker pressure vs rank parallelism (1/2/4 ranks per channel)");
    let result = experiments::rank_sweep(scope, backend)?;
    println!(
        "{:>6} {:>6} {:>16} {:>18} {:>14} {:>14} {:>12} {:>14}",
        "Ranks",
        "NRH",
        "Norm. IPC (geo)",
        "Norm. energy (geo)",
        "Prev/kACT",
        "Aggr/kACT",
        "EarlyRank",
        "Read lat ns"
    );
    for p in &result.points {
        println!(
            "{:>6} {:>6} {:>16.4} {:>18.4} {:>14.3} {:>14.3} {:>12} {:>14.2}",
            p.ranks,
            p.nrh,
            p.normalized_ipc_geomean,
            p.normalized_energy_geomean,
            p.preventive_per_kilo_act,
            p.aggressors_per_kilo_act,
            p.early_rank_refreshes,
            p.avg_read_latency_ns
        );
    }
    save_json(out, "ranks", &result);
    Ok(())
}

fn mixed(scope: ExperimentScope, out: &Path, backend: &dyn CellBackend) -> Result<(), RunnerError> {
    header("Mixed medium/high-intensity 8-core mixes: weighted speedup (true alone-IPC normalization)");
    let result = experiments::mixed_multicore(
        scope,
        &comet_sim::MechanismKind::comparison_set(),
        &scope.thresholds(),
        backend,
    )?;
    println!("{:<10} {:<12} {:>6} {:>12} {:>14}", "Mix", "Mechanism", "NRH", "WS", "WS (norm.)");
    for cell in &result.cells {
        println!(
            "{:<10} {:<12} {:>6} {:>12.4} {:>14.4}",
            cell.mix, cell.mechanism, cell.nrh, cell.weighted_speedup, cell.normalized_weighted_speedup
        );
    }
    save_json(out, "mixed", &result);
    Ok(())
}

fn main() {
    let args = parse_args();
    let scope = args.scope;
    // The binary is a thin client of the service layer: an in-process
    // ExperimentService fronts the executor, so cells shared between targets
    // simulate once, and --cache makes that reuse persistent.
    let service = match &args.cache {
        Some(dir) => match ExperimentService::with_cache_dir(args.executor, dir) {
            Ok(service) => service,
            Err(error) => {
                eprintln!("error: could not open cache dir {}: {error}", dir.display());
                std::process::exit(1);
            }
        },
        None => ExperimentService::new(args.executor),
    };
    println!(
        "CoMeT reproduction experiments — scope: {:?}, workloads: {}, worker threads: {}, output: {}{}",
        scope,
        scope.workloads().len(),
        service.threads(),
        args.out.display(),
        match &args.cache {
            Some(dir) =>
                format!(", cache: {} ({} cells warm)", dir.display(), service.stats().loaded_from_disk),
            None => String::new(),
        }
    );

    let backend: &dyn CellBackend = &service;
    let out: &Path = &args.out;
    // The single target table: aliases (what the user may type), the display
    // name, and the handler. Dispatch, help validation, and the
    // unknown-target check all derive from this one list, so a new target
    // cannot be runnable yet "unknown" (or vice versa).
    type TargetEntry<'a> =
        (&'static [&'static str], &'static str, Box<dyn FnMut() -> Result<(), RunnerError> + 'a>);
    let mut table: Vec<TargetEntry<'_>> = vec![
        (&["table1"], "table1", Box::new(move || table1(out))),
        (&["table2"], "table2", Box::new(move || table2(out))),
        (&["table3"], "table3", Box::new(move || table3(out))),
        (&["table4"], "table4", Box::new(move || table4(out))),
        (&["fig17"], "fig17", Box::new(move || fig17(out))),
        (&["fig3"], "fig3", Box::new(move || fig3(scope, out, backend))),
        (&["fig4"], "fig4", Box::new(move || fig4(scope, out, backend))),
        (&["fig6"], "fig6", Box::new(move || fig6(scope, out, backend))),
        (&["fig7"], "fig7", Box::new(move || fig7(scope, out, backend))),
        (&["fig8"], "fig8", Box::new(move || fig8(scope, out, backend))),
        (&["fig9"], "fig9", Box::new(move || fig9(scope, out, backend))),
        (&["fig10", "fig11"], "fig10_11", Box::new(move || fig10_11(scope, out, backend))),
        (&["fig12", "fig14"], "fig12_14", Box::new(move || fig12_14(scope, out, backend))),
        (&["fig13", "fig15"], "fig13_15", Box::new(move || fig13_15(scope, out, backend))),
        (&["fig16"], "fig16", Box::new(move || fig16(scope, out, backend))),
        (&["fig18"], "fig18", Box::new(move || fig18(scope, out, backend))),
        (&["highnrh"], "highnrh", Box::new(move || highnrh(scope, out, backend))),
        (&["ablation"], "ablation", Box::new(move || ablation(scope, out, backend))),
        (&["ranks"], "ranks", Box::new(move || ranks(scope, out, backend))),
        (&["mixed"], "mixed", Box::new(move || mixed(scope, out, backend))),
    ];

    let run_all = args.targets.iter().any(|t| t == "all");
    let mut failures: Vec<(&'static str, RunnerError)> = Vec::new();
    for (aliases, name, run) in &mut table {
        if !run_all && !aliases.iter().any(|alias| args.targets.iter().any(|t| t == alias)) {
            continue;
        }
        let started = Instant::now();
        match run() {
            Ok(()) => println!("[{name}: {:.2} s]", started.elapsed().as_secs_f64()),
            Err(error) => {
                eprintln!("error: target {name} failed: {error}");
                failures.push((name, error));
            }
        }
    }

    let stats = service.stats();
    println!(
        "\nCell cache: {} requested, {} simulated, {} cache hits, {} shared in-batch ({:.1}% served without a fresh run)",
        stats.cells_requested,
        stats.simulated,
        stats.cache_hits,
        stats.batch_shared,
        100.0 * stats.hit_rate()
    );

    let unknown: Vec<&String> = args
        .targets
        .iter()
        .filter(|t| *t != "all" && !table.iter().any(|(aliases, _, _)| aliases.contains(&t.as_str())))
        .collect();

    if !failures.is_empty() || !unknown.is_empty() {
        eprintln!("\n{} target(s) failed:", failures.len() + unknown.len());
        for (name, error) in &failures {
            eprintln!("  {name}: {error}");
        }
        for name in &unknown {
            eprintln!("  {name}: unknown target (see `experiments help`)");
        }
        std::process::exit(1);
    }
    println!("Done. JSON series written to {}", args.out.display());
}
