//! The repository benchmark's measuring program. `run.py` builds it, keeps
//! the `service-warm` fixture current, and invokes:
//!
//! ```text
//! repobench run --workload W --seed N --seconds S --trace 0|1 --work DIR --fixture DIR
//! repobench prepare --fixture DIR   # simulate every served target once
//! repobench pin --work DIR          # print the checksums --seed 1 must reproduce
//! ```
//!
//! The last line of `run`'s standard output is the result object.

mod probes;
mod report;
mod sweeps;
mod traced;
mod util;
mod warm;

use report::{Check, Metrics};
use std::collections::HashMap;
use std::path::PathBuf;
use sweeps::{Kind, Sweep};

const WORKLOADS: &[&str] = &["attack-sweep", "benign-sweep", "service-warm"];

/// Printed with `--trace 0`: what a user of the simulator or the service sees.
const END_TO_END: &[&str] =
    &["accesses_per_s", "requests_per_s", "request_p50_ms", "request_p95_ms", "setup_s", "peak_rss_mb"];

/// Printed with `--trace 1`: each layer's costs, measured from outside.
const PER_LAYER: &[&str] = &[
    "trace.ns_per_record",
    "trace.share",
    "cpu.ns_per_advance",
    "cpu.blocked_ratio",
    "cpu.queue_full_probes",
    "cpu.share",
    "controller.ns_per_tick",
    "controller.ns_per_enqueue",
    "controller.issue_ratio",
    "controller.share",
    "dram.commands",
    "dram.ns_per_command",
    "tracker.acts",
    "tracker.ns_per_act",
    "tracker.ns_per_on_tick",
    "tracker.nop_ratio",
    "tracker.batch_mean",
    "tracker.share",
    "service.key_ns_per_cell",
    "service.lookup_ns_per_cell",
    "service.hit_ratio",
    "service.share",
    "store.append_ns_per_cell",
    "store.recover_s",
    "codec.decode_ns_per_cell",
    "codec.encode_ns_per_response",
    "codec.share",
    "protocol.share",
    "loop.share",
    "shares.sum",
    "trace.overhead",
    "trace.boundary_ns",
];

/// Per-cell stats checksums `--seed 1` must reproduce, by workload and cell.
const PINNED: &str = include_str!("../checksums.json");

fn pinned(workload: &str) -> Option<HashMap<String, u64>> {
    let value = comet_service::json::parse(PINNED).expect("checksums.json is valid JSON");
    let serde::Value::Map(cells) = comet_service::json::get(&value, workload)? else { return None };
    let cells: HashMap<String, u64> = cells
        .iter()
        .map(|(label, hex)| {
            let hex = comet_service::json::as_str(hex).expect("checksums are strings");
            (label.clone(), u64::from_str_radix(hex, 16).expect("checksums are hex"))
        })
        .collect();
    (!cells.is_empty()).then_some(cells)
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    fixture: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command (run, prepare, pin)")?;
    let mut parsed = Args {
        command,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from("repobench-work"),
        fixture: PathBuf::from("repobench-fixture"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => parsed.trace = value == "1",
            "--work" => parsed.work = PathBuf::from(value),
            "--fixture" => parsed.fixture = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<(Check, Metrics), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("work dir: {e}"))?;
    let pins = if args.seed == 1 { pinned(&args.workload) } else { None };
    let kind = match args.workload.as_str() {
        "attack-sweep" => Kind::Attack,
        "benign-sweep" => Kind::Benign,
        "service-warm" => {
            return warm::run(args.seed, args.seconds, &args.work, &args.fixture, args.trace)
                .map_err(|e| format!("service-warm: {e}"))
        }
        other => return Err(format!("unknown workload {other:?} (known: {})", WORKLOADS.join(", "))),
    };
    let sweep = Sweep::new(kind, args.seed);
    Ok(if args.trace {
        sweeps::run_traced(&sweep, args.seconds, &args.work, pins.as_ref())
    } else {
        sweeps::run(&sweep, args.seconds, &args.work, pins.as_ref())
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("repobench: {message}");
            std::process::exit(2);
        }
    };
    match args.command.as_str() {
        "run" => {
            let (check, mut metrics) = match run(&args) {
                Ok(outcome) => outcome,
                Err(message) => {
                    eprintln!("repobench: {message}");
                    std::process::exit(1);
                }
            };
            metrics.push("peak_rss_mb", util::peak_rss_mb(), "MB");
            eprintln!("repobench: nproc {}", util::nproc());
            report::print(&check, &metrics.select(if args.trace { PER_LAYER } else { END_TO_END }));
        }
        "prepare" => {
            if let Err(error) = warm::prepare(&args.fixture) {
                eprintln!("repobench: prepare: {error}");
                std::process::exit(1);
            }
        }
        "pin" => {
            let sections: Vec<String> = [("attack-sweep", Kind::Attack), ("benign-sweep", Kind::Benign)]
                .iter()
                .map(|(name, kind)| {
                    std::fs::create_dir_all(&args.work).expect("work dir");
                    let cells = sweeps::checksums(&Sweep::new(*kind, 1), &args.work);
                    let body: Vec<String> =
                        cells.iter().map(|(label, sum)| format!("    \"{label}\": \"{sum:016x}\"")).collect();
                    format!("  \"{name}\": {{\n{}\n  }}", body.join(",\n"))
                })
                .collect();
            println!("{{\n{}\n}}", sections.join(",\n"));
        }
        other => {
            eprintln!("repobench: unknown command {other:?}");
            std::process::exit(2);
        }
    }
}
