//! The fleet worker binary.
//!
//! ```text
//! comet-worker --connect tcp://HOST:PORT [--heartbeat-ms N] [--backoff-ms N]
//!              [--max-reconnects N]
//! ```
//!
//! Connects out to a `comet-serviced --listen` coordinator, registers with
//! its cell-key schema, pulls leased cells one at a time, simulates them,
//! and streams results back. On a lost connection it
//! reconnects with jittered exponential backoff and re-registers under a
//! fresh worker id; the coordinator requeues anything the old id held.
//!
//! Exit codes: `0` — coordinator drained cleanly; `3` — reconnect budget
//! spent without ever registering (coordinator unreachable); `1` — fatal
//! protocol error (e.g. the coordinator speaks a different cell-key schema).

use comet_service::{run_worker, WorkerConfig};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn parse_args() -> WorkerConfig {
    let mut config = WorkerConfig { max_reconnects: Some(60), ..WorkerConfig::default() };
    config.identity = u64::from(std::process::id());
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        let parse_count = |flag: &str, text: String| -> u64 {
            match text.parse::<u64>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("error: invalid {flag} value");
                    std::process::exit(2);
                }
            }
        };
        match arg.as_str() {
            "--connect" => {
                let spec = value("--connect");
                match comet_service::protocol::parse_tcp_spec(&spec) {
                    Some(addr) => config.addr = addr.to_string(),
                    None => {
                        eprintln!("error: --connect expects tcp://HOST:PORT, got {spec:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--heartbeat-ms" => config.heartbeat_ms = parse_count("--heartbeat-ms", value("--heartbeat-ms")),
            "--backoff-ms" => config.backoff_ms = parse_count("--backoff-ms", value("--backoff-ms")),
            "--max-reconnects" => {
                config.max_reconnects =
                    Some(parse_count("--max-reconnects", value("--max-reconnects")) as u32)
            }
            "--help" | "-h" => {
                println!(
                    "usage: comet-worker --connect tcp://HOST:PORT [--heartbeat-ms N] \
                     [--backoff-ms N] [--max-reconnects N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if config.addr.is_empty() {
        eprintln!("error: --connect tcp://HOST:PORT is required");
        std::process::exit(2);
    }
    config
}

fn main() {
    let config = parse_args();
    let stop = Arc::new(AtomicBool::new(false));
    eprintln!("comet-worker[{}]: connecting to tcp://{}", config.identity, config.addr);
    match run_worker(&config, &stop) {
        Ok(report) => {
            eprintln!(
                "comet-worker[{}]: done — {} completed, {} failed, {} stale, \
                 {} registration(s), {} reconnect(s)",
                config.identity,
                report.completed,
                report.failed,
                report.stale,
                report.registrations,
                report.reconnects
            );
            if report.registrations == 0 {
                eprintln!("comet-worker[{}]: never reached the coordinator", config.identity);
                std::process::exit(3);
            }
        }
        Err(error) => {
            eprintln!("comet-worker[{}]: fatal: {error}", config.identity);
            std::process::exit(1);
        }
    }
}
