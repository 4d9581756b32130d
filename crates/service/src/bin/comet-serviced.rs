//! The experiment daemon binary.
//!
//! ```text
//! comet-serviced [--socket PATH | --stdin] [--listen tcp://HOST:PORT]
//!                [--metrics tcp://HOST:PORT] [--cache DIR]
//!                [--threads N] [--job-workers N] [--queue-depth N]
//!                [--max-cells N] [--max-segments N]
//!                [--lease-timeout-ms N] [--max-redeliveries N]
//! ```
//!
//! * `--socket PATH` — listen on a Unix-domain socket (the production mode;
//!   pair it with the `service` client in `comet-bench`).
//! * `--listen tcp://HOST:PORT` — additionally listen on TCP and act as a
//!   **fleet coordinator**: `comet-worker` processes connect here, register,
//!   and pull leased cells. With zero connected workers every cell runs
//!   locally, exactly as without `--listen` (graceful degradation).
//! * `--metrics tcp://HOST:PORT` — serve the metrics registry as Prometheus
//!   text exposition over plain HTTP on this address (`GET /metrics`, or
//!   any request at all — the endpoint is read-only and single-purpose).
//! * `--stdin` — serve a single session on stdin/stdout (the default; handy
//!   for scripting and tests: `echo '{"op":"ping"}' | comet-serviced`).
//! * `--cache DIR` — persist the result cache as JSON-lines segments under
//!   `DIR` and pre-load whatever is already there (corrupt segments are
//!   quarantined under `DIR/quarantine/`, never fatal).
//! * `--threads N` — worker threads for cell simulation (default: all cores).
//! * `--job-workers N` — sweep requests run at once, each on the connection
//!   thread that read it (default 1: strict priority order across clients).
//! * `--queue-depth N` — admission bound: `run` requests arriving while `N`
//!   others wait are shed with a typed `overloaded` response (default 1024).
//! * `--max-cells N` — in-memory cache bound: least-recently-used completed
//!   cells are evicted past `N` (default: unbounded).
//! * `--max-segments N` — on-disk bound: exceeding `N` segment files
//!   triggers a compaction pass that rewrites only live keys (default:
//!   never compact). Once the live cells fill `N` segments or more, the
//!   store keeps at most one segment more than the last pass wrote, so
//!   passes come at least 512 appends (one segment) apart.
//! * `--lease-timeout-ms N` — fleet lease/heartbeat timeout: a worker silent
//!   for `N` ms loses its leases, and its cells requeue (default 2000).
//! * `--max-redeliveries N` — redelivery budget per cell before the
//!   coordinator gives up with a typed `lease exhausted` error (default 3).

use comet_service::{Daemon, ExperimentService, Fleet, LeaseConfig, ServiceConfig, DEFAULT_QUEUE_BOUND};
use comet_sim::experiments::ParallelExecutor;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    socket: Option<PathBuf>,
    listen: Option<String>,
    metrics: Option<String>,
    cache: Option<PathBuf>,
    threads: Option<usize>,
    job_workers: usize,
    queue_depth: usize,
    max_cells: Option<usize>,
    max_segments: Option<usize>,
    lease_timeout_ms: u64,
    max_redeliveries: u32,
}

fn parse_args() -> Args {
    let defaults = LeaseConfig::default();
    let mut args = Args {
        socket: None,
        listen: None,
        metrics: None,
        cache: None,
        threads: None,
        job_workers: 1,
        queue_depth: DEFAULT_QUEUE_BOUND,
        max_cells: None,
        max_segments: None,
        lease_timeout_ms: defaults.lease_timeout_ms,
        max_redeliveries: defaults.max_redeliveries,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        let parse_count = |flag: &str, text: String| -> usize {
            match text.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("error: invalid {flag} value");
                    std::process::exit(2);
                }
            }
        };
        match arg.as_str() {
            "--socket" => args.socket = Some(PathBuf::from(value("--socket"))),
            "--stdin" => args.socket = None,
            "--listen" => {
                let spec = value("--listen");
                match comet_service::protocol::parse_tcp_spec(&spec) {
                    Some(addr) => args.listen = Some(addr.to_string()),
                    None => {
                        eprintln!("error: --listen expects tcp://HOST:PORT, got {spec:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--metrics" => {
                let spec = value("--metrics");
                match comet_service::protocol::parse_tcp_spec(&spec) {
                    Some(addr) => args.metrics = Some(addr.to_string()),
                    None => {
                        eprintln!("error: --metrics expects tcp://HOST:PORT, got {spec:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--cache" => args.cache = Some(PathBuf::from(value("--cache"))),
            "--threads" => args.threads = Some(parse_count("--threads", value("--threads"))),
            "--job-workers" => args.job_workers = parse_count("--job-workers", value("--job-workers")),
            "--queue-depth" => args.queue_depth = parse_count("--queue-depth", value("--queue-depth")),
            "--max-cells" => args.max_cells = Some(parse_count("--max-cells", value("--max-cells"))),
            "--max-segments" => {
                args.max_segments = Some(parse_count("--max-segments", value("--max-segments")))
            }
            "--lease-timeout-ms" => {
                args.lease_timeout_ms = parse_count("--lease-timeout-ms", value("--lease-timeout-ms")) as u64
            }
            "--max-redeliveries" => {
                args.max_redeliveries = parse_count("--max-redeliveries", value("--max-redeliveries")) as u32
            }
            "--help" | "-h" => {
                println!(
                    "usage: comet-serviced [--socket PATH | --stdin] [--listen tcp://HOST:PORT] \
                     [--metrics tcp://HOST:PORT] [--cache DIR] [--threads N] [--job-workers N] \
                     [--queue-depth N] [--max-cells N] [--max-segments N] [--lease-timeout-ms N] \
                     [--max-redeliveries N]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let executor = match args.threads {
        Some(threads) => ParallelExecutor::with_threads(threads),
        None => ParallelExecutor::new(),
    };
    let config = ServiceConfig {
        max_cached_cells: args.max_cells,
        max_segments: args.max_segments,
        ..ServiceConfig::default()
    };
    let service = match ExperimentService::with_config(executor, args.cache.clone(), config) {
        Ok(service) => {
            if let Some(dir) = &args.cache {
                let stats = service.stats();
                eprintln!(
                    "comet-serviced: loaded {} cached cell(s) from {} \
                     ({} torn line(s) skipped, {} segment(s) quarantined)",
                    stats.loaded_from_disk,
                    dir.display(),
                    stats.torn_lines,
                    stats.quarantined_segments
                );
            }
            service
        }
        Err(error) => {
            let dir = args.cache.as_deref().map(|p| p.display().to_string()).unwrap_or_default();
            eprintln!("error: could not open cache dir {dir}: {error}");
            std::process::exit(1);
        }
    };
    let mut daemon = Daemon::with_queue_bound(Arc::new(service), args.job_workers, args.queue_depth);
    if args.listen.is_some() {
        let lease =
            LeaseConfig { lease_timeout_ms: args.lease_timeout_ms, max_redeliveries: args.max_redeliveries };
        daemon = daemon.with_fleet(Arc::new(Fleet::new(lease)));
    }

    let outcome = match (&args.socket, &args.listen, &args.metrics) {
        (None, None, None) => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            daemon.serve_session(stdin.lock(), stdout.lock())
        }
        (socket, listen, metrics) => {
            #[cfg(unix)]
            {
                if let Some(path) = socket {
                    eprintln!("comet-serviced: listening on {}", path.display());
                }
                if let Some(addr) = listen {
                    eprintln!("comet-serviced: fleet coordinator on tcp://{addr}");
                }
                if let Some(addr) = metrics {
                    eprintln!("comet-serviced: metrics endpoint on http://{addr}/metrics");
                }
                daemon.serve(socket.as_deref(), listen.as_deref(), metrics.as_deref())
            }
            #[cfg(not(unix))]
            {
                eprintln!("error: --socket/--listen/--metrics require a Unix platform; use --stdin");
                std::process::exit(2);
            }
        }
    };
    if let Err(error) = outcome {
        eprintln!("comet-serviced: fatal: {error}");
        std::process::exit(1);
    }
}
