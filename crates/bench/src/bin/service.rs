//! CLI client for the `comet-serviced` experiment daemon.
//!
//! ```text
//! service --socket PATH submit [--scope smoke|quick|full] [--targets fig9,ranks]
//!         [--priority N] [--id N] [--out FILE] [--expect-min-hit-rate X]
//!         [--retries N] [--backoff-ms MS] [--timeout-ms MS]
//! service --socket PATH ping
//! service --socket PATH stats
//! service --socket PATH metrics [--watch]
//! service --socket PATH shutdown
//! ```
//!
//! `submit` sends one `run` request, waits for the response, and prints a
//! one-line summary (wall seconds, cells, cache hits, simulated count, hit
//! rate). `--out FILE` saves the full response JSON (per-target datasets
//! included). `--expect-min-hit-rate X` exits with status 3 if the request
//! was served below the given cache-hit rate — the CI smoke job uses this to
//! assert that a resubmitted sweep is served from cache.
//!
//! When the daemon sheds a request under load (an `"overloaded":true`
//! response), the client retries up to `--retries` times (default 5) with
//! jittered exponential backoff starting at `--backoff-ms` (default 200,
//! or the daemon's `retry_after_ms` hint if larger). Exhausting the retries
//! exits with status 4, distinguishing "the service is saturated" from
//! request errors (status 1).
//!
//! `metrics` fetches the daemon's full metrics registry (the same body the
//! `--metrics` HTTP endpoint serves) and renders it as an aligned two-column
//! table. `--watch` refreshes the table in place once a second until
//! interrupted — a poor man's dashboard for watching a sweep drain.
//!
//! `--timeout-ms MS` puts a read deadline on every round-trip: a daemon that
//! accepts the connection but never answers surfaces as a typed I/O timeout
//! (also status 4 — the service is unavailable, the request was fine)
//! instead of blocking the client forever. Without the flag the client
//! waits indefinitely, as before.

#[cfg(unix)]
fn main() {
    unix::main();
}

#[cfg(not(unix))]
fn main() {
    eprintln!("error: the service client requires Unix-domain sockets");
    std::process::exit(2);
}

#[cfg(unix)]
mod unix {
    use comet_service::protocol::{backoff_jitter_ms, LineConn, LineEvent};
    use serde::Value;
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    struct Args {
        socket: PathBuf,
        command: String,
        scope: String,
        targets: Vec<String>,
        priority: i64,
        id: u64,
        out: Option<PathBuf>,
        expect_min_hit_rate: Option<f64>,
        retries: u32,
        backoff_ms: u64,
        timeout_ms: Option<u64>,
        watch: bool,
    }

    fn parse_args() -> Args {
        let mut socket = None;
        let mut command = None;
        let mut scope = "smoke".to_string();
        let mut targets = vec!["fig9".to_string()];
        let mut priority = 0i64;
        let mut id = std::process::id() as u64;
        let mut out = None;
        let mut expect_min_hit_rate = None;
        let mut retries = 5u32;
        let mut backoff_ms = 200u64;
        let mut timeout_ms = None;
        let mut watch = false;
        let mut iter = std::env::args().skip(1);
        while let Some(arg) = iter.next() {
            let mut value = |flag: &str| {
                iter.next().unwrap_or_else(|| {
                    eprintln!("error: {flag} requires a value");
                    std::process::exit(2);
                })
            };
            match arg.as_str() {
                "--socket" => socket = Some(PathBuf::from(value("--socket"))),
                "--scope" => scope = value("--scope"),
                "--targets" => {
                    targets = value("--targets").split(',').map(|t| t.trim().to_string()).collect()
                }
                "--priority" => {
                    priority = value("--priority").parse().unwrap_or_else(|_| {
                        eprintln!("error: invalid --priority");
                        std::process::exit(2);
                    })
                }
                "--id" => {
                    id = value("--id").parse().unwrap_or_else(|_| {
                        eprintln!("error: invalid --id");
                        std::process::exit(2);
                    })
                }
                "--out" => out = Some(PathBuf::from(value("--out"))),
                "--expect-min-hit-rate" => {
                    expect_min_hit_rate = Some(value("--expect-min-hit-rate").parse().unwrap_or_else(|_| {
                        eprintln!("error: invalid --expect-min-hit-rate");
                        std::process::exit(2);
                    }))
                }
                "--retries" => {
                    retries = value("--retries").parse().unwrap_or_else(|_| {
                        eprintln!("error: invalid --retries");
                        std::process::exit(2);
                    })
                }
                "--backoff-ms" => {
                    backoff_ms = value("--backoff-ms").parse().unwrap_or_else(|_| {
                        eprintln!("error: invalid --backoff-ms");
                        std::process::exit(2);
                    })
                }
                "--timeout-ms" => {
                    timeout_ms = Some(
                        value("--timeout-ms").parse::<u64>().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                            eprintln!("error: invalid --timeout-ms");
                            std::process::exit(2);
                        }),
                    )
                }
                "--watch" => watch = true,
                "--help" | "-h" => {
                    println!(
                        "usage: service --socket PATH <submit|ping|stats|metrics|shutdown> [--scope S] [--targets a,b] [--priority N] [--id N] [--out FILE] [--expect-min-hit-rate X] [--retries N] [--backoff-ms MS] [--timeout-ms MS] [--watch]"
                    );
                    std::process::exit(0);
                }
                other if command.is_none() && !other.starts_with('-') => command = Some(other.to_string()),
                other => {
                    eprintln!("error: unknown argument {other:?}");
                    std::process::exit(2);
                }
            }
        }
        let socket = socket.unwrap_or_else(|| {
            eprintln!("error: --socket PATH is required");
            std::process::exit(2);
        });
        let command = command.unwrap_or_else(|| {
            eprintln!("error: a command (submit|ping|stats|metrics|shutdown) is required");
            std::process::exit(2);
        });
        Args {
            socket,
            command,
            scope,
            targets,
            priority,
            id,
            out,
            expect_min_hit_rate,
            retries,
            backoff_ms,
            timeout_ms,
            watch,
        }
    }

    fn request_line(args: &Args) -> String {
        match args.command.as_str() {
            "submit" => {
                let targets: Vec<String> = args.targets.iter().map(|t| format!("\"{t}\"")).collect();
                format!(
                    "{{\"op\":\"run\",\"id\":{},\"scope\":\"{}\",\"targets\":[{}],\"priority\":{}}}",
                    args.id,
                    args.scope,
                    targets.join(","),
                    args.priority
                )
            }
            "ping" | "stats" | "metrics" | "shutdown" => {
                format!("{{\"op\":\"{}\",\"id\":{}}}", args.command, args.id)
            }
            other => {
                eprintln!("error: unknown command {other:?}");
                std::process::exit(2);
            }
        }
    }

    /// The ways one round-trip can fail. A timeout is its own variant so the
    /// caller can exit with the "service unavailable" status (4) instead of
    /// the generic request-error status (1).
    enum ExchangeError {
        Io(String),
        TimedOut { waited_ms: u64 },
    }

    /// One round-trip on the shared line codec: connect, send the request
    /// line, read one response line. With a deadline, the socket read timeout
    /// is kept short so the deadline is checked every ~250 ms — a hung
    /// coordinator surfaces as [`ExchangeError::TimedOut`], never as an
    /// indefinite block.
    fn exchange(
        socket: &std::path::Path,
        line: &str,
        timeout_ms: Option<u64>,
    ) -> Result<String, ExchangeError> {
        let io = |message: String| ExchangeError::Io(message);
        let stream = UnixStream::connect(socket)
            .map_err(|error| io(format!("could not connect to {}: {error}", socket.display())))?;
        if let Some(ms) = timeout_ms {
            stream
                .set_read_timeout(Some(Duration::from_millis(ms.clamp(1, 250))))
                .map_err(|error| io(format!("could not set the read deadline: {error}")))?;
        }
        let started = Instant::now();
        let mut conn = LineConn::new(stream);
        conn.write_line(line).map_err(|error| io(format!("request write failed: {error}")))?;
        loop {
            match conn.read_event() {
                Ok(LineEvent::Line(response)) => {
                    let response = response.trim().to_string();
                    if response.is_empty() {
                        return Err(io("daemon sent an empty response line".to_string()));
                    }
                    return Ok(response);
                }
                Ok(LineEvent::TimedOut) => {
                    let waited_ms = started.elapsed().as_millis() as u64;
                    if timeout_ms.is_some_and(|ms| waited_ms >= ms) {
                        return Err(ExchangeError::TimedOut { waited_ms });
                    }
                }
                Ok(LineEvent::Eof { .. }) => {
                    return Err(io("daemon closed the connection without a response".to_string()));
                }
                Err(error) => return Err(io(format!("response read failed: {error}"))),
            }
        }
    }

    /// Pulls one metrics exposition over the line protocol and renders it
    /// as the aligned two-column table.
    fn metrics_table(args: &Args, line: &str) -> Result<String, String> {
        let response = match exchange(&args.socket, line, args.timeout_ms) {
            Ok(response) => response,
            Err(ExchangeError::TimedOut { waited_ms }) => {
                return Err(format!("io timeout: no response within {waited_ms} ms"))
            }
            Err(ExchangeError::Io(message)) => return Err(message),
        };
        let value =
            serde_json::from_str(&response).map_err(|error| format!("unparseable response ({error})"))?;
        let exposition = value
            .get("exposition")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("response carried no exposition: {response}"))?;
        Ok(comet_telemetry::tabulate(exposition))
    }

    pub fn main() {
        let args = parse_args();
        let line = request_line(&args);

        // Watch mode: refresh the metrics table in place until interrupted.
        // Transient failures (daemon restarting, scrape racing shutdown) are
        // reported inline and retried on the next tick, not fatal.
        if args.command == "metrics" && args.watch {
            loop {
                match metrics_table(&args, &line) {
                    Ok(table) => {
                        print!("\x1b[2J\x1b[H{table}");
                        use std::io::Write as _;
                        std::io::stdout().flush().ok();
                    }
                    Err(message) => eprintln!("service: metrics poll failed: {message}"),
                }
                std::thread::sleep(Duration::from_millis(1000));
            }
        }

        // Submit with retry-on-overloaded: a shed is the daemon protecting
        // itself, not a failure — back off (exponentially, jittered) and
        // resubmit. Other errors are terminal.
        let mut retries_used = 0u32;
        let (response, value) = loop {
            let response =
                exchange(&args.socket, &line, args.timeout_ms).unwrap_or_else(|error| match error {
                    ExchangeError::TimedOut { waited_ms } => {
                        eprintln!(
                            "error: io timeout: no response within {waited_ms} ms (deadline {} ms)",
                            args.timeout_ms.unwrap_or(0)
                        );
                        std::process::exit(4);
                    }
                    ExchangeError::Io(message) => {
                        eprintln!("error: {message}");
                        std::process::exit(1);
                    }
                });
            let value = serde_json::from_str(&response).unwrap_or_else(|error| {
                eprintln!("error: unparseable response ({error}): {response}");
                std::process::exit(1);
            });
            let overloaded = matches!(value.get("overloaded"), Some(Value::Bool(true)));
            if !overloaded {
                break (response, value);
            }
            if retries_used >= args.retries {
                eprintln!(
                    "error: daemon still overloaded after {retries_used} retr{}",
                    if retries_used == 1 { "y" } else { "ies" }
                );
                std::process::exit(4);
            }
            let hinted = value.get("retry_after_ms").and_then(Value::as_u64).unwrap_or(args.backoff_ms);
            let base = hinted.max(args.backoff_ms) << retries_used.min(6);
            // Hashed from the pid, so concurrent clients desynchronize
            // without randomness.
            let delay = base + backoff_jitter_ms(std::process::id() as u64, base, retries_used);
            eprintln!("service: overloaded; retry {} in {delay} ms", retries_used + 1);
            std::thread::sleep(std::time::Duration::from_millis(delay));
            retries_used += 1;
        };

        if let Some(path) = &args.out {
            std::fs::write(path, format!("{response}\n")).unwrap_or_else(|error| {
                eprintln!("error: could not write {}: {error}", path.display());
                std::process::exit(1);
            });
        }

        let ok = matches!(value.get("ok"), Some(Value::Bool(true)));
        if !ok {
            let message = value.get("error").and_then(Value::as_str).unwrap_or("unknown error");
            eprintln!("error: daemon refused the request: {message}");
            std::process::exit(1);
        }

        match args.command.as_str() {
            "submit" => {
                let wall_s = value.get("wall_s").and_then(Value::as_f64).unwrap_or(0.0);
                let stats = value.get("stats");
                let stat =
                    |name: &str| stats.and_then(|s| s.get(name)).and_then(Value::as_f64).unwrap_or(0.0);
                let hit_rate = stat("hit_rate");
                println!(
                    "ok id={} wall_s={wall_s:.3} cells={} cache_hits={} batch_shared={} simulated={} hit_rate={hit_rate:.4} retries={retries_used}",
                    args.id,
                    stat("cells_requested"),
                    stat("cache_hits"),
                    stat("batch_shared"),
                    stat("simulated"),
                );
                if let Some(minimum) = args.expect_min_hit_rate {
                    if hit_rate + 1e-9 < minimum {
                        eprintln!("error: hit rate {hit_rate:.4} below required {minimum:.4}");
                        std::process::exit(3);
                    }
                }
            }
            "stats" => println!("{response}"),
            "metrics" => {
                let exposition = value.get("exposition").and_then(Value::as_str).unwrap_or_default();
                print!("{}", comet_telemetry::tabulate(exposition));
            }
            _ => println!("ok id={}", args.id),
        }
    }
}
