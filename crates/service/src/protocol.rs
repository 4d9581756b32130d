//! The daemon's line protocol: one JSON request per line in, one JSON
//! response per line out.
//!
//! Requests:
//!
//! ```text
//! {"op":"run","id":1,"scope":"smoke","targets":["fig9","ranks"],"priority":5}
//! {"op":"stats","id":2}
//! {"op":"ping","id":3}
//! {"op":"shutdown","id":4}
//! {"op":"metrics","id":5}
//! ```
//!
//! Responses always echo `id` (0 if absent) and carry `"ok"`. A `run`
//! response reports the wall-clock seconds, the request's cache-counter
//! delta (cells, cache_hits, simulated, hit_rate, …), and the per-target
//! datasets under `"results"`.
//!
//! Error responses are typed on the wire: an [`ServiceError::Overloaded`]
//! shed carries `"overloaded":true` plus a `"retry_after_ms"` hint (clients
//! retry with jittered exponential backoff), and
//! [`ServiceError::ShuttingDown`] carries `"shutting_down":true` (clients
//! reconnect elsewhere or give up cleanly — retrying the same daemon is
//! pointless).
//!
//! ## Fleet operations
//!
//! Worker processes speak the same line protocol over their outbound TCP
//! (or Unix) connections:
//!
//! ```text
//! {"op":"register","id":1,"threads":4,"schema":"comet-cell/v2"}
//! {"op":"pull","id":2,"worker":3,"wait_ms":500}
//! {"op":"heartbeat","id":3,"worker":3,"cells":17,"busy":true}
//! {"op":"complete","id":4,"worker":3,"key":"<32 hex>","result":{...}}
//! {"op":"complete","id":5,"worker":3,"key":"<32 hex>","error":"..."}
//! ```
//!
//! `register` advertises capabilities and is refused unless the worker's
//! `schema` matches this coordinator's [`KEY_SCHEMA`] — a mixed-version
//! fleet must fail loudly at the door, not poison the cache later. `pull`
//! long-polls for a leased cell (the response's `job` is `null` when none
//! arrived within `wait_ms`); `heartbeat` extends every lease the worker
//! holds; `complete` reports a result (or a typed failure) and answers with
//! `"accepted"` — `false` marks a stale duplicate after lease expiry.
//!
//! ## Line framing
//!
//! Every transport — Unix socket, TCP, stdin session, and the CLI client —
//! frames messages through one [`LineConn`] codec (newline-delimited,
//! timeout-aware, partial-final-line tolerant), so the paths cannot drift
//! apart in how they assemble lines from reads.

use crate::error::ServiceError;
use crate::key::{CellKey, KEY_SCHEMA};
use crate::service::{ExperimentService, ServiceStats};
use crate::targets;
use comet_sim::experiments::ExperimentScope;
use serde::Value;
use std::io::Read;
use std::time::Instant;

/// Backoff hint carried on `Overloaded` error responses.
pub const RETRY_AFTER_MS: u64 = 200;

/// One newline-framed connection: assembles lines from timeout-aware reads
/// without losing partially buffered bytes (a `BufReader` may drop them on a
/// timeout error). Shared by the daemon's Unix/TCP/stdin paths and the CLI
/// client.
#[derive(Debug)]
pub struct LineConn<S> {
    stream: S,
    pending: Vec<u8>,
    eof: bool,
}

/// What one [`LineConn::read_event`] call observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line (without its newline).
    Line(String),
    /// The read timed out (the stream has a read timeout set); buffered
    /// partial data is retained for the next call.
    TimedOut,
    /// End of stream. A final unterminated line, if any, is surfaced once —
    /// a client may shut down its write side and still expect an answer.
    Eof {
        /// The unterminated final line, if the stream ended mid-line.
        partial: Option<String>,
    },
}

impl<S: Read + std::io::Write> LineConn<S> {
    /// Wraps a stream.
    pub fn new(stream: S) -> Self {
        LineConn { stream, pending: Vec::new(), eof: false }
    }

    /// The underlying stream (for setting socket timeouts).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// The underlying stream, mutably (for deliberately unframed writes in
    /// fault injection — a torn result line must bypass the codec).
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Reads until one complete line, a timeout, or EOF (whichever first).
    pub fn read_event(&mut self) -> std::io::Result<LineEvent> {
        loop {
            if let Some(newline) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=newline).collect();
                return Ok(LineEvent::Line(String::from_utf8_lossy(&line[..newline]).into_owned()));
            }
            if self.eof {
                return Ok(LineEvent::Eof { partial: None });
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    let partial = (!self.pending.is_empty())
                        .then(|| String::from_utf8_lossy(&self.pending).into_owned());
                    self.pending.clear();
                    return Ok(LineEvent::Eof { partial });
                }
                Ok(read) => self.pending.extend_from_slice(&chunk[..read]),
                Err(error)
                    if matches!(
                        error.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineEvent::TimedOut);
                }
                Err(error) => return Err(error),
            }
        }
    }

    /// Writes one line and flushes it.
    pub fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()
    }
}

/// Strips the `tcp://` prefix from a listen/connect spec, e.g.
/// `tcp://127.0.0.1:7801` → `127.0.0.1:7801`.
pub fn parse_tcp_spec(spec: &str) -> Option<&str> {
    spec.strip_prefix("tcp://").filter(|addr| !addr.is_empty())
}

/// Deterministic backoff jitter in `[0, base)`, hashed from a caller
/// identity and the attempt number so concurrent reconnecting workers
/// desynchronize without randomness.
pub fn backoff_jitter_ms(identity: u64, base: u64, attempt: u32) -> u64 {
    if base == 0 {
        return 0;
    }
    let mut hash = 0xcbf29ce484222325u64;
    for byte in identity.to_le_bytes().into_iter().chain((attempt as u64).to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash % base
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

/// The operations the daemon understands.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Run experiment targets at a scope, with a queue priority.
    Run {
        /// Experiment scope (`smoke` / `quick` / `full`).
        scope: ExperimentScope,
        /// Target names (see [`targets::KNOWN_TARGETS`]).
        targets: Vec<String>,
        /// Queue priority: higher pops first.
        priority: i64,
    },
    /// Report cumulative service statistics.
    Stats,
    /// Render the full metrics registry as Prometheus text exposition.
    Metrics,
    /// Liveness check.
    Ping,
    /// Stop the daemon after answering.
    Shutdown,
    /// A fleet worker registers itself, advertising capabilities.
    Register {
        /// The worker's simulation threads.
        threads: usize,
        /// The worker's cell-key schema; must match [`KEY_SCHEMA`].
        schema: String,
    },
    /// A registered worker long-polls for a leased cell.
    Pull {
        /// The worker id from registration.
        worker: u64,
        /// How long the coordinator may hold the poll open (bounded).
        wait_ms: u64,
    },
    /// A registered worker proves liveness, extending its leases. The
    /// optional fields piggyback a compact metrics snapshot so the
    /// coordinator's scrape shows per-worker gauges without extra round
    /// trips.
    Heartbeat {
        /// The worker id from registration.
        worker: u64,
        /// Cells this worker has completed over its session, if reported.
        cells: Option<u64>,
        /// Whether the worker is currently executing a job, if reported.
        busy: Option<bool>,
    },
    /// A worker reports the outcome of a leased cell.
    Complete {
        /// The worker id from registration.
        worker: u64,
        /// The cell being completed.
        key: CellKey,
        /// `Ok`: the serialized result projection. `Err`: the worker-side
        /// error text (deterministic failures reproduce locally).
        outcome: Result<Value, String>,
    },
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let value = serde_json::from_str(line)?;
    let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ServiceError::Protocol("missing \"op\"".to_string()))?;
    let op = match op {
        "run" => {
            let scope = match value.get("scope").and_then(Value::as_str).unwrap_or("smoke") {
                "smoke" => ExperimentScope::Smoke,
                "quick" => ExperimentScope::Quick,
                "full" => ExperimentScope::Full,
                other => return Err(ServiceError::Protocol(format!("unknown scope {other:?}"))),
            };
            let targets: Vec<String> = match value.get("targets").and_then(Value::as_seq) {
                Some(items) => items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ServiceError::Protocol("targets must be strings".to_string()))
                    })
                    .collect::<Result<_, _>>()?,
                None => return Err(ServiceError::Protocol("missing \"targets\"".to_string())),
            };
            if targets.is_empty() {
                return Err(ServiceError::Protocol("\"targets\" must not be empty".to_string()));
            }
            for target in &targets {
                if !targets::KNOWN_TARGETS.contains(&target.as_str()) {
                    return Err(ServiceError::Protocol(format!(
                        "unknown target {target:?} (known: {})",
                        targets::KNOWN_TARGETS.join(", ")
                    )));
                }
            }
            let priority = value.get("priority").and_then(Value::as_i64).unwrap_or(0);
            Op::Run { scope, targets, priority }
        }
        "stats" => Op::Stats,
        "metrics" => Op::Metrics,
        "ping" => Op::Ping,
        "shutdown" => Op::Shutdown,
        "register" => Op::Register {
            threads: value.get("threads").and_then(Value::as_u64).unwrap_or(1) as usize,
            schema: value
                .get("schema")
                .and_then(Value::as_str)
                .ok_or_else(|| ServiceError::Protocol("register requires \"schema\"".to_string()))?
                .to_string(),
        },
        "pull" => Op::Pull {
            worker: worker_field(&value)?,
            wait_ms: value.get("wait_ms").and_then(Value::as_u64).unwrap_or(0),
        },
        "heartbeat" => Op::Heartbeat {
            worker: worker_field(&value)?,
            cells: value.get("cells").and_then(Value::as_u64),
            busy: value.get("busy").and_then(|v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
        },
        "complete" => {
            let key =
                value.get("key").and_then(Value::as_str).and_then(CellKey::from_hex).ok_or_else(|| {
                    ServiceError::Protocol("complete requires a 32-hex \"key\"".to_string())
                })?;
            let outcome = match value.get("result") {
                Some(result) => Ok(result.clone()),
                None => Err(value
                    .get("error")
                    .and_then(Value::as_str)
                    .ok_or_else(|| {
                        ServiceError::Protocol("complete requires \"result\" or \"error\"".to_string())
                    })?
                    .to_string()),
            };
            Op::Complete { worker: worker_field(&value)?, key, outcome }
        }
        other => return Err(ServiceError::Protocol(format!("unknown op {other:?}"))),
    };
    Ok(Request { id, op })
}

fn worker_field(value: &Value) -> Result<u64, ServiceError> {
    value
        .get("worker")
        .and_then(Value::as_u64)
        .ok_or_else(|| ServiceError::Protocol("fleet ops require a \"worker\" id".to_string()))
}

fn stats_json(stats: &ServiceStats) -> String {
    // hit_rate is derived, so splice it next to the counter fields.
    let counters = serde_json::to_string(stats).expect("value-tree serialization cannot fail");
    let body = counters.strip_suffix('}').expect("object");
    format!("{body},\"hit_rate\":{:.6}}}", stats.hit_rate())
}

/// A typed error response line. Retryable and terminal conditions carry
/// machine-readable flags so clients don't have to parse the message text.
pub fn error_response(id: u64, error: &ServiceError) -> String {
    let mut fields = vec![
        ("id".to_string(), serde::Value::UInt(id)),
        ("ok".to_string(), serde::Value::Bool(false)),
        ("error".to_string(), serde::Value::Str(error.to_string())),
    ];
    match error {
        ServiceError::Overloaded { queued, bound } => {
            fields.push(("overloaded".to_string(), serde::Value::Bool(true)));
            fields.push(("queued".to_string(), serde::Value::UInt(*queued as u64)));
            fields.push(("bound".to_string(), serde::Value::UInt(*bound as u64)));
            fields.push(("retry_after_ms".to_string(), serde::Value::UInt(RETRY_AFTER_MS)));
        }
        ServiceError::ShuttingDown => {
            fields.push(("shutting_down".to_string(), serde::Value::Bool(true)));
        }
        _ => {}
    }
    serde_json::to_string(&serde::Value::Map(fields)).expect("value-tree serialization cannot fail")
}

/// Response to a `metrics` request: the full Prometheus text exposition,
/// JSON-quoted under `"exposition"`.
pub fn metrics_response(id: u64, exposition: &str) -> String {
    let quoted = serde_json::to_string(exposition).expect("value-tree serialization cannot fail");
    format!("{{\"id\":{id},\"ok\":true,\"exposition\":{quoted}}}")
}

/// Response to a successful `register`: the worker's id and the lease
/// timeout it must heartbeat within.
pub fn register_response(id: u64, worker: u64, lease_timeout_ms: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"worker\":{worker},\"lease_timeout_ms\":{lease_timeout_ms}}}")
}

/// Response to a `pull`: the leased cell (its key, redelivery count, and
/// the canonical-form payload, embedded raw — it is already JSON), or
/// `"job":null` when nothing arrived within the poll window.
pub fn pull_response(id: u64, job: Option<(CellKey, u32, &str)>) -> String {
    match job {
        Some((key, redeliveries, payload)) => format!(
            "{{\"id\":{id},\"ok\":true,\"job\":{{\"key\":\"{key}\",\"redeliveries\":{redeliveries},\"payload\":{payload}}}}}"
        ),
        None => format!("{{\"id\":{id},\"ok\":true,\"job\":null}}"),
    }
}

/// Response to a `heartbeat`. `live: false` tells the worker it has been
/// presumed dead and must re-register.
pub fn heartbeat_response(id: u64, live: bool) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"live\":{live}}}")
}

/// Response to a `complete`. `accepted: false` marks a stale duplicate
/// (the lease expired and the cell was re-dispatched); the worker just
/// moves on.
pub fn complete_response(id: u64, accepted: bool) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"accepted\":{accepted}}}")
}

/// Validates a registering worker's schema advertisement against this
/// coordinator's [`KEY_SCHEMA`].
pub fn check_schema(schema: &str) -> Result<(), ServiceError> {
    if schema == KEY_SCHEMA {
        Ok(())
    } else {
        Err(ServiceError::Protocol(format!(
            "worker schema {schema:?} does not match coordinator schema {KEY_SCHEMA:?}"
        )))
    }
}

/// Executes a `run` request against `service` and builds the response line.
pub fn run_response(
    service: &ExperimentService,
    id: u64,
    scope: ExperimentScope,
    target_names: &[String],
) -> String {
    let before = service.stats();
    let started = Instant::now();
    let mut results = Vec::with_capacity(target_names.len());
    for name in target_names {
        match targets::run_target(name, scope, service) {
            Ok(Some(json)) => results.push((name.as_str(), json)),
            Ok(None) => {
                return error_response(id, &ServiceError::Protocol(format!("unknown target {name:?}")))
            }
            Err(error) => return error_response(id, &ServiceError::from_runner(error)),
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let delta = service.stats().delta_since(&before);
    let results_json: Vec<String> = results.iter().map(|(name, json)| format!("\"{name}\":{json}")).collect();
    format!(
        "{{\"id\":{id},\"ok\":true,\"wall_s\":{wall_s:.6},\"stats\":{},\"results\":{{{}}}}}",
        stats_json(&delta),
        results_json.join(",")
    )
}

/// Handles one already-parsed request, returning the response line and
/// whether the daemon should shut down afterwards.
pub fn handle_request(service: &ExperimentService, request: &Request) -> (String, bool) {
    match &request.op {
        Op::Run { scope, targets, .. } => (run_response(service, request.id, *scope, targets), false),
        Op::Stats => {
            let stats = service.stats();
            let line = format!(
                "{{\"id\":{},\"ok\":true,\"stats\":{},\"cached_cells\":{}}}",
                request.id,
                stats_json(&stats),
                service.cached_cells()
            );
            (line, false)
        }
        Op::Metrics => (metrics_response(request.id, &service.render_metrics()), false),
        Op::Ping => (format!("{{\"id\":{},\"ok\":true,\"pong\":true}}", request.id), false),
        Op::Shutdown => (format!("{{\"id\":{},\"ok\":true,\"shutdown\":true}}", request.id), true),
        // Fleet ops are routed by the daemon when a fleet is attached; a
        // fleet-less path (stdin session, plain tests) refuses them loudly.
        Op::Register { .. } | Op::Pull { .. } | Op::Heartbeat { .. } | Op::Complete { .. } => (
            error_response(
                request.id,
                &ServiceError::Protocol("this endpoint has no fleet coordinator".to_string()),
            ),
            false,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run_requests() {
        let request =
            parse_request(r#"{"op":"run","id":7,"scope":"smoke","targets":["fig9"],"priority":-3}"#).unwrap();
        assert_eq!(request.id, 7);
        assert_eq!(
            request.op,
            Op::Run { scope: ExperimentScope::Smoke, targets: vec!["fig9".to_string()], priority: -3 }
        );
    }

    #[test]
    fn defaults_and_errors() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request { id: 0, op: Op::Ping });
        assert!(matches!(parse_request("not json"), Err(ServiceError::Json(_))));
        assert!(matches!(parse_request(r#"{"id":1}"#), Err(ServiceError::Protocol(_))));
        assert!(parse_request(r#"{"op":"run","targets":[]}"#).is_err());
        assert!(parse_request(r#"{"op":"run","targets":["nope"]}"#).is_err());
        assert!(parse_request(r#"{"op":"run","scope":"huge","targets":["fig9"]}"#).is_err());
    }

    #[test]
    fn error_responses_are_parseable_json() {
        let line = error_response(3, &ServiceError::Protocol("bad \"thing\"".to_string()));
        let value = serde_json::from_str(&line).unwrap();
        assert_eq!(value.get("ok"), Some(&serde::Value::Bool(false)));
        assert_eq!(value.get("error").and_then(Value::as_str), Some("bad \"thing\""));
    }

    #[test]
    fn overloaded_responses_carry_the_retry_flags() {
        let line = error_response(9, &ServiceError::Overloaded { queued: 4, bound: 4 });
        let value = serde_json::from_str(&line).unwrap();
        assert_eq!(value.get("overloaded"), Some(&serde::Value::Bool(true)));
        assert_eq!(value.get("retry_after_ms").and_then(Value::as_u64), Some(RETRY_AFTER_MS));
        assert_eq!(value.get("queued").and_then(Value::as_u64), Some(4));

        let line = error_response(2, &ServiceError::ShuttingDown);
        let value = serde_json::from_str(&line).unwrap();
        assert_eq!(value.get("shutting_down"), Some(&serde::Value::Bool(true)));
        assert_eq!(value.get("overloaded"), None);
    }
}
