//! The fleet worker: connects out to a coordinator, pulls leased cells,
//! simulates them, and streams results back.
//!
//! A worker holds **two** connections to the coordinator:
//!
//! * the *work* connection carries `register` → `pull`/`complete` in
//!   lockstep. The coordinator ties the worker's registration to this
//!   connection, so losing it expires the worker's leases immediately —
//!   faster failover than waiting out the heartbeat timeout;
//! * the *heartbeat* connection carries periodic `heartbeat` ops so a
//!   worker grinding through a long cell still proves liveness.
//!
//! Every failure path converges on one reconnect loop with deterministic
//! jittered exponential backoff
//! ([`protocol::backoff_jitter_ms`](crate::protocol::backoff_jitter_ms)):
//! fresh connection, fresh registration, fresh worker id. The coordinator
//! treats the old id as dead and requeues anything it held. A schema refusal at
//! registration is fatal (a mixed-version fleet must fail loudly, not
//! retry forever); a `shutting_down` response is a clean exit.
//!
//! Simulation panics are contained worker-side (`catch_unwind`) and
//! reported as typed failures — the coordinator's service falls back to a
//! local run, which reproduces the error deterministically. The scripted
//! fault hooks ([`FaultPlan::on_worker_cell`], [`FaultPlan::on_deliver`])
//! let tests kill a worker mid-cell and drop or tear a result delivery —
//! each exercising a distinct coordinator failover path.

use crate::error::ServiceError;
use crate::faults::{DeliverFault, FaultPlan};
use crate::key::{CellKey, KEY_SCHEMA};
use crate::protocol::{backoff_jitter_ms, LineConn, LineEvent};
use crate::store;
use crate::wire;
use serde::Value;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long one `pull` asks the coordinator to hold the poll open.
const PULL_WAIT_MS: u64 = 500;

/// Socket read timeout; reads loop on timeouts so loops stay responsive to
/// stop/death flags.
const READ_TIMEOUT_MS: u64 = 250;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address, e.g. `127.0.0.1:7801`.
    pub addr: String,
    /// Heartbeat period.
    pub heartbeat_ms: u64,
    /// Base reconnect backoff (doubles per consecutive failure, jittered).
    pub backoff_ms: u64,
    /// Consecutive failed reconnects before giving up. `None` retries until
    /// stopped.
    pub max_reconnects: Option<u32>,
    /// Identity seed for deterministic backoff jitter (e.g. the PID).
    pub identity: u64,
    /// Scripted faults (tests only).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            addr: String::new(),
            heartbeat_ms: 500,
            backoff_ms: 100,
            max_reconnects: Some(20),
            identity: 1,
            faults: None,
        }
    }
}

/// What a worker did over its lifetime, for logs and test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells simulated and accepted by the coordinator.
    pub completed: u64,
    /// Cells whose simulation failed (failure reported upstream).
    pub failed: u64,
    /// Completions the coordinator marked stale (lease had expired).
    pub stale: u64,
    /// Successful registrations (1 + re-registrations after reconnects).
    pub registrations: u64,
    /// Reconnect attempts after a lost or faulted session.
    pub reconnects: u64,
    /// The worker died mid-cell on a scripted fault (lease left open).
    pub died_on_cell: bool,
}

/// Why a worker session (one connection pair) ended.
enum SessionEnd {
    /// Connection lost or faulted: reconnect and re-register.
    Reconnect,
    /// Coordinator is shutting down (or the stop flag was raised): exit.
    Finished,
    /// Scripted mid-cell death: exit abruptly, lease still open.
    Died,
}

fn json_quote(text: &str) -> String {
    serde_json::to_string(text).expect("value-tree serialization cannot fail")
}

/// Runs a worker until the coordinator drains, `stop` is raised, the
/// reconnect budget is spent, or a scripted fault kills it.
///
/// Returns `Err` only for fatal protocol failures (schema refused at
/// registration); everything transient is absorbed by the reconnect loop.
pub fn run_worker(config: &WorkerConfig, stop: &Arc<AtomicBool>) -> Result<WorkerReport, ServiceError> {
    let mut report = WorkerReport::default();
    let mut consecutive_failures: u32 = 0;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(report);
        }
        match run_session(config, stop, &mut report) {
            Ok(SessionEnd::Finished) => return Ok(report),
            Ok(SessionEnd::Died) => {
                report.died_on_cell = true;
                return Ok(report);
            }
            Ok(SessionEnd::Reconnect) => consecutive_failures = 0,
            Err(SessionError::Fatal(error)) => return Err(error),
            Err(SessionError::Transient) => consecutive_failures += 1,
        }
        if let Some(max) = config.max_reconnects {
            if consecutive_failures > max {
                return Ok(report);
            }
        }
        report.reconnects += 1;
        let shift = consecutive_failures.min(6);
        let base = config.backoff_ms.saturating_mul(1 << shift).max(1);
        let pause = base / 2 + backoff_jitter_ms(config.identity, base.max(2) / 2, report.reconnects as u32);
        sleep_unless_stopped(stop, pause);
    }
}

enum SessionError {
    /// Could not establish or register the session; retry with backoff.
    Transient,
    /// Protocol-fatal (schema refused): do not retry.
    Fatal(ServiceError),
}

fn sleep_unless_stopped(stop: &AtomicBool, total_ms: u64) {
    let mut remaining = total_ms;
    while remaining > 0 && !stop.load(Ordering::Acquire) {
        let chunk = remaining.min(50);
        std::thread::sleep(Duration::from_millis(chunk));
        remaining -= chunk;
    }
}

fn connect(addr: &str) -> std::io::Result<LineConn<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_millis(READ_TIMEOUT_MS)))?;
    stream.set_nodelay(true).ok();
    Ok(LineConn::new(stream))
}

/// Reads one response line, looping on timeouts while the session is live.
///
/// The stop/dead flags are only honored on a read *timeout*: a response
/// already in flight is always drained, so a worker stopped right after the
/// coordinator accepted its result still observes (and counts) the
/// acknowledgement instead of abandoning it mid-read.
fn read_response(conn: &mut LineConn<TcpStream>, stop: &AtomicBool, dead: &AtomicBool) -> Option<Value> {
    loop {
        match conn.read_event() {
            Ok(LineEvent::Line(line)) => return serde_json::from_str(&line).ok(),
            Ok(LineEvent::TimedOut) => {
                if stop.load(Ordering::Acquire) || dead.load(Ordering::Acquire) {
                    return None;
                }
            }
            Ok(LineEvent::Eof { .. }) | Err(_) => return None,
        }
    }
}

fn is_shutting_down(response: &Value) -> bool {
    response.get("shutting_down").is_some_and(|flag| flag == &Value::Bool(true))
}

fn response_ok(response: &Value) -> bool {
    response.get("ok") == Some(&Value::Bool(true))
}

fn run_session(
    config: &WorkerConfig,
    stop: &Arc<AtomicBool>,
    report: &mut WorkerReport,
) -> Result<SessionEnd, SessionError> {
    let mut work = connect(&config.addr).map_err(|_| SessionError::Transient)?;
    let session_dead = Arc::new(AtomicBool::new(false));

    // Register on the work connection.
    let register = format!("{{\"op\":\"register\",\"id\":1,\"schema\":{}}}", json_quote(KEY_SCHEMA));
    work.write_line(&register).map_err(|_| SessionError::Transient)?;
    let response = read_response(&mut work, stop, &session_dead).ok_or(SessionError::Transient)?;
    if !response_ok(&response) {
        if is_shutting_down(&response) {
            return Ok(SessionEnd::Finished);
        }
        let message =
            response.get("error").and_then(Value::as_str).unwrap_or("registration refused").to_string();
        return Err(SessionError::Fatal(ServiceError::Protocol(message)));
    }
    let worker = response.get("worker").and_then(Value::as_u64).ok_or(SessionError::Transient)?;
    report.registrations += 1;

    // The heartbeat piggybacks a compact snapshot of these (relaxed reads of
    // values the work loop maintains), so the coordinator's scrape can show
    // per-worker progress without extra round trips.
    let cells_done = Arc::new(AtomicU64::new(report.completed));
    let busy = Arc::new(AtomicBool::new(false));

    // Heartbeats flow on their own connection so a long-running cell cannot
    // starve them. Failures here just flag the session dead; the work loop
    // notices and reconnects.
    let heartbeat_thread = {
        let addr = config.addr.clone();
        let period = config.heartbeat_ms;
        let dead = session_dead.clone();
        let stop = stop.clone();
        let cells_done = cells_done.clone();
        let busy = busy.clone();
        std::thread::spawn(move || {
            let Ok(mut conn) = connect(&addr) else {
                return;
            };
            let mut id = 0u64;
            while !stop.load(Ordering::Acquire) && !dead.load(Ordering::Acquire) {
                id += 1;
                let line = format!(
                    "{{\"op\":\"heartbeat\",\"id\":{id},\"worker\":{worker},\"cells\":{},\"busy\":{}}}",
                    cells_done.load(Ordering::Relaxed),
                    busy.load(Ordering::Relaxed)
                );
                if conn.write_line(&line).is_err() {
                    dead.store(true, Ordering::Release);
                    return;
                }
                match read_response(&mut conn, &stop, &dead) {
                    Some(response) if response_ok(&response) => {
                        // `live:false` ⇒ the coordinator presumed us dead;
                        // force a re-registration.
                        if response.get("live") == Some(&Value::Bool(false)) {
                            dead.store(true, Ordering::Release);
                            return;
                        }
                    }
                    _ => {
                        dead.store(true, Ordering::Release);
                        return;
                    }
                }
                let mut remaining = period;
                while remaining > 0 && !stop.load(Ordering::Acquire) && !dead.load(Ordering::Acquire) {
                    let chunk = remaining.min(50);
                    std::thread::sleep(Duration::from_millis(chunk));
                    remaining -= chunk;
                }
            }
        })
    };

    let end = work_loop(config, stop, &session_dead, &mut work, worker, report, &cells_done, &busy);
    session_dead.store(true, Ordering::Release);
    drop(work);
    heartbeat_thread.join().ok();
    end
}

#[allow(clippy::too_many_arguments)]
fn work_loop(
    config: &WorkerConfig,
    stop: &AtomicBool,
    session_dead: &AtomicBool,
    work: &mut LineConn<TcpStream>,
    worker: u64,
    report: &mut WorkerReport,
    cells_done: &AtomicU64,
    busy: &AtomicBool,
) -> Result<SessionEnd, SessionError> {
    let mut id = 1u64;
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(SessionEnd::Finished);
        }
        if session_dead.load(Ordering::Acquire) {
            return Ok(SessionEnd::Reconnect);
        }
        id += 1;
        let pull = format!("{{\"op\":\"pull\",\"id\":{id},\"worker\":{worker},\"wait_ms\":{PULL_WAIT_MS}}}");
        if work.write_line(&pull).is_err() {
            return Ok(SessionEnd::Reconnect);
        }
        let Some(response) = read_response(work, stop, session_dead) else {
            if stop.load(Ordering::Acquire) {
                return Ok(SessionEnd::Finished);
            }
            return Ok(SessionEnd::Reconnect);
        };
        if !response_ok(&response) {
            if is_shutting_down(&response) {
                return Ok(SessionEnd::Finished);
            }
            // Unknown worker (presumed dead while we polled): re-register.
            return Ok(SessionEnd::Reconnect);
        }
        let Some(job) = response.get("job").filter(|job| **job != Value::Null) else {
            continue;
        };
        let Some(key) = job.get("key").and_then(Value::as_str).and_then(CellKey::from_hex) else {
            return Ok(SessionEnd::Reconnect);
        };
        busy.store(true, Ordering::Relaxed);
        let outcome = match execute_job(config, job) {
            JobOutcome::Died => return Ok(SessionEnd::Died),
            JobOutcome::Ran(outcome) => outcome,
        };
        busy.store(false, Ordering::Relaxed);
        id += 1;
        let line = match &outcome {
            Ok(projection) => format!(
                "{{\"op\":\"complete\",\"id\":{id},\"worker\":{worker},\"key\":\"{key}\",\"result\":{projection}}}"
            ),
            Err(message) => format!(
                "{{\"op\":\"complete\",\"id\":{id},\"worker\":{worker},\"key\":\"{key}\",\"error\":{}}}",
                json_quote(message)
            ),
        };
        match config.faults.as_ref().map(|plan| plan.on_deliver()).unwrap_or(DeliverFault::Proceed) {
            DeliverFault::Proceed => {}
            DeliverFault::Drop => return Ok(SessionEnd::Reconnect),
            DeliverFault::Truncate { keep_bytes } => {
                let torn = &line.as_bytes()[..keep_bytes.min(line.len())];
                let stream = work.get_mut();
                stream.write_all(torn).ok();
                stream.flush().ok();
                return Ok(SessionEnd::Reconnect);
            }
        }
        if work.write_line(&line).is_err() {
            return Ok(SessionEnd::Reconnect);
        }
        let Some(response) = read_response(work, stop, session_dead) else {
            return Ok(SessionEnd::Reconnect);
        };
        if !response_ok(&response) {
            if is_shutting_down(&response) {
                return Ok(SessionEnd::Finished);
            }
            return Ok(SessionEnd::Reconnect);
        }
        let accepted = response.get("accepted") == Some(&Value::Bool(true));
        if !accepted {
            report.stale += 1;
            continue;
        }
        match &outcome {
            Ok(_) => {
                report.completed += 1;
                cells_done.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => report.failed += 1,
        }
    }
}

enum JobOutcome {
    /// Simulation ran; `Ok` carries the serialized result projection.
    Ran(Result<String, String>),
    /// A scripted fault killed the worker mid-cell.
    Died,
}

fn execute_job(config: &WorkerConfig, job: &Value) -> JobOutcome {
    let Some(payload) = job.get("payload") else {
        return JobOutcome::Ran(Err("pull response carried no payload".to_string()));
    };
    // Re-serialize the payload subtree; `decode_job`'s byte-equality check
    // against the canonical form catches any drift this could introduce.
    let payload_text = serde_json::to_string(payload).expect("value-tree serialization cannot fail");
    let job = match wire::decode_job(&payload_text) {
        Ok(job) => job,
        Err(error) => return JobOutcome::Ran(Err(format!("undecodable cell: {error}"))),
    };
    let label = job.cell.label();
    if config.faults.as_ref().is_some_and(|plan| plan.on_worker_cell(&label)) {
        return JobOutcome::Died;
    }
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.cell.run(&job.runner)));
    let outcome = match run {
        Ok(Ok(result)) => Ok(store::result_projection(&result)),
        Ok(Err(error)) => Err(error.to_string()),
        Err(_) => Err(format!("worker panic while simulating {label}")),
    };
    JobOutcome::Ran(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_quote_escapes() {
        assert_eq!(json_quote("a\"b\\c"), r#""a\"b\\c""#);
    }

    #[test]
    fn connect_failure_is_transient_and_bounded() {
        // Point at a port nothing listens on; the reconnect budget bounds
        // the loop, and the report shows the attempts.
        let config = WorkerConfig {
            addr: "127.0.0.1:9".to_string(),
            backoff_ms: 1,
            max_reconnects: Some(2),
            ..WorkerConfig::default()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let report = run_worker(&config, &stop).unwrap();
        assert_eq!(report.registrations, 0);
        assert!(report.reconnects >= 2);
    }

    #[test]
    fn stop_flag_short_circuits() {
        let config = WorkerConfig { addr: "127.0.0.1:9".to_string(), ..WorkerConfig::default() };
        let stop = Arc::new(AtomicBool::new(true));
        let report = run_worker(&config, &stop).unwrap();
        assert_eq!(report, WorkerReport::default());
    }
}
