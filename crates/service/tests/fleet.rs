//! End-to-end fleet tests over real TCP sockets: a coordinator daemon, real
//! and hand-driven workers, and the failure matrix the fleet is built for —
//! worker death mid-cell, lease expiry with duplicate completions, spent
//! redelivery budgets, degradation to local execution, and shutdown drain.
//!
//! Hand-driven workers ([`ManualWorker`]) speak the wire protocol directly
//! so the tests control exactly when a worker pulls, heartbeats, completes,
//! or vanishes; real workers ([`comet_service::run_worker`]) exercise the
//! production reconnect/heartbeat machinery plus the scripted fault hooks.

#![cfg(unix)]

use comet_service::protocol::{LineConn, LineEvent};
use comet_service::store::result_projection;
use comet_service::{
    run_worker, Daemon, ExperimentService, FaultPlan, Fleet, LeaseConfig, WorkerConfig, KEY_SCHEMA,
};
use comet_sim::experiments::{CellBackend, CellSpec, ParallelExecutor};
use comet_sim::{MechanismKind, Runner, RunnerError, SimConfig};
use serde::Value;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn smoke_cell() -> (Runner, CellSpec) {
    (Runner::new(SimConfig::quick_test()), CellSpec::single("429.mcf", MechanismKind::Baseline, 1000))
}

fn value_to_string(value: &Value) -> String {
    serde_json::to_string(value).expect("value-tree serialization cannot fail")
}

fn wait_until(what: &str, timeout_ms: u64, mut check: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    while !check() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Starts a coordinator daemon on an ephemeral TCP port, runs `body`, then
/// shuts the daemon down over the wire and joins its serving thread.
fn with_fleet_daemon(lease: LeaseConfig, body: impl FnOnce(&Daemon, &str)) {
    let service = Arc::new(ExperimentService::new(ParallelExecutor::new()));
    let daemon = Daemon::with_queue_bound(service, 1, 64).with_fleet(Arc::new(Fleet::new(lease)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap().to_string();
    let daemon = &daemon;
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || daemon.serve_listeners(None, Some(listener), None));
        // A panicking body must still shut the daemon down, or joining the
        // serving thread would hang the whole test binary.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(daemon, &addr)));
        if !daemon.is_shutdown() {
            let response = client_request(&addr, "{\"op\":\"shutdown\",\"id\":999}");
            if outcome.is_ok() {
                assert!(response.contains("\"shutdown\":true"), "{response}");
            }
        }
        serving.join().unwrap().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    });
}

/// One client round-trip over a fresh TCP connection.
fn client_request(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut conn = LineConn::new(stream);
    conn.write_line(line).unwrap();
    read_line(&mut conn)
}

fn read_line(conn: &mut LineConn<TcpStream>) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match conn.read_event().expect("socket read") {
            LineEvent::Line(line) => return line,
            LineEvent::TimedOut => {
                assert!(Instant::now() < deadline, "timed out waiting for a response line");
            }
            LineEvent::Eof { partial } => panic!("connection closed (partial: {partial:?})"),
        }
    }
}

/// A hand-driven fleet worker: registers over TCP and exposes the wire ops
/// as methods, so tests script exact interleavings. Dropping it closes the
/// connection — to the coordinator, that is a worker crash.
struct ManualWorker {
    conn: LineConn<TcpStream>,
    worker: u64,
    next_id: u64,
}

impl ManualWorker {
    fn connect(addr: &str) -> Self {
        Self::try_connect(addr, KEY_SCHEMA).expect("registration accepted")
    }

    fn try_connect(addr: &str, schema: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).expect("connect to the coordinator");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.set_nodelay(true).ok();
        let mut conn = LineConn::new(stream);
        conn.write_line(&format!("{{\"op\":\"register\",\"id\":1,\"threads\":1,\"schema\":\"{schema}\"}}"))
            .unwrap();
        let value = serde_json::from_str(&read_line(&mut conn)).expect("parseable response");
        if value.get("ok") != Some(&Value::Bool(true)) {
            return Err(value
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("registration refused")
                .to_string());
        }
        let worker = value.get("worker").and_then(Value::as_u64).expect("worker id");
        assert!(
            value.get("lease_timeout_ms").and_then(Value::as_u64).is_some(),
            "registration advertises the lease timeout"
        );
        Ok(ManualWorker { conn, worker, next_id: 2 })
    }

    fn request(&mut self, line: &str) -> Value {
        self.conn.write_line(line).unwrap();
        serde_json::from_str(&read_line(&mut self.conn)).expect("parseable response")
    }

    fn pull(&mut self, wait_ms: u64) -> Option<(String, u64, Value)> {
        let id = self.next_id;
        self.next_id += 1;
        let worker = self.worker;
        let response = self
            .request(&format!("{{\"op\":\"pull\",\"id\":{id},\"worker\":{worker},\"wait_ms\":{wait_ms}}}"));
        assert_eq!(response.get("ok"), Some(&Value::Bool(true)), "{response:?}");
        let job = response.get("job").expect("pull responses carry a job field");
        if matches!(job, Value::Null) {
            return None;
        }
        let key = job.get("key").and_then(Value::as_str).expect("job key").to_string();
        let redeliveries = job.get("redeliveries").and_then(Value::as_u64).expect("redelivery count");
        let payload = job.get("payload").expect("job payload").clone();
        Some((key, redeliveries, payload))
    }

    /// Pulls until a job arrives (bounded), re-polling the coordinator.
    fn pull_job(&mut self, what: &str) -> (String, u64, Value) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(job) = self.pull(200) {
                return job;
            }
            assert!(Instant::now() < deadline, "timed out pulling {what}");
        }
    }

    fn heartbeat(&mut self) -> bool {
        let id = self.next_id;
        self.next_id += 1;
        let worker = self.worker;
        let response = self.request(&format!("{{\"op\":\"heartbeat\",\"id\":{id},\"worker\":{worker}}}"));
        response.get("live") == Some(&Value::Bool(true))
    }

    fn complete(&mut self, key: &str, result_json: &str) -> bool {
        let id = self.next_id;
        self.next_id += 1;
        let worker = self.worker;
        let response = self.request(&format!(
            "{{\"op\":\"complete\",\"id\":{id},\"worker\":{worker},\"key\":\"{key}\",\"result\":{result_json}}}"
        ));
        response.get("accepted") == Some(&Value::Bool(true))
    }
}

/// Simulates a pulled job's payload the way a real worker does and returns
/// the result projection to report back.
fn simulate_payload(payload: &Value) -> String {
    let text = value_to_string(payload);
    let job = comet_service::wire::decode_job(&text).expect("payload decodes");
    let result = job.cell.run(&job.runner).expect("cell simulates");
    result_projection(&result)
}

/// The tentpole end-to-end path: a real `run_worker` over TCP completes a
/// cell submitted through the service, and the remote result is bit-exact
/// with a single-node run of the same cell.
#[test]
fn a_remote_worker_completes_cells_bit_exact_with_single_node() {
    let (runner, cell) = smoke_cell();
    let local = cell.run(&runner).unwrap();
    let cells = vec![cell];
    with_fleet_daemon(LeaseConfig::default(), |daemon, addr| {
        let stop = Arc::new(AtomicBool::new(false));
        let config = WorkerConfig { addr: addr.to_string(), identity: 7, ..WorkerConfig::default() };
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| run_worker(&config, &stop));
            wait_until("worker registration", 5_000, || daemon.fleet().unwrap().stats().workers_live == 1);
            let results = daemon.service().run_cells(&runner, &cells).unwrap();
            assert_eq!(
                result_projection(&results[0]),
                result_projection(&local),
                "remote completion must be bit-exact with a single-node run"
            );
            let stats = daemon.service().stats();
            assert_eq!(stats.remote_cells, 1);
            assert_eq!(stats.local_fallbacks, 0);
            assert_eq!(stats.workers_live, 1);
            assert_eq!(stats.leases_expired, 0);
            stop.store(true, Ordering::Release);
            let report = worker.join().unwrap().unwrap();
            assert_eq!(report.completed, 1);
            assert_eq!(report.failed, 0);
            assert_eq!(report.stale, 0);
        });
    });
}

/// Failover: a worker that dies mid-cell (scripted crash, connection drops)
/// loses its lease immediately, and the cell completes on another worker —
/// bit-exact, with the reassignment visible in the stats.
#[test]
fn a_killed_workers_cell_completes_on_another_worker() {
    let (runner, cell) = smoke_cell();
    let local = cell.run(&runner).unwrap();
    let label = cell.label();
    let cells = vec![cell.clone()];
    // Long lease: the test must pass because the *connection drop* expires
    // the lease, not because a timeout happened to elapse.
    let lease = LeaseConfig { lease_timeout_ms: 10_000, max_redeliveries: 3 };
    with_fleet_daemon(lease, |daemon, addr| {
        let stop = Arc::new(AtomicBool::new(false));
        let faults = Arc::new(FaultPlan::new().die_on_cell(&label, 1));
        let config = WorkerConfig {
            addr: addr.to_string(),
            identity: 13,
            faults: Some(faults),
            ..WorkerConfig::default()
        };
        std::thread::scope(|scope| {
            let dying = scope.spawn(|| run_worker(&config, &stop));
            wait_until("dying worker registration", 5_000, || {
                daemon.fleet().unwrap().stats().workers_live == 1
            });
            // The survivor registers before the victim dies, so the fleet
            // never hits zero workers (which would degrade to local).
            let mut survivor = ManualWorker::connect(addr);
            let run = scope.spawn(|| daemon.service().run_cells(&runner, &cells));
            let report = dying.join().unwrap().unwrap();
            assert!(report.died_on_cell, "the scripted fault must have fired");
            let (key, redeliveries, payload) = survivor.pull_job("the requeued cell");
            assert!(redeliveries >= 1, "the cell must arrive as a redelivery");
            assert!(survivor.complete(&key, &simulate_payload(&payload)));
            let results = run.join().unwrap().unwrap();
            assert_eq!(
                result_projection(&results[0]),
                result_projection(&local),
                "the failed-over completion must be bit-exact with a single-node run"
            );
            let stats = daemon.service().stats();
            assert!(stats.leases_expired >= 1, "stats: {stats:?}");
            assert!(stats.redeliveries >= 1, "stats: {stats:?}");
            assert_eq!(stats.remote_cells, 1);
            assert_eq!(stats.local_fallbacks, 0);
        });
    });
}

/// At-least-once delivery produces duplicates by design; the coordinator
/// must absorb them: after a lease expires and the cell completes elsewhere,
/// the original worker's late completion is refused as stale.
#[test]
fn duplicate_completions_after_lease_expiry_are_absorbed() {
    let (runner, cell) = smoke_cell();
    let cells = vec![cell];
    let lease = LeaseConfig { lease_timeout_ms: 400, max_redeliveries: 3 };
    with_fleet_daemon(lease, |daemon, addr| {
        std::thread::scope(|scope| {
            let mut sleeper = ManualWorker::connect(addr);
            let mut survivor = ManualWorker::connect(addr);
            let run = scope.spawn(|| daemon.service().run_cells(&runner, &cells));
            // The sleeper takes the lease and stalls without heartbeating.
            // Its connection stays open. It simulates the cell only when it
            // wakes: simulating here could outlast the lease timeout while
            // the survivor, not yet heartbeating, would be deregistered.
            let (sleeper_key, _, sleeper_payload) = sleeper.pull_job("the first delivery");
            // The survivor heartbeats (staying live) until the sleeper's
            // lease expires and the cell is redelivered to it.
            let deadline = Instant::now() + Duration::from_secs(10);
            let (key, redeliveries, payload) = loop {
                assert!(survivor.heartbeat(), "the survivor must stay registered");
                if let Some(job) = survivor.pull(100) {
                    break job;
                }
                assert!(Instant::now() < deadline, "timed out waiting for the redelivery");
            };
            assert_eq!(key, sleeper_key, "the same cell must be redelivered");
            assert!(redeliveries >= 1);
            assert!(survivor.complete(&key, &simulate_payload(&payload)));
            let results = run.join().unwrap().unwrap();
            assert!(!results.is_empty());
            // The sleeper wakes up and reports late: refused, not absorbed
            // twice.
            let sleeper_result = simulate_payload(&sleeper_payload);
            assert!(
                !sleeper.complete(&sleeper_key, &sleeper_result),
                "a post-expiry duplicate completion must be refused as stale"
            );
            let stats = daemon.service().stats();
            assert!(stats.stale_completions >= 1, "stats: {stats:?}");
            assert!(stats.leases_expired >= 1, "stats: {stats:?}");
            assert_eq!(stats.remote_cells, 1);
        });
    });
}

/// A cell whose every lease dies exhausts its redelivery budget and surfaces
/// as the typed `LeaseExhausted` error — never an infinite redispatch loop.
#[test]
fn a_spent_redelivery_budget_is_a_typed_lease_exhausted_error() {
    let (runner, cell) = smoke_cell();
    let cells = vec![cell];
    let lease = LeaseConfig { lease_timeout_ms: 10_000, max_redeliveries: 1 };
    with_fleet_daemon(lease, |daemon, addr| {
        std::thread::scope(|scope| {
            let mut first = ManualWorker::connect(addr);
            // The second victim registers up front so the fleet never sees
            // zero workers (which would degrade to local instead).
            let mut second = ManualWorker::connect(addr);
            let run = scope.spawn(|| daemon.service().run_cells(&runner, &cells));
            let (_, redeliveries, _) = first.pull_job("the first delivery");
            assert_eq!(redeliveries, 0);
            drop(first); // crash: the dropped connection expires the lease
            let (_, redeliveries, _) = second.pull_job("the redelivery");
            assert_eq!(redeliveries, 1);
            drop(second); // crash again: the budget (1) is now spent
            let error = run.join().unwrap().unwrap_err();
            assert!(
                matches!(error, RunnerError::LeaseExhausted { redeliveries: 1, .. }),
                "expected LeaseExhausted, got {error:?}"
            );
            let fleet_stats = daemon.fleet().unwrap().stats();
            assert_eq!(fleet_stats.exhausted, 1);
            assert_eq!(fleet_stats.redeliveries, 1);
            assert_eq!(fleet_stats.leases_expired, 2);
        });
    });
}

/// Graceful degradation: with a fleet attached but zero workers connected,
/// cells run locally — same results, no errors, and the fallback is counted.
#[test]
fn zero_workers_degrades_to_local_execution() {
    let (runner, cell) = smoke_cell();
    let local = cell.run(&runner).unwrap();
    let service = Arc::new(ExperimentService::new(ParallelExecutor::new()));
    let _daemon = Daemon::new(service.clone(), 1).with_fleet(Arc::new(Fleet::new(LeaseConfig::default())));
    let results = service.run_cells(&runner, &[cell]).unwrap();
    assert_eq!(result_projection(&results[0]), result_projection(&local));
    let stats = service.stats();
    assert_eq!(stats.local_fallbacks, 1, "stats: {stats:?}");
    assert_eq!(stats.remote_cells, 0);
    assert_eq!(stats.workers_live, 0);
}

/// Shutdown drains outstanding leases: the blocked submitter gets the typed
/// `Draining` error, and a worker's in-flight pull is refused with the
/// machine-readable `shutting_down` flag.
#[test]
fn shutdown_drains_leases_with_typed_rejections() {
    let (runner, cell) = smoke_cell();
    let cells = vec![cell];
    with_fleet_daemon(LeaseConfig::default(), |daemon, addr| {
        std::thread::scope(|scope| {
            let mut holder = ManualWorker::connect(addr);
            let run = scope.spawn(|| daemon.service().run_cells(&runner, &cells));
            // The holder leases the cell and sits on it.
            let _job = holder.pull_job("the cell to hold");
            // Park a long-poll pull so the drain rejection arrives through
            // an in-flight request.
            let worker = holder.worker;
            holder
                .conn
                .write_line(&format!("{{\"op\":\"pull\",\"id\":77,\"worker\":{worker},\"wait_ms\":1000}}"))
                .unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let response = client_request(addr, "{\"op\":\"shutdown\",\"id\":9}");
            assert!(response.contains("\"shutdown\":true"), "{response}");
            let error = run.join().unwrap().unwrap_err();
            assert!(matches!(error, RunnerError::Draining { .. }), "expected Draining, got {error:?}");
            let refusal = serde_json::from_str(&read_line(&mut holder.conn)).unwrap();
            assert_eq!(refusal.get("ok"), Some(&Value::Bool(false)));
            assert_eq!(
                refusal.get("shutting_down"),
                Some(&Value::Bool(true)),
                "drained pulls must carry the machine-readable flag"
            );
        });
    });
}

/// A mixed-version fleet must fail loudly at the door: registration with a
/// different cell-key schema is refused with a typed error.
#[test]
fn mismatched_schema_registration_is_refused() {
    with_fleet_daemon(LeaseConfig::default(), |daemon, addr| {
        let refusal = ManualWorker::try_connect(addr, "comet-cell/v0")
            .err()
            .expect("a wrong-schema registration must be refused");
        assert!(refusal.contains("schema"), "{refusal}");
        assert_eq!(daemon.fleet().unwrap().stats().workers_live, 0);
    });
}

/// Network fault injection on the result path: a worker whose first result
/// delivery is dropped mid-send reconnects, the cell requeues off the dead
/// connection, and the retried delivery completes the sweep.
#[test]
fn a_dropped_result_delivery_is_retried_after_reconnect() {
    let (runner, cell) = smoke_cell();
    let local = cell.run(&runner).unwrap();
    let cells = vec![cell];
    let lease = LeaseConfig { lease_timeout_ms: 10_000, max_redeliveries: 3 };
    with_fleet_daemon(lease, |daemon, addr| {
        let stop = Arc::new(AtomicBool::new(false));
        let faults = Arc::new(FaultPlan::new().fail_delivery(0, comet_service::DeliverFault::Drop));
        let config = WorkerConfig {
            addr: addr.to_string(),
            identity: 21,
            backoff_ms: 20,
            faults: Some(faults),
            ..WorkerConfig::default()
        };
        std::thread::scope(|scope| {
            // A connected bystander keeps `workers_live` above zero during
            // the faulted worker's reconnect window — otherwise the fleet
            // would (correctly) degrade to local instead of redelivering.
            let _bystander = ManualWorker::connect(addr);
            let worker = scope.spawn(|| run_worker(&config, &stop));
            wait_until("worker registration", 5_000, || daemon.fleet().unwrap().stats().workers_live >= 2);
            let results = daemon.service().run_cells(&runner, &cells).unwrap();
            // Stop the worker before asserting: a failed assert inside this
            // scope would otherwise hang joining the still-pulling worker.
            stop.store(true, Ordering::Release);
            let report = worker.join().unwrap().unwrap();
            assert_eq!(result_projection(&results[0]), result_projection(&local));
            let stats = daemon.service().stats();
            assert!(stats.leases_expired >= 1, "stats: {stats:?}");
            assert_eq!(stats.remote_cells, 1);
            assert!(report.reconnects >= 1, "report: {report:?}");
            assert_eq!(report.completed, 1);
        });
    });
}
