//! The fleet coordinator: lease-based cell dispatch over real time.
//!
//! [`Fleet`] wraps the pure [`LeaseTable`] in a mutex/condvar and an
//! [`Instant`] clock, and is the meeting point of the two sides of the
//! distributed service:
//!
//! * the **service side** calls [`Fleet::run_cell`] from inside
//!   `run_cell_contained` — it submits the cell's canonical form for
//!   dispatch and blocks until a worker completes it, the redelivery budget
//!   is exhausted, the coordinator drains, or the fleet decides the cell is
//!   better run locally (zero live workers, a deterministic remote failure,
//!   or a pending cell no worker ever pulled);
//! * the **daemon side** calls [`register`](Fleet::register) /
//!   [`pull`](Fleet::pull) / [`heartbeat`](Fleet::heartbeat) /
//!   [`complete`](Fleet::complete) / [`disconnect`](Fleet::disconnect) on
//!   behalf of worker connections.
//!
//! Supervision is driven opportunistically: every blocked waiter ticks the
//! lease table on each condvar wakeup, so expiry needs no dedicated timer
//! thread — a fleet with any live waiter (or puller) advances, and a fleet
//! with none has nothing to expire that anyone is waiting on.
//!
//! Partial failure never wedges the coordinator: every blocking wait has a
//! bounded timeout, lock poisoning is recovered (the table is consistent —
//! all mutations happen under the lock, panics happen outside it), and
//! every terminal outcome (completed, exhausted, drained, degraded-to-local)
//! wakes the cell's waiter exactly once.

use crate::key::{canonical_cell_form, cell_key, CellKey};
use crate::lease::{CompleteOutcome, JobEvent, LeaseConfig, LeaseCounters, LeaseTable};
use comet_sim::experiments::CellSpec;
use comet_sim::{RunResult, Runner};
use comet_telemetry::{registry::exponential_bounds, Counter, Gauge, Histogram, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on one `pull` long-poll, whatever the worker asked for.
pub const PULL_WAIT_CAP_MS: u64 = 1_000;

/// How often blocked waiters wake to tick supervision.
const TICK_INTERVAL_MS: u64 = 25;

/// Terminal outcome of one dispatched cell, as seen by the service side.
#[derive(Debug)]
pub enum FleetDisposition {
    /// A worker completed the cell; the result is authoritative (bit-exact
    /// with a local run by construction of the cache key).
    Completed(Box<RunResult>),
    /// The fleet declined the cell — run it locally. That happens when no
    /// worker is live, when live workers leave it unpulled past the
    /// patience window (a hung-but-heartbeating fleet), and when a worker
    /// reports a simulation failure, which is deterministic, so the local
    /// re-run reproduces the typed error exactly.
    RunLocal,
    /// Every lease expired and the redelivery budget is spent.
    Exhausted {
        /// Redeliveries attempted before giving up.
        redeliveries: u32,
    },
    /// The coordinator is draining; the cell was rejected, not run.
    Draining,
}

/// Point-in-time fleet statistics, merged into [`crate::ServiceStats`].
///
/// Remote completions are deliberately *not* counted here: the service-side
/// `remote_cells_total` registry counter (incremented where the completed
/// result is consumed) is the single source of truth, so the same event can
/// never be tallied in two places that drift.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Workers currently registered and live.
    pub workers_live: u64,
    /// Leases that expired (missed heartbeats, dropped connections).
    pub leases_expired: u64,
    /// Cells handed out again after a lease expiry.
    pub redeliveries: u64,
    /// Cells that ran out of redeliveries.
    pub exhausted: u64,
    /// Duplicate completions dropped after lease expiry.
    pub stale_completions: u64,
}

#[derive(Debug)]
struct FleetState {
    table: LeaseTable,
    payloads: HashMap<CellKey, String>,
    outcomes: HashMap<CellKey, FleetDisposition>,
    draining: bool,
    /// Last heartbeat time per worker, for the interval histogram.
    last_heartbeat_ms: HashMap<u64, u64>,
}

/// Registry handles the coordinator mirrors its supervision counters into.
/// Bound once by [`crate::ExperimentService::attach_fleet`]; the lease table
/// stays the authority, and [`Fleet::sync_metrics`] copies its counters into
/// these series so a scrape and `stats()` can never disagree.
struct FleetMetrics {
    registry: Arc<Registry>,
    workers_live: Gauge,
    leases_expired: Counter,
    redeliveries: Counter,
    exhausted: Counter,
    stale_completions: Counter,
    heartbeat_interval_ms: Histogram,
    pull_wait_ms: Histogram,
}

impl FleetMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let latency_bounds = exponential_bounds(1.0, 4.0, 8);
        FleetMetrics {
            workers_live: registry
                .gauge("fleet_workers_live", "Fleet workers currently registered and live."),
            leases_expired: registry.counter(
                "fleet_leases_expired_total",
                "Leases that expired (missed heartbeats, dropped connections).",
            ),
            redeliveries: registry
                .counter("fleet_redeliveries_total", "Cells handed out again after a lease expiry."),
            exhausted: registry.counter("fleet_exhausted_total", "Cells that ran out of redeliveries."),
            stale_completions: registry.counter(
                "fleet_stale_completions_total",
                "Duplicate completions dropped after lease expiry.",
            ),
            heartbeat_interval_ms: registry.histogram(
                "fleet_heartbeat_interval_ms",
                "Observed interval between consecutive heartbeats of one worker.",
                &latency_bounds,
            ),
            pull_wait_ms: registry.histogram(
                "fleet_pull_wait_ms",
                "Time one worker pull long-polled before returning.",
                &latency_bounds,
            ),
            registry,
        }
    }
}

/// Outcome of a worker `pull`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PullOutcome {
    /// A leased cell: its key, redelivery count, and canonical-form payload.
    Job(CellKey, u32, String),
    /// Nothing arrived within the poll window.
    Empty,
    /// The worker is unknown (presumed dead and deregistered): re-register.
    UnknownWorker,
    /// The coordinator is draining: disconnect.
    Draining,
}

/// The fleet coordinator. Cheap to share (`Arc`) between the service, the
/// daemon's connection handlers, and tests.
pub struct Fleet {
    state: Mutex<FleetState>,
    cv: Condvar,
    epoch: Instant,
    metrics: OnceLock<FleetMetrics>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("state", &self.state)
            .field("metrics_bound", &self.metrics.get().is_some())
            .finish()
    }
}

impl Fleet {
    /// A fleet under `config`.
    pub fn new(config: LeaseConfig) -> Self {
        Fleet {
            state: Mutex::new(FleetState {
                table: LeaseTable::new(config),
                payloads: HashMap::new(),
                outcomes: HashMap::new(),
                draining: false,
                last_heartbeat_ms: HashMap::new(),
            }),
            cv: Condvar::new(),
            epoch: Instant::now(),
            metrics: OnceLock::new(),
        }
    }

    /// Binds the coordinator to a metrics registry (once; later calls are
    /// ignored). From then on every supervision mutation mirrors the lease
    /// counters into the registry, and worker heartbeat snapshots surface as
    /// per-worker gauges.
    pub fn bind_metrics(&self, registry: Arc<Registry>) {
        let _ = self.metrics.set(FleetMetrics::new(registry));
        self.sync_metrics();
    }

    /// Copies the authoritative lease-table counters into the bound registry
    /// series. Called after supervision mutations and before a scrape; a
    /// no-op with no registry bound.
    pub fn sync_metrics(&self) {
        if self.metrics.get().is_some() {
            let state = self.lock();
            self.sync_metrics_locked(&state);
        }
    }

    fn sync_metrics_locked(&self, state: &FleetState) {
        let Some(metrics) = self.metrics.get() else { return };
        let LeaseCounters { leases_expired, redeliveries, exhausted, stale_completions } =
            state.table.counters();
        metrics.workers_live.set(state.table.workers_live() as f64);
        metrics.leases_expired.store(leases_expired);
        metrics.redeliveries.store(redeliveries);
        metrics.exhausted.store(exhausted);
        metrics.stale_completions.store(stale_completions);
    }

    /// Records a worker's piggybacked heartbeat snapshot as per-worker
    /// labeled gauges (`worker_cells_total`, `worker_busy`).
    pub fn note_worker_snapshot(&self, worker: u64, cells: u64, busy: bool) {
        let Some(metrics) = self.metrics.get() else { return };
        let id = worker.to_string();
        metrics
            .registry
            .counter_with(
                "worker_cells_total",
                "Cells completed by this worker, as of its last heartbeat.",
                &[("worker", &id)],
            )
            .store(cells);
        metrics
            .registry
            .gauge_with(
                "worker_busy",
                "1 while this worker is executing a job, as of its last heartbeat.",
                &[("worker", &id)],
            )
            .set(if busy { 1.0 } else { 0.0 });
    }

    /// Drops a disconnected worker's per-worker series from the registry.
    fn drop_worker_series(&self, worker: u64) {
        let Some(metrics) = self.metrics.get() else { return };
        let id = worker.to_string();
        metrics.registry.remove_series("worker_cells_total", &[("worker", &id)]);
        metrics.registry.remove_series("worker_busy", &[("worker", &id)]);
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn lock(&self) -> MutexGuard<'_, FleetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Workers currently live.
    pub fn workers_live(&self) -> usize {
        self.lock().table.workers_live()
    }

    /// The configured base lease timeout (workers must heartbeat within it).
    pub fn lease_timeout_ms(&self) -> u64 {
        self.lock().table.config().lease_timeout_ms
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> FleetStats {
        let state = self.lock();
        let LeaseCounters { leases_expired, redeliveries, exhausted, stale_completions } =
            state.table.counters();
        FleetStats {
            workers_live: state.table.workers_live() as u64,
            leases_expired,
            redeliveries,
            exhausted,
            stale_completions,
        }
    }

    /// Advances lease supervision to now and resolves any expirations.
    fn tick_locked(&self, state: &mut FleetState) {
        let events = state.table.tick(self.now_ms());
        Self::apply_events(state, events);
        self.sync_metrics_locked(state);
    }

    fn apply_events(state: &mut FleetState, events: Vec<JobEvent>) {
        for event in events {
            match event {
                JobEvent::Requeued { .. } => {
                    // The cell is back at the front of the queue; its waiter
                    // keeps waiting.
                }
                JobEvent::Exhausted { key, redeliveries } => {
                    state.payloads.remove(&key);
                    state.outcomes.insert(key, FleetDisposition::Exhausted { redeliveries });
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Service side
    // ------------------------------------------------------------------

    /// Dispatches one cell to the fleet and blocks until a terminal outcome.
    /// See [`FleetDisposition`] for the contract; this never blocks forever
    /// (drain, exhaustion, worker death, and an unclaimed-cell patience
    /// window all terminate the wait).
    pub fn run_cell(&self, runner: &Runner, cell: &CellSpec) -> FleetDisposition {
        let _span = comet_telemetry::span("fleet.cell");
        let key = cell_key(runner, cell);
        let submitted_ms = self.now_ms();
        // A pending cell no worker pulls within the patience window degrades
        // to local execution rather than stalling the sweep behind a
        // hung-but-heartbeating fleet.
        let patience_ms = {
            let state = self.lock();
            state.table.config().lease_timeout_ms.saturating_mul(2)
        };
        {
            let mut state = self.lock();
            if state.draining {
                return FleetDisposition::Draining;
            }
            if state.table.workers_live() == 0 {
                return FleetDisposition::RunLocal;
            }
            state.table.submit(key);
            state.payloads.insert(key, canonical_cell_form(runner, cell));
        }
        self.cv.notify_all();

        let mut state = self.lock();
        loop {
            if let Some(outcome) = state.outcomes.remove(&key) {
                state.payloads.remove(&key);
                return outcome;
            }
            self.tick_locked(&mut state);
            // Still tracked? (tick may have just exhausted it — loop once
            // more and pick the outcome up.)
            if state.outcomes.contains_key(&key) {
                continue;
            }
            if !state.table.contains(key) {
                continue;
            }
            // Degradation paths for a cell still waiting to be pulled.
            let workers = state.table.workers_live();
            // Degrade only while the cell is still *pending*: a leased cell
            // lets its lease run its course (expiry will requeue or exhaust).
            if (workers == 0 || self.now_ms().saturating_sub(submitted_ms) > patience_ms)
                && state.table.withdraw_pending(key)
            {
                state.payloads.remove(&key);
                return FleetDisposition::RunLocal;
            }
            let (next, _timeout) = self
                .cv
                .wait_timeout(state, Duration::from_millis(TICK_INTERVAL_MS))
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }

    /// Drains the fleet for shutdown: every queued and leased cell resolves
    /// as [`FleetDisposition::Draining`], workers are forgotten, and all
    /// future submits and pulls are refused.
    pub fn drain(&self) {
        {
            let mut state = self.lock();
            state.draining = true;
            for key in state.table.drain() {
                state.payloads.remove(&key);
                state.outcomes.insert(key, FleetDisposition::Draining);
            }
        }
        self.cv.notify_all();
    }

    // ------------------------------------------------------------------
    // Worker side (called by the daemon's connection handlers)
    // ------------------------------------------------------------------

    /// Registers a worker and returns its id. The caller has already
    /// validated the schema advertisement.
    pub fn register(&self) -> u64 {
        let now = self.now_ms();
        let id = {
            let mut state = self.lock();
            let id = state.table.register(now);
            state.last_heartbeat_ms.insert(id, now);
            self.sync_metrics_locked(&state);
            id
        };
        self.cv.notify_all();
        id
    }

    /// Long-polls for a cell on behalf of `worker`, up to `wait_ms` (capped
    /// at [`PULL_WAIT_CAP_MS`]). The observed wait lands in the
    /// `fleet_pull_wait_ms` histogram whatever the outcome.
    pub fn pull(&self, worker: u64, wait_ms: u64) -> PullOutcome {
        let started = Instant::now();
        let outcome = self.pull_inner(worker, wait_ms);
        if let Some(metrics) = self.metrics.get() {
            metrics.pull_wait_ms.observe(started.elapsed().as_millis() as f64);
        }
        outcome
    }

    fn pull_inner(&self, worker: u64, wait_ms: u64) -> PullOutcome {
        let deadline = Instant::now() + Duration::from_millis(wait_ms.min(PULL_WAIT_CAP_MS));
        let mut state = self.lock();
        loop {
            if state.draining {
                return PullOutcome::Draining;
            }
            self.tick_locked(&mut state);
            if !state.table.is_live(worker) {
                return PullOutcome::UnknownWorker;
            }
            if let Some((key, redeliveries)) = state.table.dispatch(worker, self.now_ms()) {
                let payload = state.payloads.get(&key).cloned().expect("dispatched cells have payloads");
                // The dispatch woke nobody; completions will.
                return PullOutcome::Job(key, redeliveries, payload);
            }
            let now = Instant::now();
            if now >= deadline {
                return PullOutcome::Empty;
            }
            let wait = (deadline - now).min(Duration::from_millis(TICK_INTERVAL_MS));
            let (next, _) = self.cv.wait_timeout(state, wait).unwrap_or_else(PoisonError::into_inner);
            state = next;
        }
    }

    /// Records a worker heartbeat; `false` means the worker is unknown and
    /// must re-register.
    pub fn heartbeat(&self, worker: u64) -> bool {
        let now = self.now_ms();
        let mut state = self.lock();
        self.tick_locked(&mut state);
        let known = state.table.heartbeat(worker, now);
        if known {
            if let Some(metrics) = self.metrics.get() {
                if let Some(last) = state.last_heartbeat_ms.insert(worker, now) {
                    metrics.heartbeat_interval_ms.observe(now.saturating_sub(last) as f64);
                }
            }
        }
        known
    }

    /// Reports a completion. `outcome` is `Ok(result)` for a successful
    /// simulation, `Err(message)` for a worker-side failure. A failure hands
    /// the cell back to run locally: simulation is deterministic, so the
    /// local re-run recovers the typed error exactly, and the message is not
    /// kept. Returns whether the report was authoritative (`false` = stale
    /// duplicate, dropped).
    pub fn complete(&self, worker: u64, key: CellKey, outcome: Result<RunResult, String>) -> bool {
        let accepted = {
            let mut state = self.lock();
            match state.table.complete(worker, key, self.now_ms()) {
                CompleteOutcome::Accepted => {
                    let disposition = match outcome {
                        Ok(result) => FleetDisposition::Completed(Box::new(result)),
                        Err(_) => FleetDisposition::RunLocal,
                    };
                    state.payloads.remove(&key);
                    state.outcomes.insert(key, disposition);
                    self.sync_metrics_locked(&state);
                    true
                }
                CompleteOutcome::Stale => {
                    self.sync_metrics_locked(&state);
                    false
                }
            }
        };
        self.cv.notify_all();
        accepted
    }

    /// Drops a worker (its connection closed or errored) and expires every
    /// lease it held.
    pub fn disconnect(&self, worker: u64) {
        {
            let mut state = self.lock();
            let events = state.table.disconnect(worker);
            Self::apply_events(&mut state, events);
            state.last_heartbeat_ms.remove(&worker);
            self.sync_metrics_locked(&state);
        }
        self.drop_worker_series(worker);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::LeaseConfig;
    use comet_sim::{MechanismKind, SimConfig};
    use std::sync::Arc;

    fn smoke_cell() -> (Runner, CellSpec) {
        (Runner::new(SimConfig::quick_test()), CellSpec::single("429.mcf", MechanismKind::Baseline, 1000))
    }

    #[test]
    fn zero_workers_degrades_immediately() {
        let fleet = Fleet::new(LeaseConfig::default());
        let (runner, cell) = smoke_cell();
        assert!(matches!(fleet.run_cell(&runner, &cell), FleetDisposition::RunLocal));
    }

    #[test]
    fn draining_rejects_submits_and_pulls() {
        let fleet = Fleet::new(LeaseConfig::default());
        let worker = fleet.register();
        fleet.drain();
        let (runner, cell) = smoke_cell();
        assert!(matches!(fleet.run_cell(&runner, &cell), FleetDisposition::Draining));
        assert_eq!(fleet.pull(worker, 0), PullOutcome::Draining);
    }

    #[test]
    fn a_worker_thread_completes_a_cell_through_the_fleet() {
        let fleet = Arc::new(Fleet::new(LeaseConfig { lease_timeout_ms: 2_000, max_redeliveries: 1 }));
        let worker = fleet.register();
        let server = {
            let fleet = fleet.clone();
            std::thread::spawn(move || loop {
                match fleet.pull(worker, 200) {
                    PullOutcome::Job(key, _, payload) => {
                        let job = crate::wire::decode_job(&payload).unwrap();
                        let result = job.cell.run(&job.runner).unwrap();
                        assert!(fleet.complete(worker, key, Ok(result)));
                        return;
                    }
                    PullOutcome::Empty => continue,
                    other => panic!("unexpected pull outcome: {other:?}"),
                }
            })
        };
        let (runner, cell) = smoke_cell();
        let local = cell.run(&runner).unwrap();
        match fleet.run_cell(&runner, &cell) {
            FleetDisposition::Completed(remote) => {
                assert_eq!(
                    crate::store::result_projection(&remote),
                    crate::store::result_projection(&local),
                    "remote result must be bit-exact with the local run"
                );
            }
            other => panic!("expected completion, got {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn unknown_workers_are_told_to_reregister() {
        let fleet = Fleet::new(LeaseConfig::default());
        assert_eq!(fleet.pull(99, 0), PullOutcome::UnknownWorker);
        assert!(!fleet.heartbeat(99));
        let (runner, cell) = smoke_cell();
        let key = cell_key(&runner, &cell);
        assert!(!fleet.complete(99, key, Err("nope".to_string())));
    }
}
