//! The caching experiment service: a [`CellBackend`] that memoizes every
//! completed cell in a bounded content-addressed cache, deduplicates
//! in-flight work across concurrent requests, and fans novel cells out over
//! the existing [`ParallelExecutor`].
//!
//! Every cell resolves exactly one way:
//!
//! * **hit** — the key is `Ready` in the cache (memory, possibly loaded from
//!   disk at startup): the stored result is returned, no simulation runs.
//! * **owned miss** — this call claims the key (`Running`) and simulates it;
//!   the result is inserted, persisted, and waiters are woken.
//! * **in-flight** — another call owns the key: this call blocks on the
//!   condition variable instead of re-simulating. If the owner fails, the
//!   key is released and a waiter re-claims it (so an error in one request
//!   never wedges another).
//!
//! Determinism makes all of this sound: a cell's result is a pure function
//! of its key, so sharing a cached or in-flight result is bit-identical to
//! re-running it.
//!
//! ## Fault tolerance
//!
//! The service is built to degrade, never to lie:
//!
//! * **Bounded cache** — [`ServiceConfig::max_cached_cells`] caps the
//!   in-memory map with least-recently-touched eviction (hits refresh a
//!   slot's clock; in-flight `Running` claims are never evicted), and
//!   [`ServiceConfig::max_segments`] bounds the segment directory by
//!   triggering a compaction pass (see [`crate::compact`]) that rewrites
//!   only the currently live keys.
//! * **Worker panics** — a panicking cell simulation is caught at the cell
//!   boundary, retried up to [`ServiceConfig::panic_retries`] times, and
//!   surfaces as a typed [`RunnerError::WorkerPanic`] if it keeps
//!   panicking. Sibling cells in the batch complete and cache normally.
//! * **Degraded mode** — [`DEGRADE_AFTER_PERSIST_FAILURES`] consecutive
//!   segment-append failures (disk full, I/O errors) flip the service into
//!   cache-read-only degraded mode: requests keep being served (memory
//!   cache + fresh simulation, both still bit-exact), nothing more is
//!   written to disk, and [`ServiceStats::degraded`] reports the state.

use crate::compact::CompactionReport;
use crate::faults::FaultPlan;
use crate::fleet::{Fleet, FleetDisposition};
use crate::key::{cell_key, CellKey};
use crate::store::ResultStore;
use comet_sim::experiments::{CellBackend, CellSpec, ParallelExecutor};
use comet_sim::{RunResult, Runner, RunnerError};
use comet_telemetry::{Counter, Gauge, Registry};
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Consecutive persist failures before the service stops writing to disk.
pub const DEGRADE_AFTER_PERSIST_FAILURES: u64 = 3;

/// Resource bounds and containment knobs for an [`ExperimentService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Completed cells kept in memory; least-recently-touched entries are
    /// evicted past this. `None` = unbounded (the pre-bounds behavior).
    pub max_cached_cells: Option<usize>,
    /// Segment files tolerated on disk before a compaction pass rewrites
    /// the live keys into as few segments as they fill. While the live
    /// cells fill fewer than `max_segments` segments the store keeps at
    /// most `max_segments`; once they fill that many or more, it keeps at
    /// most one segment more than the last pass wrote, so passes come at
    /// least [`SEGMENT_CAPACITY`](crate::store::SEGMENT_CAPACITY) appends
    /// apart.
    /// `None` = never compact.
    pub max_segments: Option<usize>,
    /// Automatic re-runs of a cell whose simulation panicked before the
    /// panic surfaces as [`RunnerError::WorkerPanic`].
    pub panic_retries: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { max_cached_cells: None, max_segments: None, panic_retries: 2 }
    }
}

/// One cache slot: a completed result (with its last-touched clock tick),
/// or a claim by an in-flight request.
#[derive(Debug, Clone)]
enum Slot {
    Ready { result: Arc<RunResult>, touched: u64 },
    Running,
}

/// The cache map plus the LRU clock, guarded by one mutex.
#[derive(Debug, Default)]
struct CacheState {
    slots: HashMap<CellKey, Slot>,
    clock: u64,
    ready: usize,
}

impl CacheState {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Inserts a completed result, maintaining the ready count.
    fn insert_ready(&mut self, key: CellKey, result: Arc<RunResult>) {
        let touched = self.tick();
        if !matches!(self.slots.insert(key, Slot::Ready { result, touched }), Some(Slot::Ready { .. })) {
            self.ready += 1;
        }
    }

    /// Evicts least-recently-touched `Ready` slots down to `max`; returns
    /// how many were evicted. `Running` claims are never evicted.
    fn evict_down_to(&mut self, max: usize) -> u64 {
        let mut evicted = 0;
        while self.ready > max {
            let victim = self
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready { touched, .. } => Some((*touched, *key)),
                    Slot::Running => None,
                })
                .min()
                .map(|(_, key)| key);
            match victim {
                Some(key) => {
                    self.slots.remove(&key);
                    self.ready -= 1;
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// Registry-backed service counters. Each handle is an `Arc` straight to the
/// series' atomic, so every increment is still one relaxed atomic add — the
/// registry only matters at registration and scrape time. These are the
/// *only* copies of the service counters: `stats()` and the `/metrics`
/// scrape are projections of the same atomics and cannot drift.
struct Counters {
    cells_requested: Counter,
    cache_hits: Counter,
    batch_shared: Counter,
    inflight_waits: Counter,
    simulated: Counter,
    failed: Counter,
    loaded_from_disk: Counter,
    evictions: Counter,
    compactions: Counter,
    worker_retries: Counter,
    sheds: Counter,
    persist_errors: Counter,
    quarantined_segments: Counter,
    torn_lines: Counter,
    remote_cells: Counter,
    local_fallbacks: Counter,
    /// 1 when the service is in cache-read-only degraded mode.
    degraded: Gauge,
    /// Completed cells currently cached in memory (refreshed at scrape).
    cached_cells: Gauge,
}

impl Counters {
    fn new(registry: &Registry) -> Self {
        Counters {
            cells_requested: registry.counter(
                "service_cells_requested_total",
                "Cells requested across all run calls, duplicates included.",
            ),
            cache_hits: registry
                .counter("service_cache_hits_total", "Cells served from the completed-result cache."),
            batch_shared: registry.counter(
                "service_batch_shared_total",
                "Duplicate cells within one batch, served from the batch's own runs.",
            ),
            inflight_waits: registry.counter(
                "service_inflight_waits_total",
                "Cells that waited on another request's in-flight simulation.",
            ),
            simulated: registry.counter("service_simulated_total", "Cells actually simulated."),
            failed: registry.counter("service_failed_total", "Cell simulations that returned an error."),
            loaded_from_disk: registry.counter(
                "service_loaded_from_disk_total",
                "Cache entries loaded from disk segments at startup.",
            ),
            evictions: registry.counter(
                "service_evictions_total",
                "Completed cells evicted from the bounded in-memory cache.",
            ),
            compactions: registry.counter("service_compactions_total", "Segment-compaction passes run."),
            worker_retries: registry.counter(
                "service_worker_retries_total",
                "Automatic re-runs of cells whose simulation panicked.",
            ),
            sheds: registry.counter("service_sheds_total", "Requests shed by admission control."),
            persist_errors: registry
                .counter("service_persist_errors_total", "Failed segment appends and compactions."),
            quarantined_segments: registry.counter(
                "service_quarantined_segments_total",
                "Corrupt segments moved to quarantine during recovery.",
            ),
            torn_lines: registry.counter(
                "service_torn_lines_total",
                "Torn tail lines skipped during recovery (crash artifacts).",
            ),
            remote_cells: registry
                .counter("remote_cells_total", "Cells completed remotely by fleet workers."),
            local_fallbacks: registry
                .counter("service_local_fallbacks_total", "Cells the fleet handed back for local execution."),
            degraded: registry
                .gauge("service_degraded", "1 when the service is in cache-read-only degraded mode."),
            cached_cells: registry
                .gauge("service_cached_cells", "Completed cells currently cached in memory."),
        }
    }
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ServiceStats {
    /// Cells requested across all `run_cells` calls (duplicates included).
    pub cells_requested: u64,
    /// Cells served from the completed-result cache.
    pub cache_hits: u64,
    /// Duplicate cells within a single batch, served from the batch's own runs.
    pub batch_shared: u64,
    /// Cells that waited on another request's in-flight simulation.
    pub inflight_waits: u64,
    /// Cells actually simulated.
    pub simulated: u64,
    /// Cell simulations that returned an error.
    pub failed: u64,
    /// Cache entries loaded from disk segments at startup.
    pub loaded_from_disk: u64,
    /// Completed cells evicted from the bounded in-memory cache.
    pub evictions: u64,
    /// Segment-compaction passes run.
    pub compactions: u64,
    /// Automatic re-runs of cells whose simulation panicked.
    pub worker_retries: u64,
    /// Requests shed by admission control (reported by the daemon).
    pub sheds: u64,
    /// Failed segment appends/compactions (each costs only persistence).
    pub persist_errors: u64,
    /// Corrupt segments moved to quarantine during recovery.
    pub quarantined_segments: u64,
    /// Torn tail lines skipped during recovery (crash artifacts).
    pub torn_lines: u64,
    /// Cells completed remotely by fleet workers.
    pub remote_cells: u64,
    /// Cells the fleet handed back for local execution (no workers, a
    /// remote failure, or an unclaimed cell) — the degraded-to-local path.
    pub local_fallbacks: u64,
    /// Fleet workers currently registered and live (a gauge, not a counter).
    pub workers_live: u64,
    /// Fleet leases that expired (missed heartbeats, dropped connections).
    pub leases_expired: u64,
    /// Cells re-dispatched to another worker after a lease expiry.
    pub redeliveries: u64,
    /// Duplicate completions dropped after lease expiry.
    pub stale_completions: u64,
    /// Whether the service is in cache-read-only degraded mode.
    pub degraded: bool,
}

impl ServiceStats {
    /// Fraction of requested cells served without a fresh simulation
    /// *attempt*. Failed cells count as fresh attempts (they ran and
    /// errored), so a batch full of failures reports a 0.0 rate rather than
    /// masquerading as cache hits.
    pub fn hit_rate(&self) -> f64 {
        if self.cells_requested == 0 {
            0.0
        } else {
            (1.0 - (self.simulated + self.failed) as f64 / self.cells_requested as f64).max(0.0)
        }
    }

    /// Counter-wise difference (`self - earlier`), for per-request deltas.
    /// `degraded` is a state, not a counter: the later snapshot's value is
    /// reported as-is.
    pub fn delta_since(&self, earlier: &ServiceStats) -> ServiceStats {
        ServiceStats {
            cells_requested: self.cells_requested - earlier.cells_requested,
            cache_hits: self.cache_hits - earlier.cache_hits,
            batch_shared: self.batch_shared - earlier.batch_shared,
            inflight_waits: self.inflight_waits - earlier.inflight_waits,
            simulated: self.simulated - earlier.simulated,
            failed: self.failed - earlier.failed,
            loaded_from_disk: self.loaded_from_disk - earlier.loaded_from_disk,
            evictions: self.evictions - earlier.evictions,
            compactions: self.compactions - earlier.compactions,
            worker_retries: self.worker_retries - earlier.worker_retries,
            sheds: self.sheds - earlier.sheds,
            persist_errors: self.persist_errors - earlier.persist_errors,
            quarantined_segments: self.quarantined_segments - earlier.quarantined_segments,
            torn_lines: self.torn_lines - earlier.torn_lines,
            remote_cells: self.remote_cells - earlier.remote_cells,
            local_fallbacks: self.local_fallbacks - earlier.local_fallbacks,
            // Like `degraded`, `workers_live` is a state, not a counter.
            workers_live: self.workers_live,
            leases_expired: self.leases_expired - earlier.leases_expired,
            redeliveries: self.redeliveries - earlier.redeliveries,
            stale_completions: self.stale_completions - earlier.stale_completions,
            degraded: self.degraded,
        }
    }
}

/// The long-running experiment service. Cheap to share (`Arc`) across
/// connection handlers and job workers; all interior state is synchronized.
pub struct ExperimentService {
    executor: ParallelExecutor,
    cache: Mutex<CacheState>,
    cv: Condvar,
    store: Option<Mutex<ResultStore>>,
    registry: Arc<Registry>,
    counters: Counters,
    config: ServiceConfig,
    faults: Option<Arc<FaultPlan>>,
    fleet: OnceLock<Arc<Fleet>>,
    degraded: AtomicBool,
    consecutive_persist_failures: AtomicU64,
    /// Segments the store may hold before the next compaction pass: see
    /// [`ServiceConfig::max_segments`].
    compact_above: AtomicUsize,
}

impl std::fmt::Debug for ExperimentService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentService")
            .field("threads", &self.executor.threads())
            .field("cached_cells", &self.cached_cells())
            .field("persistent", &self.store.is_some())
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

impl ExperimentService {
    /// An in-memory service (no persistence, default bounds) over `executor`.
    pub fn new(executor: ParallelExecutor) -> Self {
        Self::build(executor, None, ServiceConfig::default(), None)
            .expect("in-memory service construction is infallible")
    }

    /// A persistent service with default bounds: existing segments under
    /// `dir` are recovered into the in-memory cache (corrupt segments are
    /// quarantined, never fatal), and every newly completed cell is appended.
    pub fn with_cache_dir(executor: ParallelExecutor, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::with_config(executor, Some(dir.into()), ServiceConfig::default())
    }

    /// A service with explicit bounds, optionally persistent.
    pub fn with_config(
        executor: ParallelExecutor,
        dir: Option<PathBuf>,
        config: ServiceConfig,
    ) -> std::io::Result<Self> {
        Self::build(executor, dir, config, None)
    }

    /// Test-only constructor: a service with a deterministic fault-injection
    /// plan threaded into its store-I/O and worker boundaries. Production
    /// callers use the other constructors; without a plan every fault hook
    /// is dead code.
    #[doc(hidden)]
    pub fn with_fault_plan(
        executor: ParallelExecutor,
        dir: Option<PathBuf>,
        config: ServiceConfig,
        faults: Arc<FaultPlan>,
    ) -> std::io::Result<Self> {
        Self::build(executor, dir, config, Some(faults))
    }

    fn build(
        executor: ParallelExecutor,
        dir: Option<PathBuf>,
        config: ServiceConfig,
        faults: Option<Arc<FaultPlan>>,
    ) -> std::io::Result<Self> {
        let registry = Arc::new(Registry::new());
        let counters = Counters::new(&registry);
        let service = ExperimentService {
            executor,
            cache: Mutex::new(CacheState::default()),
            cv: Condvar::new(),
            store: None,
            registry,
            counters,
            config,
            faults: faults.clone(),
            fleet: OnceLock::new(),
            degraded: AtomicBool::new(false),
            consecutive_persist_failures: AtomicU64::new(0),
            compact_above: AtomicUsize::new(config.max_segments.unwrap_or(usize::MAX)),
        };
        let Some(dir) = dir else { return Ok(service) };

        let mut store = ResultStore::open_faulted(dir, faults)?;
        let recovery = store.recover()?;
        service.counters.quarantined_segments.store(recovery.quarantined as u64);
        service.counters.torn_lines.store(recovery.torn_lines as u64);
        let entries = recovery.latest();
        service.counters.loaded_from_disk.store(entries.len() as u64);
        {
            let mut cache = service.lock_cache();
            for (key, result) in entries {
                cache.insert_ready(key, Arc::new(result));
            }
            // The bound applies to reloaded state too: keep the most
            // recently written cells, evict the oldest.
            if let Some(max) = service.config.max_cached_cells {
                let evicted = cache.evict_down_to(max);
                service.counters.evictions.add(evicted);
            }
        }
        Ok(ExperimentService { store: Some(Mutex::new(store)), ..service })
    }

    /// Worker threads of the underlying executor.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// The service's resource bounds.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Whether the service is in cache-read-only degraded mode (persistent
    /// disk errors; the in-memory cache and fresh simulation still serve
    /// every request bit-exactly, but nothing more is written to disk).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Recovers the cache guard even if a panicking thread poisoned it:
    /// simulation panics happen outside the lock, so the map is consistent,
    /// and cascading the poison would wedge every connection.
    fn lock_cache(&self) -> MutexGuard<'_, CacheState> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Completed cells currently cached in memory.
    pub fn cached_cells(&self) -> usize {
        self.lock_cache().ready
    }

    /// Records one admission-control shed (called by the daemon so floods
    /// show up in `stats`).
    pub fn note_shed(&self) {
        self.counters.sheds.inc();
    }

    /// Attaches a fleet coordinator: cell simulations are offered to remote
    /// workers first and fall back to the local executor when the fleet
    /// declines (zero workers, remote failure, unclaimed cell). At most one
    /// fleet per service; later calls are ignored.
    pub fn attach_fleet(&self, fleet: Arc<Fleet>) {
        if self.fleet.set(fleet).is_ok() {
            // The coordinator mirrors its lease counters into this service's
            // registry so the scrape and `stats` read the same atomics.
            self.fleet.get().expect("just set").bind_metrics(self.registry.clone());
        }
    }

    /// The attached fleet coordinator, if any.
    pub fn fleet(&self) -> Option<&Arc<Fleet>> {
        self.fleet.get()
    }

    /// This service's metrics registry (engine metrics live in the process
    /// [`comet_telemetry::global`] registry, not here).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Renders the full Prometheus text exposition for this service: its own
    /// registry (service + fleet + per-worker families) followed by the
    /// process-global registry (engine + tracker families — the name
    /// prefixes are disjoint, so families never collide). Point-in-time
    /// gauges are refreshed first so a scrape is self-consistent.
    pub fn render_metrics(&self) -> String {
        self.counters.degraded.set(if self.is_degraded() { 1.0 } else { 0.0 });
        self.counters.cached_cells.set(self.cached_cells() as f64);
        if let Some(fleet) = self.fleet.get() {
            fleet.sync_metrics();
        }
        let mut out = self.registry.render();
        out.push_str(&comet_telemetry::global().render());
        out
    }

    /// A snapshot of the service counters (fleet supervision counters
    /// included when a coordinator is attached).
    pub fn stats(&self) -> ServiceStats {
        let fleet = self.fleet.get().map(|fleet| fleet.stats()).unwrap_or_default();
        ServiceStats {
            cells_requested: self.counters.cells_requested.get(),
            cache_hits: self.counters.cache_hits.get(),
            batch_shared: self.counters.batch_shared.get(),
            inflight_waits: self.counters.inflight_waits.get(),
            simulated: self.counters.simulated.get(),
            failed: self.counters.failed.get(),
            loaded_from_disk: self.counters.loaded_from_disk.get(),
            evictions: self.counters.evictions.get(),
            compactions: self.counters.compactions.get(),
            worker_retries: self.counters.worker_retries.get(),
            sheds: self.counters.sheds.get(),
            persist_errors: self.counters.persist_errors.get(),
            quarantined_segments: self.counters.quarantined_segments.get(),
            torn_lines: self.counters.torn_lines.get(),
            remote_cells: self.counters.remote_cells.get(),
            local_fallbacks: self.counters.local_fallbacks.get(),
            workers_live: fleet.workers_live,
            leases_expired: fleet.leases_expired,
            redeliveries: fleet.redeliveries,
            stale_completions: fleet.stale_completions,
            degraded: self.is_degraded(),
        }
    }

    /// Looks one cell up without running anything (refreshes its LRU clock).
    pub fn peek(&self, runner: &Runner, cell: &CellSpec) -> Option<Arc<RunResult>> {
        let key = cell_key(runner, cell);
        let mut cache = self.lock_cache();
        let tick = cache.tick();
        match cache.slots.get_mut(&key) {
            Some(Slot::Ready { result, touched }) => {
                *touched = tick;
                Some(result.clone())
            }
            _ => None,
        }
    }

    /// Runs one cell with panic containment: a panicking simulation is
    /// retried up to the configured bound, then surfaced as a typed
    /// [`RunnerError::WorkerPanic`] instead of unwinding through the batch.
    ///
    /// With a fleet attached, the cell is offered to remote workers first.
    /// A remote completion is authoritative (bit-exact by key construction);
    /// a declined cell falls through to the local path below; lease
    /// exhaustion and coordinator drain surface as typed errors.
    fn run_cell_contained(&self, runner: &Runner, cell: &CellSpec) -> Result<RunResult, RunnerError> {
        let _span = comet_telemetry::span("service.cell");
        if let Some(fleet) = self.fleet.get() {
            match fleet.run_cell(runner, cell) {
                FleetDisposition::Completed(result) => {
                    self.counters.remote_cells.inc();
                    return Ok(*result);
                }
                FleetDisposition::Exhausted { redeliveries } => {
                    return Err(RunnerError::LeaseExhausted { label: cell.label(), redeliveries });
                }
                FleetDisposition::Draining => {
                    return Err(RunnerError::Draining { label: cell.label() });
                }
                FleetDisposition::RunLocal => {
                    self.counters.local_fallbacks.inc();
                }
            }
        }
        let attempts = self.config.panic_retries.saturating_add(1);
        for attempt in 1..=attempts {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(plan) = &self.faults {
                    plan.on_simulate(&cell.label());
                }
                cell.run(runner)
            }));
            match outcome {
                Ok(result) => return result,
                Err(_) if attempt < attempts => {
                    self.counters.worker_retries.inc();
                }
                Err(_) => {}
            }
        }
        Err(RunnerError::WorkerPanic { label: cell.label(), attempts })
    }

    /// Records `result` for `key`, evicts past the bound, wakes waiters,
    /// and persists. Persistence errors are contained — the cache stays
    /// correct in memory either way — and persistent disk failure flips the
    /// service into degraded mode instead of failing requests.
    fn complete(&self, key: CellKey, result: Arc<RunResult>) {
        {
            let mut cache = self.lock_cache();
            cache.insert_ready(key, result.clone());
            if let Some(max) = self.config.max_cached_cells {
                let evicted = cache.evict_down_to(max);
                self.counters.evictions.add(evicted);
            }
        }
        self.cv.notify_all();
        self.persist(key, &result);
    }

    fn persist(&self, key: CellKey, result: &RunResult) {
        if self.is_degraded() {
            return;
        }
        let Some(store) = &self.store else { return };
        let outcome = store.lock().unwrap_or_else(PoisonError::into_inner).append(key, result);
        match outcome {
            Ok(()) => {
                self.consecutive_persist_failures.store(0, Ordering::Relaxed);
                self.maybe_compact();
            }
            Err(error) => self.note_persist_failure("persist cell", &error.to_string()),
        }
    }

    fn note_persist_failure(&self, context: &str, message: &str) {
        self.counters.persist_errors.inc();
        let consecutive = self.consecutive_persist_failures.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("comet-service: warning: could not {context}: {message}");
        if consecutive >= DEGRADE_AFTER_PERSIST_FAILURES && !self.degraded.swap(true, Ordering::Relaxed) {
            eprintln!(
                "comet-service: {consecutive} consecutive persist failures: entering \
                 cache-read-only degraded mode (results stay bit-exact in memory; \
                 nothing more is written to disk)"
            );
        }
    }

    /// Runs a compaction pass when the segment directory exceeds its bound.
    /// The live set is the in-memory `Ready` keys: everything superseded or
    /// evicted is dropped from disk.
    fn maybe_compact(&self) {
        let Some(max_segments) = self.config.max_segments else { return };
        let Some(store) = &self.store else { return };
        // Cheap check without touching the cache lock.
        {
            let store = store.lock().unwrap_or_else(PoisonError::into_inner);
            if store.segments_on_disk() <= self.compact_above.load(Ordering::Relaxed) {
                return;
            }
        }
        let live: HashSet<CellKey> = {
            let cache = self.lock_cache();
            cache
                .slots
                .iter()
                .filter_map(|(key, slot)| matches!(slot, Slot::Ready { .. }).then_some(*key))
                .collect()
        };
        let outcome = store.lock().unwrap_or_else(PoisonError::into_inner).compact(&live);
        match outcome {
            Ok(CompactionReport { kept, dropped, quarantined, segments_before, segments_after }) => {
                self.counters.compactions.inc();
                // A pass cannot go below the segments its live cells fill,
                // and appends continue its last one. Allowing one segment
                // more spaces passes at least `SEGMENT_CAPACITY` appends
                // apart instead of compacting on every append.
                self.compact_above.store(max_segments.max(segments_after + 1), Ordering::Relaxed);
                // Only quarantines are new here. The torn tails the pass read
                // past were counted at start-up, or as persist errors when
                // this process tore them.
                self.counters.quarantined_segments.add(quarantined as u64);
                eprintln!(
                    "comet-service: compacted {segments_before} segment(s) down to \
                     {segments_after} ({kept} live cell(s) kept, {dropped} record(s) dropped)"
                );
            }
            Err(error) => self.note_persist_failure("compact segments", &error.to_string()),
        }
    }
}

/// Unwind guard over the `Running` claims one `run_cells` call holds.
///
/// Cell panics are contained by `run_cell_contained`, but a panic anywhere
/// else in the batch path (or a `catch_unwind`-escaping foreign panic)
/// would leave this call's claims `Running` forever and block every waiter.
/// The guard releases whatever tracked keys are still `Running` on drop, so
/// waiters re-claim and re-run them; keys are untracked as they resolve,
/// making the normal-path drop a no-op.
struct ClaimGuard<'a> {
    service: &'a ExperimentService,
    keys: std::collections::HashSet<CellKey>,
}

impl<'a> ClaimGuard<'a> {
    fn new(service: &'a ExperimentService) -> Self {
        ClaimGuard { service, keys: std::collections::HashSet::new() }
    }

    fn track(&mut self, key: CellKey) {
        self.keys.insert(key);
    }

    fn untrack(&mut self, key: CellKey) {
        self.keys.remove(&key);
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.keys.is_empty() {
            return;
        }
        let mut cache = self.service.lock_cache();
        for key in &self.keys {
            if matches!(cache.slots.get(key), Some(Slot::Running)) {
                cache.slots.remove(key);
            }
        }
        drop(cache);
        self.service.cv.notify_all();
    }
}

impl ExperimentService {
    /// Releases a failed claim and wakes waiters so one of them can re-claim.
    fn release(&self, key: CellKey) {
        self.lock_cache().slots.remove(&key);
        self.cv.notify_all();
    }
}

impl CellBackend for ExperimentService {
    /// Resolves every unique key of the batch in one claim/run loop. Each
    /// pass takes the cache lock once: it serves `Ready` keys, claims free
    /// ones and keeps the keys another call is running. Claimed keys run on
    /// the executor; a failed one is released, so a call waiting on it
    /// claims it on its next pass and runs it like any other claimed cell.
    /// A pass that claimed nothing while keys still run elsewhere waits on
    /// the condition variable; since every claim is settled before the next
    /// pass, a waiting call holds no claims and two calls never wait on each
    /// other.
    fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError> {
        let _span = comet_telemetry::span("service.batch");
        self.counters.cells_requested.add(cells.len() as u64);
        let keys: Vec<CellKey> = cells.iter().map(|cell| cell_key(runner, cell)).collect();
        // Each unique key with its first batch position (which cell runs it,
        // and which error wins).
        let mut seen: HashSet<CellKey> = HashSet::with_capacity(keys.len());
        let mut pending: Vec<(CellKey, usize)> = Vec::with_capacity(keys.len());
        for (index, &key) in keys.iter().enumerate() {
            if seen.insert(key) {
                pending.push((key, index));
            } else {
                self.counters.batch_shared.inc();
            }
        }

        let mut resolved: HashMap<CellKey, Arc<RunResult>> = HashMap::with_capacity(pending.len());
        // Lowest-batch-index error wins, matching the plain executor.
        let mut first_error: Option<(usize, RunnerError)> = None;
        // Claims are tracked by an unwind guard so a panic escaping the
        // containment boundary still releases them instead of wedging every
        // waiter.
        let mut claims = ClaimGuard::new(self);
        let mut first_pass = true;
        while !pending.is_empty() {
            let mut owned: Vec<(CellKey, usize)> = Vec::new();
            {
                let mut cache = self.lock_cache();
                loop {
                    pending.retain(|&(key, index)| {
                        let tick = cache.tick();
                        match cache.slots.get_mut(&key) {
                            Some(Slot::Ready { result, touched }) => {
                                if first_pass {
                                    self.counters.cache_hits.inc();
                                }
                                *touched = tick;
                                resolved.insert(key, result.clone());
                                false
                            }
                            Some(Slot::Running) => {
                                if first_pass {
                                    self.counters.inflight_waits.inc();
                                }
                                true
                            }
                            None => {
                                cache.slots.insert(key, Slot::Running);
                                claims.track(key);
                                owned.push((key, index));
                                false
                            }
                        }
                    });
                    first_pass = false;
                    if !owned.is_empty() || pending.is_empty() {
                        break;
                    }
                    cache = self.cv.wait(cache).unwrap_or_else(PoisonError::into_inner);
                }
            }

            // Unlike `try_run`, failures do not abort the batch: completed
            // siblings are still cached, and the failed keys are released.
            let outcomes =
                self.executor.run(&owned, |_, &(_, index)| self.run_cell_contained(runner, &cells[index]));
            for (&(key, index), outcome) in owned.iter().zip(outcomes) {
                match outcome {
                    Ok(result) => {
                        self.counters.simulated.inc();
                        let result = Arc::new(result);
                        self.complete(key, result.clone());
                        resolved.insert(key, result);
                    }
                    Err(error) => {
                        self.counters.failed.inc();
                        self.release(key);
                        if first_error.as_ref().is_none_or(|(first, _)| index < *first) {
                            first_error = Some((index, error));
                        }
                    }
                }
                // Resolved either way (Ready, or released for re-claim): the
                // unwind guard must not touch a key another call may now own.
                claims.untrack(key);
            }
        }

        if let Some((_, error)) = first_error {
            return Err(error);
        }
        Ok(keys
            .iter()
            .map(|key| resolved.get(key).expect("every non-failed key resolved").as_ref().clone())
            .collect())
    }
}
