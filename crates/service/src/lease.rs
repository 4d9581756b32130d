//! The lease table: a pure state machine for at-least-once cell assignment.
//!
//! The distributed fleet hands each dispatched cell to a worker under a
//! *lease* — a deadline by which the worker must either complete the cell or
//! prove it is still alive (heartbeats extend every lease the worker holds).
//! A missed deadline, a dropped work connection, or an explicitly reported
//! worker death expires the lease and requeues the cell at the front of the
//! dispatch queue with its redelivery count incremented; once the count
//! exceeds the configured bound the cell is *exhausted* and surfaces as a
//! typed error instead of looping forever on a cell that kills whoever runs
//! it.
//!
//! Everything here is deliberately free of clocks, sockets, and threads:
//! time is an explicit `now` parameter in milliseconds, and every transition
//! is a plain method call returning plain data. That makes the machine
//! exhaustively testable — the property test in `tests/lease_props.rs`
//! drives random interleavings of {submit, register, dispatch, heartbeat,
//! expiry, complete, disconnect} and asserts the two safety properties the
//! fleet is built on: every submitted cell is delivered to completion (or
//! exhausted/drained, never lost), and no cell is ever redelivered more than
//! the bound. [`crate::fleet`] wraps this table in a mutex/condvar and real
//! time.
//!
//! Determinism note: per-lease deadlines carry a *deterministic* jitter
//! hashed from the worker id and the redelivery count, so a fleet of workers
//! whose leases were granted in the same tick does not expire them in one
//! synchronized stampede — and yet every run of the same schedule expires
//! them at exactly the same points.

use crate::key::{fnv1a_128, CellKey};
use std::collections::{HashMap, VecDeque};

/// Tuning knobs for the lease table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Base lease/heartbeat deadline: a worker that has not heartbeat (or
    /// completed something) for this long is presumed dead and its leases
    /// expire. The effective per-lease deadline adds a deterministic jitter
    /// in `[0, lease_timeout_ms / 4)`.
    pub lease_timeout_ms: u64,
    /// Redeliveries tolerated per cell before it is exhausted. The first
    /// delivery is not a redelivery: a cell may be handed out
    /// `max_redeliveries + 1` times in total.
    pub max_redeliveries: u32,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { lease_timeout_ms: 2_000, max_redeliveries: 3 }
    }
}

/// Where one submitted cell currently is.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    /// Waiting for a worker to pull it.
    Pending,
    /// Leased to a worker until the deadline.
    Leased { worker: u64, deadline_ms: u64 },
}

#[derive(Debug, Clone)]
struct JobSlot {
    state: JobState,
    redeliveries: u32,
}

/// What happened to a cell, reported by [`LeaseTable::tick`] and the other
/// transition methods so the caller (the fleet) can resolve waiters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// The cell's lease expired and it was requeued for redelivery.
    Requeued {
        /// The cell.
        key: CellKey,
        /// Its redelivery count after the requeue.
        redeliveries: u32,
    },
    /// The cell's redelivery budget is spent; it has been removed from the
    /// table and must surface as a typed `LeaseExhausted` error.
    Exhausted {
        /// The cell.
        key: CellKey,
        /// Redeliveries attempted before giving up.
        redeliveries: u32,
    },
}

/// Outcome of a completion report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// The reporting worker held the live lease: the result is authoritative.
    Accepted,
    /// The lease had already expired (and the cell was requeued, completed
    /// elsewhere, or exhausted): the report is a duplicate and must be
    /// dropped — the cache layer has already absorbed or will absorb the
    /// authoritative copy.
    Stale,
}

/// Monotonic counters the table maintains; mirrored into the service stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseCounters {
    /// Leases that expired (missed heartbeat, dropped connection, reported
    /// worker death).
    pub leases_expired: u64,
    /// Cells handed out again after a lease expiry.
    pub redeliveries: u64,
    /// Cells that ran out of redeliveries.
    pub exhausted: u64,
    /// Completion reports that arrived after their lease had expired.
    pub stale_completions: u64,
}

/// The pure lease state machine. See the module docs.
#[derive(Debug)]
pub struct LeaseTable {
    config: LeaseConfig,
    /// Each live worker and the time of its last sign of life
    /// (registration, pull, heartbeat, or completion).
    workers: HashMap<u64, u64>,
    next_worker_id: u64,
    /// Dispatch queue: redelivered cells go to the *front* so a cell that
    /// already lost time to a dead worker is not also penalized with a fresh
    /// wait behind the backlog.
    queue: VecDeque<CellKey>,
    jobs: HashMap<CellKey, JobSlot>,
    counters: LeaseCounters,
}

impl LeaseTable {
    /// An empty table under `config`.
    pub fn new(config: LeaseConfig) -> Self {
        LeaseTable {
            config,
            workers: HashMap::new(),
            next_worker_id: 1,
            queue: VecDeque::new(),
            jobs: HashMap::new(),
            counters: LeaseCounters::default(),
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &LeaseConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn counters(&self) -> LeaseCounters {
        self.counters
    }

    /// Workers currently considered live.
    pub fn workers_live(&self) -> usize {
        self.workers.len()
    }

    /// Cells currently waiting for a worker.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Cells currently leased out.
    pub fn leased(&self) -> usize {
        self.jobs.values().filter(|slot| matches!(slot.state, JobState::Leased { .. })).count()
    }

    /// Whether `key` is currently tracked (pending or leased).
    pub fn contains(&self, key: CellKey) -> bool {
        self.jobs.contains_key(&key)
    }

    /// Registers a worker, returning its id.
    pub fn register(&mut self, now_ms: u64) -> u64 {
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        self.workers.insert(id, now_ms);
        id
    }

    /// Whether `worker` is registered and not yet presumed dead.
    pub fn is_live(&self, worker: u64) -> bool {
        self.workers.contains_key(&worker)
    }

    /// Submits a cell for dispatch. Duplicate submissions of a tracked key
    /// are ignored (the caller's cache layer already dedupes cells; this is
    /// a backstop, not a feature).
    pub fn submit(&mut self, key: CellKey) {
        if self.jobs.contains_key(&key) {
            return;
        }
        self.jobs.insert(key, JobSlot { state: JobState::Pending, redeliveries: 0 });
        self.queue.push_back(key);
    }

    /// Removes a pending cell without dispatching it (the fleet degrades it
    /// to local execution, e.g. after the last worker died). Leased cells
    /// are left alone — their lease will expire or complete.
    pub fn withdraw_pending(&mut self, key: CellKey) -> bool {
        if matches!(self.jobs.get(&key), Some(JobSlot { state: JobState::Pending, .. })) {
            self.jobs.remove(&key);
            self.queue.retain(|&queued| queued != key);
            true
        } else {
            false
        }
    }

    /// Hands the next pending cell to `worker` under a fresh lease, if the
    /// worker is live and work is available. Also refreshes the worker's
    /// liveness (a pull is as good as a heartbeat).
    pub fn dispatch(&mut self, worker: u64, now_ms: u64) -> Option<(CellKey, u32)> {
        *self.workers.get_mut(&worker)? = now_ms;
        let key = self.queue.pop_front()?;
        let redeliveries = self.jobs.get(&key).expect("queued keys are tracked").redeliveries;
        let deadline_ms = now_ms + self.lease_duration_ms(worker, redeliveries);
        let slot = self.jobs.get_mut(&key).expect("queued keys are tracked");
        debug_assert_eq!(slot.state, JobState::Pending);
        slot.state = JobState::Leased { worker, deadline_ms };
        Some((key, redeliveries))
    }

    /// The effective lease duration for one grant: the base timeout plus a
    /// deterministic jitter hashed from the worker id and redelivery count.
    fn lease_duration_ms(&self, worker: u64, redeliveries: u32) -> u64 {
        let spread = (self.config.lease_timeout_ms / 4).max(1);
        let mut seed = [0u8; 12];
        seed[..8].copy_from_slice(&worker.to_le_bytes());
        seed[8..].copy_from_slice(&redeliveries.to_le_bytes());
        self.config.lease_timeout_ms + (fnv1a_128(&seed) % spread as u128) as u64
    }

    /// Records a heartbeat: refreshes the worker's liveness and extends
    /// every lease it holds. Returns `false` for unknown workers (already
    /// presumed dead and deregistered — the worker must re-register).
    pub fn heartbeat(&mut self, worker: u64, now_ms: u64) -> bool {
        let Some(last_seen_ms) = self.workers.get_mut(&worker) else { return false };
        *last_seen_ms = now_ms;
        let extensions: Vec<(CellKey, u64)> = self
            .jobs
            .iter()
            .filter_map(|(&key, slot)| match slot.state {
                JobState::Leased { worker: owner, .. } if owner == worker => {
                    Some((key, now_ms + self.lease_duration_ms(worker, slot.redeliveries)))
                }
                _ => None,
            })
            .collect();
        for (key, deadline) in extensions {
            if let Some(JobSlot { state: JobState::Leased { deadline_ms, .. }, .. }) = self.jobs.get_mut(&key)
            {
                *deadline_ms = deadline;
            }
        }
        true
    }

    /// Reports a completion (success or failure alike — the *report*
    /// arriving is what discharges the lease; what it said is the fleet's
    /// business). Returns whether the report was authoritative or a stale
    /// duplicate. An accepted completion also refreshes the worker's
    /// liveness and removes the cell from the table.
    pub fn complete(&mut self, worker: u64, key: CellKey, now_ms: u64) -> CompleteOutcome {
        let authoritative = matches!(
            self.jobs.get(&key),
            Some(JobSlot { state: JobState::Leased { worker: owner, .. }, .. }) if *owner == worker
        );
        if !authoritative {
            self.counters.stale_completions += 1;
            return CompleteOutcome::Stale;
        }
        self.jobs.remove(&key);
        if let Some(last_seen_ms) = self.workers.get_mut(&worker) {
            *last_seen_ms = now_ms;
        }
        CompleteOutcome::Accepted
    }

    /// Drops a worker (connection loss, explicit goodbye, or supervision
    /// declaring it dead) and expires every lease it held. Returns the
    /// resulting per-cell events.
    pub fn disconnect(&mut self, worker: u64) -> Vec<JobEvent> {
        self.workers.remove(&worker);
        let held: Vec<CellKey> = self
            .jobs
            .iter()
            .filter_map(|(&key, slot)| match slot.state {
                JobState::Leased { worker: owner, .. } if owner == worker => Some(key),
                _ => None,
            })
            .collect();
        held.into_iter().map(|key| self.expire_lease(key)).collect()
    }

    /// Advances supervision to `now_ms`: workers silent past the timeout are
    /// deregistered (their leases expire), and individual leases past their
    /// jittered deadline expire even if their worker still heartbeats under
    /// a different clock skew. Returns every resulting cell event.
    pub fn tick(&mut self, now_ms: u64) -> Vec<JobEvent> {
        let mut events = Vec::new();
        let dead: Vec<u64> = self
            .workers
            .iter()
            .filter_map(|(&id, &last_seen_ms)| {
                (now_ms.saturating_sub(last_seen_ms) > self.config.lease_timeout_ms).then_some(id)
            })
            .collect();
        for worker in dead {
            events.extend(self.disconnect(worker));
        }
        let overdue: Vec<CellKey> = self
            .jobs
            .iter()
            .filter_map(|(&key, slot)| match slot.state {
                JobState::Leased { deadline_ms, .. } if now_ms > deadline_ms => Some(key),
                _ => None,
            })
            .collect();
        for key in overdue {
            events.push(self.expire_lease(key));
        }
        events
    }

    /// Expires one leased cell: requeues it at the front if redeliveries
    /// remain, exhausts it otherwise.
    fn expire_lease(&mut self, key: CellKey) -> JobEvent {
        self.counters.leases_expired += 1;
        let slot = self.jobs.get_mut(&key).expect("expired keys are tracked");
        if slot.redeliveries >= self.config.max_redeliveries {
            let redeliveries = slot.redeliveries;
            self.jobs.remove(&key);
            self.counters.exhausted += 1;
            JobEvent::Exhausted { key, redeliveries }
        } else {
            slot.redeliveries += 1;
            slot.state = JobState::Pending;
            self.counters.redeliveries += 1;
            self.queue.push_front(key);
            JobEvent::Requeued { key, redeliveries: slot.redeliveries }
        }
    }

    /// Drains the table for shutdown: every pending and leased cell is
    /// removed and returned (the fleet rejects their waiters with a typed
    /// draining error), and every worker is forgotten.
    pub fn drain(&mut self) -> Vec<CellKey> {
        self.queue.clear();
        self.workers.clear();
        self.jobs.drain().map(|(key, _)| key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LeaseTable {
        LeaseTable::new(LeaseConfig { lease_timeout_ms: 100, max_redeliveries: 2 })
    }

    #[test]
    fn dispatch_completes_within_the_lease() {
        let mut t = table();
        let w = t.register(0);
        t.submit(CellKey(1));
        let (key, redeliveries) = t.dispatch(w, 0).unwrap();
        assert_eq!((key, redeliveries), (CellKey(1), 0));
        assert!(t.tick(50).is_empty(), "inside the lease nothing expires");
        assert_eq!(t.complete(w, CellKey(1), 50), CompleteOutcome::Accepted);
        assert!(!t.contains(CellKey(1)));
        assert_eq!(t.counters(), LeaseCounters::default());
    }

    #[test]
    fn missed_heartbeats_expire_and_requeue_with_a_bound() {
        let mut t = table();
        let mut w = t.register(0);
        t.submit(CellKey(7));
        // Deliver + expire three times: 2 redeliveries allowed, then exhausted.
        let mut now = 0;
        for round in 0..3 {
            let (key, redeliveries) = t.dispatch(w, now).unwrap();
            assert_eq!((key, redeliveries), (CellKey(7), round));
            now += 1_000; // way past timeout + jitter
            let events = t.tick(now);
            // The silent worker is deregistered too; re-register for the next round.
            assert_eq!(t.workers_live(), 0);
            if round < 2 {
                assert_eq!(events, vec![JobEvent::Requeued { key: CellKey(7), redeliveries: round + 1 }]);
                w = t.register(now);
            } else {
                assert_eq!(events, vec![JobEvent::Exhausted { key: CellKey(7), redeliveries: 2 }]);
            }
        }
        let counters = t.counters();
        assert_eq!(counters.leases_expired, 3);
        assert_eq!(counters.redeliveries, 2);
        assert_eq!(counters.exhausted, 1);
        assert!(!t.contains(CellKey(7)));
    }

    #[test]
    fn heartbeats_extend_leases_indefinitely() {
        let mut t = table();
        let w = t.register(0);
        t.submit(CellKey(3));
        t.dispatch(w, 0).unwrap();
        let mut now = 0;
        for _ in 0..20 {
            now += 60; // between half and one timeout apart
            assert!(t.heartbeat(w, now));
            assert!(t.tick(now).is_empty(), "a heartbeating worker keeps its lease at t={now}");
        }
        assert_eq!(t.complete(w, CellKey(3), now), CompleteOutcome::Accepted);
    }

    #[test]
    fn duplicate_completions_after_expiry_are_stale() {
        let mut t = table();
        let a = t.register(0);
        t.submit(CellKey(9));
        t.dispatch(a, 0).unwrap();
        t.tick(1_000); // a's lease expires, cell requeued
        let b = t.register(1_000);
        assert_eq!(t.dispatch(b, 1_000), Some((CellKey(9), 1)));
        // The presumed-dead worker reports late: stale, not double-completed.
        assert_eq!(t.complete(a, CellKey(9), 1_050), CompleteOutcome::Stale);
        assert_eq!(t.complete(b, CellKey(9), 1_100), CompleteOutcome::Accepted);
        assert_eq!(t.counters().stale_completions, 1);
    }

    #[test]
    fn disconnect_requeues_to_the_front() {
        let mut t = table();
        let a = t.register(0);
        t.submit(CellKey(1));
        t.submit(CellKey(2));
        t.dispatch(a, 0).unwrap(); // leases CellKey(1)
        assert_eq!(t.disconnect(a), vec![JobEvent::Requeued { key: CellKey(1), redeliveries: 1 }]);
        let b = t.register(0);
        // The redelivered cell overtakes the never-delivered one.
        assert_eq!(t.dispatch(b, 0), Some((CellKey(1), 1)));
        assert_eq!(t.dispatch(b, 0), Some((CellKey(2), 0)));
    }

    #[test]
    fn drain_forgets_everything() {
        let mut t = table();
        let w = t.register(0);
        t.submit(CellKey(1));
        t.submit(CellKey(2));
        t.dispatch(w, 0).unwrap();
        let mut drained = t.drain();
        drained.sort();
        assert_eq!(drained, vec![CellKey(1), CellKey(2)]);
        assert_eq!(t.workers_live(), 0);
        assert_eq!(t.pending(), 0);
        assert!(!t.heartbeat(w, 10), "drained workers are forgotten");
    }

    #[test]
    fn unknown_workers_cannot_dispatch_or_heartbeat() {
        let mut t = table();
        t.submit(CellKey(5));
        assert_eq!(t.dispatch(42, 0), None);
        assert!(!t.heartbeat(42, 0));
        assert_eq!(t.complete(42, CellKey(5), 0), CompleteOutcome::Stale, "pending cells reject completes");
    }

    #[test]
    fn lease_jitter_is_deterministic_and_bounded() {
        let t = table();
        let d1 = t.lease_duration_ms(1, 0);
        let d2 = t.lease_duration_ms(1, 0);
        assert_eq!(d1, d2);
        for worker in 0..16 {
            for redeliveries in 0..4 {
                let d = t.lease_duration_ms(worker, redeliveries);
                assert!((100..125).contains(&d), "jitter out of range: {d}");
            }
        }
    }
}
