//! Property tests for the pure lease state machine ([`LeaseTable`]).
//!
//! Each case drives a table with a random interleaving of the fleet's
//! operations — register, submit, dispatch, heartbeat, complete, disconnect,
//! tick, clock advance — then drains whatever is left with a fresh worker,
//! and asserts the two safety properties the coordinator is built on:
//!
//! * **exactly-once from the cache's point of view**: every submitted cell
//!   ends in exactly one authoritative `Accepted` completion or exactly one
//!   `Exhausted` event — never both, never twice, never lost — and every
//!   completion report after that is `Stale`;
//! * **bounded redelivery**: no dispatch or requeue ever exceeds the
//!   configured `max_redeliveries`, and a cell is only exhausted at exactly
//!   that budget.

use comet_service::{CellKey, CompleteOutcome, JobEvent, LeaseConfig, LeaseTable};
use proptest::prelude::*;
use std::collections::HashMap;

const KEY_POOL: u128 = 6;
const WORKER_POOL: u64 = 4;

/// Per-key lifecycle bookkeeping mirrored outside the table: what the cache
/// layer would have observed.
#[derive(Default, Clone, Copy, Debug)]
struct KeyLog {
    submitted: bool,
    accepted: u32,
    exhausted: u32,
}

struct Harness {
    table: LeaseTable,
    now_ms: u64,
    /// Worker ids ever registered (some may be dead — feeding dead ids back
    /// in is part of the point).
    workers: Vec<u64>,
    log: HashMap<CellKey, KeyLog>,
}

impl Harness {
    fn new(config: LeaseConfig) -> Self {
        Harness { table: LeaseTable::new(config), now_ms: 0, workers: Vec::new(), log: HashMap::new() }
    }

    fn max_redeliveries(&self) -> u32 {
        self.table.config().max_redeliveries
    }

    fn key(&self, selector: u128) -> CellKey {
        CellKey(0xfee1_0000 + selector % KEY_POOL)
    }

    /// A key is live while the table tracks it; once accepted or exhausted
    /// its lifecycle is over and we never resubmit it, so "exactly once"
    /// stays meaningful.
    fn finished(&self, key: CellKey) -> bool {
        let log = self.log.get(&key).copied().unwrap_or_default();
        log.accepted + log.exhausted > 0
    }

    fn absorb_events(&mut self, events: Vec<JobEvent>) {
        let budget = self.max_redeliveries();
        for event in events {
            match event {
                JobEvent::Requeued { key, redeliveries } => {
                    prop_assert!(
                        redeliveries <= budget,
                        "requeued {key} at {redeliveries} redeliveries, budget {budget}"
                    );
                    prop_assert!(self.table.contains(key), "a requeued cell must stay tracked");
                }
                JobEvent::Exhausted { key, redeliveries } => {
                    prop_assert_eq!(redeliveries, budget, "a cell must only exhaust at exactly the budget");
                    prop_assert!(!self.table.contains(key), "an exhausted cell must be dropped");
                    self.log.entry(key).or_default().exhausted += 1;
                }
            }
        }
    }

    fn apply(&mut self, op: u64) {
        let worker = self.workers.get((op >> 8) as usize % WORKER_POOL.max(1) as usize).copied();
        let key = self.key((op >> 16) as u128);
        match op % 8 {
            0 => {
                if (self.workers.len() as u64) < WORKER_POOL {
                    let id = self.table.register(self.now_ms);
                    self.workers.push(id);
                }
            }
            1 => {
                if !self.finished(key) {
                    self.table.submit(key);
                    self.log.entry(key).or_default().submitted = true;
                }
            }
            2 => {
                if let Some(worker) = worker {
                    if let Some((_, redeliveries)) = self.table.dispatch(worker, self.now_ms) {
                        prop_assert!(
                            redeliveries <= self.max_redeliveries(),
                            "dispatched at {redeliveries} redeliveries"
                        );
                    }
                }
            }
            3 => {
                if let Some(worker) = worker {
                    self.table.heartbeat(worker, self.now_ms);
                }
            }
            4 => {
                if let Some(worker) = worker {
                    let outcome = self.table.complete(worker, key, self.now_ms);
                    if outcome == CompleteOutcome::Accepted {
                        self.log.entry(key).or_default().accepted += 1;
                    }
                }
            }
            5 => {
                if let Some(worker) = worker {
                    let events = self.table.disconnect(worker);
                    self.workers.retain(|&w| w != worker);
                    self.absorb_events(events);
                }
            }
            6 => {
                let events = self.table.tick(self.now_ms);
                // `tick` may deregister silently-dead workers; drop stale
                // ids so registration slots free up (keeping some stale ids
                // around is fine too — ops on them are no-ops by contract).
                let table = &self.table;
                self.workers.retain(|&w| table.is_live(w));
                self.absorb_events(events);
            }
            _ => {
                self.now_ms += (op >> 24) % 700;
            }
        }
        self.check_invariants()
    }

    fn check_invariants(&self) {
        let counters = self.table.counters();
        // Every expiry either requeues or exhausts — nothing else.
        prop_assert_eq!(
            counters.leases_expired,
            counters.redeliveries + counters.exhausted,
            "expiries must partition into requeues and exhaustions"
        );
        for (&key, log) in &self.log {
            prop_assert!(
                log.accepted + log.exhausted <= 1,
                "{key} resolved {} times (accepted {}, exhausted {})",
                log.accepted + log.exhausted,
                log.accepted,
                log.exhausted
            );
            if log.accepted + log.exhausted > 0 {
                prop_assert!(!self.table.contains(key), "{key} resolved but the table still tracks it");
            }
        }
    }

    /// Deterministically finishes every still-tracked cell: one fresh worker
    /// dispatches and completes until the table is empty, with periodic
    /// heartbeats so its own leases never expire.
    fn drain_remaining(&mut self) {
        let finisher = self.table.register(self.now_ms);
        let mut steps = 0u32;
        while self.table.pending() > 0 || self.table.leased() > 0 {
            steps += 1;
            prop_assert!(steps < 10_000, "drain phase failed to converge");
            self.now_ms += 1;
            let events = self.table.tick(self.now_ms);
            self.absorb_events(events);
            self.table.heartbeat(finisher, self.now_ms);
            if let Some((key, redeliveries)) = self.table.dispatch(finisher, self.now_ms) {
                prop_assert!(redeliveries <= self.max_redeliveries());
                let outcome = self.table.complete(finisher, key, self.now_ms);
                prop_assert_eq!(
                    outcome,
                    CompleteOutcome::Accepted,
                    "the live lease holder's report must be authoritative"
                );
                self.log.entry(key).or_default().accepted += 1;
            }
            self.check_invariants();
        }
    }
}

proptest! {
    /// The headline safety property: under arbitrary interleavings of the
    /// fleet's operations, every submitted cell resolves exactly once
    /// (accepted or exhausted), redelivery never exceeds its budget, and
    /// post-resolution completion reports are stale.
    #[test]
    fn every_cell_resolves_exactly_once_with_bounded_redelivery(
        ops in proptest::collection::vec(any::<u64>(), 20..400),
        lease_timeout_ms in 50u64..1500,
        max_redeliveries in 0u32..5,
    ) {
        let mut harness = Harness::new(LeaseConfig { lease_timeout_ms, max_redeliveries });
        for op in ops {
            harness.apply(op);
        }
        harness.drain_remaining();

        for (&key, log) in &harness.log {
            if log.submitted {
                prop_assert_eq!(
                    log.accepted + log.exhausted, 1,
                    "{} must resolve exactly once (accepted {}, exhausted {})",
                    key, log.accepted, log.exhausted
                );
            }
            // A resolved cell's key is gone: any further report is stale.
            let worker = harness.table.register(harness.now_ms);
            prop_assert_eq!(
                harness.table.complete(worker, key, harness.now_ms),
                CompleteOutcome::Stale,
                "a post-resolution completion must be refused as stale"
            );
        }
        let counters = harness.table.counters();
        prop_assert_eq!(counters.leases_expired, counters.redeliveries + counters.exhausted);
    }

    /// Dropping every connection a cell is ever leased on must exhaust it
    /// after exactly `max_redeliveries` requeues — never an endless loop.
    #[test]
    fn repeated_disconnects_exhaust_at_exactly_the_budget(
        max_redeliveries in 0u32..6,
    ) {
        let mut table = LeaseTable::new(LeaseConfig { lease_timeout_ms: 1_000, max_redeliveries });
        let key = CellKey(0xdead_beef);
        table.submit(key);
        let mut requeues = 0u32;
        loop {
            let worker = table.register(0);
            let (leased, redeliveries) = table.dispatch(worker, 0).expect("the cell is pending");
            prop_assert_eq!(leased, key);
            prop_assert_eq!(redeliveries, requeues);
            let events = table.disconnect(worker);
            prop_assert_eq!(events.len(), 1);
            match events.into_iter().next().unwrap() {
                JobEvent::Requeued { redeliveries, .. } => {
                    requeues += 1;
                    prop_assert_eq!(redeliveries, requeues);
                    prop_assert!(requeues <= max_redeliveries, "requeued past the budget");
                }
                JobEvent::Exhausted { redeliveries, .. } => {
                    prop_assert_eq!(redeliveries, max_redeliveries);
                    prop_assert_eq!(requeues, max_redeliveries);
                    break;
                }
            }
        }
        prop_assert!(!table.contains(key));
        prop_assert_eq!(table.counters().exhausted, 1);
        prop_assert_eq!(table.counters().leases_expired, u64::from(max_redeliveries) + 1);
    }
}
