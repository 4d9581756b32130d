//! Deterministic fault injection for the experiment service.
//!
//! A [`FaultPlan`] is a scripted seam threaded (via
//! [`ExperimentService::with_fault_plan`](crate::ExperimentService::with_fault_plan),
//! a test-only constructor) into the two failure-prone boundaries of the
//! service:
//!
//! * **store I/O** — [`FaultPlan::on_append`] is consulted before every
//!   segment append and can tear the write mid-line (crash simulation) or
//!   fail it outright (ENOSPC simulation);
//! * **workers** — [`FaultPlan::on_simulate`] runs at the top of every cell
//!   simulation attempt and can panic on schedule (worker-crash simulation)
//!   or hold all workers at a gate until the test releases them (the
//!   deterministic way to keep the daemon's admission slots busy for
//!   admission-control tests);
//! * **the fleet** — [`FaultPlan::on_deliver`] runs before a remote worker
//!   reports a completed cell and can drop the connection outright or
//!   truncate the result line mid-write (network-partition simulation),
//!   and [`FaultPlan::on_worker_cell`] can kill a worker mid-cell on
//!   schedule (crash-under-lease simulation, the failover-to-another-worker
//!   path).
//!
//! Everything is driven by counters and labels, never clocks, so every
//! fault fires at exactly the same point on every run. Production builds
//! construct the service without a plan; every hook is then never called.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, PoisonError};

/// What the store should do with one append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendFault {
    /// Write the line normally.
    Proceed,
    /// Write only the first `keep_bytes` bytes of the line (no trailing
    /// newline), then fail — a crash mid-`write(2)`.
    Torn {
        /// Bytes of the encoded line that reach the disk.
        keep_bytes: usize,
    },
    /// Fail before writing anything, as a full disk would.
    Enospc,
}

/// What a fleet worker should do with one result delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliverFault {
    /// Send the result normally.
    Proceed,
    /// Drop the connection without sending anything — the coordinator sees
    /// a clean disconnect with the lease still open.
    Drop,
    /// Write only the first `keep_bytes` bytes of the result line (no
    /// newline), then drop the connection — a half-delivered result the
    /// coordinator's framing must refuse to act on.
    Truncate {
        /// Bytes of the encoded result line that reach the wire.
        keep_bytes: usize,
    },
}

#[derive(Default)]
struct PlanState {
    appends_seen: u64,
    torn_appends: HashMap<u64, usize>,
    enospc_from: Option<u64>,
    panics: HashMap<String, u32>,
    hold_workers: bool,
    workers_held: usize,
    simulations_seen: u64,
    deliveries_seen: u64,
    deliver_faults: HashMap<u64, DeliverFault>,
    cell_deaths: HashMap<String, u32>,
}

/// A deterministic, scripted fault plan. Cheap to share (`Arc`) between the
/// service, its store, and the test that scripted it.
#[derive(Default)]
pub struct FaultPlan {
    state: Mutex<PlanState>,
    gate: Condvar,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan").finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// An empty plan: every hook is a no-op until faults are scripted.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PlanState> {
        // A panicking hook user must not wedge the plan itself.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Scripts the `nth` store append (0-based, counted across the plan's
    /// lifetime) to tear: only `keep_bytes` bytes of the encoded line are
    /// written before the append fails, simulating a crash mid-write.
    pub fn tear_append(self, nth: u64, keep_bytes: usize) -> Self {
        self.lock().torn_appends.insert(nth, keep_bytes);
        self
    }

    /// Scripts every store append from the `nth` on (0-based) to fail as if
    /// the disk were full, without writing anything.
    pub fn enospc_from(self, nth: u64) -> Self {
        self.lock().enospc_from = Some(nth);
        self
    }

    /// Scripts the first `times` simulation attempts of the cell labelled
    /// `label` to panic. Pass [`u32::MAX`] for "always panics" (the
    /// retries-exhausted path).
    pub fn panic_on(self, label: impl Into<String>, times: u32) -> Self {
        self.lock().panics.insert(label.into(), times);
        self
    }

    /// Closes the worker gate: every subsequent simulation attempt blocks in
    /// [`on_simulate`](Self::on_simulate) until
    /// [`release_workers`](Self::release_workers) opens it. This is how
    /// admission-control tests deterministically keep the daemon's admission
    /// slots occupied.
    pub fn hold_workers(&self) {
        self.lock().hold_workers = true;
    }

    /// Opens the worker gate and wakes every held worker.
    pub fn release_workers(&self) {
        self.lock().hold_workers = false;
        self.gate.notify_all();
    }

    /// Workers currently blocked at the gate (for tests to synchronize on).
    pub fn workers_held(&self) -> usize {
        self.lock().workers_held
    }

    /// Store appends observed so far.
    pub fn appends_seen(&self) -> u64 {
        self.lock().appends_seen
    }

    /// Simulation attempts observed so far.
    pub fn simulations_seen(&self) -> u64 {
        self.lock().simulations_seen
    }

    /// Scripts the `nth` fleet result delivery (0-based, counted across the
    /// plan's lifetime) to misbehave: drop the connection before sending, or
    /// truncate the result line mid-write.
    pub fn fail_delivery(self, nth: u64, fault: DeliverFault) -> Self {
        self.lock().deliver_faults.insert(nth, fault);
        self
    }

    /// Scripts the first `times` remote executions of the cell labelled
    /// `label` to kill the worker mid-cell (the worker's run loop exits with
    /// the lease still open). Pass [`u32::MAX`] for "always dies" — the
    /// redelivery-exhaustion path.
    pub fn die_on_cell(self, label: impl Into<String>, times: u32) -> Self {
        self.lock().cell_deaths.insert(label.into(), times);
        self
    }

    /// Fleet result-delivery hook: consumes one delivery slot and returns
    /// the scripted fault.
    pub fn on_deliver(&self) -> DeliverFault {
        let mut state = self.lock();
        let nth = state.deliveries_seen;
        state.deliveries_seen += 1;
        state.deliver_faults.get(&nth).cloned().unwrap_or(DeliverFault::Proceed)
    }

    /// Result deliveries observed so far.
    pub fn deliveries_seen(&self) -> u64 {
        self.lock().deliveries_seen
    }

    /// Fleet worker hook, called before a worker simulates a leased cell:
    /// `true` means the worker must die now (exit its run loop with the
    /// lease open), exercising lease expiry and failover.
    pub fn on_worker_cell(&self, label: &str) -> bool {
        let mut state = self.lock();
        if let Some(remaining) = state.cell_deaths.get_mut(label) {
            if *remaining > 0 {
                if *remaining != u32::MAX {
                    *remaining -= 1;
                }
                return true;
            }
        }
        false
    }

    /// Store hook: consumes one append slot and returns the scripted fault.
    pub fn on_append(&self) -> AppendFault {
        let mut state = self.lock();
        let nth = state.appends_seen;
        state.appends_seen += 1;
        if let Some(&keep_bytes) = state.torn_appends.get(&nth) {
            AppendFault::Torn { keep_bytes }
        } else if state.enospc_from.is_some_and(|from| nth >= from) {
            AppendFault::Enospc
        } else {
            AppendFault::Proceed
        }
    }

    /// Worker hook: blocks while the gate is held, then panics if this
    /// cell's label still has scripted panics left. Called inside the
    /// service's `catch_unwind` boundary, so an injected panic exercises
    /// exactly the containment path a real worker crash would.
    pub fn on_simulate(&self, label: &str) {
        let mut state = self.lock();
        state.simulations_seen += 1;
        while state.hold_workers {
            state.workers_held += 1;
            state = self.gate.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.workers_held -= 1;
        }
        if let Some(remaining) = state.panics.get_mut(label) {
            if *remaining > 0 {
                if *remaining != u32::MAX {
                    *remaining -= 1;
                }
                drop(state);
                panic!("injected worker panic: {label}");
            }
        }
    }

    /// The injected ENOSPC error the store surfaces.
    pub(crate) fn enospc_error() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected fault: no space left on device (ENOSPC)",
        )
    }

    /// The injected torn-write error the store surfaces.
    pub(crate) fn torn_error() -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::WriteZero, "injected fault: torn write (crash mid-append)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_script_fires_on_exact_counters() {
        let plan = FaultPlan::new().tear_append(1, 10).enospc_from(3);
        assert_eq!(plan.on_append(), AppendFault::Proceed);
        assert_eq!(plan.on_append(), AppendFault::Torn { keep_bytes: 10 });
        assert_eq!(plan.on_append(), AppendFault::Proceed);
        assert_eq!(plan.on_append(), AppendFault::Enospc);
        assert_eq!(plan.on_append(), AppendFault::Enospc, "ENOSPC persists once it starts");
        assert_eq!(plan.appends_seen(), 5);
    }

    #[test]
    fn scripted_panics_are_bounded_per_label() {
        let plan = FaultPlan::new().panic_on("cell-a", 2);
        for _ in 0..2 {
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.on_simulate("cell-a")));
            assert!(caught.is_err(), "scripted attempts panic");
        }
        plan.on_simulate("cell-a"); // third attempt succeeds
        plan.on_simulate("cell-b"); // other labels are never touched
        assert_eq!(plan.simulations_seen(), 4);
    }

    #[test]
    fn fleet_faults_fire_on_exact_counters() {
        let plan = FaultPlan::new()
            .fail_delivery(0, DeliverFault::Drop)
            .fail_delivery(2, DeliverFault::Truncate { keep_bytes: 7 })
            .die_on_cell("victim", 1);
        assert_eq!(plan.on_deliver(), DeliverFault::Drop);
        assert_eq!(plan.on_deliver(), DeliverFault::Proceed);
        assert_eq!(plan.on_deliver(), DeliverFault::Truncate { keep_bytes: 7 });
        assert_eq!(plan.deliveries_seen(), 3);

        assert!(plan.on_worker_cell("victim"), "first attempt dies");
        assert!(!plan.on_worker_cell("victim"), "budget spent");
        assert!(!plan.on_worker_cell("bystander"));
    }

    #[test]
    fn worker_gate_holds_and_releases() {
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new());
        plan.hold_workers();
        let worker = {
            let plan = plan.clone();
            std::thread::spawn(move || plan.on_simulate("gated"))
        };
        // Wait for the worker to reach the gate, then release it.
        while plan.workers_held() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        plan.release_workers();
        worker.join().unwrap();
        assert_eq!(plan.workers_held(), 0);
    }
}
