//! The daemon's priority admission gate.
//!
//! A `run` request executes on the connection thread that read it, once the
//! gate admits it. [`AdmissionGate::admit`] blocks its caller until the
//! caller is the highest-priority waiter (ties break FIFO by arrival, so
//! equal-priority sweeps run in submission order) and one of the gate's
//! slots is free. It returns an [`Admitted`] guard that frees the slot when
//! it drops, on unwind too, and wakes the next waiter.
//!
//! The gate is the daemon's admission bound: a caller arriving while `bound`
//! others already wait is refused with [`Refused::Overloaded`] (load
//! shedding) instead of the wait list growing without limit.
//! [`close_and_drain`](AdmissionGate::close_and_drain) refuses every waiter,
//! and every later caller, with [`Refused::Closed`] at shutdown; callers
//! already admitted keep their slots and finish.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why [`AdmissionGate::admit`] refused a caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// Shed: `queued` callers were already waiting against a bound of
    /// `bound`. Clients should back off.
    Overloaded {
        /// Callers waiting at the moment of refusal.
        queued: usize,
        /// The configured admission bound.
        bound: usize,
    },
    /// The gate is closed (shutdown).
    Closed,
}

struct Inner {
    /// Waiting callers as `(priority, Reverse(arrival))`: the max-heap's top
    /// is the next caller admitted.
    waiting: BinaryHeap<(i64, Reverse<u64>)>,
    next_arrival: u64,
    free_slots: usize,
    closed: bool,
}

/// A blocking priority gate over a fixed number of slots, with an admission
/// bound on its waiters.
pub struct AdmissionGate {
    inner: Mutex<Inner>,
    cv: Condvar,
    bound: usize,
}

/// One held slot of an [`AdmissionGate`]; dropping it frees the slot.
#[must_use = "the slot is freed as soon as the guard drops"]
pub struct Admitted<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.gate.lock().free_slots += 1;
        // Only the top waiter can take the slot, and the condvar cannot
        // pick it out, so every waiter re-checks.
        self.gate.cv.notify_all();
    }
}

impl AdmissionGate {
    /// A gate with `slots` concurrent holders that sheds callers arriving
    /// while `bound` others wait. Both are clamped to at least 1: a gate
    /// that admits nothing deadlocks.
    pub fn new(slots: usize, bound: usize) -> Self {
        AdmissionGate {
            inner: Mutex::new(Inner {
                waiting: BinaryHeap::new(),
                next_arrival: 0,
                free_slots: slots.max(1),
                closed: false,
            }),
            cv: Condvar::new(),
            bound: bound.max(1),
        }
    }

    /// Recovers the guard even if a holder panicked: the gate's invariants
    /// hold at every await point, so poisoning must not cascade into every
    /// connection thread.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until the caller is the highest-priority waiter and a slot is
    /// free, then holds that slot until the returned guard drops. Refused
    /// at once when the gate is closed or `bound` callers already wait, and
    /// while waiting when the gate closes.
    pub fn admit(&self, priority: i64) -> Result<Admitted<'_>, Refused> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(Refused::Closed);
        }
        if inner.waiting.len() >= self.bound {
            return Err(Refused::Overloaded { queued: inner.waiting.len(), bound: self.bound });
        }
        let me = (priority, Reverse(inner.next_arrival));
        inner.next_arrival += 1;
        inner.waiting.push(me);
        loop {
            // Closing clears the wait list, so a refused waiter leaves
            // nothing behind.
            if inner.closed {
                return Err(Refused::Closed);
            }
            if inner.free_slots > 0 && inner.waiting.peek() == Some(&me) {
                inner.waiting.pop();
                inner.free_slots -= 1;
                if inner.free_slots > 0 && !inner.waiting.is_empty() {
                    // The next waiter may have checked before this one
                    // left the top; it can take another free slot now.
                    self.cv.notify_all();
                }
                return Ok(Admitted { gate: self });
            }
            inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the gate: every waiter, and every later caller, is refused
    /// with [`Refused::Closed`]. Admitted callers keep their slots.
    pub fn close_and_drain(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        inner.waiting.clear();
        drop(inner);
        self.cv.notify_all();
    }

    /// Callers currently waiting for a slot.
    pub fn waiting(&self) -> usize {
        self.lock().waiting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// Starts a caller of `gate.admit(priority)` on its own thread, waits
    /// until it is queued, and returns what it saw. An admitted caller
    /// appends `label` to `admitted` while it still holds its slot.
    fn waiter(
        gate: &Arc<AdmissionGate>,
        admitted: &Arc<Mutex<Vec<&'static str>>>,
        label: &'static str,
        priority: i64,
    ) -> JoinHandle<Result<(), Refused>> {
        let queued = gate.waiting();
        let handle = {
            let (gate, admitted) = (gate.clone(), admitted.clone());
            std::thread::spawn(move || {
                let _slot = gate.admit(priority)?;
                admitted.lock().unwrap().push(label);
                Ok(())
            })
        };
        while gate.waiting() == queued && !handle.is_finished() {
            std::thread::yield_now();
        }
        handle
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let gate = Arc::new(AdmissionGate::new(1, 8));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let held = gate.admit(0).unwrap();
        let waiters = [("low", 1), ("high", 10), ("mid-a", 5), ("mid-b", 5)]
            .map(|(label, priority)| waiter(&gate, &admitted, label, priority));
        assert_eq!(gate.waiting(), 4);
        drop(held);
        for waiter in waiters {
            waiter.join().unwrap().unwrap();
        }
        assert_eq!(*admitted.lock().unwrap(), ["high", "mid-a", "mid-b", "low"]);
    }

    #[test]
    fn a_blocked_admit_wakes_when_a_slot_frees() {
        let gate = Arc::new(AdmissionGate::new(2, 8));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let first = gate.admit(0).unwrap();
        let _second = gate.admit(0).expect("two slots admit two callers at once");
        let blocked = waiter(&gate, &admitted, "third", 0);
        assert!(!blocked.is_finished(), "both slots are held");
        drop(first);
        blocked.join().unwrap().unwrap();
        assert_eq!(*admitted.lock().unwrap(), ["third"]);
    }

    /// A run that panics while it holds its slot frees the slot on unwind.
    #[test]
    fn a_panicking_holder_frees_its_slot() {
        let gate = AdmissionGate::new(1, 1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = gate.admit(0).unwrap();
            panic!("the run panicked");
        }));
        assert!(caught.is_err());
        assert!(gate.admit(0).is_ok(), "the slot came back");
    }

    /// Every caller blocked in `admit` must wake and be refused as soon as
    /// the gate closes: the daemon joins its connection threads at shutdown
    /// and would hang on one still parked on the condvar.
    #[test]
    fn blocked_admits_wake_and_are_refused_on_close() {
        let gate = Arc::new(AdmissionGate::new(1, 8));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let held = gate.admit(0).unwrap();
        let waiters: Vec<_> = (0..4).map(|priority| waiter(&gate, &admitted, "never", priority)).collect();
        gate.close_and_drain();
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), Err(Refused::Closed), "a blocked caller is refused");
        }
        assert_eq!(gate.waiting(), 0);
        assert!(matches!(gate.admit(9), Err(Refused::Closed)), "a closed gate refuses new callers");
        // The admitted caller was never interrupted and frees its slot.
        drop(held);
        assert!(admitted.lock().unwrap().is_empty());
    }

    #[test]
    fn pushes_past_the_bound_are_shed() {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let held = gate.admit(0).unwrap();
        let a = waiter(&gate, &admitted, "a", 0);
        let b = waiter(&gate, &admitted, "b", 5);
        assert!(matches!(gate.admit(9), Err(Refused::Overloaded { queued: 2, bound: 2 })));
        // Shedding never reorders admitted work.
        drop(held);
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
        assert_eq!(*admitted.lock().unwrap(), ["b", "a"]);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn zero_bound_is_clamped_to_one() {
        let gate = Arc::new(AdmissionGate::new(0, 0));
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let held = gate.admit(0).expect("zero slots are clamped to one");
        let queued = waiter(&gate, &admitted, "queued", 0);
        assert!(matches!(gate.admit(0), Err(Refused::Overloaded { queued: 1, bound: 1 })));
        drop(held);
        queued.join().unwrap().unwrap();
    }
}
