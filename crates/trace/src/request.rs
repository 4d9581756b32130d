//! Trace records and the trace-source abstraction.

use comet_dram::PhysAddr;
use serde::Serialize;

/// One record of an LLC-miss trace: `gap` non-memory instructions followed by
/// one memory access.
///
/// This is the same shape as Ramulator's CPU trace format ("number of CPU
/// instructions before the request, address, read/write"), which the paper's
/// SimPoint traces use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceRecord {
    /// Number of non-memory instructions the core retires before this access.
    pub gap: u32,
    /// Physical byte address of the access (cache-line aligned).
    pub addr: PhysAddr,
    /// Whether the access is a write-back (posted) rather than a demand read.
    pub is_write: bool,
}

impl TraceRecord {
    /// Convenience constructor for a read record.
    pub fn read(gap: u32, addr: PhysAddr) -> Self {
        TraceRecord { gap, addr, is_write: false }
    }

    /// Convenience constructor for a write record.
    pub fn write(gap: u32, addr: PhysAddr) -> Self {
        TraceRecord { gap, addr, is_write: true }
    }
}

/// An endless source of trace records.
///
/// Synthetic generators are infinite: the simulator decides when to stop
/// (after a fixed number of instructions or cycles). Implementations must be
/// deterministic for a given seed so experiments are reproducible.
pub trait TraceSource {
    /// Produces the next record.
    fn next_record(&mut self) -> TraceRecord;

    /// A short, stable name for reports (workload name or attack kind).
    fn name(&self) -> &str;
}

/// A trivial trace source that replays a fixed sequence in a loop — useful in
/// unit tests and for hand-crafted microbenchmarks.
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    name: String,
    records: Vec<TraceRecord>,
    position: usize,
}

impl ReplayTrace {
    /// Creates a replaying source over `records`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        assert!(!records.is_empty(), "replay trace needs at least one record");
        ReplayTrace { name: name.into(), records, position: 0 }
    }
}

impl TraceSource for ReplayTrace {
    fn next_record(&mut self) -> TraceRecord {
        let r = self.records[self.position];
        self.position = (self.position + 1) % self.records.len();
        r
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        assert!(!TraceRecord::read(3, 64).is_write);
        assert!(TraceRecord::write(3, 64).is_write);
    }

    #[test]
    fn replay_wraps_around() {
        let mut t = ReplayTrace::new("loop", vec![TraceRecord::read(1, 0), TraceRecord::read(2, 64)]);
        assert_eq!(t.next_record().gap, 1);
        assert_eq!(t.next_record().gap, 2);
        assert_eq!(t.next_record().gap, 1);
        assert_eq!(t.name(), "loop");
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_replay_rejected() {
        let _ = ReplayTrace::new("empty", vec![]);
    }
}
