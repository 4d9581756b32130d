//! # comet-trace
//!
//! Workload catalog, synthetic memory-trace generators, and RowHammer attack
//! traces for the CoMeT reproduction.
//!
//! The CoMeT paper evaluates 61 single-core workloads (SPEC CPU2006/2017, TPC,
//! MediaBench, YCSB) and 56 homogeneous 8-core mixes, characterized by their
//! row-buffer misses per kilo-instruction (RBMPKI) and memory bandwidth
//! (Table 3). The original SimPoint traces are not redistributable, so this
//! crate generates *synthetic* LLC-miss traces calibrated to each workload's
//! published RBMPKI class, bandwidth, and a row-locality parameter — the
//! first-order statistics that determine how hard a workload presses on a
//! RowHammer tracker.
//!
//! The crate also provides the adversarial access patterns of §8.2: a
//! traditional many-row RowHammer attack, a CoMeT-targeted RAT-thrashing
//! attack, and a Hydra-targeted group-counter-saturating attack.
//!
//! ## Example
//!
//! ```rust
//! use comet_trace::{catalog, SyntheticTrace, TraceSource};
//! use comet_dram::DramGeometry;
//!
//! let profile = catalog::workload("519.lbm").expect("known workload");
//! let mut trace = SyntheticTrace::new(profile.clone(), DramGeometry::paper_default(), 42);
//! let record = trace.next_record();
//! assert!(record.gap < 10_000);
//! ```

pub mod attack;
pub mod catalog;
pub mod mix;
pub mod profile;
pub mod request;
pub mod synth;

pub use attack::{AttackKind, AttackTrace};
pub use catalog::{all_workloads, workload};
pub use mix::{homogeneous_mix, MultiCoreMix};
pub use profile::{MemoryIntensity, WorkloadProfile};
pub use request::{TraceRecord, TraceSource};
pub use synth::SyntheticTrace;
