//! # comet-service
//!
//! The long-running experiment service of the CoMeT reproduction: a daemon
//! that accepts sweep requests over a line protocol (Unix socket or stdin),
//! decomposes them into the cells of the figure grids of
//! [`comet_sim::experiments`], schedules novel cells onto the
//! [`ParallelExecutor`](comet_sim::experiments::ParallelExecutor) behind a
//! priority admission gate, deduplicates in-flight work across concurrent
//! requests, and memoizes every completed cell in a content-addressed result
//! cache persisted as JSON-lines segments.
//!
//! The cache key is the 128-bit FNV-1a hash of a canonical serialized form of
//! the *full* cell identity — `SimConfig` (geometry, timing, energy,
//! controller, core, cycle counts), seed, loop mode, workload placement,
//! mechanism parameters, and RowHammer threshold — so a hit is, by
//! construction, bit-identical to a fresh simulation of the same cell. Repeat
//! sweeps are served entirely from cache; overlapping sweeps (e.g. the
//! adversarial grids sharing attacked baselines) only simulate their novel
//! cells.
//!
//! ## In-process example
//!
//! ```rust
//! use comet_service::ExperimentService;
//! use comet_sim::experiments::{CellBackend, CellSpec, ParallelExecutor};
//! use comet_sim::{MechanismKind, Runner, SimConfig};
//!
//! let service = ExperimentService::new(ParallelExecutor::new());
//! let runner = Runner::new(SimConfig::quick_test());
//! let cells = vec![CellSpec::single("429.mcf", MechanismKind::Baseline, 1000)];
//! let first = service.run_cells(&runner, &cells).unwrap();
//! let again = service.run_cells(&runner, &cells).unwrap();
//! assert_eq!(first[0].instructions, again[0].instructions);
//! assert_eq!(service.stats().simulated, 1); // second call was a pure cache hit
//! ```

pub mod compact;
pub mod daemon;
pub mod error;
pub mod faults;
pub mod fleet;
pub mod json;
pub mod key;
pub mod lease;
pub mod protocol;
pub mod queue;
pub mod service;
pub mod store;
pub mod targets;
pub mod wire;
pub mod worker;

pub use compact::CompactionReport;
pub use daemon::{Daemon, DEFAULT_QUEUE_BOUND};
pub use error::ServiceError;
pub use faults::{DeliverFault, FaultPlan};
pub use fleet::{Fleet, FleetDisposition, FleetStats, PullOutcome};
pub use key::{canonical_cell_form, cell_key, CellKey, KEY_SCHEMA};
pub use lease::{CompleteOutcome, JobEvent, LeaseConfig, LeaseCounters, LeaseTable};
pub use service::{ExperimentService, ServiceConfig, ServiceStats};
pub use store::{Recovery, ResultStore};
pub use worker::{run_worker, WorkerConfig, WorkerReport};
