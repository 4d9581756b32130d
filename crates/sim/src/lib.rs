//! # comet-sim
//!
//! The system simulator of the CoMeT reproduction: a trace-driven CPU model, a
//! channel-sharded memory system of FR-FCFS controllers driving the
//! `comet-dram` substrate, pluggable RowHammer mitigation mechanisms (one
//! independent instance per channel, built through the
//! [`MechanismRegistry`]), and the experiment harness — with a parallel
//! executor — that regenerates every table and figure of the paper's
//! evaluation.
//!
//! The default configuration follows Table 2 of the paper: 1 or 8 cores at
//! 3.6 GHz with a 128-entry instruction window and 4-wide retire, one DDR4
//! channel with 2 ranks × 16 banks × 128 K rows, 64-entry read/write queues,
//! and FR-FCFS scheduling with a column-access cap of 16. Scaling out is one
//! call away: [`SimConfig::with_channels`] shards the memory system across
//! any number of channels, each with its own controller and tracker instance.
//!
//! ## Example
//!
//! ```rust
//! use comet_sim::{MechanismKind, Runner, SimConfig};
//!
//! let config = SimConfig::quick_test();
//! let runner = Runner::new(config);
//! let result = runner.run_single_core("429.mcf", MechanismKind::Comet, 1000).unwrap();
//! assert!(result.ipc > 0.0);
//! ```
//!
//! ## Multi-channel example
//!
//! ```rust
//! use comet_sim::{MechanismKind, Runner, SimConfig};
//!
//! let mut config = SimConfig::quick_test().with_channels(2);
//! config.sim_cycles = 100_000;
//! let runner = Runner::new(config);
//! let result = runner.run_single_core("429.mcf", MechanismKind::Comet, 1000).unwrap();
//! assert!(result.reads > 0);
//! ```

pub mod controller;
pub mod cpu;
pub mod experiments;
pub mod memory;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod runner;
pub mod system;
pub mod telemetry;

pub use controller::{ControllerConfig, ControllerStats, MemoryController};
pub use cpu::{CoreConfig, TraceCore};
// Part of `CoreConfig`'s public surface (the interleaving scheme field).
pub use comet_dram::AddressScheme;
pub use memory::{MemorySink, MemorySystem};
pub use metrics::{geometric_mean, normalized_distribution, DistributionSummary, EngineTelemetry, RunResult};
pub use registry::{MechanismRegistry, MechanismSpec, RegisteredFactory};
pub use request::MemRequest;
pub use runner::{MechanismKind, Runner, RunnerError};
pub use system::{LoopMode, SimConfig, System};
