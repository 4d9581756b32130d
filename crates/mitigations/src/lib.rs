//! # comet-mitigations
//!
//! RowHammer mitigation mechanisms for the CoMeT reproduction.
//!
//! This crate defines the [`RowHammerMitigation`] trait through which the
//! memory controller in `comet-sim` notifies a mechanism of every row
//! activation and receives the preventive actions it must carry out
//! (preventive victim refreshes, rank-level refreshes, counter traffic to
//! DRAM, or activation throttling).
//!
//! It also re-implements the state-of-the-art baselines the CoMeT paper
//! compares against (§6 "Comparison Points"):
//!
//! * [`Graphene`] — Misra-Gries frequent-item tracking with tagged CAM counters,
//! * [`Hydra`] — hybrid SRAM group counters + per-row counters stored in DRAM,
//! * [`Para`] — stateless probabilistic adjacent-row refresh,
//! * [`Rega`] — DRAM-side refresh-generating activations (modeled as an
//!   activation latency penalty),
//! * [`BlockHammer`] — counting-Bloom-filter blacklisting with throttling,
//! * [`PerRowCounters`] — the idealized one-counter-per-row tracker, and
//! * [`NoMitigation`] — the unprotected baseline.
//!
//! CoMeT itself lives in the `comet-core` crate and implements the same trait.
//!
//! ## Example
//!
//! ```rust
//! use comet_mitigations::{Para, RowHammerMitigation};
//! use comet_dram::{DramAddr, DramGeometry};
//!
//! let geometry = DramGeometry::paper_default();
//! let mut para = Para::new(1000, 0xC0FFEE, geometry.clone());
//! let addr = DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 77, column: 0 };
//! let response = para.on_activation(&addr, 0, 1);
//! // PARA either does nothing or refreshes the neighbours of row 77.
//! assert!(response.refresh_victims.iter().all(|v| v.row == 76 || v.row == 78));
//! ```

pub mod blockhammer;
pub mod graphene;
mod hashers;
pub mod hydra;
pub mod none;
pub mod para;
pub mod perrow;
pub mod rega;
pub mod stats;
pub mod traits;

pub use blockhammer::{BlockHammer, BlockHammerConfig, CountingBloomFilter};
pub use graphene::{Graphene, GrapheneConfig};
pub use hydra::{Hydra, HydraConfig};
pub use none::NoMitigation;
pub use para::Para;
pub use perrow::PerRowCounters;
pub use rega::Rega;
pub use stats::MitigationStats;
pub use traits::{MitigationResponse, RowHammerMitigation};
