//! The experiment runner: resolves mechanisms through the registry and runs
//! workloads on the sharded simulated system.

use crate::metrics::RunResult;
use crate::registry::MechanismRegistry;
use crate::system::{LoopMode, SimConfig, System};
use comet_trace::{catalog, AttackKind, AttackTrace, SyntheticTrace, TraceSource};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The mitigation mechanisms the experiment harness can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MechanismKind {
    /// No RowHammer protection (the normalization baseline).
    Baseline,
    /// CoMeT with the paper's default configuration.
    Comet,
    /// CoMeT with an explicit configuration (design-space sweeps).
    CometCustom {
        /// Number of hash functions.
        n_hash: usize,
        /// Counters per hash function.
        n_counters: usize,
        /// Recent Aggressor Table entries.
        rat_entries: usize,
        /// Reset-period divisor `k`.
        reset_divisor: u64,
        /// RAT-miss history length.
        history_length: usize,
        /// Early preventive refresh threshold in percent.
        eprt_percent: u32,
    },
    /// Graphene (Misra-Gries).
    Graphene,
    /// Hydra (hybrid group/per-row tracking).
    Hydra,
    /// REGA (refresh-generating activations).
    Rega,
    /// PARA (probabilistic adjacent-row refresh).
    Para,
    /// BlockHammer (counting-Bloom-filter throttling).
    BlockHammer,
    /// Idealized per-row counters.
    PerRow,
}

impl MechanismKind {
    /// The five mechanisms compared in Figures 12–15.
    pub fn comparison_set() -> Vec<MechanismKind> {
        vec![
            MechanismKind::Graphene,
            MechanismKind::Comet,
            MechanismKind::Hydra,
            MechanismKind::Rega,
            MechanismKind::Para,
        ]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            MechanismKind::Baseline => "Baseline",
            MechanismKind::Comet | MechanismKind::CometCustom { .. } => "CoMeT",
            MechanismKind::Graphene => "Graphene",
            MechanismKind::Hydra => "Hydra",
            MechanismKind::Rega => "REGA",
            MechanismKind::Para => "PARA",
            MechanismKind::BlockHammer => "BlockHammer",
            MechanismKind::PerRow => "PerRow",
        }
    }

    /// Stable registry key. Unlike [`name`](Self::name), the default and
    /// custom CoMeT configurations map to different builders.
    pub fn key(&self) -> &'static str {
        match self {
            MechanismKind::Baseline => "baseline",
            MechanismKind::Comet => "comet",
            MechanismKind::CometCustom { .. } => "comet-custom",
            MechanismKind::Graphene => "graphene",
            MechanismKind::Hydra => "hydra",
            MechanismKind::Rega => "rega",
            MechanismKind::Para => "para",
            MechanismKind::BlockHammer => "blockhammer",
            MechanismKind::PerRow => "perrow",
        }
    }
}

/// Errors returned by the runner and the experiment harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// The requested workload is not in the Table 3 catalog.
    UnknownWorkload(String),
    /// No builder is registered for the requested mechanism key.
    UnknownMechanism(String),
    /// The simulation configuration failed validation.
    InvalidConfig(Vec<String>),
    /// A worker thread panicked while simulating this cell, and kept
    /// panicking through every bounded automatic retry. The panic is
    /// contained at the cell boundary: sibling cells in the same batch
    /// complete (and cache) normally.
    WorkerPanic {
        /// Label of the cell whose simulation panicked.
        label: String,
        /// Total attempts made (first run plus retries).
        attempts: u32,
    },
    /// A distributed fleet gave up on this cell: every lease it handed out
    /// was lost (worker death, dropped connection, missed heartbeats) and
    /// the bounded redelivery budget is spent. Surfaced instead of looping
    /// forever on a cell that keeps killing whoever runs it.
    LeaseExhausted {
        /// Label of the cell whose leases kept expiring.
        label: String,
        /// Redeliveries attempted before giving up.
        redeliveries: u32,
    },
    /// The coordinator began shutting down while this cell was queued or
    /// leased; its lease was drained rather than re-dispatched. Protocol
    /// layers map this to their typed shutting-down rejection.
    Draining {
        /// Label of the drained cell.
        label: String,
    },
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::UnknownWorkload(name) => write!(f, "unknown workload: {name}"),
            RunnerError::UnknownMechanism(key) => write!(f, "unknown mechanism: {key}"),
            RunnerError::InvalidConfig(problems) => {
                write!(f, "invalid simulation configuration: {}", problems.join("; "))
            }
            RunnerError::WorkerPanic { label, attempts } => {
                write!(f, "worker panicked simulating cell {label} ({attempts} attempts)")
            }
            RunnerError::LeaseExhausted { label, redeliveries } => {
                write!(f, "lease exhausted for cell {label} after {redeliveries} redeliveries")
            }
            RunnerError::Draining { label } => {
                write!(f, "cell {label} drained: coordinator is shutting down")
            }
        }
    }
}

impl std::error::Error for RunnerError {}

/// Convenience wrapper that builds systems from workload names and mechanism
/// kinds, resolving mechanisms through a [`MechanismRegistry`].
#[derive(Debug, Clone)]
pub struct Runner {
    config: SimConfig,
    seed: u64,
    registry: Arc<MechanismRegistry>,
    loop_mode: LoopMode,
}

impl Runner {
    /// Creates a runner with the given simulation configuration and the
    /// built-in mechanism registry.
    pub fn new(config: SimConfig) -> Self {
        Self::with_seed(config, 0xC0E7)
    }

    /// Creates a runner with an explicit seed (traces and probabilistic
    /// mechanisms derive their randomness from it).
    pub fn with_seed(config: SimConfig, seed: u64) -> Self {
        Runner {
            config,
            seed,
            registry: Arc::new(MechanismRegistry::with_defaults()),
            loop_mode: LoopMode::default(),
        }
    }

    /// Selects the simulation-loop mode (builder style). Results are
    /// bit-identical across modes; [`LoopMode::DenseReference`] exists for
    /// the equivalence tests that prove exactly that.
    pub fn with_loop_mode(mut self, mode: LoopMode) -> Self {
        self.loop_mode = mode;
        self
    }

    /// The simulation configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The seed traces and probabilistic mechanisms derive their streams from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The simulation-loop mode runs execute under (part of cell identity:
    /// modes are proven bit-identical, but the cache keys them separately so
    /// the equivalence proof never rests on the cache).
    pub fn loop_mode(&self) -> LoopMode {
        self.loop_mode
    }

    /// The registry the runner builds mechanisms from (the built-in set).
    pub fn registry(&self) -> &MechanismRegistry {
        &self.registry
    }

    fn validated_config(&self) -> Result<&SimConfig, RunnerError> {
        let problems = self.config.validate();
        if problems.is_empty() {
            Ok(&self.config)
        } else {
            Err(RunnerError::InvalidConfig(problems))
        }
    }

    fn workload_trace(&self, name: &str, core: usize) -> Result<Box<dyn TraceSource>, RunnerError> {
        // Validate before constructing the generator: trace construction
        // samples bank indices and would panic on a degenerate geometry.
        self.validated_config()?;
        let profile =
            catalog::workload(name).ok_or_else(|| RunnerError::UnknownWorkload(name.to_string()))?;
        Ok(Box::new(SyntheticTrace::new(
            profile,
            self.config.dram.geometry.clone(),
            self.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )))
    }

    fn run_system(
        &self,
        traces: Vec<Box<dyn TraceSource>>,
        kind: MechanismKind,
        nrh: u64,
        label: String,
    ) -> Result<RunResult, RunnerError> {
        let config = self.validated_config()?.clone();
        let factory = self.registry.factory(kind, nrh, &config.dram, self.seed)?;
        Ok(System::new(config, traces, &factory).run_with_mode(label, self.loop_mode))
    }

    /// Runs one single-core workload under `kind` at RowHammer threshold `nrh`.
    pub fn run_single_core(
        &self,
        workload: &str,
        kind: MechanismKind,
        nrh: u64,
    ) -> Result<RunResult, RunnerError> {
        let trace = self.workload_trace(workload, 0)?;
        self.run_system(vec![trace], kind, nrh, workload.to_string())
    }

    /// Runs a homogeneous multi-core mix of `workload` on `cores` cores.
    pub fn run_homogeneous(
        &self,
        workload: &str,
        cores: usize,
        kind: MechanismKind,
        nrh: u64,
    ) -> Result<RunResult, RunnerError> {
        let traces: Result<Vec<_>, _> = (0..cores).map(|c| self.workload_trace(workload, c)).collect();
        self.run_system(traces?, kind, nrh, format!("{workload}-x{cores}"))
    }

    /// Runs a heterogeneous multi-core mix: one named workload per core, in
    /// core order. Each core's trace derives its randomness from the core
    /// index (like [`run_homogeneous`](Self::run_homogeneous)), so two cores
    /// running the same workload in one mix still see independent streams.
    pub fn run_mix(
        &self,
        name: &str,
        workloads: &[String],
        kind: MechanismKind,
        nrh: u64,
    ) -> Result<RunResult, RunnerError> {
        let traces: Result<Vec<_>, _> = workloads
            .iter()
            .enumerate()
            .map(|(core, workload)| self.workload_trace(workload, core))
            .collect();
        self.run_system(traces?, kind, nrh, name.to_string())
    }

    /// Runs a benign workload alongside an attacker core executing `attack`.
    pub fn run_with_attacker(
        &self,
        workload: &str,
        attack: AttackKind,
        kind: MechanismKind,
        nrh: u64,
    ) -> Result<RunResult, RunnerError> {
        let benign = self.workload_trace(workload, 0)?;
        let attacker: Box<dyn TraceSource> =
            Box::new(AttackTrace::new(attack, self.config.dram.geometry.clone(), self.seed ^ 0xA77AC));
        self.run_system(vec![benign, attacker], kind, nrh, format!("{workload}+attack"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner() -> Runner {
        Runner::new(SimConfig::quick_test())
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let err = runner().run_single_core("nope", MechanismKind::Baseline, 1000).unwrap_err();
        assert_eq!(err, RunnerError::UnknownWorkload("nope".to_string()));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn invalid_configuration_is_an_error_not_a_panic() {
        let mut config = SimConfig::quick_test();
        config.dram.geometry.channels = 0;
        let err = Runner::new(config).run_single_core("429.mcf", MechanismKind::Baseline, 1000).unwrap_err();
        assert!(matches!(err, RunnerError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("channels"));
    }

    #[test]
    fn comet_overhead_is_small_for_a_benign_workload() {
        let r = runner();
        let baseline = r.run_single_core("450.soplex", MechanismKind::Baseline, 1000).unwrap();
        let comet = r.run_single_core("450.soplex", MechanismKind::Comet, 1000).unwrap();
        let normalized = comet.normalized_ipc(&baseline);
        assert!(normalized > 0.85, "CoMeT normalized IPC too low: {normalized}");
        assert!(normalized < 1.05, "CoMeT cannot be faster than the baseline: {normalized}");
    }

    #[test]
    fn attacker_reduces_benign_performance_under_para() {
        let r = runner();
        let alone = r.run_single_core("473.astar", MechanismKind::Para, 125).unwrap();
        let attacked = r
            .run_with_attacker(
                "473.astar",
                AttackKind::Traditional { rows_per_bank: 4 },
                MechanismKind::Para,
                125,
            )
            .unwrap();
        // The benign core is core 0 in both runs.
        assert!(attacked.per_core_ipc[0] < alone.per_core_ipc[0]);
    }

    #[test]
    fn multi_channel_runs_complete_for_two_and_four_channels() {
        for channels in [2usize, 4] {
            let mut config = SimConfig::quick_test().with_channels(channels);
            config.sim_cycles = 200_000;
            let r = Runner::new(config);
            let result = r.run_single_core("429.mcf", MechanismKind::Comet, 250).unwrap();
            assert!(result.ipc > 0.0, "{channels}-channel run produced zero IPC");
            assert!(result.reads > 0);
        }
    }
}
