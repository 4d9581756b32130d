//! The mechanism registry: the one way the simulator builds a mitigation.
//!
//! A registry maps [`MechanismKind::key`]s to builders. Its
//! [`factory`](MechanismRegistry::factory) binds one builder to one (kind,
//! threshold, seed, DRAM) combination as a [`RegisteredFactory`], which
//! [`System::new`](crate::System::new) and
//! [`MemorySystem::new`](crate::MemorySystem::new) call once per memory
//! channel, so every channel gets its own independent instance. The built-in
//! set is installed by [`MechanismRegistry::with_defaults`];
//! [`Runner`](crate::Runner) resolves its `MechanismKind` arguments through
//! it. Re-registering a built-in key swaps the implementation built for that
//! kind, which is how a wrapper (for example a timing wrapper) is put around
//! every mechanism.

use crate::runner::{MechanismKind, RunnerError};
use comet_core::{Comet, CometConfig};
use comet_dram::DramConfig;
use comet_mitigations::{
    BlockHammer, BlockHammerConfig, Graphene, GrapheneConfig, Hydra, HydraConfig, NoMitigation, Para,
    PerRowCounters, Rega, RowHammerMitigation,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything a registered builder needs to construct a mechanism for one
/// channel shard.
#[derive(Debug, Clone)]
pub struct MechanismSpec {
    /// Which mechanism (and with which custom parameters) to build. Always
    /// `Some` in the specs builders receive, because
    /// [`MechanismRegistry::factory`] is the only place that makes them. It
    /// stays an `Option` because the repository benchmark (`repobench/`)
    /// unwraps it; after ROADMAP item 4(b) it can be a plain `MechanismKind`.
    pub kind: Option<MechanismKind>,
    /// RowHammer threshold to defend against.
    pub nrh: u64,
    /// Base seed; probabilistic mechanisms derive their stream from it.
    pub seed: u64,
    /// The DRAM configuration of the protected system.
    pub dram: DramConfig,
}

impl MechanismSpec {
    /// The seed a mechanism instance on `channel` should use: channel 0 keeps
    /// the base seed (so single-channel results reproduce the pre-sharding
    /// simulator exactly) and every other channel gets an independent stream.
    pub fn channel_seed(&self, channel: usize) -> u64 {
        self.seed ^ (channel as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
    }
}

/// A registered mechanism constructor: builds the instance protecting one
/// channel shard described by `spec`.
pub type MechanismBuilder = dyn Fn(&MechanismSpec, usize) -> Box<dyn RowHammerMitigation> + Send + Sync;

/// Registry of mechanism constructors, keyed by strings
/// ([`MechanismKind::key`] for the built-ins).
#[derive(Clone)]
pub struct MechanismRegistry {
    builders: HashMap<String, Arc<MechanismBuilder>>,
}

impl MechanismRegistry {
    /// An empty registry (no mechanisms can be built).
    pub fn empty() -> Self {
        MechanismRegistry { builders: HashMap::new() }
    }

    /// A registry with every built-in mechanism of the paper registered.
    pub fn with_defaults() -> Self {
        let mut registry = Self::empty();
        registry.register("baseline", |_spec, _channel| Box::new(NoMitigation::new()));
        registry.register("comet", |spec, _channel| {
            Box::new(Comet::new(
                CometConfig::for_threshold(spec.nrh, &spec.dram.timing),
                spec.dram.geometry.clone(),
            ))
        });
        registry.register("comet-custom", |spec, _channel| {
            let Some(MechanismKind::CometCustom {
                n_hash,
                n_counters,
                rat_entries,
                reset_divisor,
                history_length,
                eprt_percent,
            }) = spec.kind
            else {
                unreachable!("the comet-custom key is only reached through MechanismKind::CometCustom")
            };
            let mut config = CometConfig::with_reset_divisor(spec.nrh, reset_divisor, &spec.dram.timing);
            config.n_hash = n_hash;
            config.n_counters = n_counters;
            config.rat_entries = rat_entries;
            config.history_length = history_length;
            config.eprt_percent = eprt_percent;
            Box::new(Comet::new(config, spec.dram.geometry.clone()))
        });
        registry.register("graphene", |spec, _channel| {
            Box::new(Graphene::new(
                GrapheneConfig::for_threshold(spec.nrh, &spec.dram.timing, &spec.dram.geometry),
                spec.dram.geometry.clone(),
            ))
        });
        registry.register("hydra", |spec, _channel| {
            Box::new(Hydra::new(
                HydraConfig::for_threshold(spec.nrh, &spec.dram.timing, &spec.dram.geometry),
                spec.dram.geometry.clone(),
            ))
        });
        registry.register("rega", |spec, _channel| Box::new(Rega::new(spec.nrh, &spec.dram.timing)));
        registry.register("para", |spec, channel| {
            Box::new(Para::new(spec.nrh, spec.channel_seed(channel), spec.dram.geometry.clone()))
        });
        registry.register("blockhammer", |spec, channel| {
            Box::new(BlockHammer::new(
                BlockHammerConfig::for_threshold(spec.nrh, &spec.dram.timing),
                spec.dram.geometry.clone(),
                spec.channel_seed(channel),
            ))
        });
        registry.register("perrow", |spec, _channel| {
            Box::new(PerRowCounters::new(spec.nrh, &spec.dram.timing, spec.dram.geometry.clone()))
        });
        registry
    }

    /// Registers (or replaces) the builder for `key`. Re-registering a
    /// built-in key ([`MechanismKind::key`]) swaps the implementation built
    /// for that kind. A key no [`MechanismKind`] names is never built.
    pub fn register(
        &mut self,
        key: impl Into<String>,
        builder: impl Fn(&MechanismSpec, usize) -> Box<dyn RowHammerMitigation> + Send + Sync + 'static,
    ) {
        self.builders.insert(key.into(), Arc::new(builder));
    }

    /// Keys with a registered builder, sorted.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.builders.keys().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Creates the per-channel factory for `kind` at threshold `nrh`.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::UnknownMechanism`] when no builder is registered
    /// for the kind's key.
    pub fn factory(
        &self,
        kind: MechanismKind,
        nrh: u64,
        dram: &DramConfig,
        seed: u64,
    ) -> Result<RegisteredFactory, RunnerError> {
        let key = kind.key();
        let builder =
            self.builders.get(key).cloned().ok_or_else(|| RunnerError::UnknownMechanism(key.to_string()))?;
        Ok(RegisteredFactory {
            name: kind.name().to_string(),
            spec: MechanismSpec { kind: Some(kind), nrh, seed, dram: dram.clone() },
            builder,
        })
    }

    /// Builds a single mechanism instance for `channel` directly.
    ///
    /// # Errors
    ///
    /// Returns [`RunnerError::UnknownMechanism`] when no builder is registered.
    pub fn build(
        &self,
        kind: MechanismKind,
        nrh: u64,
        dram: &DramConfig,
        seed: u64,
        channel: usize,
    ) -> Result<Box<dyn RowHammerMitigation>, RunnerError> {
        Ok(self.factory(kind, nrh, dram, seed)?.build(channel))
    }
}

impl Default for MechanismRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl std::fmt::Debug for MechanismRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MechanismRegistry").field("keys", &self.keys()).finish()
    }
}

/// Builds the mechanism instance of each memory channel for one registry
/// entry and one (kind, threshold, seed, DRAM) combination.
pub struct RegisteredFactory {
    name: String,
    spec: MechanismSpec,
    builder: Arc<MechanismBuilder>,
}

impl RegisteredFactory {
    /// Short, stable mechanism name (matches the built instances' `name()`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the mechanism instance protecting `channel`.
    ///
    /// Instances for different channels are independent: mutating one
    /// channel's tracker state never affects another's. Probabilistic
    /// mechanisms derive their per-channel randomness from `channel`
    /// ([`MechanismSpec::channel_seed`]) so that channels do not replay
    /// identical decision streams.
    pub fn build(&self, channel: usize) -> Box<dyn RowHammerMitigation> {
        (self.builder)(&self.spec, channel)
    }
}

impl std::fmt::Debug for RegisteredFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredFactory").field("name", &self.name).field("spec", &self.spec).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_mechanism_kind_can_be_built() {
        let registry = MechanismRegistry::with_defaults();
        let dram = DramConfig::ddr4_paper_default();
        for kind in [
            MechanismKind::Baseline,
            MechanismKind::Comet,
            MechanismKind::Graphene,
            MechanismKind::Hydra,
            MechanismKind::Rega,
            MechanismKind::Para,
            MechanismKind::BlockHammer,
            MechanismKind::PerRow,
        ] {
            let mechanism = registry.build(kind, 1000, &dram, 1, 0).unwrap();
            assert_eq!(mechanism.name(), kind.name());
        }
        let custom = MechanismKind::CometCustom {
            n_hash: 2,
            n_counters: 256,
            rat_entries: 64,
            reset_divisor: 2,
            history_length: 128,
            eprt_percent: 50,
        };
        assert_eq!(registry.build(custom, 1000, &dram, 1, 0).unwrap().name(), "CoMeT");
    }

    #[test]
    fn unknown_mechanisms_are_reported() {
        let registry = MechanismRegistry::empty();
        let dram = DramConfig::ddr4_paper_default();
        let err = registry.factory(MechanismKind::Comet, 1000, &dram, 1).unwrap_err();
        assert_eq!(err, RunnerError::UnknownMechanism("comet".to_string()));
        assert!(err.to_string().contains("comet"));
    }

    #[test]
    fn custom_registrations_extend_the_defaults() {
        let mut registry = MechanismRegistry::with_defaults();
        registry.register("baseline", |_spec, _channel| Box::new(NoMitigation::new()));
        assert!(registry.keys().iter().any(|k| k == "baseline"));
        assert!(registry.keys().len() >= 9);
    }

    #[test]
    fn channel_zero_keeps_the_base_seed() {
        let spec = MechanismSpec {
            kind: Some(MechanismKind::Para),
            nrh: 125,
            seed: 0xC0E7,
            dram: DramConfig::ddr4_paper_default(),
        };
        assert_eq!(spec.channel_seed(0), 0xC0E7);
        assert_ne!(spec.channel_seed(1), 0xC0E7);
        assert_ne!(spec.channel_seed(1), spec.channel_seed(2));
    }

    #[test]
    fn factories_build_independent_per_channel_instances() {
        let registry = MechanismRegistry::with_defaults();
        let dram = DramConfig::ddr4_multi_channel(2);
        let factory = registry.factory(MechanismKind::Comet, 125, &dram, 7).unwrap();
        let mut a = factory.build(0);
        let b = factory.build(1);
        let addr = comet_dram::DramAddr { channel: 0, rank: 0, bank_group: 0, bank: 0, row: 9, column: 0 };
        a.on_activation(&addr, 0, 1);
        assert_eq!(a.stats().activations_observed, 1);
        assert_eq!(b.stats().activations_observed, 0);
    }
}
