//! The derived `Deserialize` impls must invert the serializer: a random
//! cell's job payload decodes and re-encodes byte for byte, and a random
//! result written as a store line reads back to the same projection. The
//! canonical cell form must stay the compact JSON of the one `Value` tree it
//! was once serialized from, so no cell key moves.

use comet_mitigations::MitigationStats;
use comet_service::key::fnv1a_128;
use comet_service::store::result_projection;
use comet_service::wire::decode_job;
use comet_service::{canonical_cell_form, cell_key, CellKey, ResultStore, KEY_SCHEMA};
use comet_sim::experiments::{CellSpec, WorkloadSpec};
use comet_sim::AddressScheme::{RoCoRaBgBaCh, RoRaBgBaChCo, RoRaBgBaCoCh, RoRaBgBaCoChXor};
use comet_sim::MechanismKind::{
    Baseline, BlockHammer, Comet, CometCustom, Graphene, Hydra, Para, PerRow, Rega,
};
use comet_sim::{ControllerConfig, CoreConfig, LoopMode, RunResult, Runner, SimConfig};
use comet_trace::AttackKind;
use proptest::prelude::*;
use proptest::TestRng;
use serde::{Deserialize, Serialize, Value};

fn int(rng: &mut TestRng) -> u64 {
    any::<u64>().sample(rng)
}

/// Any finite float, from all bit patterns (subnormals and `-0.0` included).
fn float(rng: &mut TestRng) -> f64 {
    loop {
        let x = f64::from_bits(int(rng));
        if x.is_finite() {
            return x;
        }
    }
}

/// Names that exercise the string escapes alongside plain catalog names.
fn name(rng: &mut TestRng) -> String {
    ["429.mcf", "bfs_ny", "a\"b\\c\nd\te", "héllo ✓", "\u{1}\u{1f}", ""][(0..6usize).sample(rng)].to_string()
}

/// `value` with every integer replaced by an arbitrary `u64` and every float
/// by an arbitrary finite float, for types whose integers all take any `u64`.
/// Asserts on the way that decoding the scrambled tree inverts serializing.
fn scramble<T: Serialize + Deserialize>(value: &T, rng: &mut TestRng) -> T {
    fn walk(value: &mut Value, rng: &mut TestRng) {
        match value {
            Value::UInt(n) => *n = int(rng),
            Value::Float(x) => *x = float(rng),
            Value::Map(entries) => entries.iter_mut().for_each(|(_, item)| walk(item, rng)),
            _ => {}
        }
    }
    let mut tree = value.to_value();
    walk(&mut tree, rng);
    let scrambled = T::from_value(&tree).unwrap_or_else(|e| panic!("{e}: {tree:?}"));
    assert_eq!(scrambled.to_value(), tree);
    scrambled
}

/// `SimConfig`s with 1, 2 or 4 channels and ranks, every address scheme,
/// and arbitrary integer and finite float parameters elsewhere.
struct Configs;

impl Strategy for Configs {
    type Value = SimConfig;

    fn sample(&self, rng: &mut TestRng) -> SimConfig {
        let mut config = SimConfig::quick_test();
        let geometry = &mut config.dram.geometry;
        geometry.channels = [1, 2, 4][(0..3usize).sample(rng)];
        geometry.ranks_per_channel = [1, 2, 4][(0..3usize).sample(rng)];
        config.dram.timing = scramble(&config.dram.timing, rng);
        config.dram.energy = scramble(&config.dram.energy, rng);
        config.controller = ControllerConfig {
            read_queue_size: int(rng) as usize,
            write_queue_size: int(rng) as usize,
            column_cap: any::<u32>().sample(rng),
            write_drain_high: int(rng) as usize,
            write_drain_low: int(rng) as usize,
            counter_access_cycles: int(rng),
        };
        let schemes = [RoRaBgBaCoCh, RoCoRaBgBaCh, RoRaBgBaCoChXor, RoRaBgBaChCo];
        config.core = CoreConfig {
            freq_ghz: float(rng),
            retire_width: any::<u32>().sample(rng),
            window_size: int(rng),
            scheme: schemes[(0..4usize).sample(rng)],
        };
        config.warmup_cycles = int(rng);
        config.sim_cycles = int(rng);
        config
    }
}

/// `CellSpec`s over every workload placement, mechanism and attack kind.
struct Cells;

impl Strategy for Cells {
    type Value = CellSpec;

    fn sample(&self, rng: &mut TestRng) -> CellSpec {
        let attack = match (0..3usize).sample(rng) {
            0 => AttackKind::Traditional { rows_per_bank: int(rng) as usize },
            1 => AttackKind::CometTargeted { rows_per_bank: int(rng) as usize },
            _ => AttackKind::HydraTargeted {
                groups_per_bank: int(rng) as usize,
                rows_per_group: int(rng) as usize,
            },
        };
        let workload = match (0..4usize).sample(rng) {
            0 => WorkloadSpec::Single { workload: name(rng) },
            1 => WorkloadSpec::Homogeneous { workload: name(rng), cores: int(rng) as usize },
            2 => WorkloadSpec::Attacked { workload: name(rng), attack },
            _ => WorkloadSpec::Mix {
                name: name(rng),
                workloads: (0..(0..4usize).sample(rng)).map(|_| name(rng)).collect(),
            },
        };
        let mechanism = match (0..9usize).sample(rng) {
            8 => CometCustom {
                n_hash: int(rng) as usize,
                n_counters: int(rng) as usize,
                rat_entries: int(rng) as usize,
                reset_divisor: int(rng),
                history_length: int(rng) as usize,
                eprt_percent: any::<u32>().sample(rng),
            },
            unit => [Baseline, Comet, Graphene, Hydra, Rega, Para, BlockHammer, PerRow][unit],
        };
        CellSpec { workload, mechanism, nrh: int(rng) }
    }
}

/// `RunResult`s with arbitrary serialized fields (the skipped ones are
/// defaults, which is what a decode gives back).
struct Results;

impl Strategy for Results {
    type Value = RunResult;

    fn sample(&self, rng: &mut TestRng) -> RunResult {
        RunResult {
            label: name(rng),
            mechanism: name(rng),
            cores: int(rng) as usize,
            dram_cycles: int(rng),
            cpu_cycles: float(rng),
            instructions: int(rng),
            per_core_ipc: (0..(0..9usize).sample(rng)).map(|_| float(rng)).collect(),
            ipc: float(rng),
            reads: int(rng),
            writes: int(rng),
            activations: int(rng),
            avg_read_latency_ns: float(rng),
            energy_nj: float(rng),
            energy_breakdown: Default::default(),
            controller: Default::default(),
            mitigation: scramble(&MitigationStats::default(), rng),
            engine: Default::default(),
        }
    }
}

proptest! {
    #[test]
    fn job_payloads_decode_and_reencode_byte_for_byte(
        config in Configs,
        cell in Cells,
        seed in any::<u64>(),
        dense in any::<bool>(),
    ) {
        let mode = if dense { LoopMode::DenseReference } else { LoopMode::EventDriven };
        let runner = Runner::with_seed(config.clone(), seed).with_loop_mode(mode);
        let payload = canonical_cell_form(&runner, &cell);
        let job = decode_job(&payload).unwrap_or_else(|e| panic!("{e}: {payload}"));
        prop_assert_eq!(canonical_cell_form(&job.runner, &job.cell), payload);
        prop_assert_eq!(job.runner.config(), &config);
        prop_assert_eq!((job.runner.seed(), job.runner.loop_mode()), (seed, mode));
        prop_assert_eq!(job.cell, cell);
    }

    #[test]
    fn the_canonical_form_is_the_compact_json_of_one_tree(
        config in Configs,
        cell in Cells,
        seed in any::<u64>(),
        dense in any::<bool>(),
    ) {
        let mode = if dense { LoopMode::DenseReference } else { LoopMode::EventDriven };
        let runner = Runner::with_seed(config.clone(), seed).with_loop_mode(mode);
        let tree = Value::Map(vec![
            ("schema".to_string(), Value::Str(KEY_SCHEMA.to_string())),
            ("config".to_string(), config.to_value()),
            ("seed".to_string(), Value::UInt(seed)),
            ("loop".to_string(), Value::Str(mode.name().to_string())),
            ("cell".to_string(), cell.to_value()),
        ]);
        let form = canonical_cell_form(&runner, &cell);
        prop_assert_eq!(&form, &serde_json::to_string(&tree).unwrap());
        prop_assert_eq!(cell_key(&runner, &cell), CellKey(fnv1a_128(form.as_bytes())));
    }

    #[test]
    fn stored_results_read_back_to_the_same_projection(result in Results, key in any::<u64>()) {
        let dir = std::env::temp_dir().join(format!("comet-codec-props-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        store.append(CellKey(key as u128), &result).unwrap();
        let entries = store.recover().unwrap().entries;
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(entries.len(), 1, "the line must read back: {}", result_projection(&result));
        prop_assert_eq!(entries[0].0, CellKey(key as u128));
        prop_assert_eq!(result_projection(&entries[0].1), result_projection(&result));
    }
}
