//! Named experiment targets the service can run.
//!
//! Each target builds its cell grid from [`comet_sim::experiments`], runs it
//! through whatever [`CellBackend`] the caller provides (the caching service,
//! or a plain executor), folds the results into its figure data, and
//! serializes that to JSON for the wire.

use comet_sim::experiments::{self, CellBackend, ExperimentScope};
use comet_sim::RunnerError;
use serde::Serialize;

/// Every target name `run_target` accepts.
pub const KNOWN_TARGETS: &[&str] = &[
    "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10_11", "fig12_14", "fig13_15", "fig16", "fig17",
    "fig18", "highnrh", "ablation", "ranks", "mixed",
];

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("value-tree serialization cannot fail")
}

/// Runs one named target through `backend` and returns its dataset as a JSON
/// string, or `Ok(None)` for an unknown target name.
pub fn run_target(
    name: &str,
    scope: ExperimentScope,
    backend: &dyn CellBackend,
) -> Result<Option<String>, RunnerError> {
    let json = match name {
        "fig3" => to_json(&experiments::comparison::fig3_hydra_motivation(scope, backend)?),
        "fig4" => to_json(&experiments::radar_fig4(scope, backend)?),
        "fig6" => {
            let high = experiments::fig6_ct_sweep(scope, 1000, backend)?;
            let low = experiments::fig6_ct_sweep(scope, 125, backend)?;
            format!("{{\"nrh1000\":{},\"nrh125\":{}}}", to_json(&high), to_json(&low))
        }
        "fig7" => to_json(&experiments::fig7_rat_sweep(scope, backend)?),
        "fig8" => to_json(&experiments::fig8_eprt_sweep(scope, backend)?),
        "fig9" => to_json(&experiments::fig9_k_sweep(scope, backend)?),
        "fig10_11" => to_json(&experiments::fig10_fig11_singlecore(scope, backend)?),
        "fig12_14" => to_json(&experiments::fig12_fig14_comparison(scope, backend)?),
        "fig13_15" => to_json(&experiments::fig13_fig15_multicore(scope, backend)?),
        "fig16" => to_json(&experiments::fig16_adversarial(scope, backend)?),
        "fig17" => to_json(&experiments::fig17_false_positive_rate(10_000, 125, 0xF17)),
        "fig18" => to_json(&experiments::comparison::fig18_blockhammer(scope, backend)?),
        "highnrh" => to_json(&experiments::singlecore::high_threshold_singlecore(scope, backend)?),
        "ablation" => to_json(&experiments::sweeps::ablation(scope, 125, backend)?),
        "ranks" => to_json(&experiments::rank_sweep(scope, backend)?),
        "mixed" => to_json(&experiments::mixed_multicore(
            scope,
            &comet_sim::MechanismKind::comparison_set(),
            &scope.thresholds(),
            backend,
        )?),
        _ => return Ok(None),
    };
    Ok(Some(json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{cell_key, fnv1a_128, CellKey};
    use comet_mitigations::MitigationStats;
    use comet_sim::experiments::{CellSpec, ParallelExecutor, WorkloadSpec};
    use comet_sim::{RunResult, Runner};
    use serde::Value;
    use std::sync::Mutex;

    /// A backend that simulates nothing. It records the key of every cell it
    /// is asked for, batch by batch, and answers each cell with a synthetic
    /// result drawn from that key, so every target's read-back can be pinned
    /// without running a single simulation.
    #[derive(Default)]
    struct KeyRecorder {
        batches: Mutex<Vec<Vec<CellKey>>>,
    }

    impl CellBackend for KeyRecorder {
        fn run_cells(&self, runner: &Runner, cells: &[CellSpec]) -> Result<Vec<RunResult>, RunnerError> {
            let keys: Vec<CellKey> = cells.iter().map(|cell| cell_key(runner, cell)).collect();
            let results = keys.iter().zip(cells).map(|(&key, cell)| synthetic_result(key, cell)).collect();
            self.batches.lock().unwrap().push(keys);
            Ok(results)
        }
    }

    /// A result whose figure inputs (per-core IPC, energy, read latency and
    /// the tracker counters) are drawn from `key` by splitmix64.
    fn synthetic_result(key: CellKey, cell: &CellSpec) -> RunResult {
        let cores = match &cell.workload {
            WorkloadSpec::Single { .. } => 1,
            WorkloadSpec::Homogeneous { cores, .. } => *cores,
            WorkloadSpec::Attacked { .. } => 2,
            WorkloadSpec::Mix { workloads, .. } => workloads.len(),
        };
        let mut state = (key.0 ^ (key.0 >> 64)) as u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let per_core_ipc: Vec<f64> = (0..cores).map(|_| 0.25 + (next() % 1000) as f64 / 1000.0).collect();
        RunResult {
            cores,
            ipc: per_core_ipc.iter().sum(),
            per_core_ipc,
            energy_nj: 1.0e6 + (next() % 100_000) as f64,
            avg_read_latency_ns: 40.0 + (next() % 1000) as f64 / 10.0,
            mitigation: MitigationStats {
                activations_observed: 1000 + next() % 10_000,
                preventive_refreshes: next() % 100,
                aggressors_identified: next() % 50,
                early_rank_refreshes: next() % 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// `value` with every float rounded to 9 significant digits, so a
    /// last-bit difference in the platform's `ln`/`exp` cannot move a pin.
    fn round_floats(value: Value) -> Value {
        match value {
            Value::Float(x) => Value::Float(format!("{x:.8e}").parse().expect("a formatted float parses")),
            Value::Seq(items) => Value::Seq(items.into_iter().map(round_floats).collect()),
            Value::Map(fields) => Value::Map(fields.into_iter().map(|(k, v)| (k, round_floats(v))).collect()),
            other => other,
        }
    }

    /// Per target at smoke scope: the number of cells requested, the FNV-1a
    /// of their keys (one line per batch) and the FNV-1a of the target's
    /// JSON with rounded floats. A pin moves only when a figure's cells, its
    /// cache keys or its read-back change; re-pin only for such an intended
    /// change.
    const GOLDEN: &[(&str, usize, u128, u128)] = &[
        ("fig3", 20, 0xf35539781ae1dfc42dd8a59075682770, 0x2932a3926756c780cacc6ec991f6f140),
        ("fig4", 30, 0x408141b4f8f68ebfe2144c10bac085fc, 0x1154d7dca30f93b7f24a944a9c92f64d),
        ("fig6", 50, 0xa1489462501c4dc1e8c533948866fdee, 0xda2f6d442e5675c3bccbde57bad5454f),
        ("fig7", 30, 0xf907a9a24d16cc0e3267b636d30720db, 0xe08a94cf6fce302c49d8e98474060b97),
        ("fig8", 6, 0xeee9148b10d2076296fc8878a651de51, 0x0d6ef4500a646d220424c003a5e2e333),
        ("fig9", 30, 0xb19b14e50ae0b0e52f23a4dfefefea4d, 0xed70531acab9829db26833b84a4b8fe6),
        ("fig10_11", 20, 0xa0891a1870e6ba3a785875bdaaa6c8b3, 0x435e918cba250450d6f69e4e719345ef),
        ("fig12_14", 60, 0xe2c0e539a681aa3c624ce614389c3996, 0xf9491978050f0e79fadd75d8bba6dedf),
        ("fig13_15", 24, 0x7ad97c778d337e7edbfd36a380865d9b, 0x1d157df09e9c42c7901bda78f9ee4f68),
        ("fig16", 32, 0x24ce3d5e4edcd57ebeba3c61352ff9b9, 0xfd59f71b40f76c57580176c63d8fba1d),
        ("fig17", 0, 0x6c62272e07bb014262b821756295c58d, 0x50220b9c49d289c4f9bd80645b92e80b),
        ("fig18", 30, 0xee88383697f6d25ff127dbf28f289a4d, 0xc62c0c98b3bc2f7917317d1d41557ab8),
        ("highnrh", 20, 0x338c71ad89f02913329f24c901fa88c2, 0x91f45e67c000a2a949762ed65d1d4c48),
        ("ablation", 25, 0xde146c783816aecb12fa8e8f05e15928, 0xecd15dc59ec60b7541040d98d06f26d4),
        ("ranks", 60, 0xbed3c3665c9430de754cfdbaa15acbac, 0xf4daaeb51909771b30f45c91df63a775),
        ("mixed", 216, 0x8d0d3793c33f8cf30b5d68a7d4ccabe6, 0x15e43e63171ffbb3140934752eb49015),
    ];

    #[test]
    fn every_target_requests_its_pinned_cells_and_reads_them_back_unchanged() {
        let mut mismatches = Vec::new();
        for &name in KNOWN_TARGETS {
            let recorder = KeyRecorder::default();
            let json = run_target(name, ExperimentScope::Smoke, &recorder).unwrap().expect("a known target");
            let batches = recorder.batches.into_inner().unwrap();
            let cells = batches.iter().map(Vec::len).sum();
            let keys: String = batches
                .iter()
                .map(|batch| batch.iter().map(CellKey::to_string).collect::<Vec<_>>().join(" ") + "\n")
                .collect();
            let rounded = to_json(&round_floats(serde_json::from_str(&json).expect("targets emit JSON")));
            let actual = (name, cells, fnv1a_128(keys.as_bytes()), fnv1a_128(rounded.as_bytes()));
            if !GOLDEN.contains(&actual) {
                mismatches.push(format!("(\"{name}\", {cells}, 0x{:032x}, 0x{:032x}),", actual.2, actual.3));
            }
        }
        assert!(mismatches.is_empty(), "targets differ from their pins:\n{}", mismatches.join("\n"));
        assert_eq!(GOLDEN.len(), KNOWN_TARGETS.len(), "one pin per target");
    }

    #[test]
    fn unknown_targets_are_none_not_errors() {
        let executor = ParallelExecutor::serial();
        assert!(run_target("nope", ExperimentScope::Smoke, &executor).unwrap().is_none());
    }

    #[test]
    fn fig17_runs_and_serializes() {
        let executor = ParallelExecutor::serial();
        let json = run_target("fig17", ExperimentScope::Smoke, &executor).unwrap().unwrap();
        assert!(json.starts_with('['), "{json}");
        assert!(json.contains("unique_rows"));
    }
}
