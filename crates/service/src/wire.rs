//! Wire codec for shipping cells to fleet workers.
//!
//! The coordinator dispatches a cell as its [`canonical_cell_form`] — the
//! exact `{schema, config, seed, loop, cell}` JSON the cache key is hashed
//! from — so the job payload *is* the cell's identity: nothing can ride
//! along uncovered by the key. [`decode_job`] reads it back through the
//! derived `Deserialize` impls of [`SimConfig`](comet_sim::SimConfig) and
//! [`CellSpec`]; only the loop mode, which the form spells with
//! [`LoopMode::name`], is matched by hand.
//!
//! Losslessness is enforced, not assumed: [`decode_job`] re-encodes the
//! reconstructed runner identity through [`canonical_cell_form`] and demands
//! the bytes match the payload exactly. A worker whose decode drifted (field
//! added, float re-rendered, variant renamed) refuses the job instead of
//! completing a cell under a key it no longer matches — the schema tag plus
//! this round-trip check is what keeps a mixed-version fleet from silently
//! poisoning the coordinator's content-addressed cache.

use crate::error::ServiceError;
use crate::key::{canonical_cell_form, KEY_SCHEMA};
use comet_sim::experiments::CellSpec;
use comet_sim::{LoopMode, Runner};
use serde::{Deserialize, Value};

/// A decoded job: everything needed to run one cell bit-exactly.
#[derive(Debug, Clone)]
pub struct WireJob {
    /// The reconstructed runner identity (config + seed + loop mode).
    pub runner: Runner,
    /// The cell to run.
    pub cell: CellSpec,
}

fn protocol(message: impl Into<String>) -> ServiceError {
    ServiceError::Protocol(message.into())
}

/// Decodes the payload field `name` (a missing field decodes from `null`).
fn decode<T: Deserialize>(payload: &Value, name: &str) -> Result<T, serde_json::Error> {
    T::from_value(payload.get(name).unwrap_or(&Value::Null)).map_err(|e| e.in_field(name))
}

/// Decodes one job payload (the canonical cell form as text) back into a
/// runnable cell, verifying the schema tag and that the reconstruction
/// re-encodes to the payload byte-for-byte.
pub fn decode_job(payload: &str) -> Result<WireJob, ServiceError> {
    let value = serde_json::from_str(payload)?;
    let schema = value.get("schema").and_then(Value::as_str).unwrap_or_default();
    if schema != KEY_SCHEMA {
        return Err(protocol(format!(
            "job schema {schema:?} does not match this worker's {KEY_SCHEMA:?}; refusing the cell"
        )));
    }
    let loop_mode = match value.get("loop").and_then(Value::as_str) {
        Some("event") => LoopMode::EventDriven,
        Some("dense") => LoopMode::DenseReference,
        other => return Err(protocol(format!("unknown loop mode {other:?}"))),
    };
    let runner =
        Runner::with_seed(decode(&value, "config")?, decode(&value, "seed")?).with_loop_mode(loop_mode);
    let cell = decode(&value, "cell")?;
    let reencoded = canonical_cell_form(&runner, &cell);
    if reencoded != payload {
        return Err(protocol(
            "decoded job does not re-encode to its payload (lossy decode); refusing the cell".to_string(),
        ));
    }
    Ok(WireJob { runner, cell })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_sim::experiments::ExperimentScope;
    use comet_sim::{AddressScheme, MechanismKind, SimConfig};
    use comet_trace::AttackKind;

    #[test]
    fn every_workload_placement_round_trips() {
        let runner = Runner::with_seed(ExperimentScope::Smoke.sim_config(), 7)
            .with_loop_mode(LoopMode::DenseReference);
        let cells = [
            CellSpec::single("429.mcf", MechanismKind::Comet, 1000),
            CellSpec::homogeneous("462.libquantum", 4, MechanismKind::Hydra, 250),
            CellSpec::attacked(
                "473.astar",
                AttackKind::HydraTargeted { groups_per_bank: 16, rows_per_group: 8 },
                MechanismKind::Graphene,
                500,
            ),
            CellSpec::attacked(
                "429.mcf",
                AttackKind::CometTargeted { rows_per_bank: 64 },
                MechanismKind::CometCustom {
                    n_hash: 4,
                    n_counters: 512,
                    rat_entries: 128,
                    reset_divisor: 3,
                    history_length: 256,
                    eprt_percent: 25,
                },
                125,
            ),
            CellSpec::mix(
                "mixMH03",
                vec!["429.mcf".to_string(), "473.astar".to_string()],
                MechanismKind::Para,
                1000,
            ),
        ];
        for cell in cells {
            let payload = canonical_cell_form(&runner, &cell);
            let job = decode_job(&payload).unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
            assert_eq!(job.cell, cell);
            assert_eq!(job.runner.seed(), 7);
            assert_eq!(job.runner.loop_mode(), LoopMode::DenseReference);
            assert_eq!(canonical_cell_form(&job.runner, &job.cell), payload);
        }
    }

    #[test]
    fn nondefault_configs_round_trip() {
        let mut config = SimConfig::quick_test().with_ranks(4).with_channels(2);
        config.core.scheme = AddressScheme::RoRaBgBaCoChXor;
        let runner = Runner::new(config);
        let cell = CellSpec::single("429.mcf", MechanismKind::Baseline, 1000);
        let payload = canonical_cell_form(&runner, &cell);
        let job = decode_job(&payload).unwrap();
        assert_eq!(canonical_cell_form(&job.runner, &job.cell), payload);
        assert_eq!(job.runner.config().core.scheme, AddressScheme::RoRaBgBaCoChXor);
        assert_eq!(job.runner.config().dram.geometry.channels, 2);
    }

    #[test]
    fn schema_mismatch_and_corrupt_payloads_are_refused() {
        let runner = Runner::new(SimConfig::quick_test());
        let cell = CellSpec::single("429.mcf", MechanismKind::Comet, 1000);
        let payload = canonical_cell_form(&runner, &cell);
        let wrong_schema = payload.replace(KEY_SCHEMA, "comet-cell/v1");
        assert!(
            matches!(decode_job(&wrong_schema), Err(ServiceError::Protocol(message)) if message.contains("schema"))
        );
        assert!(decode_job("not json").is_err());
        assert!(decode_job("{\"schema\":\"comet-cell/v2\"}").is_err());
    }
}
