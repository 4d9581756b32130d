//! Content-addressed cell identity.
//!
//! A cached result is only reusable if its key covers *everything* the
//! simulation depends on: the full [`SimConfig`](comet_sim::SimConfig)
//! (geometry, timing, energy, controller policy, core model, cycle counts),
//! the runner's seed and loop mode, and the cell spec (workload placement,
//! mechanism with all custom parameters, threshold). The canonical form is the compact JSON rendering
//! of exactly those parts in a fixed field order, prefixed with a schema tag;
//! the key is its 128-bit FNV-1a hash.
//!
//! Key stability is a correctness property, not a convenience: a silent
//! change to the canonical form would either poison warm caches (same key,
//! different meaning) or quietly discard them. The golden tests below pin
//! the canonical form *and* the derived hex keys; if an intentional change
//! to `SimConfig` or `CellSpec` moves them, bump [`KEY_SCHEMA`] so old disk
//! segments are keyed apart, and re-pin the goldens.

use comet_sim::experiments::CellSpec;
use comet_sim::Runner;
use serde::{Serialize, Value};

/// Version tag mixed into every canonical form. Bump on any intentional
/// change to the canonical encoding.
///
/// v2: [`comet_sim::CoreConfig`] gained the address-interleaving
/// [`comet_sim::AddressScheme`] field, which routes every access and
/// therefore keys every cell apart from v1 results.
pub const KEY_SCHEMA: &str = "comet-cell/v2";

/// A 128-bit content-addressed cell key, rendered as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u128);

impl CellKey {
    /// Parses the 32-hex-digit rendering produced by `Display`.
    pub fn from_hex(text: &str) -> Option<CellKey> {
        if text.len() != 32 {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(CellKey)
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// 128-bit FNV-1a. Chosen over `DefaultHasher` because its output is
/// specified, stable across Rust releases and platforms — exactly what an
/// on-disk cache key must be.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The canonical serialized form of one cell under one runner identity.
///
/// Compact JSON of `{schema, config, seed, loop, cell}` — field order fixed
/// by construction here and by declaration order inside the derived
/// `Serialize` impls of [`comet_sim::SimConfig`] and [`CellSpec`].
pub fn canonical_cell_form(runner: &Runner, cell: &CellSpec) -> String {
    let value = Value::Map(vec![
        ("schema".to_string(), Value::Str(KEY_SCHEMA.to_string())),
        ("config".to_string(), runner.config().to_value()),
        ("seed".to_string(), Value::UInt(runner.seed())),
        ("loop".to_string(), Value::Str(runner.loop_mode().name().to_string())),
        ("cell".to_string(), cell.to_value()),
    ]);
    serde_json::to_string(&value).expect("value-tree serialization cannot fail")
}

/// The content-addressed key of one cell under one runner identity.
pub fn cell_key(runner: &Runner, cell: &CellSpec) -> CellKey {
    CellKey(fnv1a_128(canonical_cell_form(runner, cell).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_sim::experiments::CellSpec;
    use comet_sim::runner::MechanismKind;
    use comet_sim::{LoopMode, SimConfig};
    use comet_trace::AttackKind;

    fn runner() -> Runner {
        Runner::new(SimConfig::quick_test())
    }

    #[test]
    fn fnv1a_128_matches_published_vectors() {
        // Empty input hashes to the offset basis; "a" is a standard vector.
        assert_eq!(fnv1a_128(b""), 0x6c62272e07bb014262b821756295c58d);
        assert_eq!(fnv1a_128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn hex_rendering_round_trips() {
        let key = CellKey(0x0123456789abcdef0011223344556677);
        let hex = key.to_string();
        assert_eq!(hex.len(), 32);
        assert_eq!(CellKey::from_hex(&hex), Some(key));
        assert_eq!(CellKey::from_hex("short"), None);
    }

    #[test]
    fn canonical_form_spells_out_every_identity_component() {
        let form = canonical_cell_form(&runner(), &CellSpec::single("429.mcf", MechanismKind::Comet, 1000));
        for needle in [
            "comet-cell/v2",
            "\"seed\":49383",
            "\"loop\":\"event\"",
            "429.mcf",
            "\"nrh\":1000",
            "geometry",
            "\"scheme\":\"RoRaBgBaCoCh\"",
        ] {
            assert!(form.contains(needle), "canonical form missing {needle}: {form}");
        }
    }

    #[test]
    fn keys_separate_every_identity_axis() {
        let base = runner();
        let cell = CellSpec::single("429.mcf", MechanismKind::Comet, 1000);
        let reference = cell_key(&base, &cell);

        // Different workload / mechanism / threshold / placement.
        assert_ne!(reference, cell_key(&base, &CellSpec::single("473.astar", MechanismKind::Comet, 1000)));
        assert_ne!(reference, cell_key(&base, &CellSpec::single("429.mcf", MechanismKind::Hydra, 1000)));
        assert_ne!(reference, cell_key(&base, &CellSpec::single("429.mcf", MechanismKind::Comet, 500)));
        assert_ne!(
            reference,
            cell_key(&base, &CellSpec::homogeneous("429.mcf", 1, MechanismKind::Comet, 1000))
        );
        assert_ne!(
            reference,
            cell_key(
                &base,
                &CellSpec::attacked(
                    "429.mcf",
                    AttackKind::Traditional { rows_per_bank: 8 },
                    MechanismKind::Comet,
                    1000
                )
            )
        );

        // Different seed, loop mode, and configuration.
        assert_ne!(reference, cell_key(&Runner::with_seed(SimConfig::quick_test(), 7), &cell));
        assert_ne!(
            reference,
            cell_key(&Runner::new(SimConfig::quick_test()).with_loop_mode(LoopMode::DenseReference), &cell)
        );
        assert_ne!(reference, cell_key(&Runner::new(SimConfig::quick_test().with_ranks(4)), &cell));
        assert_ne!(reference, cell_key(&Runner::new(SimConfig::quick_test().with_channels(2)), &cell));
        let mut interleaved = SimConfig::quick_test();
        interleaved.core.scheme = comet_sim::AddressScheme::RoRaBgBaChCo;
        assert_ne!(reference, cell_key(&Runner::new(interleaved), &cell));

        // CometCustom parameters are part of the identity.
        let custom = |eprt| {
            CellSpec::single(
                "429.mcf",
                MechanismKind::CometCustom {
                    n_hash: 4,
                    n_counters: 512,
                    rat_entries: 128,
                    reset_divisor: 3,
                    history_length: 256,
                    eprt_percent: eprt,
                },
                1000,
            )
        };
        assert_ne!(cell_key(&base, &custom(25)), cell_key(&base, &custom(50)));
    }

    #[test]
    fn golden_keys_pin_the_canonical_encoding() {
        // These values must never change spontaneously: a drift means the
        // canonical form moved and every persisted cache would be silently
        // invalidated (or worse, mis-shared). If you changed SimConfig /
        // CellSpec / the encoders on purpose, bump KEY_SCHEMA and re-pin.
        let base = runner();
        let golden = [
            (CellSpec::single("429.mcf", MechanismKind::Comet, 1000), "2091c5efe874843c68c6ea4ccce42eff"),
            (CellSpec::single("bfs_ny", MechanismKind::Baseline, 125), "bb657a72713743996785ec0b335b206b"),
            (
                CellSpec::attacked(
                    "473.astar",
                    AttackKind::Traditional { rows_per_bank: 8 },
                    MechanismKind::Para,
                    500,
                ),
                "30fbab6af5e85f526fc886bd08bab421",
            ),
            (
                CellSpec::homogeneous("462.libquantum", 8, MechanismKind::Hydra, 250),
                "9093e2400460c39a4ecac5767c15aa0f",
            ),
        ];
        for (cell, expected) in golden {
            assert_eq!(
                cell_key(&base, &cell).to_string(),
                expected,
                "golden key drifted for {}",
                cell.label()
            );
        }
    }

    #[test]
    fn keys_are_stable_across_invocations() {
        let cell = CellSpec::single("429.mcf", MechanismKind::Comet, 1000);
        let a = cell_key(&runner(), &cell);
        let b = cell_key(&runner(), &cell);
        assert_eq!(a, b);
    }
}
