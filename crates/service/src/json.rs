//! JSON helpers over the offline `serde` crate's [`Value`] tree: one-line
//! wrappers over `serde_json::from_str` and [`Value`]'s accessors, which the
//! line protocol, the worker, the CLI client and the tests use to read
//! response lines. Typed values decode through derived `serde::Deserialize`
//! impls instead.

use serde::Value;

/// Parses one complete JSON document with `serde_json::from_str`. The
/// repository benchmark (`repobench/`) calls this; ROADMAP item 4(b) removes it.
pub fn parse(text: &str) -> Result<Value, serde_json::Error> {
    serde_json::from_str(text)
}

/// Looks `key` up in an object [`Value`]. The repository benchmark
/// (`repobench/`) calls this; ROADMAP item 4(b) removes it.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.get(key)
}

/// The string content of a [`Value::Str`]. The repository benchmark
/// (`repobench/`) calls this; ROADMAP item 4(b) removes it.
pub fn as_str(value: &Value) -> Option<&str> {
    value.as_str()
}

/// Numeric coercion to `u64` (accepts `UInt` and non-negative `Int`).
pub fn as_u64(value: &Value) -> Option<u64> {
    value.as_u64()
}

/// Numeric coercion to `i64`.
pub fn as_i64(value: &Value) -> Option<i64> {
    match value {
        Value::Int(n) => Some(*n),
        Value::UInt(n) => i64::try_from(*n).ok(),
        _ => None,
    }
}

/// Numeric coercion to `f64` (accepts every numeric variant).
pub fn as_f64(value: &Value) -> Option<f64> {
    value.as_f64()
}

/// The items of a [`Value::Seq`].
pub fn as_seq(value: &Value) -> Option<&[Value]> {
    value.as_seq()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_navigate_objects() {
        let doc = parse(r#"{"op":"run","id":3,"priority":-2,"x":1.5,"targets":["fig9"]}"#).unwrap();
        assert_eq!(as_str(get(&doc, "op").unwrap()), Some("run"));
        assert_eq!(as_u64(get(&doc, "id").unwrap()), Some(3));
        assert_eq!(as_i64(get(&doc, "priority").unwrap()), Some(-2));
        assert_eq!(as_f64(get(&doc, "x").unwrap()), Some(1.5));
        assert_eq!(as_seq(get(&doc, "targets").unwrap()).unwrap().len(), 1);
        assert!(get(&doc, "missing").is_none());
    }
}
