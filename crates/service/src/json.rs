//! One-line wrappers over `serde_json::from_str` and [`Value`]'s accessors.
//! They are kept only because the repository benchmark (`repobench/`) calls
//! them; ROADMAP item 4(b) moves the benchmark to the direct calls and then
//! deletes this module. Everything else calls `serde_json` and [`Value`]
//! directly.

use serde::Value;

/// Parses one complete JSON document with `serde_json::from_str`.
pub fn parse(text: &str) -> Result<Value, serde_json::Error> {
    serde_json::from_str(text)
}

/// Looks `key` up in an object [`Value`].
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.get(key)
}

/// The string content of a [`Value::Str`].
pub fn as_str(value: &Value) -> Option<&str> {
    value.as_str()
}
