//! The result line: `{"correct", "attempted", "failed", "metrics"}`.

#[derive(Debug, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
}

impl Check {
    /// Records one failed operation and explains it on stderr.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        eprintln!("repobench: FAILED: {message}");
    }
}

#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Keeps only the metrics named in `names`, in that order; a missing name
    /// is a bug in the benchmark.
    pub fn select(&self, names: &[&str]) -> Metrics {
        Metrics(
            names
                .iter()
                .map(|name| {
                    self.0
                        .iter()
                        .find(|(n, _, _)| n == name)
                        .unwrap_or_else(|| panic!("metric {name} was not measured"))
                        .clone()
                })
                .collect(),
        )
    }
}

/// Prints the result line as the last line of standard output.
pub fn print(check: &Check, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0 && check.attempted > 0,
        check.attempted.max(1),
        check.failed,
        body.join(", ")
    );
}
