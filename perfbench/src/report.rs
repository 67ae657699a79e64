//! The result every run prints: a metric table for people and, as the
//! last line, one JSON object for tools.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests the measured passes tried to complete.
    pub attempted: u64,
    /// Requests that timed out, errored, never completed or came back
    /// wrong.
    pub failed: u64,
    /// Correctness failures, described; empty when every check passed.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a correctness failure unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    /// Whether every correctness check passed and every value is finite.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table: one `name value unit` line per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>16} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Rust's `{}` for f64 prints the shortest round-trip form with
            // every significant digit; non-finite values never reach a
            // correct result, so null keeps the JSON valid for them.
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        o.push("setup_s", 0.25, "s");
        o.push("hit_rate", 0.5, "fraction");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"hit_rate\": {\"value\": 0.5, \"unit\": \"fraction\"}}}"
        );
        o.check(false, || "boom".into());
        assert!(!o.correct());
        assert_eq!(o.get("hit_rate"), Some(0.5));
    }
}
