//! What one run reports: named metrics with units and sample counts,
//! the operation counts, and the correctness gate's verdict.

use crate::spec::MetricDef;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (0 = a single reading or a count).
    pub samples: u64,
}

/// The result of one workload run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: String,
    pub metrics: Vec<Metric>,
    /// Operations attempted over the window (moves + connects) and how
    /// many failed (unanswered, late, un-acked).
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the correctness gate tripped; empty means correct.
    pub gate: Vec<String>,
    /// Extra human-readable lines (counts behind the metrics).
    pub notes: Vec<String>,
    /// Extra machine-readable detail: the fields of a JSON object
    /// (no braces), e.g. MADs and the calibration table.
    pub detail: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.gate.is_empty()
    }

    pub fn push(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Trip the gate unless `ok`.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.gate.push(why());
        }
    }

    /// Give every declared metric the run did not produce the value 0:
    /// the rule for layer metrics that do not apply to a workload. A
    /// non-finite value trips the gate (JSON cannot carry it).
    pub fn complete(&mut self, declared: &[MetricDef]) {
        for d in declared {
            if self.get(d.name).is_none() {
                self.push(d.name, 0.0, 0);
            }
        }
        for m in &mut self.metrics {
            if !m.value.is_finite() {
                self.gate.push(format!("{} is not finite", m.name));
                m.value = 0.0;
            }
        }
    }

    /// The driver-facing result object: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every
    /// declared metric and nothing else.
    pub fn result_json(&self, declared: &[MetricDef]) -> String {
        let metrics: Vec<String> = declared
            .iter()
            .filter_map(|d| {
                let v = self.get(d.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name, v, d.unit
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The `DETAIL` line's JSON object.
    pub fn detail_json(&self) -> String {
        let mut fields = vec![format!("\"workload\": \"{}\"", self.workload)];
        let samples: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.samples > 0)
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect();
        fields.push(format!("\"samples\": {{{}}}", samples.join(", ")));
        fields.extend(self.detail.iter().cloned());
        format!("{{{}}}", fields.join(", "))
    }

    /// Print every metric by name with its unit and sample count, the
    /// gate's verdict, a `DETAIL` line, and — when the run is correct —
    /// the result object as the last line. An incorrect run prints no
    /// result.
    pub fn print(&self, declared: &[MetricDef]) {
        println!("== {} ==", self.workload);
        for d in declared {
            if let Some(m) = self.metrics.iter().find(|m| m.name == d.name) {
                let n = if m.samples > 0 {
                    format!("  (n={})", m.samples)
                } else {
                    String::new()
                };
                println!("{:<36} {:>16.4} {}{}", m.name, m.value, d.unit, n);
            }
        }
        for note in &self.notes {
            println!("# {note}");
        }
        println!(
            "operations: attempted {} failed {}",
            self.attempted, self.failed
        );
        for why in &self.gate {
            println!("GATE FAILED: {why}");
        }
        println!("DETAIL {}", self.detail_json());
        if self.correct() {
            println!("{}", self.result_json(declared));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut r = Report {
            workload: "w".into(),
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.push("rtt_p50_us", 123.5, 99);
        r.push("not_declared", 1.0, 0);
        r.complete(END_TO_END);
        let json = r.result_json(END_TO_END);
        assert!(json
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {"));
        assert!(json.contains("\"rtt_p50_us\": {\"value\": 123.5, \"unit\": \"us\"}"));
        assert!(json.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!json.contains("not_declared"));
        for d in END_TO_END {
            assert!(json.contains(&format!("\"{}\"", d.name)));
        }
    }

    #[test]
    fn gate_and_non_finite_values() {
        let mut r = Report::default();
        r.push("rtt_p50_us", f64::NAN, 0);
        r.require(true, || unreachable!());
        assert!(r.correct());
        r.complete(END_TO_END);
        assert!(!r.correct());
        r.require(false, || "boom".into());
        assert_eq!(r.gate.len(), 2);
    }
}
