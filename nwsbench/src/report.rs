//! What one run measured: named metrics with units and sample counts,
//! the operation tally and every correctness violation.

use nws_service::json::{parse, Json};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`, or a report-only name.
    pub name: String,
    /// Value, unrounded.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single timing).
    pub samples: usize,
    /// Free-text qualifier printed beside the value (e.g. the percentile
    /// a tail metric is taken at).
    pub note: String,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Measurements in the order they were taken.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: error responses, sheds, uncertified solves and
    /// failed correctness checks.
    pub failed: u64,
    /// One line per failed operation (printed, capped).
    pub violations: Vec<String>,
    /// Run facts (seed, instance shape, host).
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric_noted(name, value, unit, samples, "");
    }

    /// Records a metric with a qualifier.
    pub fn metric_noted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records one operation; `ok == false` counts it failed with the
    /// reason `why()`.
    pub fn attempt(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(why());
        }
    }

    /// Records a run fact.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Prints the human-readable report (every metric with unit and sample
    /// count, the facts and up to 20 violations) to stdout.
    pub fn print(&self, title: &str) {
        println!("== {title}");
        for (k, v) in &self.facts {
            println!("   {k}: {v}");
        }
        for m in &self.metrics {
            let mut note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" [{}]", m.note)
            };
            if let Some(q) = m
                .name
                .rsplit_once("_p")
                .and_then(|(_, q)| q.parse::<f64>().ok())
            {
                // The rule for tails: at least ten samples beyond them.
                if crate::stats::supported_tail(m.samples).is_none_or(|s| s < q) {
                    note.push_str(" [too few samples for this tail: report only]");
                }
            }
            if let Some(target) = crate::layers::moves(&m.name) {
                note.push_str(&format!(" -> moves {target}"));
            }
            println!(
                "   {:<40} {:>14.6} {:<6} n={}{}",
                m.name, m.value, m.unit, m.samples, note
            );
        }
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "   operations: {} attempted, {} failed (failure share {:.6})",
            self.attempted, self.failed, share
        );
        for v in self.violations.iter().take(20) {
            println!("   VIOLATION: {v}");
        }
        if self.violations.len() > 20 {
            println!("   ... {} more violations", self.violations.len() - 20);
        }
    }

    /// The result line: exactly the `declared` metrics, each
    /// with its declared unit. A declared metric the run did not produce
    /// is an error, never a silent gap.
    pub fn result_line(&self, declared: &[(String, String)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in declared {
            let m = self
                .metrics
                .iter()
                .find(|m| &m.name == name)
                .ok_or_else(|| format!("metric '{name}' was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric '{name}' is not finite: {}", m.value));
            }
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                m.value
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}

/// The metric names and units `BENCHMARK.json` declares, as
/// `(end_to_end, per_layer)`.
pub fn declared_metrics(path: &std::path::Path) -> Result<DeclaredMetrics, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        let arr = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no '{key}' list"))?;
        arr.iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str);
                let unit = m.get("unit").and_then(Json::as_str);
                match (name, unit) {
                    (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                    _ => Err(format!("malformed entry in '{key}'")),
                }
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// `(end_to_end, per_layer)` metric names with units.
pub type DeclaredMetrics = (Vec<(String, String)>, Vec<(String, String)>);
