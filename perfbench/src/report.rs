//! What one run measured, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports in an untraced run, in the
/// order of `BENCHMARK.json` (`end_to_end`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("solves_per_s", "1/s")];

/// Per-layer metrics every workload reports in a traced run, in the order
/// of `BENCHMARK.json` (`per_layer`). Workload-specific layer figures
/// (`serve.*`, `batch.*`, `par.*`, revised-only LP spans) are printed in
/// the human-readable lines only.
pub const PER_LAYER: [(&str, &str); 15] = [
    ("data.gen_ms", "ms"),
    ("topology.nn_ms", "ms"),
    ("lint.ms", "ms"),
    ("ebf.solve_ms", "ms"),
    ("lp.iterations", "count"),
    ("ebf.rounds", "count"),
    ("ebf.rows_frac", "ratio"),
    ("steiner.scan_ms", "ms"),
    ("embed.ms", "ms"),
    ("embed.slack_rescues", "count"),
    ("audit.tree_ms", "ms"),
    ("lp.pricing_self_ms", "ms"),
    ("lp.ratio_test_self_ms", "ms"),
    ("ebf.separate_self_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Failure messages kept for the human-readable output.
const MAX_FAILURE_LINES: usize = 10;

/// Metrics, notes and the output-check tally of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (Option<f64>, &'static str)>,
    notes: Vec<String>,
    /// Answers produced (solves or requests).
    pub attempted: u64,
    /// Answers that errored, were refused, went missing or failed the
    /// output check.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records metric `name`; `None` means the program did not expose it.
    pub fn set(&mut self, name: &str, unit: &'static str, value: Option<f64>) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).and_then(|&(v, _)| v)
    }

    /// Adds a free-form line to the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Tallies one answer: `Ok` passed the check, `Err` carries why not.
    pub fn tally(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_LINES {
                self.failures.push(msg);
            }
        }
    }

    /// Every recorded metric, one `name = value unit` line each (with its
    /// share of `wall_s` for per-layer times), followed by the notes and
    /// the output-check verdict.
    pub fn human(&self, traced: bool) -> String {
        let mut s = String::new();
        let wall = self.get("wall_s");
        for (name, (value, unit)) in &self.metrics {
            match value {
                Some(v) => {
                    let _ = write!(s, "metric {name} = {v:.6} {unit}");
                    if traced && *unit == "ms" {
                        if let Some(w) = wall.filter(|w| *w > 0.0) {
                            let _ = write!(s, "  ({:.1}% of wall_s)", 100.0 * v / 1e3 / w);
                        }
                    }
                    s.push('\n');
                }
                None => {
                    let _ = writeln!(s, "metric {name} = missing {unit}");
                }
            }
        }
        for n in &self.notes {
            let _ = writeln!(s, "note {n}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            s,
            "check attempted={} failed={} failed_frac={frac} verdict={}",
            self.attempted,
            self.failed,
            if self.correct() { "pass" } else { "FAIL" }
        );
        for f in &self.failures {
            let _ = writeln!(s, "failure {f}");
        }
        s
    }

    /// `true` when at least one answer was produced and every one passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The one-line JSON result: the end-to-end metrics of an untraced
    /// run or the per-layer metrics of a traced one. A metric the program
    /// no longer exposes is written as 0 (and printed as `missing` above).
    pub fn json(&self, traced: bool) -> String {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let fields: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    lubt_obs::json::json_f64(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            if self.attempted == 0 { 1 } else { self.failed },
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_obs::json::{parse, Value};

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_is_strict_and_missing_keys_do_not_fail_the_run() {
        let mut r = Report::default();
        r.set("wall_s", "s", Some(1.5));
        r.set("lp.pricing_self_ms", "ms", None);
        r.tally(Ok(()));
        for traced in [false, true] {
            let doc = parse(&r.json(traced)).unwrap();
            assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
            let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
            assert_eq!(
                metrics.len(),
                if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                }
            );
        }
        assert!(r.human(true).contains("lp.pricing_self_ms = missing"));
        r.tally(Err("boom".to_string()));
        assert!(!r.correct());
        assert!(r.human(false).contains("verdict=FAIL"));
    }
}
