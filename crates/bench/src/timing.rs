//! CPU-time scaling table (the §8 solver discussion): EBF solve time vs.
//! sink count for the revised simplex and the interior point, plus the
//! zero-skew closed form.
//!
//! The paper reports that LOQO's interior-point method beats the simplex
//! "for large problems"; this experiment makes the crossover measurable on
//! this implementation (see EXPERIMENTS.md for the recorded verdict).
//!
//! Timing goes through the `lubt-obs` phase-timer path rather than raw
//! `Instant::now()` bookkeeping, so this table and the `lubt bench` suite
//! measure with the same clock discipline and the recorded phases land in
//! the standard `time.*` (determinism-exempt) namespace.

use crate::table::{num, render};
use lubt_core::{
    zero_skew_edge_lengths, DelayBounds, EbfSolver, LubtError, LubtProblem, SolverBackend,
};
use lubt_data::Instance;
use lubt_obs::json::json_f64;
use lubt_obs::{PhaseTimer, TraceRecorder};
use lubt_topology::{nearest_neighbor_topology, SourceMode};

/// Sink count beyond which the dense-Cholesky interior point (O(rows³)
/// per iteration) is skipped and reported as `NaN` / `-` / `null`.
pub const DEFAULT_INTERIOR_CAP: usize = 32;

/// One scaling sample.
#[derive(Debug, Clone)]
pub struct TimingRow {
    /// Sink count.
    pub sinks: usize,
    /// Revised-simplex wall time (seconds).
    pub simplex_s: f64,
    /// Interior-point wall time (seconds); `NaN` when the size was over
    /// the interior-point cap and the backend was skipped.
    pub interior_s: f64,
    /// Zero-skew closed-form wall time (seconds).
    pub zero_skew_s: f64,
    /// Steiner rows the lazy scheme materialized, out of C(m, 2).
    pub steiner_rows: usize,
    /// Total available pairs.
    pub total_pairs: usize,
}

/// Seconds recorded under `key` by `rec`, as `f64`.
fn phase_seconds(rec: &TraceRecorder, key: &str) -> f64 {
    rec.snapshot().timing_ns(key) as f64 / 1e9
}

/// Measures the scaling table on subsamples of one instance, skipping the
/// interior point above [`DEFAULT_INTERIOR_CAP`] sinks.
///
/// # Errors
///
/// Propagates solver failures.
pub fn run(instance: &Instance, sizes: &[usize]) -> Result<Vec<TimingRow>, LubtError> {
    run_with_interior_cap(instance, sizes, DEFAULT_INTERIOR_CAP)
}

/// [`run`] with an explicit interior-point size cap (rows above the cap
/// report `interior_s = NaN`).
///
/// # Errors
///
/// Propagates solver failures.
pub fn run_with_interior_cap(
    instance: &Instance,
    sizes: &[usize],
    interior_cap: usize,
) -> Result<Vec<TimingRow>, LubtError> {
    let mut rows = Vec::new();
    for &m in sizes {
        let inst = instance.subsample(m);
        let radius = inst.radius();
        let src = inst.source.expect("paper benchmarks pin the source");
        let topo = nearest_neighbor_topology(&inst.sinks, SourceMode::Given);
        let problem = LubtProblem::new(
            inst.sinks.clone(),
            Some(src),
            topo.clone(),
            DelayBounds::uniform(m, 0.7 * radius, 1.2 * radius),
        )?;

        // One recorder per row: the phase keys don't collide across sizes
        // and each accumulated total is exactly one measurement.
        let rec = TraceRecorder::new();
        let report = {
            let _t = PhaseTimer::new(&rec, "time.bench.simplex");
            let (_, report) = EbfSolver::new()
                .with_backend(SolverBackend::Revised)
                .solve(&problem)?;
            report
        };

        let interior_s = if m <= interior_cap {
            {
                let _t = PhaseTimer::new(&rec, "time.bench.interior");
                let _ = EbfSolver::new()
                    .with_backend(SolverBackend::InteriorPoint)
                    .solve(&problem)?;
            }
            phase_seconds(&rec, "time.bench.interior")
        } else {
            f64::NAN
        };

        {
            let _t = PhaseTimer::new(&rec, "time.bench.zero_skew");
            let _ = zero_skew_edge_lengths(&topo, &inst.sinks, Some(src), Some(1.5 * radius))?;
        }

        rows.push(TimingRow {
            sinks: m,
            simplex_s: phase_seconds(&rec, "time.bench.simplex"),
            interior_s,
            zero_skew_s: phase_seconds(&rec, "time.bench.zero_skew"),
            steiner_rows: report.steiner_rows,
            total_pairs: report.total_pairs,
        });
    }
    Ok(rows)
}

/// Renders the scaling table.
pub fn to_text(rows: &[TimingRow]) -> String {
    let header = [
        "sinks",
        "simplex [s]",
        "interior [s]",
        "zero-skew [s]",
        "steiner rows",
        "C(m,2)",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sinks.to_string(),
                num(r.simplex_s, 4),
                if r.interior_s.is_nan() {
                    "-".to_string()
                } else {
                    num(r.interior_s, 4)
                },
                num(r.zero_skew_s, 6),
                r.steiner_rows.to_string(),
                r.total_pairs.to_string(),
            ]
        })
        .collect();
    render(&header, &body)
}

/// Serializes the rows as one strict-JSON array. Every float goes
/// through the total [`json_f64`] formatter, so a skipped interior point
/// (`NaN`) becomes `null` instead of a bare non-finite token.
pub fn rows_to_json(rows: &[TimingRow]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"sinks\": {}, \"simplex_s\": {}, \"interior_s\": {}, \
                 \"zero_skew_s\": {}, \"steiner_rows\": {}, \"total_pairs\": {}}}",
                r.sinks,
                json_f64(r.simplex_s),
                json_f64(r.interior_s),
                json_f64(r.zero_skew_s),
                r.steiner_rows,
                r.total_pairs
            )
        })
        .collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_data::synthetic;
    use lubt_obs::json::validate;

    #[test]
    fn produces_rows_with_positive_times_and_caps_the_interior_point() {
        // Cap of 8 forces the m = 10 row onto the NaN path without paying
        // for a > 32-sink solve in a unit test.
        let rows = run_with_interior_cap(&synthetic::prim1(), &[6, 10], 8).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.simplex_s > 0.0 && r.zero_skew_s > 0.0);
            assert!(r.steiner_rows <= r.total_pairs);
            if r.sinks <= 8 {
                assert!(r.interior_s > 0.0, "interior point ran at m={}", r.sinks);
            } else {
                assert!(r.interior_s.is_nan(), "m={} is over the cap", r.sinks);
            }
        }
        let text = to_text(&rows);
        assert!(text.contains("simplex"));
        assert_eq!(text.lines().count(), 4);
        // The skipped backend renders as `-`, never a bare NaN.
        assert!(text.contains(" - "), "capped row renders a dash: {text}");
        assert!(!text.contains("NaN"));
    }

    #[test]
    fn rows_serialize_to_strict_json_with_null_for_skipped_backends() {
        let rows = run_with_interior_cap(&synthetic::prim1(), &[6, 10], 8).unwrap();
        let doc = rows_to_json(&rows);
        validate(&doc).unwrap_or_else(|e| panic!("invalid timing JSON: {e}\n{doc}"));
        assert!(doc.contains("\"interior_s\": null"), "{doc}");
        assert!(!doc.contains("NaN"));
    }
}
