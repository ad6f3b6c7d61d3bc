//! Per-layer timers around the program's public calls, shared by every
//! workload's traced run.

use crate::check::{exact_tree_audit, Answer};
use crate::keys::{counter, span_self_ms};
use crate::report::Report;
use crate::stats::timed;
use lubt_core::{embed_tree_traced, violated_pairs, EbfSolver, LubtProblem, PlacementPolicy};
use lubt_obs::{Recorder, SpanTree, TraceRecorder};
use lubt_topology::nearest_neighbor_topology;
use std::hint::black_box;
use std::sync::Arc;

/// Tolerance of the separation scan, the solver's default Steiner
/// violation tolerance.
const SCAN_TOL: f64 = 1e-6;

/// Times each layer once over `problems`, summing across nets, and records
/// the `topology.*`, `lint.*`, `ebf.*`, `lp.iterations`, `steiner.*`,
/// `embed.*` and `audit.*` metrics. `steiner.seed_ms` is reported missing:
/// the seeding function is not part of the public API.
pub fn time_layers(report: &mut Report, problems: &[LubtProblem], solver: EbfSolver) {
    let (mut nn, mut lint, mut solve, mut scan, mut embed, mut audit) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut iterations, mut rounds, mut rows, mut pairs) = (0u64, 0u64, 0u64, 0u64);
    let mut failures = Vec::new();
    // One recorder for the solves and the embeddings: it yields the LP
    // counters and the embedder's slack rescues.
    let rec = Arc::new(TraceRecorder::new());
    let solver = solver
        .with_prelint(false)
        .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
    for p in problems {
        let ((), t) = timed(|| {
            black_box(nearest_neighbor_topology(
                black_box(p.sinks()),
                p.source_mode(),
            ));
        });
        nn += t;
        lint += timed(|| black_box(p.lint())).1;
        let (solved, t) = timed(|| solver.solve(p));
        solve += t;
        let (lengths, r) = match solved {
            Ok(x) => x,
            Err(e) => {
                failures.push(format!("layer solve: {e}"));
                continue;
            }
        };
        iterations += r.lp_iterations as u64;
        rounds += r.separation_rounds as u64;
        rows += r.steiner_rows as u64;
        pairs += r.total_pairs as u64;
        scan += timed(|| black_box(violated_pairs(p, &lengths, SCAN_TOL))).1;
        let topo = p.topology();
        let (placed, t) = timed(|| {
            embed_tree_traced(
                topo,
                p.sinks(),
                p.source(),
                &lengths,
                PlacementPolicy::ClosestToParent,
                &*rec,
            )
        });
        embed += t;
        let positions = match placed {
            Ok(x) => x,
            Err(e) => {
                failures.push(format!("layer embed: {e}"));
                continue;
            }
        };
        let cost = lengths.iter().sum();
        let answer = Answer {
            lengths,
            positions,
            cost,
        };
        audit += timed(|| black_box(exact_tree_audit(p, &answer))).1;
    }
    for f in failures {
        report.note(f);
    }
    let trace = rec.snapshot();
    for key in ["lp.refactorizations", "lp.pivots"] {
        report.set(key, "count", counter(&trace, key));
    }
    let ms = |s: f64| Some(s * 1e3);
    report.set("topology.nn_ms", "ms", ms(nn));
    report.set("lint.ms", "ms", ms(lint));
    report.set("ebf.solve_ms", "ms", ms(solve));
    report.set("lp.iterations", "count", Some(iterations as f64));
    report.set("ebf.rounds", "count", Some(rounds as f64));
    report.set(
        "ebf.rows_frac",
        "ratio",
        Some(rows as f64 / pairs.max(1) as f64),
    );
    report.set("steiner.scan_ms", "ms", ms(scan));
    report.set("steiner.seed_ms", "ms", None);
    report.set("embed.ms", "ms", ms(embed));
    // The counter is only written when a rescue happens, so absence is 0.
    report.set(
        "embed.slack_rescues",
        "count",
        Some(trace.counter("embed.slack_rescues") as f64),
    );
    report.set("audit.tree_ms", "ms", ms(audit));
}

/// Records the LP and separation self times read from the program's own
/// span tree (tolerantly: absent spans are reported missing).
pub fn span_metrics(report: &mut Report, spans: &SpanTree) {
    for (metric, span) in [
        ("lp.pricing_self_ms", "pricing"),
        ("lp.refactor_self_ms", "refactor"),
        ("lp.eta_apply_self_ms", "eta_apply"),
        ("lp.ratio_test_self_ms", "ratio_test"),
        ("ebf.separate_self_ms", "separate"),
    ] {
        report.set(metric, "ms", span_self_ms(spans, span));
    }
}
