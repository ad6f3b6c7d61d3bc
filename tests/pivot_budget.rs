//! Pivot-budget regression gate: the incremental separation loop must stay
//! cheap. Warm-started resolves should re-pivot only around the appended
//! Steiner rows, so the total pivot count across all separation rounds is
//! pinned against a fixed budget. A regression that
//! silently falls back to cold solves (or thrashes the basis) blows the
//! budget long before it would show up as a wall-clock change.

use lubt::core::{DelayBounds, EbfSolver, LubtBuilder, SolverBackend};
use lubt::data::synthetic;
use lubt::obs::SolveTrace;

fn solve_traced(backend: SolverBackend) -> (usize, usize, SolveTrace) {
    let inst = synthetic::prim2().subsample(48);
    let src = inst.source.unwrap();
    let radius = inst.radius();
    let problem = LubtBuilder::new(inst.sinks.clone())
        .source(src)
        .bounds(DelayBounds::uniform(48, 0.8 * radius, 1.2 * radius))
        .build()
        .unwrap();
    let (result, trace) = EbfSolver::new()
        .with_backend(backend)
        .solve_traced(&problem);
    let (_, report) = result.unwrap();
    assert!(
        report.separation_rounds > 1,
        "instance must exercise the incremental path ({} rounds)",
        report.separation_rounds
    );
    (report.separation_rounds, report.lp_iterations, trace)
}

#[test]
fn revised_pivots_across_rounds_stay_within_budget() {
    let (rounds, lp_iterations, trace) = solve_traced(SolverBackend::Revised);
    let pivots = trace.counter("lp.pivots") + trace.counter("lp.dual_pivots");
    // Observed 2026-08: 48 sinks, 4 rounds, 279 pivots. The budget leaves
    // ~1.5x headroom; a cold resolve per round lands well past it.
    assert!(
        pivots <= 450,
        "revised backend spent {pivots} pivots over {rounds} rounds (budget 450)"
    );
    assert_eq!(
        lp_iterations as u64, pivots,
        "report must account for every pivot"
    );
    // The warm-start path, not repeated cold solves, must carry the loop.
    assert_eq!(trace.counter("lp.solves"), 1);
    assert_eq!(trace.counter("lp.resolves") as usize, rounds - 1);
}
