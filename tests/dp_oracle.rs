//! Exact-oracle integration: the DP backend's outputs against the exact
//! audit layer.
//!
//! The DP backend carries no float LP certificate — its exactness contract
//! is that its solutions pass the same exact rational audits as the LP
//! backends' (`audit_primal` against the eager model, `audit_tree` against
//! the embedding), and that deliberately corrupted DP outputs are rejected
//! with deny-level `audit-*` findings.

use lubt::audit::{audit_primal, audit_tree};
use lubt::core::{
    ebf_model, BatchSolver, DelayBounds, EbfSolver, LubtBuilder, LubtError, LubtProblem,
    SolverBackend, SteinerMode,
};
use lubt::geom::Point;
use lubt::lint::Level;
use lubt::topology::{nearest_neighbor_topology, NodeId, SourceMode};
use lubt_bench::suite::pinned_instances;

/// The pinned bench-suite instances wrapped into LUBT problems, matching
/// `audit_certificates.rs`'s convention.
fn suite_problems(lower_frac: f64, upper_frac: f64) -> Vec<(String, LubtProblem)> {
    pinned_instances(&[6, 10, 16])
        .into_iter()
        .map(|inst| {
            let r = inst.radius();
            let m = inst.sinks.len();
            let topo = nearest_neighbor_topology(&inst.sinks, SourceMode::Given);
            let problem = LubtProblem::new(
                inst.sinks.clone(),
                inst.source,
                topo,
                DelayBounds::uniform(m, lower_frac * r, upper_frac * r),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
            (inst.name, problem)
        })
        .collect()
}

fn assert_deny_audit_findings(findings: &[lubt::lint::Diagnostic], what: &str) {
    assert!(!findings.is_empty(), "{what}: corruption went undetected");
    for f in findings {
        assert_eq!(f.level, Level::Deny, "{what}: {f:?}");
        assert!(f.pass.starts_with("audit-"), "{what}: {f:?}");
    }
}

/// Every pinned instance solved by the DP backend with auditing on passes
/// both exact audits: the primal audit inside the solver (counted as
/// `audit.primal_verified`) and the tree audit on the embedding.
#[test]
fn every_pinned_instance_passes_exact_audit_under_dp() {
    let named = suite_problems(0.9, 1.4);
    let problems: Vec<LubtProblem> = named.iter().map(|(_, p)| p.clone()).collect();
    let batch = BatchSolver::new().with_threads(1).with_solver(
        EbfSolver::new()
            .with_backend(SolverBackend::Dp)
            .with_audit(true),
    );
    let (results, trace) = batch.solve_all_traced(&problems);
    for ((name, _), result) in named.iter().zip(&results) {
        let solution = result
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}/dp: audited solve failed: {e}"));
        assert!(
            solution.audit_tree().is_empty(),
            "{name}/dp: exact tree audit rejected the embedding"
        );
    }
    assert!(
        trace.counter("audit.primal_verified") >= problems.len() as u64,
        "dp: only {} primal audits verified for {} instances",
        trace.counter("audit.primal_verified"),
        problems.len()
    );
    assert_eq!(trace.counter("audit.failures"), 0);
    assert_eq!(trace.counter("dp.solves"), problems.len() as u64);
}

/// `u = 0.5R` violates Equation 3 on every pinned instance. The DP
/// backend's infeasibility is exact (interval or rational-core), so with
/// prelint bypassed every refusal is `Infeasible` with zero audit
/// failures — there is no float Farkas ray to second-guess.
#[test]
fn dp_infeasibility_on_pinned_instances_is_exact() {
    let named = suite_problems(0.0, 0.5);
    let problems: Vec<LubtProblem> = named.iter().map(|(_, p)| p.clone()).collect();
    let batch = BatchSolver::new().with_threads(1).with_solver(
        EbfSolver::new()
            .with_backend(SolverBackend::Dp)
            .with_prelint(false)
            .with_audit(true),
    );
    let (results, trace) = batch.solve_all_traced(&problems);
    for ((name, _), result) in named.iter().zip(&results) {
        assert!(
            matches!(result, Err(LubtError::Infeasible)),
            "{name}/dp: expected exact infeasibility, got {result:?}"
        );
    }
    assert_eq!(trace.counter("dp.solves"), problems.len() as u64);
    assert_eq!(trace.counter("audit.failures"), 0);
}

/// A four-sink problem the corruption tests share: solved by the DP
/// backend, embedded, and re-audited by hand so individual fields can be
/// tampered with.
fn solved_dp_instance() -> lubt::core::LubtSolution {
    LubtBuilder::new(vec![
        Point::new(0.0, 0.0),
        Point::new(10.0, 0.0),
        Point::new(0.0, 10.0),
        Point::new(10.0, 10.0),
    ])
    .source(Point::new(5.0, 5.0))
    .bounds(DelayBounds::uniform(4, 12.0, 14.0))
    .backend(SolverBackend::Dp)
    .solve()
    .unwrap()
}

/// Deliberately corrupted DP trees are rejected by the exact tree audit:
/// an edge shortened below the Manhattan span of its endpoints, and a
/// sink pushed out of its delay window, both draw deny `audit-*`
/// findings; the genuine tree draws none.
#[test]
fn corrupted_dp_trees_are_rejected_by_the_exact_tree_audit() {
    let sol = solved_dp_instance();
    let topo = sol.problem().topology();
    let parents: Vec<usize> = (0..topo.num_nodes())
        .map(|v| topo.parent(NodeId(v)).map_or(v, |p| p.index()))
        .collect();
    let pos: Vec<(f64, f64)> = sol.positions().iter().map(|p| (p.x, p.y)).collect();
    let bounds = sol.problem().bounds();
    let sinks: Vec<(usize, f64, f64)> = (0..topo.num_sinks())
        .map(|i| (i + 1, bounds.lower(i), bounds.upper(i)))
        .collect();
    let root = topo.root().index();
    let genuine = sol.edge_lengths().to_vec();
    assert!(
        audit_tree(&parents, &genuine, &pos, &sinks, root).is_empty(),
        "genuine DP tree must audit clean"
    );

    // Shorten sink 1's edge below the Manhattan distance to its parent.
    let mut short = genuine.clone();
    short[1] -= 1.0;
    assert_deny_audit_findings(
        &audit_tree(&parents, &short, &pos, &sinks, root),
        "shortened edge",
    );

    // Pad the same edge until the sink's pathlength overshoots its upper
    // delay bound.
    let mut long = genuine.clone();
    long[1] += 5.0;
    assert_deny_audit_findings(
        &audit_tree(&parents, &long, &pos, &sinks, root),
        "out-of-window sink",
    );
}

/// Corrupted DP *solutions* — lengths or claimed objective — are rejected
/// by the exact primal audit against the eager model, which is exactly the
/// audit the solver runs when `with_audit(true)` is set.
#[test]
fn corrupted_dp_solutions_are_rejected_by_the_exact_primal_audit() {
    let sol = solved_dp_instance();
    // The eager model: base rows plus every pair row, the same system the
    // DP solves (the four-sink seed pair set is already all C(4,2) pairs).
    let problem = sol.problem();
    let model = ebf_model(problem);
    let lengths = &sol.edge_lengths()[1..];
    let objective = sol.cost();
    assert!(
        audit_primal(&model, lengths, objective).is_empty(),
        "genuine DP solution must audit clean"
    );

    // A shortened edge violates a delay-window row.
    let mut short = lengths.to_vec();
    short[0] -= 1.0;
    assert_deny_audit_findings(
        &audit_primal(&model, &short, objective - 1.0),
        "corrupted lengths",
    );

    // An understated objective no longer matches the weighted sum.
    assert_deny_audit_findings(
        &audit_primal(&model, lengths, objective - 1.0),
        "understated objective",
    );
}

/// The in-solver audit has teeth end to end: auditing on cannot change
/// the DP's answer, and the audited DP run matches the audited (revised)
/// simplex run on the final lengths' cost to 1e-9.
#[test]
fn audited_dp_solves_match_unaudited_and_simplex() {
    let problem = LubtBuilder::new(vec![
        Point::new(0.0, 0.0),
        Point::new(6.0, 2.0),
        Point::new(2.0, 7.0),
    ])
    .source(Point::new(3.0, 3.0))
    .bounds(DelayBounds::uniform(3, 8.0, 11.0))
    .build()
    .unwrap();
    let solve = |backend, audit| {
        EbfSolver::new()
            .with_backend(backend)
            .with_steiner_mode(SteinerMode::Eager)
            .with_audit(audit)
            .solve(&problem)
            .unwrap()
            .0
    };
    let plain = solve(SolverBackend::Dp, false);
    let audited = solve(SolverBackend::Dp, true);
    assert_eq!(plain, audited, "auditing changed the DP answer");
    let simplex = solve(SolverBackend::Revised, true);
    let cost = |l: &[f64]| l.iter().sum::<f64>();
    assert!(
        (cost(&audited) - cost(&simplex)).abs() <= 1e-9 * (1.0 + cost(&simplex)),
        "dp {} vs revised simplex {}",
        cost(&audited),
        cost(&simplex)
    );
}
