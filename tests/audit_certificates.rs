//! Exact certificate auditing, end to end — the acceptance gate of the
//! audit layer.
//!
//! Every pinned bench-suite instance must pass the exact audit on **both**
//! exact-auditable backends: the revised simplex's optimality certificates
//! and the DP oracle's lengths against the eager LP on feasible windows,
//! and the revised simplex's Farkas rays — from the warm session and the
//! cold solve alike — on infeasible ones. And the audit must
//! have teeth: a deliberately corrupted solution, claimed objective,
//! dual certificate or Farkas ray is rejected with a deny-level
//! `audit-*` diagnostic.

use lubt::audit::{audit_farkas, audit_optimality, PASS_FARKAS, PASS_OBJECTIVE};
use lubt::core::{
    BatchSolver, DelayBounds, EbfSolver, LubtError, LubtProblem, SolverBackend, SteinerMode,
};
use lubt::lint::Level;
use lubt::lp::{Certificate, Cmp, LinExpr, Model, RevisedSolver, Status};
use lubt::topology::{nearest_neighbor_topology, SourceMode};
use lubt_bench::suite::pinned_instances;

/// The pinned suite instances at their default sizes, wrapped into LUBT
/// problems with the given delay window (fractions of each instance's
/// radius, matching the bench suite's convention).
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

#[test]
fn every_pinned_instance_passes_exact_audit_on_both_backends() {
    let named = suite_problems(0.9, 1.4);
    let problems: Vec<LubtProblem> = named.iter().map(|(_, p)| p.clone()).collect();
    for (backend, verified_key) in [
        (SolverBackend::Revised, "audit.optimality_verified"),
        (SolverBackend::Dp, "audit.primal_verified"),
    ] {
        let batch = BatchSolver::new()
            .with_threads(1)
            .with_solver(EbfSolver::new().with_backend(backend).with_audit(true));
        let (results, trace) = batch.solve_all_traced(&problems);
        for ((name, _), result) in named.iter().zip(&results) {
            let solution = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{name}/{backend:?}: audited solve failed: {e}"));
            assert!(
                solution.audit_tree().is_empty(),
                "{name}/{backend:?}: exact tree audit rejected the embedding"
            );
        }
        // The LP-side audits actually ran: at least one exact verification
        // per instance, zero failures.
        assert!(
            trace.counter(verified_key) >= problems.len() as u64,
            "{backend:?}: only {} {verified_key} for {} instances",
            trace.counter(verified_key),
            problems.len()
        );
        assert_eq!(trace.counter("audit.failures"), 0, "{backend:?}");
    }
}

#[test]
fn infeasible_fixtures_verify_farkas_rays_warm_and_cold() {
    // u = 0.5R violates Equation 3 on every pinned instance; with prelint
    // bypassed the LP itself must refuse, and every refusal must carry an
    // exactly verifying Farkas ray — from the warm-started lazy session
    // and from the cold eager solve alike.
    let named = suite_problems(0.0, 0.5);
    let problems: Vec<LubtProblem> = named.iter().map(|(_, p)| p.clone()).collect();
    for mode in [SteinerMode::default_lazy(), SteinerMode::Eager] {
        let batch = BatchSolver::new().with_threads(1).with_solver(
            EbfSolver::new()
                .with_steiner_mode(mode)
                .with_prelint(false)
                .with_audit(true),
        );
        let (results, trace) = batch.solve_all_traced(&problems);
        for ((name, _), result) in named.iter().zip(&results) {
            assert!(
                matches!(result, Err(LubtError::Infeasible)),
                "{name}/{mode:?}: expected verified infeasibility, got {result:?}"
            );
        }
        assert!(
            trace.counter("audit.farkas_verified") >= problems.len() as u64,
            "{mode:?}: only {} Farkas rays verified for {} instances",
            trace.counter("audit.farkas_verified"),
            problems.len()
        );
        assert_eq!(trace.counter("audit.failures"), 0, "{mode:?}");
    }
}

fn assert_deny_audit_findings(findings: &[lubt::lint::Diagnostic], what: &str) {
    assert!(!findings.is_empty(), "{what}: corruption went undetected");
    for f in findings {
        assert_eq!(f.level, Level::Deny, "{what}: {f:?}");
        assert!(f.pass.starts_with("audit-"), "{what}: {f:?}");
    }
}

#[test]
fn corrupted_solutions_and_certificates_are_rejected_with_deny_findings() {
    let mut model = Model::new();
    let x = model.add_var(0.0, 1.0);
    let y = model.add_var(0.0, 2.0);
    model.add_constraint(LinExpr::from_terms([(x, 1.0), (y, 1.0)]), Cmp::Ge, 4.0);
    model.add_constraint(LinExpr::from_terms([(x, 2.0), (y, 1.0)]), Cmp::Le, 10.0);

    let (sol, cert) = RevisedSolver::new().solve_certified(&model).unwrap();
    assert_eq!(sol.status(), Status::Optimal);
    let Some(Certificate::Optimality(opt)) = cert else {
        panic!("optimal solve must carry an optimality certificate");
    };
    // The genuine output verifies exactly.
    assert!(
        audit_optimality(&model, sol.values(), sol.objective(), &opt).is_empty(),
        "genuine certificate must verify"
    );

    // A corrupted primal point is caught.
    let mut vals = sol.values().to_vec();
    vals[0] -= 5.0;
    assert_deny_audit_findings(
        &audit_optimality(&model, &vals, sol.objective(), &opt),
        "corrupted primal",
    );

    // A falsely improved objective claim is caught by the exact
    // objective cross-check.
    let lies = audit_optimality(&model, sol.values(), sol.objective() - 1.0, &opt);
    assert_deny_audit_findings(&lies, "corrupted objective");
    assert!(lies.iter().any(|f| f.pass == PASS_OBJECTIVE), "{lies:?}");

    // A tampered dual certificate no longer proves optimality.
    let mut bad = opt.clone();
    bad.duals[0] += 0.5;
    assert_deny_audit_findings(
        &audit_optimality(&model, sol.values(), sol.objective(), &bad),
        "corrupted duals",
    );
}

#[test]
fn corrupted_farkas_rays_are_rejected_with_deny_findings() {
    let mut model = Model::new();
    let x = model.add_var(0.0, 1.0);
    model.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Le, 1.0);
    model.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 3.0);

    let (sol, cert) = RevisedSolver::new().solve_certified(&model).unwrap();
    assert_eq!(sol.status(), Status::Infeasible);
    let Some(Certificate::Farkas(farkas)) = cert else {
        panic!("infeasible solve must carry a Farkas certificate");
    };
    assert!(
        audit_farkas(&model, &farkas.ray).is_empty(),
        "genuine ray must verify"
    );

    // A positive multiplier on a `<=` row can never be part of a valid
    // ray; the exact sign check must refuse it.
    let mut bad = farkas.ray.clone();
    bad[0] = 1.0;
    let findings = audit_farkas(&model, &bad);
    assert_deny_audit_findings(&findings, "corrupted ray");
    assert!(
        findings.iter().any(|f| f.pass == PASS_FARKAS),
        "{findings:?}"
    );
}
