//! Warm-started dual-simplex re-solves: correctness against cold solves on
//! growing models (the lazy-separation pattern).

use lubt_lp::{Cmp, LinExpr, LpSolve, Model, RevisedSolver, Status};

fn expr(terms: &[(lubt_lp::Var, f64)]) -> LinExpr {
    LinExpr::from_terms(terms.iter().copied())
}

#[test]
fn warm_resolve_matches_cold_on_growing_model() {
    // Covering LP grown one row at a time.
    let mut m = Model::new();
    let n = 6;
    let vars = m.add_vars(n, 0.0, 1.0);
    m.add_constraint(
        LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
        Cmp::Ge,
        10.0,
    );
    let solver = RevisedSolver::new();
    let (sol, mut warm) = solver.solve_warm(&m, None).unwrap();
    assert_eq!(sol.status(), Status::Optimal);

    // Append rows; re-solve warm and cold; compare.
    let rows: &[(&[usize], f64)] = &[
        (&[0, 1], 5.0),
        (&[2, 3, 4], 7.0),
        (&[0, 5], 4.0),
        (&[1, 2], 6.0),
        (&[3, 5], 9.0),
    ];
    for (idx, &(cols, rhs)) in rows.iter().enumerate() {
        let e = LinExpr::from_terms(cols.iter().map(|&c| (vars[c], 1.0)));
        m.add_constraint(e, Cmp::Ge, rhs);
        let (warm_sol, next) = solver.solve_warm(&m, warm.as_ref()).unwrap();
        let cold_sol = solver.solve(&m).unwrap();
        assert_eq!(warm_sol.status(), Status::Optimal, "row {idx}");
        assert!(
            (warm_sol.objective() - cold_sol.objective()).abs() < 1e-7,
            "row {idx}: warm {} vs cold {}",
            warm_sol.objective(),
            cold_sol.objective()
        );
        assert!(
            m.check_feasible(warm_sol.values(), 1e-6).is_ok(),
            "row {idx}"
        );
        // Warm restarts should be much cheaper than the cold solve once
        // the model has some size (not asserted strictly — just recorded
        // via iteration counts staying small).
        assert!(
            warm_sol.iterations() <= cold_sol.iterations() + 5,
            "row {idx}"
        );
        warm = next;
        assert!(warm.is_some(), "row {idx}: basis should stay reusable");
    }
}

#[test]
fn warm_detects_infeasibility_of_appended_row() {
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    m.add_constraint(expr(&[(x, 1.0)]), Cmp::Le, 3.0);
    let solver = RevisedSolver::new();
    let (_, warm) = solver.solve_warm(&m, None).unwrap();
    // Contradicts the first row.
    m.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 5.0);
    let (sol, _) = solver.solve_warm(&m, warm.as_ref()).unwrap();
    assert_eq!(sol.status(), Status::Infeasible);
}

#[test]
fn mismatched_token_falls_back_to_cold() {
    let mut m1 = Model::new();
    let x = m1.add_var(0.0, 1.0);
    m1.add_constraint(expr(&[(x, 1.0)]), Cmp::Ge, 2.0);
    let solver = RevisedSolver::new();
    let (_, warm) = solver.solve_warm(&m1, None).unwrap();

    // Different variable count: token must be ignored, not misapplied.
    let mut m2 = Model::new();
    let a = m2.add_var(0.0, 1.0);
    let b = m2.add_var(0.0, 1.0);
    m2.add_constraint(expr(&[(a, 1.0), (b, 1.0)]), Cmp::Ge, 3.0);
    let (sol, _) = solver.solve_warm(&m2, warm.as_ref()).unwrap();
    assert_eq!(sol.status(), Status::Optimal);
    assert!((sol.objective() - 3.0).abs() < 1e-7);
}

#[test]
fn appended_equality_rows_fall_back_cleanly() {
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    let y = m.add_var(0.0, 1.0);
    m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 2.0);
    let solver = RevisedSolver::new();
    let (_, warm) = solver.solve_warm(&m, None).unwrap();
    m.add_constraint(expr(&[(x, 1.0), (y, -1.0)]), Cmp::Eq, 1.0);
    let (sol, _) = solver.solve_warm(&m, warm.as_ref()).unwrap();
    assert_eq!(sol.status(), Status::Optimal);
    // x + y = 2, x - y = 1 -> x = 1.5, y = 0.5.
    assert!((sol.value(x) - 1.5).abs() < 1e-7);
    assert!((sol.value(y) - 0.5).abs() < 1e-7);
}

#[test]
fn unchanged_model_resolves_in_zero_pivots() {
    let mut m = Model::new();
    let vars = m.add_vars(4, 0.0, 1.0);
    m.add_constraint(
        LinExpr::from_terms(vars.iter().map(|&v| (v, 1.0))),
        Cmp::Ge,
        8.0,
    );
    let solver = RevisedSolver::new();
    let (_, warm) = solver.solve_warm(&m, None).unwrap();
    let (sol, _) = solver.solve_warm(&m, warm.as_ref()).unwrap();
    assert_eq!(sol.iterations(), 0, "old optimum must be recognized");
    assert!((sol.objective() - 8.0).abs() < 1e-7);
}
