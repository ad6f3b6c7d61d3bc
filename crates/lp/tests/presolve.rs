//! Focused coverage of the presolve `Infeasible` path: every way a model
//! can be proven hopeless without a single pivot, plus the boundaries of
//! what the bit-exact reductions deliberately do *not* catch.

use lubt_lp::{presolve, Cmp, LinExpr, LpSolve, Model, Presolved, RevisedSolver, Status, Var};

fn expr(terms: &[(Var, f64)]) -> LinExpr {
    LinExpr::from_terms(terms.iter().copied())
}

#[test]
fn empty_rows_with_unsatisfiable_rhs_are_infeasible() {
    // 0 >= 3
    let mut m = Model::new();
    let _ = m.add_var(0.0, 1.0);
    m.add_constraint(LinExpr::new(), Cmp::Ge, 3.0);
    assert_eq!(presolve(&m), Presolved::Infeasible);

    // 0 <= -2
    let mut m = Model::new();
    let _ = m.add_var(0.0, 1.0);
    m.add_constraint(LinExpr::new(), Cmp::Le, -2.0);
    assert_eq!(presolve(&m), Presolved::Infeasible);

    // 0 == 1
    let mut m = Model::new();
    let _ = m.add_var(0.0, 1.0);
    m.add_constraint(LinExpr::new(), Cmp::Eq, 1.0);
    assert_eq!(presolve(&m), Presolved::Infeasible);
}

#[test]
fn cancelling_terms_reduce_to_an_empty_infeasible_row() {
    // x - x == 2 canonicalizes to 0 == 2.
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    m.add_constraint(expr(&[(x, 1.0), (x, -1.0)]), Cmp::Eq, 2.0);
    assert_eq!(presolve(&m), Presolved::Infeasible);

    // 2x - x - x >= 0.5 likewise.
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    m.add_constraint(expr(&[(x, 2.0), (x, -1.0), (x, -1.0)]), Cmp::Ge, 0.5);
    assert_eq!(presolve(&m), Presolved::Infeasible);
}

#[test]
fn contradictory_equalities_survive_term_reordering() {
    // x + y == 4 and y + x == 5 collide after canonical sorting.
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    let y = m.add_var(0.0, 1.0);
    m.add_constraint(expr(&[(x, 1.0), (y, 1.0)]), Cmp::Eq, 4.0);
    m.add_constraint(expr(&[(y, 1.0), (x, 1.0)]), Cmp::Eq, 5.0);
    assert_eq!(presolve(&m), Presolved::Infeasible);
}

#[test]
fn contradictory_equalities_survive_term_combining() {
    // x == 1 and (0.5x + 0.5x) == 2: identical after combining duplicate
    // terms (0.5 + 0.5 is exact in binary), so the cross-check fires.
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    m.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 1.0);
    m.add_constraint(expr(&[(x, 0.5), (x, 0.5)]), Cmp::Eq, 2.0);
    assert_eq!(presolve(&m), Presolved::Infeasible);
}

#[test]
fn nearly_equal_empty_row_rhs_is_tolerated() {
    // 0 == 1e-12 is within the presolve tolerance: dropped, not flagged.
    let mut m = Model::new();
    let _ = m.add_var(0.0, 1.0);
    m.add_constraint(LinExpr::new(), Cmp::Eq, 1e-12);
    match presolve(&m) {
        Presolved::Reduced { rows_removed, .. } => assert_eq!(rows_removed, 1),
        Presolved::Infeasible => panic!("1e-12 should be within tolerance"),
    }
}

#[test]
fn scaled_contradictions_are_left_for_the_solver() {
    // x == 1 and 2x == 4 contradict, but their canonical signatures differ
    // (coefficients 1.0 vs 2.0), so the bit-exact presolve passes them
    // through — and the simplex then certifies infeasibility. This pins
    // down the division of labor between presolve and solver.
    let mut m = Model::new();
    let x = m.add_var(0.0, 1.0);
    m.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 1.0);
    m.add_constraint(expr(&[(x, 2.0)]), Cmp::Eq, 4.0);
    match presolve(&m) {
        Presolved::Reduced {
            model,
            rows_removed,
        } => {
            assert_eq!(rows_removed, 0);
            assert_eq!(model.num_constraints(), 2);
            let sol = RevisedSolver::new().solve(&model).unwrap();
            assert_eq!(sol.status(), Status::Infeasible);
        }
        Presolved::Infeasible => panic!("bit-exact dedup must not merge scaled rows"),
    }
}

#[test]
fn presolve_verdict_matches_the_simplex_on_the_original_model() {
    // Whenever presolve says Infeasible, the untouched model must agree.
    let build = |rhs: f64| {
        let mut m = Model::new();
        let x = m.add_var(0.0, 1.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, 2.0);
        m.add_constraint(expr(&[(x, 1.0)]), Cmp::Eq, rhs);
        m
    };
    let contradictory = build(3.0);
    assert_eq!(presolve(&contradictory), Presolved::Infeasible);
    let sol = RevisedSolver::new().solve(&contradictory).unwrap();
    assert_eq!(sol.status(), Status::Infeasible);

    let consistent = build(2.0);
    assert!(matches!(
        presolve(&consistent),
        Presolved::Reduced {
            rows_removed: 1,
            ..
        }
    ));
    let sol = RevisedSolver::new().solve(&consistent).unwrap();
    assert_eq!(sol.status(), Status::Optimal);
}
