//! Presolve equivalence under exact auditing.
//!
//! The presolve reductions (row dedup, binding-rhs merge, trivial-row
//! resolution) must be *invisible* to the solver's answer: raw and reduced
//! models agree on status and objective to 1e-9, and — the stronger claim —
//! both produce certificates that verify in exact rational arithmetic. A
//! presolve bug that nudged a rhs or dropped a binding row would surface
//! here as a certificate that no longer proves anything.

use lubt_audit::audit_solution;
use lubt_lp::{presolve, Cmp, LinExpr, Model, Presolved, RevisedSolver, Status};
use proptest::prelude::*;

/// A covering LP (`min c'x, A x >= b`, `A >= 0`, `c > 0` — always feasible
/// and bounded) with deliberately duplicated rows as presolve fodder.
fn covering_model(
    rows: &[(Vec<u8>, f64)],
    dups: &[(usize, f64)],
    costs: &[f64],
    n: usize,
) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|i| m.add_var(0.0, costs[i])).collect();
    let mut added: Vec<(LinExpr, f64)> = Vec::new();
    for (coefs, rhs) in rows {
        let e: LinExpr = vars
            .iter()
            .enumerate()
            .filter(|&(i, _)| coefs[i] > 0)
            .map(|(i, &v)| (v, f64::from(coefs[i])))
            .collect();
        if e.terms().is_empty() {
            continue;
        }
        m.add_constraint(e.clone(), Cmp::Ge, *rhs);
        added.push((e, *rhs));
    }
    for &(k, shift) in dups {
        if added.is_empty() {
            break;
        }
        let (e, rhs) = &added[k % added.len()];
        m.add_constraint(e.clone(), Cmp::Ge, rhs + shift);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn presolve_preserves_status_objective_and_certificates(
        n in 2usize..6,
        rows in proptest::collection::vec(
            (proptest::collection::vec(0u8..3, 6), 1.0..9.0f64), 1..6),
        dups in proptest::collection::vec((0usize..8, -2.0..2.0f64), 0..4),
        costs in proptest::collection::vec(0.5..3.0f64, 6),
    ) {
        let m = covering_model(&rows, &dups, &costs, n);
        prop_assume!(m.num_constraints() > 0);
        let reduced = match presolve(&m) {
            Presolved::Reduced { model, .. } => model,
            Presolved::Infeasible => unreachable!("covering LPs are feasible"),
        };
        let solve = |mm: &Model| RevisedSolver::new().solve_certified(mm).unwrap();
        let (raw, raw_cert) = solve(&m);
        let (red, red_cert) = solve(&reduced);
        prop_assert_eq!(raw.status(), Status::Optimal);
        prop_assert_eq!(red.status(), Status::Optimal);
        let scale = 1.0 + raw.objective().abs();
        prop_assert!(
            (raw.objective() - red.objective()).abs() / scale < 1e-9,
            "raw {} vs presolved {}",
            raw.objective(), red.objective()
        );
        let f = audit_solution(&m, &raw, raw_cert.as_ref());
        prop_assert!(f.is_empty(), "raw audit {:?}", f);
        let f = audit_solution(&reduced, &red, red_cert.as_ref());
        prop_assert!(f.is_empty(), "presolved audit {:?}", f);
    }

    #[test]
    fn presolve_preserves_infeasibility_with_verifying_rays(
        n in 1usize..4,
        gap in 0.5..5.0f64,
        cap in 1.0..10.0f64,
        dup in 0usize..3,
    ) {
        // `x0 <= cap` (several copies) against `x0 >= cap + gap`: infeasible,
        // but never *detected* by presolve (the senses differ), so both the
        // raw and reduced models must hand the solver an exactly verifying
        // Farkas ray.
        let mut m = Model::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_var(0.0, 1.0)).collect();
        for _ in 0..=dup {
            m.add_constraint(LinExpr::from_terms([(vars[0], 1.0)]), Cmp::Le, cap);
        }
        m.add_constraint(LinExpr::from_terms([(vars[0], 1.0)]), Cmp::Ge, cap + gap);
        let reduced = match presolve(&m) {
            Presolved::Reduced { model, .. } => model,
            Presolved::Infeasible => unreachable!("presolve cannot cross senses"),
        };
        prop_assert_eq!(reduced.num_constraints(), 2);
        for (label, model) in [("raw", &m), ("presolved", &reduced)] {
            let (sol, cert) = RevisedSolver::new().solve_certified(model).unwrap();
            prop_assert_eq!(sol.status(), Status::Infeasible, "{}", label);
            let f = audit_solution(model, &sol, cert.as_ref());
            prop_assert!(f.is_empty(), "{}: {:?}", label, f);
        }
    }
}
