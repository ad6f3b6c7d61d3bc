//! Differential testing of the sparse revised simplex against exact,
//! independent referees: on random LPs spanning all three outcomes
//! (optimal, infeasible, unbounded) every certified outcome must verify in
//! exact rational arithmetic under [`lubt_audit::audit_solution`] —
//! optimal solves through their dual certificates (primal and dual
//! feasibility, complementary slackness, objective), infeasible ones
//! through their Farkas rays. Unbounded claims are checked by an exactly
//! verified feasible point plus a box-bounded twin whose certified optimum
//! keeps falling as the box widens. The incremental session is held to
//! the cold solve of the same grown model, round by round.
//!
//! The final property widens the wall to the exact DP oracle: random
//! tree-structured systems (the LUBT shape — path-delay windows plus
//! pairwise separation rows on a random rooted tree) are expressed both as
//! an explicit LP [`Model`] and as a [`lubt_dp::DpInstance`], and the
//! revised simplex and the DP oracle must agree on status and objective.

use lubt_dp::{DpInstance, DpPair, DpSink, DpStatus};
use lubt_lp::{Cmp, LinExpr, Model, RevisedSession, RevisedSolver, Solution, Status, Var};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Integral coefficient grids keep the float arithmetic essentially exact,
/// so a 1e-9 objective comparison is meaningful and status flips at
/// tolerance boundaries cannot occur.
#[derive(Debug, Clone)]
struct RandRow {
    coefs: Vec<i8>,
    le: bool,
    rhs_quarters: i32,
}

impl RandRow {
    /// Rewrites the row into covering shape (`sum |a| x >= max(|b|, 1/4)`),
    /// which keeps a nonnegative-cost LP feasible and bounded.
    fn make_covering(&mut self) {
        for c in &mut self.coefs {
            *c = c.abs();
        }
        self.le = false;
        self.rhs_quarters = self.rhs_quarters.abs().max(1);
    }

    fn expr(&self, vars: &[Var]) -> LinExpr {
        vars.iter()
            .enumerate()
            .filter(|&(i, _)| self.coefs[i] != 0)
            .map(|(i, &v)| (v, f64::from(self.coefs[i])))
            .collect()
    }

    fn cmp(&self) -> Cmp {
        if self.le {
            Cmp::Le
        } else {
            Cmp::Ge
        }
    }

    fn rhs(&self) -> f64 {
        f64::from(self.rhs_quarters) / 4.0
    }
}

fn rand_row(width: usize) -> impl Strategy<Value = RandRow> {
    (
        proptest::collection::vec(-3i8..4, width),
        proptest::bool::ANY,
        -20i32..32,
    )
        .prop_map(|(coefs, le, rhs_quarters)| RandRow {
            coefs,
            le,
            rhs_quarters,
        })
}

fn build(n: usize, costs: &[i8], rows: &[RandRow]) -> (Model, Vec<Var>) {
    let mut m = Model::new();
    let vars: Vec<Var> = (0..n)
        .map(|i| m.add_var(0.0, f64::from(costs[i])))
        .collect();
    for row in rows {
        let e = row.expr(&vars);
        if e.terms().is_empty() {
            continue;
        }
        m.add_constraint(e, row.cmp(), row.rhs());
    }
    (m, vars)
}

/// Solves with the revised simplex and audits the outcome's certificate
/// exactly; any finding fails the case with the rendered diagnostics.
fn solve_audited(m: &Model) -> Result<Solution, TestCaseError> {
    let (sol, cert) = RevisedSolver::new()
        .solve_certified(m)
        .map_err(|e| TestCaseError::Fail(format!("revised: {e}")))?;
    let findings = lubt_audit::audit_solution(m, &sol, cert.as_ref());
    if findings.is_empty() {
        Ok(sol)
    } else {
        Err(TestCaseError::Fail(format!(
            "{:?} outcome (obj {}, {} iter) failed the exact audit: {}",
            sol.status(),
            sol.objective(),
            sol.iterations(),
            findings
                .iter()
                .map(|d| d.message.clone())
                .collect::<Vec<_>>()
                .join("; ")
        )))
    }
}

/// `m` with every variable's cost replaced by `cost(var)` and, when
/// `bound` is set, every variable boxed at `x_j <= lb_j + bound`.
fn twin(m: &Model, cost: impl Fn(Var) -> f64, bound: Option<f64>) -> Model {
    let mut t = Model::new();
    for v in m.vars() {
        t.add_var(m.lower_bound(v), cost(v));
    }
    for c in m.constraints() {
        t.add_constraint(c.expr().clone(), c.cmp(), c.rhs());
    }
    if let Some(bound) = bound {
        for v in m.vars() {
            let hi = m.lower_bound(v) + bound;
            t.add_constraint(LinExpr::from_terms([(v, 1.0)]), Cmp::Le, hi);
        }
    }
    t
}

/// Backs an `Unbounded` claim with exact evidence: the zero-cost twin of
/// `m` must be certified optimal (so `m` is feasible), and boxing every
/// variable must give certified optima that strictly fall as the box
/// doubles past every vertex of the small integral data.
fn check_unbounded(m: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        solve_audited(&twin(m, |_| 0.0, None))?.status(),
        Status::Optimal
    );
    let near = solve_audited(&twin(m, |v| m.cost(v), Some(1e3)))?;
    let far = solve_audited(&twin(m, |v| m.cost(v), Some(2e3)))?;
    prop_assert_eq!(near.status(), Status::Optimal);
    prop_assert_eq!(far.status(), Status::Optimal);
    prop_assert!(
        far.objective() < near.objective() - 1e-3,
        "boxed optima do not fall: {} at 1e3 vs {} at 2e3",
        near.objective(),
        far.objective()
    );
    Ok(())
}

/// A random rooted tree system in the LUBT shape: node 0 is the root,
/// `parents[v] < v`, every leaf-ish node carries a quarter-lattice delay
/// window, and sink pairs carry separation rows. Quarter-unit data keeps
/// all three backends exact, so a 1e-9 comparison is meaningful.
#[derive(Debug, Clone)]
struct TreeSystem {
    /// `parents[v]` for `v >= 1`; implicitly `parents[v] < v`.
    parents: Vec<usize>,
    /// Edge weight (quarters) of the edge into node `v`; entry 0 unused.
    weight_q: Vec<i32>,
    /// Per-sink `(node, lower_q, upper_q)` windows.
    windows: Vec<(usize, i32, i32)>,
    /// Pairwise separation `(a, b, dist_q)` rows between sink nodes.
    pairs: Vec<(usize, usize, i32)>,
    /// Nodes whose incoming edge is pinned to zero.
    zero_edges: Vec<usize>,
}

impl TreeSystem {
    fn num_nodes(&self) -> usize {
        self.parents.len()
    }

    /// Edge set (as node indices `>= 1`) of the tree path `a .. b`.
    fn path_edges(&self, a: usize, b: usize) -> Vec<usize> {
        let root_path = |mut v: usize| {
            let mut p = vec![v];
            while v != 0 {
                v = self.parents[v];
                p.push(v);
            }
            p
        };
        let (pa, pb) = (root_path(a), root_path(b));
        // Symmetric difference of the two root paths = the a..b path.
        let mut edges: Vec<usize> = pa
            .iter()
            .filter(|v| !pb.contains(v))
            .chain(pb.iter().filter(|v| !pa.contains(v)))
            .copied()
            .collect();
        edges.sort_unstable();
        edges
    }

    /// The explicit LP over edge-length variables, mirroring exactly the
    /// rows the DP instance implies (Ge only for positive lowers, Le only
    /// for finite uppers — here all uppers are finite).
    fn model(&self) -> Model {
        let mut m = Model::new();
        let vars: Vec<Var> = (0..self.num_nodes())
            .map(|v| {
                // The root's "incoming edge" variable exists only to keep
                // indices aligned with the DP's per-node lengths; it is in
                // no row and carries no cost.
                let cost = if v == 0 {
                    0.0
                } else {
                    f64::from(self.weight_q[v]) / 4.0
                };
                m.add_var(0.0, cost)
            })
            .collect();
        for &z in &self.zero_edges {
            m.add_constraint(
                [(vars[z], 1.0)].into_iter().collect::<LinExpr>(),
                Cmp::Eq,
                0.0,
            );
        }
        for &(node, lower_q, upper_q) in &self.windows {
            let path: LinExpr = self
                .path_edges(0, node)
                .into_iter()
                .map(|v| (vars[v], 1.0))
                .collect();
            if lower_q > 0 {
                m.add_constraint(path.clone(), Cmp::Ge, f64::from(lower_q) / 4.0);
            }
            m.add_constraint(path, Cmp::Le, f64::from(upper_q) / 4.0);
        }
        for &(a, b, dist_q) in &self.pairs {
            let edges = self.path_edges(a, b);
            if edges.is_empty() {
                continue;
            }
            let e: LinExpr = edges.into_iter().map(|v| (vars[v], 1.0)).collect();
            m.add_constraint(e, Cmp::Ge, f64::from(dist_q) / 4.0);
        }
        m
    }

    /// The same system as the DP oracle's plain-data instance.
    fn dp_instance(&self) -> DpInstance {
        DpInstance {
            parents: self.parents.clone(),
            root: 0,
            weights: self
                .weight_q
                .iter()
                .take(self.num_nodes())
                .map(|&w| f64::from(w) / 4.0)
                .collect(),
            zero_edges: self.zero_edges.clone(),
            sinks: self
                .windows
                .iter()
                .map(|&(node, lower_q, upper_q)| DpSink {
                    node,
                    lower: f64::from(lower_q) / 4.0,
                    upper: f64::from(upper_q) / 4.0,
                })
                .collect(),
            pairs: self
                .pairs
                .iter()
                .map(|&(a, b, dist_q)| DpPair {
                    a,
                    b,
                    dist: f64::from(dist_q) / 4.0,
                })
                .collect(),
        }
    }
}

fn tree_system() -> impl Strategy<Value = TreeSystem> {
    (
        // Raw material; prop_map folds it into a valid rooted tree.
        proptest::collection::vec(0u32..u32::MAX, 2..7), // parent picks
        proptest::collection::vec(0i32..9, 7),           // edge weights (quarters)
        proptest::collection::vec((0i32..60, 0i32..40), 7), // windows (lower, width)
        proptest::collection::vec(0i32..30, 24),         // pair separations
        0u32..8,                                         // zero-edge mask over nodes 1..
    )
        .prop_map(|(picks, weight_q, raw_windows, pair_dists, zero_mask)| {
            let n = picks.len() + 1;
            let parents: Vec<usize> = std::iter::once(0)
                .chain(
                    picks
                        .iter()
                        .enumerate()
                        .map(|(i, &p)| (p as usize) % (i + 1)),
                )
                .collect();
            // Sinks are the childless nodes — the LUBT shape.
            let sinks: Vec<usize> = (1..n).filter(|&v| !parents[1..].contains(&v)).collect();
            let windows = sinks
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let (lo, w) = raw_windows[i % raw_windows.len()];
                    (s, lo, lo + w)
                })
                .collect();
            let mut pairs = Vec::new();
            let mut k = 0;
            for i in 0..sinks.len() {
                for j in i + 1..sinks.len() {
                    pairs.push((sinks[i], sinks[j], pair_dists[k % pair_dists.len()]));
                    k += 1;
                }
            }
            let zero_edges = (1..n).filter(|&v| zero_mask >> (v - 1) & 1 == 1).collect();
            TreeSystem {
                parents,
                weight_q,
                windows,
                pairs,
                zero_edges,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random mixed-sense LPs with signed costs naturally span optimal,
    /// infeasible and unbounded outcomes; each must be proven exactly.
    #[test]
    fn revised_outcomes_verify_exactly_on_random_mixed_lps(
        n in 1usize..6,
        costs in proptest::collection::vec(-3i8..4, 6),
        rows in proptest::collection::vec(rand_row(6), 0..8),
    ) {
        let (m, _) = build(n, &costs, &rows);
        let sol = solve_audited(&m)?;
        match sol.status() {
            Status::Optimal => prop_assert!(m.check_feasible(sol.values(), 1e-6).is_ok()),
            Status::Infeasible => {}
            Status::Unbounded => check_unbounded(&m)?,
        }
    }

    /// Covering LPs (always optimal) pin the pure phase-1 + phase-2 path
    /// to an exactly verified optimum.
    #[test]
    fn revised_optima_verify_exactly_on_covering_lps(
        n in 2usize..8,
        costs in proptest::collection::vec(1i8..4, 8),
        rows in proptest::collection::vec(rand_row(8), 1..8),
    ) {
        let mut rows = rows;
        for row in &mut rows {
            row.make_covering();
        }
        let (m, _) = build(n, &costs, &rows);
        prop_assume!(m.num_constraints() > 0);
        prop_assert_eq!(solve_audited(&m)?.status(), Status::Optimal);
    }

    /// The incremental session must track cold solves across separation
    /// rounds: after every batch of appended rows, the dual-repaired
    /// outcome matches a cold two-phase solve of the grown model in
    /// status and (when optimal) objective to 1e-9, and the session's own
    /// certificate verifies exactly.
    #[test]
    fn session_matches_cold_solves_across_incremental_rounds(
        n in 2usize..6,
        costs in proptest::collection::vec(1i8..4, 6),
        seed_rows in proptest::collection::vec(rand_row(6), 1..4),
        append_rounds in proptest::collection::vec(
            proptest::collection::vec(rand_row(6), 1..3), 1..4),
    ) {
        // Covering-shaped base keeps the seed optimal so the session
        // starts growable; appended rows are unrestricted and may drive
        // the model infeasible — in which case the session must latch.
        let mut base_rows = seed_rows;
        for row in &mut base_rows {
            row.make_covering();
        }
        let (mut grown, vars) = build(n, &costs, &base_rows);
        prop_assume!(grown.num_constraints() > 0);
        let mut session = RevisedSession::start_with(grown.clone(), RevisedSolver::new())
            .map_err(|e| TestCaseError::Fail(format!("session start: {e}")))?;
        for (round, batch) in append_rounds.iter().enumerate() {
            for row in batch {
                let e = row.expr(&vars);
                if e.terms().is_empty() {
                    continue;
                }
                grown.add_constraint(e.clone(), row.cmp(), row.rhs());
                session
                    .add_constraint(e, row.cmp(), row.rhs())
                    .map_err(|e| TestCaseError::Fail(format!("session add: {e}")))?;
            }
            let warm = session
                .resolve()
                .map_err(|e| TestCaseError::Fail(format!("session resolve: {e}")))?
                .clone();
            let findings =
                lubt_audit::audit_solution(session.model(), &warm, session.certificate().as_ref());
            prop_assert!(
                findings.is_empty(),
                "round {}: session certificate rejected: {:?}",
                round,
                findings
            );
            let cold = solve_audited(&grown)?;
            prop_assert_eq!(
                warm.status(),
                cold.status(),
                "round {}: session {:?} vs cold {:?}",
                round,
                warm.status(),
                cold.status()
            );
            if cold.status() == Status::Optimal {
                prop_assert!(
                    (warm.objective() - cold.objective()).abs()
                        <= 1e-9 * (1.0 + cold.objective().abs()),
                    "round {}: session obj {} vs cold obj {}",
                    round,
                    warm.objective(),
                    cold.objective()
                );
            }
        }
    }

    /// Tree-structured systems, two independent ways: the windows +
    /// separation rows solved by the revised simplex as an explicit LP
    /// (its certificate audited exactly), and by the exact DP oracle from
    /// the plain-data instance. Both must agree on status, and on the
    /// objective to 1e-9 when optimal; the DP's edge lengths must
    /// additionally be feasible for the explicit model.
    #[test]
    fn revised_and_dp_agree_on_tree_systems(sys in tree_system()) {
        let m = sys.model();
        let revised = solve_audited(&m)?;
        let dp = lubt_dp::solve(&sys.dp_instance(), 1 << 20)
            .map_err(|e| TestCaseError::Fail(format!("dp: {e}")))?;
        match dp.status {
            DpStatus::Optimal => {
                prop_assert_eq!(
                    revised.status(),
                    Status::Optimal,
                    "LP says {:?}, exact DP says optimal (obj {})",
                    revised.status(),
                    dp.objective
                );
                prop_assert!(
                    (revised.objective() - dp.objective).abs()
                        <= 1e-9 * (1.0 + revised.objective().abs()),
                    "LP obj {} vs exact DP obj {} on {:?}",
                    revised.objective(),
                    dp.objective,
                    sys
                );
                prop_assert!(
                    m.check_feasible(&dp.lengths, 1e-6).is_ok(),
                    "DP lengths violate the explicit model: {:?}",
                    dp.lengths
                );
            }
            DpStatus::Infeasible => {
                prop_assert_eq!(
                    revised.status(),
                    Status::Infeasible,
                    "LP says {:?}, exact DP says infeasible",
                    revised.status()
                );
            }
        }
    }
}
