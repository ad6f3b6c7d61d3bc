//! The §7 Elmore-delay extension of the EBF, solved by sequential linear
//! programming (SLP).
//!
//! Under the Elmore model the delay constraints are quadratic in the edge
//! lengths; with active lower bounds the feasible set is non-convex, so the
//! paper prescribes a general nonlinear solver. This module implements a
//! trust-region SLP: each iteration linearizes the delay constraints at the
//! current point (exact gradients from [`lubt_delay::elmore`]), solves the
//! resulting LP (Steiner rows included), and accepts or rejects the step by
//! a violation-then-cost merit rule.

use crate::steiner::{seed_pairs, violated_pairs, SinkPair};
use crate::{LubtError, LubtProblem};
use lubt_delay::elmore::{delay_gradient, node_delays, ElmoreParams};
use lubt_lp::{Cmp, LinExpr, LpSolve, Model, RevisedSolver, Status};
use lubt_topology::NodeId;

/// Diagnostics from an Elmore-EBF solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ElmoreReport {
    /// Accepted + rejected SLP iterations performed.
    pub iterations: usize,
    /// Final total bound violation (sum over sinks, in delay units).
    pub violation: f64,
    /// Final tree cost (sum of edge lengths).
    pub cost: f64,
}

/// Sequential-LP solver for the Elmore-delay LUBT (§7).
///
/// The problem's [`crate::DelayBounds`] are interpreted in *Elmore* units.
/// Because the feasible set is non-convex for `l > 0`, the solver is a
/// heuristic: it reports the final residual violation instead of promising
/// optimality (matching the paper, which also resorts to a general NLP
/// method here). For `l = 0` the feasible set is convex and convergence is
/// reliable.
///
/// # Example
///
/// ```
/// use lubt_core::{DelayBounds, ElmoreEbf, LubtBuilder};
/// use lubt_delay::ElmoreParams;
/// use lubt_geom::Point;
/// let problem = LubtBuilder::new(vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
///     .source(Point::new(4.0, 0.0))
///     .bounds(DelayBounds::upper_only(2, 60.0)) // Elmore units
///     .build()?;
/// let params = ElmoreParams::uniform(1.0, 1.0, 0.5, 2);
/// let (lengths, report) = ElmoreEbf::new(params).solve(&problem)?;
/// assert!(report.violation < 1e-4);
/// assert!(lengths.iter().sum::<f64>() >= 8.0 - 1e-6);
/// # Ok::<(), lubt_core::LubtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ElmoreEbf {
    params: ElmoreParams,
    max_iterations: usize,
    violation_tol: f64,
}

impl ElmoreEbf {
    /// Creates a solver with the given electrical parameters.
    pub fn new(params: ElmoreParams) -> Self {
        ElmoreEbf {
            params,
            max_iterations: 60,
            violation_tol: 1e-6,
        }
    }

    /// Sets the SLP iteration budget (default 60).
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Total bound violation of `lengths` under the Elmore model.
    pub fn violation(&self, problem: &LubtProblem, lengths: &[f64]) -> f64 {
        let d = node_delays(problem.topology(), lengths, &self.params);
        let mut v = 0.0;
        for (i, s) in problem.topology().sinks().enumerate() {
            let dj = d[s.index()];
            v += (problem.bounds().lower(i) - dj).max(0.0);
            v += (dj - problem.bounds().upper(i)).max(0.0);
        }
        v
    }

    /// Runs the SLP.
    ///
    /// # Errors
    ///
    /// * [`LubtError::Infeasible`] when even the geometric (Steiner-only)
    ///   subproblem is infeasible, or no step with acceptable violation is
    ///   found and the residual exceeds the tolerance by a large factor.
    /// * [`LubtError::Lp`] on backend failure.
    pub fn solve(&self, problem: &LubtProblem) -> Result<(Vec<f64>, ElmoreReport), LubtError> {
        let topo = problem.topology();
        let n = topo.num_nodes();
        let m = topo.num_sinks();

        // Start from the minimum-wirelength (Steiner-only) tree: solve the
        // linear EBF with unbounded delays.
        let relaxed = LubtProblem::new(
            problem.sinks().to_vec(),
            problem.source(),
            topo.clone(),
            crate::DelayBounds::unbounded(m),
        )?
        .with_weights(problem.weights().to_vec())?
        .with_zero_edges(problem.zero_edges().to_vec())?;
        let (mut current, _) = crate::EbfSolver::new().solve(&relaxed)?;

        let radius = problem.radius().max(1.0);
        let mut trust = radius; // generous initial trust region
        let mut pool: Vec<SinkPair> = seed_pairs(problem);
        // Merit violation combines the Elmore bound residuals with the
        // Steiner residuals — otherwise a step could trade geometric
        // feasibility for cost and the repair step would always be
        // rejected as "more expensive".
        let total_violation = |lengths: &[f64]| -> f64 {
            self.violation(problem, lengths)
                + violated_pairs(problem, lengths, 0.0)
                    .iter()
                    .map(|(_, v)| v)
                    .sum::<f64>()
        };
        let mut best_v = total_violation(&current);
        let mut best_cost: f64 = current.iter().skip(1).sum();
        let mut iterations = 0usize;

        while iterations < self.max_iterations {
            iterations += 1;

            // Refresh the Steiner cut pool at the current point.
            for (pair, _) in violated_pairs(problem, &current, 1e-7 * radius) {
                if !pool.iter().any(|p| p.a == pair.a && p.b == pair.b) {
                    pool.push(pair);
                }
            }

            let delays = node_delays(topo, &current, &self.params);

            // ---- Build the linearized LP. ----
            let mut model = Model::new();
            let vars: Vec<_> = (1..n)
                .map(|j| model.add_var((current[j] - trust).max(0.0), problem.weights()[j]))
                .collect();
            let var_of = |node: NodeId| vars[node.index() - 1];
            for j in 1..n {
                model.add_constraint(
                    LinExpr::from_terms([(vars[j - 1], 1.0)]),
                    Cmp::Le,
                    current[j] + trust,
                );
            }
            for &z in problem.zero_edges() {
                model.add_constraint(LinExpr::from_terms([(var_of(z), 1.0)]), Cmp::Eq, 0.0);
            }
            for pair in &pool {
                let path = topo.path_between(pair.a, pair.b);
                let expr = LinExpr::from_terms(path.iter().map(|&e| (var_of(e), 1.0)));
                model.add_constraint(expr, Cmp::Ge, pair.dist);
            }
            // Source reachability (linear, exact).
            if let Some(src) = problem.source() {
                for s in topo.sinks() {
                    let path = topo.path_to_ancestor(s, topo.root());
                    let expr = LinExpr::from_terms(path.iter().map(|&e| (var_of(e), 1.0)));
                    model.add_constraint(expr, Cmp::Ge, src.dist(problem.sink_location(s)));
                }
            }
            // Linearized Elmore windows.
            for (i, s) in topo.sinks().enumerate() {
                let g = delay_gradient(topo, &current, &self.params, s);
                let g_dot_e0: f64 = (1..n).map(|j| g[j] * current[j]).sum();
                let d0 = delays[s.index()];
                let expr = || {
                    LinExpr::from_terms(
                        (1..n).filter(|&j| g[j] != 0.0).map(|j| (vars[j - 1], g[j])),
                    )
                };
                let l = problem.bounds().lower(i);
                let u = problem.bounds().upper(i);
                if l > 0.0 {
                    model.add_constraint(expr(), Cmp::Ge, l - d0 + g_dot_e0);
                }
                if u.is_finite() {
                    model.add_constraint(expr(), Cmp::Le, u - d0 + g_dot_e0);
                }
            }

            let sol = RevisedSolver::new().solve(&model)?;
            match sol.status() {
                Status::Optimal => {}
                Status::Infeasible => {
                    // The linearization can over-constrain; shrink and retry.
                    trust *= 0.5;
                    if trust < 1e-7 * radius {
                        break;
                    }
                    continue;
                }
                Status::Unbounded => {
                    return Err(LubtError::Lp(lubt_lp::LpError::NumericalBreakdown(
                        "trust-region subproblem cannot be unbounded".to_string(),
                    )))
                }
            }

            let mut candidate = vec![0.0; n];
            for j in 1..n {
                candidate[j] = sol.value(vars[j - 1]).max(0.0);
            }
            let v1 = total_violation(&candidate);
            let cost1: f64 = candidate.iter().skip(1).sum();
            let step: f64 = (1..n)
                .map(|j| (candidate[j] - current[j]).abs())
                .fold(0.0, f64::max);

            // Merit: violation first, then cost.
            let tol = self.violation_tol * radius;
            let accept = v1 < best_v - tol / 10.0
                || (v1 <= best_v + tol / 10.0 && cost1 < best_cost - tol / 10.0)
                || (iterations == 1 && v1 <= best_v + tol);
            if accept {
                current = candidate;
                best_v = v1;
                best_cost = cost1;
                trust = (trust * 1.5).min(radius * 4.0);
            } else {
                trust *= 0.5;
            }
            if best_v < tol && step < 1e-6 * radius {
                break;
            }
            if trust < 1e-7 * radius {
                break;
            }
        }

        let report = ElmoreReport {
            iterations,
            violation: best_v,
            cost: best_cost,
        };
        if best_v > self.violation_tol * radius * 100.0 {
            return Err(LubtError::Infeasible);
        }
        Ok((current, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayBounds, LubtBuilder};
    use lubt_geom::Point;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
        ]
    }

    fn elmore_bound_probe(sinks: &[Point], src: Point) -> f64 {
        // Elmore delay of the relaxed (min-wirelength) tree, used to pick
        // sensible test bounds.
        let p = LubtBuilder::new(sinks.to_vec())
            .source(src)
            .bounds(DelayBounds::unbounded(sinks.len()))
            .build()
            .unwrap();
        let params = ElmoreParams::uniform(0.1, 0.2, 1.0, sinks.len());
        let (lengths, _) = crate::EbfSolver::new().solve(&p).unwrap();
        let d = node_delays(p.topology(), &lengths, &params);
        p.topology()
            .sinks()
            .map(|s| d[s.index()])
            .fold(0.0, f64::max)
    }

    #[test]
    fn convex_case_upper_bounds_only() {
        let sinks = square();
        let src = Point::new(5.0, 5.0);
        let dmax = elmore_bound_probe(&sinks, src);
        let p = LubtBuilder::new(sinks.clone())
            .source(src)
            .bounds(DelayBounds::upper_only(4, dmax * 1.2))
            .build()
            .unwrap();
        let params = ElmoreParams::uniform(0.1, 0.2, 1.0, 4);
        let solver = ElmoreEbf::new(params.clone());
        let (lengths, report) = solver.solve(&p).unwrap();
        assert!(report.violation < 1e-4, "violation {}", report.violation);
        let d = node_delays(p.topology(), &lengths, &params);
        for s in p.topology().sinks() {
            assert!(d[s.index()] <= dmax * 1.2 + 1e-4);
        }
    }

    #[test]
    fn lower_bounds_force_elongation() {
        let sinks = vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)];
        let src = Point::new(4.0, 0.0);
        let dmax = elmore_bound_probe(&sinks, src);
        // Demand every sink be at least 1.5x slower than the fast tree, with
        // generous headroom above.
        let p = LubtBuilder::new(sinks)
            .source(src)
            .bounds(DelayBounds::uniform(2, dmax * 1.5, dmax * 4.0))
            .build()
            .unwrap();
        let params = ElmoreParams::uniform(0.1, 0.2, 1.0, 2);
        let solver = ElmoreEbf::new(params.clone());
        let (lengths, report) = solver.solve(&p).unwrap();
        assert!(report.violation < 1e-3, "violation {}", report.violation);
        let d = node_delays(p.topology(), &lengths, &params);
        for s in p.topology().sinks() {
            assert!(
                d[s.index()] >= dmax * 1.5 - 1e-3,
                "sink {s}: {} < {}",
                d[s.index()],
                dmax * 1.5
            );
        }
        // Elongation happened: the tree is longer than the minimum 8.
        let cost: f64 = lengths.iter().skip(1).sum();
        assert!(cost > 8.0 + 1e-6);
    }

    #[test]
    fn steiner_feasibility_is_preserved() {
        let sinks = square();
        let src = Point::new(5.0, 5.0);
        let dmax = elmore_bound_probe(&sinks, src);
        let p = LubtBuilder::new(sinks)
            .source(src)
            .bounds(DelayBounds::upper_only(4, dmax * 1.3))
            .build()
            .unwrap();
        let params = ElmoreParams::uniform(0.1, 0.2, 1.0, 4);
        let (lengths, _) = ElmoreEbf::new(params).solve(&p).unwrap();
        // No Steiner violations: the embedding must succeed.
        assert!(crate::embed_tree(
            p.topology(),
            p.sinks(),
            p.source(),
            &lengths,
            crate::PlacementPolicy::ClosestToParent
        )
        .is_ok());
    }
}
