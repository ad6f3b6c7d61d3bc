//! Cross-crate integration tests: the full LUBT pipeline against the
//! baselines, on seeded synthetic instances.

use lubt::baselines::{bounded_skew_tree, star_wirelength, zero_skew_tree};
use lubt::core::{DelayBounds, EbfSolver, LubtBuilder, LubtError, LubtProblem};
use lubt::data::synthetic;
use lubt::delay::linear::tree_cost;
use lubt::geom::diameter;

/// Table 1 protocol, strict form: LUBT on the baseline's topology and
/// window never costs more than the baseline.
#[test]
fn lubt_undercuts_baseline_on_its_own_window() {
    let inst = synthetic::prim1().subsample(20);
    let radius = inst.radius();
    for skew_norm in [0.0, 0.1, 0.5, 2.0] {
        let bst = bounded_skew_tree(&inst.sinks, inst.source, skew_norm * radius).unwrap();
        let (short, long) = bst.delay_range();
        let problem = LubtProblem::new(
            inst.sinks.clone(),
            inst.source,
            bst.topology.clone(),
            DelayBounds::uniform(inst.sinks.len(), short, long),
        )
        .unwrap();
        let (lengths, _) = EbfSolver::new().solve(&problem).unwrap();
        let lubt_cost = tree_cost(&lengths);
        let tol = 1e-6 * (1.0 + bst.cost());
        assert!(
            lubt_cost <= bst.cost() + tol,
            "skew {skew_norm}: LUBT {lubt_cost} > baseline {}",
            bst.cost()
        );
    }
}

/// §4.6 cross-validation: the zero-skew closed form and the general LP at
/// `l = u` agree on cost (both are optimal for the same problem).
#[test]
fn zero_skew_closed_form_matches_lp() {
    let inst = synthetic::r1().subsample(16);
    let src = inst.source.unwrap();
    let zst = zero_skew_tree(&inst.sinks, Some(src), None, None).unwrap();
    let problem = LubtProblem::new(
        inst.sinks.clone(),
        Some(src),
        zst.topology.clone(),
        DelayBounds::zero_skew(inst.sinks.len(), zst.delay),
    )
    .unwrap();
    let (lengths, _) = EbfSolver::new().solve(&problem).unwrap();
    let lp_cost = tree_cost(&lengths);
    let scale = 1.0 + zst.cost();
    assert!(
        (lp_cost - zst.cost()).abs() / scale < 1e-6,
        "closed form {} vs LP {}",
        zst.cost(),
        lp_cost
    );
}

/// Cost is monotone in the bounds: relaxing the window never increases the
/// optimum (Theorem 4.2 corollary).
#[test]
fn cost_is_monotone_in_window() {
    let inst = synthetic::prim2().subsample(18);
    let src = inst.source.unwrap();
    let radius = inst.radius();
    let topo =
        lubt::topology::nearest_neighbor_topology(&inst.sinks, lubt::topology::SourceMode::Given);
    let mut last = f64::INFINITY;
    // Successively wider windows around the radius.
    for half_width in [0.0, 0.05, 0.15, 0.4, 1.0] {
        let l = (1.0 - half_width) * 1.2 * radius;
        let u = (1.0 + half_width) * 1.2 * radius;
        let problem = LubtProblem::new(
            inst.sinks.clone(),
            Some(src),
            topo.clone(),
            DelayBounds::uniform(inst.sinks.len(), l, u),
        )
        .unwrap();
        let (lengths, _) = EbfSolver::new().solve(&problem).unwrap();
        let cost = tree_cost(&lengths);
        assert!(
            cost <= last + 1e-6 * (1.0 + last.min(1e18)),
            "window +-{half_width}: cost {cost} > previous {last}"
        );
        last = cost;
    }
}

/// The unconstrained optimum is sandwiched between the trivial bounds:
/// diameter <= cost <= star wirelength.
#[test]
fn steiner_optimum_respects_trivial_bounds() {
    let inst = synthetic::r3().subsample(15);
    let src = inst.source.unwrap();
    let sol = LubtBuilder::new(inst.sinks.clone())
        .source(src)
        .bounds(DelayBounds::unbounded(inst.sinks.len()))
        .solve()
        .unwrap();
    sol.verify().unwrap();
    let diam = diameter(inst.sinks.iter().copied());
    assert!(sol.cost() >= diam - 1e-6);
    assert!(sol.cost() <= star_wirelength(src, &inst.sinks) + 1e-6);
}

/// Infeasibility is certified, not mis-solved: a delay cap below the
/// source-sink distance (violating Equation 3) is now caught by the
/// pre-solve lint hook, which names the unreachable sinks without ever
/// building the LP.
#[test]
fn equation_3_violations_are_rejected_with_diagnostics() {
    let inst = synthetic::prim1().subsample(10);
    let src = inst.source.unwrap();
    let radius = inst.radius();
    let r = LubtBuilder::new(inst.sinks.clone())
        .source(src)
        .bounds(DelayBounds::upper_only(inst.sinks.len(), 0.5 * radius))
        .solve();
    match r {
        Err(LubtError::Rejected(diags)) => {
            assert!(diags
                .iter()
                .any(|d| d.pass == "sink-reachability" && d.is_deny()));
        }
        other => panic!("expected Rejected with diagnostics, got {other:?}"),
    }
}

/// Full pipeline on every synthetic benchmark at small scale: solve,
/// verify, and confirm the routed wirelength equals the LP cost.
#[test]
fn all_benchmarks_solve_and_verify() {
    for inst in synthetic::paper_benchmarks() {
        let inst = inst.subsample(12);
        let radius = inst.radius();
        let sol = LubtBuilder::new(inst.sinks.clone())
            .source(inst.source.unwrap())
            .bounds(DelayBounds::uniform(
                inst.sinks.len(),
                0.9 * radius,
                1.4 * radius,
            ))
            .solve()
            .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
        sol.verify()
            .unwrap_or_else(|e| panic!("{}: {e}", inst.name));
        assert!(
            (sol.routed_wirelength() - sol.cost()).abs() < 1e-6 * (1.0 + sol.cost()),
            "{}: routed {} vs cost {}",
            inst.name,
            sol.routed_wirelength(),
            sol.cost()
        );
    }
}

/// The exact DP backend drives the full pipeline on every synthetic
/// benchmark at small scale: it solves, verifies, routes its cost, and
/// lands on the revised simplex backend's optimum.
#[test]
fn dp_backend_matches_the_pipeline_on_all_benchmarks() {
    use lubt::core::SolverBackend;
    for inst in synthetic::paper_benchmarks() {
        let inst = inst.subsample(8);
        let radius = inst.radius();
        let builder = |backend| {
            LubtBuilder::new(inst.sinks.clone())
                .source(inst.source.unwrap())
                .bounds(DelayBounds::uniform(
                    inst.sinks.len(),
                    0.9 * radius,
                    1.4 * radius,
                ))
                .backend(backend)
                .solve()
                .unwrap_or_else(|e| panic!("{}: {e}", inst.name))
        };
        let dp = builder(SolverBackend::Dp);
        dp.verify().unwrap_or_else(|e| panic!("{}: {e}", inst.name));
        assert!(
            (dp.routed_wirelength() - dp.cost()).abs() < 1e-6 * (1.0 + dp.cost()),
            "{}: routed {} vs cost {}",
            inst.name,
            dp.routed_wirelength(),
            dp.cost()
        );
        let lp = builder(SolverBackend::Revised);
        assert!(
            (dp.cost() - lp.cost()).abs() < 1e-6 * (1.0 + lp.cost()),
            "{}: dp cost {} vs revised cost {}",
            inst.name,
            dp.cost(),
            lp.cost()
        );
    }
}

/// Non-uniform edge weights through the DP backend: the exact oracle must
/// optimize the *weighted* objective, not merely find a feasible tree, so
/// its weighted cost matches the revised simplex backend's.
#[test]
fn dp_backend_optimizes_weighted_objectives() {
    use lubt::core::{EbfReport, SolverBackend};
    let inst = synthetic::prim2().subsample(9);
    let src = inst.source.unwrap();
    let radius = inst.radius();
    let base = LubtBuilder::new(inst.sinks.clone())
        .source(src)
        .bounds(DelayBounds::uniform(
            inst.sinks.len(),
            0.8 * radius,
            1.3 * radius,
        ))
        .build()
        .unwrap();
    let n = base.topology().num_nodes();
    // Skewed weights: odd-numbered edges are five times as expensive.
    let weights: Vec<f64> = (0..n).map(|v| if v % 2 == 1 { 5.0 } else { 1.0 }).collect();
    let weighted = base.with_weights(weights.clone()).unwrap();
    let weighted_cost =
        |lengths: &[f64]| -> f64 { lengths.iter().zip(&weights).map(|(l, w)| l * w).sum() };
    let solve = |backend| -> (Vec<f64>, EbfReport) {
        EbfSolver::new()
            .with_backend(backend)
            .solve(&weighted)
            .unwrap()
    };
    let (dp_lengths, _) = solve(SolverBackend::Dp);
    let (lp_lengths, _) = solve(SolverBackend::Revised);
    let (dp_cost, lp_cost) = (weighted_cost(&dp_lengths), weighted_cost(&lp_lengths));
    assert!(
        (dp_cost - lp_cost).abs() < 1e-6 * (1.0 + lp_cost),
        "weighted: dp {dp_cost} vs revised {lp_cost}"
    );
}

/// Weighted objectives (§7): scaling all weights leaves the solution
/// essentially unchanged, while skewed weights shift wire away from the
/// heavy edges.
#[test]
fn weighted_objective_scales_and_shifts() {
    let inst = synthetic::prim2().subsample(10);
    let src = inst.source.unwrap();
    let radius = inst.radius();
    let base = LubtBuilder::new(inst.sinks.clone())
        .source(src)
        .bounds(DelayBounds::uniform(
            inst.sinks.len(),
            0.8 * radius,
            1.3 * radius,
        ))
        .build()
        .unwrap();
    let (l1, _) = EbfSolver::new().solve(&base).unwrap();
    let n = base.topology().num_nodes();
    // Uniform scaling: same optimum (cost function scaled by 3).
    let scaled = base.clone().with_weights(vec![3.0; n]).unwrap();
    let (l2, _) = EbfSolver::new().solve(&scaled).unwrap();
    assert!((tree_cost(&l1) - tree_cost(&l2)).abs() < 1e-5 * (1.0 + tree_cost(&l1)));
}
