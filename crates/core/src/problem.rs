use crate::ebf::{EbfSolver, SolverBackend, SteinerMode};
use crate::embed::{embed_tree, embed_tree_traced, PlacementPolicy};
use crate::{DelayBounds, LubtError, LubtSolution};
use lubt_geom::Point;
use lubt_obs::{Recorder, SolveTrace, TraceRecorder};
use lubt_topology::{nearest_neighbor_topology, NodeId, SourceMode, Topology};
use std::sync::Arc;

/// A fully specified LUBT instance: sink locations, optional source
/// location, rooted topology, per-sink delay bounds, and (optionally)
/// per-edge objective weights and zero-fixed edges.
///
/// Construct via [`LubtProblem::new`] for full control or [`LubtBuilder`]
/// for the common path.
#[derive(Debug, Clone)]
pub struct LubtProblem {
    sinks: Vec<Point>,
    source: Option<Point>,
    topology: Topology,
    bounds: DelayBounds,
    weights: Vec<f64>,
    zero_edges: Vec<NodeId>,
}

impl LubtProblem {
    /// Validates and assembles a problem.
    ///
    /// # Errors
    ///
    /// Returns [`LubtError::Input`] when the pieces disagree: sink counts,
    /// bound counts, non-finite coordinates, topology root degree
    /// incompatible with the presence/absence of a source, or out-of-range
    /// zero-edge ids.
    pub fn new(
        sinks: Vec<Point>,
        source: Option<Point>,
        topology: Topology,
        bounds: DelayBounds,
    ) -> Result<Self, LubtError> {
        if sinks.is_empty() {
            return Err(LubtError::Input("no sinks".to_string()));
        }
        if sinks.len() != topology.num_sinks() {
            return Err(LubtError::Input(format!(
                "{} sink locations but topology has {} sinks",
                sinks.len(),
                topology.num_sinks()
            )));
        }
        if bounds.len() != sinks.len() {
            return Err(LubtError::Input(format!(
                "{} bounds for {} sinks",
                bounds.len(),
                sinks.len()
            )));
        }
        for (i, p) in sinks.iter().enumerate() {
            if !p.is_finite() {
                return Err(LubtError::Input(format!("sink {} is not finite", i + 1)));
            }
        }
        if let Some(s) = source {
            if !s.is_finite() {
                return Err(LubtError::Input("source is not finite".to_string()));
            }
        }
        let weights = vec![1.0; topology.num_nodes()];
        Ok(LubtProblem {
            sinks,
            source,
            topology,
            bounds,
            weights,
            zero_edges: Vec::new(),
        })
    }

    /// Replaces the per-edge objective weights (§7 "different weights on
    /// edges"). `weights[i]` weighs edge `e_i`; index 0 is unused.
    ///
    /// # Errors
    ///
    /// Returns [`LubtError::Input`] on length mismatch or non-finite /
    /// negative weights.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Result<Self, LubtError> {
        if weights.len() != self.topology.num_nodes() {
            return Err(LubtError::Input(format!(
                "{} weights for {} nodes",
                weights.len(),
                self.topology.num_nodes()
            )));
        }
        if weights.iter().skip(1).any(|w| !w.is_finite() || *w < 0.0) {
            return Err(LubtError::Input(
                "edge weights must be finite and non-negative".to_string(),
            ));
        }
        self.weights = weights;
        Ok(self)
    }

    /// Declares edges whose length is fixed to zero (the splitting edges of
    /// [`lubt_topology::split_degree_four`]).
    ///
    /// # Errors
    ///
    /// Returns [`LubtError::Input`] for out-of-range edge ids.
    pub fn with_zero_edges(mut self, zero_edges: Vec<NodeId>) -> Result<Self, LubtError> {
        for e in &zero_edges {
            if e.index() == 0 || e.index() >= self.topology.num_nodes() {
                return Err(LubtError::Input(format!("zero edge {e} out of range")));
            }
        }
        self.zero_edges = zero_edges;
        Ok(self)
    }

    /// Sink locations (sink `i` in this slice is node `i + 1`).
    pub fn sinks(&self) -> &[Point] {
        &self.sinks
    }

    /// Source location, when given.
    pub fn source(&self) -> Option<Point> {
        self.source
    }

    /// The rooted topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The delay bounds.
    pub fn bounds(&self) -> &DelayBounds {
        &self.bounds
    }

    /// Per-edge objective weights (`weights()[i]` weighs `e_i`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Edges fixed to zero length.
    pub fn zero_edges(&self) -> &[NodeId] {
        &self.zero_edges
    }

    /// Whether the source participates ([`SourceMode::Given`]) or the
    /// embedding chooses it ([`SourceMode::Free`]).
    pub fn source_mode(&self) -> SourceMode {
        if self.source.is_some() {
            SourceMode::Given
        } else {
            SourceMode::Free
        }
    }

    /// Location of a sink node.
    ///
    /// # Panics
    ///
    /// Panics when `node` is not a sink of the topology.
    pub fn sink_location(&self, node: NodeId) -> Point {
        assert!(self.topology.is_sink(node), "{node} is not a sink");
        self.sinks[node.index() - 1]
    }

    /// The paper's radius: source-to-farthest-sink distance (source given)
    /// or half the sink diameter (source free). All table bounds are
    /// normalized by this quantity.
    pub fn radius(&self) -> f64 {
        match self.source {
            Some(s) => lubt_delay::skew::radius_with_source(s, &self.sinks),
            None => lubt_delay::skew::radius_free(&self.sinks),
        }
    }

    /// The borrowed view lint passes consume, with an optional LP model
    /// attached for the `model-conditioning` pass.
    fn lint_input<'a>(&'a self, model: Option<&'a lubt_lp::Model>) -> lubt_lint::LintInput<'a> {
        lubt_lint::LintInput {
            sinks: &self.sinks,
            source: self.source,
            topology: &self.topology,
            source_mode: self.source_mode(),
            lower: self.bounds.lowers(),
            upper: self.bounds.uppers(),
            model,
        }
    }

    /// Statically analyzes the problem with the default lint registry,
    /// including the model-level passes over the same LP a lazy EBF solve
    /// would start from ([`crate::ebf_model`]). Nothing is solved.
    ///
    /// # Example
    ///
    /// ```
    /// use lubt_core::{DelayBounds, LubtBuilder};
    /// use lubt_geom::Point;
    /// let p = LubtBuilder::new(vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
    ///     .source(Point::new(4.0, 0.0))
    ///     .bounds(DelayBounds::upper_only(2, 3.0)) // below the radius 4
    ///     .build()?;
    /// let diags = p.lint();
    /// assert!(lubt_lint::has_deny(&diags));
    /// # Ok::<(), lubt_core::LubtError>(())
    /// ```
    pub fn lint(&self) -> Vec<lubt_lint::Diagnostic> {
        self.lint_with(&lubt_lint::LintRegistry::default())
    }

    /// Statically analyzes the problem with a caller-configured registry
    /// (pass levels overridden, passes disabled, extra passes added).
    pub fn lint_with(&self, registry: &lubt_lint::LintRegistry) -> Vec<lubt_lint::Diagnostic> {
        let model = crate::ebf::ebf_model(self);
        registry.run(&self.lint_input(Some(&model)))
    }

    /// Instance-level diagnostics only (no LP assembled): what the
    /// pre-solve hook in [`EbfSolver::solve`] consults. Cheap — O(m^2)
    /// distance arithmetic at worst.
    pub(crate) fn prelint_diagnostics(&self) -> Vec<lubt_lint::Diagnostic> {
        lubt_lint::LintRegistry::default().run(&self.lint_input(None))
    }

    /// Solves with the default pipeline: lazy-constraint EBF on the revised
    /// simplex backend, then geometric embedding with closest-to-parent placement.
    ///
    /// # Errors
    ///
    /// [`LubtError::Rejected`] when the pre-solve lint hook proves no LUBT
    /// exists, [`LubtError::Infeasible`] when the LP certifies it;
    /// solver/embedding errors otherwise.
    pub fn solve(&self) -> Result<LubtSolution, LubtError> {
        let (lengths, report) = EbfSolver::new().solve(self)?;
        let positions = embed_tree(
            &self.topology,
            &self.sinks,
            self.source,
            &lengths,
            PlacementPolicy::ClosestToParent,
        )?;
        Ok(LubtSolution::new(self.clone(), lengths, positions, report))
    }

    /// [`LubtProblem::solve`] with the whole pipeline — LP, separation
    /// oracle, embedder — recorded into a [`SolveTrace`], returned
    /// alongside the result (also on failure, with whatever counters had
    /// accumulated). The solution itself is bit-for-bit identical to the
    /// untraced path; see `DESIGN.md` §10 for what in the trace is and is
    /// not deterministic.
    pub fn solve_traced(&self) -> (Result<LubtSolution, LubtError>, SolveTrace) {
        let rec = Arc::new(TraceRecorder::new());
        let result = (|| {
            let solver = EbfSolver::new().with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
            let (lengths, report) = solver.solve(self)?;
            let positions = embed_tree_traced(
                &self.topology,
                &self.sinks,
                self.source,
                &lengths,
                PlacementPolicy::ClosestToParent,
                &*rec,
            )?;
            Ok(LubtSolution::new(self.clone(), lengths, positions, report))
        })();
        (result, rec.snapshot())
    }
}

/// How [`LubtBuilder`] obtains a topology when none is supplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyStrategy {
    /// Nearest-neighbor merge (the paper's generator family). Default.
    #[default]
    NearestNeighbor,
    /// Recursive geometric matching (balanced trees).
    Matching,
    /// Balanced recursive bisection (H-tree-like structure).
    Bisection,
    /// Bound-aware nearest-neighbor merge (the §9 future-work generator):
    /// pairs clusters by distance *plus* arrival-window compatibility.
    /// Most useful with heterogeneous per-sink windows.
    BoundAware,
}

/// Ergonomic front door to the LUBT pipeline.
///
/// Mandatory: sinks and bounds. Optional: a source location (otherwise the
/// embedding places the driver), an explicit topology (otherwise generated
/// per [`TopologyStrategy`]), solver backend, Steiner-constraint strategy
/// and placement policy.
///
/// # Example
///
/// ```
/// use lubt_core::{DelayBounds, LubtBuilder};
/// use lubt_geom::Point;
/// let sol = LubtBuilder::new(vec![Point::new(0.0, 0.0), Point::new(8.0, 0.0)])
///     .bounds(DelayBounds::uniform(2, 4.0, 6.0))
///     .solve()?;
/// assert!(sol.cost() >= 8.0 - 1e-6); // the sinks are 8 apart
/// # Ok::<(), lubt_core::LubtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LubtBuilder {
    sinks: Vec<Point>,
    source: Option<Point>,
    topology: Option<Topology>,
    strategy: TopologyStrategy,
    bounds: Option<DelayBounds>,
    weights: Option<Vec<f64>>,
    backend: SolverBackend,
    steiner_mode: SteinerMode,
    placement: PlacementPolicy,
    threads: usize,
    max_lp_iterations: Option<usize>,
    audit: bool,
    prelint: bool,
}

impl LubtBuilder {
    /// Starts a builder over the given sink locations.
    pub fn new(sinks: Vec<Point>) -> Self {
        LubtBuilder {
            sinks,
            source: None,
            topology: None,
            strategy: TopologyStrategy::default(),
            bounds: None,
            weights: None,
            backend: SolverBackend::Revised,
            steiner_mode: SteinerMode::default_lazy(),
            placement: PlacementPolicy::ClosestToParent,
            threads: 1,
            max_lp_iterations: None,
            audit: false,
            prelint: true,
        }
    }

    /// Pins the source location.
    #[must_use]
    pub fn source(mut self, source: Point) -> Self {
        self.source = Some(source);
        self
    }

    /// Uses an explicit topology instead of generating one.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Selects the generator used when no explicit topology is supplied
    /// (default: nearest-neighbor merge).
    #[must_use]
    pub fn topology_strategy(mut self, strategy: TopologyStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the delay bounds (required).
    #[must_use]
    pub fn bounds(mut self, bounds: DelayBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Sets per-edge objective weights.
    #[must_use]
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Selects the LP backend (default: revised simplex).
    #[must_use]
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the Steiner-constraint strategy (default: lazy separation).
    #[must_use]
    pub fn steiner_mode(mut self, mode: SteinerMode) -> Self {
        self.steiner_mode = mode;
        self
    }

    /// Selects the top-down placement policy (default: closest-to-parent).
    #[must_use]
    pub fn placement(mut self, policy: PlacementPolicy) -> Self {
        self.placement = policy;
        self
    }

    /// Sets the intra-solve worker count (`0` = all available cores,
    /// default `1`): the separation oracle and, on the revised backend,
    /// the assisted pricing scans. The solution is identical for every
    /// value — see [`EbfSolver::with_threads`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Caps the pivot count of every LP (re-)solve — see
    /// [`EbfSolver::with_max_lp_iterations`]. Exhaustion fails the solve
    /// with a [`lubt_lp::LpError::IterationLimit`] that
    /// [`LubtError::diagnostic`] renders as a lint-style finding.
    #[must_use]
    pub fn max_lp_iterations(mut self, limit: usize) -> Self {
        self.max_lp_iterations = Some(limit);
        self
    }

    /// Enables the exact certificate audit for the whole pipeline (off by
    /// default): every LP outcome is verified against its optimality
    /// certificate or Farkas ray ([`EbfSolver::with_audit`]), and the
    /// final embedding's sink pathlengths are re-derived in exact
    /// arithmetic ([`LubtSolution::audit_tree`]). A failed audit surfaces
    /// as [`LubtError::Audit`] with deny-level `audit-*` diagnostics.
    #[must_use]
    pub fn audit(mut self, enabled: bool) -> Self {
        self.audit = enabled;
        self
    }

    /// Enables or disables the pre-solve lint hook (on by default) — see
    /// [`EbfSolver::with_prelint`]. Disabling it lets a hopeless instance
    /// reach the LP, whose infeasibility certificate (a Farkas ray, exactly
    /// verified under [`LubtBuilder::audit`]) then speaks for itself.
    #[must_use]
    pub fn prelint(mut self, enabled: bool) -> Self {
        self.prelint = enabled;
        self
    }

    /// Builds the [`LubtProblem`] without solving (exposes the generated
    /// topology for inspection or reuse).
    ///
    /// # Errors
    ///
    /// [`LubtError::Input`] when the pieces are inconsistent or bounds are
    /// missing.
    pub fn build(&self) -> Result<LubtProblem, LubtError> {
        let bounds = self
            .bounds
            .clone()
            .ok_or_else(|| LubtError::Input("bounds are required".to_string()))?;
        let mode = if self.source.is_some() {
            SourceMode::Given
        } else {
            SourceMode::Free
        };
        let topology = match &self.topology {
            Some(t) => t.clone(),
            None => match self.strategy {
                TopologyStrategy::NearestNeighbor => nearest_neighbor_topology(&self.sinks, mode),
                TopologyStrategy::Matching => lubt_topology::matching_topology(&self.sinks, mode),
                TopologyStrategy::Bisection => {
                    lubt_topology::bipartition_topology(&self.sinks, mode)
                }
                TopologyStrategy::BoundAware => {
                    crate::bound_aware_topology(&self.sinks, self.source, &bounds)?
                }
            },
        };
        let mut p = LubtProblem::new(self.sinks.clone(), self.source, topology, bounds)?;
        if let Some(w) = &self.weights {
            p = p.with_weights(w.clone())?;
        }
        Ok(p)
    }

    /// Builds and solves.
    ///
    /// # Errors
    ///
    /// See [`LubtProblem::solve`].
    pub fn solve(&self) -> Result<LubtSolution, LubtError> {
        self.solve_recorded(lubt_obs::noop())
    }

    /// [`LubtBuilder::solve`] with the configured pipeline recorded into a
    /// [`SolveTrace`], returned alongside the result (also on failure).
    /// This is what `lubt solve --trace-json` calls.
    pub fn solve_traced(&self) -> (Result<LubtSolution, LubtError>, SolveTrace) {
        let rec = Arc::new(TraceRecorder::new());
        let result = self.solve_recorded(Arc::clone(&rec) as Arc<dyn Recorder>);
        (result, rec.snapshot())
    }

    /// [`LubtBuilder::solve`], additionally retaining the converged LP
    /// session (when the configured pipeline produces one — lazy Steiner
    /// mode on the revised backend, audit off) as a [`WarmLubtSession`].
    ///
    /// The handle re-derives the *entire* solution — lengths from the
    /// retained basis with zero pivots, then the deterministic embedding
    /// — so [`WarmLubtSession::resolve`] is bit-identical to this call's
    /// solution. This is the warm path behind `lubt serve`'s session
    /// pool.
    ///
    /// # Errors
    ///
    /// See [`LubtProblem::solve`].
    pub fn solve_retaining(&self) -> Result<(LubtSolution, Option<WarmLubtSession>), LubtError> {
        self.solve_retaining_recorded(lubt_obs::noop())
    }

    /// [`LubtBuilder::solve_retaining`] with the pipeline recorded into
    /// `rec` — how the serve workers feed cold-solve counters into the
    /// live `/metrics` aggregate. Tracing never changes results (the §9
    /// contract), so the retained session stays bit-compatible with
    /// untraced solves.
    ///
    /// # Errors
    ///
    /// See [`LubtProblem::solve`].
    pub fn solve_retaining_recorded(
        &self,
        rec: Arc<dyn Recorder>,
    ) -> Result<(LubtSolution, Option<WarmLubtSession>), LubtError> {
        let problem = self.build()?;
        let mut solver = EbfSolver::new()
            .with_backend(self.backend)
            .with_steiner_mode(self.steiner_mode)
            .with_threads(self.threads)
            .with_audit(self.audit)
            .with_prelint(self.prelint)
            .with_recorder(Arc::clone(&rec));
        if let Some(limit) = self.max_lp_iterations {
            solver = solver.with_max_lp_iterations(limit);
        }
        let (lengths, report, warm) = solver.solve_retaining(&problem)?;
        let positions = embed_tree_traced(
            problem.topology(),
            problem.sinks(),
            problem.source(),
            &lengths,
            self.placement,
            &*rec,
        )?;
        let solution = LubtSolution::new(problem.clone(), lengths, positions, report);
        if self.audit {
            let findings = solution.audit_tree();
            if !findings.is_empty() {
                return Err(LubtError::Audit(findings));
            }
            // Audited solves are not retained: a warm replay would skip
            // the per-request certificate verification that `audit`
            // promises, so the audit surface always solves cold.
            return Ok((solution, None));
        }
        let warm = warm.map(|ebf| WarmLubtSession {
            ebf,
            problem,
            placement: self.placement,
        });
        Ok((solution, warm))
    }

    /// [`LubtBuilder::solve`] with the pipeline recorded into a
    /// caller-supplied recorder — the hook behind `--trace-event-cap`
    /// and `--profile`, where the CLI owns the [`TraceRecorder`] (custom
    /// event cap, span exports) and snapshots it itself.
    ///
    /// # Errors
    ///
    /// See [`LubtProblem::solve`].
    pub fn solve_recorded(&self, rec: Arc<dyn Recorder>) -> Result<LubtSolution, LubtError> {
        let problem = self.build()?;
        let mut solver = EbfSolver::new()
            .with_backend(self.backend)
            .with_steiner_mode(self.steiner_mode)
            .with_threads(self.threads)
            .with_audit(self.audit)
            .with_prelint(self.prelint)
            .with_recorder(Arc::clone(&rec));
        if let Some(limit) = self.max_lp_iterations {
            solver = solver.with_max_lp_iterations(limit);
        }
        let (lengths, report) = solver.solve(&problem)?;
        let positions = embed_tree_traced(
            problem.topology(),
            problem.sinks(),
            problem.source(),
            &lengths,
            self.placement,
            &*rec,
        )?;
        let solution = LubtSolution::new(problem, lengths, positions, report);
        if self.audit {
            // §5 embedding audit: exact pathlengths vs delay windows.
            let findings = {
                let _t = lubt_obs::PhaseTimer::new(&*rec, "time.audit");
                solution.audit_tree()
            };
            if !findings.is_empty() {
                if rec.enabled() {
                    rec.incr("audit.failures", findings.len() as u64);
                }
                return Err(LubtError::Audit(findings));
            }
            if rec.enabled() {
                rec.incr("audit.tree_verified", 1);
            }
        }
        Ok(solution)
    }
}

/// A solved problem kept warm for repeat requests: the converged LP
/// session plus everything needed to re-derive the full [`LubtSolution`]
/// deterministically.
///
/// Produced by [`LubtBuilder::solve_retaining`]; consumed by the serve
/// layer's session pool. [`WarmLubtSession::resolve`] replays the
/// retained basis (zero pivots), re-runs the deterministic embedding, and
/// returns a solution bit-identical to the original — the foundation of
/// the cold/cached/warm byte-identity contract (DESIGN.md §15).
#[derive(Debug)]
pub struct WarmLubtSession {
    ebf: crate::ebf::WarmEbfSession,
    problem: LubtProblem,
    placement: PlacementPolicy,
}

impl WarmLubtSession {
    /// Re-derives the solution from the retained basis.
    ///
    /// # Errors
    ///
    /// See [`crate::WarmEbfSession::resolve_lengths`]; embedding errors
    /// cannot occur on lengths the original solve already embedded.
    pub fn resolve(&mut self) -> Result<LubtSolution, LubtError> {
        let lengths = self.ebf.resolve_lengths()?;
        let positions = embed_tree(
            self.problem.topology(),
            self.problem.sinks(),
            self.problem.source(),
            &lengths,
            self.placement,
        )?;
        Ok(LubtSolution::new(
            self.problem.clone(),
            lengths,
            positions,
            self.ebf.report().clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_sinks() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
        ]
    }

    #[test]
    fn warm_session_replays_are_bit_identical() {
        let builder = LubtBuilder::new(square_sinks())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .backend(SolverBackend::Revised);
        let (cold, warm) = builder.solve_retaining().expect("feasible");
        let mut warm = warm.expect("lazy revised solves retain their session");
        // Replay twice: the session must stay resolvable and exact.
        for _ in 0..2 {
            let replay = warm.resolve().expect("warm replay");
            assert_eq!(replay.edge_lengths(), cold.edge_lengths());
            assert_eq!(replay.positions(), cold.positions());
            assert_eq!(
                crate::solution_to_json(&replay),
                crate::solution_to_json(&cold),
                "serialized bytes must match"
            );
        }
        // The retained report describes the original solve.
        assert_eq!(warm.ebf.report(), cold.report());
        // Paths that cannot retain a session say so instead of lying.
        let (_, warm) = LubtBuilder::new(square_sinks())
            .bounds(DelayBounds::uniform(4, 10.0, 16.0))
            .backend(SolverBackend::Dp)
            .solve_retaining()
            .expect("feasible");
        assert!(warm.is_none(), "dp has no incremental session");
        let (_, warm) = LubtBuilder::new(square_sinks())
            .bounds(DelayBounds::uniform(4, 10.0, 16.0))
            .audit(true)
            .solve_retaining()
            .expect("feasible");
        assert!(warm.is_none(), "audited solves are never retained");
    }

    #[test]
    fn problem_validation() {
        let topo = nearest_neighbor_topology(&square_sinks(), SourceMode::Free);
        // Mismatched bound count.
        assert!(matches!(
            LubtProblem::new(
                square_sinks(),
                None,
                topo.clone(),
                DelayBounds::unbounded(3)
            ),
            Err(LubtError::Input(_))
        ));
        // Mismatched sink count.
        assert!(matches!(
            LubtProblem::new(
                square_sinks()[..2].to_vec(),
                None,
                topo.clone(),
                DelayBounds::unbounded(2)
            ),
            Err(LubtError::Input(_))
        ));
        // Valid.
        let p = LubtProblem::new(square_sinks(), None, topo, DelayBounds::unbounded(4)).unwrap();
        assert_eq!(p.source_mode(), SourceMode::Free);
        assert_eq!(p.radius(), 10.0); // diameter 20 / 2
    }

    #[test]
    fn audited_pipeline_matches_unaudited_and_verifies_everything() {
        let builder = LubtBuilder::new(square_sinks())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 12.0, 15.0));
        let base = builder.clone().solve().unwrap();
        let (result, trace) = builder.audit(true).solve_traced();
        let audited = result.unwrap();
        assert_eq!(audited.edge_lengths(), base.edge_lengths());
        assert_eq!(audited.positions(), base.positions());
        assert!(trace.counter("audit.optimality_verified") >= 1, "{trace:?}");
        assert_eq!(trace.counter("audit.tree_verified"), 1);
        assert_eq!(trace.counter("audit.failures"), 0);
    }

    #[test]
    fn weights_and_zero_edges_validated() {
        let topo = nearest_neighbor_topology(&square_sinks(), SourceMode::Free);
        let n = topo.num_nodes();
        let p = LubtProblem::new(square_sinks(), None, topo, DelayBounds::unbounded(4)).unwrap();
        assert!(p.clone().with_weights(vec![1.0; n + 1]).is_err());
        assert!(p.clone().with_weights(vec![-1.0; n]).is_err());
        assert!(p.clone().with_weights(vec![2.0; n]).is_ok());
        assert!(p.clone().with_zero_edges(vec![NodeId(0)]).is_err());
        assert!(p.clone().with_zero_edges(vec![NodeId(n)]).is_err());
        assert!(p.with_zero_edges(vec![NodeId(n - 1)]).is_ok());
    }

    #[test]
    fn builder_requires_bounds() {
        assert!(matches!(
            LubtBuilder::new(square_sinks()).build(),
            Err(LubtError::Input(_))
        ));
    }

    #[test]
    fn builder_generates_topology_matching_source_mode() {
        let p = LubtBuilder::new(square_sinks())
            .bounds(DelayBounds::unbounded(4))
            .build()
            .unwrap();
        assert!(p.topology().is_binary(SourceMode::Free));

        let p = LubtBuilder::new(square_sinks())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::unbounded(4))
            .build()
            .unwrap();
        assert!(p.topology().is_binary(SourceMode::Given));
        assert_eq!(p.radius(), 10.0);
    }

    #[test]
    fn topology_strategies_all_solve() {
        let radius = 10.0; // square diag/... radius with center source is 10
        for strategy in [
            TopologyStrategy::NearestNeighbor,
            TopologyStrategy::Matching,
            TopologyStrategy::Bisection,
            TopologyStrategy::BoundAware,
        ] {
            let sol = LubtBuilder::new(square_sinks())
                .source(Point::new(5.0, 5.0))
                .bounds(DelayBounds::uniform(4, 0.9 * radius, 1.5 * radius))
                .topology_strategy(strategy)
                .solve()
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            sol.verify().unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        }
    }

    #[test]
    fn builder_zero_threads_is_clamped_to_all_cores() {
        // `threads(0)` is the library's "all cores" sentinel (matching
        // BatchSolver and EbfSolver); only the CLI rejects a literal 0.
        let sol = LubtBuilder::new(square_sinks())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .threads(0)
            .solve()
            .unwrap();
        let base = LubtBuilder::new(square_sinks())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 10.0, 14.0))
            .threads(1)
            .solve()
            .unwrap();
        assert_eq!(sol.edge_lengths(), base.edge_lengths());
        assert_eq!(sol.positions(), base.positions());
    }

    #[test]
    fn traced_solve_matches_untraced_and_fills_the_trace() {
        let builder = LubtBuilder::new(square_sinks())
            .source(Point::new(5.0, 5.0))
            .bounds(DelayBounds::uniform(4, 10.0, 14.0));
        let plain = builder.solve().unwrap();
        let (traced, trace) = builder.solve_traced();
        let traced = traced.unwrap();
        assert_eq!(plain.edge_lengths(), traced.edge_lengths());
        assert_eq!(plain.positions(), traced.positions());
        assert_eq!(plain.report(), traced.report());
        assert!(!trace.is_empty());
        assert!(trace.counter("ebf.rounds") >= 1);
        assert!(trace.counter("embed.fr_constructions") >= 4);

        let problem = builder.build().unwrap();
        let (from_problem, trace2) = problem.solve_traced();
        assert_eq!(from_problem.unwrap().edge_lengths(), plain.edge_lengths());
        assert!(trace2.counter("ebf.rounds") >= 1);
    }

    #[test]
    fn sink_location_lookup() {
        let p = LubtBuilder::new(square_sinks())
            .bounds(DelayBounds::unbounded(4))
            .build()
            .unwrap();
        assert_eq!(p.sink_location(NodeId(3)), Point::new(0.0, 10.0));
    }
}
