//! Batched solving: many independent LUBT instances pushed through the
//! work-stealing pool of `lubt-par`.
//!
//! Each instance is one job; the pool load-balances across workers while
//! the result vector keeps input order. Per-instance solves use a
//! single-threaded separation oracle (the parallelism budget is spent
//! across instances, not inside one), so the answer for every instance is
//! bit-for-bit the same as a standalone [`EbfSolver::solve`] /
//! [`crate::LubtProblem::solve`] call — thread count only changes
//! wall-clock time.

use crate::ebf::{EbfReport, EbfSolver};
use crate::embed::{embed_tree_traced, PlacementPolicy};
use crate::{LubtError, LubtProblem, LubtSolution};
use lubt_obs::{AggregateTrace, Recorder, SolveTrace, TraceRecorder};
use std::sync::Arc;

/// Solves a slice of independent [`LubtProblem`]s in parallel.
///
/// # Example
///
/// ```
/// use lubt_core::{BatchSolver, DelayBounds, LubtBuilder};
/// use lubt_geom::Point;
/// let problems: Vec<_> = (0..4)
///     .map(|k| {
///         let d = 8.0 + k as f64;
///         LubtBuilder::new(vec![Point::new(0.0, 0.0), Point::new(d, 0.0)])
///             .bounds(DelayBounds::uniform(2, d / 2.0, d))
///             .build()
///     })
///     .collect::<Result<_, _>>()?;
/// let results = BatchSolver::new().with_threads(2).solve_all(&problems);
/// assert_eq!(results.len(), 4);
/// for r in &results {
///     assert!(r.as_ref().unwrap().verify().is_ok());
/// }
/// # Ok::<(), lubt_core::LubtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchSolver {
    solver: EbfSolver,
    placement: PlacementPolicy,
    threads: usize,
    event_cap: usize,
}

impl Default for BatchSolver {
    fn default() -> Self {
        BatchSolver {
            solver: EbfSolver::new(),
            placement: PlacementPolicy::ClosestToParent,
            threads: 0,
            event_cap: lubt_obs::DEFAULT_EVENT_CAP,
        }
    }
}

impl BatchSolver {
    /// A batch solver with the default EBF configuration, closest-to-parent
    /// placement, and one worker per available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (`0` = all available cores, `1` = solve the
    /// batch sequentially on the calling thread).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Replaces the per-instance EBF solver configuration.
    #[must_use]
    pub fn with_solver(mut self, solver: EbfSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Selects the top-down placement policy used by
    /// [`BatchSolver::solve_all`].
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Caps the number of `warning[...]`/`info[...]` trace events retained
    /// by the batch-level recorder of [`BatchSolver::solve_all_traced`].
    /// Overflow is counted, not silently dropped: the trace reports it as
    /// `warning[trace-events-dropped]`.
    #[must_use]
    pub fn with_event_cap(mut self, event_cap: usize) -> Self {
        self.event_cap = event_cap;
        self
    }

    /// The configured worker count (`0` = all cores).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves and embeds every instance; `results[i]` answers
    /// `problems[i]`.
    pub fn solve_all(&self, problems: &[LubtProblem]) -> Vec<Result<LubtSolution, LubtError>> {
        self.solve_all_recorded(problems, lubt_obs::noop())
    }

    /// [`BatchSolver::solve_all`] with batch-level metrics accumulated into
    /// a fresh recorder, returned as a [`SolveTrace`] alongside the
    /// results: every instance's `ebf.*`/`lp.*`/`embed.*` counters
    /// summed into one trace, the `par.*` scheduling counters of the batch
    /// loop itself, plus `batch.instances`, `batch.solved`, `batch.failed`.
    ///
    /// The results are bit-for-bit identical to [`BatchSolver::solve_all`]
    /// for every thread count; only the trace (timings, scheduling
    /// counters) varies between runs.
    #[allow(clippy::type_complexity)]
    pub fn solve_all_traced(
        &self,
        problems: &[LubtProblem],
    ) -> (Vec<Result<LubtSolution, LubtError>>, SolveTrace) {
        let rec = Arc::new(TraceRecorder::with_event_cap(self.event_cap));
        let results = self.solve_all_recorded(problems, Arc::clone(&rec) as Arc<dyn Recorder>);
        rec.incr("batch.instances", problems.len() as u64);
        let solved = results.iter().filter(|r| r.is_ok()).count() as u64;
        rec.incr("batch.solved", solved);
        rec.incr("batch.failed", problems.len() as u64 - solved);
        (results, rec.snapshot())
    }

    /// [`BatchSolver::solve_all`] with one *private* [`TraceRecorder`] per
    /// instance, returning the per-instance traces alongside an
    /// [`AggregateTrace`] folding all of them plus the batch loop's own
    /// scheduling counters.
    ///
    /// This is the aggregation hook behind `lubt bench`: unlike
    /// [`BatchSolver::solve_all_traced`], which sums every instance into
    /// one shared recorder, each solve here records in isolation, so the
    /// fold can also build per-solve histograms (pivots per instance,
    /// rounds per instance, …). Because instances are solved
    /// single-threaded inside the pool, `traces[i]` — and therefore the
    /// deterministic half of the aggregate — is bit-for-bit independent
    /// of the thread count; only timings and the aggregate's
    /// determinism-exempt section vary.
    #[allow(clippy::type_complexity)]
    pub fn solve_all_aggregated(
        &self,
        problems: &[LubtProblem],
    ) -> (
        Vec<Result<LubtSolution, LubtError>>,
        Vec<SolveTrace>,
        AggregateTrace,
    ) {
        // The outer pool records into its own recorder so scheduling noise
        // never lands inside a per-instance trace.
        let pool_rec = TraceRecorder::new();
        let outcomes = lubt_par::parallel_map_traced(
            self.threads,
            problems.len(),
            1,
            &pool_rec,
            |i| -> (Result<LubtSolution, LubtError>, SolveTrace) {
                let rec = Arc::new(TraceRecorder::new());
                let solver = self
                    .solver
                    .clone()
                    .with_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
                let problem = &problems[i];
                let result = solver.solve(problem).and_then(|(lengths, report)| {
                    let positions = embed_tree_traced(
                        problem.topology(),
                        problem.sinks(),
                        problem.source(),
                        &lengths,
                        self.placement,
                        &*rec,
                    )?;
                    Ok(LubtSolution::new(
                        problem.clone(),
                        lengths,
                        positions,
                        report,
                    ))
                });
                (result, rec.snapshot())
            },
        );
        let mut results = Vec::with_capacity(outcomes.len());
        let mut traces = Vec::with_capacity(outcomes.len());
        let mut aggregate = AggregateTrace::new();
        for (result, trace) in outcomes {
            aggregate.fold(&trace);
            results.push(result);
            traces.push(trace);
        }
        // Fold the batch loop's own scheduling counters last; the fold is
        // order-independent, so this cannot perturb the deterministic half.
        let solved = results.iter().filter(|r| r.is_ok()).count() as u64;
        pool_rec.incr("batch.instances", problems.len() as u64);
        pool_rec.incr("batch.solved", solved);
        pool_rec.incr("batch.failed", problems.len() as u64 - solved);
        let mut pool_agg = AggregateTrace::new();
        pool_agg.fold(&pool_rec.snapshot());
        pool_agg.solves = 0; // the pool snapshot is bookkeeping, not a solve
        aggregate.merge(&pool_agg);
        (results, traces, aggregate)
    }

    fn solve_all_recorded(
        &self,
        problems: &[LubtProblem],
        rec: Arc<dyn Recorder>,
    ) -> Vec<Result<LubtSolution, LubtError>> {
        // Per-instance solves share the batch recorder: the trace
        // aggregates over the whole batch. Counter increments commute, so
        // aggregation order cannot leak into the (Eq-compared) results.
        let solver = if rec.enabled() {
            self.solver.clone().with_recorder(Arc::clone(&rec))
        } else {
            self.solver.clone()
        };
        lubt_par::parallel_map_traced(self.threads, problems.len(), 1, &*rec, |i| {
            let problem = &problems[i];
            let (lengths, report) = solver.solve(problem)?;
            let positions = embed_tree_traced(
                problem.topology(),
                problem.sinks(),
                problem.source(),
                &lengths,
                self.placement,
                &*rec,
            )?;
            Ok(LubtSolution::new(
                problem.clone(),
                lengths,
                positions,
                report,
            ))
        })
    }

    /// LP layer only: optimal edge lengths and solve statistics per
    /// instance, no geometric embedding. What `lubt-bench` table
    /// reproduction consumes.
    #[allow(clippy::type_complexity)]
    pub fn solve_ebf_all(
        &self,
        problems: &[LubtProblem],
    ) -> Vec<Result<(Vec<f64>, EbfReport), LubtError>> {
        lubt_par::parallel_map(self.threads, problems.len(), 1, |i| {
            self.solver.solve(&problems[i])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayBounds, LubtBuilder};
    use lubt_geom::Point;

    fn mixed_batch() -> Vec<LubtProblem> {
        // Instance k = 2 sinks 2(k+4) apart; every other one gets an
        // impossible upper bound so the batch mixes Ok and Err.
        (0..8)
            .map(|k| {
                let d = 2.0 * (k + 4) as f64;
                let upper = if k % 2 == 0 { d } else { d / 8.0 };
                LubtBuilder::new(vec![Point::new(0.0, 0.0), Point::new(d, 0.0)])
                    .source(Point::new(d / 2.0, 0.0))
                    .bounds(DelayBounds::upper_only(2, upper))
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn results_keep_input_order_and_errors() {
        let problems = mixed_batch();
        let results = BatchSolver::new().with_threads(4).solve_all(&problems);
        assert_eq!(results.len(), problems.len());
        for (k, r) in results.iter().enumerate() {
            if k % 2 == 0 {
                let sol = r.as_ref().unwrap();
                assert!(sol.verify().is_ok());
                assert!((sol.cost() - 2.0 * (k + 4) as f64).abs() < 1e-6);
            } else {
                assert!(r.is_err(), "instance {k} should be infeasible");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_any_result() {
        let problems = mixed_batch();
        let base = BatchSolver::new().with_threads(1).solve_all(&problems);
        for threads in [2, 8, 0] {
            let other = BatchSolver::new()
                .with_threads(threads)
                .solve_all(&problems);
            for (b, o) in base.iter().zip(other.iter()) {
                match (b, o) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.edge_lengths(), y.edge_lengths());
                        assert_eq!(x.positions(), y.positions());
                        assert_eq!(x.report(), y.report());
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!("threads={threads}: Ok/Err mismatch"),
                }
            }
        }
    }

    #[test]
    fn ebf_only_path_matches_the_standalone_solver() {
        let problems = mixed_batch();
        let batch = BatchSolver::new().with_threads(2).solve_ebf_all(&problems);
        for (p, r) in problems.iter().zip(batch.iter()) {
            match (EbfSolver::new().solve(p), r) {
                (Ok((lengths, report)), Ok((bl, br))) => {
                    assert_eq!(&lengths, bl);
                    assert_eq!(&report, br);
                }
                (Err(_), Err(_)) => {}
                _ => panic!("batch and standalone disagree on feasibility"),
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(BatchSolver::new().solve_all(&[]).is_empty());
    }

    #[test]
    fn traced_batch_matches_untraced_results_and_counts() {
        let problems = mixed_batch();
        let plain = BatchSolver::new().with_threads(2).solve_all(&problems);
        let (traced, trace) = BatchSolver::new()
            .with_threads(2)
            .solve_all_traced(&problems);
        for (p, t) in plain.iter().zip(traced.iter()) {
            match (p, t) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.edge_lengths(), y.edge_lengths());
                    assert_eq!(x.positions(), y.positions());
                    assert_eq!(x.report(), y.report());
                }
                (Err(_), Err(_)) => {}
                _ => panic!("tracing changed feasibility"),
            }
        }
        assert_eq!(trace.counter("batch.instances"), 8);
        assert_eq!(trace.counter("batch.solved"), 4);
        assert_eq!(trace.counter("batch.failed"), 4);
        // The batch loop itself is one traced parallel loop over the 8
        // instances; the per-instance separation oracles add their own
        // `par.*` jobs on top.
        assert!(trace.counter("par.loops") >= 1);
        assert!(trace.counter("par.jobs") >= 8);
        // The per-instance solves fed the same trace: LP and embedder
        // counters aggregate across the whole batch.
        assert!(trace.counter("lp.solves") >= 4);
        assert!(trace.counter("embed.fr_constructions") >= 4);
    }

    #[test]
    fn traced_span_shape_is_identical_across_thread_counts() {
        let problems = mixed_batch();
        let (_, base) = BatchSolver::new()
            .with_threads(1)
            .solve_all_traced(&problems);
        let shape = base.spans.shape_text();
        assert!(shape.contains("solve/lp"), "shape: {shape}");
        assert!(shape.contains("embed"), "shape: {shape}");
        for threads in [2, 8] {
            let (_, other) = BatchSolver::new()
                .with_threads(threads)
                .solve_all_traced(&problems);
            assert_eq!(
                shape,
                other.spans.shape_text(),
                "span shape must not depend on thread count (threads={threads})"
            );
        }
    }

    #[test]
    fn aggregated_batch_matches_plain_results_and_folds_solver_counters() {
        let problems = mixed_batch();
        let plain = BatchSolver::new().with_threads(2).solve_all(&problems);
        let (results, traces, agg) = BatchSolver::new()
            .with_threads(2)
            .solve_all_aggregated(&problems);
        assert_eq!(results.len(), problems.len());
        assert_eq!(traces.len(), problems.len());
        for (p, t) in plain.iter().zip(results.iter()) {
            match (p, t) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.edge_lengths(), y.edge_lengths());
                    assert_eq!(x.positions(), y.positions());
                    assert_eq!(x.report(), y.report());
                }
                (Err(_), Err(_)) => {}
                _ => panic!("aggregation changed feasibility"),
            }
        }
        // One fold per instance plus the batch bookkeeping counters.
        assert_eq!(agg.solves, problems.len() as u64);
        assert_eq!(agg.counter("batch.instances"), 8);
        assert_eq!(agg.counter("batch.solved"), 4);
        assert_eq!(agg.counter("batch.failed"), 4);
        // The per-solve histogram has one sample per instance that reached
        // the LP (infeasible ones may be rejected by the pre-solve lint).
        assert!(agg.histogram("lp.solves").unwrap().count() >= 4);
        // Scheduling keys stay in the exempt section of the aggregate.
        assert_eq!(agg.counter("par.jobs"), 0);
        assert!(agg.sched_counters.contains_key("par.jobs"));
    }

    #[test]
    fn aggregated_deterministic_half_is_thread_count_invariant() {
        let problems = mixed_batch();
        let (_, traces1, agg1) = BatchSolver::new()
            .with_threads(1)
            .solve_all_aggregated(&problems);
        let (_, traces8, agg8) = BatchSolver::new()
            .with_threads(8)
            .solve_all_aggregated(&problems);
        for (a, b) in traces1.iter().zip(traces8.iter()) {
            assert_eq!(a.counters, b.counters, "per-instance counters diverged");
            assert_eq!(a.maxima, b.maxima);
            assert_eq!(a.events, b.events);
        }
        assert_eq!(agg1.counters, agg8.counters);
        assert_eq!(agg1.maxima, agg8.maxima);
        assert_eq!(agg1.histograms, agg8.histograms);
        assert_eq!(agg1.events, agg8.events);
        assert_eq!(agg1.events_dropped, agg8.events_dropped);
    }

    #[test]
    fn zero_threads_is_clamped_to_all_cores() {
        // `0` is the documented "all cores" sentinel on every library
        // entry point; it must never panic or deadlock, even for tiny
        // batches.
        let problems = mixed_batch();
        let results = BatchSolver::new().with_threads(0).solve_all(&problems[..2]);
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert_eq!(BatchSolver::new().with_threads(0).threads(), 0);
    }
}
