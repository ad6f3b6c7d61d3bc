//! Three-way differential wall between independent parties: the revised
//! simplex, the LP-free exact DP oracle, and the exact rational certificate
//! audit. The two solvers must agree on status and objective across
//! generated LUBT instances, and every revised outcome must carry a
//! certificate that `lubt-audit` verifies exactly (an optimality
//! certificate or a Farkas ray); the DP's lengths are audited against the
//! eager LP. A disagreement or a rejected certificate is a hard failure
//! that is first *shrunk* (sinks removed while the divergence persists)
//! and then printed as replayable JSON, so a red run carries a minimal
//! counterexample instead of a 6-sink blob.
//!
//! Instances live on an integer lattice with quarter-unit windows, so both
//! solvers work on exactly representable data and the 1e-9 objective
//! comparison is meaningful. The revised simplex runs in eager Steiner mode
//! — the same all-`C(m, 2)` row set the DP models — making the comparison
//! exact-model against exact-model rather than "lazy loop with a 1e-6
//! separation tolerance" against an exact oracle.

use lubt::core::{
    DelayBounds, EbfSolver, LubtBuilder, LubtError, LubtProblem, SolverBackend, SteinerMode,
};
use lubt::geom::Point;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// One lattice instance: everything needed to rebuild the problem (the
/// nearest-neighbor topology generation is deterministic in the sinks, so
/// sinks + source + window replay the exact same solve).
#[derive(Debug, Clone, PartialEq)]
struct TriInstance {
    sinks: Vec<(i32, i32)>,
    source: Option<(i32, i32)>,
    /// Lower delay bound in quarter units.
    lower_q: i32,
    /// Upper delay bound in quarter units.
    upper_q: i32,
}

impl TriInstance {
    fn problem(&self) -> Result<LubtProblem, LubtError> {
        let sinks: Vec<Point> = self
            .sinks
            .iter()
            .map(|&(x, y)| Point::new(f64::from(x), f64::from(y)))
            .collect();
        let mut b = LubtBuilder::new(sinks).bounds(DelayBounds::uniform(
            self.sinks.len(),
            f64::from(self.lower_q) / 4.0,
            f64::from(self.upper_q) / 4.0,
        ));
        if let Some((x, y)) = self.source {
            b = b.source(Point::new(f64::from(x), f64::from(y)));
        }
        b.build()
    }

    /// The replayable form a failure message carries.
    fn to_json(&self) -> String {
        let sinks = self
            .sinks
            .iter()
            .map(|&(x, y)| format!("[{x},{y}]"))
            .collect::<Vec<_>>()
            .join(",");
        let source = match self.source {
            Some((x, y)) => format!("[{x},{y}]"),
            None => "null".to_string(),
        };
        format!(
            "{{\"sinks\":[{sinks}],\"source\":{source},\"lower_q\":{},\"upper_q\":{}}}",
            self.lower_q, self.upper_q
        )
    }

    /// Parses exactly the documents [`TriInstance::to_json`] writes — the
    /// replay path a developer (or the fault-injection test) uses to rerun
    /// a printed counterexample.
    fn from_json(doc: &str) -> TriInstance {
        fn ints(s: &str) -> Vec<i32> {
            let mut out = Vec::new();
            let mut cur = String::new();
            for ch in s.chars() {
                if ch.is_ascii_digit() || (ch == '-' && cur.is_empty()) {
                    cur.push(ch);
                } else if !cur.is_empty() {
                    out.push(cur.parse().expect("integer literal"));
                    cur.clear();
                }
            }
            if !cur.is_empty() {
                out.push(cur.parse().expect("integer literal"));
            }
            out
        }
        let (sinks_part, rest) = doc
            .split_once("\"source\":")
            .expect("replay JSON has a source field");
        let (source_part, bounds_part) = rest
            .split_once("\"lower_q\":")
            .expect("replay JSON has bounds");
        let sink_ints = ints(sinks_part);
        assert!(
            sink_ints.len().is_multiple_of(2),
            "sink coordinates come in pairs"
        );
        let sinks = sink_ints.chunks(2).map(|c| (c[0], c[1])).collect();
        let source = if source_part.trim_start().starts_with("null") {
            None
        } else {
            let s = ints(source_part);
            Some((s[0], s[1]))
        };
        let bounds = ints(bounds_part);
        TriInstance {
            sinks,
            source,
            lower_q: bounds[0],
            upper_q: bounds[1],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Optimal(f64),
    Infeasible,
}

/// Runs one backend on the instance's problem with the exact audit on.
/// Eager Steiner rows, prelint off: infeasibility must come from the solver
/// itself, not the linter.
fn run_backend(p: &LubtProblem, backend: SolverBackend) -> Result<Outcome, String> {
    let solver = EbfSolver::new()
        .with_backend(backend)
        .with_audit(true)
        .with_steiner_mode(SteinerMode::Eager)
        .with_prelint(false);
    match solver.solve(p) {
        Ok((lengths, _)) => Ok(Outcome::Optimal(lengths.iter().sum())),
        Err(LubtError::Infeasible) => Ok(Outcome::Infeasible),
        Err(e) => Err(format!("{backend:?} failed: {e}")),
    }
}

/// The wall's comparator. `dp_fault` is added to the DP's optimal
/// objective — zero in production use; nonzero only by the seeded
/// fault-injection test, which proves the wall actually trips. Returns a
/// human-readable description of the first failed audit or diverging
/// backend pair, or `None` when everything agrees.
fn divergence(inst: &TriInstance, dp_fault: f64) -> Option<String> {
    let p = inst.problem().ok()?;
    let backends = [SolverBackend::Revised, SolverBackend::Dp];
    let mut outcomes = Vec::new();
    for b in backends {
        match run_backend(&p, b) {
            Ok(Outcome::Optimal(obj)) if b == SolverBackend::Dp => {
                outcomes.push(Outcome::Optimal(obj + dp_fault));
            }
            Ok(o) => outcomes.push(o),
            Err(e) => return Some(e),
        }
    }
    for i in 0..backends.len() {
        for j in i + 1..backends.len() {
            let diverged = match (outcomes[i], outcomes[j]) {
                (Outcome::Optimal(a), Outcome::Optimal(b)) => {
                    (a - b).abs() > 1e-9 * (1.0 + a.abs())
                }
                (a, b) => a != b,
            };
            if diverged {
                return Some(format!(
                    "{:?} {:?} vs {:?} {:?}",
                    backends[i], outcomes[i], backends[j], outcomes[j]
                ));
            }
        }
    }
    None
}

/// Greedy shrinker: keep removing single sinks while the divergence
/// persists. The result is locally minimal — removing any one more sink
/// makes the backends agree (or the instance degenerate).
fn shrink(inst: &TriInstance, dp_fault: f64) -> TriInstance {
    let mut cur = inst.clone();
    'outer: while cur.sinks.len() > 2 {
        for i in 0..cur.sinks.len() {
            let mut cand = cur.clone();
            cand.sinks.remove(i);
            if divergence(&cand, dp_fault).is_some() {
                cur = cand;
                continue 'outer;
            }
        }
        break;
    }
    cur
}

/// The first-divergence reporter: shrink, then render the what and the
/// replayable how.
fn report_divergence(inst: &TriInstance, dp_fault: f64) -> String {
    let min = shrink(inst, dp_fault);
    let what = divergence(&min, dp_fault).expect("shrinking preserves the divergence");
    format!(
        "differential divergence ({} sink(s), shrunk from {}): {what}\nreplay JSON: {}",
        min.sinks.len(),
        inst.sinks.len(),
        min.to_json()
    )
}

fn check_agreement(inst: &TriInstance) -> Result<(), TestCaseError> {
    if divergence(inst, 0.0).is_some() {
        return Err(TestCaseError::Fail(report_divergence(inst, 0.0)));
    }
    Ok(())
}

fn tri_instance() -> impl Strategy<Value = TriInstance> {
    (
        proptest::collection::vec((0i32..24, 0i32..24), 2..6),
        proptest::bool::ANY,
        (0i32..24, 0i32..24),
        0i32..160,
        0i32..80,
    )
        .prop_map(|(sinks, rooted, src, lower_q, width_q)| TriInstance {
            sinks,
            source: rooted.then_some(src),
            lower_q,
            upper_q: lower_q + width_q,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated corpus: lattice instances spanning feasible and
    /// infeasible windows, with and without a source. Revised and DP must
    /// agree on every one, with every certificate verifying exactly.
    #[test]
    fn revised_and_dp_agree_on_generated_instances(inst in tri_instance()) {
        check_agreement(&inst)?;
    }
}

/// The pinned synthetic benchmarks pass the same wall at small scale.
#[test]
fn revised_and_dp_agree_on_pinned_benchmarks() {
    for inst in lubt::data::synthetic::paper_benchmarks() {
        let inst = inst.subsample(8);
        let radius = inst.radius();
        let problem = LubtBuilder::new(inst.sinks.clone())
            .source(inst.source.unwrap())
            .bounds(DelayBounds::uniform(
                inst.sinks.len(),
                0.9 * radius,
                1.4 * radius,
            ))
            .build()
            .unwrap();
        let revised = run_backend(&problem, SolverBackend::Revised).unwrap();
        let dp = run_backend(&problem, SolverBackend::Dp).unwrap();
        match (revised, dp) {
            (Outcome::Optimal(a), Outcome::Optimal(b)) => assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                "{}: revised {a} vs dp {b}",
                inst.name
            ),
            (a, b) => assert_eq!(a, b, "{}", inst.name),
        }
    }
}

/// Seeded fault injection: corrupt the DP objective by half a unit and the
/// wall must trip, shrink to a minimal instance, and print replayable JSON
/// that still reproduces the divergence after a parse round-trip.
#[test]
fn seeded_fault_is_caught_with_a_minimized_replayable_counterexample() {
    let inst = TriInstance {
        sinks: vec![(0, 0), (8, 0), (0, 8), (8, 8), (4, 2)],
        source: Some((4, 4)),
        lower_q: 40,
        upper_q: 56,
    };
    // Healthy solvers agree on the seed instance...
    assert!(divergence(&inst, 0.0).is_none());
    // ...and a seeded half-unit fault in the DP objective trips the wall.
    let report = report_divergence(&inst, 0.5);
    assert!(report.contains("Dp"), "{report}");
    assert!(report.contains("replay JSON: "), "{report}");

    // The printed counterexample is minimized and replayable: parse it
    // back, confirm it shrank, and confirm it still diverges.
    let json = report.split("replay JSON: ").nth(1).unwrap().trim();
    let replay = TriInstance::from_json(json);
    assert!(replay.sinks.len() <= inst.sinks.len());
    assert!(replay.sinks.len() >= 2);
    assert!(divergence(&replay, 0.5).is_some(), "replay lost the fault");
    // Local minimality: removing any single further sink kills the
    // divergence (that is exactly when the shrinker stopped).
    if replay.sinks.len() > 2 {
        for i in 0..replay.sinks.len() {
            let mut cand = replay.clone();
            cand.sinks.remove(i);
            assert!(divergence(&cand, 0.5).is_none(), "shrinker stopped early");
        }
    }
    // Round-trip fidelity of the replay format.
    assert_eq!(TriInstance::from_json(&replay.to_json()), replay);
}

/// The replay parser accepts the exact documents the reporter writes,
/// including sourceless instances.
#[test]
fn replay_json_round_trips() {
    for inst in [
        TriInstance {
            sinks: vec![(0, 0), (3, 7)],
            source: None,
            lower_q: 0,
            upper_q: 44,
        },
        TriInstance {
            sinks: vec![(1, 2), (3, 4), (5, 6)],
            source: Some((2, 2)),
            lower_q: 12,
            upper_q: 20,
        },
    ] {
        assert_eq!(TriInstance::from_json(&inst.to_json()), inst);
    }
}
