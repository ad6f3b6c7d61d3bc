//! `large-net`: one 256-sink net solved at one thread and at `nproc`
//! threads on the pinned revised backend. The LP kernels and separation
//! rounds do nearly all the work.

use crate::check::{check_answer, reference_cost, Answer};
use crate::keys::counter;
use crate::layers::{span_metrics, time_layers};
use crate::report::Report;
use crate::stats::{best, median, peak_rss_mb, secs, timed};
use crate::Config;
use lubt_core::{
    DelayBounds, EbfSolver, LubtBuilder, LubtError, LubtProblem, LubtSolution, SolverBackend,
};
use lubt_data::{synthetic, Instance};
use std::time::Instant;

/// Sinks in the net. The ROADMAP grounding instance has 512, but one
/// 512-sink solve takes 4–5 s on a 2-core machine, so a 30-second run
/// would hold only three of each leg; at 256 sinks it holds about twenty.
const SINKS: usize = 256;
/// Generator seed of the net (the ROADMAP grounding instance's seed,
/// `lubt gen uniform --seed 54240`). The net is pinned rather than drawn
/// from the workload seed because fresh 512-sink nets differ in solve time
/// by half their median (interquartile range over ten seeds), wider than
/// any regression bound could be.
const NET_SEED: u64 = 0xD3E0;
/// Die edge of the generator, as the CLI's default.
const DIE: f64 = 10_000.0;
/// Delay window, radius-relative.
const WINDOW: (f64, f64) = (0.9, 1.4);

fn builder(inst: &Instance, threads: usize) -> LubtBuilder {
    let r = inst.radius();
    LubtBuilder::new(inst.sinks.clone())
        .source(inst.source.expect("synthetic nets have a source"))
        .bounds(DelayBounds::uniform(
            inst.sinks.len(),
            WINDOW.0 * r,
            WINDOW.1 * r,
        ))
        .backend(SolverBackend::Revised)
        .threads(threads)
}

/// One timed leg: a solve at `threads`, its wall clock and (when traced)
/// the program's own trace.
struct Leg {
    threads: usize,
    wall_s: f64,
    answer: Result<Answer, String>,
}

fn solve(b: &LubtBuilder, threads: usize, traced: Option<&mut Vec<lubt_obs::SolveTrace>>) -> Leg {
    let b = b.clone().threads(threads);
    let (result, wall_s): (Result<LubtSolution, _>, f64) = match traced {
        None => timed(|| b.solve()),
        Some(traces) => {
            let ((result, trace), wall_s) = timed(|| b.solve_traced());
            traces.push(trace);
            (result, wall_s)
        }
    };
    Leg {
        threads,
        wall_s,
        answer: result.map(|s| Answer::of(&s)).map_err(|e| e.to_string()),
    }
}

/// One set-up: generate the net and build the problem (topology
/// included). Returns them with the generation time (ms) and the whole
/// set-up time (s).
fn set_up() -> (Instance, Result<LubtProblem, LubtError>, f64, f64) {
    let t0 = Instant::now();
    let (inst, gen_s) = timed(|| synthetic::uniform("large-net", SINKS, DIE, NET_SEED));
    let problem = builder(&inst, 1).build();
    (inst, problem, gen_s * 1e3, secs(t0))
}

/// Passes of (one solve at 1 thread, one at `nproc`) until `budget_s` of
/// pass time has elapsed, at least one pass, calling `between` (untimed)
/// before each. Returns the legs and the pass walls.
fn passes(
    b: &LubtBuilder,
    nproc: usize,
    budget_s: f64,
    mut traces: Option<&mut Vec<lubt_obs::SolveTrace>>,
    between: &mut dyn FnMut(),
) -> (Vec<Leg>, Vec<f64>) {
    let (mut legs, mut walls) = (Vec::new(), Vec::new());
    while walls.iter().sum::<f64>() < budget_s {
        between();
        let p0 = Instant::now();
        legs.push(solve(b, 1, traces.as_deref_mut()));
        legs.push(solve(b, nproc, traces.as_deref_mut()));
        walls.push(secs(p0));
    }
    (legs, walls)
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    // The set-up runs once before timing and again, untimed, before every
    // untraced pass, so that `setup_s` is a median over the whole run.
    let (inst, problem, g, t) = set_up();
    let (mut gens, mut setups) = (vec![g], vec![t]);
    let problem = match problem {
        Ok(p) => p,
        Err(e) => {
            report.tally(Err(format!("problem build: {e}")));
            return report;
        }
    };
    let b = builder(&inst, 1);

    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut again = || {
        let (_, _, g, t) = set_up();
        gens.push(g);
        setups.push(t);
    };
    let (mut legs, walls) = passes(&b, cfg.nproc, budget, None, &mut again);
    report.set("peak_rss_mb", "MiB", peak_rss_mb());
    report.set("setup_s", "s", median(&setups));
    let wall = best(&walls);
    let times = |t: usize, legs: &[Leg]| -> Vec<f64> {
        legs.iter()
            .filter(|l| l.threads == t)
            .map(|l| l.wall_s)
            .collect()
    };
    let solve_s = median(&times(1, &legs));
    let solve_par_s = median(&times(cfg.nproc, &legs));
    report.set("wall_s", "s", wall);
    report.set("solve_s", "s", solve_s);
    report.set("solve_par_s", "s", solve_par_s);
    report.set("solve_best_s", "s", best(&times(1, &legs)));
    report.set(
        "par.intra_speedup",
        "ratio",
        solve_s.zip(solve_par_s).map(|(a, b)| a / b),
    );
    report.note(format!(
        "{} pass(es) of one solve at 1 thread and one at {} threads; revised backend; net pinned (generator seed {NET_SEED})",
        walls.len(),
        cfg.nproc
    ));
    let untraced_legs = legs.len();

    let mut traces = Vec::new();
    if cfg.trace {
        let (traced_legs, traced_walls) =
            passes(&b, cfg.nproc, budget, Some(&mut traces), &mut || {});
        report.set(
            "trace.overhead",
            "ratio",
            best(&traced_walls).zip(wall).map(|(t, u)| t / u),
        );
        legs.extend(traced_legs);
    }

    // Output check, outside every timed interval.
    let passed = match reference_cost(&b) {
        Ok(reference) => {
            let first = legs.iter().find_map(|l| l.answer.as_ref().ok()).cloned();
            let mut passed = 0usize;
            for (k, leg) in legs.iter().enumerate() {
                let outcome = leg.answer.clone().and_then(|a| {
                    check_answer(&problem, &a, reference)?;
                    match &first {
                        Some(f) if !f.bit_identical(&a) => Err(format!(
                            "answer at {} threads differs in bits from the first answer",
                            leg.threads
                        )),
                        _ => Ok(()),
                    }
                });
                if outcome.is_ok() && k < untraced_legs {
                    passed += 1;
                }
                report.tally(outcome);
            }
            passed
        }
        Err(e) => {
            for _ in &legs {
                report.tally(Err(e.clone()));
            }
            0
        }
    };
    // Checked solves per pass over the fastest pass.
    let per_pass = passed as f64 / walls.len() as f64;
    report.set("solves_per_s", "1/s", wall.map(|w| per_pass / w));

    if cfg.trace {
        report.set("data.gen_ms", "ms", median(&gens));
        // The one-thread trace: the same deterministic work as `solve_s`;
        // the intra-solve assist counters come from the `nproc` one.
        if let Some(t) = traces.first() {
            span_metrics(&mut report, &t.spans);
        }
        let assist = traces.get(1).and_then(|t| counter(t, "par.assist.claims"));
        report.set("par.assist.claims", "count", assist);
        time_layers(
            &mut report,
            std::slice::from_ref(&problem),
            EbfSolver::new().with_backend(SolverBackend::Revised),
        );
    }
    report
}
