//! `small-nets`: a few hundred nets of 8–64 sinks, uniform and clustered,
//! through `BatchSolver` at `nproc` threads on the library's default
//! backend. Per-solve set-up, lint, topology, embedding and batch dispatch
//! weigh more here than the LP kernels.

use crate::check::{check_answer, par_map, reference_cost, Answer};
use crate::layers::{span_metrics, time_layers};
use crate::report::Report;
use crate::stats::{best, median, peak_rss_mb, rng, secs, timed};
use crate::Config;
use lubt_core::{
    BatchSolver, DelayBounds, EbfSolver, LubtBuilder, LubtError, LubtProblem, LubtSolution,
};
use lubt_data::{synthetic, Instance};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::time::Instant;

/// Nets per batch.
const NETS: usize = 240;
/// Sink count range per net.
const SINKS: (usize, usize) = (8, 64);
/// Radius-relative windows; each is feasible for any topology (a star
/// through the source meets it), so no solve may fail.
pub const WINDOWS: [(f64, f64); 3] = [(0.9, 1.4), (0.0, 1.0), (1.0, 1.1)];
/// Die edge of the generators.
const DIE: f64 = 10_000.0;

/// One net of a workload: its instance and radius-relative window.
pub struct Net {
    pub inst: Instance,
    pub window: (f64, f64),
}

impl Net {
    /// The builder for this net: absolute window from the radius, source
    /// given, library defaults otherwise.
    pub fn builder(&self) -> LubtBuilder {
        let r = self.inst.radius();
        let (lo, hi) = self.window;
        LubtBuilder::new(self.inst.sinks.clone())
            .source(self.inst.source.expect("synthetic nets have a source"))
            .bounds(DelayBounds::uniform(self.inst.sinks.len(), lo * r, hi * r))
    }
}

/// Stride through the sink-count range; coprime to both ranges in use
/// (57 and 81 counts), so consecutive nets get far-apart sizes.
const SIZE_STRIDE: usize = 37;

/// `count` nets. Their shapes are stratified by index, so every seed draws
/// the same mix of work: net `k` has sink count
/// `sinks.0 + (k * SIZE_STRIDE) mod span`, alternates uniform and clustered,
/// and cycles its window through [`WINDOWS`] every two nets. `rng` draws
/// the sink coordinates and the cluster counts (2–6). Drawn freely, sizes,
/// kinds and windows moved a batch's work with the seed by 0.055 of its
/// median (interquartile range over ten seeds) on top of the host's noise.
pub fn gen_nets(rng: &mut StdRng, count: usize, sinks: (usize, usize)) -> Vec<Net> {
    let span = sinks.1 - sinks.0 + 1;
    (0..count)
        .map(|k| {
            let n = sinks.0 + (k * SIZE_STRIDE) % span;
            let seed = rng.next_u64();
            let inst = if k % 2 == 0 {
                synthetic::uniform(&format!("u{k}"), n, DIE, seed)
            } else {
                let clusters = rng.gen_range(2usize..7);
                synthetic::clustered(&format!("c{k}"), n, DIE, clusters, seed)
            };
            let window = WINDOWS[(k / 2) % WINDOWS.len()];
            Net { inst, window }
        })
        .collect()
}

type Pass = Vec<Result<LubtSolution, LubtError>>;

/// One set-up: generate the nets and build their problems. Returns them
/// with the generation time (ms) and the whole set-up time (s).
fn set_up(seed: u64) -> (Vec<Net>, Result<Vec<LubtProblem>, LubtError>, f64, f64) {
    let t0 = Instant::now();
    let (nets, gen_s) = timed(|| gen_nets(&mut rng(seed, 1), NETS, SINKS));
    let problems = nets.iter().map(|n| n.builder().build()).collect();
    (nets, problems, gen_s * 1e3, secs(t0))
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    // The set-up runs once before timing and again, untimed, before every
    // untraced pass, so that `setup_s` is a median over the whole run.
    let (nets, problems, g, t) = set_up(cfg.seed);
    let (mut gens, mut setups) = (vec![g], vec![t]);
    let problems = match problems {
        Ok(p) => p,
        Err(e) => {
            report.tally(Err(format!("problem build: {e}")));
            return report;
        }
    };

    let batch = BatchSolver::new().with_threads(cfg.nproc);
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    // Between passes (untimed) each answer is compared in bits with the
    // first pass's answer to the same net, so only one pass is kept in
    // memory; the first pass is checked in full after timing.
    let mut first: Vec<Result<Answer, String>> = Vec::new();
    let mut later: Vec<Vec<Result<(), String>>> = Vec::new();
    let mut keep = |results: Pass| {
        let answers = results
            .iter()
            .map(|r| r.as_ref().map(Answer::of).map_err(|e| e.to_string()));
        if first.is_empty() {
            first = answers.collect();
        } else {
            later.push(
                answers
                    .zip(&first)
                    .map(|(a, f)| match (a?, f) {
                        (a, Ok(f)) if a.bit_identical(f) => Ok(()),
                        _ => Err("answer differs in bits from the first pass".to_string()),
                    })
                    .collect(),
            );
        }
    };

    let mut walls = Vec::new();
    while walls.iter().sum::<f64>() < budget {
        let (_, _, g, t) = set_up(cfg.seed);
        gens.push(g);
        setups.push(t);
        let (r, w) = timed(|| batch.solve_all(&problems));
        walls.push(w);
        keep(r);
    }
    report.set("peak_rss_mb", "MiB", peak_rss_mb());
    report.set("setup_s", "s", median(&setups));
    let wall = best(&walls);
    report.set("wall_s", "s", wall);
    report.note(format!(
        "{} batch pass(es) of {NETS} nets at {} threads; default backend (simplex)",
        walls.len(),
        cfg.nproc
    ));
    let untraced_passes = walls.len();

    let mut trace = None;
    if cfg.trace {
        let mut traced_walls = Vec::new();
        while traced_walls.iter().sum::<f64>() < budget {
            let ((r, t), w) = timed(|| batch.solve_all_traced(&problems));
            traced_walls.push(w);
            keep(r);
            trace.get_or_insert(t);
        }
        report.set(
            "trace.overhead",
            "ratio",
            best(&traced_walls).zip(wall).map(|(t, u)| t / u),
        );
        // Per-net serial solve times: what the batch spreads over threads.
        // One serial pass, so it is set against the median batch pass,
        // not the fastest.
        let serial: f64 = problems.iter().map(|p| timed(|| p.solve()).1).sum();
        report.set("batch.serial_sum_s", "s", Some(serial));
        report.set(
            "batch.parallel_eff",
            "ratio",
            median(&walls).map(|w| serial / (cfg.nproc as f64 * w)),
        );
    }

    // Output check, outside every timed interval: the first pass against
    // the certified reference of each net; a later answer passes when it
    // equals the first in bits and the first passed.
    let references = par_map(&nets, cfg.nproc, |n| reference_cost(&n.builder()));
    let verdicts: Vec<Result<(), String>> = problems
        .iter()
        .zip(&first)
        .zip(references)
        .map(|((problem, answer), reference)| {
            let answer = answer.as_ref().map_err(Clone::clone)?;
            check_answer(problem, answer, reference?)
        })
        .collect();
    let mut passed = 0;
    let passes = std::iter::once(vec![Ok(()); verdicts.len()]).chain(later);
    for (pass, same) in passes.enumerate() {
        for (k, (v, s)) in verdicts.iter().zip(same).enumerate() {
            let outcome = v.clone().and(s).map_err(|e| format!("net {k}: {e}"));
            passed += usize::from(outcome.is_ok() && pass < untraced_passes);
            report.tally(outcome);
        }
    }
    // Checked solves per pass over the fastest pass.
    let per_pass = passed as f64 / untraced_passes as f64;
    report.set("solves_per_s", "1/s", wall.map(|w| per_pass / w));

    if cfg.trace {
        report.set("data.gen_ms", "ms", median(&gens));
        if let Some(t) = &trace {
            span_metrics(&mut report, &t.spans);
        }
        time_layers(&mut report, &problems, EbfSolver::new());
    }
    report
}
