//! External benchmark for the lubt workspace.
//!
//! ```text
//! lubt-perfbench --workload <large-net|small-nets|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `metric`/`note`/`check` line per figure, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Exits
//! non-zero when any answer fails the output check. See `README.md`.

mod check;
mod keys;
mod large_net;
mod layers;
mod loadgen;
mod report;
mod serve_mix;
mod small_nets;
mod stats;

use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Settings of one run.
pub struct Config {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring time of the run, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Available cores; the parallel legs use this many threads.
    pub nproc: usize,
}

const WORKLOADS: [&str; 3] = ["large-net", "small-nets", "serve-mix"];

/// Longest a run may take before it is ended as a failure.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Most resident memory a run may hold before it is ended as a failure;
/// a normal run stays under 100 MiB.
const RSS_LIMIT_MB: f64 = 2048.0;

/// Ends the process as a failed run, with the usual result line, when it
/// outlives [`RUN_LIMIT`] or outgrows [`RSS_LIMIT_MB`]. A solve that does
/// not converge cannot be interrupted from outside the library, and on
/// some nets the lazy separation loop grows the LP until memory runs out;
/// the run must then fail in bounded time and memory, not hang. The thread
/// is never joined: it either ends the process or dies with it.
fn spawn_watchdog(trace: bool) {
    let t0 = Instant::now();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(100));
        let rss = stats::rss_mb().unwrap_or(0.0);
        let reason = if t0.elapsed() > RUN_LIMIT {
            format!("run exceeded {} s", RUN_LIMIT.as_secs())
        } else if rss > RSS_LIMIT_MB {
            format!("resident memory {rss:.0} MiB exceeded {RSS_LIMIT_MB} MiB")
        } else {
            continue;
        };
        let mut r = report::Report::default();
        r.tally(Err(format!("aborted: {reason}")));
        let mut out = std::io::stdout().lock();
        let _ = write!(out, "{}", r.human(trace));
        let _ = writeln!(out, "{}", r.json(trace));
        let _ = out.flush();
        std::process::exit(1);
    });
}

fn parse_args(args: &[String]) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 50.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} ({})",
            WORKLOADS.join("|")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok((
        workload,
        Config {
            seed,
            seconds,
            trace,
            nproc,
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, cfg) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lubt-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {workload} seed {} seconds {} trace {} nproc {}",
        cfg.seed, cfg.seconds, cfg.trace as u8, cfg.nproc
    );
    spawn_watchdog(cfg.trace);
    let report = match workload.as_str() {
        "large-net" => large_net::run(&cfg),
        "small-nets" => small_nets::run(&cfg),
        _ => serve_mix::run(&cfg),
    };
    print!("{}", report.human(cfg.trace));
    println!("{}", report.json(cfg.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
