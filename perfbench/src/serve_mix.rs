//! `serve-mix`: an in-process `lubt_serve::Server` with the default
//! configuration under open-loop load at a light and a heavy fixed rate.
//! Requests solve nets of 16–96 sinks drawn with skewed popularity from a
//! key pool larger than the result cache, so cached answers are read while
//! cold solves insert and evict. Only this workload exercises parse,
//! queue, cache and serialize.

use crate::check::{check_answer, par_map, parse_response, reference_cost, response_body};
use crate::layers::{span_metrics, time_layers};
use crate::loadgen::{self, Outcome};
use crate::report::Report;
use crate::small_nets::{gen_nets, Net};
use crate::stats::{median, peak_rss_mb, quantile, rng, secs, tail, timed};
use crate::Config;
use lubt_core::{EbfSolver, LubtProblem, SolverBackend};
use lubt_obs::json::{self, Value};
use lubt_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Distinct keys (net × window); the default result cache holds 128.
const POOL: usize = 1024;
/// Sink count range per net.
const SINKS: (usize, usize) = (16, 96);
/// Zipf exponent of key popularity.
const ZIPF: f64 = 0.6;
/// Offered rates, requests per second, and the light passes' share of the
/// measuring time. On a 2-core machine at the benchmark's first commit the
/// daemon completed about 125 requests/s under a flood. At two thirds of
/// that the heavy p50 spread 0.85 of its median over five seeds, and even
/// at 30/s the light p50 spread 0.62 over ten runs while the host was
/// slowed by other tenants (each connection is served one request at a
/// time, so a slower host queues quickly); at 40/s a host slowed to half
/// speed let the backlog grow through the whole heavy pass. The rates
/// therefore sit at about a sixth and a quarter of the flood rate, and
/// the light passes get most of the time.
const LIGHT_RPS: f64 = 20.0;
const HEAVY_RPS: f64 = 30.0;
const LIGHT_SHARE: f64 = 0.7;
/// The light schedule is replayed this many times, each on a fresh daemon
/// (so each replay finds the same empty cache and does the same work).
/// `light_service_p50_ms` is the p50 over requests of each request's
/// fastest replay: a host slowed for a few seconds then delays some
/// replays of a request, not the figure.
const LIGHT_REPLAYS: usize = 6;
/// Latency limit for `goodput_rps`, milliseconds.
const LIMIT_MS: f64 = 250.0;
/// How long to wait for stragglers after the last request was due.
const DRAIN: Duration = Duration::from_secs(20);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Request ids of the heavy pass start here (light ids start at 0).
const HEAVY_BASE: usize = 1_000_000;
/// Nets of the pool timed by the per-layer timers.
const LAYER_SAMPLE: usize = 64;

/// The protocol's own default backend (requests carry no `backend`).
const BACKEND: SolverBackend = SolverBackend::Revised;

fn num(x: f64) -> String {
    json::json_f64(x)
}

/// The request body for a net, without op and id.
fn body(k: usize, net: &Net) -> String {
    let p = |x: f64, y: f64| format!("[{},{}]", num(x), num(y));
    let src = net.inst.source.expect("synthetic nets have a source");
    let sinks: Vec<String> = net.inst.sinks.iter().map(|s| p(s.x, s.y)).collect();
    format!(
        "\"instance\":{{\"name\":\"k{k}\",\"source\":{},\"sinks\":[{}]}},\"lower\":{},\"upper\":{}",
        p(src.x, src.y),
        sinks.join(","),
        num(net.window.0),
        num(net.window.1)
    )
}

/// `count` keys with Zipf popularity over `0..POOL`, in seeded order.
/// The draw is stratified (the `i`-th key comes from the `i`-th of `count`
/// equal slices of the distribution), so every seed requests nearly the
/// same multiset of keys; the seed sets their order and the nets'
/// coordinates.
fn draw_keys(rng: &mut StdRng, count: usize) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(POOL);
    let mut acc = 0.0;
    for j in 0..POOL {
        acc += 1.0 / ((j + 1) as f64).powf(ZIPF);
        cdf.push(acc);
    }
    let mut keys: Vec<usize> = (0..count)
        .map(|i| {
            let u = (i as f64 + rng.gen_f64()) / count as f64 * acc;
            cdf.partition_point(|&c| c <= u).min(POOL - 1)
        })
        .collect();
    for i in (1..count).rev() {
        keys.swap(i, rng.gen_range(0..i + 1));
    }
    keys
}

fn lines(bodies: &[String], keys: &[usize], base: usize) -> Vec<String> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| {
            format!(
                "{{\"op\":\"solve\",\"id\":\"{}\",{}}}\n",
                base + i,
                bodies[k]
            )
        })
        .collect()
}

/// Starts a daemon and warms it: one ping per connection and one solve
/// of a net outside the pool.
fn start(cfg: &Config, access_log: Option<String>, warm: &str) -> std::io::Result<Server> {
    let server = Server::start(ServeConfig {
        access_log,
        ..ServeConfig::default()
    })?;
    for c in 0..cfg.nproc {
        let mut conn = TcpStream::connect(server.addr())?;
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut line = String::new();
        writeln!(conn, "{{\"op\":\"ping\",\"id\":\"warm{c}\"}}")?;
        reader.read_line(&mut line)?;
        if c == 0 {
            writeln!(conn, "{{\"op\":\"solve\",\"id\":\"warm\",{warm}}}")?;
            line.clear();
            reader.read_line(&mut line)?;
        }
    }
    Ok(server)
}

struct Workload {
    nets: Vec<Net>,
    bodies: Vec<String>,
    light: Vec<usize>,
    heavy: Vec<usize>,
    warm: String,
}

fn generate(cfg: &Config, measure_s: f64) -> Workload {
    let mut draw = rng(cfg.seed, 3);
    let nets = gen_nets(&mut draw, POOL, SINKS);
    let bodies = nets.iter().enumerate().map(|(k, n)| body(k, n)).collect();
    let light = draw_keys(
        &mut draw,
        (LIGHT_RPS * LIGHT_SHARE * measure_s / LIGHT_REPLAYS as f64).ceil() as usize,
    );
    let heavy = draw_keys(
        &mut draw,
        (HEAVY_RPS * (1.0 - LIGHT_SHARE) * measure_s).ceil() as usize,
    );
    let warm = body(POOL, &gen_nets(&mut rng(cfg.seed, 4), 1, (16, 16))[0]);
    Workload {
        nets,
        bodies,
        light,
        heavy,
        warm,
    }
}

/// The open-loop passes: the light schedule `replays` times, each on a
/// fresh daemon (the first is `server`), then the heavy schedule on the
/// last daemon, which is returned still running.
fn passes(
    cfg: &Config,
    mut server: Server,
    w: &Workload,
    replays: usize,
) -> std::io::Result<(Vec<Outcome>, Outcome, Server)> {
    let light_lines = lines(&w.bodies, &w.light, 0);
    let mut light = Vec::new();
    for r in 0..replays {
        if r > 0 {
            server.shutdown();
            server = start(cfg, None, &w.warm)?;
        }
        light.push(loadgen::run(
            server.addr(),
            cfg.nproc,
            LIGHT_RPS,
            &light_lines,
            0,
            DRAIN,
        )?);
    }
    let heavy = loadgen::run(
        server.addr(),
        cfg.nproc,
        HEAVY_RPS,
        &lines(&w.bodies, &w.heavy, HEAVY_BASE),
        HEAVY_BASE,
        DRAIN,
    )?;
    Ok((light, heavy, server))
}

/// Checks responses. Repeats of a key must be byte-identical after the
/// echoed id; each distinct body is parsed strictly and checked against
/// the certified reference of its key once.
struct Checker {
    references: HashMap<usize, Result<(LubtProblem, f64), String>>,
    first_ok: HashMap<usize, String>,
    verdicts: HashMap<(usize, String), Result<(), String>>,
}

impl Checker {
    /// Builds the problems and certified references of `keys` (in
    /// parallel: this runs after timing).
    fn new(nets: &[Net], keys: impl IntoIterator<Item = usize>, threads: usize) -> Self {
        let mut keys: Vec<usize> = keys.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        let refs = par_map(&keys, threads, |&k| {
            let b = nets[k].builder().backend(BACKEND);
            let problem = b.build().map_err(|e| e.to_string())?;
            Ok((problem, reference_cost(&b)?))
        });
        Checker {
            references: keys.into_iter().zip(refs).collect(),
            first_ok: HashMap::new(),
            verdicts: HashMap::new(),
        }
    }

    fn check(&mut self, key: usize, response: Option<&str>) -> Result<(), String> {
        let line =
            response.ok_or_else(|| format!("key {key}: no response before the drain limit"))?;
        let body = response_body(line).ok_or_else(|| format!("key {key}: malformed response"))?;
        let memo = (key, body.to_string());
        if let Some(v) = self.verdicts.get(&memo) {
            return v.clone();
        }
        let reference = self
            .references
            .get(&key)
            .cloned()
            .unwrap_or_else(|| Err("no reference".to_string()));
        let verdict = reference.and_then(|(problem, reference)| {
            let answer = parse_response(line, problem.topology().num_nodes())?;
            check_answer(&problem, &answer, reference)?;
            match self.first_ok.get(&key) {
                Some(first) if first != body => Err(
                    "response differs in bytes from an earlier one for the same key".to_string(),
                ),
                _ => {
                    self.first_ok.insert(key, body.to_string());
                    Ok(())
                }
            }
        });
        let verdict = verdict.map_err(|e| format!("key {key}: {e}"));
        self.verdicts.insert(memo, verdict.clone());
        verdict
    }
}

/// Latencies (`out.latency_ms` or `out.service_ms`) with failed requests
/// counted as infinitely late.
fn latencies(lat: &[Option<f64>], ok: &[bool]) -> Vec<f64> {
    lat.iter()
        .zip(ok)
        .map(|(l, &ok)| match l {
            Some(l) if ok => *l,
            _ => f64::INFINITY,
        })
        .collect()
}

fn set_latency(report: &mut Report, prefix: &str, lat: &[f64]) {
    report.set(&format!("{prefix}_p50_ms"), "ms", median(lat));
    match tail(lat) {
        Some((pct, v, n)) => {
            report.set(&format!("{prefix}_tail_ms"), "ms", Some(v));
            report.note(format!("{prefix}_tail_ms is p{pct} of {n} requests"));
        }
        None => report.set(&format!("{prefix}_tail_ms"), "ms", None),
    }
}

/// Per-request fields of the daemon's access log, keyed by request id.
struct LogEntry {
    cache: String,
    queue_wait_ms: f64,
    solve_ms: f64,
}

fn read_access_log(path: &str) -> HashMap<usize, LogEntry> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| {
            let v = json::parse(l).ok()?;
            let id = v.get("id")?.as_str()?.parse().ok()?;
            let ms = |k: &str| v.get(k).and_then(Value::as_f64).map(|ns| ns / 1e6);
            Some((
                id,
                LogEntry {
                    cache: v.get("cache")?.as_str()?.to_string(),
                    queue_wait_ms: ms("queue_wait_ns")?,
                    solve_ms: ms("solve_ns")?,
                },
            ))
        })
        .collect()
}

/// Serve-layer metrics of the traced heavy pass, from the access log and
/// the client's latencies.
fn serve_layers(report: &mut Report, log: &HashMap<usize, LogEntry>, heavy: &Outcome) {
    let entries: Vec<(usize, &LogEntry)> = (0..heavy.latency_ms.len())
        .filter_map(|i| log.get(&(HEAVY_BASE + i)).map(|e| (i, e)))
        .collect();
    if entries.is_empty() {
        report.note("access log: no heavy-pass entries (missing)".to_string());
        return;
    }
    let total = entries.len() as f64;
    let frac = |kind: &str| entries.iter().filter(|(_, e)| e.cache == kind).count() as f64 / total;
    report.set("serve.cache_hit_frac", "ratio", Some(frac("cached")));
    report.set("serve.warm_frac", "ratio", Some(frac("warm")));
    let waits: Vec<f64> = entries.iter().map(|(_, e)| e.queue_wait_ms).collect();
    report.set("serve.queue_wait_p50_ms", "ms", median(&waits));
    if let Some((pct, v, n)) = tail(&waits) {
        report.set("serve.queue_wait_tail_ms", "ms", Some(v));
        report.note(format!(
            "serve.queue_wait_tail_ms is p{pct} of {n} requests"
        ));
    }
    let cold: Vec<f64> = entries
        .iter()
        .filter(|(_, e)| e.cache == "cold")
        .map(|(_, e)| e.solve_ms)
        .collect();
    report.set("serve.solve_p50_ms", "ms", median(&cold));
    report.note("serve.solve_p50_ms is over cold (solved) requests".to_string());
    let rtt = |kind: &str| -> Vec<f64> {
        entries
            .iter()
            .filter(|(_, e)| e.cache == kind)
            .filter_map(|&(i, _)| heavy.latency_ms[i])
            .collect()
    };
    report.set("serve.rtt_cached_p50_ms", "ms", median(&rtt("cached")));
    report.set("serve.rtt_cold_p50_ms", "ms", median(&rtt("cold")));
}

fn access_log_path() -> String {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let _ = std::fs::create_dir_all(&dir);
    format!("{dir}/perfbench-access-{}.log", std::process::id())
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    // In a traced run the untraced passes get half the time.
    let measure = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut started = None;
    for _ in 0..SETUPS {
        if let Some(Ok((old, _))) = started.take() {
            Server::shutdown(old);
        }
        let t0 = Instant::now();
        let w = generate(cfg, measure);
        gens.push(secs(t0) * 1e3);
        let server = start(cfg, None, &w.warm);
        setups.push(secs(t0));
        started = Some(server.map(|s| (s, w)));
    }
    let (server, w) = match started.expect("at least one set-up") {
        Ok(x) => x,
        Err(e) => {
            report.tally(Err(format!("server start: {e}")));
            return report;
        }
    };
    report.set("setup_s", "s", median(&setups));

    let untraced = passes(cfg, server, &w, LIGHT_REPLAYS);
    report.set("peak_rss_mb", "MiB", peak_rss_mb());
    let (light, heavy) = match untraced {
        Ok((light, heavy, server)) => {
            server.shutdown();
            (light, heavy)
        }
        Err(e) => {
            report.tally(Err(format!("load generator: {e}")));
            return report;
        }
    };

    let mut traced = None;
    if cfg.trace {
        let path = access_log_path();
        let _ = std::fs::remove_file(&path);
        // One light replay, so the access log and span tree come from a
        // single daemon.
        match start(cfg, Some(path.clone()), &w.warm).and_then(|s| passes(cfg, s, &w, 1)) {
            Ok((tl, th, server)) => {
                let spans = server.span_tree();
                server.shutdown();
                traced = Some((tl, th, spans, read_access_log(&path)));
            }
            Err(e) => report.note(format!("traced pass failed: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }

    // Output check, outside every timed interval.
    let mut checker = Checker::new(&w.nets, w.light.iter().chain(&w.heavy).copied(), cfg.nproc);
    let mut verdicts = |keys: &[usize], out: &Outcome, report: &mut Report| -> Vec<bool> {
        keys.iter()
            .zip(&out.responses)
            .map(|(&k, r)| {
                let v = checker.check(k, r.as_deref());
                let ok = v.is_ok();
                report.tally(v);
                ok
            })
            .collect()
    };
    let (light_lat, light_svc): (Vec<Vec<f64>>, Vec<Vec<f64>>) = light
        .iter()
        .map(|out| {
            let ok = verdicts(&w.light, out, &mut report);
            (
                latencies(&out.latency_ms, &ok),
                latencies(&out.service_ms, &ok),
            )
        })
        .unzip();
    let heavy_ok = verdicts(&w.heavy, &heavy, &mut report);
    if let Some((tl, th, _, _)) = &traced {
        for out in tl {
            verdicts(&w.light, out, &mut report);
        }
        verdicts(&w.heavy, th, &mut report);
    }

    let heavy_lat = latencies(&heavy.latency_ms, &heavy_ok);
    set_latency(&mut report, "latency", &heavy_lat);
    set_latency(&mut report, "light", &light_lat.concat());
    // The service latency of each light request in its fastest replay; a
    // request that failed in every replay stays infinitely late. Service
    // latency leaves out the wait behind the previous request on the same
    // connection, which grows out of proportion when the host slows.
    let light_best: Vec<f64> = (0..w.light.len())
        .map(|i| light_svc.iter().map(|l| l[i]).fold(f64::INFINITY, f64::min))
        .collect();
    report.set("light_service_p50_ms", "ms", median(&light_best));
    let good = heavy_lat.iter().filter(|&&l| l <= LIMIT_MS).count();
    report.set("wall_s", "s", Some(heavy.wall_s));
    report.set("goodput_rps", "1/s", Some(good as f64 / heavy.wall_s));
    // Like the other workloads: checked answers per second, no latency
    // limit (that is `goodput_rps`).
    let checked = heavy_lat.iter().filter(|l| l.is_finite()).count();
    report.set("solves_per_s", "1/s", Some(checked as f64 / heavy.wall_s));
    report.set(
        "loadgen.late_tail_ms",
        "ms",
        tail(&heavy.late_ms).map(|t| t.1),
    );
    report.set(
        "loadgen.backlog_max",
        "count",
        Some(heavy.backlog_max as f64),
    );
    report.note(format!(
        "open loop over {} connections: light {LIGHT_RPS}/s x {} requests x {} replays, \
         heavy {HEAVY_RPS}/s x {} requests; {POOL} keys, Zipf {ZIPF}; goodput limit {LIMIT_MS} ms; \
         protocol default backend (revised)",
        cfg.nproc,
        w.light.len(),
        light.len(),
        w.heavy.len()
    ));
    if let Some(p) = quantile(&heavy.late_ms, 0.5) {
        report.note(format!("loadgen.late_p50_ms = {p:.6}"));
    }

    if let Some((_, th, spans, log)) = &traced {
        report.set("trace.overhead", "ratio", Some(th.wall_s / heavy.wall_s));
        report.set("data.gen_ms", "ms", median(&gens));
        report.note("data.gen_ms covers the key pool and the request lines".to_string());
        // The daemon's span tree covers both traced passes and warm-up.
        span_metrics(&mut report, spans);
        serve_layers(&mut report, log, th);
        let sample: Vec<LubtProblem> = w.nets[..LAYER_SAMPLE]
            .iter()
            .filter_map(|n| n.builder().backend(BACKEND).build().ok())
            .collect();
        report.note(format!(
            "layer timers ran over the {LAYER_SAMPLE} most popular keys"
        ));
        // Intra-solve parallelism on the same sample: the same solves at one
        // thread and at `nproc` threads.
        let (mut one, mut all) = (0.0, 0.0);
        for n in &w.nets[..LAYER_SAMPLE] {
            let b = n.builder().backend(BACKEND);
            one += timed(|| b.clone().threads(1).solve()).1;
            all += timed(|| b.clone().threads(cfg.nproc).solve()).1;
        }
        report.set("par.intra_speedup", "ratio", Some(one / all));
        time_layers(&mut report, &sample, EbfSolver::new().with_backend(BACKEND));
    }
    report
}
