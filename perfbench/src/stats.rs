//! Order statistics, a seeded generator and wall-clock helpers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Smallest of `xs`; `None` when empty. The per-run figure for repeated
/// identical work: on a shared 2-core machine the same solve reads 0.42 s
/// for a few seconds and 0.68 s for the next few, so the median of a run
/// jumps between the two speeds while the fastest repetition stays put.
pub fn best(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::min)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The tail of a latency sample: the highest percentile on the ladder
/// 50, 90, 99, 99.9, 99.99 that still has at least ten samples above it.
/// Returns `(percentile, value, sample_count)`; `None` when fewer than
/// eleven samples exist (no percentile qualifies).
pub fn tail(xs: &[f64]) -> Option<(f64, f64, usize)> {
    const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];
    let n = xs.len();
    let pct = LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)?;
    Some((pct, quantile(xs, pct / 100.0)?, n))
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the wall clock it took, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs(t0))
}

/// A seeded generator for workload shapes (net sizes, key popularity),
/// decorrelated per `stream`. Sink coordinates come from
/// `lubt_data::synthetic`, which the benchmark times as a layer.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Peak resident set size of this process in MiB (`VmHWM`), when the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_ignore_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(best(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(best(&[]), None);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (pct, _, n) = tail(&xs).unwrap();
        assert_eq!((pct, n), (99.0, 1000));
        let (pct, _, _) = tail(&xs[..100]).unwrap();
        assert_eq!(pct, 90.0);
        assert!(tail(&xs[..10]).is_none());
    }
}
