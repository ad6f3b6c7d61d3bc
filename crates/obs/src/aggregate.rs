//! [`AggregateTrace`]: many [`SolveTrace`]s folded into one suite-level
//! summary.
//!
//! A benchmark run solves dozens of instances; the per-solve traces are
//! too granular to gate a CI build on. The aggregate keeps three views of
//! every deterministic counter — the total across solves, the per-solve
//! maximum, and a log-bucketed [`Histogram`] of per-solve values — and
//! quarantines everything scheduling- or clock-dependent (`par.*`,
//! `pool.*`, `time.*` keys) in a separate determinism-exempt section, the
//! same structural split DESIGN.md §9/§10 impose on single-solve traces.
//! Folding and merging are order-independent, so the aggregate for a
//! batch is identical no matter which worker finished which instance
//! first.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::json::json_escape;
use crate::prometheus::{metric_name, push_sample};
use crate::trace::SolveTrace;

/// Key prefixes whose values may legitimately differ between runs or
/// thread counts: work-stealing scheduling (`par.*`, `pool.*`) and
/// wall-clock phase timers (`time.*`). Everything else a recorder
/// collects is covered by the §9 determinism contract.
pub const DETERMINISM_EXEMPT_PREFIXES: [&str; 3] = ["par.", "pool.", "time."];

/// `true` when `key` is exempt from the determinism contract and must be
/// kept out of exact cross-run comparisons.
pub fn is_determinism_exempt_key(key: &str) -> bool {
    DETERMINISM_EXEMPT_PREFIXES
        .iter()
        .any(|p| key.starts_with(p))
}

/// Suite-level fold of per-solve traces.
///
/// # Example
///
/// ```
/// use lubt_obs::{AggregateTrace, Recorder, TraceRecorder};
/// let mut agg = AggregateTrace::new();
/// for pivots in [10u64, 14, 12] {
///     let rec = TraceRecorder::new();
///     rec.incr("lp.pivots", pivots);
///     agg.fold(&rec.snapshot());
/// }
/// assert_eq!(agg.solves, 3);
/// assert_eq!(agg.counter("lp.pivots"), 36);
/// assert_eq!(agg.maximum("lp.pivots"), 14);
/// assert_eq!(agg.histogram("lp.pivots").unwrap().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregateTrace {
    /// Number of traces folded in.
    pub solves: u64,
    /// Deterministic counters, summed across solves.
    pub counters: BTreeMap<String, u64>,
    /// Per-solve maximum of each deterministic counter, and the fold of
    /// per-solve running maxima.
    pub maxima: BTreeMap<String, u64>,
    /// Per-solve distribution of each deterministic counter.
    pub histograms: BTreeMap<String, Histogram>,
    /// Total events observed across solves (the count is deterministic
    /// even though event ordering inside one shared recorder is not).
    pub events: u64,
    /// Events dropped by bounded logs across solves.
    pub events_dropped: u64,
    /// Scheduling-dependent counters (`par.*`, `pool.*`), summed.
    pub sched_counters: BTreeMap<String, u64>,
    /// Scheduling-dependent maxima.
    pub sched_maxima: BTreeMap<String, u64>,
    /// Wall-clock phase totals, summed — determinism-exempt.
    pub timings_ns: BTreeMap<String, u64>,
    /// Per-solve distribution of each phase timer — determinism-exempt.
    pub timing_histograms: BTreeMap<String, Histogram>,
}

impl AggregateTrace {
    /// An empty aggregate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one per-solve trace into the aggregate.
    ///
    /// Counters route by key: determinism-exempt prefixes go to the
    /// scheduling section, everything else is summed, maxed and recorded
    /// into the per-key histogram. Gauges are last-write-wins snapshots
    /// with no meaningful cross-solve sum, so they are intentionally not
    /// aggregated.
    pub fn fold(&mut self, trace: &SolveTrace) {
        self.solves += 1;
        for (key, &v) in &trace.counters {
            if is_determinism_exempt_key(key) {
                *self.sched_counters.entry(key.clone()).or_insert(0) += v;
            } else {
                *self.counters.entry(key.clone()).or_insert(0) += v;
                let slot = self.maxima.entry(key.clone()).or_insert(0);
                *slot = (*slot).max(v);
                self.histograms.entry(key.clone()).or_default().record(v);
            }
        }
        for (key, &v) in &trace.maxima {
            let map = if is_determinism_exempt_key(key) {
                &mut self.sched_maxima
            } else {
                &mut self.maxima
            };
            let slot = map.entry(key.clone()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (key, &v) in &trace.timings_ns {
            *self.timings_ns.entry(key.clone()).or_insert(0) += v;
            self.timing_histograms
                .entry(key.clone())
                .or_default()
                .record(v);
        }
        self.events += trace.events.len() as u64;
        self.events_dropped += trace.events_dropped;
    }

    /// Combines two aggregates (e.g. from sharded suite runs).
    /// Commutative and associative, like [`Histogram::merge`].
    pub fn merge(&mut self, other: &AggregateTrace) {
        self.solves += other.solves;
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.maxima {
            let slot = self.maxima.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, &v) in &other.sched_counters {
            *self.sched_counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.sched_maxima {
            let slot = self.sched_maxima.entry(k.clone()).or_insert(0);
            *slot = (*slot).max(v);
        }
        for (k, &v) in &other.timings_ns {
            *self.timings_ns.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.timing_histograms {
            self.timing_histograms
                .entry(k.clone())
                .or_default()
                .merge(h);
        }
        self.events += other.events;
        self.events_dropped += other.events_dropped;
    }

    /// The summed deterministic counter for `key` (`0` when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The per-solve maximum for `key` (`0` when absent).
    pub fn maximum(&self, key: &str) -> u64 {
        self.maxima.get(key).copied().unwrap_or(0)
    }

    /// The per-solve distribution for deterministic counter `key`.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Serializes the aggregate as one strict-JSON document with the
    /// deterministic material under `"deterministic"` and everything
    /// scheduling- or clock-dependent under `"determinism_exempt"` — the
    /// same audit-friendly split [`SolveTrace::to_json`] uses, lifted to
    /// suite level.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"lubt-aggregate-v1\",\n");
        s.push_str(&format!("  \"solves\": {},\n", self.solves));
        s.push_str("  \"deterministic\": ");
        s.push_str(&self.deterministic_json("  "));
        s.push_str(",\n  \"determinism_exempt\": ");
        s.push_str(&self.exempt_json("  "));
        s.push_str("\n}\n");
        s
    }

    /// The deterministic half alone, as one strict-JSON object whose
    /// closing brace sits at `indent`. `lubt bench` embeds this fragment
    /// so the deterministic substring of a benchmark file can be compared
    /// byte-for-byte across thread counts, with the exempt half kept
    /// physically outside it.
    pub fn deterministic_json(&self, indent: &str) -> String {
        let inner = format!("{indent}  ");
        let mut s = String::from("{\n");
        push_u64_map(&mut s, "counters", &self.counters, &inner);
        s.push_str(",\n");
        push_u64_map(&mut s, "maxima", &self.maxima, &inner);
        s.push_str(",\n");
        push_histogram_map(&mut s, "histograms", &self.histograms, &inner);
        s.push_str(",\n");
        s.push_str(&format!("{inner}\"events\": {},\n", self.events));
        s.push_str(&format!(
            "{inner}\"events_dropped\": {}\n{indent}}}",
            self.events_dropped
        ));
        s
    }

    /// The determinism-exempt half alone, as one strict-JSON object whose
    /// closing brace sits at `indent` — the embeddable counterpart of
    /// [`AggregateTrace::deterministic_json`].
    pub fn exempt_json(&self, indent: &str) -> String {
        let inner = format!("{indent}  ");
        let mut s = String::from("{\n");
        push_u64_map(&mut s, "sched_counters", &self.sched_counters, &inner);
        s.push_str(",\n");
        push_u64_map(&mut s, "sched_maxima", &self.sched_maxima, &inner);
        s.push_str(",\n");
        push_u64_map(&mut s, "timings_ns", &self.timings_ns, &inner);
        s.push_str(",\n");
        push_histogram_map(&mut s, "timing_histograms", &self.timing_histograms, &inner);
        s.push_str(&format!("\n{indent}}}"));
        s
    }

    /// Renders the aggregate in the Prometheus text exposition format.
    ///
    /// Deterministic counters become `<name>_total` counters, maxima
    /// become `<name>_max` gauges, per-solve distributions become classic
    /// `histogram` families named `<name>_per_solve`, and phase timers
    /// become `<name>_seconds_total` counters. See [`crate::prometheus`]
    /// for the naming rules.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        push_sample(
            &mut out,
            "lubt_aggregate_solves_total",
            "counter",
            "Solves folded into this aggregate",
            &self.solves.to_string(),
        );
        for (key, &v) in self.counters.iter().chain(self.sched_counters.iter()) {
            let name = format!("{}_total", metric_name(key));
            push_sample(
                &mut out,
                &name,
                "counter",
                &format!("Sum of \"{}\" across solves", key),
                &v.to_string(),
            );
        }
        for (key, &v) in self.maxima.iter().chain(self.sched_maxima.iter()) {
            let name = format!("{}_max", metric_name(key));
            push_sample(
                &mut out,
                &name,
                "gauge",
                &format!("Per-solve maximum of \"{}\"", key),
                &v.to_string(),
            );
        }
        for (key, h) in &self.histograms {
            h.push_prometheus(&mut out, &format!("{}_per_solve", metric_name(key)), key);
        }
        for (key, &ns) in &self.timings_ns {
            let name = format!("{}_seconds_total", metric_name(key));
            push_sample(
                &mut out,
                &name,
                "counter",
                &format!("Wall-clock total of phase \"{}\"", key),
                &crate::prometheus::sample_f64(ns as f64 / 1e9),
            );
        }
        push_sample(
            &mut out,
            "lubt_trace_events_dropped_total",
            "counter",
            "Events discarded by bounded logs",
            &self.events_dropped.to_string(),
        );
        out
    }
}

fn push_u64_map(s: &mut String, label: &str, map: &BTreeMap<String, u64>, indent: &str) {
    s.push_str(&format!("{indent}\"{label}\": {{"));
    let mut first = true;
    for (k, v) in map {
        s.push_str(if first { "\n" } else { ",\n" });
        first = false;
        s.push_str(&format!("{indent}  \"{}\": {v}", json_escape(k)));
    }
    if !first {
        s.push_str(&format!("\n{indent}"));
    }
    s.push('}');
}

fn push_histogram_map(
    s: &mut String,
    label: &str,
    map: &BTreeMap<String, Histogram>,
    indent: &str,
) {
    s.push_str(&format!("{indent}\"{label}\": {{"));
    let mut first = true;
    for (k, h) in map {
        s.push_str(if first { "\n" } else { ",\n" });
        first = false;
        s.push_str(&format!(
            "{indent}  \"{}\": {}",
            json_escape(k),
            h.to_json()
        ));
    }
    if !first {
        s.push_str(&format!("\n{indent}"));
    }
    s.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::{Recorder, TraceRecorder};

    fn trace(pivots: u64, steals: u64, lp_ns: u64) -> SolveTrace {
        let rec = TraceRecorder::new();
        rec.incr("lp.pivots", pivots);
        rec.incr("ebf.rounds", 2);
        rec.incr("par.steals", steals);
        rec.record_max("par.queue_high_water", steals + 1);
        rec.record_max("ebf.peak_violations", pivots / 2);
        rec.gauge("lp.limit_fraction", 0.25);
        rec.add_time("time.lp", lp_ns);
        rec.event("ebf.round", "round 1");
        rec.snapshot()
    }

    #[test]
    fn exemption_is_prefix_based() {
        assert!(is_determinism_exempt_key("par.steals"));
        assert!(is_determinism_exempt_key("pool.queue_high_water"));
        assert!(is_determinism_exempt_key("time.lp"));
        assert!(!is_determinism_exempt_key("lp.pivots"));
        assert!(!is_determinism_exempt_key("partition.cuts"));
    }

    #[test]
    fn fold_routes_keys_by_contract_section() {
        let mut agg = AggregateTrace::new();
        agg.fold(&trace(10, 3, 500));
        agg.fold(&trace(6, 0, 700));
        assert_eq!(agg.solves, 2);
        assert_eq!(agg.counter("lp.pivots"), 16);
        assert_eq!(agg.maximum("lp.pivots"), 10);
        assert_eq!(agg.histogram("lp.pivots").unwrap().count(), 2);
        // Scheduling keys never leak into the deterministic section.
        assert_eq!(agg.counter("par.steals"), 0);
        assert_eq!(agg.sched_counters["par.steals"], 3);
        assert_eq!(agg.sched_maxima["par.queue_high_water"], 4);
        assert!(agg.histogram("par.steals").is_none());
        // Timers sum and keep per-solve distributions, in the exempt half.
        assert_eq!(agg.timings_ns["time.lp"], 1200);
        assert_eq!(agg.timing_histograms["time.lp"].count(), 2);
        assert_eq!(agg.events, 2);
    }

    #[test]
    fn fold_and_merge_are_order_independent() {
        let traces = [trace(10, 3, 500), trace(6, 0, 700), trace(90, 7, 100)];
        let mut forward = AggregateTrace::new();
        traces.iter().for_each(|t| forward.fold(t));
        let mut backward = AggregateTrace::new();
        traces.iter().rev().for_each(|t| backward.fold(t));
        assert_eq!(forward, backward);

        let mut a = AggregateTrace::new();
        a.fold(&traces[0]);
        let mut b = AggregateTrace::new();
        b.fold(&traces[1]);
        b.fold(&traces[2]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, forward);
    }

    #[test]
    fn json_is_strict_and_keeps_the_sections_ordered() {
        let mut agg = AggregateTrace::new();
        agg.fold(&trace(10, 3, 500));
        let doc = agg.to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid aggregate JSON: {e}\n{doc}"));
        let det = doc.find("\"deterministic\"").unwrap();
        let exempt = doc.find("\"determinism_exempt\"").unwrap();
        assert!(det < exempt);
        let exempt_half = &doc[exempt..];
        assert!(exempt_half.contains("par.steals"));
        assert!(exempt_half.contains("time.lp"));
        assert!(!doc[det..exempt].contains("par."));
        // Empty aggregate still serializes strictly.
        validate(&AggregateTrace::new().to_json()).unwrap();
    }

    #[test]
    fn prometheus_exposition_covers_every_section() {
        let mut agg = AggregateTrace::new();
        agg.fold(&trace(10, 3, 500));
        let text = agg.to_prometheus();
        assert!(text.contains("# TYPE lubt_lp_pivots_total counter"));
        assert!(text.contains("lubt_lp_pivots_total 10"));
        assert!(text.contains("# TYPE lubt_lp_pivots_per_solve histogram"));
        assert!(text.contains("lubt_par_steals_total 3"));
        assert!(text.contains("# TYPE lubt_time_lp_seconds_total counter"));
        assert!(text.contains("lubt_aggregate_solves_total 1"));
    }
}
