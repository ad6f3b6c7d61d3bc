//! [`SolveTrace`]: the immutable, serializable snapshot of a recorder.

use std::collections::BTreeMap;

use crate::json::{json_escape, json_f64};
use crate::prometheus::{metric_name, push_sample, sample_f64};
use crate::span::SpanTree;

/// One entry of the bounded event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Dotted key naming the emitting phase (`"ebf.round"`).
    pub key: String,
    /// Free-form human-readable message.
    pub message: String,
}

/// Everything a [`crate::TraceRecorder`] accumulated over a solve.
///
/// Counters, maxima, gauges, and events from deterministic phases
/// reproduce bit-for-bit across runs and thread counts; `timings_ns` (and
/// scheduling-dependent keys such as `par.*`) do not, and the JSON
/// emitted by [`SolveTrace::to_json`] keeps timings in a separate,
/// clearly-flagged section so the determinism contract stays auditable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveTrace {
    /// Monotonic counters (`"lp.pivots"` → total pivots).
    pub counters: BTreeMap<String, u64>,
    /// Running maxima (`"pool.queue_high_water"`).
    pub maxima: BTreeMap<String, u64>,
    /// Last-write-wins gauges (`"lp.limit_fraction"`).
    pub gauges: BTreeMap<String, f64>,
    /// Per-phase wall-clock nanoseconds — determinism-exempt.
    pub timings_ns: BTreeMap<String, u64>,
    /// Bounded event log, in emission order.
    pub events: Vec<TraceEvent>,
    /// Events discarded after the log filled up.
    pub events_dropped: u64,
    /// Hierarchical span profile. The tree's *shape* (paths, hit counts,
    /// name-sorted child order) is deterministic; its durations are
    /// wall clock and render in the exempt timings section (DESIGN.md
    /// §16).
    pub spans: SpanTree,
}

impl SolveTrace {
    /// The counter value for `key`, `0` when never incremented.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// The running maximum for `key`, `0` when never recorded.
    pub fn maximum(&self, key: &str) -> u64 {
        self.maxima.get(key).copied().unwrap_or(0)
    }

    /// The gauge value for `key`, if it was ever set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Total wall-clock nanoseconds recorded under `key`.
    pub fn timing_ns(&self, key: &str) -> u64 {
        self.timings_ns.get(key).copied().unwrap_or(0)
    }

    /// A warn-level human-readable note when the bounded event log
    /// overflowed and dropped events, `None` otherwise. The CLI prints
    /// this next to its trace/metrics reports so a silently clipped log
    /// becomes a visible finding (the JSON document alone buries it).
    pub fn events_dropped_note(&self) -> Option<String> {
        (self.events_dropped > 0).then(|| {
            format!(
                "warning[trace-events-dropped]: event log overflowed; {} event(s) \
                 dropped after the first {} (raise the recorder's event cap \
                 to keep them)",
                self.events_dropped,
                self.events.len()
            )
        })
    }

    /// `true` when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.maxima.is_empty()
            && self.gauges.is_empty()
            && self.timings_ns.is_empty()
            && self.events.is_empty()
            && self.events_dropped == 0
            && self.spans.is_empty()
    }

    /// Serializes the trace as a strict-JSON document.
    ///
    /// Deterministic material (counters, maxima, gauges, events) comes
    /// first; wall-clock timings live under the `"timings"` key with an
    /// explicit `"determinism_exempt": true` marker (DESIGN.md §10). All
    /// numbers go through the total formatter, so non-finite gauges
    /// become `null` rather than bare `NaN`/`inf` tokens.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"lubt-trace-v1\",\n");

        s.push_str("  \"counters\": {");
        push_u64_map(&mut s, &self.counters);
        s.push_str("  },\n");

        s.push_str("  \"maxima\": {");
        push_u64_map(&mut s, &self.maxima);
        s.push_str("  },\n");

        s.push_str("  \"gauges\": {");
        let mut first = true;
        for (k, v) in &self.gauges {
            push_sep(&mut s, &mut first);
            s.push_str(&format!("    \"{}\": {}", json_escape(k), json_f64(*v)));
        }
        close_map(&mut s, first);
        s.push_str("  },\n");

        s.push_str("  \"events\": [");
        let mut first = true;
        for e in &self.events {
            push_sep(&mut s, &mut first);
            s.push_str(&format!(
                "    {{\"key\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&e.key),
                json_escape(&e.message)
            ));
        }
        if !first {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str(&format!("  \"events_dropped\": {},\n", self.events_dropped));

        // Span *shape* (depth-first path → hit count) is deterministic
        // material; span durations join the timings below.
        let span_rows = self.spans.flatten();
        s.push_str("  \"spans\": {");
        let mut first = true;
        for (path, hits, _) in &span_rows {
            push_sep(&mut s, &mut first);
            s.push_str(&format!("    \"{}\": {}", json_escape(path), hits));
        }
        close_map(&mut s, first);
        s.push_str("  },\n");

        s.push_str("  \"timings\": {\n    \"determinism_exempt\": true,\n    \"nanos\": {");
        let mut first = true;
        for (k, v) in &self.timings_ns {
            push_sep(&mut s, &mut first);
            s.push_str(&format!("      \"{}\": {}", json_escape(k), v));
        }
        if !first {
            s.push_str("\n    ");
        }
        s.push_str("},\n    \"span_nanos\": {");
        let mut first = true;
        for (path, _, ns) in &span_rows {
            push_sep(&mut s, &mut first);
            s.push_str(&format!("      \"{}\": {}", json_escape(path), ns));
        }
        if !first {
            s.push_str("\n    ");
        }
        s.push_str("}\n  }\n}\n");
        s
    }

    /// Renders the trace in the Prometheus text exposition format:
    /// counters as `<name>_total`, maxima as `<name>_max` gauges, gauges
    /// verbatim, phase timers as `<name>_seconds_total`, plus the event
    /// drop counter. Naming rules live in [`crate::prometheus`].
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (key, &v) in &self.counters {
            push_sample(
                &mut out,
                &format!("{}_total", metric_name(key)),
                "counter",
                &format!("Counter \"{}\"", key),
                &v.to_string(),
            );
        }
        for (key, &v) in &self.maxima {
            push_sample(
                &mut out,
                &format!("{}_max", metric_name(key)),
                "gauge",
                &format!("Running maximum \"{}\"", key),
                &v.to_string(),
            );
        }
        for (key, &v) in &self.gauges {
            push_sample(
                &mut out,
                &metric_name(key),
                "gauge",
                &format!("Gauge \"{}\"", key),
                &sample_f64(v),
            );
        }
        for (key, &ns) in &self.timings_ns {
            push_sample(
                &mut out,
                &format!("{}_seconds_total", metric_name(key)),
                "counter",
                &format!("Wall-clock total of phase \"{}\"", key),
                &sample_f64(ns as f64 / 1e9),
            );
        }
        push_sample(
            &mut out,
            "lubt_trace_events_dropped_total",
            "counter",
            "Events discarded by the bounded log",
            &self.events_dropped.to_string(),
        );
        out
    }
}

fn push_sep(s: &mut String, first: &mut bool) {
    if *first {
        s.push('\n');
        *first = false;
    } else {
        s.push_str(",\n");
    }
}

fn close_map(s: &mut String, first: bool) {
    if !first {
        s.push('\n');
    }
}

fn push_u64_map(s: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (k, v) in map {
        push_sep(s, &mut first);
        s.push_str(&format!("    \"{}\": {}", json_escape(k), v));
    }
    close_map(s, first);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;
    use crate::{Recorder, TraceRecorder};

    fn sample() -> SolveTrace {
        let rec = TraceRecorder::new();
        rec.incr("lp.pivots", 120);
        rec.incr("ebf.rounds", 3);
        rec.record_max("pool.queue_high_water", 9);
        rec.gauge("lp.limit_fraction", 0.0006);
        rec.gauge("ebf.residual_violation", f64::NAN);
        rec.add_time("time.lp", 1_234_567);
        rec.event("ebf.round", "round 1: 17 cuts, residual 3.5e-2");
        rec.snapshot()
    }

    #[test]
    fn json_is_strictly_valid_even_with_nan_gauges() {
        let doc = sample().to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid trace JSON: {e}\n{doc}"));
        assert!(doc.contains("\"ebf.residual_violation\": null"));
        assert!(!doc.contains("NaN"));
    }

    #[test]
    fn empty_trace_serializes_to_valid_json() {
        let doc = SolveTrace::default().to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid empty trace JSON: {e}\n{doc}"));
    }

    #[test]
    fn timings_live_in_their_own_exempt_section() {
        let doc = sample().to_json();
        let timings_at = doc.find("\"timings\"").expect("timings section");
        let exempt_at = doc.find("\"determinism_exempt\": true").expect("marker");
        assert!(exempt_at > timings_at);
        // Deterministic sections come before the timings section.
        assert!(doc.find("\"counters\"").unwrap() < timings_at);
        assert!(doc.find("\"events\"").unwrap() < timings_at);
    }

    #[test]
    fn prometheus_rendering_covers_every_kind() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE lubt_lp_pivots_total counter"));
        assert!(text.contains("lubt_lp_pivots_total 120"));
        assert!(text.contains("# TYPE lubt_pool_queue_high_water_max gauge"));
        assert!(text.contains("lubt_time_lp_seconds_total 0.001234567"));
        // Non-finite gauges use the exposition tokens, never bare JSON-isms.
        assert!(text.contains("lubt_ebf_residual_violation NaN"));
        assert!(text.contains("lubt_trace_events_dropped_total 0"));
    }

    #[test]
    fn events_dropped_note_only_fires_on_overflow() {
        assert_eq!(sample().events_dropped_note(), None);
        let rec = TraceRecorder::with_event_cap(1);
        rec.event("k", "kept");
        rec.event("k", "dropped");
        rec.event("k", "dropped too");
        let note = rec.snapshot().events_dropped_note().expect("overflowed");
        assert!(note.contains("warning[trace-events-dropped]"), "{note}");
        assert!(note.contains("2 event(s)"), "{note}");
    }

    #[test]
    fn span_shape_is_deterministic_material_and_nanos_are_exempt() {
        let rec = TraceRecorder::new();
        rec.span_enter("solve");
        rec.span_record("lp", 3, 42);
        rec.span_exit(1_000);
        let doc = rec.snapshot().to_json();
        validate(&doc).unwrap_or_else(|e| panic!("invalid trace JSON: {e}\n{doc}"));
        let timings_at = doc.find("\"timings\"").unwrap();
        let shape_at = doc.find("\"solve/lp\": 3").expect("span hits in shape map");
        assert!(
            shape_at < timings_at,
            "span shape must precede timings:\n{doc}"
        );
        let nanos_at = doc.find("\"solve/lp\": 42").expect("span nanos");
        assert!(nanos_at > timings_at, "span nanos must be exempt:\n{doc}");
        assert!(
            doc.find("\"span_nanos\"").unwrap() > doc.find("\"determinism_exempt\": true").unwrap()
        );
    }

    #[test]
    fn accessors_default_to_zero() {
        let t = sample();
        assert_eq!(t.counter("lp.pivots"), 120);
        assert_eq!(t.maximum("pool.queue_high_water"), 9);
        assert_eq!(t.timing_ns("time.lp"), 1_234_567);
        assert_eq!(t.counter("nope"), 0);
        assert!(!t.is_empty());
        assert!(SolveTrace::default().is_empty());
    }
}
