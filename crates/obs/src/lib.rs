//! Solve-trace observability for the LUBT workspace.
//!
//! Every stage of the pipeline — simplex pivoting, lazy cut separation,
//! geometric embedding, work-stealing batch scheduling — reports what it
//! did through the [`Recorder`] trait defined here. The crate is
//! dependency-free and deliberately tiny: a recorder is a sink for
//! monotonic counters, running maxima, gauges, per-phase wall-clock
//! timers, and a bounded event log.
//!
//! Two recorders ship with the crate:
//!
//! * [`NoopRecorder`] — the default everywhere; every call is a no-op and
//!   [`Recorder::enabled`] returns `false` so hot paths can skip even the
//!   bookkeeping needed to produce a value.
//! * [`TraceRecorder`] — accumulates everything behind a mutex and
//!   snapshots into a [`SolveTrace`], the serializable artifact behind
//!   `lubt solve --trace-json` and `lubt batch --metrics`.
//!
//! Above the per-solve layer sits the aggregation layer: a deterministic
//! log-bucketed [`Histogram`] and an [`AggregateTrace`] that folds many
//! [`SolveTrace`]s into suite-level counters, maxima and per-solve
//! distributions — the data model behind `lubt bench` / `lubt report`
//! benchmark files. Both traces also render as Prometheus text
//! expositions (see [`prometheus`]) so the same counters are scrapeable
//! when LUBT runs as a service.
//!
//! # Determinism carve-out
//!
//! The workspace guarantees byte-identical default output across thread
//! counts (DESIGN.md §9). Traces respect that split structurally: counter,
//! maximum, and gauge totals from deterministic phases reproduce across
//! runs, while wall-clock timings (and scheduling-dependent keys such as
//! `par.*` steal counts) live in clearly separated sections of the JSON
//! document and are exempt from the contract. The default (untraced)
//! output never contains a trace at all.
//!
//! # Example
//!
//! ```
//! use lubt_obs::{Recorder, TraceRecorder};
//! let rec = TraceRecorder::new();
//! rec.incr("lp.pivots", 42);
//! rec.record_max("lp.peak_pivots", 42);
//! let trace = rec.snapshot();
//! assert_eq!(trace.counter("lp.pivots"), 42);
//! lubt_obs::json::validate(&trace.to_json()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
pub mod fsio;
mod histogram;
pub mod json;
pub mod prometheus;
mod recorder;
mod span;
mod trace;

pub use aggregate::{is_determinism_exempt_key, AggregateTrace, DETERMINISM_EXEMPT_PREFIXES};
pub use histogram::Histogram;
pub use recorder::{
    noop, NoopRecorder, PhaseTimer, Recorder, SpanGuard, TraceRecorder, DEFAULT_EVENT_CAP,
};
pub use span::{lint_folded, SpanNode, SpanTree};
pub use trace::{SolveTrace, TraceEvent};
