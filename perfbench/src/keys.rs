//! Tolerant reads of the program's own span tree and counters.
//!
//! Span names and counter keys belong to the program and may be renamed or
//! dropped by later changes (a sparse-LU factor without a `refactor` span,
//! a build without `par.assist.*`). Every read here returns `None` for an
//! absent key, which the report prints as `missing`; the run goes on.

use lubt_obs::{SolveTrace, SpanNode, SpanTree};

/// Summed self time, in milliseconds, of every span named `name` anywhere
/// in `tree`; `None` when no span has that name.
pub fn span_self_ms(tree: &SpanTree, name: &str) -> Option<f64> {
    fn walk(node: &SpanNode, name: &str, acc: &mut Option<u64>) {
        if node.name == name {
            *acc = Some(acc.unwrap_or(0) + node.self_ns());
        }
        for c in &node.children {
            walk(c, name, acc);
        }
    }
    let mut acc = None;
    for r in &tree.roots {
        walk(r, name, &mut acc);
    }
    acc.map(|ns| ns as f64 / 1e6)
}

/// The counter `key` of `trace`; `None` when it was never recorded
/// (unlike [`SolveTrace::counter`], which reads an absent key as 0).
pub fn counter(trace: &SolveTrace, key: &str) -> Option<f64> {
    trace.counters.get(key).map(|&v| v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_across_paths_and_subtract_children() {
        let mut t = SpanTree::new();
        t.record("solve/round.0001/lp", 1, 5_000_000);
        t.record("solve/round.0001/lp/pricing", 3, 2_000_000);
        t.record("solve/round.0002/lp", 1, 4_000_000);
        t.record("solve/round.0002/lp/pricing", 2, 1_000_000);
        assert_eq!(span_self_ms(&t, "pricing"), Some(3.0));
        assert_eq!(span_self_ms(&t, "lp"), Some(6.0));
    }

    #[test]
    fn absent_spans_and_counters_read_as_missing() {
        // A trace from a build that has no intra-solve assist loop and a
        // renamed factor span: the reads must report absence, not 0.
        let mut trace = SolveTrace::default();
        trace.spans.record("solve/round.0001/lp/factorize", 1, 10);
        trace.counters.insert("lp.pivots".to_string(), 12);
        assert_eq!(span_self_ms(&trace.spans, "refactor"), None);
        assert_eq!(span_self_ms(&trace.spans, "eta_apply"), None);
        assert_eq!(counter(&trace, "par.assist.claims"), None);
        assert_eq!(counter(&trace, "lp.refactorizations"), None);
        assert_eq!(counter(&trace, "lp.pivots"), Some(12.0));
        assert_eq!(span_self_ms(&SpanTree::new(), "pricing"), None);
    }
}
