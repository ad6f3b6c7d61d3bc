//! Prometheus text-format helpers shared by [`crate::SolveTrace`] and
//! [`crate::AggregateTrace`].
//!
//! Naming convention (DESIGN.md §11): every dotted recorder key maps to
//! one metric family `lubt_<key with non-alphanumerics → '_'>` plus a
//! kind suffix — counters get `_total`, running maxima `_max`, phase
//! timers `_seconds_total` (converted from nanoseconds), per-solve
//! histograms `_per_solve`. The original dotted key is preserved in the
//! `# HELP` line so dashboards can be traced back to DESIGN.md's key
//! tables.

/// Maps a dotted recorder key to a Prometheus metric name body:
/// `lubt_` + the key with every non-`[a-zA-Z0-9_]` byte replaced by `_`
/// (a leading digit additionally gets a `_` prefix).
pub fn metric_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 5);
    out.push_str("lubt_");
    for (i, c) in key.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats an `f64` sample value the way the exposition format expects:
/// non-finite values become the `NaN` / `+Inf` / `-Inf` tokens Prometheus
/// defines (unlike JSON, the text format has them).
pub fn sample_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{x}")
    }
}

/// Escapes free text for a `# HELP` line. The exposition format defines
/// exactly two escapes there — `\\` for a backslash and `\n` for a line
/// feed — and everything else is verbatim. (JSON-style escaping is wrong
/// here: `\"` and `\t` are not recognized and would surface literally in
/// Prometheus.)
pub fn help_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Appends one single-sample metric family (`HELP` + `TYPE` + sample).
/// `help` is free text; it is escaped here, so callers pass it raw.
pub(crate) fn push_sample(out: &mut String, name: &str, mtype: &str, help: &str, value: &str) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {mtype}\n{name} {value}\n",
        help = help_escape(help)
    ));
}

/// `true` when `s` is a legal metric-family name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn legal_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` when `s` is a legal label name (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn legal_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Lints a text-format exposition against the Prometheus 0.0.4 grammar:
/// every `HELP`/`TYPE` family name and every sample name must be legal,
/// `TYPE` values must be known, no family may be declared twice, label
/// names must be legal and label values must use only the defined
/// escapes (`\\`, `\"`, `\n`), sample values must parse, and every
/// sample must belong to a declared family (histogram samples may use
/// the `_bucket`/`_sum`/`_count` suffixes).
///
/// This is the gate behind the live `/metrics` endpoint: the test suite
/// runs every emitted document through it, so a recorder key that
/// sanitizes into an illegal or colliding family name fails in CI rather
/// than in the scraper.
pub fn lint_exposition(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: Vec<String> = Vec::new();
    let fail = |n: usize, msg: String| Err(format!("exposition line {n}: {msg}"));
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest.split_once(' ').unwrap_or((rest, ""));
            if !legal_metric_name(name) {
                return fail(n, format!("illegal family name in HELP: {name:?}"));
            }
            if helps.iter().any(|h| h == name) {
                return fail(n, format!("family {name} declared HELP twice"));
            }
            helps.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let Some((name, ty)) = rest.split_once(' ') else {
                return fail(n, "TYPE line without a type".to_string());
            };
            if !legal_metric_name(name) {
                return fail(n, format!("illegal family name in TYPE: {name:?}"));
            }
            if !matches!(
                ty,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return fail(n, format!("unknown metric type {ty:?} for {name}"));
            }
            if types.insert(name.to_string(), ty.to_string()).is_some() {
                return fail(n, format!("family {name} declared TYPE twice"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal and ignored
        }
        // Sample line: `name[{labels}] value [timestamp]`.
        let name_end = line.find(['{', ' ']).unwrap_or(line.len());
        let name = &line[..name_end];
        if !legal_metric_name(name) {
            return fail(n, format!("illegal sample name: {name:?}"));
        }
        let mut rest = &line[name_end..];
        if let Some(inner) = rest.strip_prefix('{') {
            let mut chars = inner.char_indices();
            let mut labels_end = None;
            'outer: while let Some((i, c)) = chars.next() {
                match c {
                    '}' => {
                        labels_end = Some(i);
                        break 'outer;
                    }
                    '"' => {
                        // Skip the quoted label value, checking escapes.
                        while let Some((_, c)) = chars.next() {
                            match c {
                                '"' => continue 'outer,
                                '\\' => match chars.next() {
                                    Some((_, '\\' | '"' | 'n')) => {}
                                    other => {
                                        return fail(
                                            n,
                                            format!("bad escape in label value: {other:?}"),
                                        )
                                    }
                                },
                                _ => {}
                            }
                        }
                        return fail(n, "unterminated label value".to_string());
                    }
                    _ => {}
                }
            }
            let Some(labels_end) = labels_end else {
                return fail(n, "unterminated label set".to_string());
            };
            for pair in inner[..labels_end].split(',').filter(|p| !p.is_empty()) {
                let Some((lname, lvalue)) = pair.split_once('=') else {
                    return fail(n, format!("label without `=`: {pair:?}"));
                };
                if !legal_label_name(lname) {
                    return fail(n, format!("illegal label name: {lname:?}"));
                }
                if !(lvalue.starts_with('"') && lvalue.ends_with('"') && lvalue.len() >= 2) {
                    return fail(n, format!("unquoted label value: {lvalue:?}"));
                }
            }
            rest = &inner[labels_end + 1..];
        }
        let mut parts = rest.split_whitespace();
        let Some(value) = parts.next() else {
            return fail(n, format!("sample {name} has no value"));
        };
        if value.parse::<f64>().is_err() {
            return fail(n, format!("unparseable sample value {value:?} for {name}"));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return fail(n, format!("unparseable timestamp {ts:?} for {name}"));
            }
        }
        // The sample must belong to a declared family.
        let family_ok = types.contains_key(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| types.get(base).map(String::as_str) == Some("histogram"))
            });
        if !family_ok {
            return fail(n, format!("sample {name} has no TYPE declaration"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(metric_name("lp.pivots"), "lubt_lp_pivots");
        assert_eq!(metric_name("par.worker3.steals"), "lubt_par_worker3_steals");
        assert_eq!(metric_name("weird key/x"), "lubt_weird_key_x");
        assert_eq!(metric_name("9lives"), "lubt__9lives");
    }

    #[test]
    fn non_finite_samples_use_prometheus_tokens() {
        assert_eq!(sample_f64(f64::NAN), "NaN");
        assert_eq!(sample_f64(f64::INFINITY), "+Inf");
        assert_eq!(sample_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(sample_f64(1.5), "1.5");
    }

    #[test]
    fn help_escaping_uses_exposition_rules_not_json() {
        // Only `\\` and `\n` are defined for HELP text; quotes and tabs
        // pass through verbatim (json_escape would mangle both).
        assert_eq!(help_escape("a\\b"), "a\\\\b");
        assert_eq!(help_escape("line\nbreak"), "line\\nbreak");
        assert_eq!(help_escape("quote\" tab\t"), "quote\" tab\t");
    }

    #[test]
    fn sanitized_names_are_always_legal_families() {
        for key in [
            "time.dp",
            "iteration-limit",
            "par.worker3.steals",
            "9lives",
            "weird key/x",
            "ünïcode.key",
            "",
        ] {
            let name = metric_name(key);
            assert!(legal_metric_name(&name), "{key:?} -> illegal {name:?}");
        }
    }

    #[test]
    fn lint_accepts_what_push_sample_emits() {
        let mut out = String::new();
        push_sample(&mut out, "lubt_x_total", "counter", "Counter \"x\"", "3");
        push_sample(
            &mut out,
            "lubt_y",
            "gauge",
            "with\nnewline and back\\slash",
            "NaN",
        );
        out.push_str("# TYPE lubt_extra untyped\n");
        out.push_str("lubt_extra{le=\"+Inf\",q=\"a\\\"b\"} +Inf 1700000000\n");
        lint_exposition(&out).unwrap();
    }

    #[test]
    fn lint_rejects_malformed_expositions() {
        for (doc, why) in [
            ("# TYPE 9bad counter\n", "leading-digit family"),
            (
                "# TYPE lubt_x counter\n# TYPE lubt_x counter\n",
                "duplicate TYPE",
            ),
            ("# TYPE lubt_x widget\n", "unknown type"),
            ("# TYPE lubt_x counter\nlubt_x oops\n", "unparseable value"),
            ("lubt_x 1\n", "sample without TYPE"),
            (
                "# TYPE lubt_x counter\nlubt_x{9q=\"v\"} 1\n",
                "illegal label name",
            ),
            (
                "# TYPE lubt_x counter\nlubt_x{q=\"\\t\"} 1\n",
                "bad label escape",
            ),
            (
                "# TYPE lubt_x counter\nlubt_x{q=\"v\" 1\n",
                "unterminated labels",
            ),
            ("# HELP lubt_x a\n# HELP lubt_x b\n", "duplicate HELP"),
        ] {
            assert!(
                lint_exposition(doc).is_err(),
                "lint accepted {why}: {doc:?}"
            );
        }
    }
}
