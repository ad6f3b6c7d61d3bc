//! The output check: what a correct answer means.
//!
//! Every answer must
//! 1. pass the floating-point verifier ([`lubt_core::verify_raw`], the
//!    check behind `LubtSolution::verify`),
//! 2. pass the exact tree audit ([`lubt_audit::audit_tree`]) with no
//!    findings, and
//! 3. report a cost that equals its own edge-length sum and matches, to
//!    1e-9 relative, the cost of a reference solve of the same net and
//!    window made with `audit(true)` — optimality certified in rational
//!    arithmetic, so the reference holds for any seed and any later solver.
//!
//! The check compares only deterministic values, never timings, and runs
//! outside every timed interval.

use lubt_core::{verify_raw, LubtBuilder, LubtProblem, LubtSolution};
use lubt_geom::Point;
use lubt_obs::json::{self, Value};
use lubt_topology::NodeId;

/// Relative cost tolerance against the certified reference.
pub const COST_RTOL: f64 = 1e-9;

/// The deterministic content of one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Edge lengths indexed by child node (entry of the root unused).
    pub lengths: Vec<f64>,
    /// Placement of every node.
    pub positions: Vec<Point>,
    /// The cost the answer reports.
    pub cost: f64,
}

impl Answer {
    /// The answer carried by a library solution.
    pub fn of(sol: &LubtSolution) -> Self {
        Answer {
            lengths: sol.edge_lengths().to_vec(),
            positions: sol.positions().to_vec(),
            cost: sol.cost(),
        }
    }

    /// `true` when every length, coordinate and the cost agree bit for bit.
    pub fn bit_identical(&self, other: &Answer) -> bool {
        let bits = |a: &Answer| {
            let mut v: Vec<u64> = a.lengths.iter().map(|x| x.to_bits()).collect();
            v.extend(
                a.positions
                    .iter()
                    .flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
            );
            v.push(a.cost.to_bits());
            v
        };
        bits(self) == bits(other)
    }
}

/// The certified reference cost for `builder`'s net and window: the same
/// configuration solved with the exact certificate audit enabled.
pub fn reference_cost(builder: &LubtBuilder) -> Result<f64, String> {
    builder
        .clone()
        .audit(true)
        .solve()
        .map(|s| s.cost())
        .map_err(|e| format!("reference solve failed: {e}"))
}

/// `f` over `items` on `threads` scoped threads, results in input order.
/// The output check runs outside every timed interval, so it may use
/// every core.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}

/// Runs the three tests on `answer` for `problem`.
pub fn check_answer(problem: &LubtProblem, answer: &Answer, reference: f64) -> Result<(), String> {
    verify_raw(problem, &answer.lengths, &answer.positions).map_err(|e| format!("verify: {e}"))?;
    let findings = exact_tree_audit(problem, answer);
    if let Some(first) = findings.first() {
        return Err(format!(
            "exact tree audit: {} finding(s), first: {}",
            findings.len(),
            first.message
        ));
    }
    let sum: f64 = answer.lengths.iter().sum();
    if !close(answer.cost, sum) {
        return Err(format!(
            "reported cost {} differs from the edge-length sum {sum}",
            answer.cost
        ));
    }
    if !close(answer.cost, reference) {
        return Err(format!(
            "cost {} differs from the certified reference {reference}",
            answer.cost
        ));
    }
    Ok(())
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_RTOL * b.abs().max(1.0)
}

/// The exact tree audit of `answer` against `problem`'s topology and
/// delay windows: empty means proven in-window.
pub fn exact_tree_audit(problem: &LubtProblem, answer: &Answer) -> Vec<lubt_lint::Diagnostic> {
    let topo = problem.topology();
    let parents: Vec<usize> = (0..topo.num_nodes())
        .map(|v| topo.parent(NodeId(v)).map_or(v, |p| p.index()))
        .collect();
    let pos: Vec<(f64, f64)> = answer.positions.iter().map(|p| (p.x, p.y)).collect();
    let bounds = problem.bounds();
    let sinks: Vec<(usize, f64, f64)> = (0..topo.num_sinks())
        .map(|i| (i + 1, bounds.lower(i), bounds.upper(i)))
        .collect();
    lubt_audit::audit_tree(&parents, &answer.lengths, &pos, &sinks, topo.root().index())
}

/// The part of a serve response line that must repeat byte for byte for
/// the same key: everything after the echoed request id.
pub fn response_body(line: &str) -> Option<&str> {
    line.find(",\"op\":").map(|i| &line[i..])
}

/// The request id echoed by a serve response line, read without a full
/// parse (the full strict parse happens in [`parse_response`]).
pub fn response_id(line: &str) -> Option<&str> {
    let start = line.find("\"id\":\"")? + 6;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Strictly parses one `solve` response line into an [`Answer`] for a net
/// of `num_nodes` nodes. Error responses and malformed documents are
/// failures.
pub fn parse_response(line: &str, num_nodes: usize) -> Result<Answer, String> {
    let doc = json::parse(line).map_err(|e| format!("response is not strict JSON: {e}"))?;
    let status = doc.get("status").and_then(Value::as_str);
    if status != Some("ok") {
        let code = doc.get("code").and_then(Value::as_str).unwrap_or("?");
        return Err(format!("status {status:?}, code {code}"));
    }
    let sol = doc.get("solution").ok_or("response has no solution")?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
    let cost = num(sol, "cost").ok_or("solution has no cost")?;
    let mut positions = vec![Point::new(f64::NAN, f64::NAN); num_nodes];
    for node in sol
        .get("nodes")
        .and_then(Value::as_array)
        .ok_or("no nodes")?
    {
        let id = node
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("node without id")? as usize;
        let (x, y) = (num(node, "x"), num(node, "y"));
        match (positions.get_mut(id), x, y) {
            (Some(slot), Some(x), Some(y)) => *slot = Point::new(x, y),
            _ => return Err(format!("bad node {id}")),
        }
    }
    let mut lengths = vec![0.0; num_nodes];
    for edge in sol
        .get("edges")
        .and_then(Value::as_array)
        .ok_or("no edges")?
    {
        let child = edge
            .get("child")
            .and_then(Value::as_u64)
            .ok_or("edge without child")? as usize;
        match (lengths.get_mut(child), num(edge, "length")) {
            (Some(slot), Some(len)) => *slot = len,
            _ => return Err(format!("bad edge into {child}")),
        }
    }
    Ok(Answer {
        lengths,
        positions,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lubt_core::{solution_to_json, DelayBounds};
    use lubt_data::synthetic;

    fn builder(seed: u64, sinks: usize) -> LubtBuilder {
        let inst = synthetic::uniform("t", sinks, 1000.0, seed);
        let r = inst.radius();
        LubtBuilder::new(inst.sinks.clone())
            .source(inst.source.unwrap())
            .bounds(DelayBounds::uniform(sinks, 0.9 * r, 1.4 * r))
    }

    fn solved(seed: u64) -> (LubtProblem, LubtSolution, f64) {
        let b = builder(seed, 24);
        let sol = b.solve().unwrap();
        let reference = reference_cost(&b).unwrap();
        (b.build().unwrap(), sol, reference)
    }

    #[test]
    fn accepts_answers_for_seeds_not_used_while_writing() {
        for seed in [0x5EED_0001, 0x5EED_0002] {
            let (p, sol, reference) = solved(seed);
            check_answer(&p, &Answer::of(&sol), reference).unwrap();
        }
    }

    #[test]
    fn par_map_keeps_input_order() {
        let xs: Vec<u32> = (0..37).collect();
        for threads in [1, 2, 5, 64] {
            assert_eq!(
                par_map(&xs, threads, |x| x * 2),
                xs.iter().map(|x| x * 2).collect::<Vec<_>>()
            );
        }
        assert!(par_map(&[] as &[u32], 4, |x| *x).is_empty());
    }

    #[test]
    fn rejects_a_shortened_edge() {
        let (p, sol, reference) = solved(11);
        let mut a = Answer::of(&sol);
        let (k, len) = a
            .lengths
            .iter()
            .copied()
            .enumerate()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap();
        a.lengths[k] = 0.5 * len;
        a.cost = a.lengths.iter().sum();
        assert!(check_answer(&p, &a, reference).is_err());
    }

    #[test]
    fn rejects_a_cost_off_by_one_millionth() {
        let (p, sol, reference) = solved(12);
        let a = Answer::of(&sol);
        assert!(check_answer(&p, &a, reference * (1.0 + 1e-6)).is_err());
        let mut b = a.clone();
        b.cost *= 1.0 + 1e-6;
        assert!(check_answer(&p, &b, reference).is_err());
    }

    #[test]
    fn serve_responses_round_trip_and_a_changed_cost_is_rejected() {
        let (p, sol, reference) = solved(13);
        let payload = lubt_serve::protocol::single_line(&solution_to_json(&sol));
        let line =
            lubt_serve::protocol::ok_solution("7", lubt_serve::protocol::Op::Solve, &payload);
        assert_eq!(response_id(&line), Some("7"));
        let a = parse_response(&line, p.topology().num_nodes()).unwrap();
        assert!(a.bit_identical(&Answer::of(&sol)));
        check_answer(&p, &a, reference).unwrap();

        let cost = lubt_obs::json::json_f64(sol.cost());
        let bumped = lubt_obs::json::json_f64(sol.cost() * (1.0 + 1e-6));
        let forged = line.replacen(
            &format!("\"cost\": {cost}"),
            &format!("\"cost\": {bumped}"),
            1,
        );
        assert_ne!(forged, line, "the cost field was rewritten");
        let f = parse_response(&forged, p.topology().num_nodes()).unwrap();
        assert!(check_answer(&p, &f, reference).is_err());

        let err = lubt_serve::protocol::error_response("8", "queue-full", "full");
        assert!(parse_response(&err, 3).is_err());
        assert!(parse_response("{\"status\":\"ok\",}", 3).is_err());
    }
}
