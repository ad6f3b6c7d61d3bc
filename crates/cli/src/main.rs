//! `lubt` — command-line front end for the LUBT routing-tree toolkit.
//!
//! ```text
//! lubt solve <input> --lower 0.9 --upper 1.3 [--absolute] [--topology nn|matching|bisect|aware]
//!                     [--lp-backend revised|ipm|dp] [--max-lp-iterations N] [--svg out.svg]
//!                     [--trace-json [out.json]] [--audit]
//! lubt batch <input>... --lower L --upper U [--threads N] [--audit] [--metrics [out.json]]
//!                       [--metrics-prom [out.prom]]
//! lubt audit <input> --lower L --upper U [--absolute] [--lp-backend revised|ipm|dp]
//!                    [--json [out.json]]
//! lubt bench [--label L] [--threads N] [--sizes A,B,C] [--full] [--audit] [--out file]
//! lubt report --baseline A.json --current B.json [--ignore-timings] [--json [out.json]]
//! lubt lint <input> [--lower L] [--upper U] [--absolute] [--json [out.json]]
//! lubt zeroskew <input> [--target T] [--svg out.svg]
//! lubt bst <input> --skew 0.1 [--absolute]
//! lubt gen <prim1|prim2|r1|r3|uniform|clustered> [--sinks N] [--seed K] [--die D] [--out file]
//! ```
//!
//! `<input>` is the plain-text instance format of `lubt-data` (`name`,
//! optional `source x y`, `sink x y` lines). Bounds and skew values are
//! normalized to the instance radius unless `--absolute` is given.

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
