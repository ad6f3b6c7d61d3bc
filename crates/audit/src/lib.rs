//! Post-solve static analysis for LUBT: **exact rational certificate
//! auditing**.
//!
//! The float LP backends all work in `f64` arithmetic, so a common-mode
//! numerical bug is invisible to differential tests between them. This
//! crate closes that gap from the checking side: every solve outcome is
//! verified against a proof object — an optimality certificate (basis +
//! duals) or a Farkas infeasibility ray — using exact dyadic-rational
//! arithmetic, without re-solving anything. The §5 embedding is audited
//! the same way: pathlengths are re-derived exactly and compared against
//! each sink's `[l_i, u_i]` window.
//!
//! Findings surface as [`lubt_lint::Diagnostic`]s under `audit-*` slugs;
//! an empty result means the output is proven consistent to the stated
//! tolerances. The auditors never mutate or re-solve — they are pure
//! functions of (model, claimed output, certificate).
//!
//! # Example
//!
//! ```
//! use lubt_audit::audit_solution;
//! use lubt_lp::{Cmp, LinExpr, Model, RevisedSolver};
//!
//! let mut m = Model::new();
//! let x = m.add_var(0.0, 1.0);
//! m.add_constraint(LinExpr::from_terms([(x, 1.0)]), Cmp::Ge, 2.0);
//! let (solution, cert) = RevisedSolver::new().solve_certified(&m)?;
//! let findings = audit_solution(&m, &solution, cert.as_ref());
//! assert!(findings.is_empty());
//! # Ok::<(), lubt_lp::LpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
mod lp_audit;
mod tree;

pub use exact::{BigInt, BigUint, Rational};
pub use lp_audit::{
    audit_farkas, audit_optimality, audit_primal, audit_solution, PASS_CS, PASS_DUAL, PASS_FARKAS,
    PASS_MISSING, PASS_OBJECTIVE, PASS_PRIMAL,
};
pub use tree::{audit_tree, PASS_TREE};
