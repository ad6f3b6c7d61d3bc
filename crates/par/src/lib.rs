//! Dependency-free deterministic parallelism for the LUBT workspace.
//!
//! Two layers, both built on `std` scoped threads, `Mutex` and atomics
//! only (the build environment is offline — no rayon, no crossbeam):
//!
//! * [`parallel_map`] / [`parallel_flat_map`] — scoped, *deterministic*
//!   data-parallel iteration over an index range, in the style of the
//!   workassisting chunked self-scheduling loop. The range is split into
//!   chunks, chunks are distributed across per-worker deques, and idle
//!   workers steal; every chunk's output is buffered separately and the
//!   buffers are merged in ascending chunk order after the join. The
//!   result is **bit-for-bit identical for every thread count** (including
//!   the serial `threads <= 1` path) as long as the closure is pure.
//! * [`assist_flat_map`] / [`assist_reduce`] — work-assisting iteration:
//!   no pre-split partition at all, just one shared atomic claim index
//!   that every participant (the caller plus late-joining helpers) bumps
//!   to take the next block. Built for short, repeated, irregular loops
//!   inside a single solve — the partial-pricing window and the
//!   separation triangle — with the same ascending-block-order merge and
//!   the same bit-identity contract (DESIGN.md §17).
//!
//! That merge-order guarantee is the contract the EBF separation oracle
//! relies on: the violated-cut set a lazy solve adds each round — and
//! therefore the simplex pivot sequence — must not depend on scheduling.
//!
//! # Example
//!
//! ```
//! let squares = lubt_par::parallel_map(4, 100, 8, |i| i * i);
//! assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
//! // Same output on the exact sequential path.
//! assert_eq!(squares, lubt_par::parallel_map(1, 100, 8, |i| i * i));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assist;
mod chunks;

pub use assist::{assist_flat_map, assist_flat_map_traced, assist_reduce, assist_reduce_traced};
pub use chunks::{parallel_flat_map, parallel_flat_map_traced, parallel_map, parallel_map_traced};

/// Number of hardware threads available to this process (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread-count knob: `0` means "one worker per
/// available core", any other value is taken literally. `1` selects the
/// exact sequential path everywhere in the workspace.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_parallelism()
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
