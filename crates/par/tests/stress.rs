//! Loom-style stress tests: scheduling-independence of the chunked
//! parallel loops and deadlock freedom of nested scoped loops. No loom in
//! the offline tree, so these hammer the real primitives with enough
//! iterations and thread counts to shake out ordering bugs; CI runs the
//! suite both single-threaded (`RUST_TEST_THREADS=1`) and with default
//! parallelism.

use lubt_par::{parallel_flat_map, parallel_map};

#[test]
fn chunked_loops_are_schedule_independent() {
    // Uneven per-index workloads (triangle rows) across many repetitions:
    // the merged output must always equal the serial order.
    let rows = 96;
    let serial = parallel_flat_map(1, rows, 4, |i, out| {
        for j in i + 1..rows {
            out.push((i, j, i * j));
        }
    });
    for rep in 0..20 {
        for threads in [2, 4, 8] {
            let par = parallel_flat_map(threads, rows, 4, |i, out| {
                for j in i + 1..rows {
                    out.push((i, j, i * j));
                }
            });
            assert_eq!(par, serial, "rep={rep} threads={threads}");
        }
    }
}

#[test]
fn nested_parallel_maps_do_not_deadlock() {
    // Scoped loops spawn fresh threads, so nesting cannot starve a worker
    // set.
    let out = parallel_map(4, 16, 1, |i| parallel_map(2, 8, 1, move |j| i * 8 + j));
    let flat: Vec<usize> = out.into_iter().flatten().collect();
    assert_eq!(flat, (0..128).collect::<Vec<_>>());
}
