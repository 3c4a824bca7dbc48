//! The determinism contract of the multi-core machine: the shared-state
//! fig19 sweep renders byte-identical output at any job count.

use ppa_bench::experiments;
use ppa_pool::ThreadPool;

/// Render `fig19` with per-workload machine simulations fanned out across
/// `workers` pool threads. The experiment body runs as a pool job, so its
/// nested `par_map_ordered` calls pick up this pool through the
/// ambient-pool thread-local instead of the (serial) global default.
fn fig19_with_workers(workers: usize) -> String {
    let pool = ThreadPool::new(workers);
    pool.par_map([()], |()| experiments::fig19(800).to_string())
        .pop()
        .expect("one job")
        .expect("fig19 does not panic")
}

#[test]
fn fig19_is_byte_identical_at_any_job_count() {
    let serial = fig19_with_workers(1);
    let parallel = fig19_with_workers(8);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "parallel fan-out changed rendered output");
}
