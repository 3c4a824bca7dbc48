//! Distributed runs must be byte-identical to local ones, including
//! when a worker dies mid-lease. These tests drive the real
//! `ppa-bench` unit vocabulary through a real loopback TCP grid.

use ppa_bench::gridwork;
use ppa_grid::coord::GridConfig;
use ppa_grid::loopback;
use ppa_grid::proto::ByteWriter;
use ppa_grid::worker::{Units, WorkerOptions};
use ppa_serve::Grid;
use std::sync::{Arc, Barrier};

/// Transport-level equivalence: every fig11 cell unit executed through
/// a loopback grid (with one worker dying mid-lease) returns exactly
/// the bytes local execution produces, in submission order.
#[test]
fn transported_cells_match_local_execution_despite_worker_death() {
    let units = gridwork::units_for("fig11", 2_000).expect("fig11 decomposes");
    let expected: Vec<Vec<u8>> = units
        .iter()
        .map(|u| gridwork::execute(&u.tag, &u.payload).expect("cells execute locally"))
        .collect();

    let opts = vec![
        WorkerOptions {
            die_after: Some(2),
            ..WorkerOptions::default()
        },
        WorkerOptions::default(),
        WorkerOptions::default(),
    ];
    let lb = loopback::start(
        opts,
        Arc::new(Units(&[gridwork::UNITS])),
        GridConfig::default(),
    )
    .expect("loopback grid starts");
    let results = lb.run_units(units.clone());
    for ((unit, exp), res) in units.iter().zip(&expected).zip(results) {
        let outcome = res.expect("every unit completes despite the death");
        assert_eq!(
            outcome.payload, *exp,
            "unit {} diverged from local execution",
            unit.tag
        );
    }
    let stats = lb.coordinator().stats();
    assert!(stats.workers_lost >= 1, "stats: {stats:?}");
    assert!(stats.redispatched >= 1, "stats: {stats:?}");
    assert!(lb.shutdown().iter().any(|r| r.died));
}

/// Rendered-table equivalence: `render_experiment` through an installed
/// loopback grid produces the same string a grid-free render does.
/// (This test owns the process-wide grid handle; keep it the only test
/// in this binary that installs one.)
#[test]
fn rendered_tables_are_byte_identical_across_grid_configurations() {
    let registry = ppa_bench::experiments::all_experiments();
    let fig11 = registry
        .iter()
        .find(|(id, _)| *id == "fig11")
        .copied()
        .expect("fig11 is registered");
    let table1 = registry
        .iter()
        .find(|(id, _)| *id == "table1")
        .copied()
        .expect("table1 is registered");

    // Local renders first — render_experiment falls through to a plain
    // call while no grid handle is installed.
    let local_fig11 = gridwork::render_experiment(fig11.0, fig11.1, 1_500);
    let local_table1 = gridwork::render_experiment(table1.0, table1.1, 1_500);

    let lb = loopback::start_uniform(
        2,
        2,
        Arc::new(Units(&[gridwork::UNITS])),
        GridConfig::default(),
    )
    .expect("loopback grid starts");
    gridwork::install(Grid::Loopback(lb));

    // fig11 decomposes into per-app units; table1 ships whole. Both
    // paths must reproduce the local bytes.
    assert_eq!(
        gridwork::render_experiment(fig11.0, fig11.1, 1_500),
        local_fig11
    );
    assert_eq!(
        gridwork::render_experiment(table1.0, table1.1, 1_500),
        local_table1
    );
    let Some(Grid::Loopback(lb)) = gridwork::active() else {
        panic!("the loopback grid is installed");
    };
    let stats = lb.coordinator().stats();
    assert!(stats.completed >= 42, "stats: {stats:?}");
}

/// A shared worker may run whole-experiment units from two clients at
/// once, at different trace lengths. Each unit must render at the
/// length its own payload names: the daemon caches the returned table
/// under that unit's content-addressed key.
#[test]
fn concurrent_whole_experiment_units_render_at_their_own_length() {
    fn exp_unit(len: u64) -> (String, Vec<u8>) {
        let mut w = ByteWriter::new();
        w.put_str("os");
        w.put_u64(len);
        ("repro.exp:os".to_string(), w.into_bytes())
    }
    let render = |len| {
        let (tag, payload) = exp_unit(len);
        gridwork::execute(&tag, &payload).expect("os renders")
    };
    let lens = [1_200u64, 4_000];
    let expected: Vec<Vec<u8>> = lens.iter().map(|&len| render(len)).collect();
    assert_ne!(expected[0], expected[1], "the lengths must render apart");

    // Both threads start each round together, so the two lengths'
    // renders overlap every time. Mismatches are counted, not asserted
    // in the threads, so neither is left waiting on the barrier.
    const ROUNDS: usize = 4;
    let barrier = Barrier::new(lens.len());
    let wrong: Vec<usize> = std::thread::scope(|s| {
        let threads: Vec<_> = lens
            .iter()
            .zip(&expected)
            .map(|(&len, want)| {
                let barrier = &barrier;
                s.spawn(move || {
                    (0..ROUNDS)
                        .filter(|_| {
                            barrier.wait();
                            render(len) != *want
                        })
                        .count()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("render thread"))
            .collect()
    });
    assert_eq!(
        wrong,
        vec![0; lens.len()],
        "units rendered another length's table (per length, of {ROUNDS} rounds)"
    );
}
