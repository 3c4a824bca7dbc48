//! Benchmark harness for the PPA reproduction.
//!
//! Every figure and table of the paper's evaluation section has a
//! regeneration function in [`experiments`]; the `repro` binary dispatches
//! to them (`cargo run -p ppa-bench --release --bin repro -- fig8`), and
//! the benches in `benches/` time the simulator's building blocks with
//! the in-tree [`harness`] (no external bench framework).
//!
//! Experiment sizes default to traces that finish a full `repro all` in a
//! few minutes; set `PPA_REPRO_LEN` to scale them (micro-ops per
//! single-threaded trace; multi-threaded applications run 8 threads at a
//! third of the length each).

pub mod experiments;
pub mod gridwork;
pub mod harness;
pub mod sentinel;

/// Default per-trace micro-op count for single-threaded applications.
pub const DEFAULT_LEN: usize = 40_000;

/// Deterministic seed used by every experiment.
pub const SEED: u64 = 1;

/// Resolves the base experiment length from `PPA_REPRO_LEN`, or the
/// default. Front-ends read it once per run and pass it to every
/// experiment; grid units carry it in their payload, so a worker never
/// consults its own environment.
pub fn experiment_len() -> usize {
    std::env::var("PPA_REPRO_LEN")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_LEN)
}
