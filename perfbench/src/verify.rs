//! The `verify` workload: cycle-level validators and crash oracles.
//!
//! One pass runs `ppa_verify::runner::check_app`, with all six
//! validators attached, on every single-thread app and three 8-thread
//! apps, then one crash-oracle point per registry app through
//! `ppa_verify::oracle::run_app` and whole-machine points through
//! `ppa_verify::smp_oracle::run_smp_app`. Validators dominate the check
//! cells; the oracle cells stop a core, `jit_checkpoint` it, replay its
//! stores, `Core::recover` and resume, and diff NVM against a golden
//! run. Lengths are kept short so a pass takes about three seconds.
//!
//! Traced, the check and single-core oracle cells are driven through
//! the public calls those functions make, so validator, checkpoint and
//! recovery time show; every traced pass must reproduce the untraced
//! pass exactly.

use crate::sim::{build, LoopClock};
use crate::{cell, check_repeat, trace, Cell, Outcome, Workload};
use ppa_core::{
    deserialize_images, replay_stores, serialize_images, CheckpointController, Core, CoreConfig,
    PersistenceMode,
};
use ppa_isa::Trace;
use ppa_mem::MemConfig;
use ppa_prng::Prng;
use ppa_sim::SystemConfig;
use ppa_smp::SmpSystem;
use ppa_verify::golden::GoldenMemory;
use ppa_verify::oracle::CHECKPOINT_BUDGET_BYTES;
use ppa_verify::{oracle, runner, smp_oracle};
use ppa_workloads::shared::SharedApp;
use ppa_workloads::{registry, AppDescriptor};

/// 8-thread apps checked with validators on every core, one per
/// parallel suite; every single-thread app is checked too.
const CHECK_PARALLEL_APPS: [&str; 3] = ["radix", "vacation", "tpcc"];
/// Trace length of a single-thread check cell; 8-thread cells run a
/// quarter of it per thread.
const CHECK_LEN: usize = 600;
/// Trace length of a single-core oracle point; whole-machine points run
/// half of it per core.
const ORACLE_LEN: usize = 2_000;
const SMP_ORACLE_CORES: [usize; 2] = [2, 4];

#[derive(Debug, Clone)]
enum VerifyCell {
    /// `check_app` of an app at a per-thread length.
    Check(AppDescriptor, usize),
    /// One `oracle::run_app` point at a length.
    Oracle(AppDescriptor, usize),
    /// One `run_smp_app` point on a core count at a per-core length.
    SmpOracle(SharedApp, usize, usize),
}

pub struct Verify {
    seed: u64,
    /// Each cell with the µops its traces hold.
    cells: Vec<(VerifyCell, u64)>,
    first: Option<Vec<Outcome>>,
}

/// A check cell passes when every core drained with no violation.
fn check_outcome(cycles: u64, finished: bool, violations: usize, uops: u64) -> Outcome {
    Outcome {
        ok: finished && violations == 0,
        uops,
        units: 1,
        counts: vec![
            ("verify.cycles_checked", cycles),
            ("verify.violations", violations as u64),
        ],
    }
}

/// An oracle point passes when `passed()` says so; `uops` counts the
/// clean run plus the failed-and-resumed run.
fn oracle_outcome(
    passed: bool,
    fail_cycle: u64,
    committed: u64,
    replayed: u64,
    uops: u64,
) -> Outcome {
    Outcome {
        ok: passed,
        uops,
        units: 1,
        counts: vec![
            ("verify.oracle_points", 1),
            ("verify.oracle.fail_cycle", fail_cycle),
            ("verify.oracle.committed", committed),
            ("verify.oracle.replayed", replayed),
        ],
    }
}

/// `runner::check_app`, made of the public calls it makes.
pub fn drive_check(app: &AppDescriptor, len: usize, seed: u64) -> (u64, bool, usize) {
    let traces: Vec<Trace> = {
        let _s = trace::span("workloads", "gen");
        (0..app.threads)
            .map(|tid| app.generate_thread(len, seed, tid))
            .collect()
    };
    let cfg = SystemConfig {
        core: CoreConfig::paper_default(PersistenceMode::Ppa),
        mem: MemConfig::memory_mode(),
        threads: app.threads,
    };
    let (mut mem, mut cores) = build(&cfg, app.threads);
    {
        let _s = trace::span("core", "build");
        for c in &mut cores {
            c.attach_default_validators();
        }
    }
    let uops: usize = traces.iter().map(Trace::len).sum();
    let limit = 1_000_000 + uops as u64 * 1_000;
    let mut now = 0;
    let mut finished = true;
    let mut clock = LoopClock::start();
    while cores.iter().any(|c| !c.is_finished()) {
        for (core, trace) in cores.iter_mut().zip(&traces) {
            core.step(trace, &mut mem, now);
        }
        clock.stepped(cores.len() as u64);
        mem.tick(now);
        clock.ticked();
        now += 1;
        if now >= limit {
            finished = false;
            break;
        }
    }
    clock.record(&cores);
    let violations = cores.iter_mut().map(|c| c.take_violations().len()).sum();
    (now, finished, violations)
}

/// Steps a lone core to completion, as `Core::run` does.
fn run_core(
    core: &mut Core,
    trace: &Trace,
    mem: &mut ppa_mem::MemorySystem,
    from: u64,
    until: u64,
) -> u64 {
    let mut now = from;
    let mut clock = LoopClock::start();
    while !core.is_finished() && now < until {
        core.step(trace, mem, now);
        clock.stepped(1);
        mem.tick(now);
        clock.ticked();
        now += 1;
    }
    clock.record(std::slice::from_ref(core));
    now
}

/// `oracle::run_app(app, len, seed, 1)`, made of the public calls it
/// makes: a clean run to size the failure window, then one failure
/// point with an uninterrupted checkpoint flush.
pub fn drive_oracle(app: &AppDescriptor, len: usize, seed: u64) -> Outcome {
    let trace = {
        let _s = trace::span("workloads", "gen");
        app.generate(len, seed)
    };
    let cfg = SystemConfig {
        core: CoreConfig::paper_default(PersistenceMode::Ppa),
        mem: MemConfig::memory_mode(),
        threads: 1,
    };
    let total_cycles = {
        // `Core::run`'s deadlock bound: it panics there, and so does this.
        let limit = 1_000_000 + trace.len() as u64 * 1_000;
        let (mut mem, mut cores) = build(&cfg, 1);
        let now = run_core(&mut cores[0], &trace, &mut mem, 0, limit);
        assert!(
            cores[0].is_finished(),
            "pipeline deadlock after {now} cycles"
        );
        cores[0].stats().cycles
    };
    let mut rng = Prng::seed_from_u64(seed ^ 0x07ac1e ^ app.name.len() as u64);
    let fail_cycle = rng.random_range(10..total_cycles.saturating_mul(4) / 5);

    let (mut mem, mut cores) = build(&cfg, 1);
    let mut core = cores.pop().expect("one core");
    run_core(&mut core, &trace, &mut mem, 0, fail_cycle);
    let image = {
        let _s = trace::span("core", "checkpoint");
        core.jit_checkpoint()
    };
    let committed = core.committed();
    let checkpoint_bytes = image.checkpoint_bytes(cfg.core.total_prf()) as usize;
    let stream = serialize_images(std::slice::from_ref(&image));
    let mut fsm = CheckpointController::new();
    fsm.power_fail(stream.len() as u64 * 8);
    fsm.run_to_completion();
    mem.power_failure();
    let recovered_image = deserialize_images(&stream)
        .and_then(|mut v| if v.len() == 1 { v.pop() } else { None })
        .expect("a completed flush must deserialize to one image");
    let stream_recovered = recovered_image == image;
    let golden_prefix = GoldenMemory::from_trace_prefix(&trace, committed);
    let report = {
        let _s = trace::span("core", "replay");
        replay_stores(&recovered_image, mem.nvm_image_mut())
    };
    let recovery_clean = golden_prefix.diff_nvm(mem.nvm_image()).is_empty();
    let mut recovered = {
        let _s = trace::span("core", "recover");
        Core::recover(cfg.core, 0, &recovered_image)
    };
    let uops = trace.len() as u64;
    run_core(
        &mut recovered,
        &trace,
        &mut mem,
        fail_cycle,
        fail_cycle + 1_000_000 + uops * 1_000,
    );
    let resumed = recovered.is_finished() && recovered.committed() == uops;
    let final_clean = GoldenMemory::from_trace(&trace)
        .diff_nvm(mem.nvm_image())
        .is_empty();
    let passed = recovery_clean
        && resumed
        && final_clean
        && checkpoint_bytes <= CHECKPOINT_BUDGET_BYTES
        && stream_recovered;
    oracle_outcome(
        passed,
        fail_cycle,
        committed,
        report.replayed_stores as u64,
        2 * uops,
    )
}

/// `smp_oracle::run_smp_app(app, cores, len, seed, 1)` with its clean
/// sizing run driven here; the failure point itself is one call.
pub fn drive_smp_oracle(
    app: &SharedApp,
    cores: usize,
    len: usize,
    seed: u64,
) -> smp_oracle::SmpOracleOutcome {
    let cfg = SystemConfig::ppa().with_threads(cores);
    let traces = {
        let _s = trace::span("workloads", "gen");
        app.generate_threads(len, seed, cores)
    };
    let system = {
        let _s = trace::span("smp", "build");
        SmpSystem::new(cfg, traces)
    };
    let total_cycles = {
        let _s = trace::span("smp", "run");
        system.run().cycles
    };
    let mut rng = Prng::seed_from_u64(seed ^ 0x53b9 ^ (app.name.len() as u64) << 8);
    let fail_cycle = rng.random_range(10..total_cycles.saturating_mul(4) / 5);
    smp_oracle::run_smp_point(app, cores, len, seed, fail_cycle, None)
}

impl Verify {
    fn run_cell(&self, c: &VerifyCell, uops: u64) -> Outcome {
        let seed = self.seed;
        match c {
            VerifyCell::Check(app, len) => {
                let _s = trace::span("verify", "check");
                if trace::on() {
                    let (cycles, finished, violations) = drive_check(app, *len, seed);
                    check_outcome(cycles, finished, violations, uops)
                } else {
                    let r = runner::check_app(app, *len, seed);
                    check_outcome(r.cycles, r.finished, r.violations.len(), uops)
                }
            }
            VerifyCell::Oracle(app, len) => {
                let _s = trace::span("verify", "oracle");
                if trace::on() {
                    drive_oracle(app, *len, seed)
                } else {
                    let o = oracle::run_app(app, *len, seed, 1)
                        .pop()
                        .expect("one point");
                    oracle_outcome(o.passed(), o.fail_cycle, o.committed, o.replayed, 2 * uops)
                }
            }
            VerifyCell::SmpOracle(app, cores, len) => {
                let _s = trace::span("verify", "oracle");
                let o = if trace::on() {
                    drive_smp_oracle(app, *cores, *len, seed)
                } else {
                    smp_oracle::run_smp_app(app, *cores, *len, seed, 1)
                        .pop()
                        .expect("one point")
                };
                let mut out = oracle_outcome(
                    o.passed(),
                    o.fail_cycle,
                    o.committed,
                    o.replayed as u64,
                    2 * uops,
                );
                out.counts.push(("smp.drain_grants", o.drain_grants as u64));
                out
            }
        }
    }

    /// The cell list with single-thread check cells of `check_len` and
    /// single-core oracle points of `oracle_len`. The set-up work is
    /// generating every cell's traces once, to know the µops each commits.
    pub fn with_len(seed: u64, check_len: usize, oracle_len: usize) -> Verify {
        let by_name = |n: &str| registry::by_name(n).expect("app in the registry");
        let mut cells: Vec<VerifyCell> = registry::all()
            .into_iter()
            .filter(|app| app.threads == 1)
            .map(|app| VerifyCell::Check(app, check_len))
            .collect();
        cells.extend(
            CHECK_PARALLEL_APPS
                .iter()
                .map(|n| VerifyCell::Check(by_name(n), check_len / 4)),
        );
        cells.extend(
            registry::all()
                .into_iter()
                .map(|app| VerifyCell::Oracle(app, oracle_len)),
        );
        for app in ppa_workloads::shared::all() {
            for cores in SMP_ORACLE_CORES {
                cells.push(VerifyCell::SmpOracle(app, cores, oracle_len / 2));
            }
        }
        let cells = cells
            .into_iter()
            .map(|c| {
                let uops = match &c {
                    VerifyCell::Check(app, len) => (0..app.threads)
                        .map(|tid| app.generate_thread(*len, seed, tid).len())
                        .sum::<usize>(),
                    VerifyCell::Oracle(app, len) => app.generate(*len, seed).len(),
                    VerifyCell::SmpOracle(app, cores, len) => app
                        .generate_threads(*len, seed, *cores)
                        .iter()
                        .map(Trace::len)
                        .sum(),
                };
                (c, uops as u64)
            })
            .collect();
        Verify {
            seed,
            cells,
            first: None,
        }
    }
}

impl Workload for Verify {
    const SETUPS: usize = 200;

    fn setup(seed: u64) -> Self {
        Verify::with_len(seed, CHECK_LEN, ORACLE_LEN)
    }

    fn pass(&mut self, _index: usize) -> Vec<Cell> {
        self.cells
            .iter()
            .map(|(c, uops)| cell(|| self.run_cell(c, *uops)))
            .collect()
    }

    fn check(&mut self, cells: &mut [Cell]) {
        check_repeat(&mut self.first, cells);
    }
}
