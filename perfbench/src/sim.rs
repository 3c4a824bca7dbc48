//! The `sim` workload, and the machine drive shared with `serve`.
//!
//! One pass runs `repro all`'s mix of simulation work at `repro`'s
//! default length: every registry app under baseline, PPA, ReplayCache
//! and Capri through `Machine::run_app`, the parallel apps at 8 threads
//! under baseline, PPA and Capri (so Figure 8's cells are all here), and the four shared-memory apps on an 8-core
//! `SmpSystem` under baseline and PPA. Only `workloads`, `isa`, `sim`,
//! `core`, `mem` and `smp` do work here.
//!
//! Untraced, each cell is one public call. Traced, [`drive_app`] makes
//! the calls `Machine::run_app` makes (generation, the compiler pass,
//! `MemorySystem::new`, prewarm, `Core::new`, the step/tick loop) itself,
//! so each layer's share shows; every traced pass must reproduce the
//! untraced pass exactly.

use crate::trace;
use crate::{check_repeat, Cell, Outcome, Workload};
use ppa_core::{Core, PersistenceMode};
use ppa_isa::Trace;
use ppa_mem::MemorySystem;
use ppa_sim::{Machine, SimReport, SystemConfig};
use ppa_smp::{SmpReport, SmpSystem};
use ppa_workloads::shared::SharedApp;
use ppa_workloads::{registry, AppDescriptor};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// `repro`'s default per-app trace length.
pub const LEN: usize = 40_000;

/// Shared-memory machine size of the `smp` cells (Figure 19's smallest).
const SMP_THREADS: usize = 8;

/// The persistence schemes a cell runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    Baseline,
    Ppa,
    ReplayCache,
    Capri,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Baseline, Mode::Ppa, Mode::ReplayCache, Mode::Capri];

    pub fn config(self) -> SystemConfig {
        match self {
            Mode::Baseline => SystemConfig::baseline(),
            Mode::Ppa => SystemConfig::ppa(),
            Mode::ReplayCache => SystemConfig::replay_cache(),
            Mode::Capri => SystemConfig::capri(),
        }
    }

    /// Whether the scheme's compiler pass rewrites the trace.
    pub fn transforms(self) -> bool {
        matches!(self, Mode::ReplayCache | Mode::Capri)
    }

    /// Whether the scheme must leave NVM crash-consistent at the end.
    pub fn persists(self) -> bool {
        self != Mode::Baseline
    }
}

/// Times a lock-step loop's core steps and memory ticks, and records
/// them as aggregate spans once the loop ends.
pub struct LoopClock {
    first: Instant,
    last: Instant,
    step: Duration,
    tick: Duration,
    steps: u64,
    ticks: u64,
}

impl LoopClock {
    pub fn start() -> Self {
        let now = Instant::now();
        LoopClock {
            first: now,
            last: now,
            step: Duration::ZERO,
            tick: Duration::ZERO,
            steps: 0,
            ticks: 0,
        }
    }

    /// Marks the end of `n` core steps begun at the previous mark.
    pub fn stepped(&mut self, n: u64) {
        let now = Instant::now();
        self.step += now - self.last;
        self.steps += n;
        self.last = now;
    }

    /// Marks the end of one memory tick begun at the previous mark.
    pub fn ticked(&mut self) {
        let now = Instant::now();
        self.tick += now - self.last;
        self.ticks += 1;
        self.last = now;
    }

    /// Records the aggregates; validator time measured inside the steps
    /// nests under `core.step`, so the core's self time excludes it.
    pub fn record(self, cores: &[Core]) {
        let parent = trace::current();
        let step = trace::aggregate(parent, "core", "step", self.first, self.step, self.steps);
        trace::aggregate(parent, "mem", "tick", self.first, self.tick, self.ticks);
        for core in cores {
            for v in core.validator_timings() {
                trace::aggregate(step, "verify", v.name, self.first, v.elapsed, v.cycles);
            }
        }
    }
}

/// Builds the memory system and cores of a run.
pub fn build(cfg: &SystemConfig, threads: usize) -> (MemorySystem, Vec<Core>) {
    let mem = {
        let _s = trace::span("mem", "build");
        MemorySystem::new(cfg.mem, threads)
    };
    let _s = trace::span("core", "build");
    let cores = (0..threads).map(|i| Core::new(cfg.core, i)).collect();
    (mem, cores)
}

/// The hot and DRAM-resident lines `Machine::run_app` prewarms, chosen
/// exactly as it chooses them.
fn classify_lines(traces: &[Trace], app: &AppDescriptor) -> (Vec<u64>, Vec<u64>) {
    let mut hot = HashSet::new();
    let mut resident = HashSet::new();
    for t in traces {
        for u in t {
            if let Some(m) = u.mem {
                let line = ppa_isa::line_of(m.addr);
                if app.is_hot_line(line) {
                    hot.insert(line);
                } else if hash01(line) < app.dram_resident_frac {
                    resident.insert(line);
                }
            }
        }
    }
    let mut h: Vec<u64> = hot.into_iter().collect();
    h.sort_unstable();
    let mut r: Vec<u64> = resident.into_iter().collect();
    r.sort_unstable();
    (h, r)
}

fn hash01(x: u64) -> f64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `Machine::new(cfg).run_app(app, len, seed)`, made of the public calls
/// it makes so that each layer can be timed.
pub fn drive_app(cfg: SystemConfig, app: &AppDescriptor, len: usize, seed: u64) -> SimReport {
    let machine = Machine::new(cfg);
    let threads = cfg.threads.min(app.threads.max(1));
    let raw: Vec<Trace> = {
        let _s = trace::span("workloads", "gen");
        (0..threads)
            .map(|tid| app.generate_thread(len, seed, tid))
            .collect()
    };
    let traces: Vec<Trace> = {
        // Baseline and PPA run the raw binary; their "pass" is a copy.
        let layer = match cfg.core.mode {
            PersistenceMode::ReplayCache | PersistenceMode::Capri => "isa",
            _ => "sim",
        };
        let _s = trace::span(layer, "transform");
        raw.iter().map(|t| machine.prepare_trace(t)).collect()
    };
    drop(raw);
    let _run = trace::span("sim", "run");
    let (hot, resident) = classify_lines(&traces, app);
    let (mut mem, mut cores) = build(&cfg, threads);
    {
        let _s = trace::span("mem", "build");
        for &line in &hot {
            mem.prewarm_l2(line);
            mem.prewarm_dram(line);
        }
        for &line in &resident {
            mem.prewarm_dram(line);
        }
    }
    let total_uops: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let limit = 1_000_000 + total_uops * 2_000;
    let mut now = 0;
    let mut clock = LoopClock::start();
    loop {
        let mut all_done = true;
        for (core, trace) in cores.iter_mut().zip(&traces) {
            core.step(trace, &mut mem, now);
            all_done &= core.is_finished();
        }
        clock.stepped(cores.len() as u64);
        mem.tick(now);
        clock.ticked();
        now += 1;
        if all_done {
            break;
        }
        assert!(now < limit, "machine deadlocked after {now} cycles");
    }
    clock.record(&cores);
    let cycles = cores
        .iter()
        .map(|c| c.finished_at().expect("all cores finished"))
        .max()
        .unwrap_or(0);
    let committed = cores.iter().map(Core::committed).sum();
    let consistent = mem.nvm_image().diff(mem.arch_mem()).is_empty();
    SimReport {
        cycles,
        committed,
        core_stats: cores.into_iter().map(|c| c.stats().clone()).collect(),
        mem_stats: mem.stats(),
        consistent,
    }
}

/// One `run_app` cell: the public call untraced, [`drive_app`] traced.
pub fn run_app(cfg: SystemConfig, app: &AppDescriptor, len: usize, seed: u64) -> SimReport {
    if trace::on() {
        drive_app(cfg, app, len, seed)
    } else {
        Machine::new(cfg).run_app(app, len, seed)
    }
}

/// What a machine run is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Raw µops the program has, across threads.
    pub raw_uops: u64,
    /// µops the cores must commit (more than `raw_uops` when the
    /// scheme's compiler pass inserts instructions).
    pub uops: u64,
    /// Whether NVM must match architectural memory at the end.
    pub consistent: bool,
}

impl Expect {
    /// Whether a run met the expectation: it ran, committed every µop,
    /// and left NVM consistent where the scheme must.
    fn met(&self, cycles: u64, committed: u64, consistent: bool) -> bool {
        cycles > 0 && committed == self.uops && (consistent || !self.consistent)
    }
}

/// Core and memory counts every machine run reports.
const MODEL_COUNTS: [&str; 7] = [
    "core.regions",
    "core.region_end_stall_cycles",
    "core.rename_stall_cycles",
    "mem.l2.misses",
    "mem.dram.misses",
    "mem.nvm.writes",
    "mem.wpq_stall_cycles",
];

fn model_counts(cores: &[ppa_core::CoreStats], mem: &ppa_mem::MemStats) -> [u64; 7] {
    let sum = |f: fn(&ppa_core::CoreStats) -> u64| cores.iter().map(f).sum::<u64>();
    [
        sum(|c| c.regions),
        sum(|c| c.region_end_stall_cycles),
        sum(|c| c.rename_stall_cycles),
        mem.l2.misses,
        mem.dram.misses,
        mem.nvm.writes,
        mem.wpq_stall_cycles,
    ]
}

/// A `Machine` run's exact counts: cycles, committed µops, then
/// [`MODEL_COUNTS`].
pub fn report_counts(r: &SimReport) -> [u64; 9] {
    let mut counts = [r.cycles, r.committed, 0, 0, 0, 0, 0, 0, 0];
    counts[2..].copy_from_slice(&model_counts(&r.core_stats, &r.mem_stats));
    counts
}

/// The outcome of a `Machine` run with [`report_counts`] `counts`.
pub fn sim_outcome(counts: [u64; 9], consistent: bool, expect: &Expect) -> Outcome {
    let (cycles, committed) = (counts[0], counts[1]);
    let mut out = Outcome {
        ok: expect.met(cycles, committed, consistent),
        uops: committed,
        units: 1,
        counts: vec![
            ("sim.cycles", cycles),
            ("sim.uops", committed),
            ("workloads.uops", expect.raw_uops),
            (
                "isa.uops_inserted",
                committed.saturating_sub(expect.raw_uops),
            ),
        ],
    };
    out.counts
        .extend(MODEL_COUNTS.into_iter().zip(counts[2..].iter().copied()));
    out
}

fn smp_outcome(r: &SmpReport, expect: &Expect) -> Outcome {
    let mut out = Outcome {
        ok: expect.met(r.cycles, r.committed, r.consistent),
        uops: r.committed,
        units: 1,
        counts: vec![
            ("smp.cycles", r.cycles),
            ("smp.uops", r.committed),
            ("smp.drain_grants", r.drain_grants as u64),
            ("workloads.uops", expect.raw_uops),
        ],
    };
    out.counts.extend(
        MODEL_COUNTS
            .into_iter()
            .zip(model_counts(&r.core_stats, &r.mem_stats)),
    );
    out
}

#[derive(Debug, Clone)]
enum Kind {
    /// `Machine::run_app` with the config's thread count (1, or the
    /// app's own for the parallel cells).
    App(AppDescriptor),
    /// `SmpSystem::run` of a shared-memory app.
    Smp(SharedApp),
}

#[derive(Debug, Clone)]
struct SimCell {
    kind: Kind,
    mode: Mode,
    threads: usize,
    len: usize,
    expect: Expect,
}

pub struct Sim {
    seed: u64,
    cells: Vec<SimCell>,
    first: Option<Vec<Outcome>>,
}

/// The per-thread length `repro` gives a parallel app at base `len`.
fn parallel_len(len: usize) -> usize {
    (len / 3).max(2_000)
}

impl Sim {
    /// The cell list at single-thread length `len`; the set-up work is
    /// computing what each cell must commit, which for ReplayCache and
    /// Capri means generating and transforming its trace.
    pub fn with_len(seed: u64, len: usize) -> Sim {
        let mut cells = Vec::new();
        for app in registry::all() {
            let raw = app.generate(len, seed);
            for mode in Mode::ALL {
                let uops = if mode.transforms() {
                    Machine::new(mode.config()).prepare_trace(&raw).len() as u64
                } else {
                    raw.len() as u64
                };
                cells.push(SimCell {
                    kind: Kind::App(app),
                    mode,
                    threads: 1,
                    len,
                    expect: Expect {
                        raw_uops: raw.len() as u64,
                        uops,
                        consistent: mode.persists(),
                    },
                });
            }
        }
        for app in registry::multi_threaded() {
            for mode in [Mode::Baseline, Mode::Ppa, Mode::Capri] {
                let plen = parallel_len(len);
                let raw_uops = (plen * app.threads) as u64;
                let uops = if mode.transforms() {
                    let m = Machine::new(mode.config());
                    (0..app.threads)
                        .map(|tid| {
                            m.prepare_trace(&app.generate_thread(plen, seed, tid)).len() as u64
                        })
                        .sum()
                } else {
                    raw_uops
                };
                cells.push(SimCell {
                    kind: Kind::App(app),
                    mode,
                    threads: app.threads,
                    len: plen,
                    expect: Expect {
                        raw_uops,
                        uops,
                        consistent: mode.persists(),
                    },
                });
            }
        }
        for app in ppa_workloads::shared::all() {
            for mode in [Mode::Baseline, Mode::Ppa] {
                let slen = (len / (SMP_THREADS / 2)).max(1_000);
                let uops = (slen * SMP_THREADS) as u64;
                cells.push(SimCell {
                    kind: Kind::Smp(app),
                    mode,
                    threads: SMP_THREADS,
                    len: slen,
                    expect: Expect {
                        raw_uops: uops,
                        uops,
                        consistent: mode.persists(),
                    },
                });
            }
        }
        Sim {
            seed,
            cells,
            first: None,
        }
    }

    fn run_cell(&self, c: &SimCell) -> Outcome {
        match &c.kind {
            Kind::App(app) => {
                // As `run_app_parallel` sizes it: more cores, same core config.
                let cfg = SystemConfig {
                    threads: c.threads,
                    ..c.mode.config()
                };
                let r = run_app(cfg, app, c.len, self.seed);
                sim_outcome(report_counts(&r), r.consistent, &c.expect)
            }
            Kind::Smp(app) => {
                let cfg = c.mode.config().with_threads(c.threads);
                let traces = {
                    let _s = trace::span("workloads", "gen");
                    app.generate_threads(c.len, self.seed, c.threads)
                };
                let system = {
                    let _s = trace::span("smp", "build");
                    SmpSystem::new(cfg, traces)
                };
                let _s = trace::span("smp", "run");
                smp_outcome(&system.run(), &c.expect)
            }
        }
    }

    /// Geometric mean over Figure 8's cells of `mode`'s cycles against
    /// baseline's: the parallel apps at 8 threads, the rest on one core.
    fn slowdown_gmean(&self, cells: &[Cell], mode: Mode) -> f64 {
        let mut cycles: HashMap<(&str, Mode), u64> = HashMap::new();
        for (c, done) in self.cells.iter().zip(cells) {
            if let Kind::App(app) = &c.kind {
                if c.threads == app.threads {
                    cycles.insert((app.name, c.mode), done.out.count("sim.cycles"));
                }
            }
        }
        let logs: Vec<f64> = registry::all()
            .iter()
            .map(|a| {
                (cycles[&(a.name, mode)] as f64 / cycles[&(a.name, Mode::Baseline)] as f64).ln()
            })
            .collect();
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

impl Workload for Sim {
    const SETUPS: usize = 15;

    fn setup(seed: u64) -> Self {
        Sim::with_len(seed, LEN)
    }

    fn pass(&mut self, _index: usize) -> Vec<Cell> {
        self.cells
            .iter()
            .map(|c| crate::cell(|| self.run_cell(c)))
            .collect()
    }

    fn check(&mut self, cells: &mut [Cell]) {
        check_repeat(&mut self.first, cells);
    }

    fn extra_metrics(&self, cells: &[Cell]) -> Vec<(&'static str, f64)> {
        vec![
            (
                "sim.ppa_slowdown_gmean",
                self.slowdown_gmean(cells, Mode::Ppa),
            ),
            (
                "sim.capri_slowdown_gmean",
                self.slowdown_gmean(cells, Mode::Capri),
            ),
        ]
    }
}
