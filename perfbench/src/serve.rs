//! The `serve` workload: short simulations through the daemon.
//!
//! An in-process `ppa_serve::Daemon` with one grid worker
//! (`ppa_grid::run_worker`) whose executor runs short `Machine::run_app`
//! cells, and a closed-loop client.
//!
//! The traffic is the repository's one cached re-run client: the
//! ppa-dse serve gate in `ci.sh` runs `ppa-dse sweep --axes csq,region
//! --apps sjeng,gobmk --len 1500` against a daemon twice. That sweep
//! sends its 14 cells (7 configurations × 2 apps) in one `run_units`
//! batch, and the second sweep is served from the cache. So a sweep
//! here is one batch of 14 units over sjeng and gobmk; like a
//! ppa-dse cell, a unit runs a persistence scheme and its baseline
//! comparator at 1 500 µops. The benchmark's executor runs the
//! standard schemes, so a scheme and a trace seed stand in for each of
//! the 7 design points. A pass is one gate run: a sweep, then the same
//! sweep again, so half the round trips are fresh and half are cache
//! hits, and a pass's `cell_p50_ms` is the mean of the two. Like each
//! ppa-dse invocation, each sweep connects a new `ServeClient` first.
//! The gate's worker runs `PPA_JOBS=4`; here it runs as many jobs as
//! there are cores, at most two. Transport, dispatch, leases and the
//! result cache dominate; the many short runs make core and memory
//! construction show. A round trip's grid overhead is its time when no
//! executor runs.
//!
//! Each pass draws fresh sweeps from its own seed, so no unit is cached
//! across passes. After a pass, every payload is compared with a local
//! `Machine::run_app` of the same unit, and the scheme's committed µops
//! with the length of its transformed trace.

use crate::sim::{report_counts, run_app, sim_outcome, Expect, Mode};
use crate::{cell, trace, Cell, Outcome, Workload};
use ppa_grid::{run_worker, Executor, UnitOutcome, UnitRunner, UnitSpec, WorkerOptions};
use ppa_prng::Prng;
use ppa_serve::{Daemon, DaemonOptions, ServeClient};
use ppa_sim::{Machine, SimReport};
use ppa_workloads::{registry, AppDescriptor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const TAG: &str = "perfbench.run_app";
/// Executor jobs: the gate's worker runs 4, capped at the cores here.
const MAX_JOBS: usize = 2;
/// µops per run, the gate's `--len 1500`.
const LEN: usize = 1_500;
/// The apps of a sweep, the gate's `--apps sjeng,gobmk`; a unit's `app`
/// indexes them.
const APPS: [&str; 2] = ["sjeng", "gobmk"];
/// Configurations of a sweep, as many as the gate's sweep evaluates.
const CONFIGS_PER_SWEEP: usize = 7;
/// The schemes a unit compares with its baseline.
const SCHEMES: [Mode; 3] = [Mode::Ppa, Mode::ReplayCache, Mode::Capri];

/// One unit: an app, a scheme and a trace seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Unit {
    app: u8,
    scheme: u8,
    seed: u64,
}

/// A run's [`report_counts`] and `consistent`, as result words.
const RUN_WORDS: usize = 10;

impl Unit {
    fn encode(&self) -> Vec<u8> {
        let mut b = vec![self.app, self.scheme];
        b.extend_from_slice(&self.seed.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Result<Unit, String> {
        if b.len() != 10 {
            return Err(format!("unit payload of {} bytes", b.len()));
        }
        let unit = Unit {
            app: b[0],
            scheme: b[1],
            seed: u64::from_le_bytes(b[2..10].try_into().expect("8 bytes")),
        };
        if usize::from(unit.app) >= APPS.len() || usize::from(unit.scheme) >= SCHEMES.len() {
            return Err(format!("unit out of range: {unit:?}"));
        }
        Ok(unit)
    }

    fn app(&self) -> AppDescriptor {
        registry::by_name(APPS[usize::from(self.app)]).expect("app in the registry")
    }

    fn scheme(&self) -> Mode {
        SCHEMES[usize::from(self.scheme)]
    }

    fn spec(&self) -> UnitSpec {
        UnitSpec {
            tag: TAG.into(),
            payload: self.encode(),
        }
    }

    /// The scheme's run, then its baseline comparator's.
    fn run(&self, run: impl Fn(Mode) -> SimReport) -> Vec<u8> {
        [self.scheme(), Mode::Baseline]
            .into_iter()
            .flat_map(|mode| {
                let r = run(mode);
                let mut words = report_counts(&r).to_vec();
                words.push(u64::from(r.consistent));
                words
            })
            .flat_map(u64::to_le_bytes)
            .collect()
    }

    /// The µops the scheme's run must commit: its transformed trace.
    fn expected_uops(&self) -> u64 {
        let raw = self.app().generate(LEN, self.seed);
        Machine::new(self.scheme().config())
            .prepare_trace(&raw)
            .len() as u64
    }

    /// Turns a result payload back into the unit's outcome. The
    /// scheme's committed µops are checked against [`Unit::expected_uops`]
    /// by `Serve::check`, outside the timed window.
    fn outcome(payload: &[u8]) -> Outcome {
        if payload.len() != 2 * RUN_WORDS * 8 {
            return Outcome::default();
        }
        let words: Vec<u64> = payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        let run = |i: usize, consistent: bool, uops: Option<u64>| {
            let w = &words[i * RUN_WORDS..(i + 1) * RUN_WORDS];
            let counts: [u64; 9] = w[..9].try_into().expect("nine counts");
            let expect = Expect {
                raw_uops: LEN as u64,
                uops: uops.unwrap_or(counts[1]),
                consistent,
            };
            sim_outcome(counts, w[9] == 1, &expect)
        };
        let scheme = run(0, true, None);
        let baseline = run(1, false, Some(LEN as u64));
        let mut counts: HashMap<&'static str, u64> = HashMap::new();
        for (n, v) in scheme.counts.iter().chain(&baseline.counts) {
            *counts.entry(n).or_default() += v;
        }
        Outcome {
            ok: scheme.ok && baseline.ok,
            uops: scheme.uops + baseline.uops,
            units: 1,
            counts: counts.into_iter().collect(),
        }
    }

    /// What the scheme's run committed, from a result payload.
    fn committed(payload: &[u8]) -> Option<u64> {
        payload
            .get(8..16)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// The benchmark's executor: runs a unit's `run_app` cell. In a traced
/// pass its spans hang under the client's round-trip span.
struct RunApp {
    round_trip: Arc<AtomicU64>,
}

impl Executor for RunApp {
    fn execute(&self, tag: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if tag != TAG {
            return Err(format!("unknown tag {tag}"));
        }
        let _s = trace::span_under(self.round_trip.load(Ordering::SeqCst), "sim", "unit");
        let unit = Unit::decode(payload)?;
        let app = unit.app();
        Ok(unit.run(|mode| run_app(mode.config(), &app, LEN, unit.seed)))
    }
}

/// A batch as sent, and what came back for each unit.
type Sent = (Vec<Unit>, Vec<Result<UnitOutcome, String>>);

pub struct Serve {
    seed: u64,
    daemon: Arc<Daemon>,
    daemon_thread: Option<JoinHandle<()>>,
    worker_thread: Option<JoinHandle<()>>,
    addr: String,
    round_trip: Arc<AtomicU64>,
    /// The last pass's batches and what came back, for `check`.
    last: Vec<Sent>,
    hits_before: u64,
}

/// Whether batch `b` of a pass is a re-sweep, served from the cache.
fn is_repeat(b: usize) -> bool {
    b % 2 == 1
}

/// Pass `index`'s batches: a sweep, then the same sweep again.
fn batches(seed: u64, index: usize) -> Vec<Vec<Unit>> {
    let mut rng =
        Prng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let configs: Vec<(u8, u64)> = (0..CONFIGS_PER_SWEEP)
        .map(|_| {
            let scheme = rng.random_below(SCHEMES.len() as u64) as u8;
            (scheme, rng.next_u64())
        })
        .collect();
    // Configuration-major, as ppa-dse orders a round's cells.
    let sweep: Vec<Unit> = configs
        .iter()
        .flat_map(|&(scheme, seed)| {
            (0..APPS.len() as u8).map(move |app| Unit { app, scheme, seed })
        })
        .collect();
    vec![sweep.clone(), sweep]
}

impl Serve {
    fn daemon_hits(&self) -> u64 {
        ServeClient::with_addr(&self.addr)
            .stats()
            .map_or(0, |s| s.hits)
    }

    /// One ppa-dse invocation: a fresh client connects, as `ppa-dse
    /// --grid serve:` does, and sends its sweep; the cell is the
    /// `run_units` round trip.
    fn round_trip(&mut self, units: &[Unit]) -> Cell {
        let client = ServeClient::connect(&self.addr).expect("client connects");
        let mut results = Vec::new();
        let c = cell(|| {
            let span = trace::span("grid", "round_trip");
            self.round_trip.store(span.id(), Ordering::SeqCst);
            results = client
                .run_units(units.iter().map(Unit::spec).collect())
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect::<Vec<_>>();
            drop(span);
            let mut out = Outcome {
                ok: results.len() == units.len(),
                units: units.len() as u64,
                ..Outcome::default()
            };
            let mut counts: HashMap<&'static str, u64> = HashMap::new();
            for r in &results {
                let Ok(o) = r else {
                    out.ok = false;
                    continue;
                };
                if o.attempts == 0 {
                    *counts.entry("serve.cache.hits").or_default() += 1;
                    continue;
                }
                *counts.entry("serve.cache.misses").or_default() += 1;
                *counts.entry("grid.extra_attempts").or_default() += u64::from(o.attempts - 1);
                let u = Unit::outcome(&o.payload);
                out.ok &= u.ok;
                out.uops += u.uops;
                for (n, v) in u.counts {
                    *counts.entry(n).or_default() += v;
                }
            }
            let mut counts: Vec<_> = counts.into_iter().collect();
            counts.sort();
            out.counts = counts;
            out
        });
        self.last.push((units.to_vec(), results));
        c
    }
}

impl Workload for Serve {
    const SETUPS: usize = 40;

    fn setup(seed: u64) -> Self {
        let daemon = Arc::new(Daemon::start(DaemonOptions::default()).expect("daemon starts"));
        let addr = daemon.local_addr().to_string();
        let daemon_thread = {
            let d = Arc::clone(&daemon);
            std::thread::spawn(move || d.run())
        };
        let round_trip = Arc::new(AtomicU64::new(0));
        let worker_thread = {
            let exec = Arc::new(RunApp {
                round_trip: Arc::clone(&round_trip),
            });
            let addr = addr.clone();
            let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
            let opts = WorkerOptions {
                jobs: jobs.min(MAX_JOBS),
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || {
                let _ = run_worker(addr.as_str(), opts, exec);
            })
        };
        // Units sent before the worker has joined wait in the queue.
        Serve {
            seed,
            daemon,
            daemon_thread: Some(daemon_thread),
            worker_thread: Some(worker_thread),
            addr,
            round_trip,
            last: Vec::new(),
            // A fresh daemon has served nothing from its cache.
            hits_before: 0,
        }
    }

    fn pass(&mut self, index: usize) -> Vec<Cell> {
        self.last.clear();
        batches(self.seed, index)
            .iter()
            .map(|b| self.round_trip(b))
            .collect()
    }

    /// Compares every payload with a local run of its unit, the
    /// scheme's committed µops with its transformed trace, and the
    /// daemon's hit counter with the hits the client saw.
    fn check(&mut self, cells: &mut [Cell]) {
        let mut local: HashMap<Unit, (Vec<u8>, u64)> = HashMap::new();
        for ((units, results), c) in self.last.iter().zip(cells.iter_mut()) {
            for (unit, r) in units.iter().zip(results) {
                let (want, uops) = local.entry(*unit).or_insert_with(|| {
                    let app = unit.app();
                    let payload =
                        unit.run(|mode| Machine::new(mode.config()).run_app(&app, LEN, unit.seed));
                    (payload, unit.expected_uops())
                });
                let Ok(o) = r else {
                    c.out.ok = false;
                    continue;
                };
                if o.payload != *want || Unit::committed(&o.payload) != Some(*uops) {
                    c.out.ok = false;
                }
            }
        }
        let hits: u64 = cells.iter().map(|c| c.out.count("serve.cache.hits")).sum();
        let daemon_hits = self.daemon_hits();
        if daemon_hits.checked_sub(self.hits_before) != Some(hits) {
            for c in cells.iter_mut() {
                c.out.ok = false;
            }
        }
        self.hits_before = daemon_hits;
    }

    fn extra_metrics(&self, cells: &[Cell]) -> Vec<(&'static str, f64)> {
        let p50 = |repeat: bool| {
            let v: Vec<f64> = cells
                .iter()
                .enumerate()
                .filter(|&(b, _)| is_repeat(b) == repeat)
                .map(|(_, c)| c.ms)
                .collect();
            crate::median(&v)
        };
        let sum = |n: &str| cells.iter().map(|c| c.out.count(n)).sum::<u64>() as f64;
        let hits = sum("serve.cache.hits");
        vec![
            (
                "serve.cache.hit_ratio",
                hits / (hits + sum("serve.cache.misses")),
            ),
            ("serve.repeat_p50_ms", p50(true)),
            ("serve.fresh_p50_ms", p50(false)),
        ]
    }
}

#[cfg(test)]
impl Serve {
    pub fn hits_before(&self) -> u64 {
        self.hits_before
    }

    pub fn set_hits_before(&mut self, hits: u64) {
        self.hits_before = hits;
    }

    /// Flips a bit of the first payload the last pass received.
    pub fn doctor_first_payload(&mut self) {
        let outcome = self.last[0].1[0].as_mut().expect("first unit succeeded");
        outcome.payload[0] ^= 1;
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = ServeClient::with_addr(&self.addr).stop();
        self.daemon.request_stop();
        if let Some(t) = self.daemon_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.worker_thread.take() {
            let _ = t.join();
        }
    }
}
