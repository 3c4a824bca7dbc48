//! Tests of the benchmark itself: its checks catch wrong output, its
//! exact counts repeat per seed, its traced drives reproduce the public
//! calls they stand in for, self times count parallel work once, and
//! `BENCHMARK.json` names its metrics.

use crate::serve::Serve;
use crate::sim::{drive_app, report_counts, sim_outcome, Expect, Mode, Sim};
use crate::verify::{drive_check, drive_oracle, drive_smp_oracle, Verify};
use crate::{
    layer_metrics, tally, trace, Both, Cell, Outcome, Pass, Workload, END_TO_END, PER_LAYER,
};
use ppa_sim::{Machine, SystemConfig};
use ppa_verify::{oracle, runner, smp_oracle};
use ppa_workloads::{registry, shared};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// The span recorder is process-global: tests that arm it run one at a time.
static TRACE: Mutex<()> = Mutex::new(());

fn traced<T>(f: impl FnOnce() -> T) -> T {
    let _g = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_on(true);
    let out = f();
    trace::set_on(false);
    trace::take();
    out
}

fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let _g = TRACE.lock().unwrap_or_else(|e| e.into_inner());
    f()
}

fn pass_of(cells: Vec<Cell>) -> Pass {
    Pass {
        wall: Duration::from_millis(1),
        cells,
        layers: None,
    }
}

#[test]
fn doctored_sim_results_are_counted_as_failed() {
    let app = registry::by_name("mcf").expect("mcf");
    let r = untraced(|| Machine::new(SystemConfig::ppa()).run_app(&app, 2_000, 3));
    let expect = Expect {
        raw_uops: 2_000,
        uops: 2_000,
        consistent: true,
    };
    let good = sim_outcome(report_counts(&r), r.consistent, &expect);
    assert!(good.ok);
    let mut lost_uop = report_counts(&r);
    lost_uop[1] -= 1;
    let doctored = [
        sim_outcome(lost_uop, r.consistent, &expect),
        sim_outcome(report_counts(&r), false, &expect),
    ];
    let mut cells: Vec<Cell> = doctored
        .into_iter()
        .map(|out| Cell { ms: 1.0, out })
        .collect();
    cells.push(Cell {
        ms: 1.0,
        out: good.clone(),
    });
    assert_eq!(tally(&[pass_of(cells)]), (3, 2));

    // A later pass that disagrees with the first is failed as well.
    let mut first = None;
    let mut pass0 = vec![Cell {
        ms: 1.0,
        out: good.clone(),
    }];
    crate::check_repeat(&mut first, &mut pass0);
    let mut changed = good;
    changed.counts[0].1 += 1;
    let mut pass1 = vec![Cell {
        ms: 1.0,
        out: changed,
    }];
    crate::check_repeat(&mut first, &mut pass1);
    assert_eq!(tally(&[pass_of(pass0), pass_of(pass1)]), (2, 1));
}

#[test]
fn doctored_serve_payload_is_counted_as_failed() {
    let mut serve = untraced(|| Serve::setup(5));
    let hits_before = serve.hits_before();
    let mut cells = untraced(|| serve.pass(0));
    serve.check(&mut cells);
    assert_eq!(tally(&[pass_of(cells.clone())]), (cells.len(), 0));
    let hits: u64 = cells.iter().map(|c| c.out.count("serve.cache.hits")).sum();
    assert_eq!(
        hits, 14,
        "the 14-unit sweep's re-send is served from the cache"
    );

    serve.set_hits_before(hits_before);
    serve.doctor_first_payload();
    serve.check(&mut cells);
    assert_eq!(tally(&[pass_of(cells.clone())]), (cells.len(), 1));
}

#[test]
fn both_checks_each_half_against_its_own_first_pass() {
    let mut both = untraced(|| Both::of(Sim::with_len(4, 1_000), Verify::with_len(4, 100, 300)));
    let mut pass0 = untraced(|| both.pass(0));
    both.check(&mut pass0);
    let split = both.split;
    assert!(split > 0 && split < pass0.len());
    let mut pass1 = untraced(|| both.pass(1));
    // Doctor the first `verify` cell: only it may fail.
    pass1[split].out.counts[0].1 += 1;
    both.check(&mut pass1);
    assert!(!pass1[split].out.ok);
    assert_eq!(
        tally(&[pass_of(pass0), pass_of(pass1.clone())]),
        (2 * pass1.len(), 1)
    );
    let extra = both.extra_metrics(&pass1);
    assert!(extra.iter().any(|&(n, _)| n == "sim.ppa_slowdown_gmean"));
}

#[test]
fn self_time_counts_parallel_children_once() {
    const MS: u64 = 1_000_000;
    let span = |id, parent, thread, layer, start, dur| trace::Span {
        id,
        parent,
        thread,
        layer,
        name: "n",
        start_ns: start * MS,
        dur_ns: dur * MS,
        calls: 1,
    };
    // A round trip whose two executor jobs overlap for 20 ms.
    let parallel = [
        span(1, 0, 1, "grid", 0, 100),
        span(2, 1, 2, "sim", 10, 40),
        span(3, 1, 3, "sim", 30, 40),
    ];
    let selfs = trace::self_ms(&parallel);
    assert_eq!(selfs[&("grid", "n")], 40.0);
    assert_eq!(selfs[&("sim", "n")], 80.0);
    // Aggregates on the parent's own thread share a start; they sum.
    let serial = [
        span(1, 0, 1, "sim", 0, 100),
        span(2, 1, 1, "core", 0, 30),
        span(3, 1, 1, "mem", 0, 30),
    ];
    assert_eq!(trace::self_ms(&serial)[&("sim", "n")], 40.0);
}

/// Exact counts of one traced pass.
fn counts<W: Workload>(mut w: W) -> BTreeMap<&'static str, f64> {
    traced(|| {
        let cells = w.pass(0);
        let spans = trace::take();
        assert_eq!(tally(&[pass_of(cells.clone())]).1, 0);
        let mut m = layer_metrics(&spans, &cells);
        m.retain(|name, _| {
            PER_LAYER
                .iter()
                .any(|(n, unit)| n == name && *unit == "count")
        });
        m
    })
}

#[test]
fn same_seed_gives_identical_counts_and_another_seed_changes_them() {
    let sim = |seed| counts(Sim::with_len(seed, 2_000));
    let a = sim(11);
    assert_eq!(a, sim(11));
    assert_ne!(a["sim.cycles"], sim(12)["sim.cycles"]);
    assert!(a["core.steps"] > 0.0 && a["mem.l2.misses"] > 0.0 && a["smp.drain_grants"] > 0.0);

    let verify = |seed| counts(Verify::with_len(seed, 300, 600));
    let v = verify(11);
    assert_eq!(v, verify(11));
    assert_ne!(
        v["verify.cycles_checked"],
        verify(12)["verify.cycles_checked"]
    );
}

#[test]
fn traced_pass_reproduces_the_untraced_pass() {
    let mut sim = Sim::with_len(4, 2_000);
    let mut plain = untraced(|| sim.pass(0));
    sim.check(&mut plain);
    let mut spanned = traced(|| sim.pass(1));
    sim.check(&mut spanned);
    assert_eq!(tally(&[pass_of(plain), pass_of(spanned)]).1, 0);
}

#[test]
fn drive_app_matches_machine_run_app() {
    let apps = [
        registry::by_name("bzip2").expect("bzip2"),
        registry::by_name("radix").expect("radix"),
    ];
    for app in &apps {
        for mode in Mode::ALL {
            for threads in [1, app.threads] {
                let cfg = SystemConfig {
                    threads,
                    ..mode.config()
                };
                let want = untraced(|| Machine::new(cfg).run_app(app, 1_500, 9));
                let got = traced(|| drive_app(cfg, app, 1_500, 9));
                assert_eq!(
                    report_counts(&got),
                    report_counts(&want),
                    "{} {mode:?}",
                    app.name
                );
                assert_eq!(got.consistent, want.consistent);
            }
        }
    }
}

#[test]
fn verify_drives_match_the_public_calls() {
    for name in ["mcf", "radix"] {
        let app = registry::by_name(name).expect("app");
        let want = untraced(|| runner::check_app(&app, 300, 2));
        let got = traced(|| drive_check(&app, 300, 2));
        assert_eq!(got, (want.cycles, want.finished, want.violations.len()));

        let want = untraced(|| oracle::run_app(&app, 800, 2, 1))
            .pop()
            .expect("a point");
        let got: Outcome = traced(|| drive_oracle(&app, 800, 2));
        assert!(want.passed() && got.ok);
        let field = |n| got.count(n);
        assert_eq!(field("verify.oracle.fail_cycle"), want.fail_cycle);
        assert_eq!(field("verify.oracle.committed"), want.committed);
        assert_eq!(field("verify.oracle.replayed"), want.replayed);
    }
    let app = shared::all()[1];
    let want = untraced(|| smp_oracle::run_smp_app(&app, 2, 400, 2, 1))
        .pop()
        .expect("a point");
    let got = traced(|| drive_smp_oracle(&app, 2, 400, 2));
    assert_eq!(
        (got.fail_cycle, got.committed, got.passed()),
        (want.fail_cycle, want.committed, want.passed())
    );
}

#[test]
fn self_times_partition_the_root_span() {
    let spans = traced(|| {
        {
            let _root = trace::span("bench", "pass");
            let _a = trace::span("core", "build");
            std::thread::sleep(Duration::from_millis(2));
        }
        trace::take()
    });
    let selfs = trace::self_ms(&spans);
    let root = spans.iter().find(|s| s.layer == "bench").expect("root");
    let sum: f64 = selfs.values().sum();
    assert!((sum - root.dur_ns as f64 / 1e6).abs() < 1e-9);
    assert!(selfs[&("core", "build")] >= 2.0);
}

#[test]
fn benchmark_json_lists_every_metric() {
    let json = include_str!("../../BENCHMARK.json");
    let names = json.matches("\"name\"").count();
    let workloads = ["sim_verify", "serve"];
    assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads.len());
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in workloads {
        assert!(json.contains(&format!("\"name\": \"{w}\", \"why\"")), "{w}");
    }
    let validators: Vec<&str> = ppa_core::verify::default_validators()
        .iter()
        .map(|v| v.name())
        .collect();
    let ours: Vec<&str> = crate::VALIDATORS.iter().map(|&(v, _)| v).collect();
    assert_eq!(validators, ours);
}
