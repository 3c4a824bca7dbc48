//! Regeneration functions for every figure and table of the paper's
//! evaluation (see DESIGN.md's experiment index).
//!
//! Each function runs the relevant simulations and returns the formatted
//! [`TextTable`] the `repro` binary prints; headline aggregates are
//! appended as table rows so the output is self-contained.
//!
//! Per-app simulations fan out across the shared [`ppa_pool`] worker
//! pool (`PPA_JOBS`/`--jobs`; serial by default). Every fan-out is an
//! order-preserving map whose results are folded into the table
//! serially, so the rendered output is byte-identical at any job count.

use crate::SEED;
use ppa_core::{CoreConfig, PersistenceMode};
use ppa_isa::transform::{region_lengths, AutoPersistPass, CapriPass, ReplayCachePass, TracePass};
use ppa_mem::NvmConfig;
use ppa_sim::{inject_failure, Machine, SimReport, SystemConfig};
use ppa_stats::{fmt_percent, fmt_slowdown, geomean, Cdf, TextTable};
use ppa_workloads::{registry, AppDescriptor, Suite};

/// Per-thread trace length for `app` at a single-threaded base length:
/// multi-threaded applications run each thread at a third of the base
/// (floored at 2 000 micro-ops). Public because grid workers and the
/// `ppa-dse` cell kernel must reproduce the coordinator's sizing exactly.
pub fn len_for_base(app: &AppDescriptor, base: usize) -> usize {
    if app.threads > 1 {
        (base / 3).max(2_000)
    } else {
        base
    }
}

/// Runs `app` on `cfg` at single-threaded base length `base`.
fn run(cfg: SystemConfig, app: &AppDescriptor, base: usize) -> SimReport {
    Machine::new(cfg).run_app_parallel(app, len_for_base(app, base), SEED)
}

/// Order-preserving parallel map over applications: `f` runs on the
/// shared pool (serial when `PPA_JOBS` is 1 or unset) and each result is
/// returned alongside its descriptor, in input order, for serial folding
/// into the table. A panicking simulation panics here with its message,
/// exactly as the serial loop would.
fn par_apps<T: Send>(
    apps: Vec<AppDescriptor>,
    f: impl Fn(&AppDescriptor) -> T + Sync,
) -> Vec<(AppDescriptor, T)> {
    ppa_pool::par_map_ordered(apps, |app| {
        let value = f(&app);
        (app, value)
    })
}

fn push_gmean(table: &mut TextTable, label: &str, cols: &[&[f64]]) {
    let mut row = vec![label.to_string()];
    for c in cols {
        row.push(fmt_slowdown(geomean(c.iter().copied())));
    }
    table.row(row);
}

/// Figure 1: ReplayCache's slowdown over the memory-mode baseline.
pub(crate) fn fig1_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let base = run(SystemConfig::baseline(), app, base_len);
    let rc = run(SystemConfig::replay_cache(), app, base_len);
    vec![rc.cycles as f64 / base.cycles as f64]
}

pub fn fig1(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "suite", "replaycache-slowdown"]);
    let mut slows = Vec::new();
    for (app, v) in crate::gridwork::app_rows("fig1", registry::all(), fig1_cell, len) {
        let s = v[0];
        slows.push(s);
        t.row([app.name.to_string(), app.suite.to_string(), fmt_slowdown(s)]);
    }
    push_gmean(&mut t, "gmean", &[&slows]);
    t.row(["paper", "", "~5x average"]);
    t
}

/// Figure 5: CDFs of free integer/FP physical registers, sampled every
/// cycle at the rename stage of the baseline core, per suite.
pub fn fig5(len: usize) -> TextTable {
    let cfg = CoreConfig::paper_default(PersistenceMode::Baseline);
    let mut t = TextTable::new([
        "suite",
        "int free p25",
        "int free p50",
        "int free @75% of cycles",
        "fp free p25",
        "fp free p50",
        "fp free @75% of cycles",
    ]);
    for suite in Suite::ALL {
        let mut int_cdf = Cdf::with_max_value(cfg.int_prf as u64);
        let mut fp_cdf = Cdf::with_max_value(cfg.fp_prf as u64);
        for (_, r) in par_apps(registry::by_suite(suite), |app| {
            run(SystemConfig::baseline(), app, len)
        }) {
            for c in &r.core_stats {
                int_cdf.merge(&c.free_int_cdf);
                fp_cdf.merge(&c.free_fp_cdf);
            }
        }
        t.row([
            suite.to_string(),
            int_cdf.quantile(0.25).to_string(),
            int_cdf.quantile(0.50).to_string(),
            int_cdf.value_available_for(0.75).to_string(),
            fp_cdf.quantile(0.25).to_string(),
            fp_cdf.quantile(0.50).to_string(),
            fp_cdf.value_available_for(0.75).to_string(),
        ]);
    }
    t.row([
        "paper".to_string(),
        String::new(),
        String::new(),
        "138 (CPU2006)".to_string(),
        String::new(),
        String::new(),
        "110 (CPU2006)".to_string(),
    ]);
    t
}

/// Figure 8: PPA and Capri slowdowns over the baseline, all 41 apps.
pub(crate) fn fig8_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let base = run(SystemConfig::baseline(), app, base_len);
    let ppa = run(SystemConfig::ppa(), app, base_len);
    let cap = run(SystemConfig::capri(), app, base_len);
    vec![
        ppa.cycles as f64 / base.cycles as f64,
        cap.cycles as f64 / base.cycles as f64,
    ]
}

pub fn fig8(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "suite", "ppa", "capri"]);
    let mut ppa_s = Vec::new();
    let mut cap_s = Vec::new();
    for (app, v) in crate::gridwork::app_rows("fig8", registry::all(), fig8_cell, len) {
        let (sp, sc) = (v[0], v[1]);
        ppa_s.push(sp);
        cap_s.push(sc);
        t.row([
            app.name.to_string(),
            app.suite.to_string(),
            fmt_slowdown(sp),
            fmt_slowdown(sc),
        ]);
    }
    push_gmean(&mut t, "gmean", &[&ppa_s, &cap_s]);
    t.row(["paper", "", "1.02", "1.26"]);
    t
}

/// Figure 9: PPA and the memory mode vs the 32 GB DRAM-only system.
pub(crate) fn fig9_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let dram = run(SystemConfig::dram_only(), app, base_len);
    let base = run(SystemConfig::baseline(), app, base_len);
    let ppa = run(SystemConfig::ppa(), app, base_len);
    vec![
        base.cycles as f64 / dram.cycles as f64,
        ppa.cycles as f64 / dram.cycles as f64,
    ]
}

pub fn fig9(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "memory-mode/dram", "ppa/dram"]);
    let mut base_s = Vec::new();
    let mut ppa_s = Vec::new();
    for (app, v) in crate::gridwork::app_rows("fig9", registry::all(), fig9_cell, len) {
        let (sb, sp) = (v[0], v[1]);
        base_s.push(sb);
        ppa_s.push(sp);
        t.row([app.name.to_string(), fmt_slowdown(sb), fmt_slowdown(sp)]);
    }
    push_gmean(&mut t, "gmean", &[&base_s, &ppa_s]);
    t.row(["paper", "1.14", "1.16"]);
    t
}

/// Figure 10: PPA vs the ideal PSP (eADR/BBB) on the memory-intensive
/// subset.
pub(crate) fn fig10_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let base = run(SystemConfig::baseline(), app, base_len);
    let ppa = run(SystemConfig::ppa(), app, base_len);
    let psp = run(SystemConfig::eadr_bbb(), app, base_len);
    vec![
        ppa.cycles as f64 / base.cycles as f64,
        psp.cycles as f64 / base.cycles as f64,
    ]
}

pub fn fig10(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "ppa", "eadr/bbb"]);
    let mut ppa_s = Vec::new();
    let mut psp_s = Vec::new();
    for (app, v) in
        crate::gridwork::app_rows("fig10", registry::memory_intensive(), fig10_cell, len)
    {
        let (sp, se) = (v[0], v[1]);
        ppa_s.push(sp);
        psp_s.push(se);
        t.row([app.name.to_string(), fmt_slowdown(sp), fmt_slowdown(se)]);
    }
    push_gmean(&mut t, "gmean", &[&ppa_s, &psp_s]);
    t.row(["paper", "1.03", "1.39 (up to 2.4)"]);
    t
}

/// Figure 11: stall cycles at region ends as a fraction of execution.
pub(crate) fn fig11_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    vec![run(SystemConfig::ppa(), app, base_len).region_end_stall_fraction()]
}

pub fn fig11(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "region-end stall"]);
    let mut fracs = Vec::new();
    for (app, v) in crate::gridwork::app_rows("fig11", registry::all(), fig11_cell, len) {
        let f = v[0];
        fracs.push(f);
        t.row([app.name.to_string(), fmt_percent(f)]);
    }
    let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
    t.row(["mean".to_string(), fmt_percent(mean)]);
    t.row([
        "paper".to_string(),
        "+0.21% avg; water-ns 6.1%, water-sp 8.1%".to_string(),
    ]);
    t
}

/// Figure 12: extra rename-stage stall cycles from PRF exhaustion.
pub(crate) fn fig12_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let base = run(SystemConfig::baseline(), app, base_len);
    let ppa = run(SystemConfig::ppa(), app, base_len);
    vec![
        base.rename_noreg_stall_fraction(),
        ppa.rename_noreg_stall_fraction(),
    ]
}

pub fn fig12(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "baseline", "ppa", "increase"]);
    let mut deltas = Vec::new();
    for (app, v) in crate::gridwork::app_rows("fig12", registry::all(), fig12_cell, len) {
        let (fb, fp) = (v[0], v[1]);
        deltas.push((fp - fb).max(0.0));
        t.row([
            app.name.to_string(),
            fmt_percent(fb),
            fmt_percent(fp),
            fmt_percent(fp - fb),
        ]);
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    t.row([
        "mean increase".to_string(),
        String::new(),
        String::new(),
        fmt_percent(mean),
    ]);
    t.row([
        "paper".to_string(),
        String::new(),
        String::new(),
        "+0.07% avg".to_string(),
    ]);
    t
}

/// Figure 13: stores and other instructions per dynamically formed
/// region, plus Capri's compiler-formed region length for contrast.
pub(crate) fn fig13_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let ppa = run(SystemConfig::ppa(), app, base_len);
    let st = ppa.region_stores().mean();
    let all = ppa.region_insts().mean();
    let raw = app.generate(len_for_base(app, base_len).min(20_000), SEED);
    let capri_trace = CapriPass::new().apply(&raw);
    let lens = region_lengths(&capri_trace);
    let cap = lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64;
    vec![st, all, cap]
}

pub fn fig13(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "stores/region", "others/region", "capri region"]);
    let mut stores = Vec::new();
    let mut others = Vec::new();
    let mut capri = Vec::new();
    for (app, v) in crate::gridwork::app_rows("fig13", registry::all(), fig13_cell, len) {
        let (st, all, cap) = (v[0], v[1], v[2]);
        stores.push(st);
        others.push(all - st);
        capri.push(cap);
        t.row([
            app.name.to_string(),
            format!("{st:.1}"),
            format!("{:.0}", all - st),
            format!("{cap:.0}"),
        ]);
    }
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    t.row([
        "mean".to_string(),
        format!("{:.1}", mean(&stores)),
        format!("{:.0}", mean(&others)),
        format!("{:.0}", mean(&capri)),
    ]);
    t.row([
        "paper".to_string(),
        "18".to_string(),
        "301".to_string(),
        "29".to_string(),
    ]);
    t
}

/// Figure 14: PPA's slowdown when an L3 sits atop the DRAM cache.
pub(crate) fn fig14_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let base = run(
        SystemConfig::baseline().with_deep_hierarchy(),
        app,
        base_len,
    );
    let ppa = run(SystemConfig::ppa().with_deep_hierarchy(), app, base_len);
    vec![ppa.cycles as f64 / base.cycles as f64]
}

pub fn fig14(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "ppa (deep hierarchy)"]);
    let mut slows = Vec::new();
    for (app, v) in crate::gridwork::app_rows("fig14", registry::all(), fig14_cell, len) {
        let s = v[0];
        slows.push(s);
        t.row([app.name.to_string(), fmt_slowdown(s)]);
    }
    push_gmean(&mut t, "gmean", &[&slows]);
    t.row(["paper", "1.01"]);
    t
}

/// Figure 15: sensitivity to the NVM write-pending-queue depth.
pub(crate) fn fig15_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    [8usize, 16, 24]
        .iter()
        .map(|&n| {
            let nvm = NvmConfig::paper_default().with_wpq_entries(n);
            let mut base_cfg = SystemConfig::baseline();
            base_cfg.mem = base_cfg.mem.with_nvm(nvm);
            let mut ppa_cfg = SystemConfig::ppa();
            ppa_cfg.mem = ppa_cfg.mem.with_nvm(nvm);
            let base = run(base_cfg, app, base_len);
            let ppa = run(ppa_cfg, app, base_len);
            ppa.cycles as f64 / base.cycles as f64
        })
        .collect()
}

pub fn fig15(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "wpq-8", "wpq-16 (default)", "wpq-24"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (app, slows) in
        crate::gridwork::app_rows("fig15", registry::memory_intensive(), fig15_cell, len)
    {
        let mut row = vec![app.name.to_string()];
        for (i, s) in slows.into_iter().enumerate() {
            cols[i].push(s);
            row.push(fmt_slowdown(s));
        }
        t.row(row);
    }
    let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
    push_gmean(&mut t, "gmean", &refs);
    t.row(["paper", "1.08", "1.02", "~1.02"]);
    t
}

/// Figure 16: sensitivity to the physical-register-file size.
pub fn fig16(len: usize) -> TextTable {
    let sizes: [(usize, usize, &str); 6] = [
        (80, 80, "80/80"),
        (100, 100, "100/100"),
        (120, 120, "120/120"),
        (140, 140, "140/140"),
        (180, 168, "180/168 (default)"),
        (280, 224, "280/224 (Icelake)"),
    ];
    let mut t = TextTable::new(["prf (int/fp)", "ppa slowdown (gmean)", "worst app", "worst"]);
    for (int_prf, fp_prf, label) in sizes {
        let mut slows = Vec::new();
        let mut worst = ("-", 0.0f64);
        for (app, s) in par_apps(registry::all(), |app| {
            let mut base_cfg = SystemConfig::baseline();
            base_cfg.core = base_cfg.core.with_prf(int_prf, fp_prf);
            let mut ppa_cfg = SystemConfig::ppa();
            ppa_cfg.core = ppa_cfg.core.with_prf(int_prf, fp_prf);
            let base = run(base_cfg, app, len);
            let ppa = run(ppa_cfg, app, len);
            ppa.cycles as f64 / base.cycles as f64
        }) {
            if s > worst.1 {
                worst = (app.name, s);
            }
            slows.push(s);
        }
        t.row([
            label.to_string(),
            fmt_slowdown(geomean(slows.iter().copied())),
            worst.0.to_string(),
            fmt_slowdown(worst.1),
        ]);
    }
    t.row([
        "paper",
        "1.12 @ 80/80, ~1.02 beyond default",
        "hmmer/lbm/lu-cg/tpcc ~1.3 @ 80/80",
        "",
    ]);
    t
}

/// Figure 17: sensitivity to the CSQ depth.
pub fn fig17(len: usize) -> TextTable {
    let sizes = [10usize, 20, 30, 40, 50];
    let mut t = TextTable::new([
        "csq entries",
        "ppa slowdown (gmean)",
        "csq-full boundaries/10k uops",
    ]);
    for n in sizes {
        let mut slows = Vec::new();
        let mut boundaries = 0u64;
        let mut uops = 0u64;
        for (_, (s, b, u)) in par_apps(registry::all(), |app| {
            let mut ppa_cfg = SystemConfig::ppa();
            ppa_cfg.core = ppa_cfg.core.with_csq(n);
            let base = run(SystemConfig::baseline(), app, len);
            let ppa = run(ppa_cfg, app, len);
            let b = ppa
                .core_stats
                .iter()
                .map(|c| c.csq_full_boundaries)
                .sum::<u64>();
            (ppa.cycles as f64 / base.cycles as f64, b, ppa.committed)
        }) {
            slows.push(s);
            boundaries += b;
            uops += u;
        }
        t.row([
            format!("{n}{}", if n == 40 { " (default)" } else { "" }),
            fmt_slowdown(geomean(slows.iter().copied())),
            format!("{:.1}", boundaries as f64 / (uops as f64 / 10_000.0)),
        ]);
    }
    t.row([
        "paper".to_string(),
        "minimal impact 10..50".to_string(),
        String::new(),
    ]);
    t
}

/// Figure 18: sensitivity to the NVM write bandwidth.
pub(crate) fn fig18_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    [1.0f64, 2.3, 4.0, 6.0]
        .iter()
        .map(|&bw| {
            let nvm = NvmConfig::paper_default().with_write_bandwidth_gbps(bw);
            let mut base_cfg = SystemConfig::baseline();
            base_cfg.mem = base_cfg.mem.with_nvm(nvm);
            let mut ppa_cfg = SystemConfig::ppa();
            ppa_cfg.mem = ppa_cfg.mem.with_nvm(nvm);
            let base = run(base_cfg, app, base_len);
            let ppa = run(ppa_cfg, app, base_len);
            ppa.cycles as f64 / base.cycles as f64
        })
        .collect()
}

pub fn fig18(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "1GB/s", "2.3GB/s (default)", "4GB/s", "6GB/s"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for (app, slows) in
        crate::gridwork::app_rows("fig18", registry::memory_intensive(), fig18_cell, len)
    {
        let mut row = vec![app.name.to_string()];
        for (i, s) in slows.into_iter().enumerate() {
            cols[i].push(s);
            row.push(fmt_slowdown(s));
        }
        t.row(row);
    }
    let refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
    push_gmean(&mut t, "gmean", &refs);
    t.row(["paper", "1.07", "1.02", "~1.02", "~1.02"]);
    t
}

/// Figure 19: thread-count scaling on the shared-memory multi-core
/// machine ([`ppa_smp::SmpSystem`]). Unlike the lockstep runner, the
/// threads here share state — striped counters, a producer/consumer ring,
/// barrier phases, halo exchange — so the sweep exercises the §6 persist
/// arbiter (sync-region drains certified round-robin across cores) rather
/// than N independent pipelines.
pub fn fig19(len: usize) -> TextTable {
    use ppa_smp::SmpSystem;
    let counts = [8usize, 16, 32, 64];
    let mut t = TextTable::new(["threads", "ppa slowdown (gmean)", "drain grants"]);
    for &n in &counts {
        let per_thread = (len / (n / 2).max(1)).max(1_000);
        let results: Vec<(f64, usize)> =
            ppa_pool::par_map_ordered(ppa_workloads::shared::all(), move |app| {
                let traces = app.generate_threads(per_thread, SEED, n);
                let base =
                    SmpSystem::new(SystemConfig::baseline().with_threads(n), traces.clone()).run();
                let ppa = SmpSystem::new(SystemConfig::ppa().with_threads(n), traces).run();
                assert!(ppa.consistent, "{} left NVM inconsistent", app.name);
                (ppa.cycles as f64 / base.cycles as f64, ppa.drain_grants)
            });
        let grants: usize = results.iter().map(|&(_, g)| g).sum();
        t.row([
            n.to_string(),
            fmt_slowdown(geomean(results.iter().map(|&(s, _)| s))),
            grants.to_string(),
        ]);
    }
    t.row([
        "paper".to_string(),
        "1.02 .. 1.06 for 8..64".to_string(),
        String::new(),
    ]);
    t
}

/// Table 1: PPA vs `clwb` properties.
pub fn table1(_len: usize) -> TextTable {
    let mut t = TextTable::new([
        "",
        "store queue occupied",
        "single store tracking",
        "snooping",
        "reaching NVM",
    ]);
    t.row(["CLWB in x86", "yes", "yes", "yes", "no"]);
    t.row(["PPA", "no", "no", "no", "yes"]);
    t
}

/// Table 2: the simulated machine's parameters.
pub fn table2(_len: usize) -> TextTable {
    let cfg = SystemConfig::ppa();
    let nvm = *cfg.mem.nvm().expect("default config is NVM-backed");
    let mut t = TextTable::new(["component", "configuration"]);
    t.row([
        "processor".to_string(),
        format!("{}-core {}-wide x86_64 OoO at 2GHz", 8, cfg.core.width),
    ]);
    t.row([
        "ROB/IQ/SQ/LQ/IntPRF/FpPRF".to_string(),
        format!(
            "{}/{}/{}/{}/{}/{}",
            cfg.core.rob_entries,
            cfg.core.iq_entries,
            cfg.core.sq_entries,
            cfg.core.lq_entries,
            cfg.core.int_prf,
            cfg.core.fp_prf
        ),
    ]);
    t.row([
        "L1D".to_string(),
        format!(
            "private {}KB, {}-way, 64B block, {} cycles",
            cfg.mem.l1d.size_bytes / 1024,
            cfg.mem.l1d.ways,
            cfg.mem.l1d.hit_latency
        ),
    ]);
    t.row([
        "L2".to_string(),
        format!(
            "{} {}MB, {}-way, {} cycles",
            if cfg.mem.l2_shared {
                "shared"
            } else {
                "private"
            },
            cfg.mem.l2.size_bytes >> 20,
            cfg.mem.l2.ways,
            cfg.mem.l2.hit_latency
        ),
    ]);
    let d = cfg.mem.dram_cache.expect("memory mode has a DRAM cache");
    t.row([
        "DRAM cache (LLC)".to_string(),
        format!(
            "shared direct-mapped, {}GB, {} cycles",
            d.size_bytes >> 30,
            d.hit_latency
        ),
    ]);
    t.row([
        "PMEM".to_string(),
        format!(
            "read {} / write {} cycles, {}-entry WPQ, {:.1} GB/s write bw",
            nvm.read_latency,
            nvm.write_latency,
            nvm.wpq_entries,
            nvm.write_bytes_per_cycle * 2.0
        ),
    ]);
    t.row([
        "CSQ".to_string(),
        format!("{}-entry FIFO queue", cfg.core.csq_entries),
    ]);
    t
}

/// Table 3: the Mini-app and WHISPER workload descriptions.
pub fn table3(_len: usize) -> TextTable {
    let mut t = TextTable::new(["application", "description", "input", "footprint"]);
    for app in registry::by_suite(Suite::MiniApps)
        .into_iter()
        .chain(registry::by_suite(Suite::Whisper))
    {
        t.row([
            app.name.to_string(),
            app.description.to_string(),
            app.input.to_string(),
            format!("{}MB", app.footprint_mb),
        ]);
    }
    t
}

/// Table 4: hardware overheads of PPA's structures (CACTI at 22 nm).
pub fn table4(_len: usize) -> TextTable {
    let mut t = TextTable::new(["structure", "area (um^2)", "latency (ns)", "dynamic (pJ)"]);
    for e in [
        ppa_energy::LCPC,
        ppa_energy::MASK_REG_384,
        ppa_energy::CSQ_40,
    ] {
        t.row([
            e.name.to_string(),
            format!("{:.2}", e.area_um2),
            format!("{:.3}", e.access_ns),
            format!("{:.5}", e.dynamic_pj),
        ]);
    }
    let total = ppa_energy::cacti::total_ppa_area_um2();
    t.row([
        "total".to_string(),
        format!("{total:.2}"),
        String::new(),
        format!(
            "{:.4}% of an {:.2}mm^2 Xeon core",
            total / 1e6 / ppa_energy::CORE_AREA_MM2 * 100.0,
            ppa_energy::CORE_AREA_MM2
        ),
    ]);
    t
}

/// Table 5: JIT-flush energy requirement across schemes.
pub fn table5(_len: usize) -> TextTable {
    let mut t = TextTable::new([
        "scheme",
        "flush bytes",
        "energy",
        "supercap (mm^3)",
        "li-thin (mm^3)",
        "supercap/core ratio",
    ]);
    for b in ppa_energy::scheme_budgets() {
        let energy = if b.energy_uj >= 1000.0 {
            format!("{:.1} mJ", b.energy_uj / 1000.0)
        } else {
            format!("{:.1} uJ", b.energy_uj)
        };
        t.row([
            format!("{:?}", b.scheme),
            b.flush_bytes.to_string(),
            energy,
            format!("{:.4}", b.supercap_mm3),
            format!("{:.6}", b.li_thin_mm3),
            format!("{:.5}", b.supercap_core_ratio()),
        ]);
    }
    t.row([
        "paper".to_string(),
        String::new(),
        "PPA 21.7uJ, Capri 0.6mJ, LightPC 189mJ".to_string(),
        "0.06 / 1.57 / 527.8".to_string(),
        "0.0006 / 0.016 / 5.3".to_string(),
        "0.005 / 0.14 / 44.5".to_string(),
    ]);
    t
}

/// Table 6: qualitative comparison of WSP schemes.
pub fn table6(_len: usize) -> TextTable {
    let yes_no = |b: bool| if b { "yes" } else { "no" };
    let mut t = TextTable::new([
        "scheme",
        "hw complexity",
        "energy",
        "recompilation",
        "transparent",
        "dram cache",
        "multi-MC",
    ]);
    for p in ppa_energy::compare::scheme_properties() {
        t.row([
            format!("{:?}", p.scheme),
            p.hardware_complexity.to_string(),
            p.energy_requirement.to_string(),
            yes_no(p.recompilation).to_string(),
            yes_no(p.transparency).to_string(),
            yes_no(p.enables_dram_cache).to_string(),
            yes_no(p.enables_multi_mc).to_string(),
        ]);
    }
    t
}

/// §7.13: checkpoint energy/latency arithmetic plus a live measured
/// failure injection.
pub fn ckpt(_len: usize) -> TextTable {
    let b = ppa_energy::CheckpointBudget::worst_case();
    let mut t = TextTable::new(["quantity", "value", "paper"]);
    t.row([
        "worst-case checkpoint bytes".to_string(),
        b.bytes.to_string(),
        "1838".to_string(),
    ]);
    t.row([
        "energy".to_string(),
        format!("{:.2} uJ", b.energy_uj),
        "21.7 uJ".to_string(),
    ]);
    t.row([
        "supercap volume".to_string(),
        format!("{:.4} mm^3", b.supercap_mm3),
        "0.06 mm^3".to_string(),
    ]);
    t.row([
        "li-thin volume".to_string(),
        format!("{:.6} mm^3", b.li_thin_mm3),
        "0.0006 mm^3".to_string(),
    ]);
    t.row([
        "controller read time".to_string(),
        format!("{:.1} ns", b.read_ns),
        "114.9 ns".to_string(),
    ]);
    t.row([
        "total flush time".to_string(),
        format!("{:.2} us", b.total_ns / 1000.0),
        "0.91 us".to_string(),
    ]);

    // A live failure injection on a write-heavy app: measured checkpoint
    // size and recovery verification.
    let app = registry::by_name("rb").expect("rb exists");
    let trace = app.generate(10_000, SEED);
    let out = inject_failure(&SystemConfig::ppa(), &trace, 4_000);
    t.row([
        "measured checkpoint (rb @4k cycles)".to_string(),
        format!("{} bytes", out.checkpoint_bytes),
        "<= 1838".to_string(),
    ]);
    t.row([
        "stores replayed".to_string(),
        out.replayed_stores.to_string(),
        "<= 40 (CSQ)".to_string(),
    ]);
    t.row([
        "consistent after recovery".to_string(),
        out.consistent_after_recovery.to_string(),
        "true".to_string(),
    ]);
    t.row([
        "completed after resume".to_string(),
        out.completed_after_resume.to_string(),
        "true".to_string(),
    ]);
    t
}

/// Ablation of the design choices DESIGN.md calls out: persist
/// coalescing (§4.3), WPQ write combining, asynchronous persistence (a
/// 1-entry write buffer approximates synchronous write-back), and
/// dynamic region formation (vs Capri-length and paper-length static
/// regions).
pub fn ablation(len: usize) -> TextTable {
    let apps: Vec<AppDescriptor> = [
        "gcc",
        "hmmer",
        "libquantum",
        "lbm",
        "rb",
        "water-ns",
        "sps",
        "tpcc",
    ]
    .iter()
    .map(|n| registry::by_name(n).expect("known app"))
    .collect();

    let mut variants: Vec<(&str, SystemConfig)> = Vec::new();
    variants.push(("ppa (full design)", SystemConfig::ppa()));

    let mut no_coalesce = SystemConfig::ppa();
    no_coalesce.mem.persist_coalescing = false;
    variants.push(("- persist coalescing", no_coalesce));

    let mut no_combine = SystemConfig::ppa();
    no_combine.mem = no_combine
        .mem
        .with_nvm(NvmConfig::paper_default().without_write_combining());
    variants.push(("- WPQ write combining", no_combine));

    let mut sync_wb = SystemConfig::ppa();
    sync_wb.mem.write_buffer_entries = 1;
    variants.push(("- async persistence (1-entry WB)", sync_wb));

    let mut static29 = SystemConfig::ppa();
    static29.core = static29.core.with_forced_regions(29);
    variants.push(("- dynamic regions (static 29)", static29));

    let mut static320 = SystemConfig::ppa();
    static320.core = static320.core.with_forced_regions(320);
    variants.push(("- dynamic regions (static 320)", static320));

    let mut t = TextTable::new(["variant", "slowdown vs baseline (gmean)"]);
    for (label, cfg) in variants {
        let slows: Vec<f64> = par_apps(apps.clone(), move |app| {
            let base = run(SystemConfig::baseline(), app, len);
            let v = run(cfg, app, len);
            v.cycles as f64 / base.cycles as f64
        })
        .into_iter()
        .map(|(_, s)| s)
        .collect();
        t.row([label.to_string(), fmt_slowdown(geomean(slows))]);
    }
    t
}

/// §6 multi-MC support: PPA behind one vs two interleaved memory
/// controllers, with recovery verified under the two-controller ordering
/// hazard.
pub fn mc(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "ppa 1 MC", "ppa 2 MCs", "recovery @2MC"]);
    let names = vec!["gcc", "rb", "sps", "tpcc", "water-ns"];
    for row in ppa_pool::par_map_ordered(names, |name| {
        let app = registry::by_name(name).expect("known app");
        let base1 = run(SystemConfig::baseline(), &app, len);
        let ppa1 = run(SystemConfig::ppa(), &app, len);
        let mut base_cfg2 = SystemConfig::baseline();
        base_cfg2.mem = base_cfg2.mem.with_memory_controllers(2);
        let mut cfg2 = SystemConfig::ppa();
        cfg2.mem = cfg2.mem.with_memory_controllers(2);
        let base2 = run(base_cfg2, &app, len);
        let ppa2 = run(cfg2, &app, len);
        // Verify §4.6 recovery under cross-channel persistence reordering.
        let trace = app.generate(4_000, SEED);
        let out = inject_failure(&cfg2, &trace, 1_500);
        [
            name.to_string(),
            fmt_slowdown(ppa1.cycles as f64 / base1.cycles as f64),
            fmt_slowdown(ppa2.cycles as f64 / base2.cycles as f64),
            (out.consistent_after_recovery && out.completed_after_resume).to_string(),
        ]
    }) {
        t.row(row);
    }
    t.row([
        "paper".to_string(),
        String::new(),
        "\"naturally supports multiple MCs\"".to_string(),
        "true".to_string(),
    ]);
    t
}

/// §6's in-order-core extension: the value-carrying CSQ variant against
/// the out-of-order PPA core.
pub fn inorder(_len: usize) -> TextTable {
    use ppa_core::InOrderCore;
    use ppa_mem::MemorySystem;
    let mut t = TextTable::new([
        "app",
        "in-order cycles",
        "ooo ppa cycles",
        "ooo speedup",
        "in-order consistent",
    ]);
    let names = vec!["gcc", "mcf", "hmmer", "rb"];
    for row in ppa_pool::par_map_ordered(names, |name| {
        let app = registry::by_name(name).expect("known app");
        let trace = app.generate(10_000, SEED);
        let mut mem = MemorySystem::new(SystemConfig::ppa().mem, 1);
        let mut core = InOrderCore::new(40, 0);
        let io_cycles = core.run(&trace, &mut mem);
        let io_consistent = mem.nvm_image().diff(mem.arch_mem()).is_empty();
        let ooo = Machine::new(SystemConfig::ppa()).run(&trace);
        [
            name.to_string(),
            io_cycles.to_string(),
            ooo.cycles.to_string(),
            fmt_slowdown(io_cycles as f64 / ooo.cycles as f64),
            io_consistent.to_string(),
        ]
    }) {
        t.row(row);
    }
    t
}

/// §5's OS-interaction claim: context switching costs PPA essentially
/// nothing, and recovery works when power fails inside kernel code.
pub fn os(len: usize) -> TextTable {
    let mut t = TextTable::new([
        "app",
        "ppa (no kernel)",
        "ppa (ctx switch / 10k uops)",
        "recovery mid-kernel",
    ]);
    let names = vec!["gcc", "hmmer", "tpcc"];
    for row in ppa_pool::par_map_ordered(names, |name| {
        let app = registry::by_name(name).expect("known app");
        // 10k uops between kernel entries corresponds to the multi-µs
        // context-switch spacing §5 quotes (5-20 µs at ~2 GHz).
        let ctx = app.with_context_switches(10_000);
        let base = run(SystemConfig::baseline(), &app, len);
        let ppa = run(SystemConfig::ppa(), &app, len);
        let base_ctx = run(SystemConfig::baseline(), &ctx, len);
        let ppa_ctx = run(SystemConfig::ppa(), &ctx, len);
        // Fail power while a kernel burst is likely in flight.
        // Recovery probe: a kernel-dense trace so the failure lands inside
        // kernel code with high probability.
        let dense = app.with_context_switches(300);
        let trace = dense.generate(6_000, SEED);
        let out = inject_failure(&SystemConfig::ppa(), &trace, 1_111);
        [
            name.to_string(),
            fmt_slowdown(ppa.cycles as f64 / base.cycles as f64),
            fmt_slowdown(ppa_ctx.cycles as f64 / base_ctx.cycles as f64),
            (out.consistent_after_recovery && out.completed_after_resume).to_string(),
        ]
    }) {
        t.row(row);
    }
    t.row([
        "paper (§5)".to_string(),
        String::new(),
        "\"practically the same with PPA\"".to_string(),
        "true".to_string(),
    ]);
    t
}

/// The introduction's CXL claim: PPA treats the hierarchy as a black
/// box, so pushing the persistent memory ~300 ns further away (a
/// CXL-attached device) must not change its overhead.
pub fn cxl(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "ppa (local PMEM)", "ppa (CXL far PMEM)"]);
    let mut near_s = Vec::new();
    let mut far_s = Vec::new();
    let names = vec!["gcc", "mcf", "libquantum", "rb", "water-ns", "lulesh"];
    for (name, sn, sf) in ppa_pool::par_map_ordered(names, |name| {
        let app = registry::by_name(name).expect("known app");
        let near_b = run(SystemConfig::baseline(), &app, len);
        let near_p = run(SystemConfig::ppa(), &app, len);
        let far_b = run(SystemConfig::baseline().with_cxl_far_memory(), &app, len);
        let far_p = run(SystemConfig::ppa().with_cxl_far_memory(), &app, len);
        (
            name,
            near_p.cycles as f64 / near_b.cycles as f64,
            far_p.cycles as f64 / far_b.cycles as f64,
        )
    }) {
        near_s.push(sn);
        far_s.push(sf);
        t.row([name.to_string(), fmt_slowdown(sn), fmt_slowdown(sf)]);
    }
    push_gmean(&mut t, "gmean", &[&near_s, &far_s]);
    t.row([
        "paper (intro)",
        "",
        "\"suitable for CXL-based far persistent memory\"",
    ]);
    t
}

/// §2.4's disabled feature: ReplayCache *with* its energy-aware region
/// splitting (as deployed on energy-harvesting systems) vs the
/// longest-region variant the paper evaluates.
pub fn ehs(len: usize) -> TextTable {
    use ppa_isa::transform::ReplayCachePass;
    let mut t = TextTable::new([
        "app",
        "replaycache (paper config)",
        "replaycache + energy splitting",
    ]);
    let mut plain_s = Vec::new();
    let mut split_s = Vec::new();
    let names = vec!["gcc", "hmmer", "x264", "omnetpp"];
    for (name, sp, ss) in ppa_pool::par_map_ordered(names, |name| {
        let app = registry::by_name(name).expect("known app");
        let raw = app.generate(len_for_base(&app, len), SEED);
        let base = Machine::new(SystemConfig::baseline()).run(&raw);
        let plain =
            Machine::new(SystemConfig::replay_cache()).run(&ReplayCachePass::new().apply(&raw));
        let split = Machine::new(SystemConfig::replay_cache())
            .run(&ReplayCachePass::new().with_energy_splitting(12).apply(&raw));
        (
            name,
            plain.cycles as f64 / base.cycles as f64,
            split.cycles as f64 / base.cycles as f64,
        )
    }) {
        plain_s.push(sp);
        split_s.push(ss);
        t.row([name.to_string(), fmt_slowdown(sp), fmt_slowdown(ss)]);
    }
    push_gmean(&mut t, "gmean", &[&plain_s, &split_s]);
    t.row([
        "paper".to_string(),
        "~5x (splitting disabled)".to_string(),
        "worse (12-inst EHS regions)".to_string(),
    ]);
    t
}

/// AutoPersist placement economy: persist barriers emitted by the
/// dependence-driven flush/fence insertion vs the two region-bounded
/// software baselines, on the same raw trace. AutoPersist fences only
/// where the static dependence graph proves it must (dependence
/// crossings, publication points, the trace-end seal), so its count is
/// the *lower bound* the compile-time schemes pay region-formation
/// overhead above.
pub(crate) fn autopersist_cell(app: &AppDescriptor, base_len: usize) -> Vec<f64> {
    let raw = app.generate(len_for_base(app, base_len).min(20_000), SEED);
    let ap = AutoPersistPass::new().apply(&raw).mix().barriers as f64;
    let capri = CapriPass::new().apply(&raw).mix().barriers as f64;
    let rc = ReplayCachePass::new().apply(&raw).mix().barriers as f64;
    vec![ap, capri, rc]
}

pub fn autopersist(len: usize) -> TextTable {
    let mut t = TextTable::new(["app", "autopersist", "capri", "replaycache", "capri-delta"]);
    let (mut ap_total, mut capri_total, mut rc_total) = (0.0f64, 0.0f64, 0.0f64);
    let mut cheaper = 0usize;
    for (app, v) in crate::gridwork::app_rows("autopersist", registry::all(), autopersist_cell, len)
    {
        let (ap, capri, rc) = (v[0], v[1], v[2]);
        ap_total += ap;
        capri_total += capri;
        rc_total += rc;
        if ap < capri {
            cheaper += 1;
        }
        ppa_obs::registry::gauge(&format!("lint.autopersist.barriers.{}", app.name)).set(ap);
        ppa_obs::registry::gauge(&format!("lint.autopersist.capri_delta.{}", app.name))
            .set(capri - ap);
        t.row([
            app.name.to_string(),
            format!("{ap:.0}"),
            format!("{capri:.0}"),
            format!("{rc:.0}"),
            format!("{:.0}", capri - ap),
        ]);
    }
    ppa_obs::registry::gauge("lint.autopersist.barriers.total").set(ap_total);
    ppa_obs::registry::gauge("lint.autopersist.capri_delta.total").set(capri_total - ap_total);
    ppa_obs::registry::gauge("lint.autopersist.apps_cheaper").set(cheaper as f64);
    t.row([
        "total".to_string(),
        format!("{ap_total:.0}"),
        format!("{capri_total:.0}"),
        format!("{rc_total:.0}"),
        format!("{:.0}", capri_total - ap_total),
    ]);
    t.row([
        "apps cheaper than capri".to_string(),
        format!("{cheaper}"),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

/// §5f conformance headline: a fixed-seed litmus batch (generator →
/// axiomatic Px86-style model → real SMP machine, exhaustive failure
/// points) summarised per core count. Deliberately independent of
/// `PPA_REPRO_LEN` — litmus programs are a few uops each, so the batch
/// size, not the trace length, is the knob; seed and size are pinned so
/// the table is reproducible byte-for-byte.
pub fn litmus(_len: usize) -> TextTable {
    use ppa_litmus::{generate, run_batch_local, GenConfig, RunConfig};
    const TESTS: usize = 24;
    let tests = generate(&GenConfig {
        seed: SEED,
        tests: TESTS,
    });
    let cfg = RunConfig::default();
    let rows = run_batch_local(&tests, &cfg);
    ppa_litmus::run::publish_metrics(&rows);

    let mut t = TextTable::new([
        "cores", "tests", "cells", "torn", "reached", "allowed", "unsound", "waived",
    ]);
    let mut grand = [0u64; 7];
    for cores in 2..=4usize {
        let mut acc = [0u64; 7];
        for (test, row) in tests.iter().zip(&rows) {
            if test.cores.len() != cores {
                continue;
            }
            acc[0] += 1;
            acc[1] += row.cells;
            acc[2] += row.torn;
            acc[3] += row.reached;
            acc[4] += row.allowed;
            acc[5] += row.unsound_cells;
            acc[6] += row.waived.len() as u64;
        }
        if acc[0] == 0 {
            continue;
        }
        for (g, a) in grand.iter_mut().zip(&acc) {
            *g += a;
        }
        let mut cells = vec![cores.to_string()];
        cells.extend(acc.iter().map(|v| v.to_string()));
        t.row(cells);
    }
    let mut total = vec!["total".to_string()];
    total.extend(grand.iter().map(|v| v.to_string()));
    t.row(total);
    t
}

/// A named experiment generator, called with the base trace length.
pub type Experiment = fn(usize) -> TextTable;

/// Every experiment in paper order, as `(id, generator)` pairs.
pub fn all_experiments() -> Vec<(&'static str, Experiment)> {
    vec![
        ("fig1", fig1 as Experiment),
        ("fig5", fig5),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
        ("fig19", fig19),
        ("table1", table1),
        ("table2", table2),
        ("table3", table3),
        ("table4", table4),
        ("table5", table5),
        ("table6", table6),
        ("ckpt", ckpt),
        ("ablation", ablation),
        ("mc", mc),
        ("inorder", inorder),
        ("os", os),
        ("cxl", cxl),
        ("ehs", ehs),
        ("autopersist", autopersist),
        ("litmus", litmus),
    ]
}

/// A per-application cell kernel: given an application and the base trace
/// length, produce that app's row of figure values. Experiments with a
/// cell here decompose into one grid work unit per application;
/// everything else ships as a whole-experiment unit.
pub(crate) type AppCell = fn(&AppDescriptor, usize) -> Vec<f64>;

/// One decomposable experiment: its id, the application set it iterates
/// over, and the per-application cell kernel.
pub(crate) type CellEntry = (&'static str, fn() -> Vec<AppDescriptor>, AppCell);

/// Cell kernels for every decomposable experiment, with the application
/// set each one iterates over.
pub(crate) fn app_cells() -> Vec<CellEntry> {
    vec![
        (
            "fig1",
            registry::all as fn() -> Vec<AppDescriptor>,
            fig1_cell as AppCell,
        ),
        ("fig8", registry::all, fig8_cell),
        ("fig9", registry::all, fig9_cell),
        ("fig10", registry::memory_intensive, fig10_cell),
        ("fig11", registry::all, fig11_cell),
        ("fig12", registry::all, fig12_cell),
        ("fig13", registry::all, fig13_cell),
        ("fig14", registry::all, fig14_cell),
        ("fig15", registry::memory_intensive, fig15_cell),
        ("fig18", registry::memory_intensive, fig18_cell),
        ("autopersist", registry::all, autopersist_cell),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_registry_is_complete() {
        let ids: Vec<&str> = all_experiments().iter().map(|(id, _)| *id).collect();
        for expected in [
            "fig1",
            "fig5",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "ckpt",
            "ablation",
            "mc",
            "inorder",
            "os",
            "cxl",
            "ehs",
            "autopersist",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn static_tables_render() {
        for f in [table1, table2, table3, table4, table5, table6] {
            let t = f(crate::DEFAULT_LEN);
            assert!(!t.is_empty());
            assert!(!t.to_string().is_empty());
        }
    }

    #[test]
    fn ckpt_table_contains_verified_recovery() {
        let t = ckpt(crate::DEFAULT_LEN);
        let s = t.to_string();
        assert!(s.contains("1838"));
        assert!(s.contains("true"));
        assert!(!s.contains("false"), "recovery verification failed:\n{s}");
    }
}
