//! The perf-regression sentinel behind `repro bench compare`.
//!
//! Re-times experiments fresh (min-of-N, noise-aware) and diffs the
//! result against the captured telemetry baseline
//! (`results/bench_baseline.json`, key `span.experiment.<id>.min`).
//! A regression is only called when the fresh minimum exceeds the
//! baseline minimum by more than the configured threshold *plus* the
//! run's own observed noise, so a jittery machine widens its own
//! tolerance instead of crying wolf:
//!
//! ```text
//! allowed    = threshold + (fresh_max − fresh_min) / fresh_min
//! regression ⇔ fresh_min > baseline_min × (1 + allowed)
//! ```
//!
//! Every invocation appends one JSON line to the history file
//! (`results/bench_history.jsonl` by default) with deterministic key
//! order, so the file diffs cleanly and any JSON tool can trend it.
//!
//! The sentinel is a *soft* gate by design: regressions print warnings
//! and the process still exits 0 unless `PPA_BENCH_STRICT=1` (or
//! [`SentinelConfig::strict`]) is set — ci.sh runs it warn-by-default
//! so a noisy runner cannot block unrelated changes.

use crate::experiments::Experiment;
use crate::gridwork;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// How `repro bench compare` runs.
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Fresh timing runs per experiment; the minimum is compared.
    pub runs: usize,
    /// Base relative tolerance before noise widening (0.25 = +25%).
    pub threshold: f64,
    /// The baseline metrics file (flat JSON).
    pub baseline: PathBuf,
    /// Where to append the run record; `None` skips history.
    pub history: Option<PathBuf>,
    /// Fail (nonzero exit) on regression instead of warning.
    pub strict: bool,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        SentinelConfig {
            runs: 3,
            threshold: 0.25,
            baseline: PathBuf::from("results/bench_baseline.json"),
            history: Some(PathBuf::from("results/bench_history.jsonl")),
            strict: std::env::var("PPA_BENCH_STRICT").is_ok_and(|v| v != "0"),
        }
    }
}

/// One experiment's fresh-versus-baseline outcome.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Experiment id (`fig11`, `table4`, ...).
    pub id: &'static str,
    /// Fastest fresh run, nanoseconds.
    pub fresh_min_ns: u64,
    /// Slowest fresh run, nanoseconds.
    pub fresh_max_ns: u64,
    /// Observed relative noise: `(max − min) / min`.
    pub noise: f64,
    /// `span.experiment.<id>.min` from the baseline file, if present.
    pub baseline_ns: Option<u64>,
    /// `fresh_min / baseline`, if a baseline exists.
    pub ratio: Option<f64>,
    /// Whether the noise-widened threshold was exceeded.
    pub regression: bool,
}

impl Verdict {
    /// `ok`, `regression`, or `new` (no baseline entry).
    pub fn label(&self) -> &'static str {
        match (self.regression, self.baseline_ns) {
            (true, _) => "regression",
            (false, Some(_)) => "ok",
            (false, None) => "new",
        }
    }
}

/// The whole comparison: per-experiment verdicts in input order.
#[derive(Debug, Clone)]
pub struct SentinelReport {
    pub verdicts: Vec<Verdict>,
    pub threshold: f64,
    pub runs: usize,
}

impl SentinelReport {
    /// Whether any experiment regressed.
    pub fn has_regression(&self) -> bool {
        self.verdicts.iter().any(|v| v.regression)
    }
}

/// Loads `span.experiment.<id>.min` entries from a flat metrics JSON
/// baseline.
fn load_baseline(
    path: &std::path::Path,
) -> Result<std::collections::BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let flat = ppa_obs::json::parse_flat(&text)
        .map_err(|e| format!("bad baseline {}: {e}", path.display()))?;
    let mut out = std::collections::BTreeMap::new();
    for (key, num) in flat {
        if let Some(id) = key
            .strip_prefix("span.experiment.")
            .and_then(|rest| rest.strip_suffix(".min"))
        {
            out.insert(id.to_string(), num.as_f64().max(0.0) as u64);
        }
    }
    Ok(out)
}

/// Times `selected` fresh (min-of-N each) and compares against the
/// baseline. Pure measurement + math; printing and process exit stay
/// with the caller.
pub fn compare(
    selected: &[(&'static str, Experiment)],
    cfg: &SentinelConfig,
) -> Result<SentinelReport, String> {
    assert!(cfg.runs >= 1, "need at least one timing run");
    let baseline = load_baseline(&cfg.baseline)?;
    let len = crate::experiment_len();
    let mut verdicts = Vec::with_capacity(selected.len());
    for &(id, f) in selected {
        let (mut min_ns, mut max_ns) = (u64::MAX, 0u64);
        for _ in 0..cfg.runs {
            let t0 = Instant::now();
            let table = gridwork::render_experiment(id, f, len);
            let ns = t0.elapsed().as_nanos() as u64;
            // Tables render deterministically; consuming the length
            // keeps the whole run from being optimized away.
            std::hint::black_box(table.len());
            min_ns = min_ns.min(ns);
            max_ns = max_ns.max(ns);
        }
        let noise = if min_ns > 0 {
            (max_ns - min_ns) as f64 / min_ns as f64
        } else {
            0.0
        };
        let baseline_ns = baseline.get(id).copied();
        let (ratio, regression) = match baseline_ns {
            Some(b) if b > 0 => {
                let allowed = cfg.threshold + noise;
                (
                    Some(min_ns as f64 / b as f64),
                    min_ns as f64 > b as f64 * (1.0 + allowed),
                )
            }
            _ => (None, false),
        };
        verdicts.push(Verdict {
            id,
            fresh_min_ns: min_ns,
            fresh_max_ns: max_ns,
            noise,
            baseline_ns,
            ratio,
            regression,
        });
    }
    let report = SentinelReport {
        verdicts,
        threshold: cfg.threshold,
        runs: cfg.runs,
    };
    if let Some(history) = &cfg.history {
        append_history(history, &report, len)?;
    }
    Ok(report)
}

/// Appends one JSON line describing this comparison to the history
/// file. Keys are written in a fixed order (and experiments sorted by
/// id) so the file stays deterministic modulo the measurements
/// themselves.
fn append_history(
    path: &std::path::Path,
    report: &SentinelReport,
    len: usize,
) -> Result<(), String> {
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut line = format!(
        "{{\"ts\": {ts}, \"len\": {len}, \"runs\": {}, \"threshold\": {}, \"experiments\": {{",
        report.runs, report.threshold
    );
    let mut sorted: Vec<&Verdict> = report.verdicts.iter().collect();
    sorted.sort_by_key(|v| v.id);
    for (i, v) in sorted.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!(
            "\"{}\": {{\"min_ns\": {}, \"max_ns\": {}, \"noise\": {:.4}, \"baseline_ns\": {}, \"verdict\": \"{}\"}}",
            v.id,
            v.fresh_min_ns,
            v.fresh_max_ns,
            v.noise,
            v.baseline_ns
                .map_or("null".to_string(), |b| b.to_string()),
            v.label(),
        ));
    }
    line.push_str("}}\n");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open history {}: {e}", path.display()))?;
    file.write_all(line.as_bytes())
        .map_err(|e| format!("cannot append history {}: {e}", path.display()))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_table(_len: usize) -> ppa_stats::TextTable {
        ppa_stats::TextTable::new(["k", "v"])
    }

    fn write_baseline(dir: &std::path::Path, id: &str, min_ns: u64) -> PathBuf {
        let path = dir.join("baseline.json");
        std::fs::write(
            &path,
            format!("{{\n  \"span.experiment.{id}.min\": {min_ns}\n}}\n"),
        )
        .unwrap();
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppa_sentinel_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn generous_baseline_passes_and_appends_history() {
        let dir = tmpdir("pass");
        // A baseline of 100s can't be beaten into regression by an
        // empty-table render.
        let baseline = write_baseline(&dir, "tiny", 100_000_000_000);
        let history = dir.join("history.jsonl");
        let cfg = SentinelConfig {
            runs: 2,
            threshold: 0.25,
            baseline,
            history: Some(history.clone()),
            strict: false,
        };
        let selected: Vec<(&'static str, Experiment)> = vec![("tiny", tiny_table as Experiment)];
        let report = compare(&selected, &cfg).unwrap();
        assert!(!report.has_regression());
        assert_eq!(report.verdicts[0].label(), "ok");
        assert!(report.verdicts[0].ratio.unwrap() < 1.0);
        let text = std::fs::read_to_string(&history).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"tiny\""));
        assert!(text.contains("\"verdict\": \"ok\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctored_baseline_is_a_regression() {
        let dir = tmpdir("fail");
        // 1ns baseline: any real render exceeds it far beyond any noise
        // widening.
        let baseline = write_baseline(&dir, "tiny", 1);
        let cfg = SentinelConfig {
            runs: 2,
            threshold: 0.25,
            baseline,
            history: None,
            strict: true,
        };
        let selected: Vec<(&'static str, Experiment)> = vec![("tiny", tiny_table as Experiment)];
        let report = compare(&selected, &cfg).unwrap();
        assert!(report.has_regression());
        assert_eq!(report.verdicts[0].label(), "regression");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_experiment_is_new_not_regression() {
        let dir = tmpdir("new");
        let baseline = write_baseline(&dir, "other", 123);
        let cfg = SentinelConfig {
            runs: 1,
            threshold: 0.25,
            baseline,
            history: None,
            strict: false,
        };
        let selected: Vec<(&'static str, Experiment)> = vec![("tiny", tiny_table as Experiment)];
        let report = compare(&selected, &cfg).unwrap();
        assert!(!report.has_regression());
        assert_eq!(report.verdicts[0].label(), "new");
        assert!(report.verdicts[0].baseline_ns.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
