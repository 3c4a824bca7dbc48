//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's own calls into each layer,
//! kept in memory, and written out as a Chrome `trace_event` timeline
//! when the run ends. A span's *self time* is its duration minus the
//! durations of its children; summed per layer, self times partition a
//! pass's wall time, and the root `bench` spans hold what no layer span
//! covers (the printed `unattributed_ms`).
//!
//! Calls far too short and too many to record one by one (a core's
//! `step`, the memory system's `tick`) are timed by their caller and
//! recorded as one aggregate span per cell with a call count.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One closed span. `parent` is 0 for a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub thread: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this span: 1, or the call count of an aggregate.
    pub calls: u64,
}

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_thread: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn recorder() -> &'static Recorder {
    static R: OnceLock<Recorder> = OnceLock::new();
    R.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        next_thread: AtomicU64::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = recorder().next_thread.fetch_add(1, Ordering::Relaxed);
}

/// Arms or disarms recording. Spans opened while disarmed record nothing.
pub fn set_on(on: bool) {
    recorder().on.store(on, Ordering::SeqCst);
}

/// Whether recording is armed.
pub fn on() -> bool {
    recorder().on.load(Ordering::SeqCst)
}

/// Drains every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *recorder().spans.lock().expect("span buffer poisoned"))
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(recorder().epoch).as_nanos() as u64
}

fn push(span: Span) {
    recorder()
        .spans
        .lock()
        .expect("span buffer poisoned")
        .push(span);
}

/// An open span; recorded when dropped.
#[must_use = "a span measures until dropped"]
pub struct Guard {
    open: Option<(u64, u64, &'static str, &'static str, Instant)>,
}

/// Opens a span under the innermost span open on this thread.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    span_under(current(), layer, name)
}

/// Opens a span under an explicit parent, for work another thread does
/// on the parent's behalf (the serve executor runs on a worker thread).
pub fn span_under(parent: u64, layer: &'static str, name: &'static str) -> Guard {
    if !on() {
        return Guard { open: None };
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some((id, parent, layer, name, Instant::now())),
    }
}

impl Guard {
    /// The span's id (0 when recording is disarmed).
    pub fn id(&self) -> u64 {
        self.open.map_or(0, |o| o.0)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, layer, name, start)) = self.open.take() {
            let dur = start.elapsed();
            STACK.with(|s| s.borrow_mut().pop());
            push(Span {
                id,
                parent,
                thread: THREAD.with(|t| *t),
                layer,
                name,
                start_ns: ns_since_epoch(start),
                dur_ns: dur.as_nanos() as u64,
                calls: 1,
            });
        }
    }
}

/// The innermost span open on this thread (0 when none or disarmed).
pub fn current() -> u64 {
    STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
}

/// Records `calls` calls that together took `total`, the first of which
/// started at `first`, as one aggregate span under `parent`. Returns its
/// id (0 when disarmed), so finer aggregates can nest under it.
pub fn aggregate(
    parent: u64,
    layer: &'static str,
    name: &'static str,
    first: Instant,
    total: Duration,
    calls: u64,
) -> u64 {
    if !on() || calls == 0 {
        return 0;
    }
    let id = recorder().next_id.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent,
        thread: THREAD.with(|t| *t),
        layer,
        name,
        start_ns: ns_since_epoch(first),
        dur_ns: total.as_nanos() as u64,
        calls,
    });
    id
}

/// Self time per `(layer, name)`, in milliseconds: each span's duration
/// minus its children's, summed when they run on its thread, and the
/// time any of them runs when they run on others.
pub fn self_ms(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let thread: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push(s);
    }
    let child_ns: BTreeMap<u64, u64> = children
        .into_iter()
        .map(|(parent, kids)| {
            let here = thread.get(&parent);
            let ns = if kids.iter().all(|k| Some(&k.thread) == here) {
                kids.iter().map(|k| k.dur_ns).sum()
            } else {
                covered_ns(kids)
            };
            (parent, ns)
        })
        .collect();
    let mut out = BTreeMap::new();
    for s in spans {
        let own = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry((s.layer, s.name)).or_default() += own as f64 / 1e6;
    }
    out
}

/// Time covered by at least one of `spans`, which run on other threads
/// than their parent and may overlap (the serve executor's jobs).
fn covered_ns(mut spans: Vec<&Span>) -> u64 {
    spans.sort_by_key(|s| s.start_ns);
    let (mut total, mut end) = (0, 0);
    for s in spans {
        let s_end = s.start_ns + s.dur_ns;
        if s_end > end {
            total += s_end - s.start_ns.max(end);
            end = s_end;
        }
    }
    total
}

/// Total milliseconds and calls of the spans called `layer.name`.
pub fn total(spans: &[Span], layer: &str, name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .fold((0.0, 0), |(ms, n), s| {
            (ms + s.dur_ns as f64 / 1e6, n + s.calls)
        })
}

/// Writes `spans` as a Chrome `trace_event` timeline (complete events,
/// microseconds), loadable in `chrome://tracing` or Perfetto. Aggregate
/// spans are drawn from their first call with their summed duration.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.thread, s.id));
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in sorted.iter().enumerate() {
        let comma = if i + 1 == sorted.len() { "" } else { "," };
        out.push_str(&format!(
            "{{\"name\":\"{}.{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"calls\":{}}}}}{comma}\n",
            s.layer,
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.thread,
            s.id,
            s.parent,
            s.calls
        ));
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
