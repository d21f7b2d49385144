//! Cross-layer telemetry: a process-global metrics registry and a
//! hierarchical wall-clock span recorder (DESIGN.md §13).
//!
//! Every layer of the stack — sealing, persistent store, eval
//! service, simulator — records into one registry of named **counters**,
//! **gauges**, and fixed-bucket **histograms**, and wraps its phases in
//! RAII **spans**. A fact some layer already counts in a stats struct is
//! added here once, at capture time, by that layer's bridge
//! (`muir_sim::record_stats_telemetry`, `telemetry_gate::record_stats` in
//! `muir-bench`), never counted a second time live. The registry renders
//! two expositions:
//!
//! * a Prometheus-style text format ([`Snapshot::to_prometheus`]), and
//! * a JSON snapshot ([`Snapshot::to_json`]) validated against
//!   `scripts/metrics_schema.json` by the CI gate;
//!
//! and the span log exports as Chrome/Perfetto `ph:"X"` duration events
//! ([`chrome_span_events`]) that merge with the simulator's PR-2 trace
//! into one timeline.
//!
//! **Zero-perturbation contract.** Telemetry is *observation only*: it
//! must never change cycle counts, end-state hashes, or trace bytes
//! (pinned by the determinism guard in `muir-bench`). The master switch
//! is a single relaxed [`AtomicBool`], default **off**; every recording
//! call checks it first, so a disabled registry costs one relaxed load
//! and allocates nothing. While on, a record takes the registry mutex.

use crate::json::Writer;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Master switch. Relaxed is sufficient: the flag gates *observation*,
/// never synchronizes data, and a racy first/last event is harmless.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off. Enabling pins the process timebase for
/// span timestamps (first enable wins).
pub fn set_enabled(on: bool) {
    if on {
        // Pin t0 before any span can read it.
        let mut r = lock();
        if r.t0.is_none() {
            r.t0 = Some(Instant::now());
        }
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Standard microsecond latency buckets (upper bounds) shared by the IO
/// and compile histograms: 1µs … 1s, roughly half-decade spaced.
pub const US_BUCKETS: [u64; 13] = [
    1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
];

/// Small-count buckets (upper bounds) for batch sizes and the like.
pub const COUNT_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One completed span: a named wall-clock interval with its category,
/// free-form detail, nesting depth, and the recording thread's ordinal.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Hierarchical span name, e.g. `service.drain`.
    pub name: &'static str,
    /// Category (Chrome `cat`): `service`, `compile`, or `store`.
    pub cat: &'static str,
    /// Free-form detail string (Chrome `args.detail`).
    pub detail: String,
    /// Start offset from the telemetry timebase, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Ordinal of the recording thread (0 = first thread seen).
    pub tid: u32,
    /// Nesting depth within the recording thread (1 = top level).
    pub depth: u32,
}

/// Every metric as a plain value behind one mutex, name-ordered so a
/// snapshot is a copy.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistSnapshot>,
    spans: Vec<SpanRec>,
    threads: HashMap<ThreadId, u32>,
    t0: Option<Instant>,
}

fn lock() -> MutexGuard<'static, Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .expect("telemetry registry")
}

impl Registry {
    fn thread_ordinal(&mut self, id: ThreadId) -> u32 {
        let next = self.threads.len() as u32;
        *self.threads.entry(id).or_insert(next)
    }
}

/// Add `delta` to the counter `name` (no-op, and no registration, while
/// telemetry is disabled).
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        *lock().counters.entry(name.to_string()).or_default() += delta;
    }
}

/// Set the last-value gauge `name` (see [`count`] for the disabled case).
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if enabled() {
        lock().gauges.insert(name.to_string(), value);
    }
}

/// Record one observation in the fixed-bucket histogram `name`. `bounds`
/// are its upper bounds (non-empty, strictly increasing; the first
/// observation fixes them). A value lands in the first bucket whose bound
/// is `>= value`; values above every bound land in the overflow bucket
/// (rendered `le="+Inf"`). See [`count`] for the disabled case.
pub fn observe(name: &str, bounds: &[u64], value: u64) {
    if !enabled() {
        return;
    }
    debug_assert!(!bounds.is_empty() && bounds.windows(2).all(|w| w[0] < w[1]));
    let mut r = lock();
    let h = r
        .hists
        .entry(name.to_string())
        .or_insert_with(|| HistSnapshot {
            name: name.to_string(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
        });
    let idx = h
        .bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(h.bounds.len());
    h.counts[idx] += 1;
    h.sum += value;
    h.count += 1;
}

/// Drop every counter, gauge and histogram and clear the span log.
/// Intended for tests and for the `experiments metrics` command's fresh
/// capture.
pub fn reset() {
    let mut r = lock();
    r.counters.clear();
    r.gauges.clear();
    r.hists.clear();
    r.spans.clear();
    r.t0 = Some(Instant::now());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII guard recording a wall-clock span from construction to drop.
/// Inert (records nothing) when telemetry was disabled at construction.
pub struct SpanGuard(Option<SpanActive>);

struct SpanActive {
    name: &'static str,
    cat: &'static str,
    detail: String,
    start: Instant,
    start_us: u64,
    depth: u32,
}

/// Open a span; the returned guard records it when dropped. Spans on the
/// same thread nest by construction order (Perfetto renders same-`tid`
/// time-nested `X` events as a flame stack).
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    span_with(cat, name, String::new())
}

/// [`span`] with a free-form detail string (shown in the trace viewer's
/// args panel). The detail is only built by callers when telemetry is
/// enabled — pass `String::new()` on the cheap path.
pub fn span_with(cat: &'static str, name: &'static str, detail: String) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let start = Instant::now();
    let t0 = *lock().t0.get_or_insert(start);
    let depth = DEPTH.with(|d| {
        let v = d.get() + 1;
        d.set(v);
        v
    });
    SpanGuard(Some(SpanActive {
        name,
        cat,
        detail,
        start,
        start_us: start.duration_since(t0).as_micros() as u64,
        depth,
    }))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_us = a.start.elapsed().as_micros() as u64;
        let mut r = lock();
        let tid = r.thread_ordinal(std::thread::current().id());
        r.spans.push(SpanRec {
            name: a.name,
            cat: a.cat,
            detail: a.detail,
            start_us: a.start_us,
            dur_us,
            tid,
            depth: a.depth,
        });
    }
}

/// The recorded spans so far, in completion order.
pub fn spans() -> Vec<SpanRec> {
    lock().spans.clone()
}

/// Write spans as Chrome/Perfetto `ph:"X"` complete-duration events
/// under process `pid`, as elements of the array open in `w` (the
/// `traceEvents` of whichever document the caller is building). Sorted by
/// start time so nesting renders deterministically.
pub fn chrome_span_events(spans: &[SpanRec], pid: u32, w: &mut Writer) {
    let mut sorted: Vec<&SpanRec> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
    for s in sorted {
        w.obj().key("name").str(s.name).key("cat").str(s.cat);
        w.key("ph").str("X").key("ts").uint(s.start_us);
        w.key("dur").uint(s.dur_us.max(1));
        w.key("pid").uint(pid).key("tid").uint(s.tid);
        w.key("args").obj().key("detail").str(&s.detail);
        w.key("depth").uint(s.depth).end().end();
    }
}

// ---------------------------------------------------------------------------
// Snapshot + expositions
// ---------------------------------------------------------------------------

/// A histogram's frozen state.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (overflow
    /// last).
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

/// A point-in-time copy of every recorded metric, name-sorted.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, value)`.
    pub gauges: Vec<(String, u64)>,
    /// Histograms.
    pub histograms: Vec<HistSnapshot>,
}

/// Schema version of the JSON snapshot exposition.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Freeze the registry into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let r = lock();
    let values = |m: &BTreeMap<String, u64>| m.iter().map(|(n, v)| (n.clone(), *v)).collect();
    Snapshot {
        counters: values(&r.counters),
        gauges: values(&r.gauges),
        histograms: r.hists.values().cloned().collect(),
    }
}

impl Snapshot {
    /// Look up a counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Prometheus text exposition. Metric names are sanitized to the
    /// Prometheus charset (`.` and `-` become `_`) and prefixed `muir_`;
    /// histogram buckets render cumulatively with an `+Inf` terminal.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, b) in h.bounds.iter().enumerate() {
                cum += h.counts[i];
                out.push_str(&format!("{n}_bucket{{le=\"{b}\"}} {cum}\n"));
            }
            cum += h.counts[h.bounds.len()];
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n"));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }

    /// JSON snapshot exposition (validated against
    /// `scripts/metrics_schema.json` by the CI gate).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj_lines().key("version").uint(SNAPSHOT_VERSION);
        w.key("generator").str("muir-telemetry");
        for (section, values) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            w.key(section).arr();
            for (n, v) in values {
                w.obj().key("name").str(n).key("value").uint(*v).end();
            }
            w.end();
        }
        w.key("histograms").arr();
        for h in &self.histograms {
            w.obj().key("name").str(&h.name);
            for (key, values) in [("bounds", &h.bounds), ("counts", &h.counts)] {
                w.key(key).arr();
                for v in values {
                    w.uint(*v);
                }
                w.end();
            }
            w.key("sum").uint(h.sum).key("count").uint(h.count).end();
        }
        w.end().end();
        w.finish()
    }
}

fn prom_name(name: &str) -> String {
    let body: String = name
        .chars()
        .map(|c| if c == '.' || c == '-' { '_' } else { c })
        .collect();
    format!("muir_{body}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global switch.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = guard();
        set_enabled(false);
        count("test.disabled.counter", 41);
        gauge_set("test.disabled.gauge", 9);
        observe("test.disabled.hist", &US_BUCKETS, 7);
        let s = span("service", "test.disabled.span");
        drop(s);
        let snap = snapshot();
        assert!(!snap
            .counters
            .iter()
            .any(|c| c.0.starts_with("test.disabled")));
        assert!(!snap.gauges.iter().any(|g| g.0.starts_with("test.disabled")));
        assert!(!snap
            .histograms
            .iter()
            .any(|h| h.name.starts_with("test.disabled")));
        assert!(!spans().iter().any(|s| s.name == "test.disabled.span"));
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let _g = guard();
        set_enabled(true);
        // A value equal to a bound lands in that bound's bucket; one past
        // it lands in the next; past every bound → overflow.
        for v in [0, 10, 11, 100, 101] {
            observe("test.boundary.hist", &[10, 100], v);
        }
        set_enabled(false);
        let snap = snapshot();
        let hs = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.boundary.hist")
            .expect("registered");
        assert_eq!(hs.bounds, vec![10, 100]);
        assert_eq!(hs.counts, vec![2, 2, 1]);
        assert_eq!(hs.sum, 222);
        assert_eq!(hs.count, 5);
    }

    #[test]
    fn prometheus_exposition_is_cumulative() {
        let _g = guard();
        set_enabled(true);
        for v in [5, 50, 500] {
            observe("test.prom.hist", &[10, 100], v);
        }
        count("test.prom.counter", 1);
        count("test.prom.counter", 2);
        set_enabled(false);
        let text = snapshot().to_prometheus();
        assert!(text.contains("muir_test_prom_counter 3"));
        assert!(text.contains("muir_test_prom_hist_bucket{le=\"10\"} 1"));
        assert!(text.contains("muir_test_prom_hist_bucket{le=\"100\"} 2"));
        assert!(text.contains("muir_test_prom_hist_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("muir_test_prom_hist_count 3"));
    }

    #[test]
    fn spans_nest_by_thread_depth() {
        let _g = guard();
        set_enabled(true);
        {
            let _outer = span("service", "test.span.outer");
            let _inner = span_with("service", "test.span.inner", "detail \"quoted\"".into());
        }
        set_enabled(false);
        let all = spans();
        let outer = all.iter().find(|s| s.name == "test.span.outer").unwrap();
        let inner = all.iter().find(|s| s.name == "test.span.inner").unwrap();
        assert_eq!(inner.depth, outer.depth + 1);
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_us >= outer.start_us);
        let mut w = Writer::new();
        w.arr_lines();
        chrome_span_events(&all, 2000, &mut w);
        w.end();
        let events = w.finish();
        assert!(events
            .lines()
            .any(|e| e.contains("test.span.inner") && e.contains("detail \\\"quoted\\\"")));
    }

    #[test]
    fn snapshot_json_shape_is_stable() {
        let _g = guard();
        set_enabled(true);
        count("test.json.counter", 1);
        gauge_set("test.json.gauge", 9);
        observe("test.json.hist", &[1, 2], 2);
        set_enabled(false);
        let j = snapshot().to_json();
        assert!(j.contains("\"version\": 1"));
        assert!(j.contains("{\"name\":\"test.json.counter\",\"value\":"));
        assert!(j.contains("{\"name\":\"test.json.gauge\",\"value\":"));
        assert!(j.contains("\"bounds\":[1,2]"));
    }
}
