//! Cross-layer telemetry: a process-global metrics registry and a
//! hierarchical wall-clock span recorder (DESIGN.md §13).
//!
//! Every layer of the stack — sealing, persistent store, eval
//! service, simulator — records into one registry of named **counters**,
//! **gauges**, and fixed-bucket **histograms**, and wraps its phases in
//! RAII **spans**. The registry renders two expositions:
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
//! call checks it first, so a disabled registry costs one predictable
//! branch on the hot path and allocates nothing.

use crate::json::Writer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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
        let mut r = registry().lock().expect("telemetry registry");
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
// Registry internals
// ---------------------------------------------------------------------------

struct HistInner {
    bounds: Vec<u64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

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

#[derive(Default)]
struct Registry {
    counters: Vec<(String, Arc<AtomicU64>)>,
    gauges: Vec<(String, Arc<AtomicU64>)>,
    hists: Vec<(String, Arc<HistInner>)>,
    spans: Vec<SpanRec>,
    threads: HashMap<ThreadId, u32>,
    t0: Option<Instant>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Registry::default()))
}

impl Registry {
    fn thread_ordinal(&mut self, id: ThreadId) -> u32 {
        let next = self.threads.len() as u32;
        *self.threads.entry(id).or_insert(next)
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle. Cheap to clone; recording
/// is one relaxed atomic add (after the enabled check).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `delta` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, delta: u64) {
        if enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge (no-op while telemetry is disabled).
    #[inline]
    pub fn set(&self, value: u64) {
        if enabled() {
            self.0.store(value, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram handle. A value lands in the first bucket
/// whose upper bound is `>= value`; values above every bound land in the
/// overflow bucket (rendered `le="+Inf"`).
#[derive(Clone)]
pub struct Histogram(Arc<HistInner>);

impl Histogram {
    /// Record one observation (no-op while telemetry is disabled).
    pub fn observe(&self, value: u64) {
        if !enabled() {
            return;
        }
        let h = &self.0;
        let idx = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[idx].fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// Register (or fetch) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut r = registry().lock().expect("telemetry registry");
    if let Some((_, c)) = r.counters.iter().find(|(n, _)| n == name) {
        return Counter(Arc::clone(c));
    }
    let c = Arc::new(AtomicU64::new(0));
    r.counters.push((name.to_string(), Arc::clone(&c)));
    Counter(c)
}

/// Register (or fetch) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut r = registry().lock().expect("telemetry registry");
    if let Some((_, g)) = r.gauges.iter().find(|(n, _)| n == name) {
        return Gauge(Arc::clone(g));
    }
    let g = Arc::new(AtomicU64::new(0));
    r.gauges.push((name.to_string(), Arc::clone(&g)));
    Gauge(g)
}

/// Register (or fetch) the histogram named `name` with the given upper
/// bounds (must be non-empty and strictly increasing; an existing
/// registration keeps its original bounds).
pub fn histogram(name: &str, bounds: &[u64]) -> Histogram {
    debug_assert!(!bounds.is_empty() && bounds.windows(2).all(|w| w[0] < w[1]));
    let mut r = registry().lock().expect("telemetry registry");
    if let Some((_, h)) = r.hists.iter().find(|(n, _)| n == name) {
        return Histogram(Arc::clone(h));
    }
    let h = Arc::new(HistInner {
        bounds: bounds.to_vec(),
        counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
        sum: AtomicU64::new(0),
        count: AtomicU64::new(0),
    });
    r.hists.push((name.to_string(), Arc::clone(&h)));
    Histogram(h)
}

/// One-shot counter add. Convenience for cold paths; hot paths should
/// hold a [`Counter`] handle. No-op (and no registration) when disabled.
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        counter(name).add(delta);
    }
}

/// One-shot gauge set (see [`count`] for the cost note).
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    if enabled() {
        gauge(name).set(value);
    }
}

/// One-shot histogram observation (see [`count`] for the cost note).
#[inline]
pub fn observe(name: &str, bounds: &[u64], value: u64) {
    if enabled() {
        histogram(name, bounds).observe(value);
    }
}

/// Zero every counter/gauge/histogram and clear the span log. Intended
/// for tests and for the `experiments metrics` command's fresh capture;
/// registrations (names, bounds) survive.
pub fn reset() {
    let mut r = registry().lock().expect("telemetry registry");
    for (_, c) in &r.counters {
        c.store(0, Ordering::Relaxed);
    }
    for (_, g) in &r.gauges {
        g.store(0, Ordering::Relaxed);
    }
    for (_, h) in &r.hists {
        for c in &h.counts {
            c.store(0, Ordering::Relaxed);
        }
        h.sum.store(0, Ordering::Relaxed);
        h.count.store(0, Ordering::Relaxed);
    }
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
    let t0 = {
        let mut r = registry().lock().expect("telemetry registry");
        *r.t0.get_or_insert(start)
    };
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
        let mut r = registry().lock().expect("telemetry registry");
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
    registry().lock().expect("telemetry registry").spans.clone()
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

/// A point-in-time copy of every registered metric, name-sorted.
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
    let r = registry().lock().expect("telemetry registry");
    let mut counters: Vec<(String, u64)> = r
        .counters
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .collect();
    counters.sort();
    let mut gauges: Vec<(String, u64)> = r
        .gauges
        .iter()
        .map(|(n, g)| (n.clone(), g.load(Ordering::Relaxed)))
        .collect();
    gauges.sort();
    let mut histograms: Vec<HistSnapshot> = r
        .hists
        .iter()
        .map(|(n, h)| HistSnapshot {
            name: n.clone(),
            bounds: h.bounds.clone(),
            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: h.sum.load(Ordering::Relaxed),
            count: h.count.load(Ordering::Relaxed),
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot {
        counters,
        gauges,
        histograms,
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

    /// Look up a gauge value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
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
        let c = counter("test.disabled.counter");
        let before = c.get();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), before);
        let h = histogram("test.disabled.hist", &US_BUCKETS);
        h.observe(7);
        assert_eq!(h.count(), 0);
        let s = span("service", "test.disabled.span");
        drop(s);
        assert!(!spans().iter().any(|s| s.name == "test.disabled.span"));
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_bounds() {
        let _g = guard();
        set_enabled(true);
        let h = histogram("test.boundary.hist", &[10, 100]);
        // A value equal to a bound lands in that bound's bucket; one past
        // it lands in the next; past every bound → overflow.
        h.observe(0);
        h.observe(10);
        h.observe(11);
        h.observe(100);
        h.observe(101);
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
        let h = histogram("test.prom.hist", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        counter("test.prom.counter").add(3);
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
        counter("test.json.counter").inc();
        gauge("test.json.gauge").set(9);
        histogram("test.json.hist", &[1, 2]).observe(2);
        set_enabled(false);
        let j = snapshot().to_json();
        assert!(j.contains("\"version\": 1"));
        assert!(j.contains("{\"name\":\"test.json.counter\",\"value\":"));
        assert!(j.contains("{\"name\":\"test.json.gauge\",\"value\":"));
        assert!(j.contains("\"bounds\":[1,2]"));
    }
}
