//! The benchmark's own in-memory spans around each call into a layer.
//!
//! Spans are recorded only while the tracer is on (the traced run);
//! the end-to-end run never touches the clock here. A round's spans are
//! folded into per-name totals when the round ends; the spans of the
//! first [`KEEP_ROUNDS`] traced rounds are kept for the trace file.

use crate::json::Json;
use crate::stats::percentile;
use std::collections::BTreeMap;
use std::time::Instant;

/// Traced rounds whose individual spans go to the trace file.
pub const KEEP_ROUNDS: u32 = 20;

/// One timed interval. `parent` indexes the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub round: u32,
}

/// Per-name sums over one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Handle of an open span (inert when the tracer is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    round: u32,
    open: Vec<u32>,
    cur: Vec<Span>,
    kept: Vec<Span>,
    kept_rounds: u32,
    rounds: Vec<BTreeMap<&'static str, Totals>>,
}

/// Each span's self time: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            round: 0,
            open: Vec::new(),
            cur: Vec::new(),
            kept: Vec::new(),
            kept_rounds: 0,
            rounds: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.cur.len() as u32;
        self.cur.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        // Read the clock last so bookkeeping lands in the parent.
        self.cur[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(Some(id))
    }

    /// Close a span; returns its duration in ns (0 when off).
    pub fn exit(&mut self, id: SpanId) -> u64 {
        let Some(id) = id.0 else { return 0 };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close innermost first");
        let s = &mut self.cur[id as usize];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Fold the spans recorded since the last call into one round's
    /// totals. `round` 0 is set-up; timed rounds count from 1.
    pub fn end_round(&mut self, next_round: u32) {
        assert!(self.open.is_empty(), "a round ends with every span closed");
        if !self.cur.is_empty() {
            let own = self_times(&self.cur);
            let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
            for (s, own) in self.cur.iter().zip(own) {
                let t = totals.entry(s.name).or_default();
                t.total_ns += s.end_ns - s.start_ns;
                t.self_ns += own;
            }
            self.rounds.push(totals);
            if self.kept_rounds < KEEP_ROUNDS {
                let base = self.kept.len() as u32;
                self.kept.extend(self.cur.drain(..).map(|mut s| {
                    s.parent = s.parent.map(|p| p + base);
                    s
                }));
                self.kept_rounds += 1;
            }
            self.cur.clear();
        }
        self.round = next_round;
    }

    fn per_round(&self, name: &str, pick: impl Fn(&Totals) -> u64) -> Vec<f64> {
        self.rounds
            .iter()
            .filter_map(|r| r.get(name).map(|t| pick(t) as f64))
            .collect()
    }

    /// The span's summed duration in a quiet round, in ns: the 10th
    /// percentile, over the rounds that have the span, of its per-round
    /// sum. 0 when
    /// the span never ran.
    pub fn total_ns(&self, name: &str) -> f64 {
        percentile(&self.per_round(name, |t| t.total_ns), 10.0)
    }

    /// Same for the span's self time.
    pub fn self_ns(&self, name: &str) -> f64 {
        percentile(&self.per_round(name, |t| t.self_ns), 10.0)
    }

    /// The kept spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .kept
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("round", Json::Num(f64::from(s.round))),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str("muir-benchmark-trace-v1".to_string())),
            ("workload", Json::Str(workload.to_string())),
            ("rounds_kept", Json::Num(f64::from(self.kept_rounds))),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("round", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 10, 30]);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.enter("x");
        assert_eq!(t.exit(s), 0);
        t.end_round(1);
        assert_eq!(t.total_ns("x"), 0.0);
    }

    #[test]
    fn rounds_fold_by_name_and_nest() {
        let mut t = Tracer::new();
        t.set_on(true);
        for round in 1..=3 {
            let outer = t.enter("outer");
            for _ in 0..2 {
                let inner = t.enter("inner");
                std::hint::black_box((0..1000).sum::<u64>());
                t.exit(inner);
            }
            t.exit(outer);
            t.end_round(round + 1);
        }
        for totals in &t.rounds {
            let (outer, inner) = (totals["outer"], totals["inner"]);
            assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
            assert_eq!(inner.self_ns, inner.total_ns);
        }
        assert!(t.total_ns("outer") >= t.total_ns("inner"));
        let doc = t.to_json("w").to_string();
        let back = crate::json::parse(&doc).expect("trace file parses");
        let spans = back.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[4].get("parent").and_then(Json::as_f64), Some(3.0));
        assert_eq!(spans[4].get("round").and_then(Json::as_f64), Some(2.0));
    }
}
