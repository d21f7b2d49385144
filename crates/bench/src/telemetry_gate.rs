//! Telemetry surfacing: the merged service+sim Perfetto export, the
//! dependency-free metrics-snapshot validator behind the CI gate, and
//! the one bridge that adds `StoreStats` and `ServiceStats` into the
//! registry at capture time.

use crate::service::ServiceStats;
use muir_core::json::{self, check_fields, Json, Writer};
use muir_core::telemetry::{self, SpanRec};
use muir_sim::Trace;
use muir_store::{StoreFaultCounts, StoreStats};

/// Chrome-trace process id of the service span track (task tracks use
/// the task index, memory tracks `MEM_PID_BASE +`, so 2000 is clear).
pub const SERVICE_PID: u32 = 2000;

/// Merge the telemetry span log with one simulated workload's PR-2 trace
/// into a single Chrome/Perfetto JSON document: service-level spans
/// (drain / group / store-probe / compile / simulate / retry) on the
/// `service` process, sim-level events (fires, stalls, channel depths,
/// memory lifetimes) on their usual task/memory tracks, time-shifted so
/// the sim timeline starts under its enclosing `service.simulate` span.
pub fn merged_chrome_json(spans: &[SpanRec], trace: Option<&Trace>) -> String {
    let mut w = Writer::new();
    w.obj_lines().key("traceEvents").arr_lines();
    w.obj().key("name").str("process_name").key("ph").str("M");
    w.key("pid").uint(SERVICE_PID);
    w.key("args").obj().key("name").str("service").end().end();
    telemetry::chrome_span_events(spans, SERVICE_PID, &mut w);
    if let Some(t) = trace {
        // Anchor cycle 0 at the first simulate span (1 cycle = 1 µs, so
        // the sim events nest under the span that ran them).
        let offset = spans
            .iter()
            .filter(|s| s.name == "service.simulate")
            .map(|s| s.start_us)
            .min()
            .unwrap_or(0);
        t.chrome_events(offset, &mut w);
    }
    w.end().key("displayTimeUnit").str("ms");
    w.key("otherData").obj();
    w.key("generator").str("muir-telemetry");
    let timebase = "1 cycle = 1us; spans in wall-clock us";
    w.key("timebase").str(timebase).end().end();
    w.finish()
}

/// What the metrics validator checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Counters present.
    pub counters: usize,
    /// Gauges present.
    pub gauges: usize,
    /// Histograms present.
    pub histograms: usize,
    /// Total histogram observations.
    pub observations: u64,
}

fn num_array(v: &Json, what: &str, i: usize, key: &str) -> Result<Vec<u64>, String> {
    let Some(Json::Arr(items)) = v.get(key) else {
        return Err(format!("{what} {i} `{key}` is not an array"));
    };
    items
        .iter()
        .map(|x| match x {
            Json::Num(n) if *n >= 0.0 => Ok(*n as u64),
            _ => Err(format!("{what} {i} `{key}` has a non-numeric entry")),
        })
        .collect()
}

/// Validate a telemetry JSON snapshot against
/// `scripts/metrics_schema.json`: top-level shape, per-entry required
/// fields, and the histogram invariants the schema language cannot
/// express (strictly increasing bounds, `counts.len == bounds.len + 1`,
/// `count == Σ counts`).
///
/// # Errors
/// The first violation, with enough context to locate the entry.
pub fn validate_metrics_json(snapshot: &str, schema: &str) -> Result<MetricsSummary, String> {
    let schema = json::parse(schema).map_err(|e| format!("schema is not valid JSON: {e}"))?;
    let snap = json::parse(snapshot).map_err(|e| format!("snapshot is not valid JSON: {e}"))?;

    let top_req = schema
        .get("top_required")
        .ok_or("schema missing `top_required`")?;
    check_fields(&snap, top_req, "snapshot")?;

    let mut summary = MetricsSummary::default();
    let mut tallies = [0usize; 3];
    for (slot, (section, req_key)) in [
        ("counters", "counter_required"),
        ("gauges", "gauge_required"),
        ("histograms", "histogram_required"),
    ]
    .into_iter()
    .enumerate()
    {
        let required = schema
            .get(req_key)
            .ok_or_else(|| format!("schema missing `{req_key}`"))?;
        let Some(Json::Arr(entries)) = snap.get(section) else {
            return Err(format!("snapshot `{section}` is not an array"));
        };
        tallies[slot] = entries.len();
        for (i, entry) in entries.iter().enumerate() {
            check_fields(entry, required, format_args!("{section} {i}"))?;
        }
    }
    [summary.counters, summary.gauges, summary.histograms] = tallies;

    if let Some(Json::Arr(hists)) = snap.get("histograms") {
        for (i, h) in hists.iter().enumerate() {
            let bounds = num_array(h, "histogram", i, "bounds")?;
            let counts = num_array(h, "histogram", i, "counts")?;
            if bounds.is_empty() || bounds.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "histogram {i}: bounds must be non-empty and strictly increasing"
                ));
            }
            if counts.len() != bounds.len() + 1 {
                return Err(format!(
                    "histogram {i}: counts.len ({}) != bounds.len + 1 ({})",
                    counts.len(),
                    bounds.len() + 1
                ));
            }
            let total: u64 = counts.iter().sum();
            let declared = match h.get("count") {
                Some(Json::Num(n)) => *n as u64,
                _ => return Err(format!("histogram {i}: missing numeric `count`")),
            };
            if total != declared {
                return Err(format!(
                    "histogram {i}: count {declared} != sum of bucket counts {total}"
                ));
            }
            summary.observations += total;
        }
    }
    Ok(summary)
}

/// Add one store's and one service's stats structs into the registry as
/// counters named for their fields (`store.result_hits`,
/// `store.fault.bit-flip-read`, `service.coalesced`, …). The structs are
/// the only place a store or service fact is counted; this is the one
/// bridge from them to the registry, read once at capture time. Call it
/// once per instance after its last drain: the registry sums instances.
/// No-op while telemetry is disabled.
///
/// Both structs are destructured in full, so a field added to either
/// fails to compile here until it is bridged.
pub fn record_stats(store: Option<&StoreStats>, svc: Option<&ServiceStats>) {
    let c = telemetry::count;
    if let Some(&StoreStats {
        artifact_puts,
        result_puts,
        result_hits,
        result_misses,
        corrupt_entries,
        quarantined,
        put_errors,
        faults,
        // A mode, not a count: `StoreStats`' `Display` shows it.
        disabled: _,
    }) = store
    {
        let StoreFaultCounts {
            truncate_write,
            bit_flip_read,
            rename_fail,
            stale_version,
        } = faults;
        c("store.artifact_puts", artifact_puts);
        c("store.result_puts", result_puts);
        c("store.result_hits", result_hits);
        c("store.result_misses", result_misses);
        c("store.corrupt_entries", corrupt_entries);
        c("store.quarantined", quarantined);
        c("store.put_errors", put_errors);
        c("store.fault.truncate-write", truncate_write);
        c("store.fault.bit-flip-read", bit_flip_read);
        c("store.fault.rename-fail", rename_fail);
        c("store.fault.stale-version", stale_version);
    }
    if let Some(&ServiceStats {
        submitted,
        executed_groups,
        coalesced,
        store_hits,
        recomputed,
        retries,
        deadline_clipped,
        store_warnings,
    }) = svc
    {
        c("service.submitted", submitted);
        c("service.executed_groups", executed_groups);
        c("service.coalesced", coalesced);
        c("service.store_hits", store_hits);
        c("service.recomputed", recomputed);
        c("service.retries", retries);
        c("service.deadline_clipped", deadline_clipped);
        c("service.store_warnings", store_warnings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scripts/metrics_schema.json"
        ))
        .expect("metrics schema present")
    }

    #[test]
    fn valid_snapshot_passes_schema() {
        let snap = r#"{
          "version": 1, "generator": "muir-telemetry",
          "counters": [{"name":"a.b","value":3}],
          "gauges": [{"name":"g","value":0}],
          "histograms": [{"name":"h","bounds":[1,10],"counts":[2,0,1],"sum":14,"count":3}]
        }"#;
        let s = validate_metrics_json(snap, &schema()).unwrap();
        assert_eq!((s.counters, s.gauges, s.histograms), (1, 1, 1));
        assert_eq!(s.observations, 3);
    }

    #[test]
    fn histogram_invariants_are_enforced() {
        let bad_len = r#"{
          "version": 1, "generator": "x", "counters": [], "gauges": [],
          "histograms": [{"name":"h","bounds":[1,10],"counts":[2,0],"sum":2,"count":2}]
        }"#;
        assert!(validate_metrics_json(bad_len, &schema())
            .unwrap_err()
            .contains("counts.len"));
        let bad_sum = r#"{
          "version": 1, "generator": "x", "counters": [], "gauges": [],
          "histograms": [{"name":"h","bounds":[1,10],"counts":[2,0,0],"sum":2,"count":3}]
        }"#;
        assert!(validate_metrics_json(bad_sum, &schema())
            .unwrap_err()
            .contains("sum of bucket counts"));
        let bad_bounds = r#"{
          "version": 1, "generator": "x", "counters": [], "gauges": [],
          "histograms": [{"name":"h","bounds":[10,1],"counts":[0,0,0],"sum":0,"count":0}]
        }"#;
        assert!(validate_metrics_json(bad_bounds, &schema())
            .unwrap_err()
            .contains("strictly increasing"));
    }

    #[test]
    fn missing_required_field_is_reported() {
        let snap = r#"{
          "version": 1, "generator": "x",
          "counters": [{"value":3}], "gauges": [], "histograms": []
        }"#;
        assert!(validate_metrics_json(snap, &schema())
            .unwrap_err()
            .contains("missing `name`"));
    }

    #[test]
    fn live_snapshot_round_trips_through_the_validator() {
        muir_core::telemetry::set_enabled(true);
        muir_core::telemetry::count("gate.test.counter", 2);
        muir_core::telemetry::observe("gate.test.hist", &[1, 10], 7);
        muir_core::telemetry::set_enabled(false);
        let json = muir_core::telemetry::snapshot().to_json();
        let s = validate_metrics_json(&json, &schema()).unwrap();
        assert!(s.counters >= 1 && s.histograms >= 1);
    }
}
