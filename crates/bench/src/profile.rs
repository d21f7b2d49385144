//! The `bench profile <workload>` pipeline: run a workload with the
//! simulator's observability layer on, write the Chrome/Perfetto and VCD
//! artifacts, and print the profile + bottleneck report that tells the
//! user which μopt transform to reach for next.
//!
//! Also home to the golden-trace schema validator used by CI
//! (`experiments trace-schema`): a checked-in schema
//! (`scripts/trace_schema.json`, read through `muir_core::json`) pins the
//! trace-event fields Perfetto needs, so an exporter regression fails the
//! build rather than silently producing an unloadable trace.

use crate::{baseline, full_stack, optimized, sealed};
use muir_core::compiled::CompiledAccel;
use muir_core::json::{self, check_fields, Json};
use muir_sim::{simulate_compiled, BottleneckReport, SimConfig, SimProfile, Trace, TraceConfig};
use muir_workloads::Workload;

/// Everything `bench profile` produced for one workload.
pub struct ProfileArtifacts {
    /// Workload name.
    pub workload: &'static str,
    /// Cycles with tracing off.
    pub cycles_untraced: u64,
    /// Cycles with tracing on — must equal `cycles_untraced` exactly.
    pub cycles_traced: u64,
    /// Aggregated profile of the traced run.
    pub profile: SimProfile,
    /// Top-k critical resources with μopt suggestions.
    pub report: BottleneckReport,
    /// The raw trace (for exporting).
    pub trace: Trace,
    /// Instrumented dry-run of the paper's full μopt stack on this
    /// workload (per-pass wall time + graph deltas).
    pub pass_table: String,
    /// Cycles after applying that stack (what acting on the report buys).
    pub cycles_optimized: u64,
}

/// Profile `w`'s baseline accelerator: one untraced run (the timing
/// reference), one traced run (must match cycle-for-cycle), plus an
/// instrumented μopt dry-run for the "what next" comparison.
///
/// # Panics
/// Panics on simulation failure, or — the observability contract — if
/// tracing perturbed the cycle count.
pub fn profile_workload(w: &Workload) -> ProfileArtifacts {
    let name = w.name;
    let comp = sealed(w, &baseline(w));

    let mut mem = w.fresh_memory();
    let untraced = simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));

    let cfg = SimConfig {
        trace: TraceConfig::on(),
        ..SimConfig::default()
    };
    let mut mem = w.fresh_memory();
    let traced =
        simulate_compiled(&comp, &mut mem, &[], &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        untraced.cycles, traced.cycles,
        "{name}: tracing perturbed the simulation"
    );
    let profile = traced.profile.expect("tracing was enabled");
    let trace = traced.trace.expect("tracing was enabled");
    let report = profile.bottlenecks(5);

    let (opt_acc, pass_report) = optimized(w, &full_stack(w.class));
    let mut mem = w.fresh_memory();
    let opt = simulate_compiled(&sealed(w, &opt_acc), &mut mem, &[], &SimConfig::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));

    ProfileArtifacts {
        workload: name,
        cycles_untraced: untraced.cycles,
        cycles_traced: traced.cycles,
        profile,
        report,
        trace,
        pass_table: pass_report.render(),
        cycles_optimized: opt.cycles,
    }
}

/// What the validator checked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Trace events inspected.
    pub events: usize,
    /// Events per phase actually seen: (metadata, complete, counter).
    pub meta_events: usize,
    /// `ph:"X"` complete events.
    pub complete_events: usize,
    /// `ph:"C"` counter events.
    pub counter_events: usize,
}

/// Validate a Chrome trace JSON string against the checked-in schema
/// (itself JSON: `top_required` field→type for the top-level object and
/// `event_required` keyed by `ph`).
///
/// # Errors
/// The first schema violation, with enough context to locate the event.
pub fn validate_trace_json(trace: &str, schema: &str) -> Result<ValidationSummary, String> {
    let schema = json::parse(schema).map_err(|e| format!("schema is not valid JSON: {e}"))?;
    let trace = json::parse(trace).map_err(|e| format!("trace is not valid JSON: {e}"))?;

    let top_req = schema
        .get("top_required")
        .ok_or("schema missing `top_required`")?;
    check_fields(&trace, top_req, "trace")?;

    let ev_req = schema
        .get("event_required")
        .ok_or("schema missing `event_required`")?;
    // Optional category allow-list: when the schema carries `cat_allowed`,
    // every event's `cat` (if present) must be a member.
    let cat_allowed: Option<Vec<&str>> = match schema.get("cat_allowed") {
        Some(Json::Arr(cats)) => Some(
            cats.iter()
                .map(|c| c.as_str().ok_or("`cat_allowed` entries must be strings"))
                .collect::<Result<_, _>>()?,
        ),
        Some(_) => return Err("`cat_allowed` must be an array".to_string()),
        None => None,
    };
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        return Err("trace `traceEvents` is not an array".to_string());
    };
    let mut summary = ValidationSummary {
        events: events.len(),
        ..ValidationSummary::default()
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no string `ph`"))?;
        match ph {
            "M" => summary.meta_events += 1,
            "X" => summary.complete_events += 1,
            "C" => summary.counter_events += 1,
            _ => {}
        }
        let Some(required) = ev_req.get(ph) else {
            return Err(format!("event {i}: schema does not allow ph `{ph}`"));
        };
        check_fields(ev, required, format_args!("event {i} (ph {ph})"))?;
        if let (Some(allowed), Some(cat)) = (&cat_allowed, ev.get("cat").and_then(Json::as_str)) {
            if !allowed.contains(&cat) {
                return Err(format!("event {i}: cat `{cat}` not in `cat_allowed`"));
            }
        }
    }
    Ok(summary)
}

/// A hermetic trace for the schema gate: a 16-element vector-double loop,
/// simulated with tracing on. Small enough for a debug-build CI step.
///
/// # Panics
/// Panics if the tiny module fails to translate or simulate (would mean
/// the simulator itself is broken — CI should fail loudly).
pub fn golden_trace_json() -> String {
    use muir_frontend::{translate, FrontendConfig};
    use muir_mir::instr::ValueRef;
    use muir_mir::interp::Memory;
    use muir_mir::types::ScalarType;
    use muir_mir::{FunctionBuilder, Module};

    let mut m = Module::new("golden");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.add(v, v);
        b.store(a, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());

    let acc = translate(&m, &FrontendConfig::default()).expect("golden module translates");
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &[3; 16]);
    let cfg = SimConfig {
        trace: TraceConfig::on(),
        ..SimConfig::default()
    };
    let comp = CompiledAccel::compile(&acc).expect("golden module seals");
    let r = simulate_compiled(&comp, &mut mem, &[], &cfg).expect("golden module simulates");
    r.trace.expect("tracing was enabled").to_chrome_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_trace_validates_against_checked_in_schema() {
        let schema = include_str!("../../../scripts/trace_schema.json");
        let trace = golden_trace_json();
        let summary = validate_trace_json(&trace, schema).unwrap();
        assert!(summary.meta_events > 0, "{summary:?}");
        assert!(summary.complete_events > 0, "{summary:?}");
        assert!(summary.counter_events > 0, "{summary:?}");
    }

    #[test]
    fn gemm_profile_blames_the_memory_hotspot() {
        // The paper's running example: baseline GEMM is bound by its
        // single-banked cache, so the bottleneck report must rank that
        // structure first and point at the banking pass — and tracing must
        // not move the cycle count at all.
        let art = profile_workload(&muir_workloads::by_name("GEMM").unwrap());
        assert_eq!(art.cycles_traced, art.cycles_untraced);
        let top = art.report.entries.first().expect("a bottleneck is found");
        assert_eq!(top.kind, muir_sim::BottleneckKind::Structure, "{top:?}");
        assert!(top.name.contains("l1"), "{}", top.name);
        assert!(
            top.suggestion.contains("CacheBanking"),
            "{}",
            top.suggestion
        );
        assert!(
            art.cycles_optimized < art.cycles_untraced,
            "acting on the report helps: {} -> {}",
            art.cycles_untraced,
            art.cycles_optimized
        );
    }

    #[test]
    fn validator_rejects_wrong_shapes() {
        let schema = include_str!("../../../scripts/trace_schema.json");
        let e = validate_trace_json(r#"{"traceEvents":[]}"#, schema).unwrap_err();
        assert!(e.contains("trace missing `displayTimeUnit`"), "{e}");
        let e = validate_trace_json(
            r#"{"traceEvents":[{"ph":"Z"}],"displayTimeUnit":"ms","otherData":{}}"#,
            schema,
        )
        .unwrap_err();
        assert!(e.contains("does not allow ph"), "{e}");
        let e = validate_trace_json(
            r#"{"traceEvents":[{"ph":"M","name":"n","pid":"oops","args":{}}],"displayTimeUnit":"ms","otherData":{}}"#,
            schema,
        )
        .unwrap_err();
        assert!(e.contains("expected number"), "{e}");
    }
}
