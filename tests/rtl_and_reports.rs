//! Integration tests for Stage 3 artefacts across all 21 benchmarks:
//! Chisel emission, textual/GraphViz dumps, FIRRTL-level lowering, and the
//! synthesis cost model — plus the §5.2 pipeline-depth observation, and
//! the JSON reports: the one writer/parser pair round-trips any string,
//! and each schema gate accepts its golden document and rejects a broken
//! one through the shared required-fields checker.

use muir::bench::dse::{report_json, validate_dse_json, Candidate, DseParams, WorkloadFront};
use muir::bench::profile::{golden_trace_json, validate_trace_json};
use muir::bench::telemetry_gate::validate_metrics_json;
use muir::core::json::{self, Json, Writer};
use muir::core::printer::print_accelerator;
use muir::core::rng::SplitMix64;
use muir::core::stats::{graph_stats, pipeline_depth};
use muir::core::telemetry::{HistSnapshot, Snapshot};
use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::rtl::circuit::lower_to_circuit;
use muir::rtl::cost::{estimate, Tech};
use muir::rtl::emit_chisel;
use muir::workloads;

#[test]
fn chisel_emits_for_every_workload() {
    for w in workloads::all() {
        let acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let src = emit_chisel(&CompiledAccel::compile(&acc).unwrap());
        assert!(src.contains("extends architecture"), "{}", w.name);
        // One TaskModule class per task block.
        let classes = src.matches("extends TaskModule").count();
        assert_eq!(classes, acc.tasks.len(), "{}", w.name);
        // Every structure is instantiated.
        for si in 0..acc.structures.len() {
            assert!(
                src.contains(&format!("hw_mem_{si}")),
                "{}: missing structure",
                w.name
            );
        }
        // Every `<||>` connection appears (one wiring line per connection).
        assert_eq!(
            src.matches(".io.task <||>").count(),
            acc.task_conns.len(),
            "{}",
            w.name
        );
    }
}

#[test]
fn text_and_dot_dumps_cover_every_workload() {
    for w in workloads::all() {
        let acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let text = print_accelerator(&acc);
        assert!(text.contains(&format!("accelerator \"{}\"", w.module.name)));
        let nodes: usize = acc.tasks.iter().map(|t| t.dataflow.nodes.len()).sum();
        // One line per node.
        assert_eq!(text.matches(" = ").count(), nodes, "{}", w.name);
        let dot = muir::core::dot::to_dot(&acc);
        assert!(dot.starts_with("digraph"), "{}", w.name);
        assert_eq!(
            dot.matches("subgraph cluster_").count(),
            acc.tasks.len(),
            "{}",
            w.name
        );
    }
}

#[test]
fn firrtl_lowering_ratio_in_paper_band() {
    // Paper Table 4: FIRRTL graphs are 8.4–12.4× the μIR graph. Allow a
    // wider tolerance band but require a substantial, bounded blowup.
    for w in workloads::all() {
        let acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let circ = lower_to_circuit(&acc).total_elements() as f64;
        let uir = graph_stats(&acc).total_elements() as f64;
        let ratio = circ / uir;
        assert!((3.0..30.0).contains(&ratio), "{}: ratio {ratio}", w.name);
    }
}

#[test]
fn cost_model_is_sane_for_every_workload() {
    for w in workloads::all() {
        let acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let comp = CompiledAccel::compile(&acc).unwrap();
        let f = estimate(&comp, Tech::FpgaArria10);
        let a = estimate(&comp, Tech::Asic28);
        assert!(
            f.fmax_mhz >= 150.0 && f.fmax_mhz <= 500.0,
            "{}: {f:?}",
            w.name
        );
        assert!(
            f.power_mw > 300.0 && f.power_mw < 3000.0,
            "{}: {f:?}",
            w.name
        );
        assert!(a.fmax_mhz > f.fmax_mhz, "{}: asic slower than fpga", w.name);
        assert!(
            a.power_mw < f.power_mw,
            "{}: asic power exceeds fpga",
            w.name
        );
        assert!(a.area_mm2 > 0.0, "{}", w.name);
        if w.fp {
            assert!(a.fmax_mhz <= 1661.0, "{}: FP cap violated", w.name);
        }
        if w.tensor && w.name != "RELU[T]" {
            // MatMul/Conv tensor units are DSP arrays (Figure 14); the
            // ReLU tile unit is pure LUT logic.
            assert!(f.dsps >= 4, "{}: tensor units should map to DSPs", w.name);
        }
    }
}

#[test]
fn pipeline_depths_match_section_5_2() {
    // §5.2: "the µIR's pipeline depth is 30 (2MM) — 40 (GEMM) stages; even
    // workloads with few loops such as Dense8 have 15 stages." Our depths
    // land in the same tens-of-stages regime.
    let mut checked = 0;
    for name in ["GEMM", "2MM", "DENSE8", "FFT", "COVAR"] {
        let w = workloads::by_name(name).unwrap();
        let acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let depth = acc
            .tasks
            .iter()
            .map(|t| pipeline_depth(&t.dataflow))
            .max()
            .unwrap_or(0);
        assert!((10..=80).contains(&depth), "{name}: depth {depth}");
        checked += 1;
    }
    assert_eq!(checked, 5);
}

#[test]
fn table2_relative_trends_hold() {
    // Cilk designs clock lower than loop-nest designs (§5.1).
    let cilk = workloads::by_name("SAXPY").unwrap();
    let poly = workloads::by_name("GEMM").unwrap();
    let seal = |w: &muir::workloads::Workload| {
        CompiledAccel::compile(&translate(&w.module, &FrontendConfig::default()).unwrap()).unwrap()
    };
    let f_cilk = estimate(&seal(&cilk), Tech::FpgaArria10);
    let f_poly = estimate(&seal(&poly), Tech::FpgaArria10);
    assert!(f_cilk.fmax_mhz < f_poly.fmax_mhz);
    // Compute-dense STENCIL outweighs tiny RELU in area.
    let stencil = workloads::by_name("STENCIL").unwrap();
    let relu = workloads::by_name("RELU").unwrap();
    let a_stencil = estimate(&seal(&stencil), Tech::FpgaArria10);
    let a_relu = estimate(&seal(&relu), Tech::FpgaArria10);
    assert!(a_stencil.alms > 3 * a_relu.alms);
}

/// A name no exporter may mangle: DEL (Rust's `{:?}` renders it `\u{7f}`,
/// which is not JSON), a quote, a backslash and a newline.
const HOSTILE_NAME: &str = "W\u{7f}\"\\\n";

#[test]
fn any_string_survives_write_then_parse() {
    let mut rng = SplitMix64::new(0x15_0e5c);
    for case in 0..1000 {
        let s: String = (0..rng.below(24))
            .map(|_| match rng.below(8) {
                0 => '"',
                1 => '\\',
                2 => char::from_u32(rng.below(0x20) as u32).unwrap(),
                3 => char::from_u32(0x1_0000 + rng.below(0x10_0000) as u32).unwrap(),
                4 => ['\u{7f}', '\u{2028}', '\u{fffd}', '/'][rng.below(4) as usize],
                // Uniform over all scalars; a surrogate draw has no char.
                _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('u'),
            })
            .collect();
        let mut w = Writer::new();
        w.obj().key(&s).str(&s).end();
        let text = w.finish();
        assert_eq!(
            json::parse(&text),
            Ok(Json::Obj(vec![(s.clone(), Json::Str(s.clone()))])),
            "case {case}: {s:?} written as {text}"
        );
    }
}

#[test]
fn schema_gates_accept_their_golden_and_reject_a_broken_one() {
    let snapshot = Snapshot {
        counters: vec![(HOSTILE_NAME.to_string(), 3)],
        gauges: vec![("g".to_string(), 0)],
        histograms: vec![HistSnapshot {
            name: "h".to_string(),
            bounds: vec![1, 10],
            counts: vec![2, 0, 1],
            sum: 14,
            count: 3,
        }],
    };
    let point = |cycles, area_score, dominated| Candidate {
        index: cycles,
        config: muir::uopt::config::PassConfig::baseline(),
        config_hash: 1,
        artifact: 2,
        cycles,
        area_score,
        fmax_mhz: 250.0,
        power_mw: 12.5,
        end_state: 3,
        dominated,
    };
    let front = WorkloadFront {
        name: HOSTILE_NAME.to_string(),
        candidates: vec![point(10, 5, false), point(20, 9, true)],
        front: vec![(10, 5)],
    };
    let report = report_json(&DseParams::default(), &[front]);
    // The hostile name reads back as written.
    let parsed = json::parse(&report).expect("report_json emits JSON");
    let Some(Json::Arr(ws)) = parsed.get("workloads") else {
        panic!("no workloads in {report}")
    };
    assert_eq!(ws[0].get("name").and_then(Json::as_str), Some(HOSTILE_NAME));

    type Validate = fn(&str, &str) -> Result<(), String>;
    // (golden document, schema, validator, a required field and its type)
    let gates: [(String, &str, Validate, &str, &str); 3] = [
        (
            golden_trace_json(),
            include_str!("../scripts/trace_schema.json"),
            |d, s| validate_trace_json(d, s).map(drop),
            "dur",
            "number",
        ),
        (
            snapshot.to_json(),
            include_str!("../scripts/metrics_schema.json"),
            |d, s| validate_metrics_json(d, s).map(drop),
            "sum",
            "number",
        ),
        (
            report,
            include_str!("../scripts/dse_schema.json"),
            |d, s| validate_dse_json(d, s).map(drop),
            "fmax_mhz",
            "number",
        ),
    ];
    for (golden, schema, validate, field, ty) in gates {
        assert_eq!(validate(&golden, schema), Ok(()), "golden for `{field}`");
        // The document loses the field (its key is renamed) ...
        let quoted = format!("\"{field}\"");
        assert!(golden.contains(&quoted), "golden has no `{field}`");
        let broken = golden.replacen(&quoted, &format!("\"{field}_\""), 1);
        let e = validate(&broken, schema).unwrap_err();
        assert!(e.ends_with(&format!("missing `{field}`")), "{e}");
        // ... or the schema asks for another type than the one written.
        let entry = format!("\"{field}\": \"{ty}\"");
        assert!(schema.contains(&entry), "schema has no `{entry}`");
        let other = schema.replacen(&entry, &format!("\"{field}\": \"null\""), 1);
        let e = validate(&golden, &other).unwrap_err();
        assert!(
            e.ends_with(&format!("`{field}`: expected null, got {ty}")),
            "{e}"
        );
    }
}
