//! The metric tables: what the benchmark reports, in which unit, which
//! way is better, and (end to end) by how much a metric may get worse
//! before a change counts as a regression. `BENCHMARK.json` at the
//! repository root carries the same rows; a unit test holds them equal.

/// The five workloads with the one-line reason each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sim-scalar",
        "muir-sim does ~all the work, on scalar tokens, over 8 sealed baseline registry programs; every other layer idles",
    ),
    (
        "sim-tensor",
        "same simulate call on Value::Tensor tokens (6 tensor programs + 10 seeded tensor graphs): where flat payloads must gain first",
    ),
    (
        "compile",
        "text to sealed artifact, cost and Chisel for 24 registry modules + 40 seeded graphs: parser, frontend, uopt, seal, rtl; no simulation",
    ),
    (
        "dse-cold",
        "dse::explore on 4 programs into an empty store: frontend + uopt + seal + cost + EvalService + store writes + simulate, the mixed path",
    ),
    (
        "service-warm",
        "240 jobs per round through EvalService on a filled store: store reads, hashing, dedup and coalescing; muir-sim does nothing",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Same names on every workload. All are host-side, so a fix to the
/// modelled cycle counts is never scored as a slowdown.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "items/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_ms_min",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_item",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The span whose per-round total this metric is (`ms`/`us` by unit).
    pub span: Option<&'static str>,
}

const fn timed(name: &'static str, unit: &'static str, span: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        span: Some(span),
    }
}

const fn other(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        span: None,
    }
}

/// Counts that must repeat exactly from round to round and run to run.
pub const EXACT_COUNTS: &[&str] = &[
    "sim.cycles",
    "sim.fires",
    "core.artifact_bytes",
    "core.uops",
    "rtl.chisel_bytes",
    "store.result_bytes",
    "dse.candidates",
    "dse.artifacts",
    "dse.front_points",
    "uopt.nodes_after",
    "uopt.edges_after",
];

/// The six passes of `best_stack`, in pipeline order.
pub const PASS_SPANS: [&str; 6] = [
    "uopt.task-queueing",
    "uopt.execution-tiling",
    "uopt.memory-localization",
    "uopt.scratchpad-banking",
    "uopt.cache-banking",
    "uopt.op-fusion",
];

/// Programs of the two simulate workloads that get their own
/// `sim.<P>.ns_per_fire` row (paper names; rows use the normalised form).
pub const SCALAR_PROGRAMS: [&str; 8] = [
    "GEMM", "COVAR", "FFT", "SPMV", "FIB", "M-SORT", "SAXPY", "STENCIL",
];
pub const TENSOR_PROGRAMS: [&str; 6] = [
    "ATTN", "CONVNET", "MT-INFER", "2MM[T]", "CONV[T]", "RELU[T]",
];

pub const PER_LAYER: &[Layer] = &[
    timed("workloads.build_ms", "ms", "workloads.build"),
    timed("mir.interp_ms", "ms", "mir.interp"),
    timed("mir.parse_us", "us", "mir.parse"),
    timed("frontend.tensor_parse_us", "us", "frontend.tensor_parse"),
    timed("frontend.tensor_lower_us", "us", "frontend.tensor_lower"),
    timed("frontend.translate_us", "us", "frontend.translate"),
    timed("uopt.pipeline_us", "us", "uopt.pipeline"),
    timed("core.seal_us", "us", "core.seal"),
    timed("rtl.cost_us", "us", "rtl.cost"),
    timed("uopt.task-queueing_us", "us", PASS_SPANS[0]),
    timed("uopt.execution-tiling_us", "us", PASS_SPANS[1]),
    timed("uopt.memory-localization_us", "us", PASS_SPANS[2]),
    timed("uopt.scratchpad-banking_us", "us", PASS_SPANS[3]),
    timed("uopt.cache-banking_us", "us", PASS_SPANS[4]),
    timed("uopt.op-fusion_us", "us", PASS_SPANS[5]),
    other("uopt.nodes_after", "count", Better::Lower),
    other("uopt.edges_after", "count", Better::Lower),
    timed("rtl.chisel_us", "us", "rtl.chisel"),
    other("rtl.chisel_bytes", "count", Better::Lower),
    other("core.artifact_bytes", "count", Better::Lower),
    other("core.uops", "count", Better::Lower),
    timed("core.content_hash_us", "us", "core.content_hash"),
    timed("sim.job_hash_us", "us", "sim.job_hash"),
    timed("sim.end_state_hash_us", "us", "sim.end_state_hash"),
    timed("store.key_us", "us", "store.key"),
    timed("sim.ms", "ms", "sim.run"),
    other("sim.ns_per_fire", "ns", Better::Lower),
    other("sim.cycles_per_s", "1/s", Better::Higher),
    other("sim.cycles", "count", Better::Lower),
    other("sim.fires", "count", Better::Lower),
    other("sim.GEMM.ns_per_fire", "ns", Better::Lower),
    other("sim.COVAR.ns_per_fire", "ns", Better::Lower),
    other("sim.FFT.ns_per_fire", "ns", Better::Lower),
    other("sim.SPMV.ns_per_fire", "ns", Better::Lower),
    other("sim.FIB.ns_per_fire", "ns", Better::Lower),
    other("sim.M-SORT.ns_per_fire", "ns", Better::Lower),
    other("sim.SAXPY.ns_per_fire", "ns", Better::Lower),
    other("sim.STENCIL.ns_per_fire", "ns", Better::Lower),
    other("sim.ATTN.ns_per_fire", "ns", Better::Lower),
    other("sim.CONVNET.ns_per_fire", "ns", Better::Lower),
    other("sim.MT-INFER.ns_per_fire", "ns", Better::Lower),
    other("sim.2MM_T.ns_per_fire", "ns", Better::Lower),
    other("sim.CONV_T.ns_per_fire", "ns", Better::Lower),
    other("sim.RELU_T.ns_per_fire", "ns", Better::Lower),
    timed("sim.batch_t1_ms", "ms", "sim.batch_t1"),
    timed("sim.batch_t2_ms", "ms", "sim.batch_t2"),
    timed("store.open_us", "us", "store.open"),
    timed("store.get_result_us", "us", "store.get_result"),
    timed("store.put_result_us", "us", "store.put_result"),
    timed("store.put_artifact_us", "us", "store.put_artifact"),
    other("store.result_bytes", "count", Better::Lower),
    timed("service.drain_ms", "ms", "service.drain"),
    other("service.job_us_p50", "us", Better::Lower),
    other("service.job_us_p95", "us", Better::Lower),
    other("service.overhead_us_per_job", "us", Better::Lower),
    other("service.from_store_share", "ratio", Better::Higher),
    other("service.coalesced_share", "ratio", Better::Higher),
    timed("dse.explore_ms", "ms", "dse.explore"),
    timed("dse.lower_ms", "ms", "dse.lower"),
    timed("dse.sim_ms", "ms", "dse.sim"),
    other("dse.self_ms", "ms", Better::Lower),
    other("dse.candidates", "count", Better::Higher),
    other("dse.artifacts", "count", Better::Lower),
    other("dse.front_points", "count", Better::Higher),
    other("bench.round_ms_p10", "ms", Better::Lower),
    other("bench.round_ms_p50", "ms", Better::Lower),
    other("bench.round_ms_p90", "ms", Better::Lower),
    other("bench.rounds", "count", Better::Higher),
    other("bench.trace_overhead_share", "ratio", Better::Lower),
];
