//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p muir-bench --bin experiments [all|fig1|table2|fig9|
//!     table3|fig11|fig12|fig15|fig16|fig17|fig18|table4|ablations|faults|
//!     --selftest|profile <workload> [outdir]|trace-schema [schema.json]|
//!     fuzz <graphs|tensor|mir> [N] [--seed S]|
//!     tensor <file>|--builtin <name>|--gate|
//!     dse [--workload W]...|--all [--seed S] [--budget N] [--threads T]
//!         [--out PATH] [--store DIR]|
//!     store-campaign [root]|metrics <workload> [outdir]|outcomes]
//! ```
//!
//! A number is hex after `0x`, decimal when it is all digits, and hex
//! otherwise. An unknown subcommand prints the usage line and exits 2.
//!
//! `faults` runs the differential fault-injection campaign (see
//! `muir_bench::campaign`); `--selftest` checks the campaign's determinism
//! and then chains into `scripts/check.sh` when present.
//!
//! `profile <workload>` runs the workload's baseline with the simulator's
//! observability layer on and writes `trace.json` (Chrome/Perfetto) and
//! `trace.vcd` next to a printed utilization/stall/bottleneck report;
//! `trace-schema` regenerates a golden trace and validates it against the
//! checked-in `scripts/trace_schema.json` (the CI exporter gate).
//!
//! `metrics <workload>` runs one instrumented capture through the eval
//! service — cold (dedup + compile + simulate + writeback), traced, warm
//! (store hit), and deadline-clipped (retry) — then writes a merged
//! service+sim Perfetto trace and a schema-validated metrics snapshot
//! (the telemetry CI gate), and prints each service's store and service
//! stats beside the snapshot's sim counters.

use muir_bench::{
    baseline, fig11_point, fig12_sweep, fig15_point, fig16_sweep, fig18_point, fig9_point,
    full_stack, localization_point, optimized, run_verified, verified_cycles,
};
use muir_core::stats::graph_stats;
use muir_rtl::circuit::{
    fusion_circuit_delta, lower_to_circuit, sram_circuit_delta, tiling_circuit_delta,
};
use muir_rtl::cost::{estimate, Tech};
use muir_uopt::passes::{ExecutionTiling, MemoryLocalization, OpFusion, TaskFilter};
use muir_uopt::PassManager;
use muir_workloads as workloads;
use muir_workloads::by_name;

const USAGE: &str = "usage: experiments [all|fig1|table2|fig9|table3|fig11|fig12|fig15|\
                     fig16|fig17|fig18|table4|ablations|faults|--selftest|profile|\
                     trace-schema|fuzz|tensor|dse|store-campaign|metrics|outcomes]";
const FUZZ_USAGE: &str = "usage: experiments fuzz <graphs|tensor|mir> [N] [--seed S]";
const DSE_USAGE: &str = "usage: experiments dse [--workload W]... | --all [--seed S] \
                         [--budget N] [--threads T] [--out PATH] [--store DIR]";

/// A number on the command line: hex after `0x`, otherwise decimal when it
/// is all digits and hex when it is not.
fn parse_num(v: &str) -> Result<u64, std::num::ParseIntError> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None if v.chars().all(|c| c.is_ascii_digit()) => v.parse(),
        None => u64::from_str_radix(v, 16),
    }
}

/// [`parse_num`] of `v`; a value that is not a number prints `usage` and
/// exits 2.
fn num_or_exit(v: &str, what: &str, usage: &str) -> u64 {
    parse_num(v).unwrap_or_else(|e| {
        eprintln!("bad {what} value `{v}`: {e}\n{usage}");
        std::process::exit(2);
    })
}

/// The number after `flag` in `rest`, if the flag and a value are there.
fn num_after(rest: &[String], flag: &str, usage: &str) -> Option<u64> {
    let v = rest.get(rest.iter().position(|a| a == flag)? + 1)?;
    Some(num_or_exit(v, flag, usage))
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let rest: Vec<String> = std::env::args().skip(2).collect();
    let arg = |i: usize| rest.get(i).cloned();
    match which.as_str() {
        "--selftest" => selftest(),
        "profile" => {
            let name = arg(0).unwrap_or_else(|| {
                eprintln!("usage: experiments profile <workload> [outdir]");
                std::process::exit(2);
            });
            let outdir =
                arg(1).unwrap_or_else(|| format!("target/profile/{}", name.to_lowercase()));
            profile(&name, &outdir);
        }
        "fuzz" => {
            let name = arg(0).unwrap_or_default();
            let (count, seed) = match name.as_str() {
                "graphs" => (200, 0xf022),
                "tensor" => (50, 0x7e50),
                "mir" => (20_000, 0x6d69),
                _ => {
                    eprintln!("{FUZZ_USAGE}");
                    std::process::exit(2);
                }
            };
            let count = match arg(1) {
                Some(n) if !n.starts_with("--") => num_or_exit(&n, "N", FUZZ_USAGE),
                _ => count,
            };
            fuzz(
                &name,
                num_after(&rest, "--seed", FUZZ_USAGE).unwrap_or(seed),
                count,
            );
        }
        "tensor" => tensor(&rest),
        "trace-schema" => {
            trace_schema(&arg(0).unwrap_or_else(|| "scripts/trace_schema.json".to_string()))
        }
        "outcomes" => {
            for line in muir_bench::sched::outcome_lines() {
                println!("{line}");
            }
        }
        "metrics" => {
            let name = arg(0).unwrap_or_else(|| {
                eprintln!("usage: experiments metrics <workload> [outdir]");
                std::process::exit(2);
            });
            let outdir =
                arg(1).unwrap_or_else(|| format!("target/metrics/{}", name.to_lowercase()));
            metrics(&name, &outdir);
        }
        "dse" => dse_args(&rest),
        "store-campaign" => {
            store_campaign(&arg(0).unwrap_or_else(|| "target/store-campaign".to_string()))
        }
        "all" => {
            table2();
            fig9();
            fig11();
            fig12();
            fig15();
            fig16();
            fig17();
            fig18();
            table4();
            fig1_table3();
            faults();
        }
        "table2" => table2(),
        "fig9" => fig9(),
        "fig11" => fig11(),
        "fig12" => fig12(),
        "fig15" => fig15(),
        "fig16" => fig16(),
        "fig17" => fig17(),
        "fig18" => fig18(),
        "table4" => table4(),
        "fig1" | "table3" => fig1_table3(),
        "ablations" => ablations(),
        "faults" => faults(),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// `tensor <file>|--builtin <name>|--gate`.
fn tensor(rest: &[String]) {
    if rest.iter().any(|a| a == "--gate") {
        tensor_gate();
        return;
    }
    let text = if let Some(p) = rest.iter().position(|a| a == "--builtin") {
        let name = rest.get(p + 1).unwrap_or_else(|| {
            eprintln!("usage: experiments tensor --builtin <attn|convnet|mt_infer>");
            std::process::exit(2);
        });
        workloads::tensorgraph::builtin_graph(name)
            .unwrap_or_else(|| {
                eprintln!("unknown builtin graph `{name}` (attn, convnet, mt_infer)");
                std::process::exit(2);
            })
            .to_string()
    } else if let Some(f) = rest.iter().find(|a| !a.starts_with("--")) {
        std::fs::read_to_string(f).unwrap_or_else(|e| {
            eprintln!("cannot read `{f}`: {e}");
            std::process::exit(2);
        })
    } else {
        eprintln!("usage: experiments tensor <file> | --builtin <name> | --gate");
        std::process::exit(2);
    };
    tensor_run(&text);
}

/// `dse [--workload W]...|--all [--seed S] [--budget N] [--threads T]
/// [--out PATH] [--store DIR]`.
fn dse_args(rest: &[String]) {
    let arg_after = |flag: &str| num_after(rest, flag, DSE_USAGE);
    let str_after = |flag: &str| {
        rest.iter()
            .position(|a| a == flag)
            .and_then(|p| rest.get(p + 1))
            .cloned()
    };
    let mut names: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        if rest[i] == "--workload" {
            if let Some(n) = rest.get(i + 1) {
                names.push(n.clone());
            }
            i += 1;
        }
        i += 1;
    }
    if rest.iter().any(|a| a == "--all") {
        names = workloads::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
    }
    if names.is_empty() {
        eprintln!("{DSE_USAGE}");
        std::process::exit(2);
    }
    let params = muir_bench::dse::DseParams {
        seed: arg_after("--seed").unwrap_or(0xd5e),
        budget: arg_after("--budget").unwrap_or(24),
        threads: arg_after("--threads").unwrap_or(1) as usize,
    };
    let out = str_after("--out").unwrap_or_else(|| "DSE_report.json".to_string());
    dse(&names, &params, str_after("--store").as_deref(), &out);
}

/// `dse [--workload W]...|--all [--seed S] [--budget N] [--threads T]
/// [--out PATH] [--store DIR]`: the seeded design-space-exploration
/// driver (ROADMAP item 3). Samples `budget` μopt configurations per
/// workload, evaluates them through the eval service (optionally backed
/// by the persistent store at `DIR`), and writes the schema-validated
/// `DSE_report.json` with a cycles-vs-area Pareto front per workload.
/// Exits non-zero on any schema or front-semantics violation. Same seed
/// and budget produce a byte-identical report at any `--threads` value
/// and any store temperature.
fn dse(names: &[String], params: &muir_bench::dse::DseParams, store: Option<&str>, out: &str) {
    use muir_bench::dse::{explore, report_json, validate_dse_json, DseStats};

    hdr(&format!(
        "Design-space exploration: seed {:#x}, budget {} / {} configs, {} thread(s){}",
        params.seed,
        params.budget,
        muir_uopt::config::PassSpace::full().size(),
        params.threads,
        store.map(|s| format!(", store {s}")).unwrap_or_default()
    ));
    let store_root = store.map(std::path::Path::new);
    let mut results = Vec::new();
    let mut totals = DseStats::default();
    println!(
        "{:>10} | {:>5} {:>5} {:>5} {:>5} | {:>5} | best (cycles, area)",
        "Bench", "cand", "arts", "hits", "sim", "front"
    );
    for name in names {
        let w = by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
        let (front, stats) = explore(&w, params, store_root);
        let best = front.front.first().copied().unwrap_or((0, 0));
        println!(
            "{:>10} | {:>5} {:>5} {:>5} {:>5} | {:>5} | ({}, {})",
            front.name,
            stats.candidates,
            stats.artifacts,
            stats.store_hits,
            stats.recomputed,
            front.front.len(),
            best.0,
            best.1
        );
        totals.candidates += stats.candidates;
        totals.artifacts += stats.artifacts;
        totals.store_hits += stats.store_hits;
        totals.recomputed += stats.recomputed;
        totals.store_warnings += stats.store_warnings;
        results.push(front);
    }
    let report = report_json(params, &results);
    std::fs::write(out, &report).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!(
        "\ntotals: {} candidates -> {} artifacts, {} store hits / {} simulated, \
         {} store warnings",
        totals.candidates,
        totals.artifacts,
        totals.store_hits,
        totals.recomputed,
        totals.store_warnings
    );
    match std::fs::read_to_string("scripts/dse_schema.json") {
        Ok(schema) => match validate_dse_json(&report, &schema) {
            Ok(s) => println!(
                "report: {} workloads, {} candidates, {} front points \
                 ({} non-trivial fronts) -> {out} [schema OK]",
                s.workloads, s.candidates, s.front_points, s.nontrivial_fronts
            ),
            Err(e) => {
                eprintln!("FAIL: report violates scripts/dse_schema.json: {e}");
                std::process::exit(1);
            }
        },
        Err(_) => {
            println!("report -> {out} (scripts/dse_schema.json not found; validation skipped)")
        }
    }
}

/// `metrics <workload> [outdir]`: one instrumented end-to-end capture
/// through the eval service. Writes `trace.json` (merged service+sim
/// Perfetto timeline) and `metrics.json` (registry snapshot), validates
/// both against the checked-in schemas (exits non-zero on violation),
/// prints each service's stats, the sim counters and the Prometheus
/// exposition, and measures the telemetry-disabled vs -enabled drain
/// overhead.
fn metrics(name: &str, outdir: &str) {
    use muir_bench::service::{EvalJob, EvalService, ServiceConfig};
    use muir_bench::telemetry_gate as gate;
    use muir_core::telemetry;
    use muir_store::Store;

    let Some(w) = by_name(name) else {
        eprintln!("unknown workload `{name}`");
        std::process::exit(2);
    };
    hdr(&format!(
        "Telemetry capture: {} through the eval service",
        w.name
    ));
    let outroot = std::path::Path::new(outdir);
    let _ = std::fs::remove_dir_all(outroot);
    std::fs::create_dir_all(outroot).unwrap_or_else(|e| panic!("create {outdir}: {e}"));

    let acc = baseline(&w);
    let plain = || EvalJob {
        cfg: muir_sim::SimConfig::default(),
        args: vec![],
        mem: w.fresh_memory(),
    };

    telemetry::set_enabled(true);
    telemetry::reset();

    // Cold drain: dedup (two identical jobs), a traced job for the merged
    // export, first-touch compile, batched simulation, store writeback.
    let comp = std::sync::Arc::new(muir_bench::sealed(&w, &acc));
    let store_root = outroot.join("store");
    let mut svc = EvalService::new(
        comp.clone(),
        Some(Store::open(&store_root)),
        ServiceConfig::default(),
    );
    svc.submit(plain());
    svc.submit(plain());
    let mut traced = plain();
    traced.cfg.trace = muir_sim::TraceConfig::on();
    let ti = svc.submit(traced);
    let cold = svc.drain();
    assert!(
        cold.iter().all(|o| o.outcome.is_ok()),
        "{name}: cold drain failed"
    );
    let trace = cold[ti].outcome.as_ref().expect("checked ok").trace.clone();

    // Warm drain: a fresh service over the same store serves from disk.
    let mut warm_svc = EvalService::new(
        comp.clone(),
        Some(Store::open(&store_root)),
        ServiceConfig::default(),
    );
    warm_svc.submit(plain());
    let warm = warm_svc.drain();
    assert!(warm[0].from_store, "{name}: warm drain must hit the store");

    // Deadline-clipped service: the tight budget forces a transient
    // `E-SIM-LIMIT` and the doubling retry recovers — retry spans.
    let tight = ServiceConfig {
        deadline_cycles: 4,
        ..ServiceConfig::default()
    };
    let mut clip_svc = EvalService::new(comp, None, tight);
    clip_svc.submit(plain());
    let clipped = clip_svc.drain();
    assert!(clipped[0].outcome.is_ok(), "{name}: retry must recover");

    // Merged Perfetto export: service spans above the sim's event tracks.
    let spans = telemetry::spans();
    let merged = gate::merged_chrome_json(&spans, trace.as_ref());
    let trace_path = outroot.join("trace.json");
    std::fs::write(&trace_path, &merged).unwrap_or_else(|e| panic!("write trace.json: {e}"));
    match std::fs::read_to_string("scripts/trace_schema.json") {
        Ok(schema) => match muir_bench::profile::validate_trace_json(&merged, &schema) {
            Ok(s) => println!(
                "merged trace: {} events ({} service spans) -> {} [schema OK]",
                s.events,
                spans.len(),
                trace_path.display()
            ),
            Err(e) => {
                eprintln!("FAIL: merged trace violates scripts/trace_schema.json: {e}");
                std::process::exit(1);
            }
        },
        Err(_) => println!(
            "merged trace -> {} (scripts/trace_schema.json not found; validation skipped)",
            trace_path.display()
        ),
    }
    for s in &spans {
        println!(
            "  span [{}] {:<20} depth {} +{:>7}us {:>7}us  {}",
            s.cat, s.name, s.depth, s.start_us, s.dur_us, s.detail
        );
    }

    // Snapshot: add each drained service's stats structs into the
    // registry, write the JSON exposition, and gate it on the schema.
    let services = [("cold", &svc), ("warm", &warm_svc), ("clipped", &clip_svc)];
    for (_, s) in services {
        gate::record_stats(Some(&s.store_stats()), Some(&s.stats()));
    }
    let snap = telemetry::snapshot();
    let json = snap.to_json();
    let metrics_path = outroot.join("metrics.json");
    std::fs::write(&metrics_path, &json).unwrap_or_else(|e| panic!("write metrics.json: {e}"));
    match std::fs::read_to_string("scripts/metrics_schema.json") {
        Ok(schema) => match gate::validate_metrics_json(&json, &schema) {
            Ok(s) => println!(
                "metrics snapshot: {} counters, {} gauges, {} histograms -> {} [schema OK]",
                s.counters,
                s.gauges,
                s.histograms,
                metrics_path.display()
            ),
            Err(e) => {
                eprintln!("FAIL: metrics snapshot violates scripts/metrics_schema.json: {e}");
                std::process::exit(1);
            }
        },
        Err(_) => println!(
            "metrics snapshot -> {} (scripts/metrics_schema.json not found; validation skipped)",
            metrics_path.display()
        ),
    }

    hdr("Stats (per service; the snapshot's counters are their sums)");
    for (tag, s) in services {
        println!("[{tag}]\n{}\n{}", s.store_stats(), s.stats());
    }
    let c = |name: &str| snap.counter(name);
    println!(
        "sim: {} runs, {} cycles, {} fires, {} cache hits / {} misses, \
         {} bank conflicts, {} dram fills",
        c("sim.runs"),
        c("sim.cycles"),
        c("sim.fires"),
        c("sim.cache_hits"),
        c("sim.cache_misses"),
        c("sim.bank_conflicts"),
        c("sim.dram_fills"),
    );

    hdr("Prometheus exposition");
    print!("{}", snap.to_prometheus());

    // Overhead: the wall-clock side of the zero-perturbation contract
    // (the bit-identity side is pinned by the determinism guard test).
    hdr("Telemetry overhead (cold drain, fresh store, mean of 3)");
    let run_cold = |tag: &str| -> f64 {
        let comp = std::sync::Arc::new(muir_bench::sealed(&w, &acc));
        let dir = outroot.join(format!("store-{tag}"));
        let mut svc = EvalService::new(comp, Some(Store::open(&dir)), ServiceConfig::default());
        svc.submit(plain());
        let t0 = std::time::Instant::now();
        let out = svc.drain();
        assert!(out[0].outcome.is_ok());
        t0.elapsed().as_secs_f64() * 1e3
    };
    telemetry::set_enabled(false);
    let off_ms: f64 = (0..3).map(|i| run_cold(&format!("off{i}"))).sum::<f64>() / 3.0;
    telemetry::set_enabled(true);
    let on_ms: f64 = (0..3).map(|i| run_cold(&format!("on{i}"))).sum::<f64>() / 3.0;
    telemetry::set_enabled(false);
    println!(
        "disabled {off_ms:.2} ms / enabled {on_ms:.2} ms per cold drain ({:+.1}%)",
        100.0 * (on_ms - off_ms) / off_ms.max(1e-9)
    );
}

/// `store-campaign [root]`: the storage fault-injection campaign (see
/// `muir_bench::store_campaign`). Exits non-zero unless every injected
/// fault class surfaced typed and every end state matched the fault-free
/// cold run.
fn store_campaign(root: &str) {
    hdr("Storage fault campaign: injected faults vs fault-free cold truth");
    let root = std::path::Path::new(root);
    let _ = std::fs::remove_dir_all(root);
    let report = muir_bench::store_campaign::run_store_campaign(root);
    print!("{report}");
    if !report.all_pass() {
        eprintln!("FAIL: storage fault campaign");
        std::process::exit(1);
    }
}

/// Differential fault campaign: 3 workloads × 6 fault classes × 3 seeded
/// replicas, each cross-checked against the reference interpreter.
fn faults() {
    hdr("Fault campaign: seeded single-event injection vs muir-mir reference");
    let report = muir_bench::campaign::default_campaign();
    print!("{report}");
}

/// Robustness self-test: the campaign must be byte-for-byte reproducible
/// and must never let a corrupted completion go unflagged. Chains into
/// `scripts/check.sh` (fmt/clippy/tier-1) when the script is present.
fn selftest() {
    hdr("Selftest: fault-campaign determinism");
    let wl = ["SAXPY", "GEMM"];
    let classes = [
        muir_sim::FaultClass::TokenDrop,
        muir_sim::FaultClass::TokenBitFlip,
        muir_sim::FaultClass::MemEcc,
        muir_sim::FaultClass::DramTimeout,
    ];
    let a = muir_bench::campaign::run_campaign(&wl, &classes, 2, 1);
    let b = muir_bench::campaign::run_campaign(&wl, &classes, 2, 1);
    assert_eq!(a, b, "campaign is not deterministic");
    assert_eq!(a.unflagged_corruptions(), 0, "unflagged silent corruption");
    print!("{a}");
    println!(
        "determinism: OK ({} cases reproduced exactly)",
        a.cases.len()
    );

    let script = std::path::Path::new("scripts/check.sh");
    if script.exists() {
        hdr("Selftest: scripts/check.sh");
        let status = std::process::Command::new("sh")
            .arg(script)
            .status()
            .expect("failed to launch scripts/check.sh");
        assert!(status.success(), "scripts/check.sh failed: {status}");
    } else {
        println!(
            "(scripts/check.sh not found from {:?}; skipped)",
            std::env::current_dir().ok()
        );
    }
    println!("selftest: OK");
}

fn hdr(title: &str) {
    println!("\n=== {title} ===");
}

/// `profile <workload> [outdir]`: trace the baseline accelerator, write the
/// Chrome/Perfetto + VCD artifacts, and print the bottleneck report.
fn profile(name: &str, outdir: &str) {
    let art = muir_bench::profile::profile_workload(name);
    hdr(&format!("Profile: {} (baseline accelerator)", art.workload));
    println!(
        "cycles: {} untraced / {} traced (perturbation: {})",
        art.cycles_untraced,
        art.cycles_traced,
        art.cycles_traced as i64 - art.cycles_untraced as i64
    );
    print!("{}", art.profile.render());
    print!("{}", art.report);
    hdr("μopt dry-run: what acting on the suggestions buys");
    print!("{}", art.pass_table);
    let speedup = art.cycles_untraced as f64 / art.cycles_optimized as f64;
    println!(
        "full stack: {} -> {} cycles ({speedup:.2}x)",
        art.cycles_untraced, art.cycles_optimized
    );

    let dir = std::path::Path::new(outdir);
    std::fs::create_dir_all(dir).expect("create profile output directory");
    let json_path = dir.join("trace.json");
    let vcd_path = dir.join("trace.vcd");
    std::fs::write(&json_path, art.trace.to_chrome_json()).expect("write trace.json");
    std::fs::write(&vcd_path, art.trace.to_vcd()).expect("write trace.vcd");
    println!(
        "\nwrote {} and {} ({} events recorded, {} dropped)",
        json_path.display(),
        vcd_path.display(),
        art.profile.events_recorded,
        art.profile.events_dropped
    );
    println!("open trace.json in ui.perfetto.dev or chrome://tracing; trace.vcd in gtkwave");
}

/// `fuzz <graphs|tensor|mir> [N] [--seed S]`: N cases of one
/// `muir_bench::testgen` target. `graphs` and `tensor` hold every seeded
/// graph's sealed tables to the reference lowering, then Ready to the
/// Dense oracle in plain, traced and faulted legs, and the fault-free legs
/// to the interpreter (`tensor` also to the graph evaluator). `mir` runs
/// line mutations of the printed registry through parse -> verify ->
/// translate, where each stage may refuse a case with its typed error.
/// A failure or a panic prints the shrunk case's repro line and exits 1.
fn fuzz(name: &str, seed: u64, count: u64) {
    let target = muir_bench::testgen::target(name).expect("a fuzz target");
    hdr(&format!("Fuzz {name}: {count} cases (seed 0x{seed:x})"));
    match muir_bench::testgen::fuzz(target, seed, count) {
        Ok(reached) => {
            let tally: String = target
                .stages
                .iter()
                .zip(&reached)
                .map(|(stage, n)| format!(", {n} {stage}"))
                .collect();
            println!("fuzz {name}: {count} cases{tally}");
        }
        Err(e) => {
            eprintln!("fuzz failure: {e}");
            std::process::exit(1);
        }
    }
}

/// `tensor <file>|--builtin <name>`: the tensor front door. Parse a
/// tensor-op graph, lower it through the frontend into a verified
/// accelerator, seal and simulate it, and check the result against both
/// independent references — the graph-level evaluator and the mir
/// interpreter on the lowered module.
fn tensor_run(text: &str) {
    use muir_frontend::tensor::{TensorGraph, TensorLowerConfig};

    let g = match TensorGraph::parse(text) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    hdr(&format!(
        "Tensor graph: {} (content hash {:016x})",
        g.name,
        g.content_hash()
    ));
    for i in &g.inputs {
        println!("  input  {:<8} {}", i.name, i.dims);
    }
    for n in &g.nodes {
        println!(
            "  node   %{:<7} {:<8} -> {}",
            n.name,
            n.op.mnemonic(),
            n.dims
        );
    }
    let low = match g.lower(&TensorLowerConfig::default()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "lowered: {} memory objects, {} relu(s) fused into producers",
        low.inputs.len() + 1,
        low.fused_relus
    );

    let w = match workloads::tensorgraph::from_text("TENSOR", text, 0x7e50) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let r = run_verified(&w, &muir_bench::sealed(&w, &baseline(&w))); // sim vs mir reference interpreter
    let inputs: Vec<Vec<f32>> = w
        .inits
        .iter()
        .map(|(_, d)| match d {
            workloads::InitData::F32(v) => v.clone(),
            workloads::InitData::I64(_) => unreachable!("tensor graphs are f32"),
        })
        .collect();
    let want = g.eval(&inputs).expect("graph eval");
    let got = w.run_reference().expect("reference").read_f32(w.outputs[0]);
    assert_eq!(want.len(), got.len(), "output length mismatch");
    for (k, (x, y)) in want.iter().zip(&got).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= 1e-4 * scale,
            "graph eval vs lowered module diverge at element {k}: {x} vs {y}"
        );
    }
    println!(
        "verified: sim == mir reference == graph evaluator ({} output elements)",
        got.len()
    );
    println!("cycles: {} (default config, sealed artifact)", r.cycles);
}

/// `tensor --gate`: the `scripts/check.sh` tensor-lowering differential
/// gate, over GEMM- and CONV-shaped graphs on the hand-built workloads'
/// own inputs:
///
/// 1. **Bit-identity** — the text-parsed graph and the API-built graph
///    must agree exactly: content hash, lowered-module text, simulated
///    cycles, and end-state hash (output bits).
/// 2. **Numerics** — the frontend-lowered accelerator must reproduce the
///    hand-built GEMM/CONV workloads' reference results (1e-4 relative;
///    the two lowerings order their f32 reductions differently).
fn tensor_gate() {
    use muir_frontend::tensor::{
        Dims, GraphInput, GraphNode, GraphOp, GraphRef, TensorGraph, TensorLowerConfig,
    };
    use muir_workloads::{InitData, Prng};

    hdr("Tensor-lowering gate: frontend-lowered vs hand-built GEMM / CONV");

    let gate_one =
        |tag: &str, text: &str, api: &TensorGraph, inits: Vec<Vec<f32>>, want: &[f32]| {
            let parsed = TensorGraph::parse(text).unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(
                parsed.content_hash(),
                api.content_hash(),
                "{tag}: parse-built and API-built graphs hash differently"
            );
            let cfg = TensorLowerConfig::default();
            let run = |g: &TensorGraph| {
                let low = g.lower(&cfg).unwrap_or_else(|e| panic!("{tag}: {e}"));
                let module_text = muir_mir::printer::print_module(&low.module);
                let w = workloads::Workload {
                    name: "TENSOR-GATE",
                    class: workloads::Class::TensorGraph,
                    fp: true,
                    tensor: true,
                    inits: low
                        .inputs
                        .iter()
                        .zip(&inits)
                        .map(|(o, v)| (*o, InitData::F32(v.clone())))
                        .collect(),
                    outputs: vec![low.output],
                    module: low.module,
                };
                let comp = muir_bench::sealed(&w, &baseline(&w));
                let mut mem = w.fresh_memory();
                let cfg = muir_sim::SimConfig::default();
                let r = muir_sim::simulate_compiled(&comp, &mut mem, &[], &cfg)
                    .unwrap_or_else(|e| panic!("{tag}: {e}"));
                let out = mem.read_f32(w.outputs[0]);
                let mut h = muir_core::ContentHasher::new();
                for v in &out {
                    h.push(&v.to_bits().to_le_bytes());
                }
                (module_text, r.cycles, h.finish(), out)
            };
            let (mt_p, cy_p, hash_p, out) = run(&parsed);
            let (mt_a, cy_a, hash_a, _) = run(api);
            assert_eq!(mt_p, mt_a, "{tag}: lowered modules differ (parse vs API)");
            assert_eq!(cy_p, cy_a, "{tag}: cycles differ (parse vs API)");
            assert_eq!(
                hash_p, hash_a,
                "{tag}: end-state hashes differ (parse vs API)"
            );
            assert_eq!(out.len(), want.len(), "{tag}: output length");
            for (k, (x, y)) in out.iter().zip(want).enumerate() {
                let scale = x.abs().max(y.abs()).max(1.0);
                assert!(
                    (x - y).abs() <= 1e-4 * scale,
                    "{tag}: element {k} diverges from the hand-built reference: {x} vs {y}"
                );
            }
            println!(
                "{tag:>8}: {} cycles, end-state {hash_p:016x} — parse == API bit-identical, \
             numerics match hand-built reference ({} elements)",
                cy_p,
                out.len()
            );
        };

    // GEMM: 32x32 matmul on the hand-built GEMM workload's inputs (seed 11).
    let gemm_text = "graph gemm32\n\
                     input a : f32[32,32]\n\
                     input b : f32[32,32]\n\
                     %c = matmul a, b\n\
                     output %c\n";
    let gemm_api = TensorGraph::build(
        "gemm32",
        vec![
            GraphInput {
                name: "a".into(),
                dims: Dims::new(32, 32),
            },
            GraphInput {
                name: "b".into(),
                dims: Dims::new(32, 32),
            },
        ],
        vec![GraphNode {
            name: "c".into(),
            op: GraphOp::MatMul,
            args: vec![GraphRef::Input(0), GraphRef::Input(1)],
            dims: Dims::new(1, 1),
        }],
        0,
    )
    .expect("API GEMM graph builds");
    let mut rng = Prng::new(11);
    let ia = rng.f32_vec(32 * 32);
    let ib = rng.f32_vec(32 * 32);
    let gemm_want = workloads::polybench::gemm_reference(&ia, &ib, 32);
    gate_one("GEMM", gemm_text, &gemm_api, vec![ia, ib], &gemm_want);

    // CONV: 28x28 (x) 3x3 valid conv on the hand-built CONV inputs (seed 47).
    let conv_text = "graph conv28\n\
                     input img : f32[28,28]\n\
                     input k : f32[3,3]\n\
                     %c = conv img, k\n\
                     output %c\n";
    let conv_api = TensorGraph::build(
        "conv28",
        vec![
            GraphInput {
                name: "img".into(),
                dims: Dims::new(28, 28),
            },
            GraphInput {
                name: "k".into(),
                dims: Dims::new(3, 3),
            },
        ],
        vec![GraphNode {
            name: "c".into(),
            op: GraphOp::Conv,
            args: vec![GraphRef::Input(0), GraphRef::Input(1)],
            dims: Dims::new(1, 1),
        }],
        0,
    )
    .expect("API CONV graph builds");
    let mut rng = Prng::new(47);
    let iin = rng.f32_vec(28 * 28);
    let ik = rng.f32_vec(9);
    let conv_want = workloads::tensorflow::conv_reference(&iin, &ik, 28, 26);
    gate_one("CONV", conv_text, &conv_api, vec![iin, ik], &conv_want);

    println!("tensor-lowering gate: OK");
}

/// `trace-schema [schema.json]`: CI gate — regenerate a golden trace and
/// validate the exporter's output shape against the checked-in schema.
fn trace_schema(schema_path: &str) {
    hdr("Trace-schema validation (golden trace vs checked-in schema)");
    let schema = std::fs::read_to_string(schema_path)
        .unwrap_or_else(|e| panic!("cannot read schema `{schema_path}`: {e}"));
    let trace = muir_bench::profile::golden_trace_json();
    match muir_bench::profile::validate_trace_json(&trace, &schema) {
        Ok(s) => println!(
            "OK: {} events ({} metadata, {} complete, {} counter) conform to {schema_path}",
            s.events, s.meta_events, s.complete_events, s.counter_events
        ),
        Err(e) => {
            eprintln!("trace schema violation: {e}");
            std::process::exit(1);
        }
    }
}

/// Table 2: baseline synthesis quality on FPGA and ASIC.
fn table2() {
    hdr("Table 2: Synthesizing baseline muIR (FPGA Arria-10-class / ASIC 28nm-class)");
    println!(
        "{:>10} | {:>5} {:>6} {:>7} {:>7} {:>4} | {:>7} {:>6} {:>5}",
        "Bench", "MHz", "mW", "ALMs", "Regs", "DSP", "mm2", "mW", "GHz"
    );
    for w in workloads::all() {
        let acc = baseline(&w);
        let comp = muir_bench::sealed(&w, &acc);
        let f = estimate(&comp, Tech::FpgaArria10);
        let a = estimate(&comp, Tech::Asic28);
        println!(
            "{:>10} | {:>5.0} {:>6.0} {:>7} {:>7} {:>4} | {:>7.2} {:>6.0} {:>5.2}",
            w.name,
            f.fmax_mhz,
            f.power_mw,
            f.alms,
            f.regs,
            f.dsps,
            a.area_mm2,
            a.power_mw,
            a.fmax_mhz / 1000.0
        );
    }
}

/// Figure 9: baseline μIR vs HLS (normalized execution, HLS = 1).
fn fig9() {
    hdr("Figure 9: muIR vs HLS normalized execution time (HLS = 1; < 1 means muIR wins)");
    let names = [
        "GEMM", "COVAR", "FFT", "SPMV", "2MM", "3MM", "CONV", "DENSE8", "DENSE16", "SOFTM8",
        "SOFTM16",
    ];
    for name in names {
        let w = by_name(name).unwrap();
        let (uir, hls) = fig9_point(&w);
        println!(
            "{:>10}: {:.3}   (uir {:.1} us, hls {:.1} us)",
            name,
            uir / hls,
            uir,
            hls
        );
    }
}

/// Figure 11: op-fusion speedups.
fn fig11() {
    hdr("Figure 11: execution-time reduction from op-fusion (baseline = 1)");
    for name in ["FFT", "SPMV", "COVAR", "SAXPY", "RGB2YUV"] {
        let w = by_name(name).unwrap();
        let (base, opt) = fig11_point(&w);
        println!(
            "{:>10}: {:.3}   ({} -> {} cycles, {:.2}x)",
            name,
            opt as f64 / base as f64,
            base,
            opt,
            base as f64 / opt as f64
        );
    }
}

/// Figure 12: execution tiling sweep on the Cilk benchmarks.
fn fig12() {
    hdr("Figure 12: normalized execution vs execution tiles (1T = 1)");
    println!(
        "{:>10}: {:>6} {:>6} {:>6} {:>6}",
        "Bench", "1T", "2T", "4T", "8T"
    );
    for name in ["STENCIL", "SAXPY", "IMG-SCALE", "FIB", "M-SORT"] {
        let w = by_name(name).unwrap();
        let sweep = fig12_sweep(&w);
        let c1 = sweep[0].1 as f64;
        print!("{name:>10}:");
        for (_, c) in &sweep {
            print!(" {:>6.3}", *c as f64 / c1);
        }
        let best = sweep.iter().map(|(_, c)| *c).min().unwrap();
        println!("   (max speedup {:.2}x)", c1 / best as f64);
    }
}

/// Figure 15: tensor higher-order ops vs scalar pipelines.
fn fig15() {
    hdr("Figure 15: tensor ops vs scalar baseline (baseline = 1)");
    for pair in muir_workloads::inhouse::tensor_pairs() {
        let (tensor, scalar) = fig15_point(&pair);
        println!(
            "{:>10}: {:.3}   (scalar {} -> tensor {} cycles, {:.2}x)",
            pair.0.name,
            tensor as f64 / scalar as f64,
            scalar,
            tensor,
            scalar as f64 / tensor as f64
        );
    }
    println!("  -- lane-lowering ablation (same graph, scalar lanes) --");
    for name in ["RELU[T]", "2MM[T]", "CONV[T]"] {
        let w = by_name(name).unwrap();
        let (native, lowered) = muir_bench::fig15_lowering_ablation(&w);
        println!(
            "{:>10}: tensor {} vs lane-lowered {} cycles ({:.2}x)",
            name,
            native,
            lowered,
            lowered as f64 / native as f64
        );
    }
}

/// Figure 16: cache banking sweep.
fn fig16() {
    hdr("Figure 16: normalized execution vs cache banks (1B = 1)");
    println!("{:>10}: {:>6} {:>6} {:>6}", "Bench", "1B", "2B", "4B");
    for name in ["GEMM", "FFT", "2MM", "3MM", "SAXPY", "CONV"] {
        let w = by_name(name).unwrap();
        let sweep = fig16_sweep(&w);
        let c1 = sweep[0].1 as f64;
        print!("{name:>10}:");
        for (_, c) in &sweep {
            print!(" {:>6.3}", *c as f64 / c1);
        }
        println!();
    }
}

/// Figure 17: stacked optimizations.
fn fig17() {
    hdr("Figure 17: stacked muopt passes, normalized execution (baseline = 1)");
    let names = [
        "SAXPY",
        "STENCIL",
        "IMG-SCALE",
        "GEMM",
        "COVAR",
        "FFT",
        "SPMV",
        "2MM",
        "3MM",
        "CONV",
        "DENSE8",
        "DENSE16",
        "SOFTM8",
        "SOFTM16",
    ];
    for name in names {
        let w = by_name(name).unwrap();
        let base = verified_cycles(&w, &baseline(&w));
        let (opt_acc, _) = optimized(&w, &full_stack(w.class));
        let opt = verified_cycles(&w, &opt_acc);
        println!(
            "{:>10}: {:.3}   ({} -> {} cycles, {:.2}x)",
            name,
            opt as f64 / base as f64,
            base,
            opt,
            base as f64 / opt as f64
        );
    }
}

/// Figure 18: optimized μIR accelerators vs an ARM-A9-class CPU at 1 GHz.
fn fig18() {
    hdr("Figure 18: speedup over ARM-A9-class CPU (CPU = 1; > 1 means muIR wins)");
    let names = [
        "GEMM",
        "COVAR",
        "FFT",
        "SPMV",
        "2MM",
        "3MM",
        "IMG-SCALE",
        "RELU",
        "2MM[T]",
        "CONV[T]",
    ];
    for name in names {
        let w = by_name(name).unwrap();
        let (acc_us, cpu_us) = fig18_point(&w);
        println!(
            "{:>10}: {:>6.2}x   (accel {:.1} us vs cpu {:.1} us)",
            name,
            cpu_us / acc_us,
            acc_us,
            cpu_us
        );
    }
}

/// Table 4: conciseness of μIR vs FIRRTL for three transformations.
fn table4() {
    hdr("Table 4: muIR vs FIRRTL-level deltas (nodes/edges touched)");
    println!(
        "{:>10} | {:>16} | {:>16} | {:>16} | {:>6}",
        "Bench", "tile 1->2 (u|F)", "add SRAM (u|F)", "fusion (u|F)", "size x"
    );
    for name in ["SAXPY", "STENCIL", "IMG-SCALE"] {
        let w = by_name(name).unwrap();
        let acc = baseline(&w);

        // muIR deltas from the actual passes.
        let mut t_acc = acc.clone();
        let tile_rep = PassManager::new()
            .with(ExecutionTiling {
                tiles: 2,
                filter: TaskFilter::Spawned,
            })
            .run(&mut t_acc)
            .unwrap();
        let tile_u = tile_rep.total();

        let mut l_acc = acc.clone();
        let sram_rep = PassManager::new()
            .with(MemoryLocalization::default())
            .run(&mut l_acc)
            .unwrap();
        // Per-SRAM cost: divide by the number of scratchpads created.
        let srams_added = l_acc
            .structures
            .len()
            .saturating_sub(acc.structures.len())
            .max(1);
        let sram_u = (
            sram_rep.total().nodes.div_ceil(srams_added),
            sram_rep.total().edges.div_ceil(srams_added),
        );

        let mut f_acc = acc.clone();
        let fuse_rep = PassManager::new()
            .with(OpFusion::default())
            .run(&mut f_acc)
            .unwrap();
        let fuse_u = fuse_rep.total();

        // FIRRTL-level equivalents.
        let spawned = acc
            .task_ids()
            .find(|&t| {
                acc.tasks.iter().any(|task| {
                    task.dataflow.nodes.iter().any(|n| {
                        matches!(n.kind,
                            muir_core::node::NodeKind::TaskCall { callee, spawn: true, .. }
                            if callee == t)
                    })
                })
            })
            .unwrap_or(acc.root);
        let tile_f = tiling_circuit_delta(&acc, spawned);
        let obj = acc
            .structures
            .iter()
            .flat_map(|s| s.objects.iter())
            .next()
            .copied();
        let sram_f = sram_circuit_delta(&acc, obj.unwrap_or(muir_mir::instr::MemObjId(0)));
        let fuse_f = fusion_circuit_delta(&f_acc);

        let ratio = lower_to_circuit(&acc).total_elements() as f64
            / graph_stats(&acc).total_elements() as f64;
        println!(
            "{:>10} | {:>3}/{:<3} {:>4}/{:<4} | {:>3}/{:<3} {:>4}/{:<4} | {:>3}/{:<3} {:>4}/{:<4} | {:>5.1}x",
            name,
            tile_u.nodes,
            tile_u.edges,
            tile_f.0,
            tile_f.1,
            sram_u.0,
            sram_u.1,
            sram_f.0,
            sram_f.1,
            fuse_u.nodes,
            fuse_u.edges,
            fuse_f.0,
            fuse_f.1,
            ratio
        );
    }
}

/// Figure 1's headline plot + Table 3's summary.
fn fig1_table3() {
    hdr("Figure 1 / Table 3: headline per-pass improvements");
    // Op fusion: best of the fusion set.
    let fuse_best = ["FFT", "SPMV", "COVAR", "SAXPY", "RGB2YUV"]
        .iter()
        .map(|n| {
            let w = by_name(n).unwrap();
            let (b, o) = fig11_point(&w);
            b as f64 / o as f64
        })
        .fold(0.0f64, f64::max);
    println!("Op fusion        (paper 1.4x): {fuse_best:.2}x");

    let tile_best = ["STENCIL", "IMG-SCALE", "FIB", "M-SORT"]
        .iter()
        .map(|n| {
            let w = by_name(n).unwrap();
            let sweep = fig12_sweep(&w);
            sweep[0].1 as f64 / sweep.iter().map(|(_, c)| *c).min().unwrap() as f64
        })
        .fold(0.0f64, f64::max);
    println!("Task tiling      (paper 6.0x): {tile_best:.2}x");

    let tensor_best = muir_workloads::inhouse::tensor_pairs()
        .iter()
        .map(|pair| {
            let (tensor, scalar) = fig15_point(pair);
            scalar as f64 / tensor as f64
        })
        .fold(0.0f64, f64::max);
    println!("Tensor intrinsic (paper 8.5x): {tensor_best:.2}x");

    let local_best = ["SPMV", "CONV", "SAXPY", "COVAR"]
        .iter()
        .map(|n| {
            let w = by_name(n).unwrap();
            let (b, o) = localization_point(&w);
            b as f64 / o as f64
        })
        .fold(0.0f64, f64::max);
    println!("Locality         (paper 1.5x): {local_best:.2}x");
}

/// Ablations beyond the paper (DESIGN.md §6).
fn ablations() {
    hdr("Ablation: <||> queue depth (Pass 1), Cilk benchmarks");
    println!("(finding: flat — the baseline's elastic pipelined connections already");
    println!(" provide the decoupling Pass 1 adds explicitly; spawns complete at");
    println!(" enqueue, so parents rarely block on child queues at these rates)");
    for name in ["SAXPY", "M-SORT"] {
        let w = by_name(name).unwrap();
        let sweep = muir_bench::ablation_queue_depth(&w, &[1, 2, 4, 8, 16]);
        print!("{name:>10}:");
        for (d, c) in sweep {
            print!("  q{d}={c}");
        }
        println!();
    }
    hdr("Ablation: fusion clock-period budget (cycles @ fmax)");
    for name in ["RGB2YUV", "COVAR"] {
        let w = by_name(name).unwrap();
        print!("{name:>10}:");
        for (p, c, f) in muir_bench::ablation_fusion_period(&w, &[1.5, 2.5, 4.0, 8.0]) {
            print!("  {p}ns:{c}cy@{f:.0}MHz");
        }
        println!();
    }
    hdr("Ablation: scratchpad banking after localization");
    for name in ["FFT", "STENCIL", "RELU[T]"] {
        let w = by_name(name).unwrap();
        print!("{name:>10}:");
        for (b, c) in muir_bench::ablation_spad_banking(&w, &[1, 2, 4, 8]) {
            print!("  {b}B={c}");
        }
        println!();
    }
    hdr("Ablation: databox entries x elastic channel depth");
    for name in ["SPMV", "CONV"] {
        let w = by_name(name).unwrap();
        print!("{name:>10}:");
        for (d, e, c) in
            muir_bench::ablation_sim_buffers(&w, &[(1, 1), (2, 2), (4, 4), (8, 8), (16, 16)])
        {
            print!("  d{d}e{e}={c}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::parse_num;

    #[test]
    fn a_0x_prefix_always_means_hex() {
        assert_eq!(parse_num("0x1234"), Ok(0x1234));
        assert_eq!(parse_num("0x10"), Ok(16));
        assert_eq!(parse_num("ff"), Ok(255));
        assert_eq!(parse_num("16"), Ok(16));
        assert!(parse_num("0xfg").is_err());
        assert!(parse_num("12g").is_err());
        assert!(parse_num("").is_err());
    }
}
