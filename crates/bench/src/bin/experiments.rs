//! Regenerate every table and figure of the paper's evaluation, and run
//! the harness's gates: `experiments [COMMAND [ARGS]]`, `all` by default.
//!
//! [`COMMANDS`] is the list of subcommands with their arguments; the usage
//! text, the dispatch and `all`'s figure order all read it. An unknown
//! subcommand prints the usage text and exits 2.
//!
//! A `--flag` takes the next argument as its value unless that one is a
//! flag too; the other arguments are positionals. A number is hex after
//! `0x`, decimal when it is all digits, and hex otherwise. A workload is a
//! registry name in any case. A missing or malformed argument prints the
//! command's usage and exits 2.

use muir_bench::campaign::{default_campaign, run_campaign};
use muir_bench::{
    baseline, cache_banking, fig18_point, fig9_point, full_stack, fusion, lane_lowering,
    tensor_units, tiling, Lab,
};
use muir_core::stats::graph_stats;
use muir_rtl::circuit::{
    fusion_circuit_delta, lower_to_circuit, sram_circuit_delta, tiling_circuit_delta,
};
use muir_rtl::cost::{estimate, Tech};
use muir_sim::SimConfig;
use muir_uopt::passes::{
    ExecutionTiling, MemoryLocalization, OpFusion, ScratchpadBanking, TaskQueueing,
};
use muir_uopt::PassManager;
use muir_workloads::{self as workloads, Workload, REGISTRY};

/// One subcommand: its name, its argument synopsis, whether `all` runs it
/// (in table order), and what it does.
struct Command {
    name: &'static str,
    args: &'static str,
    in_all: bool,
    run: Runner,
}

/// What a command does, given the invocation's context and its arguments.
type Runner = fn(&mut Cx, &Args);

/// A [`COMMANDS`] row.
const fn cmd(name: &'static str, args: &'static str, in_all: bool, run: Runner) -> Command {
    Command {
        name,
        args,
        in_all,
        run,
    }
}

const COMMANDS: &[Command] = &[
    cmd("all", "", false, all),
    cmd("table2", "", true, table2),
    cmd("fig9", "", true, fig9),
    cmd("fig11", "", true, fig11),
    cmd("fig12", "", true, fig12),
    cmd("fig15", "", true, fig15),
    cmd("fig16", "", true, fig16),
    cmd("fig17", "", true, fig17),
    cmd("fig18", "", true, fig18),
    cmd("table4", "", true, table4),
    cmd("fig1", "", true, fig1_table3),
    cmd("table3", "", false, fig1_table3),
    cmd("faults", "", true, faults),
    cmd("ablations", "", false, ablations),
    cmd("--selftest", "", false, selftest),
    cmd("profile", "<workload> [outdir]", false, profile),
    cmd("trace-schema", "[schema.json]", false, trace_schema),
    cmd("fuzz", "<graphs|tensor|mir> [N] [--seed S]", false, fuzz),
    cmd(
        "tensor",
        "<file> | --builtin <attn|convnet|mt_infer> | --gate",
        false,
        tensor,
    ),
    cmd(
        "dse",
        "[--workload W]... | --all [--seed S] [--budget N] [--threads T] [--out PATH] \
         [--store DIR]",
        false,
        dse,
    ),
    cmd("store-campaign", "[root]", false, store_campaign),
    cmd("metrics", "<workload> [outdir]", false, metrics),
    cmd("outcomes", "", false, outcomes),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_else(|| "all".to_string());
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let args = Args {
        cmd,
        list: argv.collect(),
    };
    (cmd.run)(&mut Cx::default(), &args);
}

/// `experiments` followed by the command and its synopsis.
fn synopsis(c: &Command) -> String {
    format!("experiments {} {}", c.name, c.args)
        .trim_end()
        .to_string()
}

/// The usage text: one line per command, in table order.
fn usage() -> String {
    COMMANDS.iter().fold(
        "usage (the default command is `all`):".to_string(),
        |u, c| u + "\n  " + &synopsis(c),
    )
}

/// A number on the command line: hex after `0x`, otherwise decimal when it
/// is all digits and hex when it is not.
fn parse_num(v: &str) -> Result<u64, std::num::ParseIntError> {
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None if v.chars().all(|c| c.is_ascii_digit()) => v.parse(),
        None => u64::from_str_radix(v, 16),
    }
}

/// The registry workload named `name`, in any case.
fn lookup(name: &str) -> Result<Workload, String> {
    match REGISTRY.iter().find(|e| e.name.eq_ignore_ascii_case(name)) {
        Some(e) => Ok((e.build)()),
        None => {
            let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
            Err(format!(
                "unknown workload `{name}` (the registry has {})",
                names.join(", ")
            ))
        }
    }
}

/// One command's arguments.
struct Args {
    cmd: &'static Command,
    list: Vec<String>,
}

impl Args {
    /// Positional `i`: the `i`-th argument that is neither a flag nor a
    /// flag's value.
    fn pos(&self, i: usize) -> Option<&str> {
        let l = &self.list;
        let flag = |j: usize| l[j].starts_with("--");
        (0..l.len())
            .filter(|&j| !flag(j) && (j == 0 || !flag(j - 1)))
            .nth(i)
            .map(|j| l[j].as_str())
    }

    /// Positional `i`, which the command needs.
    fn required(&self, i: usize) -> &str {
        self.pos(i).unwrap_or_else(|| self.fail(""))
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.list.iter().any(|a| a == flag)
    }

    /// The values given to `flag`, in order.
    fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.list
            .windows(2)
            .filter(move |p| p[0] == flag && !p[1].starts_with("--"))
            .map(|p| p[1].as_str())
    }

    /// The first value given to `flag`.
    fn value<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.values(flag).next()
    }

    /// The number given to `flag`.
    fn num(&self, flag: &str) -> Option<u64> {
        self.value(flag).map(|v| self.number(v, flag))
    }

    /// `v`, the value of `what`, as a number.
    fn number(&self, v: &str, what: &str) -> u64 {
        parse_num(v).unwrap_or_else(|e| self.fail(&format!("bad {what} value `{v}`: {e}")))
    }

    /// The registry workload named `name` ([`lookup`]).
    fn workload(&self, name: &str) -> Workload {
        lookup(name).unwrap_or_else(|e| self.fail(&e))
    }

    /// Print `msg` and the command's usage, and exit 2.
    fn fail(&self, msg: &str) -> ! {
        if !msg.is_empty() {
            eprintln!("{msg}");
        }
        eprintln!("usage: {}", synopsis(self.cmd));
        std::process::exit(2);
    }
}

/// What the commands of one invocation share: the benches, each built
/// once, and the rows of the three figures Figure 1/Table 3 summarises.
#[derive(Default)]
struct Cx {
    lab: Lab,
    /// Figure 11: `(workload, baseline cycles, fused cycles)`.
    fusion: Option<Vec<(&'static str, u64, u64)>>,
    /// Figure 12: `(workload, cycles at each of TILES)`.
    tiling: Option<Vec<(&'static str, Vec<u64>)>>,
    /// Figure 15: `(workload, tensor cycles, scalar cycles)`.
    tensor: Option<Vec<(&'static str, u64, u64)>>,
}

/// Figure 12's tile counts.
const TILES: [u32; 4] = [1, 2, 4, 8];

/// The Figure 12 workloads that Table 3's tiling headline leaves out.
/// SAXPY: the paper's SAXPY turns memory-bound after 2 tiles, while ours
/// keeps its inputs in localized scratchpads and scales until the parent's
/// one-spawn-per-cycle rate (EXPERIMENTS.md, Figure 12). Its 7.89x would be
/// a deviation's number in a headline.
const TILING_HEADLINE_OMITS: &[&str] = &["SAXPY"];

impl Cx {
    /// Figure 11's rows, computed once.
    fn fusion(&mut self) -> &[(&'static str, u64, u64)] {
        let lab = &mut self.lab;
        self.fusion.get_or_insert_with(|| {
            ["FFT", "SPMV", "COVAR", "SAXPY", "RGB2YUV"]
                .into_iter()
                .map(|name| {
                    let b = lab.named(name);
                    (name, b.cycles(&PassManager::new()), b.cycles(&fusion()))
                })
                .collect()
        })
    }

    /// Figure 12's rows, computed once.
    fn tiling(&mut self) -> &[(&'static str, Vec<u64>)] {
        let lab = &mut self.lab;
        self.tiling.get_or_insert_with(|| {
            ["STENCIL", "SAXPY", "IMG-SCALE", "FIB", "M-SORT"]
                .into_iter()
                .map(|name| {
                    let b = lab.named(name);
                    (name, TILES.map(|t| b.cycles(&tiling(t))).to_vec())
                })
                .collect()
        })
    }

    /// Figure 15's rows, computed once. The baseline is the paper's: the
    /// same computation written without tensor intrinsics ("implements the
    /// operation through the pipeline"), so the tensor variant's wins come
    /// from compute density, the widened operand network and the fused
    /// higher-order pipeline (§6.3).
    fn tensor(&mut self) -> &[(&'static str, u64, u64)] {
        let lab = &mut self.lab;
        self.tensor.get_or_insert_with(|| {
            let pm = tensor_units();
            workloads::inhouse::tensor_pairs()
                .into_iter()
                .map(|(t, s)| {
                    let name = t.name;
                    (name, lab.bench(t).cycles(&pm), lab.bench(s).cycles(&pm))
                })
                .collect()
        })
    }
}

/// Every command the table marks for `all`, in table order, over one lab.
fn all(cx: &mut Cx, a: &Args) {
    for c in COMMANDS.iter().filter(|c| c.in_all) {
        (c.run)(cx, a);
    }
}

fn outcomes(_: &mut Cx, _: &Args) {
    for line in muir_bench::sched::outcome_lines() {
        println!("{line}");
    }
}

/// `tensor <file> | --builtin <name> | --gate`.
fn tensor(cx: &mut Cx, a: &Args) {
    if a.has("--gate") {
        return tensor_gate();
    }
    let text = if a.has("--builtin") {
        let name = a.value("--builtin").unwrap_or_else(|| a.fail(""));
        workloads::tensorgraph::builtin_graph(name)
            .unwrap_or_else(|| a.fail(&format!("unknown builtin graph `{name}`")))
            .to_string()
    } else {
        let f = a.required(0);
        std::fs::read_to_string(f).unwrap_or_else(|e| a.fail(&format!("cannot read `{f}`: {e}")))
    };
    tensor_run(cx, &text);
}

/// `dse`: the seeded design-space exploration (ROADMAP item 3).
/// Samples `budget` μopt configurations per workload, evaluates them
/// through the eval service (optionally backed by the persistent store at
/// `DIR`), and writes the schema-validated `DSE_report.json` with a
/// cycles-vs-area Pareto front per workload. Exits non-zero on any schema
/// or front-semantics violation. Same seed and budget produce a
/// byte-identical report at any `--threads` value and any store
/// temperature.
fn dse(_: &mut Cx, a: &Args) {
    use muir_bench::dse::{explore, report_json, validate_dse_json, DseParams, DseStats};

    let ws: Vec<Workload> = if a.has("--all") {
        workloads::all()
    } else {
        a.values("--workload").map(|n| a.workload(n)).collect()
    };
    if ws.is_empty() {
        a.fail("");
    }
    let params = DseParams {
        seed: a.num("--seed").unwrap_or(0xd5e),
        budget: a.num("--budget").unwrap_or(24),
        threads: a.num("--threads").unwrap_or(1) as usize,
    };
    let store = a.value("--store");
    let out = a.value("--out").unwrap_or("DSE_report.json");
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
    for w in &ws {
        let (front, stats) = explore(w, &params, store_root);
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
    let report = report_json(&params, &results);
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
    validate("report", "dse_schema.json", out, |schema| {
        validate_dse_json(&report, schema).map(|s| {
            format!(
                "{} workloads, {} candidates, {} front points ({} non-trivial fronts)",
                s.workloads, s.candidates, s.front_points, s.nontrivial_fronts
            )
        })
    });
}

/// Check `what`, written to `path`, against `scripts/<schema>` with
/// `check`, which returns a summary: print it, or exit 1 on a violation.
/// Without the schema file, say that validation was skipped.
fn validate<E: std::fmt::Display>(
    what: &str,
    schema: &str,
    path: impl std::fmt::Display,
    check: impl FnOnce(&str) -> Result<String, E>,
) {
    let file = format!("scripts/{schema}");
    match std::fs::read_to_string(&file) {
        Ok(schema) => match check(&schema) {
            Ok(summary) => println!("{what}: {summary} -> {path} [schema OK]"),
            Err(e) => {
                eprintln!("FAIL: {what} violates {file}: {e}");
                std::process::exit(1);
            }
        },
        Err(_) => println!("{what} -> {path} ({file} not found; validation skipped)"),
    }
}

/// `metrics`: one instrumented end-to-end capture through the eval
/// service. Writes `trace.json` (merged service+sim
/// Perfetto timeline) and `metrics.json` (registry snapshot), validates
/// both against the checked-in schemas (exits non-zero on violation),
/// prints each service's stats, the sim counters and the Prometheus
/// exposition, and measures the telemetry-disabled vs -enabled drain
/// overhead.
fn metrics(_: &mut Cx, a: &Args) {
    use muir_bench::service::{EvalJob, EvalService, ServiceConfig};
    use muir_bench::telemetry_gate as gate;
    use muir_core::telemetry;
    use muir_store::Store;

    let w = a.workload(a.required(0));
    let name = w.name;
    let outdir = a.pos(1).map_or_else(
        || format!("target/metrics/{}", name.to_lowercase()),
        str::to_string,
    );
    hdr(&format!(
        "Telemetry capture: {name} through the eval service"
    ));
    let outroot = std::path::Path::new(&outdir);
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
    let service = |comp, dir: &std::path::Path| {
        EvalService::new(comp, Some(Store::open(dir)), ServiceConfig::default())
    };
    let store_root = outroot.join("store");
    let mut svc = service(comp.clone(), &store_root);
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
    let mut warm_svc = service(comp, &store_root);
    warm_svc.submit(plain());
    let warm = warm_svc.drain();
    assert!(warm[0].from_store, "{name}: warm drain must hit the store");

    // Merged Perfetto export: service spans above the sim's event tracks.
    let spans = telemetry::spans();
    let merged = gate::merged_chrome_json(&spans, trace.as_ref());
    let trace_path = outroot.join("trace.json");
    std::fs::write(&trace_path, &merged).unwrap_or_else(|e| panic!("write trace.json: {e}"));
    validate(
        "merged trace",
        "trace_schema.json",
        trace_path.display(),
        |schema| {
            muir_bench::profile::validate_trace_json(&merged, schema)
                .map(|s| format!("{} events ({} service spans)", s.events, spans.len()))
        },
    );
    for s in &spans {
        println!(
            "  span [{}] {:<20} depth {} +{:>7}us {:>7}us  {}",
            s.cat, s.name, s.depth, s.start_us, s.dur_us, s.detail
        );
    }

    // Snapshot: add each drained service's stats structs into the
    // registry, write the JSON exposition, and gate it on the schema.
    let services = [("cold", &svc), ("warm", &warm_svc)];
    for (_, s) in services {
        gate::record_stats(Some(&s.store_stats()), Some(&s.stats()));
    }
    let snap = telemetry::snapshot();
    let json = snap.to_json();
    let metrics_path = outroot.join("metrics.json");
    std::fs::write(&metrics_path, &json).unwrap_or_else(|e| panic!("write metrics.json: {e}"));
    validate(
        "metrics snapshot",
        "metrics_schema.json",
        metrics_path.display(),
        |schema| {
            gate::validate_metrics_json(&json, schema).map(|s| {
                format!(
                    "{} counters, {} gauges, {} histograms",
                    s.counters, s.gauges, s.histograms
                )
            })
        },
    );

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
        let mut svc = service(comp, &outroot.join(format!("store-{tag}")));
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

/// `store-campaign`: the storage fault-injection campaign (see
/// `muir_bench::store_campaign`). Exits non-zero unless every injected
/// fault class surfaced typed and every end state matched the fault-free
/// cold run.
fn store_campaign(_: &mut Cx, a: &Args) {
    hdr("Storage fault campaign: injected faults vs fault-free cold truth");
    let root = std::path::Path::new(a.pos(0).unwrap_or("target/store-campaign"));
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
fn faults(cx: &mut Cx, _: &Args) {
    hdr("Fault campaign: seeded single-event injection vs muir-mir reference");
    print!("{}", default_campaign(&mut cx.lab));
}

/// Robustness self-test: the campaign must be byte-for-byte reproducible
/// and must never let a corrupted completion go unflagged. Chains into
/// `scripts/check.sh` (fmt/clippy/tier-1) when the script is present.
fn selftest(_: &mut Cx, _: &Args) {
    hdr("Selftest: fault-campaign determinism");
    let wl = ["SAXPY", "GEMM"];
    use muir_sim::FaultClass as F;
    let classes = [F::TokenDrop, F::TokenBitFlip, F::MemEcc, F::DramTimeout];
    // Each run on its own lab, so the second re-derives the baselines and
    // references too.
    let a = run_campaign(&mut Lab::default(), &wl, &classes, 2, 1);
    let b = run_campaign(&mut Lab::default(), &wl, &classes, 2, 1);
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

/// `profile`: trace the baseline accelerator, write the Chrome/Perfetto +
/// VCD artifacts, and print the bottleneck report.
fn profile(_: &mut Cx, a: &Args) {
    let w = a.workload(a.required(0));
    let outdir = a.pos(1).map_or_else(
        || format!("target/profile/{}", w.name.to_lowercase()),
        str::to_string,
    );
    let art = muir_bench::profile::profile_workload(&w);
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

    let dir = std::path::Path::new(&outdir);
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

/// `fuzz`: N cases of one `muir_bench::testgen` target. `graphs` and
/// `tensor` hold every seeded graph's sealed tables to the reference
/// lowering, then Ready to the Dense oracle in plain, traced and faulted
/// legs, and the fault-free legs to the interpreter (`tensor` also to the
/// graph evaluator). `mir` runs line mutations of the printed registry
/// through parse -> verify -> translate, where each stage may refuse a
/// case with its typed error.
/// A failure or a panic prints the shrunk case's repro line and exits 1.
fn fuzz(_: &mut Cx, a: &Args) {
    let name = a.pos(0).unwrap_or_default();
    let (count, seed) = match name {
        "graphs" => (200, 0xf022),
        "tensor" => (50, 0x7e50),
        "mir" => (20_000, 0x6d69),
        _ => a.fail(""),
    };
    let count = a.pos(1).map_or(count, |n| a.number(n, "N"));
    let seed = a.num("--seed").unwrap_or(seed);
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

/// The tensor front door: parse a tensor-op graph, lower it through the
/// frontend into a verified accelerator, seal and simulate it, and check
/// the result against both independent references — the graph-level
/// evaluator and the mir interpreter on the lowered module.
fn tensor_run(cx: &mut Cx, text: &str) {
    use muir_frontend::tensor::{TensorGraph, TensorLowerConfig};

    let g = or_exit(TensorGraph::parse(text));
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
    let low = or_exit(g.lower(&TensorLowerConfig::default()));
    println!(
        "lowered: {} memory objects, {} relu(s) fused into producers",
        low.inputs.len() + 1,
        low.fused_relus
    );

    let b = cx.lab.bench(or_exit(workloads::tensorgraph::from_text(
        "TENSOR", text, 0x7e50,
    )));
    let r = b.check(&b.seal(&PassManager::new()), &SimConfig::default()); // sim vs mir reference
    let inputs: Vec<Vec<f32>> =
        b.w.inits
            .iter()
            .map(|(_, d)| match d {
                workloads::InitData::F32(v) => v.clone(),
                workloads::InitData::I64(_) => unreachable!("tensor graphs are f32"),
            })
            .collect();
    let want = g.eval(&inputs).expect("graph eval");
    let got = b.reference.read_f32(b.w.outputs[0]);
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

/// `r`'s value, or its error printed and exit 1.
fn or_exit<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
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
    // The API-built twin of a graph `%c = op <input 0>, <input 1>`.
    let api = |name: &str, inputs: [(&str, usize, usize); 2], op: GraphOp| {
        let inputs = inputs.map(|(name, rows, cols)| GraphInput {
            name: name.into(),
            dims: Dims::new(rows, cols),
        });
        let node = GraphNode {
            name: "c".into(),
            op,
            args: vec![GraphRef::Input(0), GraphRef::Input(1)],
            dims: Dims::new(1, 1),
        };
        TensorGraph::build(name, inputs.into(), vec![node], 0).expect("API graph builds")
    };

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
    let gemm_api = api("gemm32", [("a", 32, 32), ("b", 32, 32)], GraphOp::MatMul);
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
    let conv_api = api("conv28", [("img", 28, 28), ("k", 3, 3)], GraphOp::Conv);
    let mut rng = Prng::new(47);
    let iin = rng.f32_vec(28 * 28);
    let ik = rng.f32_vec(9);
    let conv_want = workloads::tensorflow::conv_reference(&iin, &ik, 28, 26);
    gate_one("CONV", conv_text, &conv_api, vec![iin, ik], &conv_want);

    println!("tensor-lowering gate: OK");
}

/// `trace-schema`: CI gate — regenerate a golden trace and validate the
/// exporter's output shape against the checked-in schema.
fn trace_schema(_: &mut Cx, a: &Args) {
    let schema_path = a.pos(0).unwrap_or("scripts/trace_schema.json");
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
fn table2(_: &mut Cx, _: &Args) {
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
fn fig9(cx: &mut Cx, _: &Args) {
    hdr("Figure 9: muIR vs HLS normalized execution time (HLS = 1; < 1 means muIR wins)");
    let names = [
        "GEMM", "COVAR", "FFT", "SPMV", "2MM", "3MM", "CONV", "DENSE8", "DENSE16", "SOFTM8",
        "SOFTM16",
    ];
    for name in names {
        let (uir, hls) = fig9_point(&cx.lab.named(name));
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
fn fig11(cx: &mut Cx, _: &Args) {
    hdr("Figure 11: execution-time reduction from op-fusion (baseline = 1)");
    for &(name, base, opt) in cx.fusion() {
        speedup_row(name, base, opt);
    }
}

/// One row of Figures 11 and 17: `opt`'s cycles against `base`'s.
fn speedup_row(name: &str, base: u64, opt: u64) {
    let (b, o) = (base as f64, opt as f64);
    println!(
        "{name:>10}: {:.3}   ({base} -> {opt} cycles, {:.2}x)",
        o / b,
        b / o
    );
}

/// Figure 12: execution tiling sweep on the Cilk benchmarks.
fn fig12(cx: &mut Cx, _: &Args) {
    hdr("Figure 12: normalized execution vs execution tiles (1T = 1)");
    println!(
        "{:>10}: {:>6} {:>6} {:>6} {:>6}",
        "Bench", "1T", "2T", "4T", "8T"
    );
    for (name, sweep) in cx.tiling() {
        let c1 = sweep[0] as f64;
        print!("{name:>10}:");
        for c in sweep {
            print!(" {:>6.3}", *c as f64 / c1);
        }
        println!("   (max speedup {:.2}x)", c1 / fewest(sweep));
    }
}

/// The fewest cycles of a sweep: its best point.
fn fewest(sweep: &[u64]) -> f64 {
    *sweep.iter().min().expect("a non-empty sweep") as f64
}

/// Figure 15: tensor higher-order ops vs scalar pipelines, then the
/// lane-lowering ablation (§6.3): the same tensor graph with every tile
/// value lane-expanded by the `LowerTensors` pass, which isolates the
/// tensor function units from the source-level loop structure.
fn fig15(cx: &mut Cx, _: &Args) {
    hdr("Figure 15: tensor ops vs scalar baseline (baseline = 1)");
    for &(name, tensor, scalar) in cx.tensor() {
        println!(
            "{:>10}: {:.3}   (scalar {} -> tensor {} cycles, {:.2}x)",
            name,
            tensor as f64 / scalar as f64,
            scalar,
            tensor,
            scalar as f64 / tensor as f64
        );
    }
    println!("  -- lane-lowering ablation (same graph, scalar lanes) --");
    for name in ["RELU[T]", "2MM[T]", "CONV[T]"] {
        let b = cx.lab.named(name);
        let native = b.cycles(&lane_lowering(false));
        let lowered = b.cycles(&lane_lowering(true));
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
fn fig16(cx: &mut Cx, _: &Args) {
    hdr("Figure 16: normalized execution vs cache banks (1B = 1)");
    println!("{:>10}: {:>6} {:>6} {:>6}", "Bench", "1B", "2B", "4B");
    for name in ["GEMM", "FFT", "2MM", "3MM", "SAXPY", "CONV"] {
        let b = cx.lab.named(name);
        let sweep = [1u32, 2, 4].map(|banks| b.cycles(&cache_banking(banks)));
        print!("{name:>10}:");
        for c in sweep {
            print!(" {:>6.3}", c as f64 / sweep[0] as f64);
        }
        println!();
    }
}

/// Figure 17: stacked optimizations.
fn fig17(cx: &mut Cx, _: &Args) {
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
        let b = cx.lab.named(name);
        speedup_row(
            name,
            b.cycles(&PassManager::new()),
            b.cycles(&full_stack(b.w.class)),
        );
    }
}

/// Figure 18: optimized μIR accelerators vs an ARM-A9-class CPU at 1 GHz.
fn fig18(cx: &mut Cx, _: &Args) {
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
        let (acc_us, cpu_us) = fig18_point(&cx.lab.named(name));
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
fn table4(cx: &mut Cx, _: &Args) {
    hdr("Table 4: muIR vs FIRRTL-level deltas (nodes/edges touched)");
    println!(
        "{:>10} | {:>16} | {:>16} | {:>16} | {:>6}",
        "Bench", "tile 1->2 (u|F)", "add SRAM (u|F)", "fusion (u|F)", "size x"
    );
    for name in ["SAXPY", "STENCIL", "IMG-SCALE"] {
        let b = cx.lab.named(name);
        let acc = &b.base;

        // muIR deltas from the actual passes.
        let apply = |pm: PassManager| {
            let mut after = acc.clone();
            let delta = pm.run(&mut after).unwrap().total();
            (after, delta)
        };
        let (_, tile_u) = apply(PassManager::new().with(ExecutionTiling::spawned(2)));
        let (l_acc, sram_total) = apply(PassManager::new().with(MemoryLocalization));
        // Per-SRAM cost: divide by the number of scratchpads created.
        let srams_added = l_acc
            .structures
            .len()
            .saturating_sub(acc.structures.len())
            .max(1);
        let sram_u = (
            sram_total.nodes.div_ceil(srams_added),
            sram_total.edges.div_ceil(srams_added),
        );
        let (f_acc, fuse_u) = apply(fusion());

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
        let tile_f = tiling_circuit_delta(acc, spawned);
        let obj = acc
            .structures
            .iter()
            .flat_map(|s| s.objects.iter())
            .next()
            .copied();
        let sram_f = sram_circuit_delta(acc, obj.unwrap_or(muir_mir::instr::MemObjId(0)));
        let fuse_f = fusion_circuit_delta(&f_acc);

        let ratio = lower_to_circuit(acc).total_elements() as f64
            / graph_stats(acc).total_elements() as f64;
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

/// Figure 1's headline plot + Table 3's summary: the best speedup of each
/// pass, read off the rows of Figures 11, 12 and 15; only locality is
/// measured here.
fn fig1_table3(cx: &mut Cx, _: &Args) {
    hdr("Figure 1 / Table 3: headline per-pass improvements");
    let best = |speedups: &mut dyn Iterator<Item = f64>| speedups.fold(0.0f64, f64::max);
    let fuse_best = best(&mut cx.fusion().iter().map(|&(_, b, o)| b as f64 / o as f64));
    println!("Op fusion        (paper 1.4x): {fuse_best:.2}x");
    let tile_best = best(
        &mut cx
            .tiling()
            .iter()
            .filter(|(name, _)| !TILING_HEADLINE_OMITS.contains(name))
            .map(|(_, sweep)| sweep[0] as f64 / fewest(sweep)),
    );
    println!("Task tiling      (paper 6.0x): {tile_best:.2}x");
    let tensor_best = best(&mut cx.tensor().iter().map(|&(_, t, s)| s as f64 / t as f64));
    println!("Tensor intrinsic (paper 8.5x): {tensor_best:.2}x");
    let local_best = best(
        &mut ["SPMV", "CONV", "SAXPY", "COVAR"].into_iter().map(|name| {
            let b = cx.lab.named(name);
            let base = b.cycles(&PassManager::new());
            base as f64 / b.cycles(&PassManager::new().with(MemoryLocalization)) as f64
        }),
    );
    println!("Locality         (paper 1.5x): {local_best:.2}x");
}

/// Ablations beyond the paper (DESIGN.md §6).
fn ablations(cx: &mut Cx, _: &Args) {
    hdr("Ablation: <||> queue depth (Pass 1), Cilk benchmarks");
    println!("(finding: flat — the baseline's elastic pipelined connections already");
    println!(" provide the decoupling Pass 1 adds explicitly; spawns complete at");
    println!(" enqueue, so parents rarely block on child queues at these rates)");
    for name in ["SAXPY", "M-SORT"] {
        // Queue depth matters once the consumer is replicated: hold tiling
        // fixed at 4 and vary only the `<||>` FIFO.
        let b = cx.lab.named(name);
        print!("{name:>10}:");
        for d in [1, 2, 4, 8, 16] {
            let pm = PassManager::new()
                .with(ExecutionTiling::spawned(4))
                .with(TaskQueueing::all(d));
            print!("  q{d}={}", b.cycles(&pm));
        }
        println!();
    }
    hdr("Ablation: fusion clock-period budget (cycles @ fmax)");
    for name in ["RGB2YUV", "COVAR"] {
        // The frequency/cycle-count tradeoff of §6.1.
        let b = cx.lab.named(name);
        print!("{name:>10}:");
        for p in [1.5, 2.5, 4.0, 8.0] {
            let comp = b.seal(&PassManager::new().with(OpFusion::with_period(p)));
            let c = b.check(&comp, &SimConfig::default()).cycles;
            let f = estimate(&comp, Tech::FpgaArria10).fmax_mhz;
            print!("  {p}ns:{c}cy@{f:.0}MHz");
        }
        println!();
    }
    hdr("Ablation: scratchpad banking after localization");
    for name in ["FFT", "STENCIL", "RELU[T]"] {
        // Algorithm 2's tunables, separate from Figure 16's cache banking.
        let b = cx.lab.named(name);
        print!("{name:>10}:");
        for banks in [1, 2, 4, 8] {
            let pm = PassManager::new()
                .with(MemoryLocalization)
                .with(ScratchpadBanking { banks });
            print!("  {banks}B={}", b.cycles(&pm));
        }
        println!();
    }
    hdr("Ablation: databox entries x elastic channel depth");
    for name in ["SPMV", "CONV"] {
        // §3.4's `#Entries` parameter and the pipelined-connection
        // buffering, on the baseline.
        let b = cx.lab.named(name);
        let comp = b.seal(&PassManager::new());
        print!("{name:>10}:");
        for n in [1, 2, 4, 8, 16] {
            let cfg = SimConfig {
                databox_entries: n,
                elastic_depth: n,
                ..SimConfig::default()
            };
            print!("  d{n}e{n}={}", b.check(&comp, &cfg).cycles);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::{lookup, parse_num, usage, Args, COMMANDS};

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

    #[test]
    fn a_workload_is_a_registry_name_in_any_case() {
        assert_eq!(lookup("gemm").unwrap().name, "GEMM");
        assert_eq!(lookup("Img-Scale").unwrap().name, "IMG-SCALE");
        assert_eq!(lookup("relu[t]").unwrap().name, "RELU[T]");
        assert_eq!(lookup("RELU").unwrap().name, "RELU");
        let e = lookup("gemm2").unwrap_err();
        assert!(e.contains("`gemm2`"), "{e}");
        for entry in muir_workloads::REGISTRY {
            assert!(e.contains(entry.name), "{e}");
        }
    }

    #[test]
    fn the_usage_text_names_every_command() {
        let u = usage();
        for c in COMMANDS {
            let line = format!("\n  experiments {}", c.name);
            assert!(u.contains(&line), "{} missing from:\n{u}", c.name);
        }
    }

    #[test]
    fn the_readme_carries_the_usage_text() {
        let readme = include_str!("../../../../README.md");
        let block = format!("```text\n{}\n```", usage());
        assert!(readme.contains(&block), "README.md lacks:\n{block}");
    }

    #[test]
    fn a_flag_takes_the_next_argument_unless_it_is_a_flag() {
        let args = |cmd: &str, list: &[&str]| Args {
            cmd: COMMANDS.iter().find(|c| c.name == cmd).unwrap(),
            list: list.iter().map(|a| a.to_string()).collect(),
        };
        let a = args("fuzz", &["graphs", "30", "--seed", "0xc1"]);
        assert_eq!(
            (a.pos(0), a.pos(1), a.pos(2)),
            (Some("graphs"), Some("30"), None)
        );
        assert_eq!(a.num("--seed"), Some(0xc1));
        let a = args(
            "dse",
            &[
                "--all",
                "--budget",
                "8",
                "--workload",
                "GEMM",
                "--workload",
                "fft",
            ],
        );
        assert!(a.has("--all"));
        assert_eq!(a.pos(0), None);
        assert_eq!(a.num("--budget"), Some(8));
        assert_eq!(a.values("--workload").collect::<Vec<_>>(), ["GEMM", "fft"]);
    }
}
