//! Scheduler differential harness: the oracle and the wall-time benchmark
//! behind `experiments bench` / `BENCH_sim.json`.
//!
//! The cycle engine has two phase-4 schedulers (`SchedulerKind`): the
//! original dense scanner, kept as the oracle, and the event-driven
//! ready-set scheduler (DESIGN.md §9) — each runnable under two firing
//! interpreters (`ExecMode`, DESIGN.md §14): the `NodeKind` interpreter
//! and the compiled micro-op stream. Their contract is *bit-identical
//! observable behaviour* — cycles, results, `SimStats` (minus the
//! simulator-effort counter `sched_visits`), trace streams, and even
//! typed errors. This module checks that contract over real workloads
//! (including seeded fault plans and tracing), measures what the ready
//! scheduler buys in simulator wall-time, and measures multi-run
//! throughput scaling through `muir_sim::simulate_batch`.

use crate::baseline;
use crate::profile::{parse_json, Json};
use muir_core::compiled::CompiledAccel;
use muir_sim::{
    simulate, ExecMode, FaultClass, FaultPlan, SchedulerKind, SimConfig, SimStats, TraceConfig,
};
use muir_workloads::{all, by_name, Workload};
use std::time::Instant;

/// The observable outcome of one simulation, flattened to comparable
/// strings so differential checks are order- and representation-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Completed: (cycles, Debug-formatted results, stats fingerprint,
    /// Chrome-JSON trace when tracing was on).
    Ok {
        /// Cycles to completion.
        cycles: u64,
        /// `Debug` rendering of the root results (exact, bit-level).
        results: String,
        /// All `SimStats` fields except `sched_visits`.
        stats: String,
        /// Full Chrome-JSON event stream (`None` when tracing was off).
        trace: Option<String>,
    },
    /// Failed: the error's `Display` rendering (typed errors carry cycle
    /// numbers and sites, so equal strings mean equal failures).
    Err(String),
}

/// Every `SimStats` field except `sched_visits`, which measures simulator
/// effort, not hardware behaviour, and legitimately differs between
/// schedulers.
pub fn stats_fingerprint(s: &SimStats) -> String {
    format!(
        "cycles={} fires={} inv={:?} busy={:?} structs={:?} dram_fills={} faults={:?}",
        s.cycles,
        s.fires,
        s.task_invocations,
        s.task_busy_cycles,
        s.struct_stats,
        s.dram_fills,
        s.faults
    )
}

/// Run `w`'s baseline accelerator under one scheduler and flatten the
/// outcome. `faults`/`tracing` select the stress mode.
pub fn run_under(
    w: &Workload,
    scheduler: SchedulerKind,
    faults: &FaultPlan,
    tracing: bool,
) -> RunOutcome {
    run_under_exec(w, scheduler, faults, tracing, ExecMode::default())
}

/// [`run_under`] with an explicit firing interpreter (`Interp` walks
/// `NodeKind`, `MicroOp` dispatches the compiled micro-op stream).
pub fn run_under_exec(
    w: &Workload,
    scheduler: SchedulerKind,
    faults: &FaultPlan,
    tracing: bool,
    exec: ExecMode,
) -> RunOutcome {
    let acc = baseline(w);
    let cfg = SimConfig {
        faults: faults.clone(),
        trace: if tracing {
            TraceConfig::on()
        } else {
            TraceConfig::default()
        },
        scheduler,
        exec,
        ..SimConfig::default()
    };
    let mut mem = w.fresh_memory();
    match simulate(&acc, &mut mem, &[], &cfg) {
        Ok(r) => RunOutcome::Ok {
            cycles: r.cycles,
            results: format!("{:?}", r.results),
            stats: stats_fingerprint(&r.stats),
            trace: r.trace.map(|t| t.to_chrome_json()),
        },
        Err(e) => RunOutcome::Err(e.to_string()),
    }
}

/// Differentially run `w` under Dense and Ready; returns an error message
/// naming the first divergence, if any.
///
/// # Errors
/// Any observable difference: cycles, results, stats, trace stream, or
/// error text.
pub fn check_equivalence(w: &Workload, faults: &FaultPlan, tracing: bool) -> Result<(), String> {
    let dense = run_under(w, SchedulerKind::Dense, faults, tracing);
    let ready = run_under(w, SchedulerKind::Ready, faults, tracing);
    diff_outcomes(w, &dense, "ready", &ready, faults, tracing)
}

/// Compare `other` against the dense oracle; `Err` renders a focused diff
/// naming the first divergent field and the failing configuration.
fn diff_outcomes(
    w: &Workload,
    dense: &RunOutcome,
    label: &str,
    other: &RunOutcome,
    faults: &FaultPlan,
    tracing: bool,
) -> Result<(), String> {
    if dense == other {
        return Ok(());
    }
    // Render a focused diff rather than two page-long Debug dumps.
    let describe = |o: &RunOutcome| match o {
        RunOutcome::Ok { cycles, .. } => format!("Ok(cycles={cycles})"),
        RunOutcome::Err(e) => format!("Err({e})"),
    };
    let field = match (dense, other) {
        (
            RunOutcome::Ok {
                cycles: c1,
                results: r1,
                stats: s1,
                trace: t1,
            },
            RunOutcome::Ok {
                cycles: c2,
                results: r2,
                stats: s2,
                trace: t2,
            },
        ) => {
            if c1 != c2 {
                format!("cycles: dense={c1} {label}={c2}")
            } else if r1 != r2 {
                "results differ".to_string()
            } else if s1 != s2 {
                format!("stats: dense[{s1}] {label}[{s2}]")
            } else if t1 != t2 {
                "trace streams differ".to_string()
            } else {
                "unknown field".to_string()
            }
        }
        _ => format!("dense={} {label}={}", describe(dense), describe(other)),
    };
    let fault_mode = if faults.specs.is_empty() { "off" } else { "on" };
    Err(format!(
        "{} (faults={fault_mode}, tracing={tracing}, vs {label}): {field}",
        w.name
    ))
}

/// The seeded fault plan a differential sweep pairs with workload `i`:
/// a single-event plan whose class cycles through [`FaultClass::ALL`]
/// and whose seed hashes the workload name, so every run of the suite
/// replays the same faults while the suite as a whole covers every class
/// (including the deadlock-shaped ones, which must deadlock at the same
/// cycle under both schedulers).
pub fn diff_fault_plan(w: &Workload, i: usize) -> FaultPlan {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in w.name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    FaultPlan::single(FaultClass::ALL[i % FaultClass::ALL.len()], h)
}

/// Differentially check one workload against the dense interpreter oracle
/// in all three stress modes (plain, tracing on, seeded single-event fault
/// plan), across the whole scheduler × exec-mode grid: Dense under the
/// micro-op engine and Ready under both firing interpreters.
///
/// # Errors
/// The first divergence found, naming the failing configuration.
pub fn check_workload(w: &Workload, i: usize) -> Result<(), String> {
    let none = FaultPlan::none();
    let fault_plan = diff_fault_plan(w, i);
    let modes: [(&FaultPlan, bool); 3] = [(&none, false), (&none, true), (&fault_plan, false)];
    for (faults, tracing) in modes {
        let dense = run_under_exec(w, SchedulerKind::Dense, faults, tracing, ExecMode::Interp);
        let covers = [
            ("dense+uop", SchedulerKind::Dense, ExecMode::MicroOp),
            ("ready+interp", SchedulerKind::Ready, ExecMode::Interp),
            ("ready+uop", SchedulerKind::Ready, ExecMode::MicroOp),
        ];
        for (label, sched, exec) in covers {
            let other = run_under_exec(w, sched, faults, tracing, exec);
            diff_outcomes(w, &dense, label, &other, faults, tracing)?;
        }
    }
    Ok(())
}

/// One row of `BENCH_sim.json`: wall-time under every scheduler for the
/// same workload, with the differential invariant re-asserted.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Workload name.
    pub workload: String,
    /// Simulated cycles (identical under every scheduler by contract).
    pub cycles: u64,
    /// Best-of-N wall-time under the dense scanner, milliseconds.
    pub dense_ms: f64,
    /// Best-of-N wall-time under the ready scheduler, milliseconds.
    pub ready_ms: f64,
    /// `try_fire` visits per simulated cycle, dense.
    pub dense_visits_per_cycle: f64,
    /// `try_fire` visits per simulated cycle, ready.
    pub ready_visits_per_cycle: f64,
}

impl BenchRow {
    /// Dense-over-ready wall-time ratio (> 1 means Ready is faster).
    pub fn speedup(&self) -> f64 {
        if self.ready_ms > 0.0 {
            self.dense_ms / self.ready_ms
        } else {
            f64::INFINITY
        }
    }

    /// Simulated cycles per wall-clock second under Ready.
    pub fn ready_cycles_per_sec(&self) -> f64 {
        if self.ready_ms > 0.0 {
            self.cycles as f64 / (self.ready_ms / 1e3)
        } else {
            f64::INFINITY
        }
    }
}

/// Time `w` under one scheduler: best of `reps` runs (min filters
/// scheduler-independent noise), returning (ms, cycles, visits).
/// Sub-~25 ms workloads get extra reps — a single timer-tick or cache
/// hiccup on a 3 ms run otherwise swings the ratio by several percent.
fn time_under(w: &Workload, scheduler: SchedulerKind, reps: u32) -> (f64, u64, u64) {
    let acc = baseline(w);
    // Compile once outside the timed region: the steady-state numbers
    // measure the engine, not lowering or cache probes.
    let comp = crate::sealed(w, &acc);
    let cfg = SimConfig::default().with_scheduler(scheduler);
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    let mut visits = 0;
    let mut run = |best: &mut f64| {
        let mut mem = w.fresh_memory();
        let t0 = Instant::now();
        let r = muir_sim::simulate_compiled(&comp, &mut mem, &[], &cfg)
            .unwrap_or_else(|e| panic!("{} ({scheduler:?}): {e}", w.name));
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        *best = best.min(dt);
        cycles = r.cycles;
        visits = r.stats.sched_visits;
    };
    for _ in 0..reps.max(1) {
        run(&mut best);
    }
    if best < 25.0 && best * f64::from(reps) < 100.0 {
        let extra = (100.0 / best.max(0.1)).min(32.0) as u32;
        for _ in 0..extra {
            run(&mut best);
        }
    }
    (best, cycles, visits)
}

/// Benchmark one workload under both schedulers (best of `reps`),
/// asserting the cycle counts agree.
///
/// # Panics
/// Panics if any run fails or the schedulers disagree on cycles.
pub fn bench_workload(w: &Workload, reps: u32) -> BenchRow {
    let (dense_ms, dense_cycles, dense_visits) = time_under(w, SchedulerKind::Dense, reps);
    let (ready_ms, ready_cycles, ready_visits) = time_under(w, SchedulerKind::Ready, reps);
    assert_eq!(
        dense_cycles, ready_cycles,
        "{}: schedulers disagree on cycle count",
        w.name
    );
    let per = |v: u64| v as f64 / dense_cycles.max(1) as f64;
    BenchRow {
        workload: w.name.to_string(),
        cycles: dense_cycles,
        dense_ms,
        ready_ms,
        dense_visits_per_cycle: per(dense_visits),
        ready_visits_per_cycle: per(ready_visits),
    }
}

/// One thread-count point of the multi-run throughput benchmark: the
/// [`muir_sim::simulate_batch`] wall time for the same job list.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Worker threads handed to `simulate_batch`.
    pub threads: usize,
    /// Independent simulations in the batch.
    pub runs: usize,
    /// Wall time for the whole batch, milliseconds (best of reps).
    pub wall_ms: f64,
}

impl BatchPoint {
    /// Completed simulations per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.runs as f64 / (self.wall_ms / 1e3)
        } else {
            f64::INFINITY
        }
    }
}

/// Measure multi-run throughput scaling: `reps_per_workload` independent
/// jobs of every quick-set workload, batched per accelerator through
/// `simulate_batch` at 1, 2, 4 and 8 worker threads. Every job's
/// results are asserted identical across thread counts (completion order
/// may differ; outputs may not).
///
/// # Panics
/// Panics if a job fails or any thread count changes a job's outcome.
pub fn bench_batch(reps_per_workload: usize, best_of: u32) -> Vec<BatchPoint> {
    let ws: Vec<Workload> = QUICK_SET.iter().map(|n| by_name(n).unwrap()).collect();
    let accs: Vec<_> = ws.iter().map(baseline).collect();
    // One sealed artifact per workload, shared by every thread-count point:
    // N batch jobs pay one compile, and the timed region is engine-only.
    let comps: Vec<_> = ws
        .iter()
        .zip(&accs)
        .map(|(w, acc)| crate::sealed(w, acc))
        .collect();
    let make_jobs = |w: &Workload| -> Vec<muir_sim::BatchJob> {
        (0..reps_per_workload)
            .map(|_| muir_sim::BatchJob {
                args: Vec::new(),
                mem: w.fresh_memory(),
                cfg: SimConfig::default(),
            })
            .collect()
    };
    let mut baseline_cycles: Vec<Vec<u64>> = Vec::new();
    let mut points = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        let mut cycles_now: Vec<Vec<u64>> = Vec::new();
        for _ in 0..best_of.max(1) {
            cycles_now.clear();
            let t0 = Instant::now();
            for (w, comp) in ws.iter().zip(&comps) {
                let runs = muir_sim::simulate_batch_compiled(comp, make_jobs(w), threads);
                cycles_now.push(
                    runs.into_iter()
                        .map(|r| {
                            r.outcome
                                .unwrap_or_else(|e| panic!("{} batch job: {e}", w.name))
                                .cycles
                        })
                        .collect(),
                );
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        if baseline_cycles.is_empty() {
            baseline_cycles = cycles_now;
        } else {
            assert_eq!(
                baseline_cycles, cycles_now,
                "batch outcomes changed at {threads} threads"
            );
        }
        points.push(BatchPoint {
            threads,
            runs: ws.len() * reps_per_workload,
            wall_ms: best,
        });
    }
    points
}

/// The quick subset used by the CI gate (small enough for a checked
/// build, varied enough to cover compute-, memory-, spawn-bound, and
/// tensor-graph-frontend shapes).
pub const QUICK_SET: [&str; 7] = ["GEMM", "FFT", "SPMV", "SAXPY", "STENCIL", "M-SORT", "ATTN"];

/// One workload's sealing cost — what a batch of N runs pays exactly once
/// since the engines share the `CompiledAccel` artifact.
#[derive(Debug, Clone)]
pub struct CompileRow {
    /// Workload name.
    pub workload: String,
    /// Wall time of one verify + lower (µs, best of 5).
    pub compile_us: f64,
    /// Sealed artifact heap size (bytes).
    pub size_bytes: usize,
}

/// Measure sealing cost for every quick-set workload (uncached compiles,
/// best of 5 so a cold allocator doesn't inflate the number).
pub fn measure_compile() -> Vec<CompileRow> {
    QUICK_SET
        .iter()
        .map(|n| {
            let w = by_name(n).unwrap();
            let acc = baseline(&w);
            let mut best = f64::INFINITY;
            let mut size = 0;
            for _ in 0..5 {
                let t0 = Instant::now();
                let comp = muir_core::compiled::CompiledAccel::compile(&acc)
                    .unwrap_or_else(|e| panic!("{n}: {e}"));
                best = best.min(t0.elapsed().as_secs_f64() * 1e6);
                size = comp.size_bytes();
            }
            CompileRow {
                workload: (*n).to_string(),
                compile_us: best,
                size_bytes: size,
            }
        })
        .collect()
}

/// Cold-vs-warm timing of the persistent result store over the quick
/// set, as measured through the batch evaluation service.
#[derive(Debug, Clone, Copy)]
pub struct StoreBench {
    /// Jobs evaluated in each phase.
    pub jobs: u64,
    /// Wall time of the cold (populate) phase.
    pub cold_ms: f64,
    /// Wall time of the warm (all store hits) phase.
    pub warm_ms: f64,
    /// Store hits in the warm phase (must equal `jobs`).
    pub hits: u64,
    /// Store misses in the cold phase (must equal `jobs`).
    pub misses: u64,
}

impl StoreBench {
    /// Cold / warm wall-time ratio.
    pub fn warm_speedup(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.cold_ms / self.warm_ms
        } else {
            0.0
        }
    }
}

/// Measure the store's cold-vs-warm cost on the quick set: one
/// [`crate::service::EvalService`] per workload over a shared fresh
/// store, then a second pass that must be served entirely from disk.
///
/// # Panics
/// Panics if any evaluation fails or the warm pass misses the store —
/// either is a store-layer bug, not a timing outcome.
pub fn bench_store() -> StoreBench {
    use crate::service::{EvalJob, EvalService, ServiceConfig};
    use muir_store::Store;

    let root = std::env::temp_dir().join(format!("muir-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut b = StoreBench {
        jobs: 0,
        cold_ms: 0.0,
        warm_ms: 0.0,
        hits: 0,
        misses: 0,
    };
    for n in QUICK_SET {
        let w = by_name(n).unwrap();
        let comp = CompiledAccel::compile_cached(&crate::baseline(&w)).unwrap();
        let job = EvalJob {
            cfg: SimConfig::default(),
            args: vec![],
            mem: w.fresh_memory(),
        };
        b.jobs += 1;

        let mut svc = EvalService::new(
            comp.clone(),
            Some(Store::open(&root)),
            ServiceConfig::default(),
        );
        svc.submit(job.clone());
        let t0 = Instant::now();
        let cold = svc.drain();
        b.cold_ms += t0.elapsed().as_secs_f64() * 1e3;
        assert!(cold[0].outcome.is_ok(), "{n}: cold run failed");
        b.misses += svc.store_stats().result_misses;

        let mut svc = EvalService::new(comp, Some(Store::open(&root)), ServiceConfig::default());
        svc.submit(job);
        let t0 = Instant::now();
        let warm = svc.drain();
        b.warm_ms += t0.elapsed().as_secs_f64() * 1e3;
        assert!(warm[0].from_store, "{n}: warm run missed the store");
        b.hits += svc.store_stats().result_hits;
    }
    let _ = std::fs::remove_dir_all(&root);
    b
}

/// Render the store cold/warm measurement for the terminal.
pub fn render_store(s: &StoreBench) -> String {
    format!(
        "{} jobs: cold {:.1} ms -> warm {:.1} ms ({:.1}x); \
         {} cold misses, {} warm hits (hit rate {}/{})\n",
        s.jobs,
        s.cold_ms,
        s.warm_ms,
        s.warm_speedup(),
        s.misses,
        s.hits,
        s.hits,
        s.jobs
    )
}

/// Benchmark the quick set or every workload; `reps` best-of runs each.
pub fn bench_all(quick: bool, reps: u32) -> Vec<BenchRow> {
    let ws: Vec<Workload> = if quick {
        QUICK_SET.iter().map(|n| by_name(n).unwrap()).collect()
    } else {
        all()
    };
    ws.iter().map(|w| bench_workload(w, reps)).collect()
}

/// Geometric-mean speedup over the rows.
pub fn geomean_speedup(rows: &[BenchRow]) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let s: f64 = rows.iter().map(|r| r.speedup().max(1e-9).ln()).sum();
    (s / rows.len() as f64).exp()
}

/// Serialize rows, batch-throughput points, per-workload sealing costs,
/// and the store cold/warm measurement to the `BENCH_sim.json` document.
pub fn bench_json(
    rows: &[BenchRow],
    batch: &[BatchPoint],
    compile: &[CompileRow],
    store: &StoreBench,
) -> String {
    let mut out = String::from("{\n  \"bench\": \"sim-scheduler\",\n  \"unit\": \"ms\",\n");
    // The host's CPU budget: batch speedups are meaningless without it
    // (a 1-CPU CI runner legitimately reports ~1x).
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!(
        "  \"geomean_speedup\": {:.4},\n  \"rows\": [\n",
        geomean_speedup(rows)
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"cycles\": {}, \"dense_ms\": {:.4}, \
             \"ready_ms\": {:.4}, \"speedup\": {:.4}, \
             \"ready_cycles_per_sec\": {:.1}, \
             \"dense_visits_per_cycle\": {:.2}, \"ready_visits_per_cycle\": {:.2}}}{}\n",
            r.workload,
            r.cycles,
            r.dense_ms,
            r.ready_ms,
            r.speedup(),
            r.ready_cycles_per_sec(),
            r.dense_visits_per_cycle,
            r.ready_visits_per_cycle,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"batch\": [\n");
    let base = batch.first().map_or(0.0, |p| p.wall_ms);
    for (i, p) in batch.iter().enumerate() {
        let speedup = if p.wall_ms > 0.0 {
            base / p.wall_ms
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{\"threads\": {}, \"runs\": {}, \"wall_ms\": {:.4}, \
             \"runs_per_sec\": {:.1}, \"speedup\": {:.4}}}{}\n",
            p.threads,
            p.runs,
            p.wall_ms,
            p.runs_per_sec(),
            speedup,
            if i + 1 < batch.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"compile\": [\n");
    for (i, c) in compile.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"compile_us\": {:.1}, \"size_bytes\": {}}}{}\n",
            c.workload,
            c.compile_us,
            c.size_bytes,
            if i + 1 < compile.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"store\": {{\"jobs\": {}, \"cold_ms\": {:.4}, \"warm_ms\": {:.4}, \
         \"hits\": {}, \"misses\": {}, \"warm_speedup\": {:.4}}}\n",
        store.jobs,
        store.cold_ms,
        store.warm_ms,
        store.hits,
        store.misses,
        store.warm_speedup()
    ));
    out.push_str("}\n");
    out
}

/// Validate a `BENCH_sim.json` document with the crate's dependency-free
/// JSON parser: shape, required fields, and numeric sanity.
///
/// # Errors
/// A message naming the first schema violation.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    if doc.get("bench").and_then(Json::as_str) != Some("sim-scheduler") {
        return Err("missing or wrong `bench` tag".into());
    }
    if doc.get("unit").and_then(Json::as_str) != Some("ms") {
        return Err("missing or wrong `unit`".into());
    }
    match doc.get("host_cpus") {
        Some(Json::Num(v)) if v.is_finite() && *v >= 1.0 => {}
        other => {
            return Err(format!(
                "missing `host_cpus` (needed to interpret batch speedups), got {}",
                other.map_or("nothing", Json::type_name)
            ))
        }
    }
    let Some(Json::Num(g)) = doc.get("geomean_speedup") else {
        return Err("missing numeric `geomean_speedup`".into());
    };
    if !g.is_finite() || *g <= 0.0 {
        return Err(format!("implausible geomean_speedup {g}"));
    }
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Err("missing `rows` array".into());
    };
    if rows.is_empty() {
        return Err("`rows` is empty".into());
    }
    let mut has_tensor_graph = false;
    for (i, row) in rows.iter().enumerate() {
        for key in [
            "cycles",
            "dense_ms",
            "ready_ms",
            "speedup",
            "ready_cycles_per_sec",
            "dense_visits_per_cycle",
            "ready_visits_per_cycle",
        ] {
            match row.get(key) {
                Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => {}
                other => {
                    return Err(format!(
                        "row {i}: `{key}` must be a non-negative number, got {}",
                        other.map_or("nothing", Json::type_name)
                    ))
                }
            }
        }
        let Some(name) = row.get("workload").and_then(Json::as_str) else {
            return Err(format!("row {i}: missing `workload` string"));
        };
        // Every row must name a registry workload (catches drift between
        // the bench set and the suite), and the report must cover the
        // tensor-graph frontend families.
        match muir_workloads::REGISTRY.iter().find(|e| e.name == name) {
            Some(e) => has_tensor_graph |= matches!(e.class, muir_workloads::Class::TensorGraph),
            None => return Err(format!("row {i}: unknown workload `{name}`")),
        }
    }
    if !has_tensor_graph {
        return Err(
            "rows must include at least one tensor-graph family (ATTN/CONVNET/MT-INFER)".into(),
        );
    }
    let Some(Json::Arr(batch)) = doc.get("batch") else {
        return Err("missing `batch` array".into());
    };
    if batch.is_empty() {
        return Err("`batch` is empty".into());
    }
    for (i, p) in batch.iter().enumerate() {
        for key in ["threads", "runs", "wall_ms", "runs_per_sec", "speedup"] {
            match p.get(key) {
                Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => {}
                other => {
                    return Err(format!(
                        "batch point {i}: `{key}` must be a non-negative number, got {}",
                        other.map_or("nothing", Json::type_name)
                    ))
                }
            }
        }
    }
    let Some(Json::Arr(compile)) = doc.get("compile") else {
        return Err("missing `compile` array".into());
    };
    if compile.is_empty() {
        return Err("`compile` is empty".into());
    }
    for (i, c) in compile.iter().enumerate() {
        if c.get("workload").and_then(Json::as_str).is_none() {
            return Err(format!("compile row {i}: missing `workload` string"));
        }
        for key in ["compile_us", "size_bytes"] {
            match c.get(key) {
                Some(Json::Num(v)) if v.is_finite() && *v > 0.0 => {}
                other => {
                    return Err(format!(
                        "compile row {i}: `{key}` must be a positive number, got {}",
                        other.map_or("nothing", Json::type_name)
                    ))
                }
            }
        }
    }
    let Some(store @ Json::Obj(_)) = doc.get("store") else {
        return Err("missing `store` object".into());
    };
    for key in [
        "jobs",
        "cold_ms",
        "warm_ms",
        "hits",
        "misses",
        "warm_speedup",
    ] {
        match store.get(key) {
            Some(Json::Num(v)) if v.is_finite() && *v >= 0.0 => {}
            other => {
                return Err(format!(
                    "store: `{key}` must be a non-negative number, got {}",
                    other.map_or("nothing", Json::type_name)
                ))
            }
        }
    }
    // The warm pass must be a perfect hit run: misses populate, hits
    // serve, counts both equal to the job count.
    let num = |k: &str| match store.get(k) {
        Some(Json::Num(v)) => *v,
        _ => -1.0,
    };
    if num("jobs") < 1.0 || num("hits") != num("jobs") || num("misses") != num("jobs") {
        return Err(format!(
            "store: expected hits == misses == jobs >= 1, got jobs={} hits={} misses={}",
            num("jobs"),
            num("hits"),
            num("misses")
        ));
    }
    Ok(())
}

/// Render the benchmark table for the terminal.
pub fn render_rows(rows: &[BenchRow]) -> String {
    let mut out = format!(
        "{:>10} {:>12} {:>10} {:>10} {:>8} {:>9} {:>9}\n",
        "Bench", "cycles", "dense ms", "ready ms", "speedup", "visits/c", "(ready)"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>10} {:>12} {:>10.3} {:>10.3} {:>7.2}x {:>9.1} {:>9.2}\n",
            r.workload,
            r.cycles,
            r.dense_ms,
            r.ready_ms,
            r.speedup(),
            r.dense_visits_per_cycle,
            r.ready_visits_per_cycle,
        ));
    }
    out.push_str(&format!(
        "{:>10} geomean speedup (ready vs dense): {:.2}x\n",
        "--", // aligns under the workload column
        geomean_speedup(rows)
    ));
    out
}

/// Render the batch-throughput scaling table for the terminal.
pub fn render_batch(points: &[BatchPoint]) -> String {
    let base = points.first().map_or(0.0, |p| p.wall_ms);
    let mut out = format!(
        "{:>10} {:>8} {:>10} {:>12} {:>8}\n",
        "threads", "runs", "wall ms", "runs/s", "speedup"
    );
    for p in points {
        out.push_str(&format!(
            "{:>10} {:>8} {:>10.2} {:>12.1} {:>7.2}x\n",
            p.threads,
            p.runs,
            p.wall_ms,
            p.runs_per_sec(),
            if p.wall_ms > 0.0 {
                base / p.wall_ms
            } else {
                0.0
            },
        ));
    }
    out
}

/// Render the per-workload sealing-cost table.
pub fn render_compile(rows: &[CompileRow]) -> String {
    let mut out = format!("{:>10} {:>12} {:>10}\n", "Bench", "compile us", "size KiB");
    for c in rows {
        out.push_str(&format!(
            "{:>10} {:>12.1} {:>10.1}\n",
            c.workload,
            c.compile_us,
            c.size_bytes as f64 / 1024.0
        ));
    }
    out
}
