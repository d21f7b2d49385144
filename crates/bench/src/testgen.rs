//! Seeded random well-formed μIR graph generator and its differential
//! checker.
//!
//! `gen_case` derives a complete test case — a verifier-clean module, its
//! input data, the μopt passes to apply, and the simulation dimensions —
//! from a single `splitmix64` seed, so every case is reproducible from
//! two integers (`seed`, `size`). `check_case` seals the case once, holds
//! the sealed tables to the reference lowering, and runs the artifact
//! under both schedulers (`Dense`, `Ready`) in plain, traced, and
//! seeded-fault modes, demanding bit-identical observables and — on
//! fault-free completions — word-for-word agreement with the `muir-mir`
//! reference interpreter.
//!
//! Shrinking is by seed: the generator's `size` knob bounds trip counts,
//! op-chain depth, and structural features, so a failure at the default
//! size is re-checked at smaller sizes and reported as the smallest
//! failing `(seed, size)` reproduction line.

use muir_core::rng::SplitMix64;
use muir_frontend::{translate, FrontendConfig};
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::{CmpPred, MemObjId, ValueRef};
use muir_mir::interp::{Interp, Memory};
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, Type};
use muir_sim::{FaultClass, FaultPlan, SchedulerKind, SimConfig, TraceConfig};
use muir_uopt::passes::{
    ExecutionTiling, MemoryLocalization, OpFusion, ScratchpadBanking, TaskFilter,
};
use muir_uopt::PassManager;

/// The binary integer ops the generator chains (all total on `i64`, so
/// the interpreter reference is always defined).
#[derive(Debug, Clone, Copy)]
enum ExprOp {
    Add,
    Sub,
    Mul,
    And,
    Xor,
    Shl3,
}

const OPS: [ExprOp; 6] = [
    ExprOp::Add,
    ExprOp::Sub,
    ExprOp::Mul,
    ExprOp::And,
    ExprOp::Xor,
    ExprOp::Shl3,
];

fn apply(b: &mut FunctionBuilder, op: ExprOp, x: ValueRef, y: ValueRef) -> ValueRef {
    match op {
        ExprOp::Add => b.add(x, y),
        ExprOp::Sub => b.sub(x, y),
        ExprOp::Mul => b.mul(x, y),
        ExprOp::And => b.and(x, y),
        ExprOp::Xor => b.xor(x, y),
        ExprOp::Shl3 => {
            let s = b.and(y, ValueRef::int(3));
            b.shl(x, s)
        }
    }
}

/// The loop shape of a generated case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `out[i] = chain(a[i], i)`.
    Map,
    /// `out[0] = fold(init, a[..])` via a register accumulator.
    Reduce,
    /// `out[i] = pred ? f(a[i]) : g(a[i])` via `if_val`.
    Predicated,
    /// A spawned `par_for` body (tiled when the pass roll says so).
    Spawn,
}

/// One generated case: everything needed to build, transform, and run a
/// random accelerator, reproducible from `(seed, size)`.
pub struct GenCase {
    /// The generating seed.
    pub seed: u64,
    /// The size knob it was generated at (0 = smallest).
    pub size: u8,
    /// The verifier-clean module.
    pub module: Module,
    /// Input memory object and its initial contents.
    pub init: (MemObjId, Vec<i64>),
    /// Output memory object (compared against the reference).
    pub out: MemObjId,
    /// Simulation dimensions shared by every scheduler run of the case.
    pub cfg: SimConfig,
    /// Seed for the case's fault-mode plan.
    pub fault_seed: u64,
    /// Fault class for the case's fault-mode plan.
    pub fault_class: FaultClass,
    /// Human-readable shape summary for failure reports.
    pub desc: String,
}

impl GenCase {
    /// Translate the module and apply the case's μopt pass roll (also
    /// seed-derived, replayed here so the accelerator isn't stored).
    ///
    /// # Panics
    /// Panics if translation or a pass fails — generated modules are
    /// well-formed by construction, so that is a generator bug.
    pub fn build(&self) -> muir_core::accel::Accelerator {
        let mut rng = SplitMix64::salted(self.seed, 0x9a55);
        let mut acc = translate(&self.module, &FrontendConfig::default())
            .unwrap_or_else(|e| panic!("{}: translate: {e}", self.desc));
        let mut pm = PassManager::new();
        let mut any = false;
        if rng.chance_ppm(400_000) {
            pm = pm.with(MemoryLocalization::default());
            any = true;
            if rng.chance_ppm(500_000) {
                let banks = 1 + rng.below(4) as u32;
                pm = pm.with(ScratchpadBanking { banks });
            }
        }
        if rng.chance_ppm(400_000) {
            pm = pm.with(OpFusion::default());
            any = true;
        }
        if self.desc.contains("spawn") && rng.chance_ppm(500_000) {
            let tiles = 2 + rng.below(3) as u32;
            pm = pm.with(ExecutionTiling {
                tiles,
                filter: TaskFilter::Spawned,
            });
            any = true;
        }
        if any {
            pm.run(&mut acc)
                .unwrap_or_else(|e| panic!("{}: passes: {e}", self.desc));
        }
        acc
    }

    /// A fresh memory image with the case's inputs applied.
    pub fn fresh_memory(&self) -> Memory {
        let mut mem = Memory::from_module(&self.module);
        mem.init_i64(self.init.0, &self.init.1);
        mem
    }
}

/// Generate the case for `(seed, size)`. `size` bounds trip counts and
/// op-chain depth: 0 is the shrink floor (4–7 iterations, ≤ 2 ops), 2 the
/// default fuzzing size (16–31 iterations, ≤ 5 ops).
pub fn gen_case(seed: u64, size: u8) -> GenCase {
    let size = size.min(2);
    let mut rng = SplitMix64::salted(seed, u64::from(size));
    let n = match size {
        0 => 4 + rng.below(4) as i64,
        1 => 8 + rng.below(8) as i64,
        _ => 16 + rng.below(16) as i64,
    };
    let max_ops = match size {
        0 => 2,
        1 => 3,
        _ => 5,
    };
    let ops: Vec<ExprOp> = (0..1 + rng.below(max_ops))
        .map(|_| OPS[rng.below(OPS.len() as u64) as usize])
        .collect();
    let shape = match rng.below(4) {
        0 => Shape::Map,
        1 => Shape::Reduce,
        2 => Shape::Predicated,
        _ => Shape::Spawn,
    };
    let data: Vec<i64> = (0..n).map(|_| rng.below(201) as i64 - 100).collect();

    let mut m = Module::new("fuzz");
    let a = m.add_ro_mem_object("a", ScalarType::I32, n as u64);
    let out_len = if shape == Shape::Reduce { 1 } else { n as u64 };
    let out = m.add_mem_object("out", ScalarType::I32, out_len);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    match shape {
        Shape::Map => {
            let ops = ops.clone();
            b.for_loop(0, ValueRef::int(n), 1, move |b, i| {
                let v = b.load(a, i);
                let mut cur = v;
                for &op in &ops {
                    cur = apply(b, op, cur, i);
                }
                b.store(out, i, cur);
            });
        }
        Shape::Reduce => {
            let init = rng.below(21) as i64 - 10;
            let accs = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(n),
                1,
                &[(ValueRef::int(init), Type::I64)],
                |b, i, accs| {
                    let v = b.load(a, i);
                    let s = b.add(accs[0], v);
                    let _ = i;
                    vec![s]
                },
            );
            b.store(out, ValueRef::int(0), accs[0]);
        }
        Shape::Predicated => {
            let threshold = rng.below(41) as i64 - 20;
            let ops = ops.clone();
            b.for_loop(0, ValueRef::int(n), 1, move |b, i| {
                let v = b.load(a, i);
                let c = b.icmp(CmpPred::Lt, v, ValueRef::int(threshold));
                let r = b.if_val(
                    c,
                    &[Type::I64],
                    |b| {
                        let mut cur = ValueRef::Instr(v.as_instr().unwrap());
                        for &op in &ops {
                            cur = apply(b, op, cur, ValueRef::int(3));
                        }
                        vec![cur]
                    },
                    |b| vec![b.sub(ValueRef::Instr(v.as_instr().unwrap()), ValueRef::int(1))],
                );
                b.store(out, i, r[0]);
            });
        }
        Shape::Spawn => {
            let ops = ops.clone();
            b.par_for(0, n, 1, move |b, i| {
                let v = b.load(a, i);
                let mut cur = v;
                for &op in &ops {
                    cur = apply(b, op, cur, i);
                }
                b.store(out, i, cur);
            });
        }
    }
    b.ret(None);
    m.add_function(b.finish());

    let cfg = SimConfig {
        max_cycles: 2_000_000,
        deadlock_cycles: 10_000,
        databox_entries: 1 + rng.below(8) as u32,
        elastic_depth: 1 + rng.below(8) as u32,
        window: 2 + rng.below(63),
        ..SimConfig::default()
    };
    let fault_class = FaultClass::ALL[rng.below(FaultClass::ALL.len() as u64) as usize];
    let fault_seed = rng.next_u64();
    GenCase {
        seed,
        size,
        module: m,
        init: (a, data),
        out,
        cfg,
        fault_seed,
        fault_class,
        desc: format!(
            "gen_case(0x{seed:016x}, {size}): {shape:?} n={n} ops={} class={}",
            ops.len(),
            fault_class.name()
        ),
    }
}

/// Everything observable about one run, flattened for exact comparison.
#[derive(Debug, Clone, PartialEq)]
enum Obs {
    Ok {
        cycles: u64,
        results: String,
        stats: String,
        trace: Option<String>,
        mem: Memory,
    },
    Err(String),
}

fn run_case(
    case: &GenCase,
    comp: &muir_core::compiled::CompiledAccel,
    scheduler: SchedulerKind,
    faults: &FaultPlan,
    tracing: bool,
) -> Obs {
    let cfg = SimConfig {
        faults: faults.clone(),
        trace: if tracing {
            TraceConfig::on()
        } else {
            TraceConfig::default()
        },
        ..case.cfg.clone()
    }
    .with_scheduler(scheduler);
    let mut mem = case.fresh_memory();
    match muir_sim::simulate_compiled(comp, &mut mem, &[], &cfg) {
        Ok(r) => Obs::Ok {
            cycles: r.cycles,
            results: format!("{:?}", r.results),
            stats: crate::sched::stats_fingerprint(&r.stats),
            trace: r.trace.map(|t| t.to_chrome_json()),
            mem,
        },
        Err(e) => Obs::Err(e.to_string()),
    }
}

/// Differentially check one generated case under both schedulers and every
/// stress mode.
///
/// # Errors
/// The first divergence (or reference mismatch), naming the failing
/// configuration and the case's reproduction line.
pub fn check_case(case: &GenCase) -> Result<(), String> {
    let acc = case.build();
    // Seal once for all six scheduler/mode runs below. A graph the
    // verifier rejects is a generator bug.
    let comp = muir_core::compiled::CompiledAccel::compile(&acc)
        .map_err(|e| format!("{}: seal: {e}", case.desc))?;
    // The seal-time lowering of this seed's μopt mix, checked table by
    // table before any simulation.
    muir_sim::reference::check_lowering(&comp)
        .map_err(|e| format!("{}: lowering: {e}", case.desc))?;
    let mut ref_mem = case.fresh_memory();
    Interp::new(&case.module)
        .run_main(&mut ref_mem, &[])
        .map_err(|e| format!("{}: reference interpreter: {e}", case.desc))?;

    let none = FaultPlan::none();
    let fault_plan = FaultPlan::single(case.fault_class, case.fault_seed);
    let modes: [(&str, &FaultPlan, bool); 3] = [
        ("plain", &none, false),
        ("traced", &none, true),
        ("faulted", &fault_plan, false),
    ];
    for (mode, faults, tracing) in modes {
        // The oracle: the dense scheduler.
        let dense = run_case(case, &comp, SchedulerKind::Dense, faults, tracing);
        // Fault-free completions must match the interpreter word for word.
        if let Obs::Ok { mem, .. } = &dense {
            if faults.specs.is_empty() && mem.read_i64(case.out) != ref_mem.read_i64(case.out) {
                return Err(format!(
                    "{} [{mode}]: dense run diverged from the reference interpreter",
                    case.desc
                ));
            }
        }
        // A fault-free generated case must complete: a hang here is a
        // generator or engine bug, not an acceptable outcome. (Fault modes
        // may legitimately hang or raise a typed fault — the only demand
        // there is that every scheduler fails identically.)
        if faults.specs.is_empty() {
            if let Obs::Err(e) = &dense {
                return Err(format!("{} [{mode}]: dense run failed: {e}", case.desc));
            }
        }
        // The ready scheduler must match the oracle bit for bit.
        if dense != run_case(case, &comp, SchedulerKind::Ready, faults, tracing) {
            return Err(format!("{} [{mode}]: ready diverged from dense", case.desc));
        }
    }
    Ok(())
}

/// Fuzz `count` cases derived from `seed0`, with shrink-by-seed reporting:
/// a failing case is re-checked at smaller sizes and the smallest failing
/// `(seed, size)` is reported first.
///
/// # Errors
/// The first failing case, with its reproduction line and shrink result.
pub fn run_seeds(seed0: u64, count: u64) -> Result<(), String> {
    for i in 0..count {
        let seed = SplitMix64::salted(seed0, i).next_u64();
        let case = gen_case(seed, 2);
        let Err(full) = check_case(&case) else {
            continue;
        };
        // Shrink by seed: the same seed at smaller size knobs.
        for size in 0..2u8 {
            let small = gen_case(seed, size);
            if let Err(e) = check_case(&small) {
                return Err(format!(
                    "fuzz case {i} failed; shrunk to size {size}: {e}\n  \
                     reproduce with: check_case(&gen_case(0x{seed:016x}, {size}))"
                ));
            }
        }
        return Err(format!(
            "fuzz case {i} failed (did not shrink): {full}\n  \
             reproduce with: check_case(&gen_case(0x{seed:016x}, 2))"
        ));
    }
    Ok(())
}

/// One tensor-graph fuzz case: a constructively valid graph from
/// `muir_frontend::tensor::gen_graph`, lowered through the tile
/// intrinsics, with seed-derived f32 inputs. Reproducible from
/// `(seed, size)` exactly like [`GenCase`].
pub struct TensorCase {
    /// The generating seed.
    pub seed: u64,
    /// The size knob (0 = smallest).
    pub size: u8,
    /// The source graph.
    pub graph: muir_frontend::tensor::TensorGraph,
    /// Its lowering (module + memory-object map).
    pub lowered: muir_frontend::tensor::LoweredGraph,
    /// Input object contents, in graph-input order.
    pub inits: Vec<(MemObjId, Vec<f32>)>,
    /// Simulation dimensions shared by every run of the case.
    pub cfg: SimConfig,
    /// Human-readable summary for failure reports.
    pub desc: String,
}

impl TensorCase {
    /// Fresh memory with the case's inputs loaded.
    pub fn fresh_memory(&self) -> Memory {
        let mut mem = Memory::from_module(&self.lowered.module);
        for (obj, data) in &self.inits {
            mem.init_f32(*obj, data);
        }
        mem
    }
}

/// Derive a tensor-graph case from `(seed, size)`.
pub fn gen_tensor_case(seed: u64, size: u8) -> TensorCase {
    use muir_frontend::tensor::{gen_graph, TensorLowerConfig};
    let graph = gen_graph(seed, size as usize);
    let lowered = graph
        .lower(&TensorLowerConfig::default())
        .expect("generated graphs lower");
    let mut rng = SplitMix64::salted(seed, 0x7e50);
    let inits: Vec<(MemObjId, Vec<f32>)> = lowered
        .inputs
        .iter()
        .zip(&graph.inputs)
        .map(|(obj, gi)| {
            let data: Vec<f32> = (0..gi.dims.elems())
                .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0)
                .collect();
            (*obj, data)
        })
        .collect();
    let cfg = SimConfig {
        max_cycles: 20_000_000,
        deadlock_cycles: 50_000,
        databox_entries: 1 + rng.below(8) as u32,
        elastic_depth: 1 + rng.below(8) as u32,
        window: 2 + rng.below(63),
        ..SimConfig::default()
    };
    let desc = format!(
        "gen_tensor_case(0x{seed:016x}, {size}): {} inputs, {} nodes, {} fused",
        graph.inputs.len(),
        graph.nodes.len(),
        lowered.fused_relus
    );
    TensorCase {
        seed,
        size,
        graph,
        lowered,
        inits,
        cfg,
        desc,
    }
}

fn run_tensor(
    case: &TensorCase,
    comp: &muir_core::compiled::CompiledAccel,
    scheduler: SchedulerKind,
    tracing: bool,
) -> Obs {
    let cfg = SimConfig {
        trace: if tracing {
            TraceConfig::on()
        } else {
            TraceConfig::default()
        },
        ..case.cfg.clone()
    }
    .with_scheduler(scheduler);
    let mut mem = case.fresh_memory();
    match muir_sim::simulate_compiled(comp, &mut mem, &[], &cfg) {
        Ok(r) => Obs::Ok {
            cycles: r.cycles,
            results: format!("{:?}", r.results),
            stats: crate::sched::stats_fingerprint(&r.stats),
            trace: r.trace.map(|t| t.to_chrome_json()),
            mem,
        },
        Err(e) => Obs::Err(e.to_string()),
    }
}

/// Differentially check one tensor-graph case: the graph-level
/// evaluator, the `muir-mir` interpreter over the lowered module, and
/// the sealed artifact under both schedulers must agree (the two
/// simulator runs bit for bit, the two reference layers to float
/// tolerance — chunked dot products reassociate).
///
/// # Errors
/// The first divergence, naming the failing configuration and the
/// case's reproduction line.
pub fn check_tensor_case(case: &TensorCase) -> Result<(), String> {
    // Layer 1: graph evaluator vs lowered-module interpreter.
    let inputs: Vec<Vec<f32>> = case.inits.iter().map(|(_, d)| d.clone()).collect();
    let want = case
        .graph
        .eval(&inputs)
        .map_err(|e| format!("{}: graph eval: {e}", case.desc))?;
    let mut ref_mem = case.fresh_memory();
    Interp::new(&case.lowered.module)
        .run_main(&mut ref_mem, &[])
        .map_err(|e| format!("{}: reference interpreter: {e}", case.desc))?;
    let got = ref_mem.read_f32(case.lowered.output);
    if want.len() != got.len() {
        return Err(format!(
            "{}: output length {} vs {}",
            case.desc,
            want.len(),
            got.len()
        ));
    }
    for (i, (x, y)) in want.iter().zip(&got).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        if (x - y).abs() > 1e-4 * scale {
            return Err(format!(
                "{}: lowering diverged from graph eval at [{i}]: {x} vs {y}",
                case.desc
            ));
        }
    }
    // Layer 2: the sealed artifact — tables held to the reference
    // lowering, then Ready bit-identical to the dense oracle.
    let acc = translate(&case.lowered.module, &FrontendConfig::default())
        .map_err(|e| format!("{}: translate: {e}", case.desc))?;
    let comp = muir_core::compiled::CompiledAccel::compile(&acc)
        .map_err(|e| format!("{}: seal: {e}", case.desc))?;
    muir_sim::reference::check_lowering(&comp)
        .map_err(|e| format!("{}: lowering: {e}", case.desc))?;
    for tracing in [false, true] {
        let mode = if tracing { "traced" } else { "plain" };
        let dense = run_tensor(case, &comp, SchedulerKind::Dense, tracing);
        if let Obs::Err(e) = &dense {
            return Err(format!("{} [{mode}]: dense run failed: {e}", case.desc));
        }
        if let Obs::Ok { mem, .. } = &dense {
            let sim = mem.read_f32(case.lowered.output);
            for (i, (x, y)) in got.iter().zip(&sim).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!(
                        "{} [{mode}]: sim diverged from interpreter at [{i}]: {x} vs {y}",
                        case.desc
                    ));
                }
            }
        }
        if dense != run_tensor(case, &comp, SchedulerKind::Ready, tracing) {
            return Err(format!("{} [{mode}]: ready diverged from dense", case.desc));
        }
    }
    Ok(())
}

/// Fuzz `count` tensor-graph cases derived from `seed0`, with the same
/// shrink-by-seed reporting as [`run_seeds`].
///
/// # Errors
/// The first failing case, with its reproduction line and shrink result.
pub fn run_tensor_seeds(seed0: u64, count: u64) -> Result<(), String> {
    for i in 0..count {
        let seed = SplitMix64::salted(seed0 ^ 0x7e50, i).next_u64();
        let case = gen_tensor_case(seed, 2);
        let Err(full) = check_tensor_case(&case) else {
            continue;
        };
        for size in 0..2u8 {
            let small = gen_tensor_case(seed, size);
            if let Err(e) = check_tensor_case(&small) {
                return Err(format!(
                    "tensor fuzz case {i} failed; shrunk to size {size}: {e}\n  \
                     reproduce with: check_tensor_case(&gen_tensor_case(0x{seed:016x}, {size}))"
                ));
            }
        }
        return Err(format!(
            "tensor fuzz case {i} failed (did not shrink): {full}\n  \
             reproduce with: check_tensor_case(&gen_tensor_case(0x{seed:016x}, 2))"
        ));
    }
    Ok(())
}

/// The 24 registry modules as `print_module` text: the corpus the mir
/// line-mutation fuzzer mutates.
pub fn registry_texts() -> Vec<String> {
    muir_workloads::REGISTRY
        .iter()
        .map(|e| muir_mir::printer::print_module(&(e.build)().module))
        .collect()
}

/// Mutation case `i` of seed `seed0`: one seeded line-level edit of one
/// corpus text — delete, swap or duplicate a line, rewrite one digit, or
/// swap two whitespace-separated tokens within a line. Returns the mutated
/// text and a one-line description of the edit.
pub fn mutate_mir_text(texts: &[String], seed0: u64, i: u64) -> (String, String) {
    let mut rng = SplitMix64::salted(seed0 ^ 0x006d_6972, i);
    let k = rng.below(texts.len() as u64) as usize;
    let mut lines: Vec<String> = texts[k].lines().map(str::to_string).collect();
    let n = lines.len() as u64;
    let j = rng.below(n) as usize;
    let edit = match rng.below(5) {
        0 => format!("delete line {}: `{}`", j + 1, lines.remove(j)),
        1 => {
            let j2 = rng.below(n) as usize;
            lines.swap(j, j2);
            format!("swap lines {} and {}", j + 1, j2 + 1)
        }
        2 => {
            lines.insert(j, lines[j].clone());
            format!("duplicate line {}: `{}`", j + 1, lines[j])
        }
        3 => {
            let digits: Vec<usize> = lines[j]
                .char_indices()
                .filter(|(_, c)| c.is_ascii_digit())
                .map(|(p, _)| p)
                .collect();
            if let Some(&p) = digits.get(rng.below(digits.len() as u64) as usize) {
                lines[j].replace_range(p..=p, &rng.below(10).to_string());
            }
            format!("rewrite a digit of line {}: `{}`", j + 1, lines[j])
        }
        _ => {
            let mut toks: Vec<&str> = lines[j].split_whitespace().collect();
            let t = toks.len() as u64;
            if t > 0 {
                toks.swap(rng.below(t) as usize, rng.below(t) as usize);
                lines[j] = toks.join(" ");
            }
            format!("swap two tokens of line {}: `{}`", j + 1, lines[j])
        }
    };
    (
        lines.join("\n") + "\n",
        format!("registry module {k}, {edit}"),
    )
}

/// How far the cases of a [`run_mir_mutations`] run got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirFuzzCounts {
    /// Cases run.
    pub cases: u64,
    /// Cases the parser accepted.
    pub parsed: u64,
    /// Parsed cases `verify_module` accepted.
    pub verified: u64,
    /// Verified cases `translate` accepted.
    pub translated: u64,
}

/// Run `count` line-mutation cases of seed `seed0` through parse → verify
/// → translate. Each stage may refuse a case with its typed error; none
/// may panic, and a case that panics fails the run (a stack overflow
/// aborts the process, which fails it too).
///
/// # Errors
/// The first case that panicked, with its reproduction line.
pub fn run_mir_mutations(seed0: u64, count: u64) -> Result<MirFuzzCounts, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let texts = registry_texts();
    let mut counts = MirFuzzCounts::default();
    for i in 0..count {
        let (text, desc) = mutate_mir_text(&texts, seed0, i);
        let stage = catch_unwind(AssertUnwindSafe(|| {
            let Ok(m) = muir_mir::parser::parse_module(&text) else {
                return 0;
            };
            if muir_mir::verify::verify_module(&m).is_err() {
                return 1;
            }
            if translate(&m, &FrontendConfig::default()).is_err() {
                return 2;
            }
            3
        }))
        .map_err(|_| {
            format!(
                "mir fuzz case {i} panicked: {desc}\n  \
                 reproduce with: mutate_mir_text(&registry_texts(), 0x{seed0:x}, {i})"
            )
        })?;
        counts.cases += 1;
        counts.parsed += u64::from(stage >= 1);
        counts.verified += u64::from(stage >= 2);
        counts.translated += u64::from(stage >= 3);
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mir_mutations_are_reproducible() {
        let texts = registry_texts();
        for i in 0..32 {
            assert_eq!(mutate_mir_text(&texts, 7, i), mutate_mir_text(&texts, 7, i));
        }
        assert_ne!(mutate_mir_text(&texts, 7, 0), mutate_mir_text(&texts, 8, 0));
    }

    #[test]
    fn mir_mutation_smoke_small() {
        let c = run_mir_mutations(0x6d69, 200).unwrap();
        assert_eq!(c.cases, 200);
        assert!(c.parsed >= c.verified && c.verified >= c.translated);
        assert!(c.translated > 0 && c.parsed < 200, "{c:?}");
    }

    #[test]
    fn generated_cases_are_reproducible() {
        for seed in [1u64, 0xdead_beef, 0x1234_5678_9abc_def0] {
            let a = gen_case(seed, 2);
            let b = gen_case(seed, 2);
            assert_eq!(a.desc, b.desc);
            assert_eq!(a.init.1, b.init.1);
            assert_eq!(a.cfg.window, b.cfg.window);
            assert_eq!(a.fault_seed, b.fault_seed);
        }
    }

    #[test]
    fn generated_cases_are_verifier_clean() {
        for i in 0..12u64 {
            let seed = SplitMix64::salted(0x5eed, i).next_u64();
            for size in 0..=2u8 {
                let case = gen_case(seed, size);
                let acc = case.build();
                muir_core::verify::verify_accelerator(&acc)
                    .unwrap_or_else(|e| panic!("{}: verifier rejected: {e}", case.desc));
            }
        }
    }

    #[test]
    fn fuzz_smoke_small() {
        // A handful of full differential cases; the big corpus lives in
        // `tests/scheduler_diff.rs` and the `experiments fuzz` gate.
        run_seeds(0x0ace, 6).unwrap();
    }

    #[test]
    fn tensor_cases_are_reproducible() {
        for seed in [1u64, 0xdead_beef, 0x7e50_7e50] {
            let a = gen_tensor_case(seed, 2);
            let b = gen_tensor_case(seed, 2);
            assert_eq!(a.desc, b.desc);
            assert_eq!(a.graph.content_hash(), b.graph.content_hash());
            assert_eq!(a.inits, b.inits);
            assert_eq!(a.cfg.window, b.cfg.window);
        }
    }

    #[test]
    fn tensor_fuzz_smoke_small() {
        run_tensor_seeds(0x7e50, 3).unwrap();
    }
}
