//! Seeded case generators, their checks, and the one fuzz loop that runs
//! them.
//!
//! A [`Target`] is a name, a largest size, and a function that generates
//! case `i` of a run seed at a size and checks it. [`fuzz`] runs `count`
//! cases of a target: it tallies the stages each case reached, catches a
//! panic, shrinks a failure by size, and prints one reproduction line,
//! `testgen::replay("<target>", 0x<seed0>, <i>, <size>)`. The targets:
//!
//! * `graphs` — `gen_case` derives a verifier-clean module, its input
//!   data, the μopt passes to apply and the simulation dimensions from one
//!   `splitmix64` seed. `check_case` seals it once, holds the sealed
//!   tables to the reference lowering, runs `sched::dense_vs_ready` in
//!   plain, traced and seeded-fault legs, and requires the fault-free legs
//!   to complete with the `muir-mir` interpreter's memory.
//! * `tensor` — `gen_tensor_case` lowers a seeded tensor-op graph; its
//!   check adds the graph evaluator in front of the same differential.
//! * `mir` — `mutate_mir_text` edits one line of a printed registry
//!   module; parse → verify → translate may refuse it with a typed error
//!   but must not panic.
//!
//! The size knob bounds trip counts, op-chain depth and structural
//! features, so a failure at the largest size is re-checked at the
//! smaller ones and reported at the smallest that fails.

use crate::sched::{completes_like, dense_vs_ready};
use muir_core::compiled::CompiledAccel;
use muir_core::rng::SplitMix64;
use muir_frontend::{translate, FrontendConfig};
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::{CmpPred, MemObjId, ValueRef};
use muir_mir::interp::{Interp, Memory};
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, Type};
use muir_sim::{FaultClass, FaultPlan, SimConfig};
use muir_uopt::passes::{
    ExecutionTiling, MemoryLocalization, OpFusion, ScratchpadBanking, TaskFilter,
};
use muir_uopt::PassManager;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

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
            pm = pm.with(MemoryLocalization);
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
    pub(crate) fn fresh_memory(&self) -> Memory {
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

/// Seal `acc` and run [`dense_vs_ready`] with `faults`; the fault-free legs
/// must complete with the memory the interpreter left in `want` (a hang
/// there is a generator or engine bug, where the faulted leg may hang or
/// raise a typed fault, as long as both schedulers fail alike).
fn check_sealed(
    desc: &str,
    acc: &muir_core::accel::Accelerator,
    fresh: &dyn Fn() -> Memory,
    cfg: &SimConfig,
    faults: &FaultPlan,
    want: &Memory,
) -> Result<(), String> {
    // A graph the verifier rejects is a generator bug.
    let comp = CompiledAccel::compile(acc).map_err(|e| format!("{desc}: seal: {e}"))?;
    dense_vs_ready(&comp, &[], fresh, cfg, Some(faults))
        .and_then(|dense| completes_like(&dense, want))
        .map_err(|e| format!("{desc}: {e}"))
}

/// Differentially check one generated case: the interpreter's memory,
/// then [`check_sealed`] with the case's μopt passes and fault plan.
///
/// # Errors
/// The first divergence, naming the case and the leg.
pub(crate) fn check_case(case: &GenCase) -> Result<(), String> {
    let mut want = case.fresh_memory();
    Interp::new(&case.module)
        .run_main(&mut want, &[])
        .map_err(|e| format!("{}: reference interpreter: {e}", case.desc))?;
    let faults = FaultPlan::single(case.fault_class, case.fault_seed);
    let fresh = || case.fresh_memory();
    check_sealed(&case.desc, &case.build(), &fresh, &case.cfg, &faults, &want)
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
    /// The case's fault-leg plan.
    pub faults: FaultPlan,
    /// Human-readable summary for failure reports.
    pub desc: String,
}

impl TensorCase {
    /// Fresh memory with the case's inputs loaded.
    pub(crate) fn fresh_memory(&self) -> Memory {
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
    let class = FaultClass::ALL[rng.below(FaultClass::ALL.len() as u64) as usize];
    let faults = FaultPlan::single(class, rng.next_u64());
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
        faults,
        desc,
    }
}

/// Differentially check one tensor-graph case: the graph-level evaluator
/// against the `muir-mir` interpreter over the lowered module (to float
/// tolerance — chunked dot products reassociate), then [`check_sealed`]
/// on its translation, bit for bit.
///
/// # Errors
/// The first divergence, naming the case and the leg.
pub(crate) fn check_tensor_case(case: &TensorCase) -> Result<(), String> {
    // Layer 1: graph evaluator vs lowered-module interpreter.
    let inputs: Vec<Vec<f32>> = case.inits.iter().map(|(_, d)| d.clone()).collect();
    let evaluated = case
        .graph
        .eval(&inputs)
        .map_err(|e| format!("{}: graph eval: {e}", case.desc))?;
    let mut want = case.fresh_memory();
    Interp::new(&case.lowered.module)
        .run_main(&mut want, &[])
        .map_err(|e| format!("{}: reference interpreter: {e}", case.desc))?;
    let got = want.read_f32(case.lowered.output);
    if evaluated.len() != got.len() {
        return Err(format!(
            "{}: output length {} vs {}",
            case.desc,
            evaluated.len(),
            got.len()
        ));
    }
    for (i, (x, y)) in evaluated.iter().zip(&got).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        if (x - y).abs() > 1e-4 * scale {
            return Err(format!(
                "{}: lowering diverged from graph eval at [{i}]: {x} vs {y}",
                case.desc
            ));
        }
    }
    // Layer 2: the sealed artifact.
    let acc = translate(&case.lowered.module, &FrontendConfig::default())
        .map_err(|e| format!("{}: translate: {e}", case.desc))?;
    let fresh = || case.fresh_memory();
    check_sealed(&case.desc, &acc, &fresh, &case.cfg, &case.faults, &want)
}

/// The 24 registry modules as `print_module` text: the corpus the mir
/// line-mutation fuzzer mutates, printed once per process.
pub(crate) fn registry_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        muir_workloads::REGISTRY
            .iter()
            .map(|e| muir_mir::printer::print_module(&(e.build)().module))
            .collect()
    })
}

/// Mutation case `i` of seed `seed0`: one seeded line-level edit of one
/// corpus text — delete, swap or duplicate a line, rewrite one digit, or
/// swap two whitespace-separated tokens within a line. Returns the mutated
/// text and a one-line description of the edit.
pub(crate) fn mutate_mir_text(texts: &[String], seed0: u64, i: u64) -> (String, String) {
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

/// A fuzz target: named cases generated from `(seed0, i, size)`, each
/// with a check.
pub struct Target {
    /// `experiments fuzz <name>`, and the first argument of a repro line.
    pub name: &'static str,
    /// The size [`fuzz`] generates cases at; a failure is shrunk through
    /// the smaller ones.
    pub max_size: u8,
    /// The stages a case can reach, in order.
    pub stages: &'static [&'static str],
    /// Generate case `i` of run seed `seed0` at `size` and check it: how
    /// many of `stages` it reached, or why it failed.
    pub run: fn(seed0: u64, i: u64, size: u8) -> Result<usize, String>,
}

/// Case `i` of a `graphs` run.
fn graph_case(seed0: u64, i: u64, size: u8) -> GenCase {
    gen_case(SplitMix64::salted(seed0, i).next_u64(), size)
}

/// Case `i` of a `tensor` run.
fn tensor_case(seed0: u64, i: u64, size: u8) -> TensorCase {
    gen_tensor_case(SplitMix64::salted(seed0 ^ 0x7e50, i).next_u64(), size)
}

/// Case `i` of a `mir` run through parse → verify → translate: each stage
/// may refuse it with its typed error.
fn mir_stages(seed0: u64, i: u64, _size: u8) -> Result<usize, String> {
    let (text, _) = mutate_mir_text(registry_texts(), seed0, i);
    let Ok(m) = muir_mir::parser::parse_module(&text) else {
        return Ok(0);
    };
    if muir_mir::verify::verify_module(&m).is_err() {
        return Ok(1);
    }
    Ok(if translate(&m, &FrontendConfig::default()).is_ok() {
        3
    } else {
        2
    })
}

/// Every fuzz target. Each derives its cases from `(seed0, i, size)`
/// alone, so a run seed names one corpus.
const TARGETS: &[Target] = &[
    Target {
        name: "graphs",
        max_size: 2,
        stages: &["passed"],
        run: |seed0, i, size| check_case(&graph_case(seed0, i, size)).map(|()| 1),
    },
    Target {
        name: "tensor",
        max_size: 2,
        stages: &["passed"],
        run: |seed0, i, size| check_tensor_case(&tensor_case(seed0, i, size)).map(|()| 1),
    },
    Target {
        name: "mir",
        max_size: 0,
        stages: &["parsed", "verified", "translated"],
        run: mir_stages,
    },
    #[cfg(test)]
    tests::PANICS_ON_3,
];

/// The target called `name`.
pub fn target(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// Run cases `0..count` of `target` from run seed `seed0` at its largest
/// size, and count the cases that reached each of its stages.
///
/// # Errors
/// The first case that failed or panicked, re-checked at each smaller size
/// and reported at the smallest that still fails, with its repro line. (A
/// stack overflow aborts the process; that fails the run too.)
pub fn fuzz(target: &Target, seed0: u64, count: u64) -> Result<Vec<u64>, String> {
    let mut reached = vec![0; target.stages.len()];
    for i in 0..count {
        let full = match attempt(target, seed0, i, target.max_size) {
            Ok(n) => {
                reached[..n].iter_mut().for_each(|r| *r += 1);
                continue;
            }
            Err(e) => e,
        };
        let (size, e) = (0..target.max_size)
            .find_map(|size| attempt(target, seed0, i, size).err().map(|e| (size, e)))
            .unwrap_or((target.max_size, full));
        let name = target.name;
        return Err(format!(
            "fuzz {name} case {i} failed at size {size}: {e}\n  \
             reproduce with: testgen::replay(\"{name}\", 0x{seed0:x}, {i}, {size})"
        ));
    }
    Ok(reached)
}

/// One case, a panic turned into an `Err` carrying its message.
fn attempt(target: &Target, seed0: u64, i: u64, size: u8) -> Result<usize, String> {
    catch_unwind(AssertUnwindSafe(|| (target.run)(seed0, i, size)))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(p.as_ref()))))
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// Re-run one case as [`fuzz`] ran it, without catching a panic: what a
/// repro line calls.
///
/// # Errors
/// The case's failure, or an unknown target.
pub fn replay(target: &str, seed0: u64, i: u64, size: u8) -> Result<usize, String> {
    let t = self::target(target).ok_or_else(|| format!("unknown fuzz target `{target}`"))?;
    (t.run)(seed0, i, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Panics on case 3, at every size.
    pub(super) const PANICS_ON_3: Target = Target {
        name: "panics-on-3",
        max_size: 1,
        stages: &[],
        run: |_, i, _| {
            if i == 3 {
                panic!("case 3 panics");
            }
            Ok(0)
        },
    };

    #[test]
    fn mir_mutations_are_reproducible() {
        let texts = registry_texts();
        for i in 0..32 {
            assert_eq!(mutate_mir_text(texts, 7, i), mutate_mir_text(texts, 7, i));
        }
        assert_ne!(mutate_mir_text(texts, 7, 0), mutate_mir_text(texts, 8, 0));
    }

    /// The first cases of each target at its default seed: a change to a
    /// target's seed derivation moves its corpus and fails here.
    #[test]
    fn corpora_are_pinned() {
        let graphs: Vec<String> = (0..3).map(|i| graph_case(0xf022, i, 2).desc).collect();
        assert_eq!(
            graphs,
            [
                "gen_case(0xb49773d23ffede78, 2): Predicated n=27 ops=2 class=mem-ecc",
                "gen_case(0xd133e33560ef4c49, 2): Spawn n=19 ops=1 class=token-dup",
                "gen_case(0xafe5586386487076, 2): Reduce n=28 ops=2 class=token-drop",
            ]
        );
        let tensor: Vec<String> = (0..3).map(|i| tensor_case(0x7e50, i, 2).desc).collect();
        assert_eq!(
            tensor,
            [
                "gen_tensor_case(0xe220a8397b1dcdaf, 2): 4 inputs, 5 nodes, 0 fused",
                "gen_tensor_case(0x6e789e6aa1b965f4, 2): 3 inputs, 3 nodes, 0 fused",
                "gen_tensor_case(0x06c45d188009454f, 2): 4 inputs, 5 nodes, 1 fused",
            ]
        );
        let mir: Vec<String> = (0..3)
            .map(|i| mutate_mir_text(registry_texts(), 0x6d69, i).1)
            .collect();
        assert_eq!(
            mir,
            [
                "registry module 6, rewrite a digit of line 11: `  condbr %2, bb2, bb5`",
                "registry module 13, duplicate line 12: `  %1 = phi [0, bb0], [%30, bb6] : i64`",
                "registry module 10, swap lines 41 and 19",
            ]
        );
    }

    #[test]
    fn a_panicking_case_ends_the_run_with_its_repro_line() {
        let e = fuzz(&PANICS_ON_3, 0x5eed, 10).unwrap_err();
        let repro = "reproduce with: testgen::replay(\"panics-on-3\", 0x5eed, 3, 0)";
        assert!(
            e.starts_with("fuzz panics-on-3 case 3 failed at size 0: panicked: case 3 panics"),
            "{e}"
        );
        assert!(e.ends_with(repro), "{e}");
        let replayed = catch_unwind(|| replay("panics-on-3", 0x5eed, 3, 0)).unwrap_err();
        assert_eq!(panic_text(replayed.as_ref()), "case 3 panics");
        assert_eq!(replay("panics-on-3", 0x5eed, 2, 0), Ok(0));
    }

    #[test]
    fn every_target_smoke_small() {
        for (name, seed0, count, want) in [
            ("graphs", 0x0ace, 6, &[6][..]),
            ("tensor", 0x7e50, 3, &[3]),
            ("mir", 0x6d69, 200, &[135, 75, 68]),
        ] {
            let t = target(name).unwrap();
            assert_eq!(fuzz(t, seed0, count), Ok(want.to_vec()), "{name}");
        }
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
    fn tensor_cases_are_reproducible() {
        for seed in [1u64, 0xdead_beef, 0x7e50_7e50] {
            let a = gen_tensor_case(seed, 2);
            let b = gen_tensor_case(seed, 2);
            assert_eq!(a.desc, b.desc);
            assert_eq!(a.graph.content_hash(), b.graph.content_hash());
            assert_eq!(a.inits, b.inits);
            assert_eq!(a.cfg.window, b.cfg.window);
            assert_eq!(a.faults, b.faults);
        }
    }
}
