//! Property-based tests over the toolchain's core invariants, driven by a
//! seeded in-tree RNG (no external fuzzing dependencies — the generator is
//! a splitmix64 stream, so every case is reproducible from its seed):
//!
//! * random straight-line programs: translate → simulate ≡ interpret;
//! * random loop programs with strided memory updates: same equivalence,
//!   plus μopt passes never change results;
//! * affine address analysis is consistent with concrete evaluation;
//! * the memory models never lose or duplicate transactions.

use muir::core::{Accelerator, CompiledAccel};
use muir::frontend::{translate, FrontendConfig};
use muir::mir::builder::FunctionBuilder;
use muir::mir::instr::{CmpPred, ValueRef};
use muir::mir::interp::{Interp, Memory};
use muir::mir::module::Module;
use muir::mir::types::{ScalarType, Type};
use muir::mir::value::Value;
use muir::sim::reference::check_lowering;
use muir::sim::{simulate_compiled, SimConfig, SimError, SimResult};
use muir::uopt::passes::{MemoryLocalization, OpFusion, ScratchpadBanking};
use muir::uopt::PassManager;

/// Seal `acc` and run it once (each case here simulates its graph a single
/// time, so the seal has no one to share with).
fn seal_and_run(
    acc: &Accelerator,
    mem: &mut Memory,
    args: &[Value],
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    let comp = CompiledAccel::compile(acc).expect("seal");
    simulate_compiled(&comp, mem, args, cfg)
}

/// Deterministic splitmix64 stream: the test-local stand-in for a property
/// testing framework's generator.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(hi > lo);
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    fn vec_i64(&mut self, n: usize, lo: i64, hi: i64) -> Vec<i64> {
        (0..n).map(|_| self.range(lo, hi)).collect()
    }
}

/// A small random integer expression over two operands.
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

fn random_ops(g: &mut Gen) -> Vec<ExprOp> {
    let len = g.range(1, 6) as usize;
    (0..len)
        .map(|_| OPS[g.range(0, OPS.len() as i64) as usize])
        .collect()
}

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

/// Build `out[i] = f(a[i], i)` where `f` is a random op chain.
fn random_loop_module(
    ops: &[ExprOp],
    n: i64,
) -> (
    Module,
    muir::mir::instr::MemObjId,
    muir::mir::instr::MemObjId,
) {
    let mut m = Module::new("prop");
    let a = m.add_ro_mem_object("a", ScalarType::I32, n as u64);
    let out = m.add_mem_object("out", ScalarType::I32, n as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let ops = ops.to_vec();
    b.for_loop(0, ValueRef::int(n), 1, move |b, i| {
        let v = b.load(a, i);
        let mut cur = v;
        for &op in &ops {
            cur = apply(b, op, cur, i);
        }
        b.store(out, i, cur);
    });
    b.ret(None);
    m.add_function(b.finish());
    (m, a, out)
}

/// Any random op-chain loop: the simulated accelerator computes exactly
/// what the interpreter computes.
#[test]
fn simulated_accelerator_matches_interpreter() {
    for case in 0..24u64 {
        let mut g = Gen::new(0x51a0 + case);
        let ops = random_ops(&mut g);
        let data = g.vec_i64(16, -100, 100);
        let n = data.len() as i64;
        let (m, a, out) = random_loop_module(&ops, n);
        let acc = translate(&m, &FrontendConfig::default()).unwrap();

        let mut ref_mem = Memory::from_module(&m);
        ref_mem.init_i64(a, &data);
        Interp::new(&m).run_main(&mut ref_mem, &[]).unwrap();

        let mut sim_mem = Memory::from_module(&m);
        sim_mem.init_i64(a, &data);
        seal_and_run(&acc, &mut sim_mem, &[], &SimConfig::default()).unwrap();
        assert_eq!(
            ref_mem.read_i64(out),
            sim_mem.read_i64(out),
            "case {case}: ops {ops:?}"
        );
    }
}

/// μopt passes never change what a random program computes.
#[test]
fn passes_preserve_random_programs() {
    for case in 0..24u64 {
        let mut g = Gen::new(0xbeef + case);
        let ops = random_ops(&mut g);
        let data = g.vec_i64(16, -50, 50);
        let banks = g.range(1, 5) as u32;
        let n = data.len() as i64;
        let (m, a, out) = random_loop_module(&ops, n);
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        PassManager::new()
            .with(MemoryLocalization::default())
            .with(ScratchpadBanking { banks })
            .with(OpFusion::default())
            .run(&mut acc)
            .unwrap();

        let mut ref_mem = Memory::from_module(&m);
        ref_mem.init_i64(a, &data);
        Interp::new(&m).run_main(&mut ref_mem, &[]).unwrap();

        let mut sim_mem = Memory::from_module(&m);
        sim_mem.init_i64(a, &data);
        seal_and_run(&acc, &mut sim_mem, &[], &SimConfig::default()).unwrap();
        assert_eq!(
            ref_mem.read_i64(out),
            sim_mem.read_i64(out),
            "case {case}: ops {ops:?} banks {banks}"
        );
    }
}

/// Predicated programs (if/else over a comparison) stay equivalent.
#[test]
fn predication_matches_interpreter() {
    for case in 0..16u64 {
        let mut g = Gen::new(0x97ed + case);
        let threshold = g.range(-20, 20);
        let data = g.vec_i64(16, -30, 30);
        let n = data.len() as i64;
        let mut m = Module::new("pred");
        let a = m.add_ro_mem_object("a", ScalarType::I32, n as u64);
        let out = m.add_mem_object("out", ScalarType::I32, n as u64);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(n), 1, move |b, i| {
            let v = b.load(a, i);
            let c = b.icmp(CmpPred::Lt, v, ValueRef::int(threshold));
            let r = b.if_val(
                c,
                &[Type::I64],
                |b| vec![b.mul(ValueRef::Instr(v.as_instr().unwrap()), ValueRef::int(2))],
                |b| vec![b.sub(ValueRef::Instr(v.as_instr().unwrap()), ValueRef::int(1))],
            );
            b.store(out, i, r[0]);
        });
        b.ret(None);
        m.add_function(b.finish());

        let acc = translate(&m, &FrontendConfig::default()).unwrap();
        let mut ref_mem = Memory::from_module(&m);
        ref_mem.init_i64(a, &data);
        Interp::new(&m).run_main(&mut ref_mem, &[]).unwrap();
        let mut sim_mem = Memory::from_module(&m);
        sim_mem.init_i64(a, &data);
        seal_and_run(&acc, &mut sim_mem, &[], &SimConfig::default()).unwrap();
        assert_eq!(ref_mem.read_i64(out), sim_mem.read_i64(out), "case {case}");
    }
}

/// Reduction loops with a register accumulator.
#[test]
fn reductions_match_interpreter() {
    for case in 0..12u64 {
        let mut g = Gen::new(0xacc0 + case);
        let data = g.vec_i64(24, -40, 40);
        let init = g.range(-10, 10);
        let n = data.len() as i64;
        let mut m = Module::new("red");
        let a = m.add_ro_mem_object("a", ScalarType::I32, n as u64);
        let out = m.add_mem_object("out", ScalarType::I32, 1);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        let accs = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(n),
            1,
            &[(ValueRef::int(init), Type::I64)],
            |b, i, accs| {
                let _ = i;
                let v = b.load(a, i);
                vec![b.add(accs[0], v)]
            },
        );
        b.store(out, ValueRef::int(0), accs[0]);
        b.ret(None);
        m.add_function(b.finish());

        let acc_graph = translate(&m, &FrontendConfig::default()).unwrap();
        let expect: i64 = init + data.iter().sum::<i64>();
        let mut sim_mem = Memory::from_module(&m);
        sim_mem.init_i64(a, &data);
        seal_and_run(&acc_graph, &mut sim_mem, &[], &SimConfig::default()).unwrap();
        assert_eq!(sim_mem.read_i64(out)[0], expect, "case {case}");

        // And with the accumulator re-timed into a FusedAcc unit.
        let mut fused = translate(&m, &FrontendConfig::default()).unwrap();
        PassManager::new()
            .with(OpFusion::default())
            .run(&mut fused)
            .unwrap();
        let mut sim_mem2 = Memory::from_module(&m);
        sim_mem2.init_i64(a, &data);
        seal_and_run(&fused, &mut sim_mem2, &[], &SimConfig::default()).unwrap();
        assert_eq!(sim_mem2.read_i64(out)[0], expect, "case {case} (fused)");
    }
}

/// The affine analysis agrees with concrete address arithmetic:
/// `idx = i*scale + offset` is recognised with those exact constants.
#[test]
fn affine_analysis_matches_concrete() {
    use muir::mir::analysis::{affine_of, induction_var, natural_loops, Affine};
    for case in 0..16u64 {
        let mut g = Gen::new(0xaff1 + case);
        let scale = g.range(1, 8);
        let offset = g.range(0, 16);
        let mut m = Module::new("aff");
        let a = m.add_mem_object("a", ScalarType::I32, 256);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(8), 1, move |b, i| {
            let s = b.mul(i, ValueRef::int(scale));
            let idx = b.add(s, ValueRef::int(offset));
            b.store(a, idx, i);
        });
        b.ret(None);
        let f = b.finish();
        m.add_function(f);
        let f = m.main().unwrap();
        let loops = natural_loops(f, &f.predecessors());
        let iv = induction_var(f, &loops[0]).unwrap();
        let addr = f
            .instrs
            .iter()
            .find_map(|ins| match ins.op {
                muir::mir::instr::Op::Store { .. } => Some(ins.operands[0]),
                _ => None,
            })
            .unwrap();
        match affine_of(f, addr, iv, &loops[0].blocks) {
            Affine::Affine {
                scale: s,
                konst,
                syms,
            } => {
                assert_eq!(s, scale, "case {case}");
                assert_eq!(konst, offset, "case {case}");
                assert!(syms.is_empty(), "case {case}");
            }
            Affine::Opaque => panic!("case {case}: expected affine form"),
        }
    }
}

/// Scratchpad model conservation: every submitted element is serviced
/// exactly once, regardless of banking.
#[test]
fn scratchpad_conserves_transactions() {
    use muir::core::structure::{Structure, StructureKind};
    use muir::sim::memory::{MemRequest, StructModel};
    for case in 0..16u64 {
        let mut g = Gen::new(0x5bad + case);
        let naddrs = g.range(1, 24) as usize;
        let addrs: Vec<u64> = (0..naddrs).map(|_| g.range(0, 64) as u64).collect();
        let banks = g.range(1, 5) as u32;
        let mut s = Structure::scratchpad("s", 64);
        if let StructureKind::Scratchpad { banks: b, .. } = &mut s.kind {
            *b = banks;
        }
        let mut model = StructModel::new(&s);
        for (i, &a) in addrs.iter().enumerate() {
            model.submit(MemRequest {
                id: i as u64 + 1,
                base: a,
                n: 1,
                is_write: false,
            });
        }
        let mut responses = Vec::new();
        for c in 0..10_000 {
            model.tick(c, None, &mut responses);
            if responses.len() == addrs.len() {
                break;
            }
        }
        let mut done: Vec<u64> = responses.iter().map(|r| r.id).collect();
        done.sort_unstable();
        let expect: Vec<u64> = (1..=addrs.len() as u64).collect();
        assert_eq!(done, expect, "case {case}");
        assert!(model.is_idle(), "case {case}");
    }
}

/// Single-fault robustness: dropping any one token on a ready/valid edge
/// either surfaces as a typed fault/hang or the run's outputs still match
/// the reference — and a completed-but-corrupted run always carries the
/// injected-fault flag in its stats. Silent wrong answers are impossible.
#[test]
fn single_token_drop_is_never_silent() {
    use muir::sim::{FaultClass, FaultPlan, SimError};
    for case in 0..16u64 {
        let mut g = Gen::new(0xd509 + case);
        let ops = random_ops(&mut g);
        let data = g.vec_i64(16, -100, 100);
        let n = data.len() as i64;
        let (m, a, out) = random_loop_module(&ops, n);
        let acc = translate(&m, &FrontendConfig::default()).unwrap();

        let mut ref_mem = Memory::from_module(&m);
        ref_mem.init_i64(a, &data);
        Interp::new(&m).run_main(&mut ref_mem, &[]).unwrap();

        let mut sim_mem = Memory::from_module(&m);
        sim_mem.init_i64(a, &data);
        let cfg = SimConfig {
            deadlock_cycles: 5_000,
            max_cycles: 2_000_000,
            faults: FaultPlan::single(FaultClass::TokenDrop, 0xfa17 + case),
            ..SimConfig::default()
        };
        match seal_and_run(&acc, &mut sim_mem, &[], &cfg) {
            Err(SimError::Fault { .. })
            | Err(SimError::Deadlock { .. })
            | Err(SimError::CycleLimitExhausted { .. }) => {}
            Err(other) => panic!("case {case}: unexpected error class: {other}"),
            Ok(r) => {
                let matches = ref_mem.read_i64(out) == sim_mem.read_i64(out);
                assert!(
                    matches || r.stats.faults_injected() > 0,
                    "case {case}: ops {ops:?}: silent corruption without a fault flag"
                );
            }
        }
    }
}

/// Both schedulers compute the same thing: random loop programs, sealed
/// once and held to the reference lowering, run under Dense and Ready must
/// agree on cycles, results, and memory — and match the interpreter.
#[test]
fn schedulers_agree_on_random_programs() {
    use muir::sim::SchedulerKind;
    for case in 0..12u64 {
        let mut g = Gen::new(0x3a11 + case);
        let ops = random_ops(&mut g);
        let data = g.vec_i64(16, -100, 100);
        let n = data.len() as i64;
        let (m, a, out) = random_loop_module(&ops, n);
        let acc = translate(&m, &FrontendConfig::default()).unwrap();
        let comp = CompiledAccel::compile(&acc).unwrap();
        check_lowering(&comp).unwrap_or_else(|e| panic!("case {case}: lowering: {e}"));

        let mut ref_mem = Memory::from_module(&m);
        ref_mem.init_i64(a, &data);
        Interp::new(&m).run_main(&mut ref_mem, &[]).unwrap();
        let expect = ref_mem.read_i64(out);

        let run = |scheduler: SchedulerKind| {
            let mut mem = Memory::from_module(&m);
            mem.init_i64(a, &data);
            let cfg = SimConfig::default().with_scheduler(scheduler);
            let r = simulate_compiled(&comp, &mut mem, &[], &cfg).unwrap();
            (r.cycles, r.stats.fires, mem.read_i64(out))
        };
        let dense = run(SchedulerKind::Dense);
        assert_eq!(dense.2, expect, "case {case}: dense vs interpreter");
        assert_eq!(dense, run(SchedulerKind::Ready), "case {case}: ready");
    }
}
