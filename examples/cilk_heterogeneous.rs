//! The paper's running example (Figure 4): a Cilk parallel loop that spawns
//! a scalar multiply on even iterations and a 2×2 tensor multiply on odd
//! iterations — a *heterogeneous* parallel accelerator with two different
//! worker blocks.
//!
//! This walks the exact transformation sequence of Figure 8:
//! Pass 1 task queueing → Pass 2 execution tiling → Pass 3 local
//! scratchpads → Pass 4 banking → Pass 5 fusion, printing cycles after
//! each pass, and ends with the auto-generated Chisel (compare the paper's
//! Figure 4 listing) and the GraphViz dump.
//!
//! Run with: `cargo run --release --example cilk_heterogeneous`

use muir::core::stats::graph_stats;
use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::mir::builder::FunctionBuilder;
use muir::mir::instr::{CmpPred, TensorOp, ValueRef};
use muir::mir::interp::{Interp, Memory};
use muir::mir::module::Module;
use muir::mir::types::{ScalarType, TensorShape};
use muir::rtl::emit_chisel;
use muir::sim::{simulate_compiled, SimConfig};
use muir::uopt::passes::{
    ExecutionTiling, MemoryLocalization, OpFusion, ScratchpadBanking, TaskQueueing,
};
use muir::uopt::{Pass, PassManager};

const N: i64 = 128;

fn build() -> Module {
    let shape = TensorShape::new(2, 2);
    let mut m = Module::new("cilk_hetero");
    // Scalar operands (N/2 each) and tile-major tensor operands (N/2 tiles).
    let left = m.add_ro_mem_object("left", ScalarType::I32, (N / 2) as u64);
    let right = m.add_ro_mem_object("right", ScalarType::I32, (N / 2) as u64);
    let result = m.add_mem_object("result", ScalarType::I32, (N / 2) as u64);
    let left2d = m.add_ro_mem_object("left2D", ScalarType::F32, (N / 2 * 4) as u64);
    let right2d = m.add_ro_mem_object("right2D", ScalarType::F32, (N / 2 * 4) as u64);
    let result2d = m.add_mem_object("result2D", ScalarType::F32, (N / 2 * 4) as u64);

    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, N, 1, |b, i| {
        let half = b.div(i, ValueRef::int(2));
        let parity = b.rem(i, ValueRef::int(2));
        let is_even = b.icmp(CmpPred::Eq, parity, ValueRef::int(0));
        b.if_then(is_even, |b| {
            // Uint32 multiply (the paper's even iterations).
            let l = b.load(left, half);
            let r = b.load(right, half);
            let p = b.mul(l, r);
            b.store(result, half, p);
        });
        let is_odd = b.icmp(CmpPred::Eq, parity, ValueRef::int(1));
        b.if_then(is_odd, |b| {
            // 2D tensor multiply (the odd iterations).
            let off = b.mul(half, ValueRef::int(4));
            let lt = b.load_tile(left2d, off, TensorShape::new(2, 2));
            let rt = b.load_tile(right2d, off, TensorShape::new(2, 2));
            let p = b.tensor2(TensorOp::MatMul, TensorShape::new(2, 2), lt, rt);
            b.store(result2d, off, p);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let _ = shape;
    m
}

fn run(m: &Module, comp: &CompiledAccel) -> u64 {
    let mut mem = Memory::from_module(m);
    init(m, &mut mem);
    let r = simulate_compiled(comp, &mut mem, &[], &SimConfig::default()).expect("simulate");
    // Verify against software.
    let mut ref_mem = Memory::from_module(m);
    init(m, &mut ref_mem);
    Interp::new(m).run_main(&mut ref_mem, &[]).expect("interp");
    assert_eq!(ref_mem.objects, mem.objects, "hardware must match software");
    r.cycles
}

fn init(m: &Module, mem: &mut Memory) {
    use muir::mir::instr::MemObjId;
    let n = (N / 2) as usize;
    mem.init_i64(MemObjId(0), &(1..=n as i64).collect::<Vec<_>>());
    mem.init_i64(
        MemObjId(1),
        &(0..n as i64).map(|x| x % 9 + 1).collect::<Vec<_>>(),
    );
    let f: Vec<f32> = (0..n * 4).map(|k| (k % 13) as f32 * 0.25).collect();
    mem.init_f32(MemObjId(3), &f);
    mem.init_f32(MemObjId(4), &f);
    let _ = m;
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = build();
    let mut acc = translate(&m, &FrontendConfig::default())?;
    let s = graph_stats(&acc);
    println!(
        "Figure 4 accelerator: {} task blocks, {} nodes, {} edges, pipeline depth {}",
        s.tasks, s.nodes, s.edges, s.pipeline_depth
    );
    // Seal (verify + lower) once per design point: the sealed artifact is
    // what the simulator runs and what the RTL emitter reads.
    let mut comp = CompiledAccel::compile(&acc)?;
    let mut cycles = run(&m, &comp);
    println!("{:<28} {:>8} cycles", "baseline", cycles);

    // Figure 8's pass sequence, one at a time.
    let passes: Vec<(&str, Box<dyn Pass>)> = vec![
        ("pass 1: task queueing", Box::new(TaskQueueing::all(8))),
        (
            "pass 2: execution tiling x4",
            Box::new(ExecutionTiling::spawned(4)),
        ),
        (
            "pass 3: local scratchpads",
            Box::new(MemoryLocalization::default()),
        ),
        (
            "pass 4: scratchpad banking",
            Box::new(ScratchpadBanking { banks: 4 }),
        ),
        ("pass 5: fusion + re-timing", Box::new(OpFusion::default())),
    ];
    for (label, pass) in passes {
        let mut pm = PassManager::new();
        pm.push(pass);
        (comp, _) = pm.seal(&mut acc)?;
        let c = run(&m, &comp);
        println!(
            "{label:<28} {c:>8} cycles ({:.2}x)",
            cycles as f64 / c as f64
        );
        cycles = c;
    }

    println!("\n--- auto-generated Chisel (top level) ---");
    let rtl = emit_chisel(&comp);
    let top = rtl.find("class Accelerator").unwrap_or(0);
    for line in rtl[top..].lines().take(30) {
        println!("{line}");
    }
    println!("\n(GraphViz available via muir::core::dot::to_dot)");
    Ok(())
}
