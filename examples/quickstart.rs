//! Quickstart: the full μIR pipeline in ~60 lines.
//!
//! 1. Describe behaviour in the `mir` compiler IR (the LLVM/Tapir stand-in).
//! 2. Translate it to a baseline μIR accelerator graph.
//! 3. Measure it with the cycle-level simulator (verified against the
//!    reference interpreter).
//! 4. Transform the microarchitecture with a μopt pass and measure again.
//! 5. Lower to Chisel-like RTL.
//!
//! Run with: `cargo run --release --example quickstart`

use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::mir::builder::FunctionBuilder;
use muir::mir::instr::ValueRef;
use muir::mir::interp::{Interp, Memory};
use muir::mir::module::Module;
use muir::mir::types::ScalarType;
use muir::rtl::emit_chisel;
use muir::sim::{simulate_compiled, SimConfig};
use muir::uopt::passes::{MemoryLocalization, OpFusion};
use muir::uopt::PassManager;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Behaviour: y[i] = 3*x[i] + 1 over 256 elements.
    let mut module = Module::new("quickstart");
    let x = module.add_ro_mem_object("x", ScalarType::I32, 256);
    let y = module.add_mem_object("y", ScalarType::I32, 256);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&module);
    b.for_loop(0, ValueRef::int(256), 1, |b, i| {
        let v = b.load(x, i);
        let t = b.mul(v, ValueRef::int(3));
        let r = b.add(t, ValueRef::int(1));
        b.store(y, i, r);
    });
    b.ret(None);
    module.add_function(b.finish());

    // 2. Stage 1/2: derive the baseline accelerator microarchitecture.
    let mut acc = translate(&module, &FrontendConfig::default())?;
    println!(
        "baseline accelerator: {} task blocks, {} structures",
        acc.tasks.len(),
        acc.structures.len()
    );

    // 3. Seal (verify + lower once), simulate the sealed artifact, and
    //    verify against the interpreter.
    let mut ref_mem = Memory::from_module(&module);
    ref_mem.init_i64(x, &(0..256).collect::<Vec<_>>());
    Interp::new(&module).run_main(&mut ref_mem, &[])?;

    let mut mem = Memory::from_module(&module);
    mem.init_i64(x, &(0..256).collect::<Vec<_>>());
    let baseline = CompiledAccel::compile(&acc)?;
    let base = simulate_compiled(&baseline, &mut mem, &[], &SimConfig::default())?;
    assert_eq!(
        ref_mem.read_i64(y),
        mem.read_i64(y),
        "accelerator must match software"
    );
    println!("baseline: {} cycles", base.cycles);

    // 4. Stage 2': transform the microarchitecture, not the program, then
    //    seal the result into an immutable content-addressed artifact the
    //    simulator, cost model, and RTL emitter all share.
    let (comp, report) = PassManager::new()
        .with(MemoryLocalization)
        .with(OpFusion::default())
        .seal(&mut acc)?;
    for (name, delta) in &report.deltas {
        println!(
            "pass {name}: touched {} nodes, {} edges",
            delta.nodes, delta.edges
        );
    }
    println!("sealed artifact {:016x}", comp.content_hash());
    let mut mem = Memory::from_module(&module);
    mem.init_i64(x, &(0..256).collect::<Vec<_>>());
    let opt = simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())?;
    assert_eq!(ref_mem.read_i64(y), mem.read_i64(y));
    println!(
        "optimized: {} cycles ({:.2}x)",
        opt.cycles,
        base.cycles as f64 / opt.cycles as f64
    );

    // 5. Stage 3: lower to Chisel-like RTL from the same artifact.
    let rtl = emit_chisel(&comp);
    println!("\n--- generated RTL (first 25 lines) ---");
    for line in rtl.lines().take(25) {
        println!("{line}");
    }
    Ok(())
}
