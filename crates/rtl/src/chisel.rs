//! Chisel-like RTL emission, mirroring the paper's auto-generated listings
//! (Figure 4: whole-accelerator class; Figure 6: per-task `TaskModule`).
//!
//! Computer architects never edit this output — it exists to demonstrate
//! the lowering path and to make generated designs inspectable.

use muir_core::accel::{Accelerator, TaskKind};
use muir_core::compiled::CompiledAccel;
use muir_core::dataflow::EdgeKind;
use muir_core::node::{NodeKind, OpKind};
use muir_core::structure::StructureKind;
use muir_mir::instr::ConstVal;
use muir_mir::types::Type;
use std::fmt::Write;

/// Emit the full Chisel-like source for a sealed accelerator artifact.
///
/// RTL emission consumes the same verified [`CompiledAccel`] the simulator
/// and cost model use, so emitted RTL always corresponds to a graph that
/// passed verification, and the header records the artifact's content
/// hash for provenance.
///
/// The text is written straight into the one returned `String`: fixed
/// text, mnemonics, names and integers are appended as they are, and only
/// values whose text is a `Display`/`Debug` rendering (float constants,
/// vector and tensor types, comparison and tensor ops, loop bounds, the
/// header hash) go through the formatter.
pub fn emit_chisel(comp: &CompiledAccel) -> String {
    let acc = comp.accel();
    let mut out = String::with_capacity(size_hint(acc));
    out.push_str("// Auto-generated from muIR graph `");
    out.push_str(&acc.name);
    let _ = write!(out, "` (artifact {:016x})", comp.content_hash());
    out.push_str(" — do not edit.\npackage accel\n\n");
    for ti in 0..acc.tasks.len() {
        emit_task_module(&mut out, acc, ti);
    }
    emit_top(&mut out, acc);
    out
}

/// A little over the emitted length of a typical design, so the buffer
/// rarely regrows: bytes per node, edge, registration and task.
fn size_hint(acc: &Accelerator) -> usize {
    let per_task: usize = acc
        .tasks
        .iter()
        .map(|t| {
            let df = &t.dataflow;
            let regs: usize = df
                .junctions
                .iter()
                .map(|j| j.readers.len() + j.writers.len())
                .sum();
            320 + 56 * df.nodes.len() + 40 * df.edges.len() + 40 * regs
        })
        .sum();
    per_task + 64 * (acc.structures.len() + acc.task_conns.len() + acc.mem_conns.len()) + 512
}

/// Append the decimal digits of `v`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append `v` in decimal, with a sign when negative.
fn push_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Append the task's class name: its name with every run of
/// non-alphanumeric characters dropped and the character after it
/// capitalised, or `Task{ti}` when nothing is left.
fn push_class_name(out: &mut String, acc: &Accelerator, ti: usize) {
    let start = out.len();
    let mut cap = true;
    for c in acc.tasks[ti].name.chars() {
        if c.is_alphanumeric() {
            out.push(if cap { c.to_ascii_uppercase() } else { c });
            cap = false;
        } else {
            cap = true;
        }
    }
    if out.len() == start {
        out.push_str("Task");
        push_u64(out, ti as u64);
    }
}

/// Append an op's mnemonic.
fn push_op(out: &mut String, op: OpKind) {
    match op {
        OpKind::Bin(b) => out.push_str(b.mnemonic()),
        OpKind::Un(u) => out.push_str(u.mnemonic()),
        _ => {
            let _ = write!(out, "{op}");
        }
    }
}

/// Append a value type.
fn push_type(out: &mut String, ty: Type) {
    match ty {
        Type::Scalar(s) => out.push_str(s.name()),
        _ => {
            let _ = write!(out, "{ty}");
        }
    }
}

fn emit_task_module(out: &mut String, acc: &Accelerator, ti: usize) {
    let task = &acc.tasks[ti];
    let df = &task.dataflow;
    out.push_str("class ");
    push_class_name(out, acc, ti);
    out.push_str("(val p: Parameters) extends TaskModule {\n");
    match &task.kind {
        TaskKind::Loop { spec, serial } => {
            let _ = write!(
                out,
                "  // loop task: for (i = {:?}; i < {:?}; i += ",
                spec.lo, spec.hi
            );
            push_i64(out, spec.step);
            out.push_str(if *serial {
                ")  [serial]\n"
            } else {
                ")  [pipelined]\n"
            });
        }
        TaskKind::Region => out.push_str("  // region task\n"),
    }
    out.push_str("  // tiles = ");
    push_u64(out, task.tiles.into());
    out.push_str(", issueQueue = ");
    push_u64(out, task.queue_depth.into());
    out.push_str("\n\n  /*------- Dataflow specification -------*/\n");
    for (ni, node) in df.nodes.iter().enumerate() {
        out.push_str("  val n");
        push_u64(out, ni as u64);
        out.push_str(" = ");
        match &node.kind {
            NodeKind::Input { index } => {
                out.push_str("new LiveIn(idx = ");
                push_u64(out, (*index).into());
                out.push(')');
            }
            NodeKind::IndVar => out.push_str("new IterationSequencer()"),
            NodeKind::Const(c) => {
                out.push_str("new ConstNode(value = ");
                match c {
                    ConstVal::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    ConstVal::Int(v) => push_i64(out, *v),
                    ConstVal::F32(_) => {
                        let _ = write!(out, "{c}");
                    }
                }
                out.push(')');
            }
            NodeKind::Compute(op) => {
                out.push_str("new ComputeNode(opCode = \"");
                push_op(out, *op);
                out.push_str("\")");
            }
            NodeKind::Fused(plan) => {
                out.push_str("new FusedNode(ops = ");
                push_u64(out, plan.op_count() as u64);
                out.push(')');
            }
            NodeKind::Merge => out.push_str("new LoopCarryMerge()"),
            NodeKind::FusedAcc { op } => {
                out.push_str("new AccumulatorUnit(opCode = \"");
                push_op(out, *op);
                out.push_str("\")");
            }
            NodeKind::Load { obj, .. } => {
                out.push_str("new Load(space = @mem");
                push_u64(out, obj.0.into());
                out.push(')');
            }
            NodeKind::Store { obj, .. } => {
                out.push_str("new Store(space = @mem");
                push_u64(out, obj.0.into());
                out.push(')');
            }
            NodeKind::TaskCall { callee, spawn, .. } => {
                out.push_str(if *spawn {
                    "new TaskSpawn(callee = \""
                } else {
                    "new TaskCall(callee = \""
                });
                push_class_name(out, acc, callee.0 as usize);
                out.push_str("\")");
            }
            NodeKind::Output => out.push_str("new LiveOut()"),
        }
        out.push_str(" (");
        push_type(out, node.ty);
        out.push_str(")\n");
    }
    out.push_str("\n  /*------------ Connections ------------*/\n");
    for e in &df.edges {
        out.push_str("  n");
        push_u64(out, e.dst.0.into());
        match e.kind {
            EdgeKind::Data => {
                out.push_str(".io.In(");
                push_u64(out, e.dst_port.into());
                out.push_str(") <> n");
            }
            EdgeKind::Feedback => out.push_str(".io.Feedback <> n"),
            EdgeKind::Order => out.push_str(".io.OrderIn <> n"),
        }
        push_u64(out, e.src.0.into());
        if e.kind == EdgeKind::Order {
            out.push_str(".io.Done\n");
            continue;
        }
        out.push_str(".io.Out(");
        push_u64(out, e.src_port.into());
        out.push_str(if e.kind == EdgeKind::Feedback {
            ")  // loop-carried\n"
        } else {
            ")\n"
        });
    }
    out.push_str("\n  /*------------ Junctions --------------*/\n");
    for (ji, j) in df.junctions.iter().enumerate() {
        out.push_str("  val junc");
        push_u64(out, ji as u64);
        out.push_str(" = new Junction(R = ");
        push_u64(out, j.read_ports.into());
        out.push_str(", W = ");
        push_u64(out, j.write_ports.into());
        out.push_str(")\n");
        for (port, registered) in [(".io.Read(", &j.readers), (".io.Write(", &j.writers)] {
            for (k, n) in registered.iter().enumerate() {
                out.push_str("  junc");
                push_u64(out, ji as u64);
                out.push_str(port);
                push_u64(out, k as u64);
                out.push_str(") <==> n");
                push_u64(out, n.0.into());
                out.push_str(".io.Mem\n");
            }
        }
    }
    out.push_str("}\n\n");
}

fn emit_top(out: &mut String, acc: &Accelerator) {
    out.push_str("class Accelerator(val p: Parameters) extends architecture {\n");
    out.push_str("  /*------------ Task Blocks -------------*/\n");
    for (ti, task) in acc.tasks.iter().enumerate() {
        out.push_str("  val task_");
        push_u64(out, ti as u64);
        out.push_str(" = new ");
        push_class_name(out, acc, ti);
        out.push_str("()  // tiles = ");
        push_u64(out, task.tiles.into());
        out.push('\n');
    }
    out.push_str("\n  /*------------ Structures -------------*/\n");
    for (si, s) in acc.structures.iter().enumerate() {
        out.push_str("  val hw_mem_");
        push_u64(out, si as u64);
        match &s.kind {
            StructureKind::Scratchpad {
                banks,
                capacity,
                shape,
                ..
            } => {
                out.push_str(" = new Scratchpad(banks = ");
                push_u64(out, (*banks).into());
                out.push_str(", depth = ");
                push_u64(out, *capacity);
                match shape {
                    Some(sh) => {
                        let _ = write!(out, ", t = Tensor2D({sh}))");
                    }
                    None => out.push_str(", t = Scalar)"),
                }
            }
            StructureKind::Cache {
                capacity,
                assoc,
                banks,
                ..
            } => {
                out.push_str(" = new Cache(sets = ");
                push_u64(out, capacity / 16);
                out.push_str(", ways = ");
                push_u64(out, (*assoc).into());
                out.push_str(", banks = ");
                push_u64(out, (*banks).into());
                out.push(')');
            }
            StructureKind::Dram { .. } => out.push_str(" = new AXIPort()"),
        }
        out.push_str("  // ");
        out.push_str(&s.name);
        out.push('\n');
    }
    out.push_str("\n  /*---------- <||> connections ---------*/\n");
    for c in &acc.task_conns {
        out.push_str("  task_");
        push_u64(out, c.child.0.into());
        out.push_str(".io.task <||> task_");
        push_u64(out, c.parent.0.into());
        out.push_str(".io.spawn(");
        push_u64(out, c.child.0.into());
        out.push_str(")  // q = ");
        push_u64(out, c.queue_depth.into());
        out.push('\n');
    }
    out.push_str("\n  /*---------- <==> connections ---------*/\n");
    for mc in &acc.mem_conns {
        out.push_str("  hw_mem_");
        push_u64(out, mc.structure.0.into());
        out.push_str(".io.Mem <==> task_");
        push_u64(out, mc.task.0.into());
        out.push_str(".io.junc(");
        push_u64(out, mc.junction.0.into());
        out.push_str(")\n");
    }
    out.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_frontend::{translate, FrontendConfig};
    use muir_mir::builder::FunctionBuilder;
    use muir_mir::instr::ValueRef;
    use muir_mir::module::Module;
    use muir_mir::types::ScalarType;

    fn sample_acc() -> Accelerator {
        let mut m = Module::new("chiseldemo");
        let a = m.add_mem_object("a", ScalarType::F32, 64);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(64), 1, |b, i| {
            let v = b.load(a, i);
            let w = b.fmul(v, ValueRef::f32(2.0));
            b.store(a, i, w);
        });
        b.ret(None);
        m.add_function(b.finish());
        translate(&m, &FrontendConfig::default()).unwrap()
    }

    fn seal(acc: &Accelerator) -> CompiledAccel {
        CompiledAccel::compile(acc).expect("frontend graphs verify")
    }

    #[test]
    fn emits_task_modules_and_top() {
        let acc = sample_acc();
        let src = emit_chisel(&seal(&acc));
        assert!(src.contains("extends TaskModule"));
        assert!(src.contains("extends architecture"));
        assert!(src.contains("new ComputeNode(opCode = \"fmul\")"));
        assert!(src.contains("new Load(space = @mem0)"));
        assert!(src.contains("new Junction(R ="));
        assert!(src.contains("<||>"));
        assert!(src.contains("<==>"));
        assert!(src.contains("new Scratchpad("));
        assert!(src.contains("new AXIPort()"));
    }

    #[test]
    fn emits_iteration_sequencer_for_loops() {
        let acc = sample_acc();
        let src = emit_chisel(&seal(&acc));
        assert!(src.contains("IterationSequencer"));
        assert!(src.contains("[pipelined]"));
    }

    #[test]
    fn class_names_are_sanitised() {
        let acc = sample_acc();
        // Loop task is named something like main_loopN.
        let src = emit_chisel(&seal(&acc));
        assert!(src.contains("class Main"), "{src}");
        assert!(!src.contains("class _"));
    }
}

#[cfg(test)]
mod fused_emit_tests {
    use super::*;
    use muir_frontend::{translate, FrontendConfig};
    use muir_mir::builder::FunctionBuilder;
    use muir_mir::instr::ValueRef;
    use muir_mir::module::Module;
    use muir_mir::types::{ScalarType, Type};

    #[test]
    fn accumulator_units_and_fused_nodes_emit() {
        let mut m = Module::new("emit");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let out = m.add_mem_object("out", ScalarType::I32, 1);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        let accs = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(64),
            1,
            &[(ValueRef::int(0), Type::I64)],
            |b, i, accs| {
                let x = b.and(i, ValueRef::int(7));
                let y = b.xor(x, ValueRef::int(3));
                let v = b.load(a, y);
                vec![b.add(accs[0], v)]
            },
        );
        b.store(out, ValueRef::int(0), accs[0]);
        b.ret(None);
        m.add_function(b.finish());
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        muir_uopt::PassManager::new()
            .with(muir_uopt::passes::OpFusion::default())
            .run(&mut acc)
            .unwrap();
        let comp = CompiledAccel::compile(&acc).unwrap();
        let src = emit_chisel(&comp);
        assert!(src.contains("AccumulatorUnit(opCode = \"add\")"), "{src}");
        assert!(src.contains("FusedNode(ops = 2)"), "{src}");
    }
}
