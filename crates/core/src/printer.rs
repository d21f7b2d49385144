//! Textual rendering of μIR graphs.
//!
//! μIR is "simply implemented as a data structure" (§3), but a stable
//! textual form makes transformations reviewable: dump the graph before and
//! after a pass and diff. The format is line-oriented, one entity per line.

use crate::accel::{Accelerator, ArgExpr, TaskKind};
use crate::dataflow::{Buffering, EdgeKind};
use crate::node::NodeKind;
use crate::structure::StructureKind;
use std::fmt::Write;

fn arg_expr(e: &ArgExpr) -> String {
    match e {
        ArgExpr::Arg(a) => format!("arg{a}"),
        ArgExpr::Const(k) => k.to_string(),
    }
}

/// Render the whole accelerator as text.
pub fn print_accelerator(acc: &Accelerator) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "accelerator \"{}\" {{", acc.name);
    for (si, s) in acc.structures.iter().enumerate() {
        let desc = match &s.kind {
            StructureKind::Scratchpad { banks, ports_per_bank, latency, capacity, shape } => {
                let sh = shape.map(|x| format!(", shape={x}")).unwrap_or_default();
                format!(
                    "scratchpad(banks={banks}, ports={ports_per_bank}, lat={latency}, cap={capacity}{sh})"
                )
            }
            StructureKind::Cache { capacity, assoc, line_elems, banks, hit_latency } => format!(
                "cache(cap={capacity}, ways={assoc}, line={line_elems}, banks={banks}, hit={hit_latency})"
            ),
            StructureKind::Dram { latency, elems_per_cycle } => {
                format!("dram(lat={latency}, bw={elems_per_cycle})")
            }
        };
        let objs: Vec<String> = s.objects.iter().map(|o| o.to_string()).collect();
        let _ = writeln!(
            out,
            "  structure s{si} \"{}\": {desc} serves [{}]",
            s.name,
            objs.join(", ")
        );
    }
    for (ti, t) in acc.tasks.iter().enumerate() {
        let kind = match &t.kind {
            TaskKind::Region => "region".to_string(),
            TaskKind::Loop { spec, serial } => format!(
                "loop({}..{} step {}{})",
                arg_expr(&spec.lo),
                arg_expr(&spec.hi),
                spec.step,
                if *serial { ", serial" } else { "" }
            ),
        };
        let _ = writeln!(
            out,
            "  task t{ti} \"{}\" {kind} tiles={} queue={} args={} results={} {{",
            t.name, t.tiles, t.queue_depth, t.num_args, t.num_results
        );
        for (ni, n) in t.dataflow.nodes.iter().enumerate() {
            let k = match &n.kind {
                NodeKind::Input { index } => format!("input({index})"),
                NodeKind::IndVar => "indvar".to_string(),
                NodeKind::Const(c) => format!("const({c})"),
                NodeKind::Compute(op) => format!("compute({op})"),
                NodeKind::Fused(p) => format!("fused({} ops)", p.op_count()),
                NodeKind::FusedAcc { op } => format!("fusedacc({})", op.mnemonic()),
                NodeKind::Merge => "merge".to_string(),
                NodeKind::Load {
                    obj,
                    junction,
                    predicated,
                } => format!(
                    "load({obj} via {junction}{})",
                    if *predicated { ", pred" } else { "" }
                ),
                NodeKind::Store {
                    obj,
                    junction,
                    predicated,
                } => format!(
                    "store({obj} via {junction}{})",
                    if *predicated { ", pred" } else { "" }
                ),
                NodeKind::TaskCall {
                    callee,
                    predicated,
                    spawn,
                } => format!(
                    "call(t{}{}{})",
                    callee.0,
                    if *spawn { ", spawn" } else { "" },
                    if *predicated { ", pred" } else { "" }
                ),
                NodeKind::Output => "output".to_string(),
            };
            let _ = writeln!(out, "    n{ni} = {k} : {} ; \"{}\"", n.ty, n.name);
        }
        for e in &t.dataflow.edges {
            let buf = match e.buffering {
                Buffering::Handshake => String::new(),
                Buffering::Fifo(d) => format!(" fifo({d})"),
            };
            let kind = match e.kind {
                EdgeKind::Data => "->",
                EdgeKind::Feedback => "~>",
                EdgeKind::Order => "=>",
            };
            let _ = writeln!(
                out,
                "    n{}.{} {kind} n{}.{}{buf}",
                e.src.0, e.src_port, e.dst.0, e.dst_port
            );
        }
        for (ji, j) in t.dataflow.junctions.iter().enumerate() {
            let rd: Vec<String> = j.readers.iter().map(|n| n.to_string()).collect();
            let wr: Vec<String> = j.writers.iter().map(|n| n.to_string()).collect();
            let _ = writeln!(
                out,
                "    junction j{ji} -> s{} ({}R/{}W) readers=[{}] writers=[{}]",
                j.structure.0,
                j.read_ports,
                j.write_ports,
                rd.join(", "),
                wr.join(", ")
            );
        }
        let _ = writeln!(out, "  }}");
    }
    for c in &acc.task_conns {
        let _ = writeln!(
            out,
            "  t{} <||> t{} (q={})",
            c.parent.0, c.child.0, c.queue_depth
        );
    }
    for mc in &acc.mem_conns {
        let _ = writeln!(
            out,
            "  t{}.j{} <==> s{}",
            mc.task.0, mc.junction.0, mc.structure.0
        );
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::TaskBlock;
    use crate::node::Node;
    use crate::structure::Structure;
    use crate::Type;
    use muir_mir::instr::{ConstVal, MemObjId};

    fn demo() -> Accelerator {
        let mut acc = Accelerator::new("demo");
        let mut spad = Structure::scratchpad("spad", 64);
        spad.serve(MemObjId(0));
        acc.add_structure(spad);
        let mut t = TaskBlock::new("main", TaskKind::Region);
        t.dataflow
            .add_node(Node::new("c", NodeKind::Const(ConstVal::Int(3)), Type::I64));
        t.dataflow
            .add_node(Node::new("out", NodeKind::Output, Type::I64));
        let tid = acc.add_task(t);
        acc.root = tid;
        acc
    }

    #[test]
    fn prints_structures_tasks_nodes() {
        let text = print_accelerator(&demo());
        assert!(text.contains("accelerator \"demo\""));
        assert!(text.contains("structure s0 \"spad\": scratchpad("));
        assert!(text.contains("serves [@mem0]"));
        assert!(text.contains("task t0 \"main\" region tiles=1"));
        assert!(text.contains("n0 = const(3) : i64"));
        assert!(text.contains("n1 = output : i64"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn prints_loop_specs_and_connections() {
        let mut acc = demo();
        let mut lp = TaskBlock::new(
            "lp",
            TaskKind::Loop {
                spec: crate::accel::LoopSpec {
                    lo: ArgExpr::Const(0),
                    hi: ArgExpr::Arg(1),
                    step: 2,
                },
                serial: true,
            },
        );
        lp.dataflow
            .add_node(Node::new("i", NodeKind::IndVar, Type::I64));
        lp.dataflow
            .add_node(Node::new("out", NodeKind::Output, Type::I64));
        let child = acc.add_task(lp);
        let root = acc.root;
        acc.connect_tasks(root, child, 4);
        let text = print_accelerator(&acc);
        assert!(text.contains("loop(0..arg1 step 2, serial)"), "{text}");
        assert!(text.contains("t0 <||> t1 (q=4)"));
        assert!(text.contains("indvar"));
    }

    #[test]
    fn edge_kinds_have_distinct_arrows() {
        let mut acc = demo();
        let df = &mut acc.tasks[0].dataflow;
        let a = df.add_node(Node::new("m", NodeKind::Merge, Type::I64));
        df.connect(crate::dataflow::NodeId(0), 0, a, 0);
        df.connect_feedback(crate::dataflow::NodeId(0), 0, a);
        df.connect_order(crate::dataflow::NodeId(0), a);
        let text = print_accelerator(&acc);
        assert!(text.contains("->"));
        assert!(text.contains("~>"));
        assert!(text.contains("=>"));
    }
}
