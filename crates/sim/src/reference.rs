//! The reference lowering: the tables a firing reads, re-derived from the
//! sealed graph alone, and the comparator that holds the sealed tables to
//! them.
//!
//! `lower` is a deliberately plain walk over `df.nodes`, `df.edges` and
//! `NodeKind`. It reads nothing `seal()` lowered and shares no index with
//! it (the seal walks a CSR adjacency; this buckets the edge arena), so
//! [`check_lowering`] tests the seal-time lowering from an independent
//! starting point, field by field, without a simulation: the six tables
//! through [`same_tables`], the scan order and the per-task scalars
//! through [`check_schedule`] — between them every field of a sealed task.
//! The engine has one firing body and executes the sealed tables only;
//! equal tables under one body mean equal behaviour on every input, which
//! is why no differential runs the derived tables (DESIGN.md §14).

use muir_core::accel::Accelerator;
use muir_core::compiled::{
    CompiledAccel, EdgeMeta, MicroOp, UopKind, SLOT_ARG, SLOT_CONST, SLOT_FEEDBACK, SLOT_PAYLOAD,
    SLOT_TAG, SLOT_TOKEN, UOP_PREDICATED, UOP_SPAWN,
};
use muir_core::dataflow::{Buffering, Dataflow, EdgeKind};
use muir_core::node::{FusedPlan, NodeKind, OpKind};
use muir_mir::instr::BinOp;
use muir_mir::value::Value;
use std::fmt::Display;

/// The six tables a firing reads, borrowed: one [`MicroOp`] per node and
/// the pools its index fields point into. The comparator's argument type,
/// so it cannot tell a sealed task from a re-derived one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Code<'a> {
    pub(crate) uops: &'a [MicroOp],
    pub(crate) in_slots: &'a [u32],
    pub(crate) edge_refs: &'a [u32],
    pub(crate) consts: &'a [Value],
    pub(crate) fused_plans: &'a [FusedPlan],
    pub(crate) edge_meta: &'a [EdgeMeta],
}

/// One task's re-derived firing tables (field for field what
/// [`Code`] borrows).
#[derive(Debug, Clone, Default)]
pub(crate) struct TaskTables {
    pub(crate) uops: Vec<MicroOp>,
    pub(crate) in_slots: Vec<u32>,
    pub(crate) edge_refs: Vec<u32>,
    pub(crate) consts: Vec<Value>,
    pub(crate) fused_plans: Vec<FusedPlan>,
    pub(crate) edge_meta: Vec<EdgeMeta>,
}

impl TaskTables {
    pub(crate) fn view(&self) -> Code<'_> {
        Code {
            uops: &self.uops,
            in_slots: &self.in_slots,
            edge_refs: &self.edge_refs,
            consts: &self.consts,
            fused_plans: &self.fused_plans,
            edge_meta: &self.edge_meta,
        }
    }
}

/// Re-derive every task's firing tables from the graph.
pub(crate) fn lower(acc: &Accelerator) -> Vec<TaskTables> {
    acc.tasks
        .iter()
        .map(|task| lower_task(acc, &task.dataflow))
        .collect()
}

fn lower_task(acc: &Accelerator, df: &Dataflow) -> TaskTables {
    let is_static = |n: u32| {
        matches!(
            df.nodes[n as usize].kind,
            NodeKind::Input { .. } | NodeKind::Const(_)
        )
    };
    // Per node, in edge order: data/feedback inputs, order inputs from
    // dynamic producers, and the outputs of dynamic nodes.
    let n = df.nodes.len();
    let (mut data_in, mut order_in, mut out) = (vec![vec![]; n], vec![vec![]; n], vec![vec![]; n]);
    for (ei, e) in df.edges.iter().enumerate() {
        let dynamic = !is_static(e.src.0);
        match e.kind {
            EdgeKind::Order if dynamic => order_in[e.dst.0 as usize].push(ei as u32),
            EdgeKind::Order => {}
            _ => data_in[e.dst.0 as usize].push(ei as u32),
        }
        if dynamic {
            out[e.src.0 as usize].push(ei as u32);
        }
    }
    let mut t = TaskTables {
        edge_meta: df
            .edges
            .iter()
            .map(|e| EdgeMeta {
                src: e.src.0,
                src_port: e.src_port,
                is_order: e.kind == EdgeKind::Order,
                fifo: match e.buffering {
                    Buffering::Handshake => u32::MAX,
                    Buffering::Fifo(depth) => depth,
                },
            })
            .collect(),
        ..TaskTables::default()
    };
    for (node, nd) in df.nodes.iter().enumerate() {
        let (slot0, ebase) = (t.in_slots.len() as u32, t.edge_refs.len() as u32);
        // Operands in port order (stable: equal ports keep edge order).
        data_in[node].sort_by_key(|&ei| df.edges[ei as usize].dst_port);
        for &ei in &data_in[node] {
            let e = &df.edges[ei as usize];
            let slot = match &df.nodes[e.src.0 as usize].kind {
                NodeKind::Input { index } => SLOT_ARG | index,
                NodeKind::Const(c) => {
                    t.consts.push(c.to_value());
                    SLOT_CONST | (t.consts.len() - 1) as u32
                }
                _ if matches!(nd.kind, NodeKind::Merge) && e.dst_port == 1 => SLOT_FEEDBACK | ei,
                _ => SLOT_TOKEN | ei,
            };
            t.in_slots.push(slot);
        }
        t.edge_refs.extend(&order_in[node]);
        t.edge_refs.extend(&out[node]);
        let pred = |p: bool| if p { UOP_PREDICATED } else { 0 };
        let nop = OpKind::Bin(BinOp::Add);
        let (kind, flags, a, b, op) = match &nd.kind {
            NodeKind::Input { .. } | NodeKind::Const(_) => (UopKind::Static, 0, 0, 0, nop),
            NodeKind::IndVar => (UopKind::IndVar, 0, 0, 0, nop),
            NodeKind::Merge => (UopKind::Merge, 0, 0, 0, nop),
            NodeKind::FusedAcc { op } => (UopKind::FusedAcc, 0, 0, 0, *op),
            NodeKind::Compute(op) => (UopKind::Compute, 0, 0, 0, *op),
            NodeKind::Fused(plan) => {
                t.fused_plans.push(plan.clone());
                let pi = t.fused_plans.len() - 1;
                (UopKind::Fused, 0, pi as u32, 0, nop)
            }
            NodeKind::Output => (UopKind::Output, 0, 0, 0, nop),
            NodeKind::Load {
                obj,
                junction,
                predicated,
            } => (UopKind::Load, pred(*predicated), obj.0, junction.0, nop),
            NodeKind::Store {
                obj,
                junction,
                predicated,
            } => (UopKind::Store, pred(*predicated), obj.0, junction.0, nop),
            NodeKind::TaskCall {
                callee,
                predicated,
                spawn,
            } => {
                let child = &acc.tasks[callee.0 as usize];
                let flags = pred(*predicated) | if *spawn { UOP_SPAWN } else { 0 };
                let io = (child.num_args << 16) | child.num_results;
                (UopKind::TaskCall, flags, callee.0, io, nop)
            }
        };
        t.uops.push(MicroOp {
            kind,
            flags,
            nin: data_in[node].len() as u16,
            nord: order_in[node].len() as u16,
            nout: out[node].len() as u16,
            slot0,
            ebase,
            a,
            b,
            op,
        });
    }
    t
}

/// Check the artifact's seal-time lowering against `lower`'s, by decoded
/// content: constants and fused plans are compared as values, not as pool
/// indices.
///
/// # Errors
/// The first difference, naming task, node and field.
pub fn check_lowering(comp: &CompiledAccel) -> Result<(), String> {
    let acc = comp.accel();
    let derived = lower(acc);
    for (ti, (ct, re)) in comp.tasks().iter().zip(&derived).enumerate() {
        let sealed = Code {
            uops: ct.uops,
            in_slots: ct.in_slots,
            edge_refs: ct.edge_refs,
            consts: ct.consts,
            fused_plans: ct.fused_plans,
            edge_meta: ct.edge_meta,
        };
        same_tables(sealed, re.view())
            .and_then(|()| {
                let (dynamic, queue, junctions) = (ct.dynamic_count, ct.queue_cap, ct.njunctions);
                check_schedule(acc, ti, dynamic, queue, junctions, ct.order, ct.pos)
            })
            .map_err(|e| format!("task {ti} ({}) {e}", acc.tasks[ti].name))?;
    }
    Ok(())
}

/// Hold what a sealed task carries beside the six tables to task `ti` of
/// the graph: `dynamic_count`, `queue_cap` and `njunctions` are re-derived
/// and compared; the scan order is not unique, so it is held to what the
/// schedulers need of it — `pos` inverts `order` (which makes `order` a
/// permutation of the nodes) and every forward edge's consumer is scanned
/// before its producer.
///
/// # Errors
/// `"<field> differs"` for the first field that fails.
pub(crate) fn check_schedule(
    acc: &Accelerator,
    ti: usize,
    dynamic_count: u32,
    queue_cap: usize,
    njunctions: usize,
    order: &[u32],
    pos: &[u32],
) -> Result<(), String> {
    let task = &acc.tasks[ti];
    let df = &task.dataflow;
    let n = df.nodes.len();
    let is_dynamic = |k: &NodeKind| !matches!(k, NodeKind::Input { .. } | NodeKind::Const(_));
    let dynamic = df.nodes.iter().filter(|nd| is_dynamic(&nd.kind)).count();
    // The task's own issue queue plus the `<||>` FIFO feeding it.
    let feeding = acc.task_conns.iter().find(|c| c.child.0 as usize == ti);
    let queue = task.queue_depth + feeding.map_or(1, |c| c.queue_depth);
    let inverse = order.len() == n
        && pos.len() == n
        && (order.iter().zip(0u32..)).all(|(&node, p)| pos.get(node as usize) == Some(&p));
    let fields = [
        ("dynamic_count", dynamic_count as usize == dynamic),
        ("queue_cap", queue_cap == queue as usize),
        ("njunctions", njunctions == df.junctions.len()),
        ("pos", inverse),
    ];
    for (field, same) in fields {
        same.then_some(()).ok_or(format!("{field} differs"))?;
    }
    let consumer_first = |e: &muir_core::dataflow::Edge| {
        e.kind == EdgeKind::Feedback || pos[e.dst.0 as usize] < pos[e.src.0 as usize]
    };
    match df.edges.iter().position(|e| !consumer_first(e)) {
        Some(ei) => Err(format!(
            "order differs: edge e{ei} scans its producer first"
        )),
        None => Ok(()),
    }
}

/// `Err("node n<id>: <field> differs")` at the first field where `sealed`
/// and `derived` decode differently.
pub(crate) fn same_tables(sealed: Code<'_>, derived: Code<'_>) -> Result<(), String> {
    let check = |same: bool, node: usize, field: &dyn Display| {
        same.then_some(())
            .ok_or_else(|| format!("node n{node}: {field} differs"))
    };
    // A slot decoded to (tag, edge or argument index, constant). Float
    // constants compare by bit pattern (a NaN must equal itself).
    let slots = |c: Code<'_>, u: &MicroOp| -> Vec<_> {
        let run = &c.in_slots[u.slot0 as usize..][..u.nin as usize];
        let decode = |&s: &u32| {
            let p = (s & SLOT_PAYLOAD) as usize;
            match (s & SLOT_TAG, c.consts.get(p)) {
                (SLOT_CONST, Some(Value::F32(f))) => {
                    (SLOT_CONST, 0, Some(Value::Int(f.to_bits().into())))
                }
                (SLOT_CONST, v) => (SLOT_CONST, 0, v.cloned()),
                (tag, _) => (tag, p, None),
            }
        };
        run.iter().map(decode).collect()
    };
    fn edges<'a>(c: Code<'a>, u: &MicroOp) -> &'a [u32] {
        &c.edge_refs[u.ebase as usize..][..usize::from(u.nord) + usize::from(u.nout)]
    }
    fn plan<'a>(c: Code<'a>, u: &MicroOp) -> Option<&'a FusedPlan> {
        c.fused_plans.get(u.a as usize)
    }
    check(sealed.uops.len() == derived.uops.len(), 0, &"node count")?;
    for (n, (s, d)) in sealed.uops.iter().zip(derived.uops).enumerate() {
        check(s.kind == d.kind, n, &"kind")?;
        check(s.flags == d.flags, n, &"flags")?;
        check(s.nin == d.nin, n, &"nin")?;
        check(s.nord == d.nord, n, &"nord")?;
        check(s.nout == d.nout, n, &"nout")?;
        match s.kind {
            UopKind::Compute | UopKind::FusedAcc => check(s.op == d.op, n, &"op")?,
            UopKind::Fused => check(plan(sealed, s) == plan(derived, d), n, &"fused plan")?,
            UopKind::Load | UopKind::Store | UopKind::TaskCall => {
                check(s.a == d.a, n, &"a")?;
                check(s.b == d.b, n, &"b")?;
            }
            _ => {}
        }
        check(slots(sealed, s) == slots(derived, d), n, &"in_slots")?;
        check(edges(sealed, s) == edges(derived, d), n, &"edge_refs")?;
    }
    let edges = sealed.edge_meta.len();
    check(edges == derived.edge_meta.len(), 0, &"edge count")?;
    for (ei, (s, d)) in sealed.edge_meta.iter().zip(derived.edge_meta).enumerate() {
        let fields = [
            ("src", s.src == d.src),
            ("src_port", s.src_port == d.src_port),
            ("is_order", s.is_order == d.is_order),
            ("fifo", s.fifo == d.fifo),
        ];
        for (field, same) in fields {
            check(same, s.src as usize, &format_args!("edge e{ei} {field}"))?;
        }
    }
    Ok(())
}
