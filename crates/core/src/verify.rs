//! Structural verification of the μIR graph.
//!
//! Composability (§1, novelty iv) rests on every edge being governed by a
//! latency-agnostic interface; the verifier enforces the structural
//! invariants that make stacked μopt passes safe: complete port wiring,
//! consistent junction bookkeeping, well-formed task hierarchy, and memory
//! objects homed on exactly one structure.

use crate::accel::{Accelerator, TaskBlock, TaskId, TaskKind};
use crate::dataflow::{EdgeKind, NodeId};
use crate::node::{Node, NodeKind};
use std::collections::HashMap;
use std::fmt;

/// A μIR graph verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphError {
    /// Offending location (task/node description).
    pub at: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "muIR graph error at {}: {}", self.at, self.message)
    }
}

impl GraphError {
    /// Stable machine-readable code, matching the simulator's `E-SIM-*`
    /// taxonomy (campaign tooling buckets on codes, not message text).
    pub fn code(&self) -> &'static str {
        "E-GRAPH"
    }
}

impl std::error::Error for GraphError {}

fn gerr(at: impl Into<String>, message: impl Into<String>) -> GraphError {
    GraphError {
        at: at.into(),
        message: message.into(),
    }
}

/// Verify the whole accelerator graph.
///
/// # Errors
/// Returns the first structural violation found.
pub fn verify_accelerator(acc: &Accelerator) -> Result<(), GraphError> {
    if acc.tasks.is_empty() {
        return Err(gerr(&acc.name, "accelerator has no tasks"));
    }
    if acc.root.0 as usize >= acc.tasks.len() {
        return Err(gerr(&acc.name, "root task out of range"));
    }
    // Task hierarchy: every non-root task has exactly one parent; no self
    // connections; referenced ids valid.
    let ntasks = acc.tasks.len() as u32;
    let mut parent_count: HashMap<TaskId, u32> = HashMap::new();
    for c in &acc.task_conns {
        if c.parent.0 >= ntasks || c.child.0 >= ntasks {
            return Err(gerr(&acc.name, "task connection references missing task"));
        }
        if c.parent == c.child {
            return Err(gerr(
                &acc.name,
                format!("task {} connected to itself", c.parent),
            ));
        }
        *parent_count.entry(c.child).or_insert(0) += 1;
    }
    for t in acc.task_ids() {
        let n = parent_count.get(&t).copied().unwrap_or(0);
        if t == acc.root && n != 0 {
            return Err(gerr(&acc.name, "root task has a parent"));
        }
        if t != acc.root && n != 1 {
            return Err(gerr(
                &acc.name,
                format!(
                    "task {} ({}) has {n} parents, expected 1",
                    t,
                    acc.task(t).name
                ),
            ));
        }
    }
    // Memory objects homed on at most one structure.
    let mut homed: HashMap<u32, usize> = HashMap::new();
    for (si, s) in acc.structures.iter().enumerate() {
        for o in &s.objects {
            if let Some(prev) = homed.insert(o.0, si) {
                return Err(gerr(
                    &acc.name,
                    format!("object {o} homed on structures s{prev} and s{si}"),
                ));
            }
        }
    }
    // Memory connections reference valid pieces.
    for mc in &acc.mem_conns {
        if mc.task.0 >= ntasks {
            return Err(gerr(&acc.name, "mem connection references missing task"));
        }
        let df = &acc.task(mc.task).dataflow;
        if mc.junction.0 as usize >= df.junctions.len() {
            return Err(gerr(
                &acc.name,
                "mem connection references missing junction",
            ));
        }
        if mc.structure.0 as usize >= acc.structures.len() {
            return Err(gerr(
                &acc.name,
                "mem connection references missing structure",
            ));
        }
        if df.junctions[mc.junction.0 as usize].structure != mc.structure {
            return Err(gerr(
                &acc.name,
                format!(
                    "junction {} disagrees with its mem connection target",
                    mc.junction
                ),
            ));
        }
    }
    // Per-task dataflow checks; the location string is built only for a
    // task that fails them.
    for t in acc.task_ids() {
        verify_task(acc, t)
            .map_err(|message| gerr(format!("{} ({})", t, acc.task(t).name), message))?;
    }
    Ok(())
}

/// The first violation in task `tid`, as its message.
fn verify_task(acc: &Accelerator, tid: TaskId) -> Result<(), String> {
    let task = acc.task(tid);
    let df = &task.dataflow;
    verify_dataflow_ports(acc, task)?;

    // Loop tasks need an IndVar; region tasks must not have one.
    let has_iv = df.indvar_node().is_some();
    match (&task.kind, has_iv) {
        (TaskKind::Loop { .. }, false) => {
            return Err("loop task without IndVar node".to_string());
        }
        (TaskKind::Region, true) => {
            return Err("region task with IndVar node".to_string());
        }
        _ => {}
    }
    // Exactly one Output node.
    let outputs = df
        .node_ids()
        .filter(|&n| matches!(df.node(n).kind, NodeKind::Output))
        .count();
    if outputs != 1 {
        return Err(format!("expected exactly one Output node, found {outputs}"));
    }
    // Junction bookkeeping matches node registrations, and every mem node's
    // junction serves its object.
    for n in df.node_ids() {
        match &df.node(n).kind {
            NodeKind::Load { obj, junction, .. } => {
                let j = df
                    .junctions
                    .get(junction.0 as usize)
                    .ok_or_else(|| format!("{n}: missing junction {junction}"))?;
                if !j.readers.contains(&n) {
                    return Err(format!("{n} not registered as reader on {junction}"));
                }
                if !acc.structure(j.structure).serves(*obj) {
                    return Err(format!(
                        "{n}: structure {} does not serve {obj}",
                        j.structure
                    ));
                }
            }
            NodeKind::Store { obj, junction, .. } => {
                let j = df
                    .junctions
                    .get(junction.0 as usize)
                    .ok_or_else(|| format!("{n}: missing junction {junction}"))?;
                if !j.writers.contains(&n) {
                    return Err(format!("{n} not registered as writer on {junction}"));
                }
                if !acc.structure(j.structure).serves(*obj) {
                    return Err(format!(
                        "{n}: structure {} does not serve {obj}",
                        j.structure
                    ));
                }
            }
            NodeKind::TaskCall { callee, .. } => {
                if callee.0 as usize >= acc.tasks.len() {
                    return Err(format!("{n}: call to missing task {callee}"));
                }
                // Calls must follow the task hierarchy.
                if acc.parent(*callee) != Some(tid) {
                    return Err(format!(
                        "{n}: task call to {callee} without <||> connection"
                    ));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Port wiring of one task's dataflow: every data input port driven by
/// exactly one edge, feedback edges entering Merge port 1 and only there,
/// no node registered twice on a junction. Dense tables indexed by node,
/// so the first violation reported is the first in edge order for a
/// misplaced edge and in (node, port) order for a port — the same one on
/// every run.
fn verify_dataflow_ports(acc: &Accelerator, task: &TaskBlock) -> Result<(), String> {
    let df = &task.dataflow;
    let nnodes = df.nodes.len();
    let arity = |node: &Node| match &node.kind {
        NodeKind::Output => task.num_results as usize,
        // A missing callee is `verify_task`'s to report.
        NodeKind::TaskCall { callee, .. } => {
            let callee = acc.tasks.get(callee.0 as usize);
            node.input_arity(callee.map_or(0, |t| t.num_args as usize))
        }
        _ => node.input_arity(0),
    };
    // Node `n` owns the ports `first[n]..first[n + 1]` of one flat table:
    // as many as its arity, or as the highest port an edge names.
    let mut width: Vec<usize> = df.nodes.iter().map(arity).collect();
    let mut feedback_in = vec![false; nnodes];
    for e in &df.edges {
        let dst = e.dst.0 as usize;
        if e.src.0 as usize >= nnodes || dst >= nnodes {
            return Err("edge references missing node".to_string());
        }
        if e.kind == EdgeKind::Order {
            // Token-only ordering edges are exempt from port accounting.
            continue;
        }
        width[dst] = width[dst].max(e.dst_port as usize + 1);
        if e.kind == EdgeKind::Feedback {
            // Feedback edges only enter Merge port 1.
            if !(matches!(df.nodes[dst].kind, NodeKind::Merge) && e.dst_port == 1) {
                return Err(format!(
                    "feedback edge must enter a Merge port 1, enters {}",
                    e.dst
                ));
            }
            feedback_in[dst] = true;
        }
    }
    let mut first = Vec::with_capacity(nnodes + 1);
    let mut total = 0;
    for w in width {
        first.push(total);
        total += w;
    }
    first.push(total);
    let mut drivers = vec![0u32; total];
    for e in df.edges.iter().filter(|e| e.kind != EdgeKind::Order) {
        drivers[first[e.dst.0 as usize] + e.dst_port as usize] += 1;
    }
    if let Some(i) = drivers.iter().position(|&count| count > 1) {
        // The owner is the last node whose ports start at or before `i`.
        let n = first.partition_point(|&f| f <= i) - 1;
        return Err(format!(
            "{} input port {} driven by {} edges",
            NodeId(n as u32),
            i - first[n],
            drivers[i]
        ));
    }
    for (n, node) in df.nodes.iter().enumerate() {
        let id = NodeId(n as u32);
        let ports = &drivers[first[n]..][..arity(node)];
        if let Some(p) = ports.iter().position(|&count| count == 0) {
            return Err(format!("{id} ({}) input port {p} unconnected", node.name));
        }
        // Merge nodes: port 1 must be a feedback edge.
        if matches!(node.kind, NodeKind::Merge) && !feedback_in[n] {
            return Err(format!("{id}: merge port 1 is not a feedback edge"));
        }
    }
    // No duplicate junction registrations: the last junction each node
    // was seen on.
    let mut seen_on = vec![usize::MAX; nnodes];
    for (ji, j) in df.junctions.iter().enumerate() {
        for n in j.readers.iter().chain(&j.writers) {
            let seen = seen_on
                .get_mut(n.0 as usize)
                .ok_or_else(|| format!("junction j{ji} references missing node"))?;
            if *seen == ji {
                return Err(format!("node {n} registered twice on junction j{ji}"));
            }
            *seen = ji;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Junction;
    use crate::node::OpKind;
    use crate::structure::Structure;
    use muir_mir::instr::{BinOp, ConstVal, MemObjId};
    use muir_mir::types::Type;

    /// A minimal, valid one-task accelerator:
    /// `out = (c1 + c2)` stored to a scratchpad-homed object.
    fn valid_accel() -> Accelerator {
        let mut acc = Accelerator::new("v");
        let mut spad = Structure::scratchpad("spad", 64);
        spad.serve(MemObjId(0));
        let sid = acc.add_structure(spad);

        let mut task = TaskBlock::new("main", TaskKind::Region);
        task.num_results = 0;
        let df = &mut task.dataflow;
        let j = df.add_junction(Junction::new(sid, 1, 1));
        let c1 = df.add_node(Node::new(
            "c1",
            NodeKind::Const(ConstVal::Int(1)),
            Type::I64,
        ));
        let c2 = df.add_node(Node::new(
            "c2",
            NodeKind::Const(ConstVal::Int(2)),
            Type::I64,
        ));
        let add = df.add_node(Node::new(
            "add",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let st = df.add_node(Node::new(
            "st",
            NodeKind::Store {
                obj: MemObjId(0),
                junction: j,
                predicated: false,
            },
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        let _ = out;
        df.connect(c1, 0, add, 0);
        df.connect(c2, 0, add, 1);
        df.connect(c1, 0, st, 0);
        df.connect(add, 0, st, 1);
        df.register_writer(j, st);
        let tid = acc.add_task(task);
        acc.root = tid;
        acc.connect_mem(tid, j, sid);
        acc
    }

    #[test]
    fn valid_graph_passes() {
        let acc = valid_accel();
        verify_accelerator(&acc).unwrap();
    }

    #[test]
    fn unconnected_port_caught() {
        let mut acc = valid_accel();
        // Drop the add's second input edge.
        let df = &mut acc.tasks[0].dataflow;
        df.edges
            .retain(|e| !(e.dst == NodeId(2) && e.dst_port == 1));
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("unconnected"), "{e}");
    }

    #[test]
    fn double_driven_port_caught() {
        let mut acc = valid_accel();
        let df = &mut acc.tasks[0].dataflow;
        df.connect(NodeId(1), 0, NodeId(2), 1);
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("driven by 2"), "{e}");
    }

    /// Which violation is "first" is a property of the graph, not of a
    /// hash seed: with two doubly-driven ports the lower (node, port) is
    /// reported, whatever the edge order, on every run.
    #[test]
    fn first_double_driven_port_is_the_lowest() {
        let mut acc = valid_accel();
        let df = &mut acc.tasks[0].dataflow;
        df.connect(NodeId(0), 0, NodeId(3), 1);
        df.connect(NodeId(0), 0, NodeId(3), 0);
        df.connect(NodeId(1), 0, NodeId(2), 1);
        df.connect(NodeId(1), 0, NodeId(2), 1);
        for run in 0..100 {
            let e = verify_accelerator(&acc).unwrap_err();
            assert_eq!(
                e.message,
                format!("{} input port 1 driven by 3 edges", NodeId(2)),
                "run {run}"
            );
            assert_eq!(e.at, format!("{} (main)", TaskId(0)));
        }
    }

    #[test]
    fn misplaced_feedback_and_missing_merge_feedback_caught() {
        let mut acc = valid_accel();
        let df = &mut acc.tasks[0].dataflow;
        let m = df.add_node(Node::new("m", NodeKind::Merge, Type::I64));
        df.connect(NodeId(0), 0, m, 0);
        df.connect(NodeId(2), 0, m, 1);
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("merge port 1 is not a feedback"), "{e}");
        let df = &mut acc.tasks[0].dataflow;
        df.edges.last_mut().unwrap().kind = EdgeKind::Feedback;
        verify_accelerator(&acc).unwrap();
        let df = &mut acc.tasks[0].dataflow;
        df.edges.last_mut().unwrap().dst_port = 0;
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("feedback edge must enter"), "{e}");
    }

    #[test]
    fn double_junction_registration_caught() {
        let mut acc = valid_accel();
        let j = &mut acc.tasks[0].dataflow.junctions[0];
        j.readers.push(NodeId(3));
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("registered twice on junction j0"), "{e}");
        acc.tasks[0].dataflow.junctions[0].readers[0] = NodeId(99);
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("j0 references missing node"), "{e}");
    }

    #[test]
    fn unregistered_store_caught() {
        let mut acc = valid_accel();
        acc.tasks[0].dataflow.junctions[0].writers.clear();
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("not registered"), "{e}");
    }

    #[test]
    fn object_homed_twice_caught() {
        let mut acc = valid_accel();
        let mut other = Structure::scratchpad("spad2", 64);
        other.serve(MemObjId(0));
        acc.add_structure(other);
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("homed on structures"), "{e}");
    }

    #[test]
    fn orphan_task_caught() {
        let mut acc = valid_accel();
        acc.add_task(TaskBlock::new("orphan", TaskKind::Region));
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("parents"), "{e}");
    }

    #[test]
    fn missing_output_caught() {
        let mut acc = valid_accel();
        acc.tasks[0]
            .dataflow
            .nodes
            .retain(|n| !matches!(n.kind, NodeKind::Output));
        // Rebuilding ids would be required in general; here Output is last
        // and unreferenced, so the graph stays consistent.
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("Output"), "{e}");
    }

    #[test]
    fn loop_task_requires_indvar() {
        let mut acc = valid_accel();
        acc.tasks[0].kind = TaskKind::Loop {
            spec: crate::accel::LoopSpec {
                lo: crate::accel::ArgExpr::Const(0),
                hi: crate::accel::ArgExpr::Const(4),
                step: 1,
            },
            serial: false,
        };
        let e = verify_accelerator(&acc).unwrap_err();
        assert!(e.message.contains("IndVar"), "{e}");
    }
}
