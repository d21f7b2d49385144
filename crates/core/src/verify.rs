//! Structural verification of the μIR graph.
//!
//! Composability (§1, novelty iv) rests on every edge being governed by a
//! latency-agnostic interface; the verifier enforces the structural
//! invariants that make stacked μopt passes safe: complete port wiring,
//! consistent junction bookkeeping, well-formed task hierarchy, and memory
//! objects homed on exactly one structure.

use crate::accel::{Accelerator, TaskId, TaskKind};
use crate::dataflow::{Dataflow, EdgeKind, JunctionId, NodeId};
use crate::node::NodeKind;
use crate::structure::StructureId;
use muir_mir::instr::MemObjId;
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
/// The checks run in a fixed order — hierarchy, homing, memory
/// connections, then each task in id order — and the violation reported
/// is the first in that order, the same one on every run. The verifier is
/// total: every input, however malformed, gets `Ok` or a [`GraphError`].
///
/// # Errors
/// Returns the first structural violation found.
pub fn verify_accelerator(acc: &Accelerator) -> Result<(), GraphError> {
    Verifier::default().verify(acc)
}

/// [`verify_accelerator`] with its working tables kept between calls: a
/// caller that verifies after every pass of a pipeline holds one and
/// allocates only when a graph outgrows every graph before it.
#[derive(Default)]
pub struct Verifier {
    /// Parent task id per task (`NONE` when no connection names it).
    parent: Vec<u32>,
    /// Connections naming each task as child.
    parents: Vec<u32>,
    /// See [`fill_homes`].
    homes: Vec<(u32, u32, u32)>,
    tables: Tables,
}

impl Verifier {
    /// Verify the whole accelerator graph, exactly as
    /// [`verify_accelerator`] does.
    ///
    /// # Errors
    /// Returns the first structural violation found.
    pub fn verify(&mut self, acc: &Accelerator) -> Result<(), GraphError> {
        if acc.tasks.is_empty() {
            return Err(gerr(&acc.name, "accelerator has no tasks"));
        }
        if acc.root.0 as usize >= acc.tasks.len() {
            return Err(gerr(&acc.name, "root task out of range"));
        }
        // Task hierarchy: every non-root task has exactly one parent; no self
        // connections; referenced ids valid. `parent[t]` is the parent of the
        // first connection naming `t` as child (`NONE` if there is none), which
        // the task-call check below reads once every count is one.
        let ntasks = acc.tasks.len();
        let (parent, parents) = (&mut self.parent, &mut self.parents);
        parent.clear();
        parent.resize(ntasks, NONE);
        parents.clear();
        parents.resize(ntasks, 0);
        for c in &acc.task_conns {
            if c.parent.0 as usize >= ntasks || c.child.0 as usize >= ntasks {
                return Err(gerr(&acc.name, "task connection references missing task"));
            }
            if c.parent == c.child {
                return Err(gerr(
                    &acc.name,
                    format!("task {} connected to itself", c.parent),
                ));
            }
            let child = c.child.0 as usize;
            if parents[child] == 0 {
                parent[child] = c.parent.0;
            }
            parents[child] += 1;
        }
        for (t, &n) in acc.task_ids().zip(parents.iter()) {
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
        fill_homes(acc, &mut self.homes)?;
        // Memory connections reference valid pieces.
        for mc in &acc.mem_conns {
            if mc.task.0 as usize >= ntasks {
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
        // Per-task dataflow checks over tables reused from task to task; the
        // location string is built only for a task that fails them.
        let graph = Graph {
            acc,
            parent: &self.parent,
            homes: &self.homes,
        };
        for t in acc.task_ids() {
            self.tables
                .verify_task(&graph, t)
                .map_err(|message| gerr(format!("{} ({})", t, acc.task(t).name), message))?;
        }
        Ok(())
    }
}

/// The parent of a task that no connection names as child.
const NONE: u32 = u32::MAX;

/// The object→home table, into `rows`: `(object, registration,
/// structure)` for every object a structure lists, sorted by object, one
/// row per object.
///
/// # Errors
/// An object homed twice. Registrations are ordered by structure and then
/// by position in its object list; the one reported is the earliest that
/// names an object already registered.
fn fill_homes(acc: &Accelerator, rows: &mut Vec<(u32, u32, u32)>) -> Result<(), GraphError> {
    rows.clear();
    rows.extend(
        acc.structures
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.objects.iter().map(move |o| (o.0, si as u32)))
            .enumerate()
            .map(|(k, (o, si))| (o, k as u32, si)),
    );
    rows.sort_unstable();
    let twice = rows
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .min_by_key(|w| w[1].1);
    if let Some(w) = twice {
        return Err(gerr(
            &acc.name,
            format!(
                "object {} homed on structures s{} and s{}",
                MemObjId(w[0].0),
                w[0].2,
                w[1].2
            ),
        ));
    }
    Ok(())
}

/// What the per-task checks read of the whole accelerator.
struct Graph<'a> {
    acc: &'a Accelerator,
    /// Parent task id per task (see [`Verifier::verify`]).
    parent: &'a [u32],
    /// See [`fill_homes`].
    homes: &'a [(u32, u32, u32)],
}

impl Graph<'_> {
    /// Whether structure `s` serves `obj`: it is the object's one home.
    fn serves(&self, s: StructureId, obj: MemObjId) -> bool {
        self.homes
            .binary_search_by_key(&obj.0, |row| row.0)
            .is_ok_and(|i| self.homes[i].2 == s.0)
    }

    /// The memory-node check: registered on its junction, and the
    /// junction's structure exists and serves the node's object.
    fn check_access(
        &self,
        df: &Dataflow,
        n: NodeId,
        obj: MemObjId,
        junction: JunctionId,
        writes: bool,
    ) -> Result<(), String> {
        let j = df
            .junctions
            .get(junction.0 as usize)
            .ok_or_else(|| format!("{n}: missing junction {junction}"))?;
        let (registered, role) = if writes {
            (&j.writers, "writer")
        } else {
            (&j.readers, "reader")
        };
        if !registered.contains(&n) {
            return Err(format!("{n} not registered as {role} on {junction}"));
        }
        if j.structure.0 as usize >= self.acc.structures.len() {
            return Err(format!(
                "{n}: junction {junction} targets missing structure {}",
                j.structure
            ));
        }
        if !self.serves(j.structure, obj) {
            return Err(format!(
                "{n}: structure {} does not serve {obj}",
                j.structure
            ));
        }
        Ok(())
    }

    /// The task-call check: the callee exists and is a `<||>` child of
    /// the calling task `tid`.
    fn check_call(&self, n: NodeId, callee: TaskId, tid: TaskId) -> Result<(), String> {
        match self.parent.get(callee.0 as usize) {
            None => Err(format!("{n}: call to missing task {callee}")),
            Some(&p) if p != tid.0 => Err(format!(
                "{n}: task call to {callee} without <||> connection"
            )),
            Some(_) => Ok(()),
        }
    }
}

/// Per-node working tables of the task checks, grown to the largest task seen and
/// reused for every task of one verification.
#[derive(Default)]
struct Tables {
    /// Input arity per node.
    arity: Vec<usize>,
    /// Node `n` owns the ports `first[n]..first[n + 1]` of `drivers`: as
    /// many as its arity, or as the highest port an edge names.
    first: Vec<usize>,
    /// Data and feedback edges driving each port.
    drivers: Vec<u32>,
    /// Whether a feedback edge enters the node.
    feedback_in: Vec<bool>,
    /// The last junction each node was seen registered on.
    seen_on: Vec<usize>,
}

impl Tables {
    /// The first violation in task `tid`, as its message, in this order:
    /// misplaced edges (edge order), a doubly-driven port and then an
    /// unconnected one ((node, port) order), a Merge without feedback,
    /// duplicate junction registrations, the IndVar and Output counts, and
    /// last the memory and task-call checks (node order). One walk over
    /// the nodes runs every per-node check; a memory or call violation
    /// found on it is held until the checks ordered before it have passed.
    fn verify_task(&mut self, g: &Graph<'_>, tid: TaskId) -> Result<(), String> {
        let task = g.acc.task(tid);
        let df = &task.dataflow;
        let nnodes = df.nodes.len();
        self.arity.clear();
        self.arity
            .extend(df.nodes.iter().map(|node| match &node.kind {
                NodeKind::Output => task.num_results as usize,
                // A missing callee is the call check's to report.
                NodeKind::TaskCall { callee, .. } => {
                    let callee = g.acc.tasks.get(callee.0 as usize);
                    node.input_arity(callee.map_or(0, |t| t.num_args as usize))
                }
                _ => node.input_arity(0),
            }));
        // Widths first, then offsets.
        self.first.clear();
        self.first.reserve(nnodes + 1);
        self.first.extend_from_slice(&self.arity);
        self.feedback_in.clear();
        self.feedback_in.resize(nnodes, false);
        for e in &df.edges {
            let dst = e.dst.0 as usize;
            if e.src.0 as usize >= nnodes || dst >= nnodes {
                return Err("edge references missing node".to_string());
            }
            if e.kind == EdgeKind::Order {
                // Token-only ordering edges are exempt from port accounting.
                continue;
            }
            self.first[dst] = self.first[dst].max(e.dst_port as usize + 1);
            if e.kind == EdgeKind::Feedback {
                // Feedback edges only enter Merge port 1.
                if !(matches!(df.nodes[dst].kind, NodeKind::Merge) && e.dst_port == 1) {
                    return Err(format!(
                        "feedback edge must enter a Merge port 1, enters {}",
                        e.dst
                    ));
                }
                self.feedback_in[dst] = true;
            }
        }
        let mut total = 0;
        for f in &mut self.first {
            let width = *f;
            *f = total;
            total += width;
        }
        self.first.push(total);
        self.drivers.clear();
        self.drivers.resize(total, 0);
        // The lowest port that a second edge reaches, found while counting.
        let mut twice = usize::MAX;
        for e in df.edges.iter().filter(|e| e.kind != EdgeKind::Order) {
            let i = self.first[e.dst.0 as usize] + e.dst_port as usize;
            self.drivers[i] += 1;
            if self.drivers[i] == 2 {
                twice = twice.min(i);
            }
        }
        if twice != usize::MAX {
            // The owner is the last node whose ports start at or before it.
            let n = self.first.partition_point(|&f| f <= twice) - 1;
            return Err(format!(
                "{} input port {} driven by {} edges",
                NodeId(n as u32),
                twice - self.first[n],
                self.drivers[twice]
            ));
        }
        let mut has_indvar = false;
        let mut outputs = 0;
        let mut held = Ok(());
        for (i, node) in df.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            let ports = &self.drivers[self.first[i]..][..self.arity[i]];
            if let Some(p) = ports.iter().position(|&count| count == 0) {
                return Err(format!("{id} ({}) input port {p} unconnected", node.name));
            }
            match &node.kind {
                // Merge nodes: port 1 must be a feedback edge.
                NodeKind::Merge if !self.feedback_in[i] => {
                    return Err(format!("{id}: merge port 1 is not a feedback edge"));
                }
                NodeKind::IndVar => has_indvar = true,
                NodeKind::Output => outputs += 1,
                NodeKind::Load { obj, junction, .. } if held.is_ok() => {
                    held = g.check_access(df, id, *obj, *junction, false);
                }
                NodeKind::Store { obj, junction, .. } if held.is_ok() => {
                    held = g.check_access(df, id, *obj, *junction, true);
                }
                NodeKind::TaskCall { callee, .. } if held.is_ok() => {
                    held = g.check_call(id, *callee, tid);
                }
                _ => {}
            }
        }
        // No duplicate junction registrations.
        self.seen_on.clear();
        self.seen_on.resize(nnodes, usize::MAX);
        for (ji, j) in df.junctions.iter().enumerate() {
            for n in j.readers.iter().chain(&j.writers) {
                let seen = self
                    .seen_on
                    .get_mut(n.0 as usize)
                    .ok_or_else(|| format!("junction j{ji} references missing node"))?;
                if *seen == ji {
                    return Err(format!("node {n} registered twice on junction j{ji}"));
                }
                *seen = ji;
            }
        }
        // Loop tasks need an IndVar; region tasks must not have one.
        match (&task.kind, has_indvar) {
            (TaskKind::Loop { .. }, false) => {
                return Err("loop task without IndVar node".to_string());
            }
            (TaskKind::Region, true) => {
                return Err("region task with IndVar node".to_string());
            }
            _ => {}
        }
        // Exactly one Output node.
        if outputs != 1 {
            return Err(format!("expected exactly one Output node, found {outputs}"));
        }
        held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::TaskBlock;
    use crate::dataflow::Junction;
    use crate::node::{Node, OpKind};
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

    /// A junction naming a structure that does not exist, with no
    /// `<==>` connection to catch it first, is reported at the memory node
    /// that uses it instead of indexing past the structure list.
    #[test]
    fn junction_targeting_missing_structure_caught() {
        let mut acc = valid_accel();
        acc.mem_conns.clear();
        acc.tasks[0].dataflow.junctions[0].structure = StructureId(999);
        let e = verify_accelerator(&acc).unwrap_err();
        assert_eq!(
            e.message,
            format!("{}: junction j0 targets missing structure s999", NodeId(3))
        );
        assert_eq!(e.code(), "E-GRAPH");
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
