//! **Tensor lowering** — the inverse of §6.3's higher-order ops.
//!
//! The paper evaluates tensor function units by comparing against a
//! baseline that "implements the operation through the pipeline", i.e. a
//! scalar dataflow. This pass produces that baseline from the tensor-typed
//! graph: every Tensor2D value is *lane-expanded* into scalar values, every
//! tensor op into a network of scalar function units (the 2×2 matmul
//! becomes the 8-multiplier/4-adder network that Figure 14's reduction
//! tree replaces), every tile load/store into per-element accesses, and
//! tensor-typed task arguments/results into one scalar slot per element —
//! across task boundaries.
//!
//! Speedup of the untouched graph over the lowered one is Figure 15.

use crate::{Pass, PassDelta, PassError};
use muir_core::accel::{Accelerator, ArgExpr, ResultInit, TaskKind};
use muir_core::compiled::forward_topo;
use muir_core::dataflow::{Dataflow, EdgeKind, Junction, NodeId};
use muir_core::node::{Node, NodeKind, OpKind};
use muir_core::Type;
use muir_mir::instr::{BinOp, TensorOp, UnOp};
use std::collections::HashMap;

/// The tensor-lowering pass.
#[derive(Debug, Clone, Default)]
pub struct LowerTensors;

/// Per-task interface remapping after lane expansion.
#[derive(Debug, Clone, Default)]
struct TaskRemap {
    /// Old argument index → new argument indices (one per lane).
    arg_map: Vec<Vec<u32>>,
    /// Old result port → new result ports.
    result_map: Vec<Vec<u16>>,
}

impl Pass for LowerTensors {
    fn name(&self) -> &'static str {
        "lower-tensors"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        let n = acc.tasks.len();
        let mut remaps: Vec<TaskRemap> = vec![TaskRemap::default(); n];
        let mut delta = PassDelta::default();
        // Children always have larger ids than their parents (the
        // front-end reserves parents first), so decreasing order processes
        // callees before their call sites.
        for t in (0..n).rev() {
            let d = expand_task(acc, t, &mut remaps).map_err(|m| PassError {
                pass: "lower-tensors".into(),
                message: m,
            })?;
            delta = delta.merge(d);
        }
        Ok(delta)
    }
}

fn elem_ty(ty: Type) -> Type {
    Type::Scalar(ty.elem())
}

fn lanes_of(ty: Type) -> usize {
    ty.elems() as usize
}

type Lane = (NodeId, u16);

#[allow(clippy::too_many_lines)]
fn expand_task(
    acc: &mut Accelerator,
    t: usize,
    remaps: &mut [TaskRemap],
) -> Result<PassDelta, String> {
    let old_task = acc.tasks[t].clone();
    let old = &old_task.dataflow;
    let mut delta = PassDelta::default();

    // Does anything here need expansion?
    let has_tensor = old.nodes.iter().any(|n| n.ty.is_composite());
    let calls_changed = old.nodes.iter().any(|n| match n.kind {
        NodeKind::TaskCall { callee, .. } => {
            let r = &remaps[callee.0 as usize];
            r.arg_map.iter().any(|v| v.len() > 1) || r.result_map.iter().any(|v| v.len() > 1)
        }
        _ => false,
    });
    // Identity remap prepared up-front.
    let mut identity = TaskRemap::default();
    for i in 0..old_task.num_args {
        identity.arg_map.push(vec![i]);
    }
    for q in 0..old_task.num_results {
        identity.result_map.push(vec![q as u16]);
    }
    if !has_tensor && !calls_changed {
        remaps[t] = identity;
        return Ok(delta);
    }

    // New argument index assignment, in old-index order.
    let mut inputs: Vec<(NodeId, u32, Type)> = old
        .node_ids()
        .filter_map(|n| match old.node(n).kind {
            NodeKind::Input { index } => Some((n, index, old.node(n).ty)),
            _ => None,
        })
        .collect();
    inputs.sort_by_key(|(_, idx, _)| *idx);
    let mut arg_map: Vec<Vec<u32>> = vec![Vec::new(); old_task.num_args as usize];
    let mut next_arg = 0u32;
    for (_, idx, ty) in &inputs {
        let n = lanes_of(*ty) as u32;
        arg_map[*idx as usize] = (next_arg..next_arg + n).collect();
        next_arg += n;
    }

    let mut df = Dataflow::new();
    for j in &old.junctions {
        df.add_junction(Junction {
            readers: Vec::new(),
            writers: Vec::new(),
            ..j.clone()
        });
    }

    // Lanes of each old (node, out-port).
    let mut lanes: HashMap<(NodeId, u16), Vec<Lane>> = HashMap::new();
    let mut result_map: Vec<Vec<u16>> = Vec::new();
    let mut feedback_patch: Vec<(NodeId, u16, Vec<NodeId>)> = Vec::new(); // (old src, port, merge lanes)
    let mut order_map: HashMap<NodeId, Vec<NodeId>> = HashMap::new(); // old node -> new "completion" nodes

    // Helper closures can't borrow df mutably across calls ergonomically;
    // use small fns instead.
    fn in_edges_sorted(old: &Dataflow, n: NodeId) -> Vec<muir_core::dataflow::Edge> {
        let mut v: Vec<_> = old
            .edges
            .iter()
            .copied()
            .filter(|e| e.dst == n && e.kind != EdgeKind::Order)
            .collect();
        v.sort_by_key(|e| e.dst_port);
        v
    }

    let topo = forward_topo(old);
    for &oi in &topo {
        let on = NodeId(oi as u32);
        let node = old.node(on).clone();
        let ins = in_edges_sorted(old, on);
        let get_lanes =
            |lanes: &HashMap<(NodeId, u16), Vec<Lane>>, port: u16| -> Result<Vec<Lane>, String> {
                let e = ins
                    .iter()
                    .find(|e| e.dst_port == port)
                    .ok_or_else(|| format!("missing input port {port} on {on}"))?;
                lanes
                    .get(&(e.src, e.src_port))
                    .cloned()
                    .ok_or_else(|| format!("unlowered operand of {on}"))
            };
        let mut new_primary: Vec<NodeId> = Vec::new();
        match &node.kind {
            NodeKind::Input { index } => {
                let ids = &arg_map[*index as usize];
                let mut lv = Vec::new();
                for (k, &ni) in ids.iter().enumerate() {
                    let nn = df.add_node(Node::new(
                        format!("{}_{k}", node.name),
                        NodeKind::Input { index: ni },
                        elem_ty(node.ty),
                    ));
                    lv.push((nn, 0));
                    new_primary.push(nn);
                }
                if node.ty.is_composite() {
                    delta.nodes += ids.len();
                }
                lanes.insert((on, 0), lv);
            }
            NodeKind::Const(_) | NodeKind::IndVar => {
                let nn = df.add_node(node.clone());
                lanes.insert((on, 0), vec![(nn, 0)]);
                new_primary.push(nn);
            }
            NodeKind::Merge => {
                let nl = lanes_of(node.ty);
                let init = get_lanes(&lanes, 0)?;
                let fb_edge = ins.iter().find(|e| e.dst_port == 1).cloned();
                let mut lv = Vec::new();
                let mut merge_ids = Vec::new();
                for (k, &(s, sp)) in init.iter().enumerate().take(nl) {
                    let nn = df.add_node(Node::new(
                        format!("{}_{k}", node.name),
                        NodeKind::Merge,
                        elem_ty(node.ty),
                    ));
                    df.connect(s, sp, nn, 0);
                    lv.push((nn, 0));
                    merge_ids.push(nn);
                    new_primary.push(nn);
                }
                if nl > 1 {
                    delta.nodes += nl;
                    delta.edges += nl;
                }
                if let Some(fb) = fb_edge {
                    feedback_patch.push((fb.src, fb.src_port, merge_ids));
                }
                lanes.insert((on, 0), lv);
            }
            NodeKind::Compute(op) => {
                let emitted = emit_compute(&mut df, &node, *op, &ins, &lanes, &mut delta)?;
                new_primary.extend(emitted.iter().map(|(n, _)| *n));
                lanes.insert((on, 0), emitted);
            }
            NodeKind::FusedAcc { .. } | NodeKind::Fused(_) => {
                // Fusion runs after lowering in every pipeline we build;
                // a fused node is scalar by construction.
                let nn = df.add_node(node.clone());
                for e in &ins {
                    let l = lanes
                        .get(&(e.src, e.src_port))
                        .ok_or("unlowered operand of fused node")?;
                    df.connect(l[0].0, l[0].1, nn, e.dst_port);
                }
                lanes.insert((on, 0), vec![(nn, 0)]);
                new_primary.push(nn);
            }
            NodeKind::Load {
                obj,
                junction,
                predicated,
            } => {
                let nl = lanes_of(node.ty);
                let addr = get_lanes(&lanes, 0)?[0];
                let pred = if *predicated {
                    Some(get_lanes(&lanes, 1)?[0])
                } else {
                    None
                };
                let mut lv = Vec::new();
                for k in 0..nl {
                    let a = if k == 0 {
                        addr
                    } else {
                        let add = df.add_node(Node::new(
                            format!("{}_a{k}", node.name),
                            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
                            Type::I64,
                        ));
                        let c = df.add_node(Node::new(
                            format!("c{k}"),
                            NodeKind::Const(muir_mir::instr::ConstVal::Int(k as i64)),
                            Type::I64,
                        ));
                        df.connect(addr.0, addr.1, add, 0);
                        df.connect(c, 0, add, 1);
                        delta.nodes += 2;
                        (add, 0)
                    };
                    let ld = df.add_node(Node::new(
                        format!("{}_{k}", node.name),
                        NodeKind::Load {
                            obj: *obj,
                            junction: *junction,
                            predicated: *predicated,
                        },
                        elem_ty(node.ty),
                    ));
                    df.connect(a.0, a.1, ld, 0);
                    if let Some((p, pp)) = pred {
                        df.connect(p, pp, ld, 1);
                    }
                    df.register_reader(*junction, ld);
                    lv.push((ld, 0));
                    new_primary.push(ld);
                }
                if nl > 1 {
                    delta.nodes += nl;
                    delta.edges += nl;
                }
                lanes.insert((on, 0), lv);
            }
            NodeKind::Store {
                obj,
                junction,
                predicated,
            } => {
                let nl = lanes_of(node.ty);
                let addr = get_lanes(&lanes, 0)?[0];
                let vals = get_lanes(&lanes, 1)?;
                let pred = if *predicated {
                    Some(get_lanes(&lanes, 2)?[0])
                } else {
                    None
                };
                if vals.len() != nl {
                    return Err(format!("store value lanes {} != {nl}", vals.len()));
                }
                for (k, &(v, vp)) in vals.iter().enumerate() {
                    let a = if k == 0 {
                        addr
                    } else {
                        let add = df.add_node(Node::new(
                            format!("{}_a{k}", node.name),
                            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
                            Type::I64,
                        ));
                        let c = df.add_node(Node::new(
                            format!("c{k}"),
                            NodeKind::Const(muir_mir::instr::ConstVal::Int(k as i64)),
                            Type::I64,
                        ));
                        df.connect(addr.0, addr.1, add, 0);
                        df.connect(c, 0, add, 1);
                        delta.nodes += 2;
                        (add, 0)
                    };
                    let st = df.add_node(Node::new(
                        format!("{}_{k}", node.name),
                        NodeKind::Store {
                            obj: *obj,
                            junction: *junction,
                            predicated: *predicated,
                        },
                        elem_ty(node.ty),
                    ));
                    df.connect(a.0, a.1, st, 0);
                    df.connect(v, vp, st, 1);
                    if let Some((p, pp)) = pred {
                        df.connect(p, pp, st, 2);
                    }
                    df.register_writer(*junction, st);
                    new_primary.push(st);
                }
                if nl > 1 {
                    delta.nodes += nl;
                    delta.edges += 2 * nl;
                }
            }
            NodeKind::TaskCall {
                callee,
                predicated,
                spawn,
            } => {
                let cr = remaps[callee.0 as usize].clone();
                let new_nargs: u32 = cr.arg_map.iter().map(|v| v.len() as u32).sum();
                let nn = df.add_node(Node::new(
                    node.name.clone(),
                    NodeKind::TaskCall {
                        callee: *callee,
                        predicated: *predicated,
                        spawn: *spawn,
                    },
                    elem_ty(node.ty),
                ));
                // Arguments.
                for (old_arg, new_ids) in cr.arg_map.iter().enumerate() {
                    let src_lanes = get_lanes(&lanes, old_arg as u16)?;
                    if src_lanes.len() != new_ids.len() {
                        return Err(format!(
                            "call arg {old_arg}: {} lanes for {} slots",
                            src_lanes.len(),
                            new_ids.len()
                        ));
                    }
                    for (l, &ni) in src_lanes.iter().zip(new_ids) {
                        df.connect(l.0, l.1, nn, ni as u16);
                        delta.edges += usize::from(new_ids.len() > 1);
                    }
                }
                if *predicated {
                    let p = get_lanes(&lanes, old_arg_count(&cr) as u16)?[0];
                    df.connect(p.0, p.1, nn, new_nargs as u16);
                }
                // Results.
                for (q, ports) in cr.result_map.iter().enumerate() {
                    let lv: Vec<Lane> = ports.iter().map(|&p| (nn, p)).collect();
                    lanes.insert((on, q as u16), lv);
                }
                new_primary.push(nn);
            }
            NodeKind::Output => {
                let nn = df.add_node(Node::new("out", NodeKind::Output, elem_ty(node.ty)));
                let mut next_port = 0u16;
                for e in &ins {
                    let lv = lanes
                        .get(&(e.src, e.src_port))
                        .cloned()
                        .ok_or("unlowered result operand")?;
                    let mut ports = Vec::new();
                    for l in lv {
                        df.connect(l.0, l.1, nn, next_port);
                        ports.push(next_port);
                        next_port += 1;
                    }
                    result_map.push(ports);
                }
                new_primary.push(nn);
            }
        }
        order_map.insert(on, new_primary);
    }

    // Feedback edges, lane-wise.
    for (src, src_port, merges) in feedback_patch {
        let lv = lanes
            .get(&(src, src_port))
            .cloned()
            .ok_or("feedback source not lowered")?;
        if lv.len() != merges.len() {
            return Err("feedback lane mismatch".to_string());
        }
        for (l, m) in lv.iter().zip(&merges) {
            df.connect_feedback(l.0, l.1, *m);
        }
    }
    // Order edges, all-lanes to all-lanes.
    for e in old.edges.iter().filter(|e| e.kind == EdgeKind::Order) {
        let srcs = order_map.get(&e.src).cloned().unwrap_or_default();
        let dsts = order_map.get(&e.dst).cloned().unwrap_or_default();
        for &s in &srcs {
            for &d in &dsts {
                df.connect_order(s, d);
            }
        }
    }

    // Interface updates.
    let new_num_results: u32 = result_map.iter().map(|v| v.len() as u32).sum();
    let mut inits = Vec::new();
    for (q, ports) in result_map.iter().enumerate() {
        let old_init = old_task.loop_result_inits.get(q).copied().flatten();
        for k in 0..ports.len() {
            inits.push(match old_init {
                Some(ResultInit::Arg(a)) => {
                    arg_map[a as usize].get(k).map(|&na| ResultInit::Arg(na))
                }
                Some(ResultInit::Const(c)) => Some(ResultInit::Const(c)),
                None => None,
            });
        }
    }
    let kind = match old_task.kind.clone() {
        TaskKind::Loop { spec, serial } => {
            let remap_expr = |e: ArgExpr| match e {
                ArgExpr::Arg(a) => ArgExpr::Arg(arg_map[a as usize][0]),
                c => c,
            };
            TaskKind::Loop {
                spec: muir_core::accel::LoopSpec {
                    lo: remap_expr(spec.lo),
                    hi: remap_expr(spec.hi),
                    step: spec.step,
                },
                serial,
            }
        }
        k => k,
    };
    let task = &mut acc.tasks[t];
    task.dataflow = df;
    task.kind = kind;
    task.num_args = next_arg;
    task.num_results = new_num_results;
    task.loop_result_inits = inits;
    remaps[t] = TaskRemap {
        arg_map,
        result_map,
    };
    Ok(delta)
}

fn old_arg_count(cr: &TaskRemap) -> usize {
    cr.arg_map.len()
}

/// Lane networks for compute ops.
fn emit_compute(
    df: &mut Dataflow,
    node: &Node,
    op: OpKind,
    ins: &[muir_core::dataflow::Edge],
    lanes: &HashMap<(NodeId, u16), Vec<Lane>>,
    delta: &mut PassDelta,
) -> Result<Vec<Lane>, String> {
    let fetch = |port: u16| -> Result<Vec<Lane>, String> {
        let e = ins
            .iter()
            .find(|e| e.dst_port == port)
            .ok_or_else(|| format!("missing operand port {port}"))?;
        lanes
            .get(&(e.src, e.src_port))
            .cloned()
            .ok_or_else(|| "unlowered operand".to_string())
    };
    let is_float = node.ty.is_float();
    let (mul_op, add_op) = if is_float {
        (OpKind::Bin(BinOp::FMul), OpKind::Bin(BinOp::FAdd))
    } else {
        (OpKind::Bin(BinOp::Mul), OpKind::Bin(BinOp::Add))
    };
    let ety = elem_ty(node.ty);
    match op {
        OpKind::Tensor(TensorOp::Add, _) | OpKind::Tensor(TensorOp::Mul, _) => {
            let a = fetch(0)?;
            let b = fetch(1)?;
            let o = if matches!(op, OpKind::Tensor(TensorOp::Add, _)) {
                add_op
            } else {
                mul_op
            };
            let mut out = Vec::new();
            for k in 0..a.len() {
                let n = df.add_node(Node::new(
                    format!("{}_{k}", node.name),
                    NodeKind::Compute(o),
                    ety,
                ));
                df.connect(a[k].0, a[k].1, n, 0);
                df.connect(b[k].0, b[k].1, n, 1);
                out.push((n, 0));
            }
            delta.nodes += a.len();
            delta.edges += 2 * a.len();
            Ok(out)
        }
        OpKind::Tensor(TensorOp::Relu, _) => {
            let a = fetch(0)?;
            let mut out = Vec::new();
            for (k, &(src, sp)) in a.iter().enumerate() {
                let n = df.add_node(Node::new(
                    format!("{}_{k}", node.name),
                    NodeKind::Compute(OpKind::Un(UnOp::Relu)),
                    ety,
                ));
                df.connect(src, sp, n, 0);
                out.push((n, 0));
            }
            delta.nodes += a.len();
            delta.edges += a.len();
            Ok(out)
        }
        OpKind::Tensor(TensorOp::MatMul, shape) => {
            let a = fetch(0)?;
            let b = fetch(1)?;
            let n = shape.rows as usize;
            let mut out = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    let mut acc: Option<Lane> = None;
                    for t in 0..n {
                        let m = df.add_node(Node::new(
                            format!("{}_m{i}{j}{t}", node.name),
                            NodeKind::Compute(mul_op),
                            ety,
                        ));
                        df.connect(a[i * n + t].0, a[i * n + t].1, m, 0);
                        df.connect(b[t * n + j].0, b[t * n + j].1, m, 1);
                        delta.nodes += 1;
                        delta.edges += 2;
                        acc = Some(match acc {
                            None => (m, 0),
                            Some(prev) => {
                                let s = df.add_node(Node::new(
                                    format!("{}_s{i}{j}{t}", node.name),
                                    NodeKind::Compute(add_op),
                                    ety,
                                ));
                                df.connect(prev.0, prev.1, s, 0);
                                df.connect(m, 0, s, 1);
                                delta.nodes += 1;
                                delta.edges += 2;
                                (s, 0)
                            }
                        });
                    }
                    out.push(acc.expect("n > 0"));
                }
            }
            Ok(out)
        }
        OpKind::Tensor(TensorOp::Conv, _) => {
            let a = fetch(0)?;
            let b = fetch(1)?;
            let mut acc: Option<Lane> = None;
            for k in 0..a.len() {
                let m = df.add_node(Node::new(
                    format!("{}_m{k}", node.name),
                    NodeKind::Compute(mul_op),
                    ety,
                ));
                df.connect(a[k].0, a[k].1, m, 0);
                df.connect(b[k].0, b[k].1, m, 1);
                delta.nodes += 1;
                delta.edges += 2;
                acc = Some(match acc {
                    None => (m, 0),
                    Some(prev) => {
                        let s = df.add_node(Node::new(
                            format!("{}_s{k}", node.name),
                            NodeKind::Compute(add_op),
                            ety,
                        ));
                        df.connect(prev.0, prev.1, s, 0);
                        df.connect(m, 0, s, 1);
                        delta.nodes += 1;
                        delta.edges += 2;
                        (s, 0)
                    }
                });
            }
            Ok(vec![acc.ok_or("empty conv")?])
        }
        OpKind::Tensor(TensorOp::Reduce, _) => {
            let a = fetch(0)?;
            let mut acc: Option<Lane> = None;
            for (k, &(src, sp)) in a.iter().enumerate() {
                acc = Some(match acc {
                    None => (src, sp),
                    Some(prev) => {
                        let s = df.add_node(Node::new(
                            format!("{}_s{k}", node.name),
                            NodeKind::Compute(add_op),
                            ety,
                        ));
                        df.connect(prev.0, prev.1, s, 0);
                        df.connect(src, sp, s, 1);
                        delta.nodes += 1;
                        delta.edges += 2;
                        (s, 0)
                    }
                });
            }
            Ok(vec![acc.ok_or("empty reduce")?])
        }
        OpKind::Tensor(TensorOp::Softmax, _) => {
            let a = fetch(0)?;
            let mut exps = Vec::with_capacity(a.len());
            for (k, &(src, sp)) in a.iter().enumerate() {
                let e = df.add_node(Node::new(
                    format!("{}_e{k}", node.name),
                    NodeKind::Compute(OpKind::Un(UnOp::Exp)),
                    ety,
                ));
                df.connect(src, sp, e, 0);
                delta.nodes += 1;
                delta.edges += 1;
                exps.push((e, 0u16));
            }
            let mut sum: Option<Lane> = None;
            for (k, &(src, sp)) in exps.iter().enumerate() {
                sum = Some(match sum {
                    None => (src, sp),
                    Some(prev) => {
                        let s = df.add_node(Node::new(
                            format!("{}_s{k}", node.name),
                            NodeKind::Compute(OpKind::Bin(BinOp::FAdd)),
                            ety,
                        ));
                        df.connect(prev.0, prev.1, s, 0);
                        df.connect(src, sp, s, 1);
                        delta.nodes += 1;
                        delta.edges += 2;
                        (s, 0)
                    }
                });
            }
            let sum = sum.ok_or("empty softmax")?;
            let mut out = Vec::with_capacity(exps.len());
            for (k, &(src, sp)) in exps.iter().enumerate() {
                let d = df.add_node(Node::new(
                    format!("{}_d{k}", node.name),
                    NodeKind::Compute(OpKind::Bin(BinOp::FDiv)),
                    ety,
                ));
                df.connect(src, sp, d, 0);
                df.connect(sum.0, sum.1, d, 1);
                delta.nodes += 1;
                delta.edges += 2;
                out.push((d, 0));
            }
            Ok(out)
        }
        // Plain scalar op: copy, wiring lane 0 of each operand.
        _ => {
            let nn = df.add_node(node.clone());
            for e in ins {
                let l = lanes.get(&(e.src, e.src_port)).ok_or("unlowered operand")?;
                df.connect(l[0].0, l[0].1, nn, e.dst_port);
            }
            Ok(vec![(nn, 0)])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassManager;
    use muir_frontend::{translate, FrontendConfig};
    use muir_mir::interp::Memory;
    use muir_sim::{simulate_compiled, SimConfig};
    use muir_workloads as workloads;

    fn lower_and_check(name: &str) -> (u64, u64) {
        let w = workloads::by_name(name).expect("workload exists");
        // Both variants run on localized (type-specific) scratchpads — the
        // memory organisation of §6.3: the tensor variant's scratchpads are
        // tile-shaped, the scalar variant's are not.
        let mut acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let mut lowered = acc.clone();
        let report = PassManager::new()
            .with(LowerTensors)
            .run(&mut lowered)
            .unwrap();
        let localize = PassManager::new().with(crate::passes::MemoryLocalization::default());
        let (native_comp, _) = localize.seal(&mut acc).unwrap();
        let (lowered_comp, _) = localize.seal(&mut lowered).unwrap();
        assert!(report.total().nodes > 0, "{name}: nothing lowered?");
        // No tensor-typed nodes remain.
        for t in &lowered.tasks {
            for n in &t.dataflow.nodes {
                assert!(
                    !n.ty.is_composite(),
                    "{name}: {} still tensor-typed",
                    n.name
                );
            }
        }
        // Functional equivalence of both variants.
        let ref_mem = w.run_reference().unwrap();
        let mut m1 = w.fresh_memory();
        let r1 = simulate_compiled(&native_comp, &mut m1, &[], &SimConfig::default()).unwrap();
        assert!(
            w.outputs_match(&ref_mem, &m1),
            "{name}: native tensor sim wrong"
        );
        let mut m2: Memory = w.fresh_memory();
        let r2 = simulate_compiled(&lowered_comp, &mut m2, &[], &SimConfig::default()).unwrap();
        assert!(w.outputs_match(&ref_mem, &m2), "{name}: lowered sim wrong");
        (r1.cycles, r2.cycles)
    }

    #[test]
    fn relu_tensor_lowers_and_slows() {
        let (native, lowered) = lower_and_check("RELU[T]");
        assert!(lowered > native, "native {native} vs lowered {lowered}");
    }

    #[test]
    fn conv_tensor_lowers_and_slows() {
        let (native, lowered) = lower_and_check("CONV[T]");
        assert!(lowered > native, "native {native} vs lowered {lowered}");
    }

    #[test]
    fn reduce_softmax_lower_to_scalar_lanes() {
        use muir_mir::builder::FunctionBuilder;
        use muir_mir::instr::TensorOp;
        use muir_mir::types::{ScalarType, TensorShape};
        use muir_mir::{Module, ValueRef};

        let mut m = Module::new("rs_lower");
        let a = m.add_mem_object("a", ScalarType::F32, 8);
        let o = m.add_mem_object("o", ScalarType::F32, 8);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        let sh = TensorShape::new(1, 4);
        let t = b.load_tile(a, ValueRef::int(0), sh);
        let red = b.tensor1(TensorOp::Reduce, sh, t);
        b.store(o, ValueRef::int(0), red);
        let sm = b.tensor1(TensorOp::Softmax, sh, t);
        b.store(o, ValueRef::int(4), sm);
        b.ret(None);
        m.add_function(b.finish());
        muir_mir::verify::verify_module(&m).unwrap();

        let acc = translate(&m, &FrontendConfig::default()).unwrap();
        let mut lowered = acc.clone();
        let report = PassManager::new()
            .with(LowerTensors)
            .run(&mut lowered)
            .unwrap();
        assert!(report.total().nodes > 0, "nothing lowered?");
        for t in &lowered.tasks {
            for n in &t.dataflow.nodes {
                assert!(!n.ty.is_composite(), "{} still tensor-typed", n.name);
            }
        }
        let run = |acc: &_| {
            let comp = muir_core::CompiledAccel::compile(acc).unwrap();
            let mut mem = Memory::from_module(&m);
            mem.init_f32(a, &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
            simulate_compiled(&comp, &mut mem, &[], &SimConfig::default()).unwrap();
            mem.read_f32(o)
        };
        let (native, low) = (run(&acc), run(&lowered));
        assert_eq!(native[0], 10.0, "reduce wrong: {native:?}");
        let sum: f32 = native[4..8].iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "softmax wrong: {native:?}");
        for (x, y) in native.iter().zip(&low) {
            assert!((x - y).abs() < 1e-5, "native {native:?} vs lowered {low:?}");
        }
    }

    #[test]
    fn mm2_tensor_lowers_across_task_boundaries() {
        // 2MM[T] passes a tensor accumulator into its k-loop child: the
        // lane expansion must rewrite the task interface.
        let (native, lowered) = lower_and_check("2MM[T]");
        assert!(lowered > native, "native {native} vs lowered {lowered}");
    }
}
