//! **Simplify** — classic cleanup transformations at the μIR level:
//! constant folding of compute nodes whose inputs are all constants, and
//! dead-node elimination of pure values nobody consumes.
//!
//! The paper notes (§2.2) that FIRRTL-style IRs support "localized circuit
//! transformations (e.g., common-sub-expression elimination)"; μIR supports
//! the same local cleanups *plus* the global structural passes — this pass
//! is the local half, and it demonstrably composes with every structural
//! pass (the manager re-verifies after it).

use crate::fusion::{eliminate_dead, remove_node};
use crate::{Pass, PassDelta, PassError};
use muir_core::accel::Accelerator;
use muir_core::dataflow::{Dataflow, EdgeKind, NodeId};
use muir_core::node::{Node, NodeKind, OpKind};
use muir_mir::flat::{self, Kind, Word};
use muir_mir::instr::ConstVal;

/// The simplification pass (constant folding + DCE).
#[derive(Debug, Clone, Copy, Default)]
pub struct Simplify;

impl Pass for Simplify {
    fn name(&self) -> &'static str {
        "simplify"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        let mut delta = PassDelta::default();
        for t in 0..acc.tasks.len() {
            delta = delta.merge(simplify_dataflow(&mut acc.tasks[t].dataflow));
        }
        Ok(delta)
    }
}

fn const_of(node: &Node) -> Option<Word> {
    match &node.kind {
        NodeKind::Const(c) => Some(Word::from(*c)),
        _ => None,
    }
}

fn word_to_const(w: Word) -> Option<ConstVal> {
    match w.kind {
        Kind::Bool => Some(ConstVal::Bool(w.bits != 0)),
        Kind::Int => w.as_int().map(ConstVal::Int),
        Kind::F32 => w.as_f32().map(ConstVal::F32),
        Kind::Poison | Kind::Lanes => None,
    }
}

/// Fold every compute node whose inputs are all constants, then eliminate
/// dead pure nodes. Returns the touched-element delta.
pub(crate) fn simplify_dataflow(df: &mut Dataflow) -> PassDelta {
    let mut delta = PassDelta::default();
    loop {
        let mut folded = false;
        for n in df.node_ids() {
            let op = match &df.node(n).kind {
                NodeKind::Compute(op) => *op,
                _ => continue,
            };
            // Collect constant inputs in port order (data edges only).
            let mut ins = df
                .edges
                .iter()
                .filter(|e| e.dst == n && e.kind == EdgeKind::Data)
                .collect::<Vec<_>>();
            ins.sort_by_key(|e| e.dst_port);
            let vals: Option<Vec<Word>> = ins.iter().map(|e| const_of(df.node(e.src))).collect();
            let Some(vals) = vals else { continue };
            if vals.len() != op.arity() {
                continue;
            }
            // A fold the evaluator refuses — division by zero, an operand
            // of the wrong kind — is left for the run to report.
            let result = match op {
                OpKind::Bin(b) => flat::bin(b, vals[0], vals[1]),
                OpKind::Un(u) => flat::un(u, vals[0]),
                OpKind::Cmp(p) => flat::cmp(p, vals[0], vals[1]),
                OpKind::Select => {
                    let Some(c) = vals[0].as_int() else {
                        continue;
                    };
                    Ok(vals[if c != 0 { 1 } else { 2 }])
                }
                OpKind::Cast(_) | OpKind::Tensor(..) => continue,
            };
            let Ok(result) = result else { continue };
            let Some(c) = word_to_const(result) else {
                continue;
            };
            // Replace the node with a constant; its input edges die.
            let name = format!("fold_{}", df.node(n).name);
            let ty = df.node(n).ty;
            df.nodes[n.0 as usize] = Node::new(name, NodeKind::Const(c), ty);
            df.edges
                .retain(|e| !(e.dst == n && e.kind == EdgeKind::Data));
            delta.nodes += 1;
            delta.edges += vals.len();
            folded = true;
            break;
        }
        if !folded {
            break;
        }
    }
    // Dead pure nodes (including constants orphaned by folding).
    delta.nodes += eliminate_dead(df);
    // Orphaned order-edge stubs: an Order edge whose source became a
    // constant is meaningless; drop it.
    let dead_orders: Vec<usize> = df
        .edges
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            e.kind == EdgeKind::Order && matches!(df.node(e.src).kind, NodeKind::Const(_))
        })
        .map(|(i, _)| i)
        .collect();
    for i in dead_orders.into_iter().rev() {
        df.edges.remove(i);
        delta.edges += 1;
    }
    let _ = remove_node as fn(&mut Dataflow, NodeId); // re-exported utility
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_core::Type;
    use muir_mir::instr::BinOp;

    fn const_node(df: &mut Dataflow, v: i64) -> NodeId {
        df.add_node(Node::new(
            format!("c{v}"),
            NodeKind::Const(ConstVal::Int(v)),
            Type::I64,
        ))
    }

    #[test]
    fn folds_constant_expressions() {
        let mut df = Dataflow::new();
        let a = const_node(&mut df, 6);
        let b = const_node(&mut df, 7);
        let mul = df.add_node(Node::new(
            "mul",
            NodeKind::Compute(OpKind::Bin(BinOp::Mul)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(a, 0, mul, 0);
        df.connect(b, 0, mul, 1);
        df.connect(mul, 0, out, 0);
        let delta = simplify_dataflow(&mut df);
        assert!(delta.nodes >= 1);
        // mul became Const(42); a and b became dead and were removed.
        let consts: Vec<i64> = df
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Const(ConstVal::Int(v)) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![42]);
        assert_eq!(df.nodes.len(), 2); // the folded const + output
    }

    #[test]
    fn folds_transitively() {
        // (2+3)*4 folds to 20 across two rounds.
        let mut df = Dataflow::new();
        let a = const_node(&mut df, 2);
        let b = const_node(&mut df, 3);
        let c = const_node(&mut df, 4);
        let add = df.add_node(Node::new(
            "add",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let mul = df.add_node(Node::new(
            "mul",
            NodeKind::Compute(OpKind::Bin(BinOp::Mul)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(a, 0, add, 0);
        df.connect(b, 0, add, 1);
        df.connect(add, 0, mul, 0);
        df.connect(c, 0, mul, 1);
        df.connect(mul, 0, out, 0);
        simplify_dataflow(&mut df);
        let consts: Vec<i64> = df
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Const(ConstVal::Int(v)) => Some(v),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![20]);
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut df = Dataflow::new();
        let a = const_node(&mut df, 1);
        let b = const_node(&mut df, 0);
        let div = df.add_node(Node::new(
            "div",
            NodeKind::Compute(OpKind::Bin(BinOp::Div)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(a, 0, div, 0);
        df.connect(b, 0, div, 1);
        df.connect(div, 0, out, 0);
        simplify_dataflow(&mut df);
        assert!(df
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Compute(OpKind::Bin(BinOp::Div)))));
    }

    /// A fold over constants of the wrong kind — `add` of a float, `relu`
    /// or a comparison's integer side fed a boolean or float, `select` on
    /// a float — used to panic in `Value::as_int`/`as_f32`/`as_bool`
    /// inside the pass. The node is left for the run to report.
    #[test]
    fn mistyped_constants_are_not_folded() {
        use muir_mir::instr::{CmpPred, UnOp};
        let f = ConstVal::F32(1.5);
        let cases = [
            (OpKind::Bin(BinOp::Add), vec![f, ConstVal::Int(1)]),
            (OpKind::Un(UnOp::Relu), vec![ConstVal::Bool(true)]),
            (OpKind::Cmp(CmpPred::Lt), vec![ConstVal::Int(1), f]),
            (OpKind::Select, vec![f, ConstVal::Int(1), ConstVal::Int(2)]),
        ];
        for (op, ins) in cases {
            let mut df = Dataflow::new();
            let node = df.add_node(Node::new("op", NodeKind::Compute(op), Type::I64));
            for (port, c) in ins.into_iter().enumerate() {
                let c = df.add_node(Node::new("c", NodeKind::Const(c), Type::I64));
                df.connect(c, 0, node, port as u16);
            }
            let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
            df.connect(node, 0, out, 0);
            let before = df.nodes.len();
            simplify_dataflow(&mut df);
            assert_eq!(df.nodes.len(), before, "{op:?}");
        }
    }

    #[test]
    fn non_constant_inputs_left_alone() {
        let mut df = Dataflow::new();
        let inp = df.add_node(Node::new("in", NodeKind::Input { index: 0 }, Type::I64));
        let b = const_node(&mut df, 3);
        let add = df.add_node(Node::new(
            "add",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(inp, 0, add, 0);
        df.connect(b, 0, add, 1);
        df.connect(add, 0, out, 0);
        let before = df.nodes.len();
        simplify_dataflow(&mut df);
        assert_eq!(df.nodes.len(), before);
    }
}

/// **Common-subexpression elimination** at the μIR level: two compute nodes
/// with the same operation and the same input connections are the same
/// hardware — keep one function unit and fan its result out (§2.2 names
/// CSE as the FIRRTL-class local pass; μIR subsumes it).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        let mut delta = PassDelta::default();
        for t in 0..acc.tasks.len() {
            delta = delta.merge(cse_dataflow(&mut acc.tasks[t].dataflow));
        }
        Ok(delta)
    }
}

/// Merge duplicate pure compute nodes; returns the touched-element delta.
pub(crate) fn cse_dataflow(df: &mut Dataflow) -> PassDelta {
    let mut delta = PassDelta::default();
    loop {
        let mut victim: Option<(NodeId, NodeId)> = None; // (kept, removed)
        'scan: for a in df.node_ids() {
            let (op_a, ty_a) = match &df.node(a).kind {
                NodeKind::Compute(op) => (*op, df.node(a).ty),
                _ => continue,
            };
            let ins_a = input_signature(df, a);
            for b in df.node_ids() {
                if b.0 <= a.0 {
                    continue;
                }
                let matches_op = match &df.node(b).kind {
                    NodeKind::Compute(op) => *op == op_a && df.node(b).ty == ty_a,
                    _ => false,
                };
                if matches_op && input_signature(df, b) == ins_a && !ins_a.is_empty() {
                    victim = Some((a, b));
                    break 'scan;
                }
            }
        }
        let Some((keep, dead)) = victim else { break };
        // Re-point the duplicate's consumers at the kept node, drop its
        // input edges, and remove it.
        for e in df.edges.iter_mut() {
            if e.src == dead {
                e.src = keep;
                delta.edges += 1;
            }
        }
        df.edges.retain(|e| e.dst != dead);
        remove_node(df, dead);
        delta.nodes += 1;
    }
    delta
}

/// Input connections of a node as a sorted `(port, src, src_port)` list.
fn input_signature(df: &Dataflow, n: NodeId) -> Vec<(u16, NodeId, u16)> {
    let mut v: Vec<(u16, NodeId, u16)> = df
        .edges
        .iter()
        .filter(|e| e.dst == n && e.kind == EdgeKind::Data)
        .map(|e| (e.dst_port, e.src, e.src_port))
        .collect();
    v.sort_unstable();
    v
}

#[cfg(test)]
mod cse_tests {
    use super::*;
    use muir_core::Type;
    use muir_mir::instr::BinOp;

    #[test]
    fn duplicate_computations_merge() {
        let mut df = Dataflow::new();
        let x = df.add_node(Node::new("x", NodeKind::Input { index: 0 }, Type::I64));
        let y = df.add_node(Node::new("y", NodeKind::Input { index: 1 }, Type::I64));
        let a1 = df.add_node(Node::new(
            "a1",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let a2 = df.add_node(Node::new(
            "a2",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let m = df.add_node(Node::new(
            "m",
            NodeKind::Compute(OpKind::Bin(BinOp::Mul)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(x, 0, a1, 0);
        df.connect(y, 0, a1, 1);
        df.connect(x, 0, a2, 0);
        df.connect(y, 0, a2, 1);
        df.connect(a1, 0, m, 0);
        df.connect(a2, 0, m, 1);
        df.connect(m, 0, out, 0);
        let delta = cse_dataflow(&mut df);
        assert_eq!(delta.nodes, 1);
        // One adder remains; the multiplier's two inputs come from it.
        let adders = df
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Compute(OpKind::Bin(BinOp::Add))))
            .count();
        assert_eq!(adders, 1);
        muir_core::verify::verify_accelerator(&wrap(df)).unwrap();
    }

    #[test]
    fn different_inputs_not_merged() {
        let mut df = Dataflow::new();
        let x = df.add_node(Node::new("x", NodeKind::Input { index: 0 }, Type::I64));
        let y = df.add_node(Node::new("y", NodeKind::Input { index: 1 }, Type::I64));
        let a1 = df.add_node(Node::new(
            "a1",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let a2 = df.add_node(Node::new(
            "a2",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(x, 0, a1, 0);
        df.connect(y, 0, a1, 1);
        // a2 swaps the operand order: a different connection pattern.
        df.connect(y, 0, a2, 0);
        df.connect(x, 0, a2, 1);
        df.connect(a1, 0, out, 0);
        let _ = a2;
        let delta = cse_dataflow(&mut df);
        assert_eq!(delta.nodes, 0);
    }

    fn wrap(df: Dataflow) -> Accelerator {
        use muir_core::accel::{TaskBlock, TaskKind};
        let mut acc = Accelerator::new("t");
        let mut task = TaskBlock::new("main", TaskKind::Region);
        task.num_args = 2;
        task.num_results = 1;
        task.dataflow = df;
        let tid = acc.add_task(task);
        acc.root = tid;
        acc
    }
}
