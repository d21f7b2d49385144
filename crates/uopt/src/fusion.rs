//! **Pass 5 — Auto-pipelining and op-fusion** (§6.1, Figure 10).
//!
//! The baseline μIR makes no scheduling decisions: every dataflow edge
//! carries a ready/valid handshake and a pipeline register. This pass walks
//! each task's dataflow depth-first looking for single-consumer chains of
//! cheap scalar operations and greedily fuses them into [`FusedPlan`]
//! nodes, eliminating the interior handshakes and registers. Fusion is
//! constrained by a clock-period budget so the re-timed pipeline never
//! robs frequency (§6.1: "we seek to ensure that the resulting fused
//! pipeline's frequency is not penalized").

use crate::{Pass, PassDelta, PassError};
use muir_core::accel::Accelerator;
use muir_core::dataflow::{Dataflow, EdgeIndex, EdgeKind, NodeId};
use muir_core::hw;
use muir_core::node::{FusedInput, FusedPlan, FusedStep, Name, Node, NodeKind, OpKind};
use muir_core::Type;

/// The op-fusion pass.
#[derive(Debug, Clone)]
pub struct OpFusion {
    /// Clock-period budget (ns): a fused node's combinational path must fit.
    pub max_delay_ns: f64,
    /// Upper bound on primitive ops per fused node.
    pub max_ops: usize,
}

impl Default for OpFusion {
    fn default() -> Self {
        OpFusion {
            max_delay_ns: hw::BASELINE_PERIOD_NS,
            max_ops: 16,
        }
    }
}

impl OpFusion {
    /// Fusion with a custom period budget (frequency/cycle-count tradeoff
    /// ablation).
    pub fn with_period(max_delay_ns: f64) -> OpFusion {
        OpFusion {
            max_delay_ns,
            ..OpFusion::default()
        }
    }
}

impl Pass for OpFusion {
    fn name(&self) -> &'static str {
        "op-fusion"
    }

    fn run(&self, acc: &mut Accelerator) -> Result<PassDelta, PassError> {
        let mut delta = PassDelta::default();
        let mut scratch = Scratch::default();
        for t in 0..acc.tasks.len() {
            let df = &mut acc.tasks[t].dataflow;
            delta = delta.merge(fuse_accumulators(df));
            delta = delta.merge(fuse_with(df, self.max_delay_ns, self.max_ops, &mut scratch));
        }
        Ok(delta)
    }
}

/// Re-time loop-carried accumulators (§4 Pass 5's worked example fuses the
/// φ-chain): a `Merge` whose feedback comes from a commutative binary op
/// consuming the merge itself collapses into one self-accumulating
/// function unit, removing the handshake hops from the recurrence path —
/// the initiation interval drops from `op latency + merge + registers`
/// to the op's own latency.
pub fn fuse_accumulators(df: &mut Dataflow) -> PassDelta {
    use muir_mir::instr::BinOp;
    let mut delta = PassDelta::default();
    'outer: loop {
        let mut found: Option<(NodeId, NodeId)> = None; // (merge, op)
        for m in df.node_ids() {
            if !matches!(df.node(m).kind, NodeKind::Merge) {
                continue;
            }
            // Feedback producer.
            let Some(fb) = df
                .edges
                .iter()
                .find(|e| e.dst == m && e.dst_port == 1 && e.kind == EdgeKind::Feedback)
            else {
                continue;
            };
            let u = fb.src;
            match df.node(u).kind {
                NodeKind::Compute(OpKind::Bin(
                    BinOp::Add | BinOp::Mul | BinOp::FAdd | BinOp::FMul,
                ))
                | NodeKind::Compute(OpKind::Tensor(
                    muir_mir::instr::TensorOp::Add | muir_mir::instr::TensorOp::Mul,
                    _,
                )) => {}
                _ => continue,
            }
            // The merge's only data consumer must be `u`, and `u` must
            // consume the merge on exactly one port.
            let mut m_consumers = df
                .edges
                .iter()
                .filter(|e| e.src == m && e.kind == EdgeKind::Data);
            match (m_consumers.next(), m_consumers.next()) {
                (Some(c), None) if c.dst == u => {}
                _ => continue,
            }
            // Init must come from a static source (per-invocation constant).
            let init_static = df.edges.iter().any(|e| {
                e.dst == m
                    && e.dst_port == 0
                    && matches!(
                        df.node(e.src).kind,
                        NodeKind::Input { .. } | NodeKind::Const(_)
                    )
            });
            if !init_static {
                continue;
            }
            found = Some((m, u));
            break;
        }
        let Some((m, u)) = found else { break 'outer };
        let op = match df.node(u).kind {
            NodeKind::Compute(op) => op,
            _ => unreachable!(),
        };
        let ty = df.node(u).ty;
        let name = Name::format(format_args!("acc_{}", df.node(u).name));
        let a = df.add_node(Node::new(name, NodeKind::FusedAcc { op }, ty));
        // Wire init (merge port 0 source) to acc port 0.
        let init = df
            .edges
            .iter()
            .find(|e| e.dst == m && e.dst_port == 0)
            .copied()
            .expect("merge init edge");
        df.connect(init.src, init.src_port, a, 0);
        // Wire u's non-merge operand to acc port 1.
        let x = df
            .edges
            .iter()
            .find(|e| e.dst == u && e.src != m && e.kind == EdgeKind::Data)
            .copied()
            .expect("op has a second operand");
        df.connect(x.src, x.src_port, a, 1);
        // Redirect u's remaining consumers (Output etc.) to the acc unit,
        // and keep order edges attached.
        for e in df.edges.iter_mut() {
            if e.src == u && e.dst != m {
                e.src = a;
                e.src_port = 0;
                delta.edges += 1;
            } else if e.src == m && e.kind == EdgeKind::Order {
                e.src = a;
            } else if e.dst == u && e.kind == EdgeKind::Order {
                e.dst = a;
            }
        }
        // Drop the triangle's interior edges and the two old nodes.
        df.edges.retain(|e| {
            let interior = e.dst == m
                || (e.src == m && e.dst == u)
                || (e.dst == u && e.kind != EdgeKind::Order);
            !interior
        });
        delta.nodes += 2;
        delta.edges += 3;
        // Remove higher id first so the lower one stays valid.
        let (hi, lo) = if m.0 > u.0 { (m, u) } else { (u, m) };
        remove_node(df, hi);
        remove_node(df, lo);
    }
    delta
}

/// Operand inputs of a one-step plan, by arity (a non-tensor op has at
/// most three operands).
const EXTERNALS: [FusedInput; 3] = [
    FusedInput::External(0),
    FusedInput::External(1),
    FusedInput::External(2),
];

/// A fusable node's evaluation plan, borrowed: a `Compute` node is the
/// one-step plan over its operands in port order, so testing a pair
/// builds nothing.
#[derive(Clone, Copy)]
enum PlanView<'a> {
    Single(OpKind, Type),
    Plan(&'a FusedPlan),
}

impl<'a> PlanView<'a> {
    /// The node's plan, if it is fusable. Tensor FUs are library macros,
    /// not fusable LUT logic.
    fn of(node: &'a Node) -> Option<PlanView<'a>> {
        match &node.kind {
            NodeKind::Compute(OpKind::Tensor(..)) => None,
            NodeKind::Compute(op) => Some(PlanView::Single(*op, node.ty)),
            NodeKind::Fused(plan) => Some(PlanView::Plan(plan)),
            _ => None,
        }
    }

    fn arity(self) -> u16 {
        match self {
            PlanView::Single(op, _) => op.arity() as u16,
            PlanView::Plan(p) => p.arity,
        }
    }

    fn len(self) -> usize {
        match self {
            PlanView::Single(..) => 1,
            PlanView::Plan(p) => p.steps.len(),
        }
    }

    /// Step `i`: its op, result type and inputs.
    fn step(self, i: usize) -> (OpKind, Type, &'a [FusedInput]) {
        match self {
            PlanView::Single(op, ty) => (op, ty, &EXTERNALS[..op.arity()]),
            PlanView::Plan(p) => {
                let s = &p.steps[i];
                (s.op, s.ty, &s.inputs)
            }
        }
    }
}

/// Where an input of consumer `v`'s plan comes from once producer `u`'s
/// `u_steps` steps (over `u_arity` externals) are fused in ahead of it at
/// `v_port`: that port becomes `u`'s last step, `v`'s other externals
/// follow `u`'s, and `v`'s steps shift behind `u`'s.
fn remap_v_input(i: FusedInput, u_arity: u16, u_steps: u16, v_port: u16) -> FusedInput {
    match i {
        FusedInput::External(j) if j == v_port => FusedInput::Step(u_steps - 1),
        FusedInput::External(j) if j < v_port => FusedInput::External(u_arity + j),
        FusedInput::External(j) => FusedInput::External(u_arity + j - 1),
        FusedInput::Step(k) => FusedInput::Step(k + u_steps),
    }
}

/// Critical path (ns) of `u` fused into `v` at `v_port`, from the two
/// borrowed plans; `arrivals` is scratch.
fn fused_delay(u: PlanView, v: PlanView, v_port: u16, arrivals: &mut Vec<f64>) -> f64 {
    arrivals.clear();
    for i in 0..u.len() {
        let (op, ty, inputs) = u.step(i);
        hw::push_arrival(arrivals, op, ty, inputs.iter().copied());
    }
    let (u_arity, u_steps) = (u.arity(), u.len() as u16);
    for i in 0..v.len() {
        let (op, ty, inputs) = v.step(i);
        let inputs = inputs
            .iter()
            .map(|&x| remap_v_input(x, u_arity, u_steps, v_port));
        hw::push_arrival(arrivals, op, ty, inputs);
    }
    arrivals.iter().copied().fold(0.0, f64::max)
}

/// Move a fusable node's plan steps onto `steps`, each input mapped
/// through `remap`. A `Compute` node gives its one step; a fused node is
/// left with an empty plan.
fn move_steps(
    node: &mut Node,
    steps: &mut Vec<FusedStep>,
    remap: impl Fn(FusedInput) -> FusedInput,
) {
    match &mut node.kind {
        NodeKind::Compute(op) => steps.push(FusedStep {
            op: *op,
            ty: node.ty,
            inputs: EXTERNALS[..op.arity()].iter().map(|&x| remap(x)).collect(),
        }),
        NodeKind::Fused(plan) => steps.extend(plan.steps.drain(..).map(|mut s| {
            for x in &mut s.inputs {
                *x = remap(*x);
            }
            s
        })),
        _ => unreachable!("candidate is fusable"),
    }
}

/// One fusion round over a dataflow; returns the touched-element delta.
pub fn fuse_dataflow(df: &mut Dataflow, max_delay_ns: f64, max_ops: usize) -> PassDelta {
    fuse_with(df, max_delay_ns, max_ops, &mut Scratch::default())
}

/// The tables a fusion round rebuilds before each fusion, kept across
/// the rounds and tasks of one pass run.
#[derive(Default)]
struct Scratch {
    idx: EdgeIndex,
    arrivals: Vec<f64>,
}

/// [`fuse_dataflow`] over `scratch`'s tables.
fn fuse_with(
    df: &mut Dataflow,
    max_delay_ns: f64,
    max_ops: usize,
    scratch: &mut Scratch,
) -> PassDelta {
    let mut delta = PassDelta::default();
    let Scratch { idx, arrivals } = scratch;
    loop {
        idx.rebuild(df);
        let Some((u, v, v_port)) = find_candidate(df, idx, arrivals, max_delay_ns, max_ops) else {
            break;
        };
        // Build the fused node in v's slot, moving both plans' steps.
        let (u_view, v_view) = (PlanView::of(df.node(u)), PlanView::of(df.node(v)));
        let (u_view, v_view) = (u_view.expect("fusable"), v_view.expect("fusable"));
        let (u_arity, u_steps) = (u_view.arity(), u_view.len() as u16);
        let arity = u_arity + v_view.arity() - 1;
        let mut steps = Vec::with_capacity(u_view.len() + v_view.len());
        move_steps(&mut df.nodes[u.0 as usize], &mut steps, |x| x);
        move_steps(&mut df.nodes[v.0 as usize], &mut steps, |x| {
            remap_v_input(x, u_arity, u_steps, v_port)
        });
        let name = Name::format(format_args!("{}+{}", df.node(u).name, df.node(v).name));
        let out_ty = df.node(v).ty;
        let fused = FusedPlan { arity, steps };
        df.nodes[v.0 as usize] = Node::new(name, NodeKind::Fused(fused), out_ty);

        // Rewire in place: u's inputs become v's ports 0..u_arity; v's
        // other inputs shift; the u→v edge disappears; u dies.
        df.edges.retain_mut(|e| {
            if e.src == u && e.dst == v && e.dst_port == v_port && e.kind == EdgeKind::Data {
                delta.edges += 1; // removed handshake connection
                return false;
            }
            if e.dst == u {
                // u input port i → v port i.
                e.dst = v;
                delta.edges += 1;
            } else if e.dst == v && e.kind != EdgeKind::Order {
                // Remap v's surviving input ports.
                let j = e.dst_port;
                e.dst_port = if j < v_port {
                    u_arity + j
                } else {
                    u_arity + j - 1
                };
                delta.edges += 1;
            }
            true
        });
        delta.nodes += 2; // producer and consumer replaced by one unit
        remove_node(df, u);
    }
    delta
}

/// The first fusable pair in node order whose fused path fits the
/// period, over `idx`, the index of `df`. Plans are only viewed, never
/// built.
fn find_candidate(
    df: &Dataflow,
    idx: &EdgeIndex,
    arrivals: &mut Vec<f64>,
    max_delay_ns: f64,
    max_ops: usize,
) -> Option<(NodeId, NodeId, u16)> {
    for u in df.node_ids() {
        let Some(u_plan) = PlanView::of(df.node(u)) else {
            continue;
        };
        // u must have exactly one outgoing edge, a Data edge.
        let outs = idx.outs(u);
        if outs.len() != 1 {
            continue;
        }
        let e = df.edges[outs[0] as usize];
        if e.kind != EdgeKind::Data {
            continue;
        }
        let v = e.dst;
        let Some(v_plan) = PlanView::of(df.node(v)) else {
            continue;
        };
        if u_plan.len() + v_plan.len() > max_ops {
            continue;
        }
        if fused_delay(u_plan, v_plan, e.dst_port, arrivals) <= max_delay_ns {
            return Some((u, v, e.dst_port));
        }
    }
    None
}

/// Remove one node from a dataflow, remapping every id that follows it.
/// The node must have no remaining edges.
pub fn remove_node(df: &mut Dataflow, dead: NodeId) {
    debug_assert!(
        df.edges.iter().all(|e| e.src != dead && e.dst != dead),
        "removing a connected node"
    );
    let remap = |id: NodeId| -> NodeId {
        if id.0 > dead.0 {
            NodeId(id.0 - 1)
        } else {
            id
        }
    };
    df.nodes.remove(dead.0 as usize);
    for e in &mut df.edges {
        e.src = remap(e.src);
        e.dst = remap(e.dst);
    }
    for j in &mut df.junctions {
        for r in j.readers.iter_mut().chain(j.writers.iter_mut()) {
            *r = remap(*r);
        }
    }
}

/// Dead-node elimination: remove pure nodes whose results nobody consumes
/// (exposed for use after other transformations).
pub fn eliminate_dead(df: &mut Dataflow) -> usize {
    let mut removed = 0;
    loop {
        let idx = df.edge_index();
        let mut dead: Option<NodeId> = None;
        for n in df.node_ids() {
            let pure = matches!(
                df.node(n).kind,
                NodeKind::Compute(_) | NodeKind::Fused(_) | NodeKind::Const(_)
            );
            if pure && idx.fanout(n) == 0 {
                dead = Some(n);
                break;
            }
        }
        let Some(n) = dead else { break };
        // Drop its input edges first.
        df.edges.retain(|e| e.dst != n);
        remove_node(df, n);
        removed += 1;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_core::node::{Node, NodeKind};
    use muir_core::Type;
    use muir_mir::instr::{BinOp, ConstVal};

    fn chain_df(ops: &[BinOp]) -> (Dataflow, NodeId) {
        let mut df = Dataflow::new();
        let a = df.add_node(Node::new("a", NodeKind::Input { index: 0 }, Type::I64));
        let b = df.add_node(Node::new("b", NodeKind::Const(ConstVal::Int(3)), Type::I64));
        let mut prev = a;
        let mut last = a;
        for (i, op) in ops.iter().enumerate() {
            let n = df.add_node(Node::new(
                format!("op{i}"),
                NodeKind::Compute(OpKind::Bin(*op)),
                Type::I64,
            ));
            df.connect(prev, 0, n, 0);
            df.connect(b, 0, n, 1);
            prev = n;
            last = n;
        }
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(prev, 0, out, 0);
        (df, last)
    }

    #[test]
    fn cheap_chain_fuses_to_one_node() {
        // and → xor → or: 3 × 0.9 ns = 2.7 ns... over 2.5; use 2 ops.
        let (mut df, _) = chain_df(&[BinOp::And, BinOp::Xor]);
        let before = df.nodes.len();
        let delta = fuse_dataflow(&mut df, hw::BASELINE_PERIOD_NS, 16);
        assert!(delta.nodes >= 2);
        assert_eq!(df.nodes.len(), before - 1);
        let fused: Vec<&Node> = df
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Fused(_)))
            .collect();
        assert_eq!(fused.len(), 1);
        if let NodeKind::Fused(plan) = &fused[0].kind {
            assert_eq!(plan.op_count(), 2);
        }
    }

    #[test]
    fn period_budget_limits_fusion() {
        // Two integer multiplies: 5.6 ns — cannot fuse under 2.5 ns.
        let (mut df, _) = chain_df(&[BinOp::Mul, BinOp::Mul]);
        let delta = fuse_dataflow(&mut df, hw::BASELINE_PERIOD_NS, 16);
        assert_eq!(delta, PassDelta::default());
        // A relaxed budget fuses them.
        let (mut df2, _) = chain_df(&[BinOp::Mul, BinOp::Mul]);
        let delta2 = fuse_dataflow(&mut df2, 10.0, 16);
        assert!(delta2.nodes > 0);
    }

    #[test]
    fn fanout_blocks_fusion() {
        let mut df = Dataflow::new();
        let a = df.add_node(Node::new("a", NodeKind::Input { index: 0 }, Type::I64));
        let x = df.add_node(Node::new(
            "x",
            NodeKind::Compute(OpKind::Bin(BinOp::And)),
            Type::I64,
        ));
        let y = df.add_node(Node::new(
            "y",
            NodeKind::Compute(OpKind::Bin(BinOp::Or)),
            Type::I64,
        ));
        let z = df.add_node(Node::new(
            "z",
            NodeKind::Compute(OpKind::Bin(BinOp::Xor)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(a, 0, x, 0);
        df.connect(a, 0, x, 1);
        // x feeds BOTH y and z: not fusable into either.
        df.connect(x, 0, y, 0);
        df.connect(x, 0, z, 0);
        df.connect(a, 0, y, 1);
        df.connect(a, 0, z, 1);
        df.connect(y, 0, out, 0);
        // z dangles deliberately; y→out keeps y's fanout at 1 but out is
        // not fusable.
        let n_before = df.nodes.len();
        fuse_dataflow(&mut df, hw::BASELINE_PERIOD_NS, 16);
        // x cannot fuse (fanout 2); z and y have no fusable consumers.
        assert_eq!(df.nodes.len(), n_before);
    }

    #[test]
    fn fused_plan_evaluates_like_chain() {
        // (a + 3) << 3 = 3.2 ns: fits a relaxed 4 ns budget.
        let (mut df, _) = chain_df(&[BinOp::Add, BinOp::Shl]);
        fuse_dataflow(&mut df, 4.0, 16);
        let plan = df
            .nodes
            .iter()
            .find_map(|n| match &n.kind {
                NodeKind::Fused(p) => Some(p.clone()),
                _ => None,
            })
            .expect("fused node exists");
        assert_eq!(plan.steps.len(), 2);
        // Step 1 consumes step 0.
        assert!(plan.steps[1].inputs.contains(&FusedInput::Step(0)));
    }

    #[test]
    fn remove_node_remaps_everything() {
        let mut df = Dataflow::new();
        let a = df.add_node(Node::new("a", NodeKind::Input { index: 0 }, Type::I64));
        let b = df.add_node(Node::new("b", NodeKind::Const(ConstVal::Int(1)), Type::I64));
        let c = df.add_node(Node::new(
            "c",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        df.connect(a, 0, c, 0);
        df.connect(b, 0, c, 1);
        // Remove a dangling node before c.
        let dangling = b;
        df.edges.retain(|e| e.src != dangling);
        // reconnect c port 1 from a instead
        df.connect(a, 0, c, 1);
        remove_node(&mut df, dangling);
        assert_eq!(df.nodes.len(), 2);
        // c's id shifted down by one; edges must still reference it.
        for e in &df.edges {
            assert!(e.dst.0 < 2 && e.src.0 < 2);
        }
    }

    #[test]
    fn dead_elimination_removes_unused_chains() {
        let mut df = Dataflow::new();
        let a = df.add_node(Node::new("a", NodeKind::Input { index: 0 }, Type::I64));
        let x = df.add_node(Node::new(
            "x",
            NodeKind::Compute(OpKind::Bin(BinOp::And)),
            Type::I64,
        ));
        df.connect(a, 0, x, 0);
        df.connect(a, 0, x, 1);
        let _out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        let removed = eliminate_dead(&mut df);
        assert_eq!(removed, 1);
        assert_eq!(df.nodes.len(), 2);
    }
}
