//! Graph statistics: node/edge counts and pipeline depth.
//!
//! Table 4 compares μIR graph sizes against FIRRTL; §5.2 reports dataflow
//! pipeline depths (15–40 stages). Both are computed here.

use crate::accel::Accelerator;
use crate::dataflow::{Dataflow, EdgeKind};
use crate::hw;

/// Size statistics of a μIR graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Task blocks.
    pub tasks: usize,
    /// Dataflow nodes across all tasks.
    pub nodes: usize,
    /// Dataflow edges across all tasks.
    pub edges: usize,
    /// Junctions across all tasks.
    pub junctions: usize,
    /// Hardware structures.
    pub structures: usize,
    /// Memory (load/store) nodes.
    pub mem_nodes: usize,
    /// Whole-accelerator connections (`<||>` + `<==>`).
    pub connections: usize,
    /// Deepest task pipeline in cycles (§5.2).
    pub pipeline_depth: u32,
}

impl GraphStats {
    /// Total graph elements (nodes + edges + structures + connections) —
    /// the quantity Table 4's size ratio is computed over.
    pub fn total_elements(&self) -> usize {
        self.nodes + self.edges + self.structures + self.connections + self.junctions
    }
}

/// Compute statistics for an accelerator.
pub fn graph_stats(acc: &Accelerator) -> GraphStats {
    let mut s = GraphStats {
        tasks: acc.tasks.len(),
        structures: acc.structures.len(),
        connections: acc.task_conns.len() + acc.mem_conns.len(),
        ..GraphStats::default()
    };
    for t in &acc.tasks {
        s.nodes += t.dataflow.nodes.len();
        s.edges += t.dataflow.edges.len();
        s.junctions += t.dataflow.junctions.len();
        s.mem_nodes += t.dataflow.mem_nodes().len();
        s.pipeline_depth = s.pipeline_depth.max(pipeline_depth(&t.dataflow));
    }
    s
}

/// Longest latency path (cycles) through a dataflow, following forward
/// (non-feedback) edges only. Each edge adds one handshake-register cycle;
/// each node adds its pipeline latency.
pub fn pipeline_depth(df: &Dataflow) -> u32 {
    let n = df.nodes.len();
    if n == 0 {
        return 0;
    }
    // Longest path over the forward-edge DAG via memoised DFS over the CSR
    // index (one O(E) build instead of an O(E) rescan per node visit).
    let idx = df.edge_index();
    let mut memo: Vec<Option<u32>> = vec![None; n];
    let mut best = 0;
    for id in df.node_ids() {
        best = best.max(depth_of(df, &idx, id.0 as usize, &mut memo, 0));
    }
    best
}

fn depth_of(
    df: &Dataflow,
    idx: &crate::dataflow::EdgeIndex,
    i: usize,
    memo: &mut Vec<Option<u32>>,
    guard: u32,
) -> u32 {
    if let Some(d) = memo[i] {
        return d;
    }
    if guard > df.nodes.len() as u32 + 1 {
        // Defensive: a forward-edge cycle would be a verifier bug.
        return 0;
    }
    let node = &df.nodes[i];
    let own = hw::node_timing(&node.kind, node.ty).latency;
    let mut in_depth = 0;
    for &ei in idx.ins(crate::dataflow::NodeId(i as u32)) {
        let e = &df.edges[ei as usize];
        if e.kind != EdgeKind::Feedback {
            in_depth = in_depth.max(depth_of(df, idx, e.src.0 as usize, memo, guard + 1) + 1);
        }
    }
    let d = own + in_depth;
    memo[i] = Some(d);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{TaskBlock, TaskKind};
    use crate::node::{Node, NodeKind, OpKind};
    use muir_mir::instr::{BinOp, ConstVal};
    use muir_mir::types::Type;

    /// Count of μIR nodes whose values feed an `Output` node transitively.
    fn live_node_count(df: &Dataflow) -> usize {
        let out = df
            .node_ids()
            .find(|&id| matches!(df.node(id).kind, NodeKind::Output));
        let Some(out) = out else {
            return 0;
        };
        let idx = df.edge_index();
        let mut seen = vec![false; df.nodes.len()];
        let mut work = vec![out];
        while let Some(n) = work.pop() {
            if seen[n.0 as usize] {
                continue;
            }
            seen[n.0 as usize] = true;
            for e in idx.ins(n).iter().map(|&e| &df.edges[e as usize]) {
                work.push(e.src);
            }
        }
        // Stores and task calls are live by side effect.
        for id in df.node_ids() {
            if matches!(
                df.node(id).kind,
                NodeKind::Store { .. } | NodeKind::TaskCall { .. }
            ) && !seen[id.0 as usize]
            {
                seen[id.0 as usize] = true;
                let mut work = vec![id];
                while let Some(n) = work.pop() {
                    for e in idx.ins(n).iter().map(|&e| &df.edges[e as usize]) {
                        if !seen[e.src.0 as usize] {
                            seen[e.src.0 as usize] = true;
                            work.push(e.src);
                        }
                    }
                }
            }
        }
        seen.iter().filter(|&&s| s).count()
    }

    fn chain_df(len: usize) -> Dataflow {
        let mut df = Dataflow::new();
        let c = df.add_node(Node::new(
            "c",
            NodeKind::Const(ConstVal::F32(1.0)),
            Type::F32,
        ));
        let mut prev = c;
        for i in 0..len {
            let n = df.add_node(Node::new(
                format!("f{i}"),
                NodeKind::Compute(OpKind::Bin(BinOp::FAdd)),
                Type::F32,
            ));
            df.connect(prev, 0, n, 0);
            df.connect(c, 0, n, 1);
            prev = n;
        }
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::F32));
        df.connect(prev, 0, out, 0);
        df
    }

    #[test]
    fn pipeline_depth_of_chain() {
        // const(1) + 3 × (fadd 4 + edge 1) + output(1) + edges
        let df = chain_df(3);
        let d = pipeline_depth(&df);
        // const 1, then each fadd adds 4+1, output adds 1+1.
        assert_eq!(d, 1 + 3 * 5 + 2);
    }

    #[test]
    fn deeper_chain_is_deeper() {
        assert!(pipeline_depth(&chain_df(10)) > pipeline_depth(&chain_df(2)));
    }

    #[test]
    fn stats_aggregate() {
        let mut acc = Accelerator::new("s");
        let mut t = TaskBlock::new("main", TaskKind::Region);
        t.dataflow = chain_df(2);
        let tid = acc.add_task(t);
        acc.root = tid;
        let s = graph_stats(&acc);
        assert_eq!(s.tasks, 1);
        assert_eq!(s.nodes, 4);
        assert!(s.edges >= 4);
        assert!(s.pipeline_depth > 0);
        assert!(s.total_elements() >= s.nodes + s.edges);
    }

    #[test]
    fn live_nodes_reach_everything_in_chain() {
        let df = chain_df(3);
        assert_eq!(live_node_count(&df), df.nodes.len());
    }
}
