//! The per-task dataflow graph: typed nodes, 1-1 polymorphic connections,
//! and junctions (§3.3, §3.4).

use crate::node::{Node, NodeKind};
use crate::structure::StructureId;
use std::fmt;

/// Index of a node within its [`Dataflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of a junction within its [`Dataflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JunctionId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Display for JunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Buffering discipline of an edge.
///
/// Every edge is latency-insensitive: tokens flow under ready/valid
/// flow-control, and buffering can be inserted or removed without affecting
/// correctness (§3.1). The default is a 1-deep handshake register; the
/// task-queueing pass (Pass 1) widens inter-task edges to FIFOs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// Single pipeline register with handshake (default).
    Handshake,
    /// FIFO queue of the given depth.
    Fifo(u32),
}

impl Buffering {
    /// Token capacity of the edge.
    pub fn capacity(self) -> u32 {
        match self {
            Buffering::Handshake => 1,
            Buffering::Fifo(d) => d.max(1),
        }
    }
}

/// Data vs feedback classification of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Ordinary forward dataflow.
    Data,
    /// Loop-carried feedback into a `Merge` node's port 1: the token
    /// produced by iteration *i* is consumed by iteration *i+1*.
    Feedback,
    /// A token-only memory-ordering edge: the consumer may not fire until
    /// the producer has *completed* (store committed, load responded, task
    /// call returned). Carries no data; enforces program-order between
    /// effectful nodes whose address spaces may conflict.
    Order,
}

/// A polymorphic 1-1 connection between a producer port and a consumer port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer node.
    pub src: NodeId,
    /// Producer output port.
    pub src_port: u16,
    /// Consumer node.
    pub dst: NodeId,
    /// Consumer input port.
    pub dst_port: u16,
    /// Buffering on the connection.
    pub buffering: Buffering,
    /// Forward data or loop feedback.
    pub kind: EdgeKind,
}

/// Arbitration policy of a junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Rotating priority (default).
    #[default]
    RoundRobin,
    /// Fixed priority by registration order.
    FixedPriority,
}

/// A junction: the generic 1:N / N:1 / M:N connection through which a
/// task's distributed memory nodes reach a scratchpad or cache (§3.4). The
/// physical network it lowers to (bus, tree) is a parameter; `read_ports` /
/// `write_ports` bound how many requests it accepts per cycle.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Junction {
    /// The structure this junction connects to.
    pub structure: StructureId,
    /// Load nodes registered on this junction.
    pub readers: Vec<NodeId>,
    /// Store nodes registered on this junction.
    pub writers: Vec<NodeId>,
    /// Read requests accepted per cycle.
    pub read_ports: u32,
    /// Write requests accepted per cycle.
    pub write_ports: u32,
    /// Request arbitration.
    pub arbitration: Arbitration,
}

impl Junction {
    /// A junction to `structure` with the given port counts.
    pub fn new(structure: StructureId, read_ports: u32, write_ports: u32) -> Junction {
        Junction {
            structure,
            readers: Vec::new(),
            writers: Vec::new(),
            read_ports: read_ports.max(1),
            write_ports: write_ports.max(1),
            arbitration: Arbitration::RoundRobin,
        }
    }
}

/// A task block's internal pipelined dataflow.
#[derive(Debug, Clone, Default, PartialEq, Hash)]
pub struct Dataflow {
    /// Node arena; [`NodeId`] indexes into this.
    pub nodes: Vec<Node>,
    /// Connections.
    pub edges: Vec<Edge>,
    /// Junctions to hardware structures.
    pub junctions: Vec<Junction>,
}

impl Dataflow {
    /// New empty dataflow.
    pub fn new() -> Dataflow {
        Dataflow::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Add a junction, returning its id.
    pub fn add_junction(&mut self, junction: Junction) -> JunctionId {
        let id = JunctionId(self.junctions.len() as u32);
        self.junctions.push(junction);
        id
    }

    /// Connect `src.src_port` → `dst.dst_port` with default handshake
    /// buffering.
    pub fn connect(&mut self, src: NodeId, src_port: u16, dst: NodeId, dst_port: u16) {
        self.edges.push(Edge {
            src,
            src_port,
            dst,
            dst_port,
            buffering: Buffering::Handshake,
            kind: EdgeKind::Data,
        });
    }

    /// Connect a token-only ordering edge: `dst` may not fire until `src`
    /// completes.
    pub fn connect_order(&mut self, src: NodeId, dst: NodeId) {
        self.edges.push(Edge {
            src,
            src_port: 0,
            dst,
            dst_port: u16::MAX,
            buffering: Buffering::Handshake,
            kind: EdgeKind::Order,
        });
    }

    /// Connect a loop-carried feedback edge into a merge node's port 1.
    pub fn connect_feedback(&mut self, src: NodeId, src_port: u16, dst: NodeId) {
        self.edges.push(Edge {
            src,
            src_port,
            dst,
            dst_port: 1,
            buffering: Buffering::Handshake,
            kind: EdgeKind::Feedback,
        });
    }

    /// The node behind `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Mutable access to the node behind `id`.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Build the CSR adjacency index of the current edge set. O(nodes +
    /// edges) once; every per-node adjacency query through the index is
    /// then a slice lookup instead of a full edge scan. The index is a
    /// snapshot — rebuild it after mutating `edges`.
    pub fn edge_index(&self) -> EdgeIndex {
        EdgeIndex::build(self)
    }

    /// Ids of memory (load/store) nodes.
    pub fn mem_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.node(id).kind.is_mem())
            .collect()
    }

    /// The single `Output` node, if present.
    pub fn output_node(&self) -> Option<NodeId> {
        self.node_ids()
            .find(|&id| matches!(self.node(id).kind, NodeKind::Output))
    }

    /// The `IndVar` node, if present (loop tasks).
    pub fn indvar_node(&self) -> Option<NodeId> {
        self.node_ids()
            .find(|&id| matches!(self.node(id).kind, NodeKind::IndVar))
    }

    /// Register a load on its junction (keeps junction bookkeeping in sync).
    pub fn register_reader(&mut self, j: JunctionId, n: NodeId) {
        self.junctions[j.0 as usize].readers.push(n);
    }

    /// Register a store on its junction.
    pub fn register_writer(&mut self, j: JunctionId, n: NodeId) {
        self.junctions[j.0 as usize].writers.push(n);
    }
}

/// CSR (compressed sparse row) adjacency over a [`Dataflow`]'s edges.
///
/// Replaces the old `Vec<&Edge>`-allocating `in_edges`/`out_edges`/
/// `fanout` linear scans: one O(nodes + edges) build, then every
/// adjacency query is an O(1) slice and every edge visit an index
/// lookup. Incoming rows are sorted by `(dst_port, edge index)` —
/// the input-port order the old accessor guaranteed (order edges carry
/// `dst_port == u16::MAX`, so they sort last); outgoing rows are in
/// edge-arena order.
///
/// The index is a snapshot of the edge set at build time; rebuild after
/// mutating the graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeIndex {
    in_off: Vec<u32>,
    in_idx: Vec<u32>,
    out_off: Vec<u32>,
    out_idx: Vec<u32>,
}

impl EdgeIndex {
    /// Build the CSR tables for `df`.
    pub fn build(df: &Dataflow) -> EdgeIndex {
        let n = df.nodes.len();
        let mut in_off = vec![0u32; n + 1];
        let mut out_off = vec![0u32; n + 1];
        for e in &df.edges {
            in_off[e.dst.0 as usize + 1] += 1;
            out_off[e.src.0 as usize + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
            out_off[i + 1] += out_off[i];
        }
        let mut in_idx = vec![0u32; df.edges.len()];
        let mut out_idx = vec![0u32; df.edges.len()];
        let mut in_cur = in_off.clone();
        let mut out_cur = out_off.clone();
        for (ei, e) in df.edges.iter().enumerate() {
            let d = e.dst.0 as usize;
            in_idx[in_cur[d] as usize] = ei as u32;
            in_cur[d] += 1;
            let s = e.src.0 as usize;
            out_idx[out_cur[s] as usize] = ei as u32;
            out_cur[s] += 1;
        }
        for i in 0..n {
            let row = &mut in_idx[in_off[i] as usize..in_off[i + 1] as usize];
            row.sort_unstable_by_key(|&ei| (df.edges[ei as usize].dst_port, ei));
        }
        EdgeIndex {
            in_off,
            in_idx,
            out_off,
            out_idx,
        }
    }

    /// Indices (into `Dataflow::edges`) of `id`'s incoming edges, sorted
    /// by destination port.
    pub fn ins(&self, id: NodeId) -> &[u32] {
        let i = id.0 as usize;
        &self.in_idx[self.in_off[i] as usize..self.in_off[i + 1] as usize]
    }

    /// Indices (into `Dataflow::edges`) of `id`'s outgoing edges.
    pub fn outs(&self, id: NodeId) -> &[u32] {
        let i = id.0 as usize;
        &self.out_idx[self.out_off[i] as usize..self.out_off[i + 1] as usize]
    }

    /// Incoming edges of `id` in input-port order, without allocating.
    pub fn in_edges<'d>(&'d self, df: &'d Dataflow, id: NodeId) -> impl Iterator<Item = &'d Edge> {
        self.ins(id).iter().map(move |&ei| &df.edges[ei as usize])
    }

    /// Outgoing edges of `id`, without allocating.
    pub fn out_edges<'d>(&'d self, df: &'d Dataflow, id: NodeId) -> impl Iterator<Item = &'d Edge> {
        self.outs(id).iter().map(move |&ei| &df.edges[ei as usize])
    }

    /// Number of consumers of `id`'s outputs — O(1) from the offsets.
    pub fn fanout(&self, id: NodeId) -> usize {
        self.outs(id).len()
    }

    /// Number of edges feeding `id` — O(1) from the offsets.
    pub fn fanin(&self, id: NodeId) -> usize {
        self.ins(id).len()
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        (self.in_off.len() + self.in_idx.len() + self.out_off.len() + self.out_idx.len())
            * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeKind, OpKind};
    use muir_mir::instr::{BinOp, ConstVal};
    use muir_mir::types::Type;

    fn add_const(df: &mut Dataflow, v: i64) -> NodeId {
        df.add_node(Node::new(
            format!("c{v}"),
            NodeKind::Const(ConstVal::Int(v)),
            Type::I64,
        ))
    }

    #[test]
    fn build_small_dataflow() {
        let mut df = Dataflow::new();
        let a = add_const(&mut df, 1);
        let b = add_const(&mut df, 2);
        let add = df.add_node(Node::new(
            "add",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(a, 0, add, 0);
        df.connect(b, 0, add, 1);
        df.connect(add, 0, out, 0);
        assert_eq!(df.nodes.len(), 4);
        assert_eq!(df.edges.len(), 3);
        let idx = df.edge_index();
        assert_eq!(idx.fanin(add), 2);
        assert_eq!(idx.fanout(add), 1);
        assert_eq!(df.output_node(), Some(out));
        assert!(df.indvar_node().is_none());
        assert!(df.mem_nodes().is_empty());
    }

    #[test]
    fn in_edges_sorted_by_port() {
        let mut df = Dataflow::new();
        let a = add_const(&mut df, 1);
        let b = add_const(&mut df, 2);
        let add = df.add_node(Node::new(
            "add",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        // Connect port 1 before port 0.
        df.connect(b, 0, add, 1);
        df.connect(a, 0, add, 0);
        let idx = df.edge_index();
        let ins: Vec<&Edge> = idx.in_edges(&df, add).collect();
        assert_eq!(ins[0].dst_port, 0);
        assert_eq!(ins[1].dst_port, 1);
        // The CSR rows point at the right arena slots.
        assert_eq!(idx.ins(add), &[1, 0]);
        assert_eq!(idx.outs(a), &[1]);
        assert!(idx.out_edges(&df, b).all(|e| e.src == b));
    }

    #[test]
    fn feedback_edges_marked() {
        let mut df = Dataflow::new();
        let init = add_const(&mut df, 0);
        let merge = df.add_node(Node::new("acc", NodeKind::Merge, Type::I64));
        let upd = df.add_node(Node::new(
            "upd",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        df.connect(init, 0, merge, 0);
        df.connect(merge, 0, upd, 0);
        df.connect(init, 0, upd, 1);
        df.connect_feedback(upd, 0, merge);
        let fb: Vec<&Edge> = df
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Feedback)
            .collect();
        assert_eq!(fb.len(), 1);
        assert_eq!(fb[0].dst_port, 1);
    }

    #[test]
    fn buffering_capacity() {
        assert_eq!(Buffering::Handshake.capacity(), 1);
        assert_eq!(Buffering::Fifo(8).capacity(), 8);
        assert_eq!(Buffering::Fifo(0).capacity(), 1);
    }

    #[test]
    fn junction_registration() {
        let mut df = Dataflow::new();
        let j = df.add_junction(Junction::new(StructureId(0), 2, 1));
        let ld = df.add_node(Node::new(
            "ld",
            NodeKind::Load {
                obj: muir_mir::instr::MemObjId(0),
                junction: j,
                predicated: false,
            },
            Type::F32,
        ));
        df.register_reader(j, ld);
        assert_eq!(df.junctions[0].readers, vec![ld]);
        assert_eq!(df.junctions[0].read_ports, 2);
        assert_eq!(df.mem_nodes(), vec![ld]);
    }
}
