//! The sealed compilation artifact: [`CompiledAccel`].
//!
//! Every run of the cycle simulator needs the same derived tables: each
//! node's inputs and outputs as dense index ranges, a feedback-free
//! topological order, queue depths resolved from the `<||>` connections.
//! Before this module the simulator re-derived them from the mutable
//! [`Accelerator`] on every use, which meant a batch of N simulations
//! paid N verifications and N elaborations of the same graph.
//!
//! [`CompiledAccel`] is the compile-once/run-many artifact (DESIGN.md
//! §11): an immutable, index-dense lowering of a *verified* accelerator,
//! carrying
//!
//! * the frozen graph itself, shared copy-on-write with the handle it was
//!   sealed from — what the Chisel emitter, the cost model and every
//!   analysis read, through [`CompiledAccel::accel`];
//! * per-task tables ([`CompiledTask`]: one run per task in each of the
//!   artifact's tables), read by `muir-sim` alone: the micro-op stream
//!   with each edge listed once (as an input slot of its consumer or an
//!   order-in reference, and as an out reference of its producer), the
//!   reverse-topological scan order and its inverse, the dynamic-node
//!   count and the resolved issue-queue capacity;
//! * a stable splitmix64-based content hash over the graph's derived
//!   structural `Hash` (every field, in arena order; floats by bits),
//!   which addresses the artifact in the persistent store and backs the
//!   pass-idempotence and artifact-determinism gates.
//!
//! Sealing performs verification exactly once: a `CompiledAccel` can only
//! be constructed from a graph that passed
//! [`crate::verify::verify_accelerator`], so downstream layers may assume
//! well-formedness without re-checking.

use crate::accel::{Accelerator, TaskId};
use crate::dataflow::{Buffering, Dataflow, EdgeKind, NodeId, TopoIndex};
use crate::node::{FusedPlan, NodeKind, OpKind};
use crate::telemetry;
use crate::verify::{verify_accelerator, GraphError};
use muir_mir::instr::BinOp;
use muir_mir::value::Value;
use std::hash::Hash as _;

/// Dense micro-op opcode: what a node *does*, reduced to a `u8` so the
/// simulator's fire path dispatches through a branch-predictable jump
/// table instead of a full `NodeKind` match with per-fire field
/// destructuring (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum UopKind {
    /// Input/Const: invocation-constant, never fired.
    Static = 0,
    /// Induction-variable stream (`lo + k*step`).
    IndVar,
    /// Loop-carried merge (port 0 at instance 0, port 1 after).
    Merge,
    /// Self-accumulating fused unit (op inline in [`MicroOp::op`]).
    FusedAcc,
    /// Plain function unit (op inline in [`MicroOp::op`]).
    Compute,
    /// Fused group; [`MicroOp::a`] indexes [`CompiledTask::fused_plans`].
    Fused,
    /// Result collector.
    Output,
    /// Memory load transit ([`MicroOp::a`] = object, [`MicroOp::b`] =
    /// junction).
    Load,
    /// Memory store transit (same field use as `Load`).
    Store,
    /// Child-task call ([`MicroOp::a`] = callee, [`MicroOp::b`] packs
    /// `nargs << 16 | nresults`).
    TaskCall,
}

/// [`MicroOp::flags`] bit: a predicate input gates the operation.
pub const UOP_PREDICATED: u8 = 1;
/// [`MicroOp::flags`] bit: a `TaskCall` that completes at enqueue.
pub const UOP_SPAWN: u8 = 2;

/// Input-slot tag ([`CompiledTask::in_slots`] top 2 bits): pop a token
/// from the edge in the payload.
pub const SLOT_TOKEN: u32 = 0 << 30;
/// Slot tag: read the invocation argument indexed by the payload.
pub const SLOT_ARG: u32 = 1 << 30;
/// Slot tag: read [`CompiledTask::consts`] at the payload index.
pub const SLOT_CONST: u32 = 2 << 30;
/// Slot tag: merge feedback edge — poison at instance 0, else pop a token
/// carrying instance `k - 1` from the edge in the payload.
pub const SLOT_FEEDBACK: u32 = 3 << 30;
/// Mask selecting a slot's tag bits.
pub const SLOT_TAG: u32 = 3 << 30;
/// Mask selecting a slot's payload (edge/arg/const index).
pub const SLOT_PAYLOAD: u32 = !SLOT_TAG;

/// One fixed-size micro-op record per node: the node's behaviour with
/// every graph lookup pre-resolved at compile time — input slots, edge
/// ranges, decoded operands — so a firing touches only dense index tables
/// (DESIGN.md §14).
#[derive(Debug, Clone, Copy)]
pub struct MicroOp {
    /// Dense opcode.
    pub kind: UopKind,
    /// [`UOP_PREDICATED`] | [`UOP_SPAWN`].
    pub flags: u8,
    /// Data-input slot count (length of the `in_slots` run at `slot0`).
    pub nin: u16,
    /// Dynamic order-in edge count (first `nord` entries at `ebase`).
    pub nord: u16,
    /// Out edge count (entries `nord..nord + nout` at `ebase`).
    pub nout: u16,
    /// Base index into [`CompiledTask::in_slots`].
    pub slot0: u32,
    /// Base index into [`CompiledTask::edge_refs`].
    pub ebase: u32,
    /// Opcode-specific operand: memory object (`Load`/`Store`), callee
    /// task (`TaskCall`), or fused-plan index (`Fused`).
    pub a: u32,
    /// Opcode-specific operand: junction (`Load`/`Store`) or packed
    /// `nargs << 16 | nresults` (`TaskCall`).
    pub b: u32,
    /// Inline op for `Compute`/`FusedAcc` (placeholder otherwise).
    pub op: OpKind,
}

/// Per-edge facts the micro-op interpreter needs without touching the
/// graph: producer node/port, edge kind, and declared buffering.
#[derive(Debug, Clone, Copy)]
pub struct EdgeMeta {
    /// Producer node.
    pub src: u32,
    /// Producer output port.
    pub src_port: u16,
    /// Order edge: the token payload is an ignored pulse.
    pub is_order: bool,
    /// Explicit FIFO depth, or `u32::MAX` for a default handshake
    /// connection (resolved against `elastic_depth` at elaboration).
    pub fifo: u32,
}

/// Pre-elaborated, immutable tables for one task's dataflow: exactly the
/// graph-derived (configuration-independent) state the simulator would
/// otherwise rebuild per run, each edge held once. A borrowed view: every
/// slice is this task's run of one table the [`CompiledAccel`] holds for
/// all its tasks, and every index inside it (`slot0`, `ebase`, an edge, a
/// constant or a plan) is relative to that run. `muir-sim` is the only
/// reader — its gate, firing body, completion walk and deadlock diagnosis
/// all walk the same `in_slots`/`edge_refs` ranges — and
/// `muir_sim::reference::check_lowering` holds every field to the graph.
/// RTL, cost and analysis consumers read [`CompiledAccel::accel`].
#[derive(Debug, Clone, Copy)]
pub struct CompiledTask<'a> {
    /// Count of dynamic (non-[`UopKind::Static`]) nodes; each fires once
    /// per instance.
    pub dynamic_count: u32,
    /// Node processing order: consumers before producers (reverse topo
    /// over forward edges) so single-token edges sustain II=1.
    pub order: &'a [u32],
    /// Inverse of `order`: `pos[node]` is the node's scan position.
    pub pos: &'a [u32],
    /// Total invocation queue capacity: the task's own issue queue plus
    /// the `<||>` FIFO feeding it (1 when the task has no parent
    /// connection).
    pub queue_cap: usize,
    /// Junction count (sizes the simulator's junction-budget slab).
    pub njunctions: usize,
    /// The flat micro-op stream, indexed by node id. One fixed-size
    /// record per node; `Static` records are never dispatched.
    pub uops: &'a [MicroOp],
    /// Packed input slots ([`SLOT_TOKEN`]/[`SLOT_ARG`]/[`SLOT_CONST`]/
    /// [`SLOT_FEEDBACK`] + payload), one run per node in port order
    /// (equal ports keep edge order).
    pub in_slots: &'a [u32],
    /// Per node at [`MicroOp::ebase`]: `nord` dynamic order-in edges
    /// followed by `nout` out edges, each run in edge order. Edges out of
    /// a `Static` node are not listed (their consumers read a slot).
    pub edge_refs: &'a [u32],
    /// Pre-evaluated `Const` node values, referenced by [`SLOT_CONST`]
    /// slots.
    pub consts: &'a [Value],
    /// Fused-group plans hoisted out of `NodeKind::Fused` (which is not
    /// `Copy`), referenced by [`UopKind::Fused`] records via
    /// [`MicroOp::a`].
    pub fused_plans: &'a [FusedPlan],
    /// Per-edge pre-resolved producer/kind/buffering facts, indexed by
    /// edge id.
    pub edge_meta: &'a [EdgeMeta],
}

impl CompiledTask<'_> {
    /// Number of micro-ops in this task's stream (== node count).
    pub fn uop_count(&self) -> usize {
        self.uops.len()
    }

    /// Heap footprint of the micro-op stream and its side tables, in
    /// bytes.
    pub(crate) fn uop_bytes(&self) -> usize {
        size_of_val(self.uops)
            + size_of_val(self.in_slots)
            + size_of_val(self.edge_refs)
            + size_of_val(self.consts)
            + size_of_val(self.fused_plans)
            + self
                .fused_plans
                .iter()
                .map(|p| p.steps.len() * size_of::<crate::node::FusedStep>())
                .sum::<usize>()
            + size_of_val(self.edge_meta)
    }

    /// Approximate heap footprint of this task's tables, in bytes.
    fn size_bytes(&self) -> usize {
        (self.order.len() + self.pos.len()) * size_of::<u32>() + self.uop_bytes()
    }
}

/// Where one task's runs start in the artifact's tables, plus its
/// scalars. Each run ends where the next task's starts ([`Tables::end`]
/// for the last task).
#[derive(Debug, Clone, Copy, Default)]
struct TaskRuns {
    dynamic_count: u32,
    queue_cap: usize,
    njunctions: usize,
    /// Start of the task's run in `order`, `pos` and `uops`.
    nodes: u32,
    slots: u32,
    refs: u32,
    consts: u32,
    plans: u32,
    edges: u32,
}

/// The artifact's one set of tables: every task's runs, back to back in
/// task order, each table allocated once at its final length.
#[derive(Debug, Default)]
struct Tables {
    order: Vec<u32>,
    pos: Vec<u32>,
    uops: Vec<MicroOp>,
    in_slots: Vec<u32>,
    edge_refs: Vec<u32>,
    consts: Vec<Value>,
    fused_plans: Vec<FusedPlan>,
    edge_meta: Vec<EdgeMeta>,
}

impl Tables {
    /// Empty tables with the exact capacity `acc`'s tasks need: every
    /// node is one micro-op and one scan position, every edge one
    /// `EdgeMeta`; every non-order edge is one input slot (a constant one
    /// also one `consts` entry); an edge out of a dynamic node is one out
    /// reference, and an order edge one order-in reference as well.
    fn with_capacity_for(acc: &Accelerator) -> Tables {
        let (mut nodes, mut edges, mut slots, mut refs, mut consts, mut plans) = (0, 0, 0, 0, 0, 0);
        for task in &acc.tasks {
            let df = &task.dataflow;
            nodes += df.nodes.len();
            edges += df.edges.len();
            plans += df
                .nodes
                .iter()
                .filter(|nd| matches!(nd.kind, NodeKind::Fused(_)))
                .count();
            for e in &df.edges {
                let src = &df.node(e.src).kind;
                if e.kind != EdgeKind::Order {
                    slots += 1;
                    consts += usize::from(matches!(src, NodeKind::Const(_)));
                }
                if !is_static(src) {
                    refs += 1 + usize::from(e.kind == EdgeKind::Order);
                }
            }
        }
        Tables {
            order: Vec::with_capacity(nodes),
            pos: Vec::with_capacity(nodes),
            uops: Vec::with_capacity(nodes),
            in_slots: Vec::with_capacity(slots),
            edge_refs: Vec::with_capacity(refs),
            consts: Vec::with_capacity(consts),
            fused_plans: Vec::with_capacity(plans),
            edge_meta: Vec::with_capacity(edges),
        }
    }

    /// Where a task appended now would start.
    fn end(&self) -> TaskRuns {
        TaskRuns {
            nodes: self.uops.len() as u32,
            slots: self.in_slots.len() as u32,
            refs: self.edge_refs.len() as u32,
            consts: self.consts.len() as u32,
            plans: self.fused_plans.len() as u32,
            edges: self.edge_meta.len() as u32,
            ..TaskRuns::default()
        }
    }

    /// Lower one task onto the end of the tables: one walk over a CSR
    /// index of the graph emits a [`MicroOp`] per node with its inputs
    /// resolved to packed slots, its edge lists to index ranges, and its
    /// operands decoded out of `NodeKind`. Every index is relative to the
    /// task's own runs. The index and the topological-sort tables are
    /// `scratch`, reused across the tasks of one [`CompiledAccel::compile`].
    fn lower(&mut self, acc: &Accelerator, tid: TaskId, scratch: &mut TopoIndex) -> TaskRuns {
        let task = acc.task(tid);
        let df = &task.dataflow;
        let mut runs = self.end();
        // Incoming rows are sorted by `(dst_port, edge)` — the port order
        // the slots need, with every order edge (`dst_port == u16::MAX`)
        // behind the operands in edge order; outgoing rows are in edge
        // order.
        let node0 = runs.nodes as usize;
        scratch.order(df, &mut self.order);
        self.order[node0..].reverse();
        let idx = &scratch.idx;
        self.pos.resize(node0 + df.nodes.len(), 0);
        let pos = &mut self.pos[node0..];
        for (p, &node) in self.order[node0..].iter().enumerate() {
            pos[node as usize] = p as u32;
        }
        // The `<||>` FIFO feeding this task, if a parent connects to it.
        let feeding = acc.task_conns.iter().find(|c| c.child == tid);
        runs.queue_cap = (task.queue_depth + feeding.map_or(1, |c| c.queue_depth)) as usize;
        runs.njunctions = df.junctions.len();
        self.edge_meta.extend(df.edges.iter().map(|e| EdgeMeta {
            src: e.src.0,
            src_port: e.src_port,
            is_order: e.kind == EdgeKind::Order,
            fifo: match e.buffering {
                Buffering::Handshake => u32::MAX,
                Buffering::Fifo(d) => d,
            },
        }));
        // A placeholder op keeps `MicroOp` `Copy`-able and fixed-size for
        // the opcodes that carry no inline operation.
        let nop = OpKind::Bin(BinOp::Add);
        for (node, nd) in df.nodes.iter().enumerate() {
            let id = NodeId(node as u32);
            let slot0 = self.in_slots.len() as u32 - runs.slots;
            let ebase = self.edge_refs.len() as u32 - runs.refs;
            for &ei in idx.ins(id) {
                let e = &df.edges[ei as usize];
                if e.kind == EdgeKind::Order {
                    // Only a dynamic producer ever sends the pulse.
                    if !is_static(&df.node(e.src).kind) {
                        self.edge_refs.push(ei);
                    }
                    continue;
                }
                let slot = match &df.node(e.src).kind {
                    NodeKind::Input { index } => SLOT_ARG | index,
                    NodeKind::Const(c) => {
                        let ci = self.consts.len() as u32 - runs.consts;
                        self.consts.push(c.to_value());
                        SLOT_CONST | ci
                    }
                    _ if matches!(nd.kind, NodeKind::Merge) && e.dst_port == 1 => {
                        SLOT_FEEDBACK | ei
                    }
                    _ => SLOT_TOKEN | ei,
                };
                self.in_slots.push(slot);
            }
            let nin = (self.in_slots.len() as u32 - runs.slots - slot0) as u16;
            let nord = (self.edge_refs.len() as u32 - runs.refs - ebase) as u16;
            let dynamic = !is_static(&nd.kind);
            let outs: &[u32] = if dynamic { idx.outs(id) } else { &[] };
            self.edge_refs.extend_from_slice(outs);
            runs.dynamic_count += u32::from(dynamic);
            let (kind, flags, a, b, op) = match &nd.kind {
                NodeKind::Input { .. } | NodeKind::Const(_) => (UopKind::Static, 0, 0, 0, nop),
                NodeKind::IndVar => (UopKind::IndVar, 0, 0, 0, nop),
                NodeKind::Merge => (UopKind::Merge, 0, 0, 0, nop),
                NodeKind::FusedAcc { op } => (UopKind::FusedAcc, 0, 0, 0, *op),
                NodeKind::Compute(op) => (UopKind::Compute, 0, 0, 0, *op),
                NodeKind::Fused(plan) => {
                    let pi = self.fused_plans.len() as u32 - runs.plans;
                    self.fused_plans.push(plan.clone());
                    (UopKind::Fused, 0, pi, 0, nop)
                }
                NodeKind::Output => (UopKind::Output, 0, 0, 0, nop),
                NodeKind::Load {
                    obj,
                    junction,
                    predicated,
                } => (
                    UopKind::Load,
                    if *predicated { UOP_PREDICATED } else { 0 },
                    obj.0,
                    junction.0,
                    nop,
                ),
                NodeKind::Store {
                    obj,
                    junction,
                    predicated,
                } => (
                    UopKind::Store,
                    if *predicated { UOP_PREDICATED } else { 0 },
                    obj.0,
                    junction.0,
                    nop,
                ),
                NodeKind::TaskCall {
                    callee,
                    predicated,
                    spawn,
                } => {
                    let child = acc.task(*callee);
                    let mut flags = 0;
                    if *predicated {
                        flags |= UOP_PREDICATED;
                    }
                    if *spawn {
                        flags |= UOP_SPAWN;
                    }
                    (
                        UopKind::TaskCall,
                        flags,
                        callee.0,
                        (child.num_args << 16) | child.num_results,
                        nop,
                    )
                }
            };
            self.uops.push(MicroOp {
                kind,
                flags,
                nin,
                nord,
                nout: outs.len() as u16,
                slot0,
                ebase,
                a,
                b,
                op,
            });
        }
        runs
    }
}

/// Whether a node of this kind is invocation-constant (never fired).
fn is_static(kind: &NodeKind) -> bool {
    matches!(kind, NodeKind::Input { .. } | NodeKind::Const(_))
}

/// A sealed, immutable, index-dense lowering of a verified
/// [`Accelerator`]. See the module docs for what it carries and why.
#[derive(Debug)]
pub struct CompiledAccel {
    accel: Accelerator,
    hash: u64,
    tasks: Vec<TaskRuns>,
    tables: Tables,
}

impl CompiledAccel {
    /// Verify `acc` and lower it into a sealed artifact. This is the only
    /// construction path, so holding a `CompiledAccel` *is* the proof the
    /// graph is well-formed. The artifact shares `acc`'s graph: nothing is
    /// copied unless the caller later writes through its own handle.
    ///
    /// # Errors
    /// The graph's first structural violation, if any.
    pub fn compile(acc: &Accelerator) -> Result<CompiledAccel, GraphError> {
        let _span = telemetry::span("compile", "compile.lower");
        verify_accelerator(acc)?;
        let mut scratch = TopoIndex::default();
        let mut tables = Tables::with_capacity_for(acc);
        let tasks = acc
            .task_ids()
            .map(|tid| tables.lower(acc, tid, &mut scratch))
            .collect();
        Ok(CompiledAccel {
            accel: acc.clone(),
            hash: content_hash(acc),
            tasks,
            tables,
        })
    }

    /// The sealed graph. Consumers read it immutably; re-walking this
    /// borrow is free of re-verification.
    pub fn accel(&self) -> &Accelerator {
        &self.accel
    }

    /// The stable structural content hash of the sealed graph (the
    /// store's artifact address).
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Per-task lowered tables, index-aligned with `accel().tasks`.
    pub fn tasks(&self) -> Tasks<'_> {
        Tasks(self)
    }

    /// The lowered tables of one task.
    pub fn task(&self, ti: usize) -> CompiledTask<'_> {
        let r = &self.tasks[ti];
        let t = &self.tables;
        let next = self.tasks.get(ti + 1).copied().unwrap_or_else(|| t.end());
        let run = |start: u32, end: u32| start as usize..end as usize;
        let nodes = run(r.nodes, next.nodes);
        CompiledTask {
            dynamic_count: r.dynamic_count,
            order: &t.order[nodes.clone()],
            pos: &t.pos[nodes.clone()],
            queue_cap: r.queue_cap,
            njunctions: r.njunctions,
            uops: &t.uops[nodes],
            in_slots: &t.in_slots[run(r.slots, next.slots)],
            edge_refs: &t.edge_refs[run(r.refs, next.refs)],
            consts: &t.consts[run(r.consts, next.consts)],
            fused_plans: &t.fused_plans[run(r.plans, next.plans)],
            edge_meta: &t.edge_meta[run(r.edges, next.edges)],
        }
    }

    /// Approximate heap footprint of the artifact's index tables (the
    /// lowering overhead beyond the graph itself), in bytes.
    pub fn size_bytes(&self) -> usize {
        self.tasks().iter().map(|ct| ct.size_bytes()).sum()
    }
}

/// An artifact's sealed tasks, index-aligned with `accel().tasks`: a
/// borrowed handle, so walking them builds each view on the fly and
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Tasks<'a>(&'a CompiledAccel);

impl<'a> Tasks<'a> {
    /// Each task's tables, in task order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = CompiledTask<'a>> {
        let comp = self.0;
        (0..comp.tasks.len()).map(|ti| comp.task(ti))
    }
}

/// splitmix64 finalizer: the statistically-mixed core of
/// [`crate::rng::SplitMix64`], reused here as a hash combinator.
#[inline]
fn mix(word: u64) -> u64 {
    let mut z = word.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streams bytes into a splitmix64-based fold, one 64-bit word per
/// absorption.
///
/// This is the repo's one stable content-hash primitive: artifact
/// addresses, the persistent store's payload checksums (`muir-store`), and
/// the memoization keys over `SimConfig`/`SimResult` all fold through it,
/// so every layer agrees on what "same content" means.
///
/// The digest is a function of the *byte stream* alone — bytes are packed
/// little-endian into words in arrival order — so how a caller splits its
/// pushes never changes the result, and every entry point below
/// ([`push`](Self::push), [`push_u64`](Self::push_u64), the
/// [`std::hash::Hasher`] `write_*` methods) moves whole words with two
/// shifts instead of looping over bytes.
///
/// It implements [`std::hash::Hasher`] so typed data is hashed
/// *structurally*: `#[derive(Hash)]` on a type visits every field (and
/// picks up new ones automatically), enum discriminants and lengths
/// arrive through `write_isize`/`write_usize`, which are widened to 64
/// bits so the digest does not depend on the host's pointer width, and
/// fixed-width integers are absorbed little-endian. Floats have no
/// `Hash`; their owners hash `to_bits()`, so distinct NaN payloads and
/// `0.0`/`-0.0` hash distinct.
pub struct ContentHasher {
    state: u64,
    pending: u64,
    npending: u32,
    len: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

impl ContentHasher {
    /// A fresh hasher (fixed initial state: hashes are stable across
    /// processes and runs).
    pub fn new() -> ContentHasher {
        ContentHasher {
            state: 0x5ea1_0000_c0de_0001,
            pending: 0,
            npending: 0,
            len: 0,
        }
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        self.state = mix(self.state ^ word);
    }

    /// Absorb the low `n` bytes (1..=8) of `v`, little-endian. The bytes
    /// of `v` above `n` must be zero.
    #[inline]
    fn push_le(&mut self, v: u64, n: u32) {
        debug_assert!((1..=8).contains(&n) && (n == 8 || v >> (8 * n) == 0));
        let have = self.npending;
        self.pending |= v << (8 * have);
        let total = have + n;
        if total >= 8 {
            let word = self.pending;
            self.absorb(word);
            // The `8 - have` low bytes of `v` completed the word; the
            // rest (none when the hasher was word-aligned) carry over.
            self.pending = if have == 0 { 0 } else { v >> (8 * (8 - have)) };
            self.npending = total - 8;
        } else {
            self.npending = total;
        }
        self.len += u64::from(n);
    }

    /// Absorb raw bytes (little-endian packed into 64-bit words).
    pub fn push(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.push_le(u64::from_le_bytes(w.try_into().expect("8 bytes")), 8);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.push_le(u64::from_le_bytes(buf), rest.len() as u32);
        }
    }

    /// Absorb a `u64` as 8 little-endian bytes. Canonical-encoding
    /// helper shared by every layer that hashes structured keys (the
    /// simulator's config/job/result hashes, the μopt `PassConfig`
    /// dedup hash, the store's result keys).
    pub fn push_u64(&mut self, v: u64) {
        self.push_le(v, 8);
    }

    /// Absorb a length-prefixed string. The prefix makes the encoding
    /// self-delimiting, so adjacent strings never collide with their
    /// concatenation.
    pub fn push_str(&mut self, s: &str) {
        self.push_u64(s.len() as u64);
        self.push(s.as_bytes());
    }

    /// Absorb an `f64` by its exact bit pattern (total and
    /// deterministic; distinct NaN payloads hash distinct).
    pub fn push_f64_bits(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// The digest of everything absorbed so far: the partial word is
    /// flushed and the total length bound in, so prefixes never collide
    /// with their extensions.
    fn digest(&self) -> u64 {
        mix(mix(self.state ^ self.pending) ^ self.len)
    }

    /// Finalize: flush the partial word and bind the total length.
    pub fn finish(self) -> u64 {
        self.digest()
    }
}

// The `write_*` methods are `#[inline]`: the `Hash` impls that call them
// per field are instantiated in other crates, where without it whether
// they inline depends on how that crate's code is split into codegen
// units (deleting unrelated code in muir-sim once made `job_hash` 10 %
// slower).
impl std::hash::Hasher for ContentHasher {
    fn finish(&self) -> u64 {
        self.digest()
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.push(bytes);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.push_le(u64::from(v), 1);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.push_le(u64::from(v), 2);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.push_le(u64::from(v), 4);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.push_le(v, 8);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.push_le(v as u64, 8);
    }

    // The fixed-width signed `write_i*` defaults forward to the unsigned
    // method of the same width; `isize` is sign-extended here (its default
    // would zero-extend through `write_usize` on a 32-bit host).
    fn write_isize(&mut self, v: isize) {
        self.push_le(v as i64 as u64, 8);
    }
}

/// The stable content hash of an accelerator.
///
/// The hash is the derived structural [`Hash`] of the graph folded
/// through [`ContentHasher`]: every task, node, edge, junction,
/// structure, connection, and parameter, in arena order, with every
/// variable-length field length-prefixed — so two accelerators hash equal
/// iff they are structurally identical (`Accelerator` equality, except
/// that float constants compare by bit pattern). Because the impls are
/// derived, a field added to any graph type is covered without touching
/// this function. Used as the store's artifact address, as the DSE's
/// candidate-grouping key, and by the pass-idempotence and
/// artifact-determinism gates.
pub fn content_hash(acc: &Accelerator) -> u64 {
    let mut h = ContentHasher::new();
    acc.hash(&mut h);
    h.finish()
}

/// Forward topological order over forward (non-feedback) edges. Reversed
/// — consumers before producers — it is the schedulers' scan order: a
/// consumer drains its input edge before the producer refills it, so
/// single-token edges sustain II=1.
pub fn forward_topo(df: &Dataflow) -> Vec<usize> {
    let mut order = Vec::with_capacity(df.nodes.len());
    TopoIndex::default().order(df, &mut order);
    order.into_iter().map(|x| x as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::{AccelGraph, TaskBlock, TaskKind};
    use crate::node::{Name, Node, OpKind};
    use crate::Type;
    use muir_mir::instr::{BinOp, ConstVal};

    fn tiny_acc() -> Accelerator {
        let mut acc = Accelerator::new("t");
        let mut task = TaskBlock::new("main", TaskKind::Region);
        let df = &mut task.dataflow;
        let a = df.add_node(Node::new("a", NodeKind::Const(ConstVal::Int(1)), Type::I64));
        let b = df.add_node(Node::new("b", NodeKind::Const(ConstVal::Int(2)), Type::I64));
        let add = df.add_node(Node::new(
            "add",
            NodeKind::Compute(OpKind::Bin(BinOp::Add)),
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(a, 0, add, 0);
        df.connect(b, 0, add, 1);
        df.connect(add, 0, out, 0);
        let tid = acc.add_task(task);
        acc.root = tid;
        acc
    }

    #[test]
    fn hash_is_deterministic_and_content_sensitive() {
        let acc = tiny_acc();
        assert_eq!(content_hash(&acc), content_hash(&acc));
        assert_eq!(content_hash(&acc), content_hash(&acc.clone()));
        let mut other = tiny_acc();
        other.task_mut(crate::accel::TaskId(0)).tiles = 4;
        assert_ne!(content_hash(&acc), content_hash(&other));
    }

    /// The byte-at-a-time fold `ContentHasher` started as, kept as the
    /// reference the word-at-a-time absorber must match bit for bit:
    /// envelope checksums in existing store files were written by it.
    fn bytewise_reference(bytes: &[u8]) -> u64 {
        let mut state = 0x5ea1_0000_c0de_0001u64;
        let (mut pending, mut npending) = (0u64, 0u32);
        for &b in bytes {
            pending |= u64::from(b) << (8 * npending);
            npending += 1;
            if npending == 8 {
                state = mix(state ^ pending);
                (pending, npending) = (0, 0);
            }
        }
        state = mix(state ^ pending);
        mix(state ^ bytes.len() as u64)
    }

    #[test]
    fn chunked_push_matches_bytewise_reference_at_any_split() {
        use std::hash::Hasher;
        let mut rng = crate::rng::SplitMix64::new(0xc0ffee);
        for _ in 0..200 {
            let len = rng.below(70) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let want = bytewise_reference(&bytes);

            let mut whole = ContentHasher::new();
            whole.push(&bytes);
            assert_eq!(whole.finish(), want, "one push of {len} bytes");

            // Random split points, each piece through a random entry
            // point that fits it.
            let mut split = ContentHasher::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let n = 1 + rng.below(rest.len().min(19) as u64) as usize;
                let (piece, tail) = rest.split_at(n);
                match (n, rng.below(2)) {
                    (1, 0) => split.write_u8(piece[0]),
                    (2, 0) => split.write_u16(u16::from_le_bytes(piece.try_into().unwrap())),
                    (4, 0) => split.write_u32(u32::from_le_bytes(piece.try_into().unwrap())),
                    (8, 0) => split.push_u64(u64::from_le_bytes(piece.try_into().unwrap())),
                    _ => split.push(piece),
                }
                rest = tail;
            }
            assert_eq!(Hasher::finish(&split), want, "trait finish, {len} bytes");
            assert_eq!(split.finish(), want, "split pushes of {len} bytes");
        }
    }

    #[test]
    fn hasher_widens_pointer_sized_writes_to_64_bits() {
        use std::hash::Hasher as _;
        let mut a = ContentHasher::new();
        a.write_usize(7);
        a.write_isize(-2);
        let mut b = ContentHasher::new();
        b.push_u64(7);
        b.push_u64(-2i64 as u64);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn adjacent_strings_do_not_collide_with_their_concatenation() {
        let pushed = |a: &str, b: &str| {
            let mut h = ContentHasher::new();
            h.push_str(a);
            h.push_str(b);
            h.finish()
        };
        assert_ne!(pushed("ab", "c"), pushed("a", "bc"));
        // The derived route: `str::hash` terminates each string.
        let derived = |pair: (&str, &str)| {
            let mut h = ContentHasher::new();
            pair.hash(&mut h);
            h.finish()
        };
        assert_ne!(derived(("ab", "c")), derived(("a", "bc")));
    }

    /// A small accelerator that populates every kind of graph field: a
    /// loop task with a junction, a structure serving an object, and both
    /// connection kinds.
    fn field_acc() -> Accelerator {
        use crate::accel::{ArgExpr, LoopSpec, ResultInit};
        use crate::dataflow::Junction;
        use crate::structure::Structure;
        use muir_mir::instr::MemObjId;

        let mut acc = tiny_acc();
        let mut spad = Structure::scratchpad("spad", 64);
        spad.serve(MemObjId(0));
        let sid = acc.add_structure(spad);
        let mut body = TaskBlock::new(
            "body",
            TaskKind::Loop {
                spec: LoopSpec {
                    lo: ArgExpr::Const(0),
                    hi: ArgExpr::Arg(0),
                    step: 1,
                },
                serial: false,
            },
        );
        body.num_args = 1;
        body.num_results = 1;
        body.loop_result_inits = vec![Some(ResultInit::Const(ConstVal::F32(0.5)))];
        let df = &mut body.dataflow;
        let j = df.add_junction(Junction::new(sid, 1, 1));
        let iv = df.add_node(Node::new("i", NodeKind::IndVar, Type::I64));
        let ld = df.add_node(Node::new(
            "ld",
            NodeKind::Load {
                obj: MemObjId(0),
                junction: j,
                predicated: false,
            },
            Type::I64,
        ));
        let out = df.add_node(Node::new("out", NodeKind::Output, Type::I64));
        df.connect(iv, 0, ld, 0);
        df.connect(ld, 0, out, 0);
        df.register_reader(j, ld);
        let child = acc.add_task(body);
        let root = acc.root;
        acc.connect_tasks(root, child, 2);
        acc.connect_mem(child, j, sid);
        acc.object_info = vec![(64, true)];
        acc
    }

    /// One mutation per semantic field of the graph: each must move
    /// `content_hash`. The impls are derived, so this table is what goes
    /// red if a field is ever skipped (a manual impl, a `#[..(skip)]`).
    #[test]
    fn content_hash_sees_every_semantic_field() {
        use crate::accel::{ArgExpr, ResultInit};
        use crate::dataflow::{Arbitration, NodeId};
        use crate::structure::StructureKind;
        use muir_mir::instr::MemObjId;

        type Mutator = (&'static str, fn(&mut Accelerator));
        let mutators: &[Mutator] = &[
            ("name", |a| a.name.push('x')),
            ("root", |a| a.root = TaskId(1)),
            ("object_info.len", |a| a.object_info[0].0 += 1),
            ("object_info.read_only", |a| a.object_info[0].1 = false),
            ("task.name", |a| a.tasks[1].name.push('x')),
            ("task.tiles", |a| a.tasks[1].tiles = 4),
            ("task.queue_depth", |a| a.tasks[1].queue_depth += 1),
            ("task.num_args", |a| a.tasks[1].num_args += 1),
            ("task.num_results", |a| a.tasks[1].num_results += 1),
            ("task.kind", |a| a.tasks[1].kind = TaskKind::Region),
            ("task.loop.serial", |a| {
                let TaskKind::Loop { serial, .. } = &mut a.tasks[1].kind else {
                    unreachable!()
                };
                *serial = true;
            }),
            ("task.loop.spec.hi", |a| {
                let TaskKind::Loop { spec, .. } = &mut a.tasks[1].kind else {
                    unreachable!()
                };
                spec.hi = ArgExpr::Const(0);
            }),
            ("task.loop.spec.step", |a| {
                let TaskKind::Loop { spec, .. } = &mut a.tasks[1].kind else {
                    unreachable!()
                };
                spec.step = 2;
            }),
            ("task.loop_result_inits", |a| {
                a.tasks[1].loop_result_inits[0] = Some(ResultInit::Const(ConstVal::F32(-0.5)));
            }),
            ("node.name", |a| {
                let n = &mut a.tasks[1].dataflow.nodes[1];
                n.name = Name::format(format_args!("{}x", n.name));
            }),
            ("node.kind", |a| {
                a.tasks[0].dataflow.nodes[2].kind = NodeKind::Compute(OpKind::Bin(BinOp::Sub));
            }),
            ("node.kind.const", |a| {
                a.tasks[0].dataflow.nodes[0].kind = NodeKind::Const(ConstVal::Int(9));
            }),
            ("node.kind.load.predicated", |a| {
                let NodeKind::Load { predicated, .. } = &mut a.tasks[1].dataflow.nodes[1].kind
                else {
                    unreachable!()
                };
                *predicated = true;
            }),
            ("node.ty", |a| a.tasks[1].dataflow.nodes[1].ty = Type::I32),
            ("edge.src_port", |a| {
                a.tasks[1].dataflow.edges[0].src_port = 1
            }),
            ("edge.dst_port", |a| {
                a.tasks[1].dataflow.edges[0].dst_port = 1
            }),
            ("edge.dst", |a| a.tasks[1].dataflow.edges[0].dst = NodeId(2)),
            ("edge.kind", |a| {
                a.tasks[1].dataflow.edges[0].kind = EdgeKind::Order;
            }),
            ("edge.buffering", |a| {
                a.tasks[1].dataflow.edges[0].buffering = Buffering::Fifo(4);
            }),
            ("junction.read_ports", |a| {
                a.tasks[1].dataflow.junctions[0].read_ports = 2;
            }),
            ("junction.write_ports", |a| {
                a.tasks[1].dataflow.junctions[0].write_ports = 2;
            }),
            ("junction.arbitration", |a| {
                a.tasks[1].dataflow.junctions[0].arbitration = Arbitration::FixedPriority;
            }),
            ("junction.readers", |a| {
                a.tasks[1].dataflow.junctions[0].readers.clear();
            }),
            ("structure.name", |a| a.structures[0].name.push('x')),
            ("structure.kind", |a| {
                a.structures[0].kind = StructureKind::Dram {
                    latency: 1,
                    elems_per_cycle: 1,
                };
            }),
            ("structure.banks", |a| {
                let StructureKind::Scratchpad { banks, .. } = &mut a.structures[0].kind else {
                    unreachable!()
                };
                *banks = 4;
            }),
            ("structure.objects", |a| {
                a.structures[0].objects.push(MemObjId(1));
            }),
            ("connections", |a| a.task_conns[0].queue_depth = 8),
        ];
        let base = field_acc();
        let h = content_hash(&base);
        let mut seen = vec![h];
        for (what, mutate) in mutators {
            let mut acc = base.clone();
            mutate(&mut acc);
            let got = content_hash(&acc);
            assert!(!seen.contains(&got), "{what}: hash did not move");
            seen.push(got);
        }
        // Moving a `<==>` connection, and moving an element between two
        // adjacent lists without changing their concatenation.
        let mut acc = base.clone();
        acc.mem_conns[0].task = TaskId(0);
        assert_ne!(content_hash(&acc), h, "mem_conns");
        let mut acc = base.clone();
        let j = &mut acc.tasks[1].dataflow.junctions[0];
        j.writers = std::mem::take(&mut j.readers);
        assert_ne!(content_hash(&acc), h, "readers vs writers");
    }

    /// Pinned value: nothing checked in depends on it, but a toolchain
    /// change to what `#[derive(Hash)]` feeds the hasher (or an edit to
    /// the fold) would orphan every persistent store's artifact and
    /// result keys — that should be a visible event, not a silent one.
    #[test]
    fn content_hash_of_the_tiny_fixture_is_pinned() {
        assert_eq!(content_hash(&tiny_acc()), 0x8f49a3a8bc9ea5b6);
    }

    #[test]
    fn compile_seals_verified_graphs_only() {
        let acc = tiny_acc();
        let comp = CompiledAccel::compile(&acc).unwrap();
        assert_eq!(comp.content_hash(), content_hash(&acc));
        assert_eq!(comp.accel(), &acc);
        assert!(comp.size_bytes() > 0);

        let mut bad = tiny_acc();
        bad.tasks[0]
            .dataflow
            .add_node(Node::new("bad", NodeKind::Output, Type::BOOL));
        assert!(CompiledAccel::compile(&bad).is_err());
    }

    #[test]
    fn lowered_tables_match_engine_expectations() {
        let acc = tiny_acc();
        let comp = CompiledAccel::compile(&acc).unwrap();
        let ct = comp.task(0);
        assert_eq!(ct.uop_count(), 4);
        assert_eq!(ct.uops[0].kind, UopKind::Static);
        assert_eq!(ct.dynamic_count, 2);
        // Static sources list no out edges.
        assert_eq!(ct.uops[0].nout, 0);
        let add = ct.uops[2];
        assert_eq!(add.kind, UopKind::Compute);
        assert_eq!(add.op, OpKind::Bin(BinOp::Add));
        // Both inputs are consts, pre-evaluated into the const pool, in
        // port order.
        assert_eq!(add.nin, 2);
        let slots = &ct.in_slots[add.slot0 as usize..(add.slot0 + 2) as usize];
        assert_eq!(slots, &[SLOT_CONST, SLOT_CONST | 1]);
        assert_eq!(ct.consts, vec![Value::Int(1), Value::Int(2)]);
        // add has no order inputs and one out edge (edge 2 -> out), which
        // is out's single token input.
        assert_eq!((add.nord, add.nout), (0, 1));
        assert_eq!(ct.edge_refs[add.ebase as usize], 2);
        assert_eq!(ct.in_slots[ct.uops[3].slot0 as usize], SLOT_TOKEN | 2);
        assert_eq!(ct.edge_meta[2].src, 2);
        assert!(!ct.edge_meta[2].is_order);
        assert_eq!(ct.edge_meta[2].fifo, u32::MAX);
        assert!(ct.uop_bytes() > 0);
        // Reverse topo: consumers before producers; `pos` inverts `order`.
        assert!(ct.pos[3] < ct.pos[2]);
        assert!((0..4).all(|p| ct.pos[ct.order[p] as usize] == p as u32));
        // No `<||>` connection feeds the root: its own queue plus one.
        assert_eq!(ct.queue_cap, acc.tasks[0].queue_depth as usize + 1);
    }

    /// The artifact shares the graph it was sealed from; a write through
    /// the caller's handle copies the graph for the caller and leaves the
    /// artifact's graph, hash and tables as sealed.
    #[test]
    fn a_write_after_sealing_leaves_the_artifact_as_sealed() {
        let mut acc = field_acc();
        let comp = CompiledAccel::compile(&acc).unwrap();
        let shared = |a: &Accelerator, b: &Accelerator| std::ptr::eq::<AccelGraph>(&**a, &**b);
        assert!(shared(comp.accel(), &acc));
        let hash = comp.content_hash();
        let tables: Vec<String> = comp.tasks().iter().map(|t| format!("{t:?}")).collect();
        acc.tasks[1].tiles = 4;
        acc.tasks[1].dataflow.edges[0].buffering = Buffering::Fifo(4);
        assert!(!shared(comp.accel(), &acc));
        assert_ne!(content_hash(&acc), hash, "the graph's own hash moves");
        assert_eq!(comp.content_hash(), hash);
        assert_eq!(content_hash(comp.accel()), hash);
        assert_eq!(comp.accel(), &field_acc());
        let after: Vec<String> = comp.tasks().iter().map(|t| format!("{t:?}")).collect();
        assert_eq!(after, tables, "the sealed tables moved");
        // A fresh seal of the written graph does see the new FIFO depth.
        let resealed = CompiledAccel::compile(&acc).unwrap();
        assert_eq!(resealed.task(1).edge_meta[0].fifo, 4);
        assert_eq!(comp.task(1).edge_meta[0].fifo, u32::MAX);
    }

    /// Sealing has no hidden state: two seals of one graph agree (their
    /// tables are compared by `muir_sim::reference` in that crate's tests).
    #[test]
    fn two_compiles_of_one_graph_agree() {
        let acc = field_acc();
        let a = CompiledAccel::compile(&acc).unwrap();
        let b = CompiledAccel::compile(&acc.clone()).unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.size_bytes(), b.size_bytes());
        assert_eq!(a.accel(), b.accel());
    }
}
