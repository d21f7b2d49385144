//! The scope-recursive translator from `mir` to the μIR graph.
//!
//! Stage 1 (Algorithm 1) and Stage 2 are fused into one recursive walk:
//! `build_scope` extracts child tasks (loops, detach regions, calls) first,
//! then lowers the remaining forward-CFG hyperblock to predicated dataflow.
//!
//! Each function's CFG facts — its predecessor table, natural loops, the
//! detach-expanded extent of each loop and the use index live-outs come
//! from — are computed once ([`FuncFacts`]) and read by every scope built
//! from it. A scope holds its own membership as dense per-block tables and
//! its lowered values, block predicates and edge predicates as tables
//! indexed by id. Every walk that decides an output order goes by
//! ascending block or instruction id — the order the ordered sets these
//! tables replaced walked in — and no output order depends on a hash.
//!
//! Translation terminates on every verified module: a scope is never
//! entered while it is being built (a call cycle, or a detach whose region
//! holds the detach itself, is an error), and a pure value is marked while
//! it is being translated, so one that depends on itself is an error too.

use crate::{FrontendConfig, FrontendError};
use muir_core::accel::{Accelerator, ArgExpr, LoopSpec, ResultInit, TaskBlock, TaskId, TaskKind};
use muir_core::dataflow::{Dataflow, Junction, JunctionId, NodeId};
use muir_core::node::{Node, NodeKind, OpKind};
use muir_core::structure::{Structure, StructureId};
use muir_mir::analysis::{
    self, detach_region, expand_with_detach, live_outs, loop_dependence_in, natural_loops, Affine,
    BlockSet, NaturalLoop, Uses,
};
use muir_mir::instr::{
    BinOp, BlockId, CmpPred, ConstVal, FuncId, Instr, InstrId, MemObjId, Op, ValueRef,
};
use muir_mir::module::{Function, Module, Preds};
use muir_mir::types::{ScalarType, Type};
use std::collections::BTreeSet;
use std::fmt::Write;

fn ferr(msg: impl Into<String>) -> FrontendError {
    FrontendError {
        message: msg.into(),
    }
}

/// "No entry" in a per-block `u32` table.
const NONE: u32 = u32::MAX;

/// A value captured from the enclosing scope (a task-closure argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Capture {
    /// An instruction result of the enclosing function.
    Val(InstrId),
    /// A function argument of the enclosing function.
    Arg(u32),
}

/// The call interface of a built child task.
#[derive(Debug)]
struct ChildIface {
    task: TaskId,
    /// Parent-scope values to pass, in argument order (loop/detach tasks).
    captures: Vec<Capture>,
    /// Live-out instruction ids, in result-port order.
    results: Vec<InstrId>,
}

impl ChildIface {
    /// Move the lists out for the one call site that connects them.
    fn take(&mut self) -> ChildIface {
        ChildIface {
            task: self.task,
            captures: std::mem::take(&mut self.captures),
            results: std::mem::take(&mut self.results),
        }
    }
}

/// What kind of scope is being built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    /// A whole function body (the root, or a called function).
    Function,
    /// A natural loop (index into the function's loop list).
    Loop(usize),
    /// A Tapir detach region entered at `body`.
    Detach(BlockId),
}

/// Memory footprint used for program-order edges.
#[derive(Debug, Clone, Default)]
struct Footprint {
    reads: Vec<(MemObjId, Option<Affine>)>,
    writes: Vec<(MemObjId, Option<Affine>)>,
}

impl Footprint {
    fn whole(reads: &BTreeSet<MemObjId>, writes: &BTreeSet<MemObjId>) -> Footprint {
        Footprint {
            reads: reads.iter().map(|&o| (o, None)).collect(),
            writes: writes.iter().map(|&o| (o, None)).collect(),
        }
    }
}

/// Two same-iteration affine addresses provably never alias only when they
/// differ by a nonzero constant with identical strides and symbols.
fn same_iter_disjoint(a: &Option<Affine>, b: &Option<Affine>) -> bool {
    match (a, b) {
        (
            Some(Affine::Affine {
                scale: s1,
                konst: k1,
                syms: m1,
            }),
            Some(Affine::Affine {
                scale: s2,
                konst: k2,
                syms: m2,
            }),
        ) => s1 == s2 && m1 == m2 && k1 != k2,
        _ => false,
    }
}

fn conflicts(earlier: &Footprint, later: &Footprint) -> bool {
    let pair = |ws: &[(MemObjId, Option<Affine>)], rs: &[(MemObjId, Option<Affine>)]| {
        ws.iter().any(|(wo, wa)| {
            rs.iter()
                .any(|(ro, ra)| wo == ro && !same_iter_disjoint(wa, ra))
        })
    };
    pair(&earlier.writes, &later.reads)
        || pair(&earlier.writes, &later.writes)
        || pair(&earlier.reads, &later.writes)
}

/// One function's CFG facts, computed once per translation.
struct FuncFacts {
    preds: Preds,
    loops: Vec<NaturalLoop>,
    /// Each loop's blocks plus the detach regions they spawn: the extent
    /// of its child task, index-aligned with `loops`.
    extents: Vec<BlockSet>,
    uses: Uses,
}

impl FuncFacts {
    fn new(f: &Function) -> FuncFacts {
        let preds = f.predecessors();
        let loops = natural_loops(f, &preds);
        let extents = loops
            .iter()
            .map(|l| expand_with_detach(f, l.blocks.clone()))
            .collect();
        FuncFacts {
            preds,
            loops,
            extents,
            uses: Uses::new(f),
        }
    }
}

/// What translation reads and never writes.
struct Tables<'m> {
    module: &'m Module,
    config: &'m FrontendConfig,
    /// Per function.
    facts: Vec<FuncFacts>,
    /// Structure homing each memory object.
    placement: Vec<StructureId>,
    /// Whole-function memory footprints (reads, writes).
    func_fps: Vec<(BTreeSet<MemObjId>, BTreeSet<MemObjId>)>,
}

/// Translation driver: the accelerator being built and the scopes open on
/// the recursion stack.
struct Frontend<'a> {
    t: &'a Tables<'a>,
    acc: Accelerator,
    open: Vec<(FuncId, ScopeKind)>,
}

/// Translate a verified module: the baseline memory system, then the
/// root scope and, recursively, every task under it.
pub(crate) fn translate(
    module: &Module,
    config: &FrontendConfig,
) -> Result<Accelerator, FrontendError> {
    muir_mir::verify::verify_module(module).map_err(|e| ferr(e.to_string()))?;
    if module.functions.is_empty() {
        return Err(ferr("module has no functions"));
    }
    let mut acc = Accelerator::new(module.name.clone());
    acc.object_info = module
        .mem_objects
        .iter()
        .map(|o| (o.len, o.read_only))
        .collect();

    // Baseline memory system (§6.4): shared scratchpad for small/local
    // objects, one L1 cache (64 KB) for large/global objects, an AXI
    // DRAM port behind everything.
    let mut spad = Structure::scratchpad("shared_spad", 0);
    let mut cache = Structure::l1_cache("l1");
    let mut spad_cap = 0u64;
    let mut spad_objs = Vec::new();
    let mut cache_objs = Vec::new();
    for (i, obj) in module.mem_objects.iter().enumerate() {
        if obj.len <= config.spad_threshold {
            spad_cap += obj.len;
            spad_objs.push(MemObjId(i as u32));
        } else {
            cache_objs.push(MemObjId(i as u32));
        }
    }
    if let muir_core::structure::StructureKind::Scratchpad { capacity, .. } = &mut spad.kind {
        *capacity = spad_cap;
    }
    for &o in &spad_objs {
        spad.serve(o);
    }
    for &o in &cache_objs {
        cache.serve(o);
    }
    let mut placement = vec![StructureId(0); module.mem_objects.len()];
    if !spad_objs.is_empty() {
        let sid = acc.add_structure(spad);
        for &o in &spad_objs {
            placement[o.0 as usize] = sid;
        }
    }
    if !cache_objs.is_empty() {
        let cid = acc.add_structure(cache);
        for &o in &cache_objs {
            placement[o.0 as usize] = cid;
        }
    }
    acc.add_structure(Structure::dram("axi"));

    let t = Tables {
        module,
        config,
        facts: module.functions.iter().map(FuncFacts::new).collect(),
        placement,
        func_fps: compute_function_footprints(module),
    };
    let mut fe = Frontend {
        t: &t,
        acc,
        open: Vec::new(),
    };
    let iface = fe.build_scope(FuncId(0), ScopeKind::Function, "main".to_string(), None)?;
    fe.acc.root = iface.task;
    muir_core::verify::verify_accelerator(&fe.acc).map_err(|e| ferr(e.to_string()))?;
    Ok(fe.acc)
}

impl<'a> Frontend<'a> {
    /// Build one task from a scope of `fid`'s CFG; returns its interface.
    /// A scope already open on the recursion stack is refused.
    fn build_scope(
        &mut self,
        fid: FuncId,
        kind: ScopeKind,
        name: String,
        parent: Option<TaskId>,
    ) -> Result<ChildIface, FrontendError> {
        if self.open.contains(&(fid, kind)) {
            let fname = &self.t.module.function(fid).name;
            return Err(ferr(match kind {
                ScopeKind::Function => {
                    format!("call cycle: `{fname}` is called while it is being built")
                }
                ScopeKind::Loop(li) => format!(
                    "loop at {} in `{fname}` is re-entered while it is being built",
                    self.t.facts[fid.0 as usize].loops[li].header
                ),
                ScopeKind::Detach(body) => format!(
                    "detach region at {body} in `{fname}` is re-entered while it is being built"
                ),
            }));
        }
        self.open.push((fid, kind));
        let built = self.build_open_scope(fid, kind, name, parent);
        self.open.pop();
        built
    }

    fn build_open_scope(
        &mut self,
        fid: FuncId,
        kind: ScopeKind,
        name: String,
        parent: Option<TaskId>,
    ) -> Result<ChildIface, FrontendError> {
        let t = self.t;
        let f = t.module.function(fid);
        let facts = &t.facts[fid.0 as usize];
        let loops = &facts.loops;
        let n = f.blocks.len();

        // Reserve the task id so children can connect to it.
        let tid = self
            .acc
            .add_task(TaskBlock::new(name.clone(), TaskKind::Region));
        if let Some(p) = parent {
            self.acc.connect_tasks(p, tid, t.config.child_queue_depth);
        }

        // --- Scope block set -------------------------------------------------
        let (scope, entry, self_loop) = match kind {
            ScopeKind::Function => (BlockSet::full(n), f.entry, None),
            ScopeKind::Loop(li) => (loops[li].blocks.clone(), loops[li].header, Some(li)),
            ScopeKind::Detach(body) => (detach_region(f, body), body, None),
        };

        // --- Stage 1: extract direct child loops -----------------------------
        // Candidates: loops headquartered in this scope other than the scope
        // itself; direct ones have no candidate ancestor.
        let is_candidate = |i: usize| Some(i) != self_loop && scope.contains(loops[i].header);
        let is_direct = |i: usize| {
            let mut p = loops[i].parent;
            loop {
                match p {
                    Some(j) if Some(j) == self_loop => return true,
                    Some(j) if is_candidate(j) => return false,
                    Some(j) => p = loops[j].parent,
                    None => return true,
                }
            }
        };
        let mut excluded = BlockSet::empty(n);
        let mut loop_children = Vec::new();
        for li in (0..loops.len()).filter(|&i| is_candidate(i) && is_direct(i)) {
            let child_name = format!("{}_loop{}", name, loops[li].header.0);
            let iface = self.build_scope(fid, ScopeKind::Loop(li), child_name, Some(tid))?;
            excluded.union_with(&facts.extents[li]);
            loop_children.push(LoopChild {
                li,
                iface,
                call_pred: None,
            });
        }

        // --- Stage 1: extract detach regions directly in this scope ----------
        let mut detach_children = Vec::new();
        for b in scope.difference(&excluded).iter() {
            if let Some(Op::Detach { body, .. }) = f.terminator(b).map(|t| &t.op) {
                let region = expand_with_detach(f, detach_region(f, *body));
                let child_name = format!("{}_task{}", name, body.0);
                let iface =
                    self.build_scope(fid, ScopeKind::Detach(*body), child_name, Some(tid))?;
                excluded.union_with(&region);
                detach_children.push(DetachChild {
                    block: b,
                    iface,
                    region,
                });
            }
        }

        let t_blocks = scope.difference(&excluded);
        if !t_blocks.contains(entry) {
            return Err(ferr(format!(
                "scope entry {entry} swallowed by a child region"
            )));
        }
        // Each block's owning child loop (the first by loop index whose
        // extent holds it), and the child loop each header heads.
        let mut child_of = vec![NONE; n];
        let mut child_at = vec![NONE; n];
        for (k, c) in loop_children.iter().enumerate() {
            for b in facts.extents[c.li].iter() {
                if child_of[b.0 as usize] == NONE {
                    child_of[b.0 as usize] = k as u32;
                }
            }
            child_at[loops[c.li].header.0 as usize] = k as u32;
        }

        // --- Stage 2: lower the hyperblock ----------------------------------
        let sb = ScopeBuilder {
            fe: self,
            f,
            facts,
            tid,
            kind,
            entry,
            t_blocks,
            scope,
            loop_children,
            child_of,
            child_at,
            detach_children,
            df: Dataflow::new(),
            captures: Vec::new(),
            capture_nodes: Vec::new(),
            values: vec![Slot::Unset; f.instrs.len()],
            consts: Vec::new(),
            out_preds: vec![[None; 2]; n],
            block_preds: vec![None; n],
            junctions: Vec::new(),
            effects: Vec::new(),
            ret_value: None,
            iv_phi: None,
            acc_phis: Vec::new(),
        };
        sb.lower()
    }
}

/// Whole-function read/write object sets (including callees).
fn compute_function_footprints(m: &Module) -> Vec<(BTreeSet<MemObjId>, BTreeSet<MemObjId>)> {
    let n = m.functions.len();
    let mut fps = vec![(BTreeSet::new(), BTreeSet::new()); n];
    // Iterate to a fixpoint (handles call chains; recursion is not used).
    for _ in 0..n.max(1) {
        for (i, f) in m.functions.iter().enumerate() {
            let mut reads = BTreeSet::new();
            let mut writes = BTreeSet::new();
            for instr in &f.instrs {
                match &instr.op {
                    Op::Load { obj } => {
                        reads.insert(*obj);
                    }
                    Op::Store { obj } => {
                        writes.insert(*obj);
                    }
                    Op::Call { callee } => {
                        let (r, w) = &fps[callee.0 as usize];
                        reads.extend(r.iter().copied());
                        writes.extend(w.iter().copied());
                    }
                    _ => {}
                }
            }
            fps[i] = (reads, writes);
        }
    }
    fps
}

/// Read/write object sets of a block region (plus called functions).
fn region_footprint(
    f: &Function,
    blocks: &BlockSet,
    func_fps: &[(BTreeSet<MemObjId>, BTreeSet<MemObjId>)],
) -> Footprint {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    for b in blocks.iter() {
        for (_id, instr) in f.block_instrs(b) {
            match &instr.op {
                Op::Load { obj } => {
                    reads.insert(*obj);
                }
                Op::Store { obj } => {
                    writes.insert(*obj);
                }
                Op::Call { callee } => {
                    let (r, w) = &func_fps[callee.0 as usize];
                    reads.extend(r.iter().copied());
                    writes.extend(w.iter().copied());
                }
                _ => {}
            }
        }
    }
    Footprint::whole(&reads, &writes)
}

/// A direct child loop of a scope.
struct LoopChild {
    /// Index into the function's loop list.
    li: usize,
    iface: ChildIface,
    /// The call's predicate once emitted: every edge leaving the loop's
    /// extent carries it.
    call_pred: Option<Pred>,
}

/// A detach region spawned directly from a scope.
struct DetachChild {
    /// The block whose terminator is the `detach`.
    block: BlockId,
    iface: ChildIface,
    region: BlockSet,
}

/// An instruction's place in a scope's value table.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// Not lowered yet.
    Unset,
    /// A pure value being translated: met again, it depends on itself.
    Busy,
    /// Lowered to a node's output port.
    Node(NodeId, u16),
}

/// Per-scope lowering state.
struct ScopeBuilder<'b, 'a> {
    fe: &'b mut Frontend<'a>,
    f: &'a Function,
    facts: &'a FuncFacts,
    tid: TaskId,
    kind: ScopeKind,
    entry: BlockId,
    /// Blocks lowered inline in this task.
    t_blocks: BlockSet,
    /// Full scope (inline + child subtrees), for liveness/affine analysis.
    scope: BlockSet,
    /// Direct child loops, ascending by loop index.
    loop_children: Vec<LoopChild>,
    /// Per block: the `loop_children` entry whose extent holds it.
    child_of: Vec<u32>,
    /// Per block: the `loop_children` entry it heads.
    child_at: Vec<u32>,
    /// Direct detach children, ascending by detach block.
    detach_children: Vec<DetachChild>,
    df: Dataflow,
    captures: Vec<Capture>,
    capture_nodes: Vec<NodeId>,
    /// Per instruction of `f`.
    values: Vec<Slot>,
    consts: Vec<(ConstKey, NodeId)>,
    /// Per block: the predicate of each out-edge of its terminator, by
    /// successor position, once set.
    out_preds: Vec<[Option<Pred>; 2]>,
    /// Per block: its predicate, once computed.
    block_preds: Vec<Option<Pred>>,
    junctions: Vec<(StructureId, JunctionId)>,
    effects: Vec<(NodeId, Footprint, bool)>, // (node, footprint, is_spawn)
    ret_value: Option<ValueRef>,
    iv_phi: Option<InstrId>,
    acc_phis: Vec<InstrId>,
}

type Pred = Option<NodeId>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConstKey {
    I(i64),
    F(u32),
    B(bool),
}

/// Writes through to a `String` with `<`, `>` and `.` as `_`.
struct Underscored<'s>(&'s mut String);

impl Write for Underscored<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend(
            s.chars()
                .map(|c| if matches!(c, '<' | '>' | '.') { '_' } else { c }),
        );
        Ok(())
    }
}

impl ScopeBuilder<'_, '_> {
    fn lower(mut self) -> Result<ChildIface, FrontendError> {
        // Loop scopes: pre-register the induction variable and carried
        // accumulators before anything resolves them.
        if let ScopeKind::Loop(li) = self.kind {
            self.prepare_loop_header(li)?;
        }
        for unit in self.topo_units() {
            match unit {
                Unit::Block(b) => self.lower_block(b)?,
                Unit::Loop(k) => self.emit_loop_call(k)?,
            }
        }
        self.finish()
    }

    // --- Loop header handling -------------------------------------------

    fn prepare_loop_header(&mut self, li: usize) -> Result<(), FrontendError> {
        let f = self.f;
        let header = self.facts.loops[li].header;
        let mut phis = f
            .block(header)
            .instrs
            .iter()
            .copied()
            .filter(|&i| matches!(f.instr(i).op, Op::Phi { .. }));
        let Some(iv) = phis.next() else {
            return Err(ferr(format!("loop at {header} has no induction phi")));
        };
        self.iv_phi = Some(iv);
        let ivn = self
            .df
            .add_node(Node::new("i", NodeKind::IndVar, Type::I64));
        self.values[iv.0 as usize] = Slot::Node(ivn, 0);
        for p in phis {
            let ty = f.instr(p).ty.ok_or_else(|| ferr("untyped phi"))?;
            let m = self
                .df
                .add_node(Node::new(format!("acc_{}", p.0), NodeKind::Merge, ty));
            self.values[p.0 as usize] = Slot::Node(m, 0);
            self.acc_phis.push(p);
        }
        Ok(())
    }

    /// The φ operand arriving from outside the loop (init) and from the
    /// latch (update).
    fn phi_incoming(&self, phi: InstrId, li: usize) -> Result<(ValueRef, ValueRef), FrontendError> {
        let instr = self.f.instr(phi);
        let Op::Phi { preds } = &instr.op else {
            return Err(ferr("not a phi"));
        };
        let lp = &self.facts.loops[li];
        let mut init = None;
        let mut update = None;
        for (v, p) in instr.operands.iter().zip(preds) {
            if lp.blocks.contains(*p) {
                update = Some(*v);
            } else {
                init = Some(*v);
            }
        }
        match (init, update) {
            (Some(i), Some(u)) => Ok((i, u)),
            _ => Err(ferr(format!("phi {phi} is not a canonical loop phi"))),
        }
    }

    // --- Unit graph --------------------------------------------------------

    /// The scope's units — inline blocks, then child-loop call sites — in
    /// the order they are lowered: a topological walk from the entry.
    fn topo_units(&self) -> Vec<Unit> {
        let nblocks = self.t_blocks.len();
        let units: Vec<Unit> = self
            .t_blocks
            .iter()
            .map(Unit::Block)
            .chain((0..self.loop_children.len()).map(Unit::Loop))
            .collect();
        let mut block_unit = vec![NONE; self.f.blocks.len()];
        for (i, b) in self.t_blocks.iter().enumerate() {
            block_unit[b.0 as usize] = i as u32;
        }
        let index_of = |u: Unit| match u {
            Unit::Block(b) => block_unit[b.0 as usize] as usize,
            Unit::Loop(k) => nblocks + k,
        };

        // Unit successors as one flat list with per-unit offsets.
        let mut offsets = Vec::with_capacity(units.len() + 1);
        let mut succs = Vec::new();
        let mut targets = Vec::new();
        offsets.push(0);
        for &u in &units {
            targets.clear();
            self.unit_successors(u, &mut targets);
            succs.extend(
                targets
                    .iter()
                    .filter(|&&t| t != Unit::Block(self.entry))
                    .map(|&t| index_of(t)),
            );
            offsets.push(succs.len());
        }
        let mut indeg = vec![0usize; units.len()];
        for &s in &succs {
            indeg[s] += 1;
        }
        let entry_idx = index_of(Unit::Block(self.entry));
        let mut order = Vec::with_capacity(units.len());
        let mut work = vec![entry_idx];
        let mut seen = vec![false; units.len()];
        seen[entry_idx] = true;
        while let Some(u) = work.pop() {
            order.push(units[u]);
            for &s in &succs[offsets[u]..offsets[u + 1]] {
                indeg[s] -= 1;
                if indeg[s] == 0 && !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        order
    }

    /// The unit a branch to `t` enters, if `t` is in the unit graph.
    fn unit_at(&self, t: BlockId) -> Option<Unit> {
        if self.t_blocks.contains(t) {
            return Some(Unit::Block(t));
        }
        match self.child_at[t.0 as usize] {
            NONE => None,
            k => Some(Unit::Loop(k as usize)),
        }
    }

    /// Append `u`'s successor units to `out`: a block's in terminator
    /// order, a child loop's once each in ascending order of its extent.
    fn unit_successors(&self, u: Unit, out: &mut Vec<Unit>) {
        match u {
            Unit::Block(b) => {
                let Some(t) = self.f.terminator(b) else {
                    return;
                };
                // A detach continues at `cont` (its second successor); the
                // body is a child task.
                let succs = t.op.successors();
                let skip = usize::from(matches!(t.op, Op::Detach { .. }));
                out.extend(succs[skip..].iter().filter_map(|&t| self.unit_at(t)));
            }
            Unit::Loop(k) => {
                let extent = &self.facts.extents[self.loop_children[k].li];
                for b in extent.iter() {
                    for s in self.f.successors(b) {
                        if !extent.contains(s) {
                            if let Some(u) = self.unit_at(s) {
                                if !out.contains(&u) {
                                    out.push(u);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // --- Predicates ---------------------------------------------------------

    /// The predicate set for edge `(src, b)`, or `None` while unset. An
    /// inline block's out-edges are set when it is lowered; a child loop
    /// header stands for every edge leaving the loop's extent, set when
    /// the loop's call is emitted.
    fn edge_pred(&self, src: BlockId, b: BlockId) -> Option<Pred> {
        if self.t_blocks.contains(src) {
            let i = self.f.successors(src).iter().position(|&s| s == b)?;
            return self.out_preds[src.0 as usize][i];
        }
        let k = *self.child_at.get(src.0 as usize)?;
        let c = self.loop_children.get(k as usize)?;
        if self.facts.extents[c.li].contains(b) {
            None
        } else {
            c.call_pred
        }
    }

    /// Set the predicate of `b`'s out-edges to `s`.
    fn set_edge_pred(&mut self, b: BlockId, s: BlockId, pred: Pred) {
        for (i, &t) in self.f.successors(b).iter().enumerate() {
            if t == s {
                self.out_preds[b.0 as usize][i] = Some(pred);
            }
        }
    }

    /// The predicate an edge from `p` into `b` contributes: `p`'s own edge
    /// for an inline block, its child loop's call for a block inside one,
    /// nothing (`None`) from anywhere else or while unset.
    fn incoming_pred(&self, p: BlockId, b: BlockId) -> Option<Pred> {
        if self.t_blocks.contains(p) {
            return self.edge_pred(p, b);
        }
        match self.child_of[p.0 as usize] {
            NONE => None,
            k => {
                let header = self.facts.loops[self.loop_children[k as usize].li].header;
                self.edge_pred(header, b)
            }
        }
    }

    fn block_pred(&mut self, b: BlockId) -> Pred {
        if b == self.entry {
            return None;
        }
        if let Some(p) = self.block_preds[b.0 as usize] {
            return p;
        }
        let preds = self.facts.preds.of(b);
        // No incoming edges, or any edge with an unknown predicate, means
        // the block's own predicate is unknown.
        let contributions = preds.iter().filter_map(|&p| self.incoming_pred(p, b));
        let (mut known, mut unknown) = (0, false);
        for c in contributions {
            known += 1;
            unknown |= c.is_none();
        }
        let result = if known == 0 || unknown {
            None
        } else {
            // OR-fold the predicate nodes, in predecessor order.
            let mut folded: Option<NodeId> = None;
            for &p in preds {
                if let Some(Some(n)) = self.incoming_pred(p, b) {
                    folded = Some(match folded {
                        None => n,
                        Some(acc) => self.emit_bool_bin(BinOp::Or, acc, n),
                    });
                }
            }
            folded
        };
        self.block_preds[b.0 as usize] = Some(result);
        result
    }

    fn emit_bool_bin(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        let n = self.df.add_node(Node::new(
            format!("p_{}", op.mnemonic()),
            NodeKind::Compute(OpKind::Bin(op)),
            Type::BOOL,
        ));
        self.df.connect(a, 0, n, 0);
        self.df.connect(b, 0, n, 1);
        n
    }

    fn and_pred(&mut self, a: Pred, b: NodeId) -> NodeId {
        match a {
            None => b,
            Some(an) => self.emit_bool_bin(BinOp::And, an, b),
        }
    }

    fn not_node(&mut self, c: NodeId) -> NodeId {
        let t = self.const_node(ConstVal::Bool(true));
        self.emit_bool_bin(BinOp::Xor, c, t)
    }

    // --- Value resolution ----------------------------------------------------

    fn const_node(&mut self, c: ConstVal) -> NodeId {
        let key = match c {
            ConstVal::Int(i) => ConstKey::I(i),
            ConstVal::F32(f) => ConstKey::F(f.to_bits()),
            ConstVal::Bool(b) => ConstKey::B(b),
        };
        if let Some(&(_, n)) = self.consts.iter().find(|(k, _)| *k == key) {
            return n;
        }
        let ty = match c {
            ConstVal::Int(_) => Type::I64,
            ConstVal::F32(_) => Type::F32,
            ConstVal::Bool(_) => Type::BOOL,
        };
        let n = self
            .df
            .add_node(Node::new(format!("c_{c}"), NodeKind::Const(c), ty));
        self.consts.push((key, n));
        n
    }

    fn capture(&mut self, c: Capture) -> NodeId {
        if let Some(pos) = self.captures.iter().position(|&x| x == c) {
            return self.capture_nodes[pos];
        }
        let (ty, label) = match c {
            Capture::Val(d) => (
                self.f.instr(d).ty.unwrap_or(Type::I64),
                format!("in_v{}", d.0),
            ),
            Capture::Arg(n) => (self.f.params[n as usize], format!("in_arg{n}")),
        };
        let idx = self.captures.len() as u32;
        let node = self
            .df
            .add_node(Node::new(label, NodeKind::Input { index: idx }, ty));
        self.captures.push(c);
        self.capture_nodes.push(node);
        node
    }

    /// The capture argument index of `c`, capturing it first if needed.
    fn capture_index(&mut self, c: Capture) -> u32 {
        let node = self.capture(c);
        self.capture_nodes
            .iter()
            .position(|&x| x == node)
            .expect("capture exists") as u32
    }

    fn resolve(&mut self, v: ValueRef) -> Result<(NodeId, u16), FrontendError> {
        match v {
            ValueRef::Const(c) => Ok((self.const_node(c), 0)),
            ValueRef::Arg(n) => Ok((self.capture(Capture::Arg(n)), 0)),
            ValueRef::Instr(d) => {
                match self.values[d.0 as usize] {
                    Slot::Node(n, p) => return Ok((n, p)),
                    Slot::Busy => return Err(ferr(format!("value {d} depends on itself"))),
                    Slot::Unset => {}
                }
                let instr = self.f.instr(d);
                let in_t = self.t_blocks.contains(instr.block);
                if in_t && is_pure(&instr.op) {
                    return self.translate_pure(d);
                }
                if self.scope.contains(instr.block) {
                    return Err(ferr(format!(
                        "use of {d} ({}) from an unlowered child region — missing live-out?",
                        instr.op.mnemonic()
                    )));
                }
                Ok((self.capture(Capture::Val(d)), 0))
            }
        }
    }

    fn translate_pure(&mut self, d: InstrId) -> Result<(NodeId, u16), FrontendError> {
        self.values[d.0 as usize] = Slot::Busy;
        let instr = self.f.instr(d);
        let node = match &instr.op {
            Op::Bin(b) => self.emit_compute(d, OpKind::Bin(*b), instr)?,
            Op::Un(u) => self.emit_compute(d, OpKind::Un(*u), instr)?,
            Op::Cmp(p) => self.emit_compute(d, OpKind::Cmp(*p), instr)?,
            Op::Select => self.emit_compute(d, OpKind::Select, instr)?,
            Op::Cast(c) => self.emit_compute(d, OpKind::Cast(*c), instr)?,
            Op::Tensor(t, s) => self.emit_compute(d, OpKind::Tensor(*t, *s), instr)?,
            Op::Phi { preds } => self.translate_phi(d, instr, preds)?,
            other => {
                return Err(ferr(format!(
                    "internal: lazy translation of non-pure op {}",
                    other.mnemonic()
                )))
            }
        };
        self.values[d.0 as usize] = Slot::Node(node, 0);
        Ok((node, 0))
    }

    fn emit_compute(
        &mut self,
        d: InstrId,
        op: OpKind,
        instr: &Instr,
    ) -> Result<NodeId, FrontendError> {
        let ty = instr.ty.ok_or_else(|| ferr("untyped compute op"))?;
        // `{mnemonic with <>. as _}_{id}`, written into one buffer.
        let mut name = String::with_capacity(32);
        let _ = write!(Underscored(&mut name), "{op}");
        let _ = write!(name, "_{}", d.0);
        let n = self.df.add_node(Node::new(name, NodeKind::Compute(op), ty));
        for (i, v) in instr.operands.iter().enumerate() {
            let (src, port) = self.resolve(*v)?;
            self.df.connect(src, port, n, i as u16);
        }
        Ok(n)
    }

    /// Forward-CFG φ → select chain over the incoming edge predicates.
    fn translate_phi(
        &mut self,
        d: InstrId,
        instr: &Instr,
        preds: &[BlockId],
    ) -> Result<NodeId, FrontendError> {
        let ty = instr.ty.ok_or_else(|| ferr("untyped phi"))?;
        let b = instr.block;
        let incoming = |p: BlockId| self.edge_pred(p, b).unwrap_or(None);
        // Start from an always-true incoming if one exists, otherwise the
        // first; select the others in on their predicates.
        let default_idx = preds
            .iter()
            .position(|&p| incoming(p).is_none())
            .unwrap_or(0);
        let dv = *instr
            .operands
            .get(default_idx)
            .ok_or_else(|| ferr(format!("phi {d} has no incoming value")))?;
        let (mut acc, mut accp) = self.resolve(dv)?;
        for (i, (v, &p)) in instr.operands.iter().zip(preds).enumerate() {
            if i == default_idx {
                continue;
            }
            let Some(pn) = self.edge_pred(p, b).unwrap_or(None) else {
                // Two always-true incomings: CFG would be ill-formed; take
                // the default.
                continue;
            };
            let (vn, vp) = self.resolve(*v)?;
            let sel = self.df.add_node(Node::new(
                format!("phi_{}", d.0),
                NodeKind::Compute(OpKind::Select),
                ty,
            ));
            self.df.connect(pn, 0, sel, 0);
            self.df.connect(vn, vp, sel, 1);
            self.df.connect(acc, accp, sel, 2);
            acc = sel;
            accp = 0;
        }
        Ok(acc)
    }

    // --- Effectful lowering ---------------------------------------------------

    fn junction_for(&mut self, obj: MemObjId) -> JunctionId {
        let sid = self.fe.t.placement[obj.0 as usize];
        if let Some(&(_, j)) = self.junctions.iter().find(|(s, _)| *s == sid) {
            return j;
        }
        let j = self.df.add_junction(Junction::new(sid, 2, 1));
        self.junctions.push((sid, j));
        self.fe.acc.connect_mem(self.tid, j, sid);
        j
    }

    fn addr_affine(&self, addr: ValueRef) -> Option<Affine> {
        let iv = self.iv_phi.unwrap_or(InstrId(u32::MAX));
        match analysis::affine_of(self.f, addr, iv, &self.scope) {
            Affine::Opaque => None,
            a => Some(a),
        }
    }

    fn add_order_edges(&mut self, node: NodeId, fp: Footprint, is_spawn: bool) {
        for (prior, pfp, pspawn) in &self.effects {
            if *pspawn && is_spawn {
                continue; // Cilk spawns are unordered among themselves.
            }
            if conflicts(pfp, &fp) {
                self.df.connect_order(*prior, node);
            }
        }
        self.effects.push((node, fp, is_spawn));
    }

    /// Connect a child task's call node: each capture resolved in this
    /// scope, then the predicate, and map the child's results to the
    /// node's output ports.
    fn connect_child_call(
        &mut self,
        n: NodeId,
        iface: &ChildIface,
        pred: Pred,
    ) -> Result<(), FrontendError> {
        for (i, c) in iface.captures.iter().enumerate() {
            let v = match c {
                Capture::Val(d) => ValueRef::Instr(*d),
                Capture::Arg(a) => ValueRef::Arg(*a),
            };
            let (src, sp) = self.resolve(v)?;
            self.df.connect(src, sp, n, i as u16);
        }
        if let Some(pn) = pred {
            self.df.connect(pn, 0, n, iface.captures.len() as u16);
        }
        for (k, r) in iface.results.iter().enumerate() {
            self.values[r.0 as usize] = Slot::Node(n, k as u16);
        }
        Ok(())
    }

    fn lower_block(&mut self, b: BlockId) -> Result<(), FrontendError> {
        let pred = self.block_pred(b);
        let f = self.f;
        for &iid in &f.block(b).instrs {
            if self.values[iid.0 as usize] != Slot::Unset {
                continue; // pre-registered loop header φ
            }
            let instr = f.instr(iid);
            match &instr.op {
                Op::Load { obj } => {
                    let ty = instr.ty.ok_or_else(|| ferr("untyped load"))?;
                    let j = self.junction_for(*obj);
                    let predicated = pred.is_some();
                    let n = self.df.add_node(Node::new(
                        format!("ld_{}", iid.0),
                        NodeKind::Load {
                            obj: *obj,
                            junction: j,
                            predicated,
                        },
                        ty,
                    ));
                    let (a, ap) = self.resolve(instr.operands[0])?;
                    self.df.connect(a, ap, n, 0);
                    if let Some(pn) = pred {
                        self.df.connect(pn, 0, n, 1);
                    }
                    self.df.register_reader(j, n);
                    self.values[iid.0 as usize] = Slot::Node(n, 0);
                    let fp = Footprint {
                        reads: vec![(*obj, self.addr_affine(instr.operands[0]))],
                        writes: vec![],
                    };
                    self.add_order_edges(n, fp, false);
                }
                Op::Store { obj } => {
                    let vty = self
                        .value_type(instr.operands[1])
                        .unwrap_or(Type::Scalar(ScalarType::F32));
                    let j = self.junction_for(*obj);
                    let predicated = pred.is_some();
                    let n = self.df.add_node(Node::new(
                        format!("st_{}", iid.0),
                        NodeKind::Store {
                            obj: *obj,
                            junction: j,
                            predicated,
                        },
                        vty,
                    ));
                    let (a, ap) = self.resolve(instr.operands[0])?;
                    let (v, vp) = self.resolve(instr.operands[1])?;
                    self.df.connect(a, ap, n, 0);
                    self.df.connect(v, vp, n, 1);
                    if let Some(pn) = pred {
                        self.df.connect(pn, 0, n, 2);
                    }
                    self.df.register_writer(j, n);
                    let fp = Footprint {
                        reads: vec![],
                        writes: vec![(*obj, self.addr_affine(instr.operands[0]))],
                    };
                    self.add_order_edges(n, fp, false);
                }
                Op::Call { callee } => {
                    // Function call: build a dedicated child task per call
                    // site (each call site is a hardware instance).
                    let t = self.fe.t;
                    let fname = &t.module.function(*callee).name;
                    let iface = self.fe.build_scope(
                        *callee,
                        ScopeKind::Function,
                        format!("{fname}_{}", iid.0),
                        Some(self.tid),
                    )?;
                    let callee_task = iface.task;
                    let predicated = pred.is_some();
                    let n = self.df.add_node(Node::new(
                        format!("call_{fname}"),
                        NodeKind::TaskCall {
                            callee: callee_task,
                            predicated,
                            spawn: false,
                        },
                        instr.ty.unwrap_or(Type::BOOL),
                    ));
                    for (i, v) in instr.operands.iter().enumerate() {
                        let (src, sp) = self.resolve(*v)?;
                        self.df.connect(src, sp, n, i as u16);
                    }
                    if let Some(pn) = pred {
                        self.df.connect(pn, 0, n, instr.operands.len() as u16);
                    }
                    if instr.ty.is_some() {
                        self.values[iid.0 as usize] = Slot::Node(n, 0);
                    }
                    let (r, w) = &t.func_fps[callee.0 as usize];
                    self.add_order_edges(n, Footprint::whole(r, w), false);
                }
                Op::Br { target } => {
                    self.set_edge_pred(b, *target, pred);
                }
                Op::CondBr { t, f: fb } => {
                    // Loop-scope header check: the in-scope direction is
                    // unconditional (the sequencer admits only valid
                    // iterations).
                    let is_header_check =
                        matches!(self.kind, ScopeKind::Loop(_)) && b == self.entry;
                    if is_header_check {
                        let in_scope = if self.unit_at(*t).is_some() { *t } else { *fb };
                        self.set_edge_pred(b, in_scope, pred);
                    } else {
                        let (c, cp) = self.resolve(instr.operands[0])?;
                        debug_assert_eq!(cp, 0);
                        let tp = self.and_pred(pred, c);
                        let nc = self.not_node(c);
                        let fp_ = self.and_pred(pred, nc);
                        self.set_edge_pred(b, *t, Some(tp));
                        self.set_edge_pred(b, *fb, Some(fp_));
                    }
                }
                Op::Detach { cont, .. } => {
                    let di = self
                        .detach_children
                        .binary_search_by_key(&b, |c| c.block)
                        .map_err(|_| ferr(format!("detach at {b} has no child task")))?;
                    let iface = self.detach_children[di].iface.take();
                    let predicated = pred.is_some();
                    let n = self.df.add_node(Node::new(
                        format!("spawn_{}", b.0),
                        NodeKind::TaskCall {
                            callee: iface.task,
                            predicated,
                            spawn: true,
                        },
                        Type::I64,
                    ));
                    self.connect_child_call(n, &iface, pred)?;
                    let fp = region_footprint(
                        self.f,
                        &self.detach_children[di].region,
                        &self.fe.t.func_fps,
                    );
                    self.add_order_edges(n, fp, true);
                    self.set_edge_pred(b, *cont, pred);
                }
                Op::Reattach { .. } => {}
                Op::Sync { cont } => {
                    self.set_edge_pred(b, *cont, pred);
                }
                Op::Ret => {
                    if pred.is_some() {
                        return Err(ferr("predicated return is not supported"));
                    }
                    if self.ret_value.is_some() && !instr.operands.is_empty() {
                        return Err(ferr("multiple returns in one region"));
                    }
                    self.ret_value = instr.operands.first().copied();
                }
                // Pure ops translate lazily on first use.
                _ => {}
            }
        }
        Ok(())
    }

    fn value_type(&self, v: ValueRef) -> Option<Type> {
        match v {
            ValueRef::Instr(d) => self.f.instr(d).ty,
            ValueRef::Arg(n) => self.f.params.get(n as usize).copied(),
            ValueRef::Const(ConstVal::Int(_)) => Some(Type::I64),
            ValueRef::Const(ConstVal::F32(_)) => Some(Type::F32),
            ValueRef::Const(ConstVal::Bool(_)) => Some(Type::BOOL),
        }
    }

    fn emit_loop_call(&mut self, k: usize) -> Result<(), FrontendError> {
        let li = self.loop_children[k].li;
        let header = self.facts.loops[li].header;
        let pred = self.block_pred(header);
        let iface = self.loop_children[k].iface.take();
        let n = self.df.add_node(Node::new(
            format!("loop_call_{}", header.0),
            NodeKind::TaskCall {
                callee: iface.task,
                predicated: pred.is_some(),
                spawn: false,
            },
            Type::I64,
        ));
        self.connect_child_call(n, &iface, pred)?;
        // Successor blocks of the loop inherit the call predicate.
        self.loop_children[k].call_pred = Some(pred);
        let fp = region_footprint(self.f, &self.facts.extents[li], &self.fe.t.func_fps);
        self.add_order_edges(n, fp, false);
        Ok(())
    }

    // --- Finalization -----------------------------------------------------

    fn finish(mut self) -> Result<ChildIface, FrontendError> {
        let (results, kind, inits) = match self.kind {
            ScopeKind::Loop(li) => {
                let results = live_outs(&self.facts.uses, &self.facts.extents[li]);
                // Wire Output: the per-iteration value of each result.
                let out_ty = results
                    .first()
                    .and_then(|r| self.f.instr(*r).ty)
                    .unwrap_or(Type::BOOL);
                let out = self.df.add_node(Node::new("out", NodeKind::Output, out_ty));
                let mut inits: Vec<Option<ResultInit>> = Vec::with_capacity(results.len());
                for (k, r) in results.iter().enumerate() {
                    let (src, sp) = if self.acc_phis.contains(r) {
                        let (_, update) = self.phi_incoming(*r, li)?;
                        self.resolve(update)?
                    } else {
                        self.resolve(ValueRef::Instr(*r))?
                    };
                    self.df.connect(src, sp, out, k as u16);
                    // Zero-trip fallback.
                    if self.acc_phis.contains(r) {
                        let (init, _) = self.phi_incoming(*r, li)?;
                        inits.push(Some(match init {
                            ValueRef::Const(c) => ResultInit::Const(c),
                            ValueRef::Instr(d) => {
                                ResultInit::Arg(self.capture_index(Capture::Val(d)))
                            }
                            ValueRef::Arg(a) => {
                                ResultInit::Arg(self.capture_index(Capture::Arg(a)))
                            }
                        }));
                    } else {
                        inits.push(None);
                    }
                }
                // Patch feedback edges for carried accumulators.
                for i in 0..self.acc_phis.len() {
                    let p = self.acc_phis[i];
                    let (init, update) = self.phi_incoming(p, li)?;
                    let Slot::Node(merge, _) = self.values[p.0 as usize] else {
                        return Err(ferr(format!("accumulator {p} was never registered")));
                    };
                    let (in_, ip) = self.resolve(init)?;
                    self.df.connect(in_, ip, merge, 0);
                    let (up, upp) = self.resolve(update)?;
                    self.df.connect_feedback(up, upp, merge);
                }
                // Canonical loop bounds.
                let spec = self.extract_loop_spec(li)?;
                let dep = loop_dependence_in(self.fe.t.module, self.f, &self.facts.loops[li]);
                (
                    results,
                    TaskKind::Loop {
                        spec,
                        serial: !dep.parallel,
                    },
                    inits,
                )
            }
            ScopeKind::Function | ScopeKind::Detach(_) => {
                let mut results = Vec::new();
                let out_ty = self
                    .ret_value
                    .and_then(|v| self.value_type(v))
                    .unwrap_or(Type::BOOL);
                let out = self.df.add_node(Node::new("out", NodeKind::Output, out_ty));
                if let Some(rv) = self.ret_value {
                    let (src, sp) = self.resolve(rv)?;
                    self.df.connect(src, sp, out, 0);
                    if let ValueRef::Instr(d) = rv {
                        results.push(d);
                    } else {
                        // Constant/arg return: still one result port. Use a
                        // sentinel id that no parent will look up.
                        results.push(InstrId(u32::MAX));
                    }
                }
                (
                    results,
                    TaskKind::Region,
                    vec![None; usize::from(self.ret_value.is_some())],
                )
            }
        };

        let num_results = match &kind {
            TaskKind::Region => u32::from(self.ret_value.is_some()),
            TaskKind::Loop { .. } => results.len() as u32,
        };
        let slot = &mut self.fe.acc.tasks[self.tid.0 as usize];
        let mut task = TaskBlock::new(std::mem::take(&mut slot.name), kind);
        task.dataflow = self.df;
        task.num_args = self.captures.len() as u32;
        task.num_results = num_results;
        task.loop_result_inits = inits;
        *slot = task;
        Ok(ChildIface {
            task: self.tid,
            captures: self.captures,
            results,
        })
    }

    fn extract_loop_spec(&mut self, li: usize) -> Result<LoopSpec, FrontendError> {
        let iv = self
            .iv_phi
            .ok_or_else(|| ferr("loop without induction variable"))?;
        let (lo_v, update) = self.phi_incoming(iv, li)?;
        // Step from `i_next = add(i, const)`.
        let step = match update {
            ValueRef::Instr(d) => {
                let instr = self.f.instr(d);
                match (&instr.op, instr.operands.as_slice()) {
                    (Op::Bin(BinOp::Add), [a, b]) => {
                        let k = match (a, b) {
                            (ValueRef::Instr(x), ValueRef::Const(ConstVal::Int(k))) if *x == iv => {
                                Some(*k)
                            }
                            (ValueRef::Const(ConstVal::Int(k)), ValueRef::Instr(x)) if *x == iv => {
                                Some(*k)
                            }
                            _ => None,
                        };
                        k.ok_or_else(|| ferr("non-canonical loop increment"))?
                    }
                    _ => return Err(ferr("non-canonical loop increment")),
                }
            }
            _ => return Err(ferr("non-canonical loop increment")),
        };
        if step <= 0 {
            return Err(ferr("loop step must be positive"));
        }
        // Bound from the header's `icmp lt iv, hi` condbr.
        let header = self.facts.loops[li].header;
        let term = self
            .f
            .terminator(header)
            .ok_or_else(|| ferr("loop header lacks terminator"))?;
        let Op::CondBr { .. } = term.op else {
            return Err(ferr("loop header terminator is not a condbr"));
        };
        let cond = term.operands[0];
        let hi_v = match cond {
            ValueRef::Instr(c) => {
                let ci = self.f.instr(c);
                match (&ci.op, ci.operands.as_slice()) {
                    (Op::Cmp(CmpPred::Lt), [a, b]) if *a == ValueRef::Instr(iv) => *b,
                    _ => return Err(ferr("loop bound is not `icmp lt iv, hi`")),
                }
            }
            _ => return Err(ferr("loop condition is not an instruction")),
        };
        let lo = self.arg_expr(lo_v)?;
        let hi = self.arg_expr(hi_v)?;
        Ok(LoopSpec { lo, hi, step })
    }

    fn arg_expr(&mut self, v: ValueRef) -> Result<ArgExpr, FrontendError> {
        match v {
            ValueRef::Const(ConstVal::Int(k)) => Ok(ArgExpr::Const(k)),
            ValueRef::Const(_) => Err(ferr("non-integer loop bound")),
            ValueRef::Instr(d) => Ok(ArgExpr::Arg(self.capture_index(Capture::Val(d)))),
            ValueRef::Arg(a) => Ok(ArgExpr::Arg(self.capture_index(Capture::Arg(a)))),
        }
    }
}

fn is_pure(op: &Op) -> bool {
    matches!(
        op,
        Op::Bin(_)
            | Op::Un(_)
            | Op::Cmp(_)
            | Op::Select
            | Op::Cast(_)
            | Op::Phi { .. }
            | Op::Tensor(..)
    )
}

/// A topological-ordering unit: an inline block or a child-loop call site
/// (an index into the scope's `loop_children`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    Block(BlockId),
    Loop(usize),
}
