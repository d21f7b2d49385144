//! The scope-recursive translator from `mir` to the μIR graph.
//!
//! Stage 1 (Algorithm 1) and Stage 2 are fused into one recursive walk:
//! `build_scope` extracts child tasks (loops, detach regions, calls) first,
//! then lowers the remaining forward-CFG hyperblock to predicated dataflow.

use crate::{FrontendConfig, FrontendError};
use muir_core::accel::{Accelerator, ArgExpr, LoopSpec, ResultInit, TaskBlock, TaskId, TaskKind};
use muir_core::dataflow::{Dataflow, Junction, JunctionId, NodeId};
use muir_core::node::{Node, NodeKind, OpKind};
use muir_core::structure::{Structure, StructureId};
use muir_mir::analysis::{
    self, detach_region, expand_with_detach, loop_dependence_in, natural_loops, region_values,
    Affine, NaturalLoop,
};
use muir_mir::instr::{BlockId, CmpPred, ConstVal, FuncId, InstrId, MemObjId, Op, ValueRef};
use muir_mir::module::{Function, Module};
use muir_mir::types::{ScalarType, Type};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

fn ferr(msg: impl Into<String>) -> FrontendError {
    FrontendError {
        message: msg.into(),
    }
}

/// A value captured from the enclosing scope (a task-closure argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Capture {
    /// An instruction result of the enclosing function.
    Val(InstrId),
    /// A function argument of the enclosing function.
    Arg(u32),
}

/// The call interface of a built child task.
#[derive(Debug, Clone)]
struct ChildIface {
    task: TaskId,
    /// Parent-scope values to pass, in argument order (loop/detach tasks).
    captures: Vec<Capture>,
    /// Live-out instruction ids, in result-port order.
    results: Vec<InstrId>,
}

/// What kind of scope is being built.
#[derive(Debug, Clone)]
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

/// Translation driver.
pub(crate) struct Frontend<'m> {
    module: &'m Module,
    config: &'m FrontendConfig,
    acc: Accelerator,
    /// Structure homing each memory object.
    placement: Vec<StructureId>,
    /// Natural loops per function.
    loops: Vec<Rc<Vec<NaturalLoop>>>,
    /// CFG predecessor map per function, computed once: every block of
    /// every scope consults it for its predicate.
    preds: Vec<Rc<Vec<Vec<BlockId>>>>,
    /// Whole-function memory footprints (reads, writes).
    func_fps: Vec<(BTreeSet<MemObjId>, BTreeSet<MemObjId>)>,
}

impl<'m> Frontend<'m> {
    pub(crate) fn new(
        module: &'m Module,
        config: &'m FrontendConfig,
    ) -> Result<Frontend<'m>, FrontendError> {
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

        let loops = module
            .functions
            .iter()
            .map(|f| Rc::new(natural_loops(f)))
            .collect::<Vec<_>>();
        let preds = module
            .functions
            .iter()
            .map(|f| Rc::new(f.predecessors()))
            .collect();
        let func_fps = compute_function_footprints(module);
        Ok(Frontend {
            module,
            config,
            acc,
            placement,
            loops,
            preds,
            func_fps,
        })
    }

    pub(crate) fn run(mut self) -> Result<Accelerator, FrontendError> {
        let iface = self.build_scope(FuncId(0), ScopeKind::Function, "main".to_string(), None)?;
        self.acc.root = iface.task;
        muir_core::verify::verify_accelerator(&self.acc).map_err(|e| ferr(e.to_string()))?;
        Ok(self.acc)
    }

    /// Build one task from a scope of `fid`'s CFG; returns its interface.
    fn build_scope(
        &mut self,
        fid: FuncId,
        kind: ScopeKind,
        name: String,
        parent: Option<TaskId>,
    ) -> Result<ChildIface, FrontendError> {
        let module = self.module;
        let f = module.function(fid);
        let loops = Rc::clone(&self.loops[fid.0 as usize]);
        let preds = Rc::clone(&self.preds[fid.0 as usize]);

        // Reserve the task id so children can connect to it.
        let tid = self
            .acc
            .add_task(TaskBlock::new(name.clone(), TaskKind::Region));
        if let Some(p) = parent {
            self.acc
                .connect_tasks(p, tid, self.config.child_queue_depth);
        }

        // --- Scope block set -------------------------------------------------
        let scope_blocks: BTreeSet<BlockId> = match &kind {
            ScopeKind::Function => f.block_ids().collect(),
            ScopeKind::Loop(li) => loops[*li].blocks.clone(),
            ScopeKind::Detach(body) => detach_region(f, *body),
        };
        let entry = match &kind {
            ScopeKind::Function => f.entry,
            ScopeKind::Loop(li) => loops[*li].header,
            ScopeKind::Detach(body) => *body,
        };
        let self_loop = match &kind {
            ScopeKind::Loop(li) => Some(*li),
            _ => None,
        };

        // --- Stage 1: extract direct child loops -----------------------------
        // Candidates: loops headquartered in this scope other than the scope
        // itself; direct ones have no candidate ancestor.
        let candidates: Vec<usize> = (0..loops.len())
            .filter(|&i| Some(i) != self_loop && scope_blocks.contains(&loops[i].header))
            .collect();
        let is_candidate = |i: usize| candidates.contains(&i);
        let direct_loops: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| {
                let mut p = loops[i].parent;
                loop {
                    match p {
                        Some(j) if Some(j) == self_loop => return true,
                        Some(j) if is_candidate(j) => return false,
                        Some(j) => p = loops[j].parent,
                        None => return true,
                    }
                }
            })
            .collect();

        let mut excluded: BTreeSet<BlockId> = BTreeSet::new();
        let mut loop_children: HashMap<usize, (ChildIface, BTreeSet<BlockId>)> = HashMap::new();
        for &li in &direct_loops {
            let subtree = expand_with_detach(f, loops[li].blocks.clone());
            let child_name = format!("{}_loop{}", name, loops[li].header.0);
            let iface = self.build_scope(fid, ScopeKind::Loop(li), child_name, Some(tid))?;
            excluded.extend(subtree.iter().copied());
            loop_children.insert(li, (iface, subtree));
        }

        // --- Stage 1: extract detach regions directly in this scope ----------
        let mut detach_children: HashMap<BlockId, (ChildIface, BTreeSet<BlockId>)> = HashMap::new();
        let t_candidate: Vec<BlockId> = scope_blocks
            .iter()
            .copied()
            .filter(|b| !excluded.contains(b))
            .collect();
        for &b in &t_candidate {
            if let Some(t) = f.terminator(b) {
                if let Op::Detach { body, .. } = t.op {
                    let region = expand_with_detach(f, detach_region(f, body));
                    let child_name = format!("{}_task{}", name, body.0);
                    let iface =
                        self.build_scope(fid, ScopeKind::Detach(body), child_name, Some(tid))?;
                    excluded.extend(region.iter().copied());
                    detach_children.insert(b, (iface, region));
                }
            }
        }

        let t_blocks: BTreeSet<BlockId> = scope_blocks
            .iter()
            .copied()
            .filter(|b| !excluded.contains(b))
            .collect();
        if !t_blocks.contains(&entry) {
            return Err(ferr(format!(
                "scope entry {entry} swallowed by a child region"
            )));
        }

        // --- Stage 2: lower the hyperblock ----------------------------------
        let sb = ScopeBuilder {
            fe: self,
            f,
            tid,
            kind: kind.clone(),
            loops: Rc::clone(&loops),
            preds,
            entry,
            t_blocks,
            scope_blocks: scope_blocks.clone(),
            loop_children,
            detach_children,
            df: Dataflow::new(),
            captures: Vec::new(),
            capture_nodes: Vec::new(),
            value_map: HashMap::new(),
            const_map: HashMap::new(),
            edge_pred: HashMap::new(),
            block_pred_cache: HashMap::new(),
            junction_map: BTreeMap::new(),
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
                        let (r, w) = fps[callee.0 as usize].clone();
                        reads.extend(r);
                        writes.extend(w);
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
    blocks: &BTreeSet<BlockId>,
    func_fps: &[(BTreeSet<MemObjId>, BTreeSet<MemObjId>)],
) -> (BTreeSet<MemObjId>, BTreeSet<MemObjId>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    for &b in blocks {
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
    (reads, writes)
}

/// Per-scope lowering state.
struct ScopeBuilder<'a, 'm> {
    fe: &'a mut Frontend<'m>,
    f: &'m Function,
    tid: TaskId,
    kind: ScopeKind,
    loops: Rc<Vec<NaturalLoop>>,
    preds: Rc<Vec<Vec<BlockId>>>,
    entry: BlockId,
    /// Blocks lowered inline in this task.
    t_blocks: BTreeSet<BlockId>,
    /// Full scope (inline + child subtrees), for liveness/affine analysis.
    scope_blocks: BTreeSet<BlockId>,
    loop_children: HashMap<usize, (ChildIface, BTreeSet<BlockId>)>,
    detach_children: HashMap<BlockId, (ChildIface, BTreeSet<BlockId>)>,
    df: Dataflow,
    captures: Vec<Capture>,
    capture_nodes: Vec<NodeId>,
    value_map: HashMap<InstrId, (NodeId, u16)>,
    const_map: HashMap<ConstKey, NodeId>,
    edge_pred: HashMap<(BlockId, BlockId), Pred>,
    block_pred_cache: HashMap<BlockId, Pred>,
    junction_map: BTreeMap<StructureId, JunctionId>,
    effects: Vec<(NodeId, Footprint, bool)>, // (node, footprint, is_spawn)
    ret_value: Option<ValueRef>,
    iv_phi: Option<InstrId>,
    acc_phis: Vec<InstrId>,
}

type Pred = Option<NodeId>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    I(i64),
    F(u32),
    B(bool),
}

impl ScopeBuilder<'_, '_> {
    fn lower(mut self) -> Result<ChildIface, FrontendError> {
        // Loop scopes: pre-register the induction variable and carried
        // accumulators before anything resolves them.
        if let ScopeKind::Loop(li) = self.kind.clone() {
            self.prepare_loop_header(li)?;
        }
        let order = self.topo_units()?;
        for unit in order {
            match unit {
                Unit::Block(b) => self.lower_block(b)?,
                Unit::Loop(li) => self.emit_loop_call(li)?,
            }
        }
        self.finish()
    }

    // --- Loop header handling -------------------------------------------

    fn prepare_loop_header(&mut self, li: usize) -> Result<(), FrontendError> {
        let header = self.loops[li].header;
        let phis: Vec<InstrId> = self
            .f
            .block(header)
            .instrs
            .iter()
            .copied()
            .filter(|&i| matches!(self.f.instr(i).op, Op::Phi { .. }))
            .collect();
        let Some(&iv) = phis.first() else {
            return Err(ferr(format!("loop at {header} has no induction phi")));
        };
        self.iv_phi = Some(iv);
        let ivn = self
            .df
            .add_node(Node::new("i", NodeKind::IndVar, Type::I64));
        self.value_map.insert(iv, (ivn, 0));
        for &p in &phis[1..] {
            let ty = self.f.instr(p).ty.ok_or_else(|| ferr("untyped phi"))?;
            let m = self
                .df
                .add_node(Node::new(format!("acc_{}", p.0), NodeKind::Merge, ty));
            self.value_map.insert(p, (m, 0));
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
        let lp = &self.loops[li];
        let mut init = None;
        let mut update = None;
        for (v, p) in instr.operands.iter().zip(preds) {
            if lp.blocks.contains(p) {
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

    fn topo_units(&self) -> Result<Vec<Unit>, FrontendError> {
        // Unit ids: blocks then child loops.
        let mut units: Vec<Unit> = self.t_blocks.iter().map(|&b| Unit::Block(b)).collect();
        let loop_indices: Vec<usize> = self.loop_children.keys().copied().collect();
        units.extend(loop_indices.iter().map(|&li| Unit::Loop(li)));
        let index_of = |u: &Unit| units.iter().position(|x| x == u).expect("unit exists");

        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
        for (ui, u) in units.iter().enumerate() {
            for t in self.unit_successors(u) {
                if t != Unit::Block(self.entry) {
                    succs[ui].push(index_of(&t));
                }
            }
        }
        let mut indeg = vec![0usize; units.len()];
        for ss in &succs {
            for &s in ss {
                indeg[s] += 1;
            }
        }
        let entry_idx = index_of(&Unit::Block(self.entry));
        let mut order = Vec::new();
        let mut work = vec![entry_idx];
        let mut seen = vec![false; units.len()];
        seen[entry_idx] = true;
        while let Some(u) = work.pop() {
            order.push(units[u].clone());
            for &s in &succs[u] {
                indeg[s] -= 1;
                if indeg[s] == 0 && !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        Ok(order)
    }

    fn unit_successors(&self, u: &Unit) -> Vec<Unit> {
        let map_target = |t: BlockId| -> Option<Unit> {
            if self.t_blocks.contains(&t) {
                Some(Unit::Block(t))
            } else {
                self.loop_children
                    .iter()
                    .find(|(li, _)| self.loops[**li].header == t)
                    .map(|(li, _)| Unit::Loop(*li))
            }
        };
        match u {
            Unit::Block(b) => {
                let Some(t) = self.f.terminator(*b) else {
                    return vec![];
                };
                let targets = match &t.op {
                    Op::Detach { cont, .. } => vec![*cont],
                    other => other.successors(),
                };
                targets.into_iter().filter_map(map_target).collect()
            }
            Unit::Loop(li) => {
                let subtree = &self.loop_children[li].1;
                let mut out = Vec::new();
                for &b in subtree {
                    for s in self.f.successors(b) {
                        if !subtree.contains(&s) {
                            if let Some(u) = map_target(s) {
                                if !out.contains(&u) {
                                    out.push(u);
                                }
                            }
                        }
                    }
                }
                out
            }
        }
    }

    // --- Predicates ---------------------------------------------------------

    fn block_pred(&mut self, b: BlockId) -> Pred {
        if b == self.entry {
            return None;
        }
        if let Some(p) = self.block_pred_cache.get(&b) {
            return *p;
        }
        let mut contributions: Vec<Pred> = Vec::new();
        for &p in &self.preds[b.0 as usize] {
            let key = if self.t_blocks.contains(&p) {
                (p, b)
            } else if let Some((li, _)) = self
                .loop_children
                .iter()
                .find(|(_, (_, subtree))| subtree.contains(&p))
                .map(|(li, c)| (*li, c))
            {
                (self.loops[li].header, b)
            } else {
                continue;
            };
            if let Some(ep) = self.edge_pred.get(&key) {
                contributions.push(*ep);
            }
        }
        // No incoming edges, or any edge with an unknown predicate, means
        // the block's own predicate is unknown.
        let result = if contributions.is_empty() || contributions.iter().any(|c| c.is_none()) {
            None
        } else {
            // OR-fold the predicate nodes.
            let mut it = contributions.into_iter().map(|c| c.expect("some"));
            let first = it.next().expect("nonempty");
            let folded = it.fold(first, |acc, n| {
                self.emit_bool_bin(muir_mir::instr::BinOp::Or, acc, n)
            });
            Some(folded)
        };
        self.block_pred_cache.insert(b, result);
        result
    }

    fn emit_bool_bin(&mut self, op: muir_mir::instr::BinOp, a: NodeId, b: NodeId) -> NodeId {
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
            Some(an) => self.emit_bool_bin(muir_mir::instr::BinOp::And, an, b),
        }
    }

    fn not_node(&mut self, c: NodeId) -> NodeId {
        let t = self.const_node(ConstVal::Bool(true));
        self.emit_bool_bin(muir_mir::instr::BinOp::Xor, c, t)
    }

    // --- Value resolution ----------------------------------------------------

    fn const_node(&mut self, c: ConstVal) -> NodeId {
        let key = match c {
            ConstVal::Int(i) => ConstKey::I(i),
            ConstVal::F32(f) => ConstKey::F(f.to_bits()),
            ConstVal::Bool(b) => ConstKey::B(b),
        };
        if let Some(&n) = self.const_map.get(&key) {
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
        self.const_map.insert(key, n);
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

    fn resolve(&mut self, v: ValueRef) -> Result<(NodeId, u16), FrontendError> {
        match v {
            ValueRef::Const(c) => Ok((self.const_node(c), 0)),
            ValueRef::Arg(n) => Ok((self.capture(Capture::Arg(n)), 0)),
            ValueRef::Instr(d) => {
                if let Some(&m) = self.value_map.get(&d) {
                    return Ok(m);
                }
                let instr = self.f.instr(d);
                let in_t = self.t_blocks.contains(&instr.block);
                if in_t && is_pure(&instr.op) {
                    return self.translate_pure(d);
                }
                if self.scope_blocks.contains(&instr.block) {
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
        let instr = self.f.instr(d).clone();
        let node = match &instr.op {
            Op::Bin(b) => self.emit_compute(d, OpKind::Bin(*b), &instr)?,
            Op::Un(u) => self.emit_compute(d, OpKind::Un(*u), &instr)?,
            Op::Cmp(p) => self.emit_compute(d, OpKind::Cmp(*p), &instr)?,
            Op::Select => self.emit_compute(d, OpKind::Select, &instr)?,
            Op::Cast(c) => self.emit_compute(d, OpKind::Cast(*c), &instr)?,
            Op::Tensor(t, s) => self.emit_compute(d, OpKind::Tensor(*t, *s), &instr)?,
            Op::Phi { preds } => self.translate_phi(d, &instr, preds)?,
            other => {
                return Err(ferr(format!(
                    "internal: lazy translation of non-pure op {}",
                    other.mnemonic()
                )))
            }
        };
        self.value_map.insert(d, (node, 0));
        Ok((node, 0))
    }

    fn emit_compute(
        &mut self,
        d: InstrId,
        op: OpKind,
        instr: &muir_mir::instr::Instr,
    ) -> Result<NodeId, FrontendError> {
        let ty = instr.ty.ok_or_else(|| ferr("untyped compute op"))?;
        let n = self.df.add_node(Node::new(
            format!("{}_{}", op.mnemonic().replace(['<', '>', '.'], "_"), d.0),
            NodeKind::Compute(op),
            ty,
        ));
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
        instr: &muir_mir::instr::Instr,
        preds: &[BlockId],
    ) -> Result<NodeId, FrontendError> {
        let ty = instr.ty.ok_or_else(|| ferr("untyped phi"))?;
        let b = instr.block;
        let mut incoming: Vec<(ValueRef, Pred)> = Vec::new();
        for (v, p) in instr.operands.iter().zip(preds) {
            let ep = self.edge_pred.get(&(*p, b)).copied().unwrap_or(None);
            incoming.push((*v, ep));
        }
        // Start from an always-true incoming if one exists, otherwise the
        // first; select the others in on their predicates.
        let default_idx = incoming.iter().position(|(_, p)| p.is_none()).unwrap_or(0);
        let (dv, _) = incoming[default_idx];
        let (mut acc, mut accp) = self.resolve(dv)?;
        for (i, (v, p)) in incoming.iter().enumerate() {
            if i == default_idx {
                continue;
            }
            let Some(pn) = *p else {
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
        let sid = self.fe.placement[obj.0 as usize];
        if let Some(&j) = self.junction_map.get(&sid) {
            return j;
        }
        let j = self.df.add_junction(Junction::new(sid, 2, 1));
        self.junction_map.insert(sid, j);
        self.fe.acc.connect_mem(self.tid, j, sid);
        j
    }

    fn addr_affine(&self, addr: ValueRef) -> Option<Affine> {
        let iv = self.iv_phi.unwrap_or(InstrId(u32::MAX));
        let lp = NaturalLoop {
            header: self.entry,
            blocks: self.scope_blocks.clone(),
            latches: vec![],
            depth: 1,
            parent: None,
        };
        match analysis::affine_of(self.f, addr, iv, &lp) {
            Affine::Opaque => None,
            a => Some(a),
        }
    }

    fn add_order_edges(&mut self, node: NodeId, fp: &Footprint, is_spawn: bool) {
        let mut edges = Vec::new();
        for (prior, pfp, pspawn) in &self.effects {
            if *pspawn && is_spawn {
                continue; // Cilk spawns are unordered among themselves.
            }
            if conflicts(pfp, fp) {
                edges.push(*prior);
            }
        }
        for e in edges {
            self.df.connect_order(e, node);
        }
        self.effects.push((node, fp.clone(), is_spawn));
    }

    fn lower_block(&mut self, b: BlockId) -> Result<(), FrontendError> {
        let pred = self.block_pred(b);
        let instr_ids: Vec<InstrId> = self.f.block(b).instrs.clone();
        for iid in instr_ids {
            if self.value_map.contains_key(&iid) {
                continue; // pre-registered loop header φ
            }
            let instr = self.f.instr(iid).clone();
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
                    self.value_map.insert(iid, (n, 0));
                    let fp = Footprint {
                        reads: vec![(*obj, self.addr_affine(instr.operands[0]))],
                        writes: vec![],
                    };
                    self.add_order_edges(n, &fp, false);
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
                    self.add_order_edges(n, &fp, false);
                }
                Op::Call { callee } => {
                    // Function call: build a dedicated child task per call
                    // site (each call site is a hardware instance).
                    let fname = self.fe.module.function(*callee).name.clone();
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
                        self.value_map.insert(iid, (n, 0));
                    }
                    let (r, w) = self.fe.func_fps[callee.0 as usize].clone();
                    let fp = Footprint::whole(&r, &w);
                    self.add_order_edges(n, &fp, false);
                }
                Op::Br { target } => {
                    self.edge_pred.insert((b, *target), pred);
                }
                Op::CondBr { t, f: fb } => {
                    // Loop-scope header check: the in-scope direction is
                    // unconditional (the sequencer admits only valid
                    // iterations).
                    let is_header_check =
                        matches!(self.kind, ScopeKind::Loop(_)) && b == self.entry;
                    if is_header_check {
                        let in_scope = if self.in_unit_graph(*t) { *t } else { *fb };
                        self.edge_pred.insert((b, in_scope), pred);
                    } else {
                        let (c, cp) = self.resolve(instr.operands[0])?;
                        debug_assert_eq!(cp, 0);
                        let tp = self.and_pred(pred, c);
                        let nc = self.not_node(c);
                        let fp_ = self.and_pred(pred, nc);
                        self.edge_pred.insert((b, *t), Some(tp));
                        self.edge_pred.insert((b, *fb), Some(fp_));
                    }
                }
                Op::Detach { body, cont } => {
                    let (iface, _region) = self
                        .detach_children
                        .get(&b)
                        .cloned()
                        .ok_or_else(|| ferr(format!("detach at {b} has no child task")))?;
                    let _ = body;
                    let callee = iface.task;
                    let nargs = iface.captures.len();
                    let predicated = pred.is_some();
                    let n = self.df.add_node(Node::new(
                        format!("spawn_{}", b.0),
                        NodeKind::TaskCall {
                            callee,
                            predicated,
                            spawn: true,
                        },
                        Type::I64,
                    ));
                    for (i, c) in iface.captures.iter().enumerate() {
                        let v = match c {
                            Capture::Val(d) => ValueRef::Instr(*d),
                            Capture::Arg(a) => ValueRef::Arg(*a),
                        };
                        let (src, sp) = self.resolve(v)?;
                        self.df.connect(src, sp, n, i as u16);
                    }
                    if let Some(pn) = pred {
                        self.df.connect(pn, 0, n, nargs as u16);
                    }
                    for (k, r) in iface.results.iter().enumerate() {
                        self.value_map.insert(*r, (n, k as u16));
                    }
                    let (r, w) =
                        region_footprint(self.f, &self.detach_children[&b].1, &self.fe.func_fps);
                    let fp = Footprint::whole(&r, &w);
                    self.add_order_edges(n, &fp, true);
                    self.edge_pred.insert((b, *cont), pred);
                }
                Op::Reattach { .. } => {}
                Op::Sync { cont } => {
                    self.edge_pred.insert((b, *cont), pred);
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

    fn in_unit_graph(&self, b: BlockId) -> bool {
        self.t_blocks.contains(&b)
            || self
                .loop_children
                .iter()
                .any(|(li, _)| self.loops[*li].header == b)
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

    fn emit_loop_call(&mut self, li: usize) -> Result<(), FrontendError> {
        let header = self.loops[li].header;
        let pred = self.block_pred(header);
        let (iface, subtree) = self.loop_children[&li].clone();
        let callee = iface.task;
        let nargs = iface.captures.len();
        let predicated = pred.is_some();
        let n = self.df.add_node(Node::new(
            format!("loop_call_{}", header.0),
            NodeKind::TaskCall {
                callee,
                predicated,
                spawn: false,
            },
            Type::I64,
        ));
        for (i, c) in iface.captures.iter().enumerate() {
            let v = match c {
                Capture::Val(d) => ValueRef::Instr(*d),
                Capture::Arg(a) => ValueRef::Arg(*a),
            };
            let (src, sp) = self.resolve(v)?;
            self.df.connect(src, sp, n, i as u16);
        }
        if let Some(pn) = pred {
            self.df.connect(pn, 0, n, nargs as u16);
        }
        for (k, r) in iface.results.iter().enumerate() {
            self.value_map.insert(*r, (n, k as u16));
        }
        // Successor blocks of the loop inherit the call predicate.
        for &b in &subtree {
            for s in self.f.successors(b) {
                if !subtree.contains(&s) {
                    self.edge_pred.insert((header, s), pred);
                }
            }
        }
        let (r, w) = region_footprint(self.f, &subtree, &self.fe.func_fps);
        let fp = Footprint::whole(&r, &w);
        self.add_order_edges(n, &fp, false);
        Ok(())
    }

    // --- Finalization -----------------------------------------------------

    fn finish(mut self) -> Result<ChildIface, FrontendError> {
        let (results, kind, inits) = match self.kind.clone() {
            ScopeKind::Loop(li) => {
                let rv = region_values(
                    self.f,
                    &expand_with_detach(self.f, self.loops[li].blocks.clone()),
                );
                let results: Vec<InstrId> = rv.out_values.iter().copied().collect();
                // Wire Output: the per-iteration value of each result.
                let out_ty = results
                    .first()
                    .and_then(|r| self.f.instr(*r).ty)
                    .unwrap_or(Type::BOOL);
                let out = self.df.add_node(Node::new("out", NodeKind::Output, out_ty));
                let mut inits: Vec<Option<ResultInit>> = Vec::new();
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
                                let node = self.capture(Capture::Val(d));
                                let idx = self
                                    .capture_nodes
                                    .iter()
                                    .position(|&x| x == node)
                                    .expect("capture exists");
                                ResultInit::Arg(idx as u32)
                            }
                            ValueRef::Arg(a) => {
                                let node = self.capture(Capture::Arg(a));
                                let idx = self
                                    .capture_nodes
                                    .iter()
                                    .position(|&x| x == node)
                                    .expect("capture exists");
                                ResultInit::Arg(idx as u32)
                            }
                        }));
                    } else {
                        inits.push(None);
                    }
                }
                // Patch feedback edges for carried accumulators.
                for p in self.acc_phis.clone() {
                    let (init, update) = self.phi_incoming(p, li)?;
                    let merge = self.value_map[&p].0;
                    let (in_, ip) = self.resolve(init)?;
                    self.df.connect(in_, ip, merge, 0);
                    let (up, upp) = self.resolve(update)?;
                    self.df.connect_feedback(up, upp, merge);
                }
                // Canonical loop bounds.
                let spec = self.extract_loop_spec(li)?;
                let dep = loop_dependence_in(self.fe.module, self.f, &self.loops[li]);
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
        let mut task = TaskBlock::new(self.fe.acc.task(self.tid).name.clone(), kind);
        task.dataflow = self.df;
        task.num_args = self.captures.len() as u32;
        task.num_results = num_results;
        task.loop_result_inits = inits;
        self.fe.acc.tasks[self.tid.0 as usize] = task;
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
                    (Op::Bin(muir_mir::instr::BinOp::Add), [a, b]) => {
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
        let header = self.loops[li].header;
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
            ValueRef::Instr(d) => {
                let node = self.capture(Capture::Val(d));
                let idx = self
                    .capture_nodes
                    .iter()
                    .position(|&x| x == node)
                    .expect("capture exists");
                Ok(ArgExpr::Arg(idx as u32))
            }
            ValueRef::Arg(a) => {
                let node = self.capture(Capture::Arg(a));
                let idx = self
                    .capture_nodes
                    .iter()
                    .position(|&x| x == node)
                    .expect("capture exists");
                Ok(ArgExpr::Arg(idx as u32))
            }
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

/// A topological-ordering unit: an inline block or a child-loop call site.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Unit {
    Block(BlockId),
    Loop(usize),
}
