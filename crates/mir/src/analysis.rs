//! Control-flow and memory analyses used by the μIR front-end and by μopt.
//!
//! * reverse post-order, dominators, natural loops — over the function's
//!   flat predecessor table ([`Preds`]), with block sets as one bit per
//!   block ([`BlockSet`]);
//! * detach-region discovery (Tapir task extents);
//! * loop live-outs (task results, §3.6) from one per-function use index
//!   ([`Uses`]);
//! * affine address forms and a conservative loop-carried memory dependence
//!   test (drives pipeline initiation intervals in the simulator);
//!
//! A block id outside the function is never an index panic here: the
//! tables leave out-of-range branch targets out, and a [`BlockSet`]
//! neither holds nor inserts one.

use crate::instr::{BinOp, BlockId, InstrId, MemObjId, Op, ValueRef};
use crate::module::{Function, Groups, Preds};
use std::collections::{BTreeMap, BTreeSet};

/// A set of one function's blocks, one bit per block id. It iterates in
/// ascending id order — the order a `BTreeSet<BlockId>` walk takes — and
/// ids at or past the function's block count are never members. A set
/// over at most 128 blocks keeps its bits inline and allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSet {
    words: Words,
    blocks: usize,
}

/// Words a [`BlockSet`] holds without allocating.
const INLINE_WORDS: usize = 2;

/// The bit words; which variant a set uses depends only on its block
/// count, and inline words past that count stay zero, so the derived
/// equality is set equality.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

impl BlockSet {
    /// The empty set over a function of `blocks` blocks.
    pub fn empty(blocks: usize) -> BlockSet {
        let n = blocks.div_ceil(64);
        let words = if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; n])
        };
        BlockSet { words, blocks }
    }

    /// Every block of a function of `blocks` blocks.
    pub fn full(blocks: usize) -> BlockSet {
        let mut s = BlockSet::empty(blocks);
        for (i, w) in s.words_mut().iter_mut().enumerate() {
            *w = u64::MAX >> (64 - (blocks - i * 64).min(64));
        }
        s
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &w[..self.blocks.div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => &mut w[..self.blocks.div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    /// Whether `b` is a member.
    pub fn contains(&self, b: BlockId) -> bool {
        let i = b.0 as usize;
        i < self.blocks && self.words()[i / 64] & (1 << (i % 64)) != 0
    }

    /// Add `b`; whether it was newly added (never for an id out of range).
    pub(crate) fn insert(&mut self, b: BlockId) -> bool {
        let i = b.0 as usize;
        if i >= self.blocks {
            return false;
        }
        let (w, bit) = (&mut self.words_mut()[i / 64], 1 << (i % 64));
        let new = *w & bit == 0;
        *w |= bit;
        new
    }

    /// Add every member of `other`.
    pub fn union_with(&mut self, other: &BlockSet) {
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w |= o;
        }
    }

    /// The members not in `other`.
    pub fn difference(&self, other: &BlockSet) -> BlockSet {
        let mut out = self.clone();
        for (w, o) in out.words_mut().iter_mut().zip(other.words()) {
            *w &= !o;
        }
        out
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    BlockId(i as u32 * 64 + bit)
                })
            })
        })
    }
}

/// Reverse post-order of the CFG from the entry block. Unreachable blocks
/// are omitted.
pub(crate) fn reverse_post_order(f: &Function) -> Vec<BlockId> {
    let mut visited = BlockSet::empty(f.blocks.len());
    let mut post = Vec::new();
    if !visited.insert(f.entry) {
        return post;
    }
    // Iterative DFS with an explicit stack carrying (block, next-succ-index).
    let mut stack = vec![(f.entry, 0usize)];
    while let Some((b, i)) = stack.pop() {
        if let Some(&s) = f.successors(b).get(i) {
            stack.push((b, i + 1));
            if visited.insert(s) {
                stack.push((s, 0));
            }
        } else {
            post.push(b);
        }
    }
    post.reverse();
    post
}

/// Immediate dominators, indexed by block, from the function's
/// predecessor table. `idoms[entry] == entry`; unreachable blocks map to
/// `None`.
pub(crate) fn dominators(f: &Function, preds: &Preds) -> Vec<Option<BlockId>> {
    let mut idom: Vec<Option<BlockId>> = vec![None; f.blocks.len()];
    let rpo = reverse_post_order(f);
    let Some(&entry) = rpo.first() else {
        return idom;
    };
    let mut order = vec![usize::MAX; f.blocks.len()];
    for (i, b) in rpo.iter().enumerate() {
        order[b.0 as usize] = i;
    }
    idom[entry.0 as usize] = Some(entry);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in preds.of(b) {
                if idom[p.0 as usize].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &order, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b.0 as usize] != Some(ni) {
                    idom[b.0 as usize] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom
}

fn intersect(idom: &[Option<BlockId>], order: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while order[a.0 as usize] > order[b.0 as usize] {
            a = idom[a.0 as usize].expect("dominator defined");
        }
        while order[b.0 as usize] > order[a.0 as usize] {
            b = idom[b.0 as usize].expect("dominator defined");
        }
    }
    a
}

/// Whether `a` dominates `b`.
pub(crate) fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom.get(cur.0 as usize).copied().flatten() {
            Some(d) if d != cur => cur = d,
            _ => return false,
        }
    }
}

/// A natural loop discovered from a back edge.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Loop header (target of the back edges).
    pub header: BlockId,
    /// Blocks strictly inside the loop (header included).
    pub blocks: BlockSet,
    /// Source blocks of back edges.
    pub latches: Vec<BlockId>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
    /// Index of the innermost enclosing loop in the forest, if any.
    pub parent: Option<usize>,
}

/// Discover all natural loops and their nesting, sorted by header, from
/// the function's predecessor table.
pub fn natural_loops(f: &Function, preds: &Preds) -> Vec<NaturalLoop> {
    let n = f.blocks.len();
    let idom = dominators(f, preds);
    // Back edge: b -> h where h dominates b.
    let mut list: Vec<NaturalLoop> = Vec::new();
    let mut at_header: Vec<Option<usize>> = vec![None; n];
    let mut work = Vec::new();
    for b in f.block_ids() {
        for h in f.successors(b) {
            if h.0 as usize >= n || !dominates(&idom, h, b) {
                continue;
            }
            let li = *at_header[h.0 as usize].get_or_insert_with(|| {
                list.push(NaturalLoop {
                    header: h,
                    blocks: BlockSet::empty(n),
                    latches: Vec::new(),
                    depth: 1,
                    parent: None,
                });
                list.len() - 1
            });
            let lp = &mut list[li];
            lp.latches.push(b);
            // Collect the loop body: backwards reachability from the
            // latch without passing through the header.
            lp.blocks.insert(h);
            work.push(b);
            while let Some(x) = work.pop() {
                if lp.blocks.insert(x) {
                    work.extend_from_slice(preds.of(x));
                }
            }
        }
    }
    list.sort_by_key(|l| l.header);
    // Nesting: loop i is nested in loop j if its header is inside j's blocks
    // (and they differ). Parent = smallest enclosing loop.
    let parents: Vec<Option<usize>> = list
        .iter()
        .enumerate()
        .map(|(i, lp)| {
            let mut best: Option<(usize, usize)> = None; // (index, size)
            for (j, other) in list.iter().enumerate() {
                if i != j && other.blocks.contains(lp.header) {
                    let size = other.blocks.len();
                    if best.is_none_or(|(_, s)| size < s) {
                        best = Some((j, size));
                    }
                }
            }
            best.map(|(j, _)| j)
        })
        .collect();
    // Depths.
    for (i, lp) in list.iter_mut().enumerate() {
        lp.parent = parents[i];
        let mut d = 1;
        let mut p = parents[i];
        while let Some(j) = p {
            d += 1;
            p = parents[j];
        }
        lp.depth = d;
    }
    list
}

/// The extent of a Tapir detach region: blocks reachable from `body` without
/// passing a `reattach` terminator (the reattach block is included).
pub fn detach_region(f: &Function, body: BlockId) -> BlockSet {
    let mut region = BlockSet::empty(f.blocks.len());
    let mut work = vec![body];
    while let Some(b) = work.pop() {
        if !region.insert(b) {
            continue;
        }
        let is_reattach = f
            .terminator(b)
            .is_some_and(|t| matches!(t.op, Op::Reattach { .. }));
        if !is_reattach {
            work.extend(f.successors(b));
        }
    }
    region
}

/// Per-function def-use index: the instructions each block defines (by
/// their `block` field, ascending) and, for each instruction, the block of
/// every instruction that reads its result (one entry per use, in block
/// order).
#[derive(Debug, Clone)]
pub struct Uses {
    defs: Groups<InstrId>,
    uses: Groups<BlockId>,
}

impl Uses {
    /// Index `f`: its definitions by block, and every operand use of an
    /// instruction result, walking each block's instruction list.
    pub fn new(f: &Function) -> Uses {
        let (nb, n) = (f.blocks.len(), f.instrs.len());
        let defs = Groups::new(nb, || {
            f.instrs
                .iter()
                .enumerate()
                .filter(move |(_, instr)| (instr.block.0 as usize) < nb)
                .map(|(i, instr)| (instr.block.0 as usize, InstrId(i as u32)))
        });
        let uses = Groups::new(n, || {
            f.blocks.iter().enumerate().flat_map(move |(b, block)| {
                block
                    .instrs
                    .iter()
                    .filter_map(|&i| f.instrs.get(i.0 as usize))
                    .flat_map(|instr| &instr.operands)
                    .filter_map(ValueRef::as_instr)
                    .filter(move |d| (d.0 as usize) < n)
                    .map(move |d| (d.0 as usize, BlockId(b as u32)))
            })
        });
        Uses { defs, uses }
    }

    /// The blocks reading `d`'s result; empty for an id out of range.
    pub(crate) fn of(&self, d: InstrId) -> &[BlockId] {
        self.uses.of(d.0 as usize)
    }
}

/// The live-outs of a block region (a loop task's results, §3.6):
/// instructions defined inside `region` whose result is read outside it,
/// ascending by id.
pub fn live_outs(uses: &Uses, region: &BlockSet) -> Vec<InstrId> {
    let mut outs: Vec<InstrId> = region
        .iter()
        .flat_map(|b| uses.defs.of(b.0 as usize))
        .copied()
        .filter(|&d| uses.of(d).iter().any(|&b| !region.contains(b)))
        .collect();
    outs.sort_unstable();
    outs
}

/// Symbol appearing in an affine address form: a loop-invariant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// An instruction defined outside the analysed loop.
    Instr(InstrId),
    /// A function argument.
    Arg(u32),
}

/// Affine form of an address expression with respect to one induction
/// variable: `scale·iv + Σ coeffᵢ·symᵢ + konst`, or `Opaque`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Affine {
    /// A recognised affine combination.
    Affine {
        /// Coefficient of the induction variable.
        scale: i64,
        /// Constant term.
        konst: i64,
        /// Loop-invariant symbolic terms with coefficients.
        syms: BTreeMap<Sym, i64>,
    },
    /// Not recognisably affine.
    Opaque,
}

impl Affine {
    fn konst(c: i64) -> Affine {
        Affine::Affine {
            scale: 0,
            konst: c,
            syms: BTreeMap::new(),
        }
    }

    fn sym(s: Sym) -> Affine {
        let mut syms = BTreeMap::new();
        syms.insert(s, 1);
        Affine::Affine {
            scale: 0,
            konst: 0,
            syms,
        }
    }

    fn iv() -> Affine {
        Affine::Affine {
            scale: 1,
            konst: 0,
            syms: BTreeMap::new(),
        }
    }

    fn add(self, other: Affine, sign: i64) -> Affine {
        match (self, other) {
            (
                Affine::Affine {
                    scale: s1,
                    konst: k1,
                    syms: m1,
                },
                Affine::Affine {
                    scale: s2,
                    konst: k2,
                    syms: m2,
                },
            ) => {
                let mut syms = m1;
                for (s, c) in m2 {
                    *syms.entry(s).or_insert(0) += sign * c;
                }
                syms.retain(|_, c| *c != 0);
                Affine::Affine {
                    scale: s1 + sign * s2,
                    konst: k1 + sign * k2,
                    syms,
                }
            }
            _ => Affine::Opaque,
        }
    }

    fn scale_by(self, k: i64) -> Affine {
        match self {
            Affine::Affine {
                scale,
                konst,
                mut syms,
            } => {
                for c in syms.values_mut() {
                    *c *= k;
                }
                syms.retain(|_, c| *c != 0);
                Affine::Affine {
                    scale: scale * k,
                    konst: konst * k,
                    syms,
                }
            }
            Affine::Opaque => Affine::Opaque,
        }
    }

    /// The pure-constant value, if this form is a constant.
    pub(crate) fn as_const(&self) -> Option<i64> {
        match self {
            Affine::Affine {
                scale: 0,
                konst,
                syms,
            } if syms.is_empty() => Some(*konst),
            _ => None,
        }
    }
}

/// Compute the affine form of `v` with respect to induction variable `iv`
/// (a φ at the header of the loop whose blocks are `scope`). Values
/// defined outside `scope` are treated as loop-invariant symbols.
pub fn affine_of(f: &Function, v: ValueRef, iv: InstrId, scope: &BlockSet) -> Affine {
    affine_rec(f, v, iv, scope, 0)
}

fn affine_rec(f: &Function, v: ValueRef, iv: InstrId, scope: &BlockSet, depth: u32) -> Affine {
    if depth > 32 {
        return Affine::Opaque;
    }
    match v {
        ValueRef::Const(c) => match c.to_value() {
            crate::value::Value::Int(k) => Affine::konst(k),
            crate::value::Value::Bool(b) => Affine::konst(b as i64),
            _ => Affine::Opaque,
        },
        ValueRef::Arg(n) => Affine::sym(Sym::Arg(n)),
        ValueRef::Instr(id) => {
            if id == iv {
                return Affine::iv();
            }
            let Some(instr) = f.instrs.get(id.0 as usize) else {
                return Affine::Opaque;
            };
            if !scope.contains(instr.block) {
                // Loop-invariant: opaque but stable symbol.
                return Affine::sym(Sym::Instr(id));
            }
            let operand = |k: usize| match instr.operands.get(k) {
                Some(&o) => affine_rec(f, o, iv, scope, depth + 1),
                None => Affine::Opaque,
            };
            match &instr.op {
                Op::Bin(BinOp::Add) => operand(0).add(operand(1), 1),
                Op::Bin(BinOp::Sub) => operand(0).add(operand(1), -1),
                Op::Bin(BinOp::Mul) => {
                    let (a, b) = (operand(0), operand(1));
                    match (a.as_const(), b.as_const()) {
                        (Some(k), _) => b.scale_by(k),
                        (_, Some(k)) => a.scale_by(k),
                        _ => Affine::Opaque,
                    }
                }
                Op::Bin(BinOp::Shl) => {
                    let (a, b) = (operand(0), operand(1));
                    match b.as_const() {
                        Some(k) if (0..32).contains(&k) => a.scale_by(1 << k),
                        _ => Affine::Opaque,
                    }
                }
                Op::Cast(_) => operand(0),
                _ => Affine::Opaque,
            }
        }
    }
}

/// Result of the loop-carried memory dependence test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopDep {
    /// Whether consecutive iterations may be overlapped (pipelined) freely
    /// with respect to memory.
    pub parallel: bool,
    /// Objects with (possibly) carried dependences.
    pub carried_objects: Vec<MemObjId>,
}

/// Find the induction variable of a structured loop: the first integer φ in
/// the header.
pub fn induction_var(f: &Function, lp: &NaturalLoop) -> Option<InstrId> {
    f.block(lp.header)
        .instrs
        .iter()
        .copied()
        .find(|&iid| matches!(f.instr(iid).op, Op::Phi { .. }))
}

/// Blocks of `base` plus every detach region spawned (transitively) from a
/// block in the set — the full extent of code a loop iteration may execute.
pub fn expand_with_detach(f: &Function, base: BlockSet) -> BlockSet {
    let mut set = base;
    let detach_body = |b: BlockId| match f.terminator(b).map(|t| &t.op) {
        Some(Op::Detach { body, .. }) => Some(*body),
        _ => None,
    };
    // Only a detach adds blocks, so only detach bodies are worked.
    let mut work: Vec<BlockId> = set.iter().filter_map(detach_body).collect();
    while let Some(body) = work.pop() {
        for r in detach_region(f, body).iter() {
            if set.insert(r) {
                work.extend(detach_body(r));
            }
        }
    }
    set
}

/// Conservative loop-carried memory dependence test.
///
/// For every store `S` to object `X` in the loop and every other memory
/// access `M` on `X` in the loop, the loop is *parallel* (pipelineable) only
/// if both addresses are affine in the induction variable with the same
/// nonzero scale and identical symbolic parts, and their constant difference
/// is zero or not a multiple of the scale (accesses in different iterations
/// never collide). The scan covers the loop's detach regions (spawned
/// bodies execute on the iteration's behalf); function calls inside the
/// loop contribute their callee's (transitive) memory footprint, looked up
/// in `m`, as opaque accesses. A `parallel_hints` entry on the header
/// overrides the test, as does a loop with no stores.
pub fn loop_dependence_in(m: &crate::module::Module, f: &Function, lp: &NaturalLoop) -> LoopDep {
    loop_dependence_impl(f, lp, Some(m))
}

fn callee_footprint(
    m: &crate::module::Module,
    callee: crate::instr::FuncId,
    depth: u32,
) -> (BTreeSet<MemObjId>, BTreeSet<MemObjId>) {
    let mut reads = BTreeSet::new();
    let mut writes = BTreeSet::new();
    if depth > 16 {
        return (reads, writes);
    }
    let Some(func) = m.functions.get(callee.0 as usize) else {
        return (reads, writes);
    };
    for instr in &func.instrs {
        match &instr.op {
            Op::Load { obj } => {
                reads.insert(*obj);
            }
            Op::Store { obj } => {
                writes.insert(*obj);
            }
            Op::Call { callee: c2 } => {
                let (r, w) = callee_footprint(m, *c2, depth + 1);
                reads.extend(r);
                writes.extend(w);
            }
            _ => {}
        }
    }
    (reads, writes)
}

fn loop_dependence_impl(
    f: &Function,
    lp: &NaturalLoop,
    module: Option<&crate::module::Module>,
) -> LoopDep {
    if f.parallel_hints.contains(&lp.header) {
        return LoopDep {
            parallel: true,
            carried_objects: Vec::new(),
        };
    }
    let Some(iv) = induction_var(f, lp) else {
        return LoopDep {
            parallel: false,
            carried_objects: Vec::new(),
        };
    };
    // Affine forms must treat everything the iteration executes as
    // in-scope, so defs inside detach regions do not look loop-invariant.
    let blocks = expand_with_detach(f, lp.blocks.clone());
    let addr = |instr: &crate::instr::Instr| match instr.operands.first() {
        Some(&a) => affine_of(f, a, iv, &blocks),
        None => Affine::Opaque,
    };
    let mut stores: Vec<(MemObjId, Affine)> = Vec::new();
    let mut accesses: Vec<(MemObjId, Affine, bool)> = Vec::new(); // (obj, addr, is_store)
    for b in blocks.iter() {
        for (_iid, instr) in f.block_instrs(b) {
            match &instr.op {
                Op::Load { obj } => {
                    accesses.push((*obj, addr(instr), false));
                }
                Op::Store { obj } => {
                    let a = addr(instr);
                    stores.push((*obj, a.clone()));
                    accesses.push((*obj, a, true));
                }
                Op::Call { callee } => {
                    if let Some(m) = module {
                        let (r, w) = callee_footprint(m, *callee, 0);
                        for obj in r {
                            accesses.push((obj, Affine::Opaque, false));
                        }
                        for obj in w {
                            stores.push((obj, Affine::Opaque));
                            accesses.push((obj, Affine::Opaque, true));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    let mut carried: BTreeSet<MemObjId> = BTreeSet::new();
    for (sobj, saff) in &stores {
        for (aobj, aaff, _is_store) in &accesses {
            if sobj != aobj {
                continue;
            }
            if std::ptr::eq(saff, aaff) {
                continue;
            }
            if may_collide_across_iterations(saff, aaff) {
                carried.insert(*sobj);
            }
        }
    }
    LoopDep {
        parallel: carried.is_empty(),
        carried_objects: carried.into_iter().collect(),
    }
}

fn may_collide_across_iterations(a: &Affine, b: &Affine) -> bool {
    match (a, b) {
        (
            Affine::Affine {
                scale: s1,
                konst: k1,
                syms: m1,
            },
            Affine::Affine {
                scale: s2,
                konst: k2,
                syms: m2,
            },
        ) => {
            if s1 != s2 || m1 != m2 {
                // Different strides or different symbolic bases: assume the
                // worst (conservative).
                return true;
            }
            if *s1 == 0 {
                // Same (loop-invariant) address every iteration: carried
                // unless the constant parts differ (then never the same
                // address at all).
                return k1 == k2;
            }
            let d = k1 - k2;
            // Same address in iterations k, k' iff s·(k-k') = d.
            d != 0 && d % s1 == 0
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::module::Module;
    use crate::types::{ScalarType, Type};

    fn loop_func() -> Function {
        let mut b = FunctionBuilder::new("l", &[]);
        b.for_loop(0, ValueRef::int(8), 1, |b, i| {
            let _ = b.add(i, ValueRef::int(1));
        });
        b.ret(None);
        b.finish()
    }

    #[test]
    fn rpo_starts_at_entry() {
        let f = loop_func();
        let rpo = reverse_post_order(&f);
        assert_eq!(rpo[0], f.entry);
        assert_eq!(rpo.len(), f.blocks.len());
    }

    #[test]
    fn dominators_of_loop() {
        let f = loop_func();
        let idom = dominators(&f, &f.predecessors());
        // Every reachable block has an idom.
        for b in f.block_ids() {
            assert!(idom[b.0 as usize].is_some(), "{b} unreachable?");
        }
        // Entry dominates everything.
        for b in f.block_ids() {
            assert!(dominates(&idom, f.entry, b));
        }
    }

    #[test]
    fn finds_natural_loop() {
        let f = loop_func();
        let loops = natural_loops(&f, &f.predecessors());
        assert_eq!(loops.len(), 1);
        let lp = &loops[0];
        assert_eq!(lp.depth, 1);
        assert_eq!(lp.latches.len(), 1);
        assert!(lp.blocks.contains(lp.header));
        assert!(induction_var(&f, lp).is_some());
    }

    #[test]
    fn nested_loops_have_depth() {
        let mut b = FunctionBuilder::new("n", &[]);
        b.for_loop(0, ValueRef::int(4), 1, |b, _i| {
            b.for_loop(0, ValueRef::int(4), 1, |b, j| {
                let _ = b.mul(j, j);
            });
        });
        b.ret(None);
        let f = b.finish();
        let loops = natural_loops(&f, &f.predecessors());
        assert_eq!(loops.len(), 2);
        let depths: BTreeSet<u32> = loops.iter().map(|l| l.depth).collect();
        assert_eq!(depths, BTreeSet::from([1, 2]));
        let inner = loops.iter().find(|l| l.depth == 2).unwrap();
        assert!(inner.parent.is_some());
    }

    #[test]
    fn detach_region_extent() {
        let mut b = FunctionBuilder::new("d", &[]);
        b.par_for(0, 4, 1, |b, i| {
            let _ = b.mul(i, i);
        });
        b.ret(None);
        let f = b.finish();
        // Find the detach terminator.
        let det = f
            .instrs
            .iter()
            .find_map(|i| match i.op {
                Op::Detach { body, .. } => Some(body),
                _ => None,
            })
            .unwrap();
        let region = detach_region(&f, det);
        // Region contains the task body and stops at reattach.
        assert!(!region.is_empty());
        for b_ in region.iter() {
            let t = f.terminator(b_).unwrap();
            // No region block branches back to the pfor header except via
            // reattach semantics; the continuation is outside.
            if let Op::Reattach { cont } = t.op {
                assert!(!region.contains(cont));
            }
        }
    }

    #[test]
    fn loop_live_outs() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 8);
        let mut b = FunctionBuilder::new("f", &[Type::I64]).with_mem(&m);
        let outside = b.add(b.arg(0), ValueRef::int(1));
        let sums = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(8),
            1,
            &[(ValueRef::int(0), Type::I64)],
            |b, i, accs| {
                let s = b.add(i, outside);
                b.store(a, i, s);
                vec![b.add(accs[0], s)]
            },
        );
        b.store(a, ValueRef::int(0), sums[0]);
        b.ret(None);
        let f = b.finish();
        let loops = natural_loops(&f, &f.predecessors());
        let region = expand_with_detach(&f, loops[0].blocks.clone());
        let uses = Uses::new(&f);
        // The accumulator φ is read after the loop; `outside` is a live-in
        // and the per-iteration `s` never leaves it.
        let outs = live_outs(&uses, &region);
        assert_eq!(outs, vec![sums[0].as_instr().unwrap()]);
        assert!(uses
            .of(outside.as_instr().unwrap())
            .iter()
            .all(|&u| region.contains(u)));
        assert!(uses.of(InstrId(u32::MAX)).is_empty());
        // The whole function has no live-outs; an empty region none either.
        assert!(live_outs(&uses, &BlockSet::full(f.blocks.len())).is_empty());
        assert!(live_outs(&uses, &BlockSet::empty(f.blocks.len())).is_empty());
    }

    #[test]
    fn block_sets_walk_ascending_and_refuse_out_of_range_ids() {
        let mut s = BlockSet::empty(130);
        for b in [129, 3, 64, 3, 0, 63] {
            s.insert(BlockId(b));
        }
        assert!(!s.insert(BlockId(130)) && !s.contains(BlockId(130)));
        assert!(!s.contains(BlockId(u32::MAX)));
        let walk: Vec<u32> = s.iter().map(|b| b.0).collect();
        assert_eq!(walk, [0, 3, 63, 64, 129]);
        assert_eq!(s.len(), 5);
        assert_eq!(BlockSet::full(130).len(), 130);
        assert_eq!(BlockSet::full(128).iter().last(), Some(BlockId(127)));
        let rest = BlockSet::full(130).difference(&s);
        assert_eq!(rest.len(), 125);
        let mut all = rest.clone();
        all.union_with(&s);
        assert_eq!(all, BlockSet::full(130));
        assert!(BlockSet::empty(0).is_empty() && BlockSet::full(0).is_empty());
    }

    #[test]
    fn analyses_tolerate_out_of_range_block_ids() {
        let mut b = FunctionBuilder::new("bad", &[]);
        b.push(
            Op::Detach {
                body: BlockId(50),
                cont: BlockId(60),
            },
            None,
            vec![],
        );
        let mut f = b.finish();
        assert_eq!(reverse_post_order(&f), vec![f.entry]);
        let preds = f.predecessors();
        assert!(natural_loops(&f, &preds).is_empty());
        assert!(detach_region(&f, BlockId(9)).is_empty());
        assert_eq!(expand_with_detach(&f, detach_region(&f, f.entry)).len(), 1);
        assert!(!dominates(&dominators(&f, &preds), BlockId(3), BlockId(7)));
        f.entry = BlockId(5);
        assert!(reverse_post_order(&f).is_empty());
        assert!(dominators(&f, &f.predecessors())
            .iter()
            .all(Option::is_none));
    }

    #[test]
    fn affine_recognises_strides() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let mut b = FunctionBuilder::new("f", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(8), 1, |b, i| {
            let idx = b.mul(i, ValueRef::int(4));
            let idx2 = b.add(idx, ValueRef::int(3));
            let v = b.load(a, idx2);
            b.store(a, idx2, v);
        });
        b.ret(None);
        let f = b.finish();
        let loops = natural_loops(&f, &f.predecessors());
        let lp = &loops[0];
        let iv = induction_var(&f, lp).unwrap();
        // Find the load's address.
        let addr = f
            .instrs
            .iter()
            .find_map(|i| match i.op {
                Op::Load { .. } => Some(i.operands[0]),
                _ => None,
            })
            .unwrap();
        match affine_of(&f, addr, iv, &lp.blocks) {
            Affine::Affine { scale, konst, syms } => {
                assert_eq!(scale, 4);
                assert_eq!(konst, 3);
                assert!(syms.is_empty());
            }
            Affine::Opaque => panic!("expected affine"),
        }
    }

    #[test]
    fn disjoint_strided_loop_is_parallel() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let mut b = FunctionBuilder::new("f", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(8), 1, |b, i| {
            let v = b.load(a, i);
            let w = b.add(v, ValueRef::int(1));
            b.store(a, i, w);
        });
        b.ret(None);
        let f = b.finish();
        let loops = natural_loops(&f, &f.predecessors());
        let dep = loop_dependence_in(&m, &f, &loops[0]);
        assert!(dep.parallel, "{dep:?}");
    }

    #[test]
    fn carried_accumulator_through_memory_serializes() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let mut b = FunctionBuilder::new("f", &[]).with_mem(&m);
        // a[0] += i — same address every iteration.
        b.for_loop(0, ValueRef::int(8), 1, |b, i| {
            let v = b.load(a, ValueRef::int(0));
            let w = b.add(v, i);
            b.store(a, ValueRef::int(0), w);
        });
        b.ret(None);
        let f = b.finish();
        let loops = natural_loops(&f, &f.predecessors());
        let dep = loop_dependence_in(&m, &f, &loops[0]);
        assert!(!dep.parallel);
        assert_eq!(dep.carried_objects, vec![a]);
    }

    #[test]
    fn shifted_store_detected_as_carried() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let mut b = FunctionBuilder::new("f", &[]).with_mem(&m);
        // a[i+1] = a[i]: carried distance 1.
        b.for_loop(0, ValueRef::int(8), 1, |b, i| {
            let v = b.load(a, i);
            let i1 = b.add(i, ValueRef::int(1));
            b.store(a, i1, v);
        });
        b.ret(None);
        let f = b.finish();
        let loops = natural_loops(&f, &f.predecessors());
        let dep = loop_dependence_in(&m, &f, &loops[0]);
        assert!(!dep.parallel);
    }

    #[test]
    fn parallel_hint_overrides() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let mut b = FunctionBuilder::new("f", &[]).with_mem(&m);
        b.for_loop_par(0, ValueRef::int(8), 1, |b, i| {
            let v = b.load(a, ValueRef::int(0));
            let w = b.add(v, i);
            b.store(a, ValueRef::int(0), w);
        });
        b.ret(None);
        let f = b.finish();
        let loops = natural_loops(&f, &f.predecessors());
        let dep = loop_dependence_in(&m, &f, &loops[0]);
        assert!(dep.parallel);
    }

    /// Every memory operation of `f` grouped by the object (address space)
    /// it accesses: the paper's `LLVMPointsto` (Algorithm 2), a field
    /// lookup here because each object is its own address space.
    fn memory_groups(f: &Function) -> BTreeMap<MemObjId, Vec<InstrId>> {
        let mut groups: BTreeMap<MemObjId, Vec<InstrId>> = BTreeMap::new();
        for (i, instr) in f.instrs.iter().enumerate() {
            if let Op::Load { obj } | Op::Store { obj } = instr.op {
                groups.entry(obj).or_default().push(InstrId(i as u32));
            }
        }
        groups
    }

    #[test]
    fn memory_groups_by_object() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 8);
        let c = m.add_mem_object("c", ScalarType::I32, 8);
        let mut b = FunctionBuilder::new("f", &[]).with_mem(&m);
        let v = b.load(a, ValueRef::int(0));
        let w = b.load(c, ValueRef::int(0));
        let s = b.add(v, w);
        b.store(c, ValueRef::int(1), s);
        b.ret(None);
        let f = b.finish();
        let groups = memory_groups(&f);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&a].len(), 1);
        assert_eq!(groups[&c].len(), 2);
    }
}
