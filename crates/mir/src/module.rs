//! Functions, basic blocks, memory objects, and modules.

use crate::instr::{BlockId, FuncId, Instr, InstrId, MemObjId, Op, Succs};
use crate::types::{ScalarType, Type};
use std::borrow::Cow;

/// A basic block: a straight-line instruction list ending in a terminator.
#[derive(Debug, Clone)]
pub struct Block {
    /// Human-readable label: a builder's fixed labels are borrowed, so
    /// naming a block allocates only for a label made at run time.
    pub name: Cow<'static, str>,
    /// Instructions in order; the last one must be a terminator.
    pub instrs: Vec<InstrId>,
}

impl Block {
    /// New empty block.
    pub(crate) fn new(name: impl Into<Cow<'static, str>>) -> Self {
        Block {
            name: name.into(),
            instrs: Vec::new(),
        }
    }
}

/// A function: CFG of blocks over an instruction arena.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Return type, if any.
    pub ret: Option<Type>,
    /// Instruction arena; [`InstrId`] indexes into this.
    pub instrs: Vec<Instr>,
    /// Block arena; [`BlockId`] indexes into this.
    pub blocks: Vec<Block>,
    /// Entry block.
    pub entry: BlockId,
    /// Loop headers asserted parallel by the programmer (the HLS-pragma
    /// equivalent; Cilk `par_for` regions are parallel by construction and
    /// do not need this).
    pub parallel_hints: Vec<BlockId>,
}

impl Function {
    /// The instruction behind `id`.
    pub fn instr(&self, id: InstrId) -> &Instr {
        &self.instrs[id.0 as usize]
    }

    /// Mutable access to the instruction behind `id`.
    pub(crate) fn instr_mut(&mut self, id: InstrId) -> &mut Instr {
        &mut self.instrs[id.0 as usize]
    }

    /// The block behind `id`.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Terminator instruction of a block, if the block is complete.
    pub fn terminator(&self, id: BlockId) -> Option<&Instr> {
        self.block(id)
            .instrs
            .last()
            .map(|&i| self.instr(i))
            .filter(|i| i.is_terminator())
    }

    /// Successor blocks of `id` in the CFG.
    pub fn successors(&self, id: BlockId) -> Succs {
        self.terminator(id)
            .map_or(Op::Ret.successors(), |t| t.op.successors())
    }

    /// The predecessor table: for each block, the blocks that branch to
    /// it, in ascending source order (once per branching edge).
    pub fn predecessors(&self) -> Preds {
        let n = self.blocks.len();
        // Out-of-range targets are reported by the verifier; they are
        // left out here rather than panicking.
        Preds(Groups::new(n, || {
            self.block_ids().flat_map(move |b| {
                self.successors(b)
                    .into_iter()
                    .filter(move |s| (s.0 as usize) < n)
                    .map(move |s| (s.0 as usize, b))
            })
        }))
    }

    /// All block ids in arena order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterate `(InstrId, &Instr)` over a block's instructions.
    pub fn block_instrs(&self, id: BlockId) -> impl Iterator<Item = (InstrId, &Instr)> {
        self.block(id)
            .instrs
            .iter()
            .map(move |&i| (i, self.instr(i)))
    }
}

/// Values grouped by a dense key in one flat table: group `k` is
/// `values[offsets[k]..offsets[k + 1]]`, in the order the pairs came.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Groups<V> {
    offsets: Vec<u32>,
    values: Vec<V>,
}

impl<V: Copy> Groups<V> {
    /// Group the `(key, value)` pairs `pairs` yields, every key below `n`:
    /// one pass counts, a second places.
    pub(crate) fn new<I: Iterator<Item = (usize, V)>>(
        n: usize,
        pairs: impl Fn() -> I,
    ) -> Groups<V> {
        let mut offsets = vec![0u32; n + 1];
        let mut first = None;
        for (k, v) in pairs() {
            offsets[k + 1] += 1;
            first.get_or_insert(v);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let Some(fill) = first else {
            return Groups {
                offsets,
                values: Vec::new(),
            };
        };
        let mut next = offsets.clone();
        let mut values = vec![fill; offsets[n] as usize];
        for (k, v) in pairs() {
            values[next[k] as usize] = v;
            next[k] += 1;
        }
        Groups { offsets, values }
    }

    /// Group `k`; empty for a key out of range.
    pub(crate) fn of(&self, k: usize) -> &[V] {
        match (self.offsets.get(k), self.offsets.get(k + 1)) {
            (Some(&lo), Some(&hi)) => &self.values[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

/// A function's CFG predecessor lists in one flat table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Preds(Groups<BlockId>);

impl Preds {
    /// The predecessors of `b`, in ascending source order; empty for a
    /// block id out of range.
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        self.0.of(b.0 as usize)
    }
}

/// A named memory object (array). One object per source array; each object
/// is an independent address space in the partitioned global address space
/// of §3.2's memory model.
#[derive(Debug, Clone)]
pub struct MemObject {
    /// Source-level array name.
    pub name: String,
    /// Element kind (one element per address slot).
    pub elem: ScalarType,
    /// Number of element slots.
    pub len: u64,
    /// Whether the object is read-only for the accelerator (stream-in data).
    pub read_only: bool,
}

/// A module: functions plus memory objects. `main` (the first function added)
/// is the accelerator's root region.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (workload name).
    pub name: String,
    /// Function arena; [`FuncId`] indexes into this.
    pub functions: Vec<Function>,
    /// Memory-object arena; [`MemObjId`] indexes into this.
    pub mem_objects: Vec<MemObject>,
}

impl Module {
    /// New empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            mem_objects: Vec::new(),
        }
    }

    /// Register a memory object and return its id.
    pub fn add_mem_object(
        &mut self,
        name: impl Into<String>,
        elem: ScalarType,
        len: u64,
    ) -> MemObjId {
        let id = MemObjId(self.mem_objects.len() as u32);
        self.mem_objects.push(MemObject {
            name: name.into(),
            elem,
            len,
            read_only: false,
        });
        id
    }

    /// Register a read-only memory object (input stream) and return its id.
    pub fn add_ro_mem_object(
        &mut self,
        name: impl Into<String>,
        elem: ScalarType,
        len: u64,
    ) -> MemObjId {
        let id = self.add_mem_object(name, elem, len);
        self.mem_objects[id.0 as usize].read_only = true;
        id
    }

    /// Add a function and return its id. The first function added is `main`.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// The function behind `id`.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// The root function (first added), if present.
    pub fn main(&self) -> Option<&Function> {
        self.functions.first()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::ValueRef;

    fn tiny_module() -> Module {
        let mut m = Module::new("tiny");
        let a = m.add_mem_object("a", ScalarType::I32, 16);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        let v = b.load(a, ValueRef::int(0));
        let w = b.add(v, ValueRef::int(1));
        b.store(a, ValueRef::int(0), w);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn module_accessors() {
        let m = tiny_module();
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.mem_objects.len(), 1);
        assert_eq!(m.mem_objects[0].name, "a");
        assert_eq!(m.main().unwrap().name, "main");
        assert!(m.function(FuncId(0)).instrs.len() >= 4);
    }

    #[test]
    fn cfg_queries() {
        let m = tiny_module();
        let f = m.main().unwrap();
        assert!(f.successors(f.entry).is_empty());
        assert!(f.terminator(f.entry).is_some());
        let preds = f.predecessors();
        assert!(preds.of(f.entry).is_empty());
        assert!(preds.of(BlockId(99)).is_empty());
    }

    #[test]
    fn predecessor_table_lists_every_edge_in_source_order() {
        let mut b = FunctionBuilder::new("p", &[]);
        let (x, y, d) = (b.block("x"), b.block("y"), b.block("dangling"));
        b.cond_br(ValueRef::Const(crate::instr::ConstVal::Bool(true)), y, y);
        b.switch_to(x);
        b.br(y);
        b.switch_to(y);
        b.ret(None);
        // A branch past the last block is the verifier's to report.
        b.switch_to(d);
        b.br(BlockId(77));
        let f = b.finish();
        let preds = f.predecessors();
        assert_eq!(preds.of(y), [f.entry, f.entry, x]);
        assert!(preds.of(x).is_empty());
        assert!(preds.of(d).is_empty());
    }

    #[test]
    fn counts() {
        let m = tiny_module();
        let f = m.main().unwrap();
        let mem = |i: &&Instr| matches!(i.op, Op::Load { .. } | Op::Store { .. });
        assert_eq!(f.instrs.iter().filter(mem).count(), 2);
        // add uses load result; store uses add result.
        let operands = f.instrs.iter().flat_map(|i| &i.operands);
        let ssa_edges = operands.filter(|o| matches!(o, ValueRef::Instr(_)));
        assert_eq!(ssa_edges.count(), 2);
    }

    #[test]
    fn read_only_objects() {
        let mut m = Module::new("ro");
        let id = m.add_ro_mem_object("w", ScalarType::F32, 8);
        assert!(m.mem_objects[id.0 as usize].read_only);
    }
}
