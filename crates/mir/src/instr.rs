//! Instruction set of the compiler IR.
//!
//! The set mirrors the subset of LLVM IR the paper's front-end consumes:
//! three-operand scalar ops, comparisons, casts, φ-nodes, memory ops against
//! named objects, ordinary and parallel (Tapir) terminators, calls, and the
//! tensor intrinsics used by the Tensorflow path (§6.3).

use crate::types::{TensorShape, Type};
use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Index of an instruction within its [`crate::module::Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstrId(pub u32);

/// Index of a basic block within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a function within its [`crate::module::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Index of a memory object (array) within its module. Each object is its
/// own address space, which makes the paper's `LLVMPointsto` (Algorithm 2)
/// a constant-time lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemObjId(pub u32);

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}
impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}
impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@fn{}", self.0)
    }
}
impl fmt::Display for MemObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@mem{}", self.0)
    }
}

/// A scalar immediate constant. Kept scalar-only (and therefore `Copy`) so
/// that [`ValueRef`] is `Copy`; composite constants are built with loads or
/// element-wise construction in the workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstVal {
    /// Boolean immediate.
    Bool(bool),
    /// Integer immediate.
    Int(i64),
    /// Float immediate.
    F32(f32),
}

/// Variant tag, then the payload's exact bits: floats hash by `to_bits`,
/// so a content hash tells NaN payloads apart, and `0.0` from `-0.0`.
impl Hash for ConstVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match *self {
            ConstVal::Bool(b) => b.hash(state),
            ConstVal::Int(v) => v.hash(state),
            ConstVal::F32(v) => v.to_bits().hash(state),
        }
    }
}

impl ConstVal {
    /// Promote to a runtime [`Value`].
    pub fn to_value(self) -> Value {
        match self {
            ConstVal::Bool(b) => Value::Bool(b),
            ConstVal::Int(v) => Value::Int(v),
            ConstVal::F32(v) => Value::F32(v),
        }
    }
}

impl fmt::Display for ConstVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstVal::Bool(b) => write!(f, "{b}"),
            ConstVal::Int(v) => write!(f, "{v}"),
            // Debug formatting keeps the decimal point ("2.0"), so float
            // constants are never mistaken for integers when parsed back.
            ConstVal::F32(v) => write!(f, "{v:?}"),
        }
    }
}

/// A reference to an SSA value: another instruction's result, a function
/// argument, or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef {
    /// Result of instruction `InstrId` in the same function.
    Instr(InstrId),
    /// The `n`-th function argument.
    Arg(u32),
    /// An immediate constant.
    Const(ConstVal),
}

impl ValueRef {
    /// Integer-constant convenience constructor.
    pub fn int(v: i64) -> ValueRef {
        ValueRef::Const(ConstVal::Int(v))
    }
    /// Float-constant convenience constructor.
    pub fn f32(v: f32) -> ValueRef {
        ValueRef::Const(ConstVal::F32(v))
    }
    /// The referenced instruction id, if any.
    pub fn as_instr(&self) -> Option<InstrId> {
        match self {
            ValueRef::Instr(id) => Some(*id),
            _ => None,
        }
    }
}

impl fmt::Display for ValueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Instr(id) => write!(f, "{id}"),
            ValueRef::Arg(n) => write!(f, "%arg{n}"),
            ValueRef::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Integer/float comparison predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl fmt::Display for CmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Lt => "lt",
            CmpPred::Le => "le",
            CmpPred::Gt => "gt",
            CmpPred::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Binary arithmetic/logic opcodes (RISC-style 3-operand, per §2.1 Opt. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide (signed).
    Div,
    /// Integer remainder (signed).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Float add.
    FAdd,
    /// Float subtract.
    FSub,
    /// Float multiply.
    FMul,
    /// Float divide.
    FDiv,
}

impl BinOp {
    /// Whether the op operates on floats.
    pub(crate) fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// Mnemonic used by the printer and the Chisel emitter.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Unary math opcodes (used by the ML-flavoured workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Float negation.
    FNeg,
    /// e^x (softmax).
    Exp,
    /// Square root (covariance normalization).
    Sqrt,
    /// max(x, 0) (ReLU).
    Relu,
}

impl UnOp {
    /// Mnemonic used by the printer and the Chisel emitter.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::FNeg => "fneg",
            UnOp::Exp => "exp",
            UnOp::Sqrt => "sqrt",
            UnOp::Relu => "relu",
        }
    }
}

/// Element-wise / matrix tensor opcodes (the paper's higher-order ops, §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorOp {
    /// Element-wise add.
    Add,
    /// Tile matrix multiply (reduction-tree unit of Figure 14).
    MatMul,
    /// Element-wise multiply.
    Mul,
    /// Element-wise ReLU.
    Relu,
    /// Tile convolution (dot product of tile with a weight tile).
    Conv,
    /// Sum-reduce every tile element to one scalar (reduction tree
    /// without the multiplier row of Figure 14).
    Reduce,
    /// Softmax over the tile's elements: `exp(x_k) / Σ_j exp(x_j)`.
    /// Always produces F32 lanes (like the scalar `exp` unit).
    Softmax,
}

impl TensorOp {
    /// Mnemonic used by the printer and the Chisel emitter.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TensorOp::Add => "tensor.add",
            TensorOp::MatMul => "tensor.matmul",
            TensorOp::Mul => "tensor.mul",
            TensorOp::Relu => "tensor.relu",
            TensorOp::Conv => "tensor.conv",
            TensorOp::Reduce => "tensor.reduce",
            TensorOp::Softmax => "tensor.softmax",
        }
    }

    /// Whether the op consumes one tile (vs two).
    pub fn is_unary(self) -> bool {
        matches!(self, TensorOp::Relu | TensorOp::Reduce | TensorOp::Softmax)
    }

    /// Whether the op reduces its tile to a single scalar.
    pub(crate) fn reduces_to_scalar(self) -> bool {
        matches!(self, TensorOp::Conv | TensorOp::Reduce)
    }
}

/// Cast opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastOp {
    /// Signed int → float.
    SiToFp,
    /// Float → signed int (truncating).
    FpToSi,
    /// Integer truncate / widen (value-preserving in our i64 carrier).
    IntResize,
}

/// The operation performed by an [`Instr`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Binary arithmetic/logic; operands: `[lhs, rhs]`.
    Bin(BinOp),
    /// Unary math; operands: `[x]`.
    Un(UnOp),
    /// Comparison producing `i1`; operands: `[lhs, rhs]`.
    Cmp(CmpPred),
    /// `select cond, a, b`; operands: `[cond, a, b]`.
    Select,
    /// Cast; operands: `[x]`.
    Cast(CastOp),
    /// SSA φ; operands parallel to `preds` (incoming block per operand).
    Phi {
        /// Incoming blocks, parallel to the operand list.
        preds: PhiPreds,
    },
    /// Load from a memory object; operands: `[element_index]`. The loaded
    /// type is the instruction's result type (scalar, vector or tensor).
    Load {
        /// The accessed object (its address space).
        obj: MemObjId,
    },
    /// Store to a memory object; operands: `[element_index, value]`.
    Store {
        /// The accessed object (its address space).
        obj: MemObjId,
    },
    /// Tensor arithmetic; operands: `[a]` or `[a, b]` depending on the op.
    Tensor(TensorOp, TensorShape),
    /// Call of another function; operands: arguments.
    Call {
        /// Callee.
        callee: FuncId,
    },
    /// Unconditional branch terminator.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch terminator; operands: `[cond]`.
    CondBr {
        /// Taken when the condition is true.
        t: BlockId,
        /// Taken when the condition is false.
        f: BlockId,
    },
    /// Return terminator; operands: `[]` or `[value]`.
    Ret,
    /// Tapir `detach`: spawn `body` as a concurrent task, continue at `cont`.
    /// Operands: live-in values forwarded to the spawned region (captured
    /// closure arguments; the paper's task closure, §3.6).
    Detach {
        /// Entry block of the spawned region.
        body: BlockId,
        /// Continuation block of the parent.
        cont: BlockId,
    },
    /// Tapir `reattach`: terminates a spawned region, returning control
    /// (logically) to the parent's continuation.
    Reattach {
        /// The parent continuation this region reattaches to.
        cont: BlockId,
    },
    /// Tapir `sync`: wait for all tasks spawned in the current region.
    Sync {
        /// Block to continue at once children have completed.
        cont: BlockId,
    },
}

impl Op {
    /// Whether this op terminates a basic block.
    pub(crate) fn is_terminator(&self) -> bool {
        matches!(
            self,
            Op::Br { .. }
                | Op::CondBr { .. }
                | Op::Ret
                | Op::Detach { .. }
                | Op::Reattach { .. }
                | Op::Sync { .. }
        )
    }

    /// Successor blocks of a terminator (empty for non-terminators,
    /// `Ret` and `Reattach`), held inline.
    pub fn successors(&self) -> Succs {
        match *self {
            Op::Br { target } | Op::Sync { cont: target } => Succs::new([target, target], 1),
            Op::CondBr { t, f } => Succs::new([t, f], 2),
            Op::Detach { body, cont } => Succs::new([body, cont], 2),
            _ => Succs::new([BlockId(0); 2], 0),
        }
    }

    /// Short mnemonic for printing and statistics.
    pub fn mnemonic(&self) -> String {
        match self {
            Op::Bin(b) => b.mnemonic().to_string(),
            Op::Un(u) => u.mnemonic().to_string(),
            Op::Cmp(p) => format!("icmp.{p}"),
            Op::Select => "select".to_string(),
            Op::Cast(CastOp::SiToFp) => "sitofp".to_string(),
            Op::Cast(CastOp::FpToSi) => "fptosi".to_string(),
            Op::Cast(CastOp::IntResize) => "resize".to_string(),
            Op::Phi { .. } => "phi".to_string(),
            Op::Load { .. } => "load".to_string(),
            Op::Store { .. } => "store".to_string(),
            Op::Tensor(t, _) => t.mnemonic().to_string(),
            Op::Call { .. } => "call".to_string(),
            Op::Br { .. } => "br".to_string(),
            Op::CondBr { .. } => "condbr".to_string(),
            Op::Ret => "ret".to_string(),
            Op::Detach { .. } => "detach".to_string(),
            Op::Reattach { .. } => "reattach".to_string(),
            Op::Sync { .. } => "sync".to_string(),
        }
    }
}

/// A terminator's successor blocks, at most two, without a heap list:
/// dereferences to a slice in branch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Succs {
    blocks: [BlockId; 2],
    len: u8,
}

impl Succs {
    fn new(blocks: [BlockId; 2], len: u8) -> Succs {
        Succs { blocks, len }
    }
}

impl std::ops::Deref for Succs {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.blocks[..usize::from(self.len)]
    }
}

impl IntoIterator for Succs {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(usize::from(self.len))
    }
}

/// A list that holds up to `N` items inline and moves to the heap past
/// that: an instruction has at most three operands in every program the
/// registry and the tensor lowering produce, so parsing or building one
/// allocates nothing for them. Dereferences to a slice; compares, prints
/// and clones as one.
#[derive(Clone)]
pub struct InlineList<T: Copy, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    /// `1..=N` items; the slots past `len` repeat the first.
    Inline { len: u8, items: [T; N] },
    /// No items (an empty `Vec` holds no allocation), or more than `N`.
    Heap(Vec<T>),
}

/// An instruction's operand list.
pub type Operands = InlineList<ValueRef, 3>;

/// A φ's incoming blocks, parallel to its operands.
pub type PhiPreds = InlineList<BlockId, 3>;

impl<T: Copy, const N: usize> InlineList<T, N> {
    /// An empty list (no allocation).
    pub const fn new() -> Self {
        InlineList(Repr::Heap(Vec::new()))
    }

    /// Append `x`, moving to the heap when the inline slots are full.
    pub fn push(&mut self, x: T) {
        match &mut self.0 {
            Repr::Heap(v) if v.is_empty() && N > 0 => {
                self.0 = Repr::Inline {
                    len: 1,
                    items: [x; N],
                };
            }
            Repr::Heap(v) => v.push(x),
            Repr::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = x;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(items);
                v.push(x);
                self.0 = Repr::Heap(v);
            }
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        InlineList::new()
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> std::ops::DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = InlineList::new();
        for x in iter {
            list.push(x);
        }
        list
    }
}

impl<T: Copy, const N: usize, const K: usize> From<[T; K]> for InlineList<T, N> {
    fn from(items: [T; K]) -> Self {
        items.into_iter().collect()
    }
}

impl<T: Copy, const N: usize> From<Vec<T>> for InlineList<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() > N {
            InlineList(Repr::Heap(v))
        } else {
            v.into_iter().collect()
        }
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a mut InlineList<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One SSA instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// The operation.
    pub op: Op,
    /// Result type (`None` for stores and terminators).
    pub ty: Option<Type>,
    /// Operand list; meaning depends on [`Op`].
    pub operands: Operands,
    /// The block this instruction belongs to (maintained by the builder).
    pub block: BlockId,
}

impl Instr {
    /// Whether this instruction terminates its block.
    pub(crate) fn is_terminator(&self) -> bool {
        self.op.is_terminator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(Op::Br { target: BlockId(0) }.is_terminator());
        assert!(Op::Ret.is_terminator());
        assert!(Op::Detach {
            body: BlockId(1),
            cont: BlockId(2)
        }
        .is_terminator());
        assert!(!Op::Bin(BinOp::Add).is_terminator());
        assert!(!Op::Load { obj: MemObjId(0) }.is_terminator());
    }

    #[test]
    fn successors() {
        let op = Op::CondBr {
            t: BlockId(1),
            f: BlockId(2),
        };
        assert_eq!(*op.successors(), [BlockId(1), BlockId(2)]);
        assert!(Op::Ret.successors().is_empty());
        assert!(Op::Reattach { cont: BlockId(3) }.successors().is_empty());
        assert_eq!(*Op::Sync { cont: BlockId(3) }.successors(), [BlockId(3)]);
        let order: Vec<BlockId> = Op::Detach {
            body: BlockId(4),
            cont: BlockId(5),
        }
        .successors()
        .into_iter()
        .collect();
        assert_eq!(order, [BlockId(4), BlockId(5)]);
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Op::Bin(BinOp::FMul).mnemonic(), "fmul");
        assert_eq!(Op::Cmp(CmpPred::Lt).mnemonic(), "icmp.lt");
        assert_eq!(
            Op::Tensor(TensorOp::MatMul, TensorShape::new(2, 2)).mnemonic(),
            "tensor.matmul"
        );
    }

    /// Past its inline slots a list moves to the heap and still reads,
    /// writes, compares, clones and prints as the slice it holds.
    #[test]
    fn inline_list_spills_to_the_heap_past_its_slots() {
        let mut list = InlineList::<u32, 3>::new();
        assert!(list.is_empty());
        for x in 0..5 {
            list.push(x);
            assert_eq!(*list, (0..=x).collect::<Vec<_>>()[..]);
        }
        assert_eq!(list, InlineList::from(vec![0, 1, 2, 3, 4]));
        assert_eq!(list, (0..5).collect());
        assert_ne!(list, InlineList::from([0, 1, 2]));
        assert_ne!(list, InlineList::from(vec![0, 1, 2, 3, 5]));
        list[4] = 9;
        for x in &mut list {
            *x += 1;
        }
        assert_eq!(*list, [1, 2, 3, 4, 10]);
        assert_eq!(list.clone(), list);
        assert_eq!(format!("{list:?}"), "[1, 2, 3, 4, 10]");
        // A short `Vec` goes inline and equals the same items pushed.
        let mut pushed = InlineList::<u32, 3>::new();
        pushed.push(7);
        pushed.push(8);
        assert_eq!(InlineList::from(vec![7, 8]), pushed);
        assert_eq!(InlineList::<u32, 3>::from(Vec::new()), InlineList::new());
    }

    #[test]
    fn value_ref_constructors() {
        assert_eq!(ValueRef::int(3), ValueRef::Const(ConstVal::Int(3)));
        assert_eq!(ValueRef::Instr(InstrId(4)).as_instr(), Some(InstrId(4)));
        assert_eq!(ValueRef::Arg(0).as_instr(), None);
        assert_eq!(ConstVal::Int(3).to_value(), Value::Int(3));
        assert_eq!(ConstVal::F32(1.0).to_value(), Value::F32(1.0));
        assert_eq!(ConstVal::Bool(true).to_value(), Value::Bool(true));
    }
}
