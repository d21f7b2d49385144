//! Dataflow nodes: the function units, memory transit points, and
//! child-task call sites inside a task block's pipeline (§3.3).

use crate::dataflow::JunctionId;
use muir_mir::instr::{BinOp, CastOp, CmpPred, ConstVal, MemObjId, TensorOp, UnOp};
use muir_mir::types::{TensorShape, Type};
use std::fmt;

/// The operation a compute node performs. Nodes are *polymorphic*: the same
/// op kind instantiates scalar, vector, or tensor function units depending
/// on the node's [`Type`]; the RTL backend infers physical wire widths from
/// the type (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum OpKind {
    /// Binary arithmetic/logic.
    Bin(BinOp),
    /// Unary math.
    Un(UnOp),
    /// Comparison.
    Cmp(CmpPred),
    /// 3-input select (also used for dataflow predication merges).
    Select,
    /// Type cast.
    Cast(CastOp),
    /// Tensor higher-order op over tiles of the given shape (§6.3).
    Tensor(TensorOp, TensorShape),
}

impl OpKind {
    /// Number of data inputs the op consumes.
    pub fn arity(self) -> usize {
        match self {
            OpKind::Bin(_) | OpKind::Cmp(_) => 2,
            OpKind::Un(_) | OpKind::Cast(_) => 1,
            OpKind::Select => 3,
            OpKind::Tensor(t, _) => {
                if t.is_unary() {
                    1
                } else {
                    2
                }
            }
        }
    }

    /// Mnemonic for printing and RTL emission (the [`fmt::Display`] text).
    pub(crate) fn mnemonic(self) -> String {
        self.to_string()
    }
}

/// The mnemonic, written piecewise so a caller formatting into its own
/// buffer allocates nothing here.
impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Bin(b) => f.write_str(b.mnemonic()),
            OpKind::Un(u) => f.write_str(u.mnemonic()),
            OpKind::Cmp(p) => write!(f, "cmp.{p}"),
            OpKind::Select => f.write_str("select"),
            OpKind::Cast(CastOp::SiToFp) => f.write_str("sitofp"),
            OpKind::Cast(CastOp::FpToSi) => f.write_str("fptosi"),
            OpKind::Cast(CastOp::IntResize) => f.write_str("resize"),
            OpKind::Tensor(t, s) => write!(f, "{}<{s}>", t.mnemonic()),
        }
    }
}

/// Input source of a step inside a fused node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusedInput {
    /// The fused node's external input port `n`.
    External(u16),
    /// The result of an earlier step of the plan.
    Step(u16),
}

/// One operation inside a fused node.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct FusedStep {
    /// The operation.
    pub op: OpKind,
    /// Its result type.
    pub ty: Type,
    /// Where each operand comes from.
    pub inputs: Vec<FusedInput>,
}

/// Evaluation plan of a fused node: a mini-DAG of ops executed as one
/// (deeper) pipeline stage group, eliminating the interior ready/valid
/// handshakes and pipeline registers (§6.1, Figure 10).
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct FusedPlan {
    /// Number of external input ports.
    pub arity: u16,
    /// Steps in dependence order; the last step's result is the output.
    pub steps: Vec<FusedStep>,
}

impl FusedPlan {
    /// Total number of primitive ops fused together.
    pub fn op_count(&self) -> usize {
        self.steps.len()
    }
}

/// What a dataflow node is (§3.3's three flavours — single-cycle
/// combinational, multi-cycle internally-pipelined, and non-deterministic
/// transit — are distinguished by [`crate::hw::op_timing`] over these
/// kinds).
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum NodeKind {
    /// Delivers the task's `index`-th argument each invocation (live-in
    /// buffer, §3.5).
    Input {
        /// Argument index.
        index: u32,
    },
    /// Induction-variable stream of a loop task: emits one token per
    /// iteration.
    IndVar,
    /// Constant generator.
    Const(ConstVal),
    /// A function unit.
    Compute(OpKind),
    /// A fused function-unit group (op-fusion pass output).
    Fused(FusedPlan),
    /// Loop-carried merge: iteration 0 takes port 0 (init); iteration i>0
    /// takes port 1 (the feedback edge from iteration i-1). Breaks the
    /// combinational loop of backward edges with a registered,
    /// latency-insensitive edge (§3.5, after Arvind & Nikhil).
    Merge,
    /// A re-timed accumulator unit: the op-fusion pass (§4 Pass 5) fuses a
    /// `Merge` + commutative binary op + feedback triangle into one
    /// self-accumulating function unit, eliminating the handshake hops on
    /// the loop-carried path. Port 0 = per-invocation initial value
    /// (static); port 1 = the per-iteration operand. The recurrence runs
    /// at the member op's own latency.
    FusedAcc {
        /// The accumulation op (commutative: scalar or tensor add/mul).
        op: OpKind,
    },
    /// Memory-load transit point; the databox behind the junction slices
    /// the typed access into word transactions (§3.4). Port 0 = element
    /// index; port 1 = predicate when `predicated`.
    Load {
        /// Accessed object (address space).
        obj: MemObjId,
        /// Junction routing this node to its structure.
        junction: JunctionId,
        /// Whether a predicate input gates the access.
        predicated: bool,
    },
    /// Memory-store transit point. Port 0 = element index, port 1 = value,
    /// port 2 = predicate when `predicated`.
    Store {
        /// Accessed object (address space).
        obj: MemObjId,
        /// Junction routing this node to its structure.
        junction: JunctionId,
        /// Whether a predicate input gates the access.
        predicated: bool,
    },
    /// Invocation of a child task block: a variable-latency
    /// non-deterministic request/response node (§3.5). Ports 0..n = child
    /// arguments, then the predicate when `predicated`. Output ports =
    /// child results.
    TaskCall {
        /// Callee task.
        callee: crate::accel::TaskId,
        /// Whether a predicate input gates the call.
        predicated: bool,
        /// Cilk-style spawn: the call completes at *enqueue* (the parent
        /// continues immediately); the enclosing invocation's implicit sync
        /// waits for the child's response. Blocking calls (`false`)
        /// complete at the child's response (nested sequential loops).
        spawn: bool,
    },
    /// Collects the task's results; completes invocations in order (§3.2).
    Output,
}

impl NodeKind {
    /// Short kind tag (used by dot dumps and stats).
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            NodeKind::Input { .. } => "input",
            NodeKind::IndVar => "indvar",
            NodeKind::Const(_) => "const",
            NodeKind::Compute(_) => "compute",
            NodeKind::Fused(_) => "fused",
            NodeKind::Merge => "merge",
            NodeKind::FusedAcc { .. } => "fusedacc",
            NodeKind::Load { .. } => "load",
            NodeKind::Store { .. } => "store",
            NodeKind::TaskCall { .. } => "taskcall",
            NodeKind::Output => "output",
        }
    }

    /// Whether this node is a memory transit point.
    pub(crate) fn is_mem(&self) -> bool {
        matches!(self, NodeKind::Load { .. } | NodeKind::Store { .. })
    }
}

/// Longest name held inline: with the tag and the length byte, a [`Name`]
/// is as large as a `String`.
const INLINE: usize = 22;

/// A node's debug name. It hashes, compares, prints and dereferences
/// exactly as the `str` it holds (so content hashes and every text output
/// are those of a `String` name), and a name of at most 22 bytes — all the
/// frontend makes and most fused names — lives inline, so naming,
/// cloning and dropping a node allocate nothing.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Inline(Inline),
    Heap(Box<str>),
}

/// An inline name: `bytes[..len]` is always valid UTF-8, because it is
/// only ever written whole `str`s.
#[derive(Clone, Copy)]
struct Inline {
    len: u8,
    bytes: [u8; INLINE],
}

/// Appends whole `str`s; fails (leaving a valid prefix) when one does not
/// fit.
impl fmt::Write for Inline {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let at = usize::from(self.len);
        let end = at + s.len();
        let dst = self.bytes.get_mut(at..end).ok_or(fmt::Error)?;
        dst.copy_from_slice(s.as_bytes());
        self.len = end as u8;
        Ok(())
    }
}

impl Name {
    /// The formatted text of `args`, formatted in place: a name that fits
    /// inline allocates nothing.
    pub fn format(args: fmt::Arguments<'_>) -> Name {
        let mut inline = Inline {
            len: 0,
            bytes: [0; INLINE],
        };
        match fmt::Write::write_fmt(&mut inline, args) {
            Ok(()) => Name(Repr::Inline(inline)),
            Err(_) => Name(Repr::Heap(fmt::format(args).into_boxed_str())),
        }
    }

    /// The name as a `str`.
    pub(crate) fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(i) => {
                std::str::from_utf8(&i.bytes[..usize::from(i.len)]).expect("whole strs only")
            }
            Repr::Heap(s) => s,
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::format(format_args!("{s}"))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::from(s.as_str())
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A node in a task's dataflow.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Node {
    /// Debug name.
    pub name: Name,
    /// What the node is.
    pub kind: NodeKind,
    /// Output value type (for `Store`/`Output`, the consumed value type).
    pub ty: Type,
}

impl Node {
    /// Construct a node.
    pub fn new(name: impl Into<Name>, kind: NodeKind, ty: Type) -> Node {
        Node {
            name: name.into(),
            kind,
            ty,
        }
    }

    /// Number of input ports this node exposes, given `task_arity` lookup
    /// for task calls (pass 0 if unknown).
    pub(crate) fn input_arity(&self, callee_args: usize) -> usize {
        match &self.kind {
            NodeKind::Input { .. } | NodeKind::IndVar | NodeKind::Const(_) => 0,
            NodeKind::Compute(op) => op.arity(),
            NodeKind::Fused(plan) => plan.arity as usize,
            NodeKind::Merge | NodeKind::FusedAcc { .. } => 2,
            NodeKind::Load { predicated, .. } => 1 + usize::from(*predicated),
            NodeKind::Store { predicated, .. } => 2 + usize::from(*predicated),
            NodeKind::TaskCall { predicated, .. } => callee_args + usize::from(*predicated),
            NodeKind::Output => usize::MAX, // determined by the task's result count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_mir::instr::BinOp;
    use muir_mir::types::ScalarType;

    #[test]
    fn op_arity() {
        assert_eq!(OpKind::Bin(BinOp::Add).arity(), 2);
        assert_eq!(OpKind::Un(UnOp::Relu).arity(), 1);
        assert_eq!(OpKind::Select.arity(), 3);
        assert_eq!(
            OpKind::Tensor(TensorOp::MatMul, TensorShape::new(2, 2)).arity(),
            2
        );
        assert_eq!(
            OpKind::Tensor(TensorOp::Relu, TensorShape::new(2, 2)).arity(),
            1
        );
    }

    #[test]
    fn node_input_arity() {
        let n = Node::new("add", NodeKind::Compute(OpKind::Bin(BinOp::Add)), Type::I64);
        assert_eq!(n.input_arity(0), 2);
        let ld = Node::new(
            "ld",
            NodeKind::Load {
                obj: MemObjId(0),
                junction: JunctionId(0),
                predicated: true,
            },
            Type::F32,
        );
        assert_eq!(ld.input_arity(0), 2);
        let st = Node::new(
            "st",
            NodeKind::Store {
                obj: MemObjId(0),
                junction: JunctionId(0),
                predicated: false,
            },
            Type::F32,
        );
        assert_eq!(st.input_arity(0), 2);
        let tc = Node::new(
            "call",
            NodeKind::TaskCall {
                callee: crate::accel::TaskId(1),
                predicated: false,
                spawn: false,
            },
            Type::I64,
        );
        assert_eq!(tc.input_arity(3), 3);
    }

    #[test]
    fn fused_plan_counts() {
        let plan = FusedPlan {
            arity: 2,
            steps: vec![
                FusedStep {
                    op: OpKind::Bin(BinOp::Add),
                    ty: Type::I64,
                    inputs: vec![FusedInput::External(0), FusedInput::External(1)],
                },
                FusedStep {
                    op: OpKind::Bin(BinOp::Shl),
                    ty: Type::I64,
                    inputs: vec![FusedInput::Step(0), FusedInput::External(1)],
                },
            ],
        };
        assert_eq!(plan.op_count(), 2);
    }

    #[test]
    fn mnemonics_and_tags() {
        assert_eq!(OpKind::Bin(BinOp::FMul).mnemonic(), "fmul");
        assert!(OpKind::Tensor(TensorOp::MatMul, TensorShape::new(2, 2))
            .mnemonic()
            .contains("tensor.matmul"));
        let n = Node::new(
            "x",
            NodeKind::Load {
                obj: MemObjId(0),
                junction: JunctionId(0),
                predicated: false,
            },
            Type::Scalar(ScalarType::F32),
        );
        assert_eq!(n.kind.tag(), "load");
        assert!(n.kind.is_mem());
        assert!(!NodeKind::Merge.is_mem());
    }
}
