//! `muir-core` — the μIR microarchitecture graph (the paper's contribution).
//!
//! μIR represents an accelerator as a **latency-agnostic structural graph**
//! (§3.1): components execute in parallel and communicate through sequences
//! of atomic tokens over ready/valid edges, so the timing of individual
//! components never affects functional correctness. The graph is organised
//! in a hierarchy mirroring a compiler IR's
//! module→function→block→instruction structure:
//!
//! * **whole-accelerator level** ([`accel::Accelerator`]): asynchronous
//!   [`accel::TaskBlock`]s wired by `<||>` spawn/sync connections, hardware
//!   [`structure::Structure`]s (scratchpads, caches, the DRAM/AXI port)
//!   wired by `<==>` request/response connections (§3.2);
//! * **per-task dataflow** ([`dataflow::Dataflow`]): polymorphic typed
//!   [`node::Node`]s (function units, memory transit points, child-task
//!   calls) connected 1-1, plus [`dataflow::Junction`]s giving the
//!   distributed memory nodes time-multiplexed access to structures (§3.3,
//!   §3.4).
//!
//! The graph is *transformed* by `muir-uopt` passes, *measured* by the
//! `muir-sim` cycle-level simulator, and *lowered* by `muir-rtl` to
//! Chisel-like RTL and a FIRRTL-like circuit graph.

pub mod accel;
pub mod compiled;
pub mod dataflow;
pub mod dot;
pub mod envelope;
pub mod hw;
pub mod json;
pub mod node;
pub mod printer;
pub mod rng;
pub mod stats;
pub mod structure;
pub mod telemetry;
pub mod verify;

pub use accel::{
    AccelGraph, Accelerator, ArgExpr, LoopSpec, MemConnection, ResultInit, TaskBlock,
    TaskConnection, TaskId, TaskKind,
};
pub use compiled::{content_hash, CompiledAccel, CompiledTask, ContentHasher};
pub use dataflow::{Buffering, Dataflow, Edge, EdgeIndex, EdgeKind, Junction, JunctionId, NodeId};
pub use node::{FusedInput, FusedPlan, FusedStep, Name, Node, NodeKind, OpKind};
pub use structure::{Structure, StructureId, StructureKind};

// The type system is shared with the compiler IR.
pub use muir_mir::types::{ScalarType, TensorShape, Type};
