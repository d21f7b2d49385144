//! `muir-mir` — a compact SSA compiler IR with Tapir-style parallel control flow.
//!
//! This crate is the software-side substrate of the μIR reproduction. The
//! MICRO-52 paper consumes LLVM IR (with Tapir `detach`/`reattach`/`sync`
//! extensions for Cilk and Tensorflow lowering) purely as a *graph source*:
//! the front-end walks the program-dependence graph, aggregates basic blocks
//! into task regions, and lowers each region's instructions to μIR dataflow
//! nodes. `muir-mir` provides the same ingredients without linking LLVM:
//!
//! * an SSA value graph over typed instructions ([`instr::Op`]),
//! * a control-flow graph of basic blocks with terminators,
//! * Tapir-style parallel terminators (`detach`/`reattach`/`sync`),
//! * named memory objects, each its own address space (so the paper's
//!   `LLVMPointsto` becomes a trivial lookup),
//! * tensor intrinsics (`Tensor2D` loads/stores and arithmetic) that model
//!   the Tensorflow path,
//! * a [`builder`] API used by `muir-workloads` to express every benchmark,
//! * a reference [`interp`]reter: the functional golden model that all
//!   simulated accelerators are verified against, and the dynamic-trace
//!   source for the ARM-A9-class CPU timing baseline,
//! * the [`memory`] image both run against: one typed 64-bit word buffer
//!   per memory object, converted to and from [`Value`] only at a load
//!   or store,
//! * [`flat`] values — a kind byte and a 64-bit word, composites as lanes
//!   in a buffer — with the one table of scalar and tile semantics that
//!   the interpreter's evaluators and the simulator's firings share,
//! * [`analysis`] passes over flat per-function tables (predecessors,
//!   block sets, a use index): dominators, natural loops, loop live-outs,
//!   affine address and loop-carried dependence analysis.
//!
//! # Example
//!
//! ```
//! use muir_mir::builder::FunctionBuilder;
//! use muir_mir::types::ScalarType;
//! use muir_mir::module::Module;
//!
//! let mut module = Module::new("saxpy");
//! let x = module.add_mem_object("x", ScalarType::F32, 64);
//! let y = module.add_mem_object("y", ScalarType::F32, 64);
//! let mut b = FunctionBuilder::new("saxpy", &[ScalarType::F32.into()]).with_mem(&module);
//! let a = b.arg(0);
//! b.par_for(0, 64, 1, |b, i| {
//!     let xi = b.load(x, i);
//!     let yi = b.load(y, i);
//!     let ax = b.fmul(a, xi);
//!     let s = b.fadd(ax, yi);
//!     b.store(y, i, s);
//! });
//! b.ret(None);
//! let f = b.finish();
//! module.add_function(f);
//! assert!(muir_mir::verify::verify_module(&module).is_ok());
//! ```

pub mod analysis;
pub mod builder;
pub mod flat;
pub mod instr;
pub mod interp;
pub mod memory;
pub mod module;
pub mod parser;
pub mod printer;
pub mod trace;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use instr::{BlockId, FuncId, InstrId, MemObjId, Op, ValueRef};
pub use module::{Block, Function, MemObject, Module};
pub use types::{ScalarType, TensorShape, Type};
pub use value::Value;
