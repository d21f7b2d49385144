//! `muir-frontend` — Stage 1/2 of the μIR toolflow (§3.6, Algorithm 1).
//!
//! Translates a `muir-mir` module (the LLVM/Tapir stand-in) into a baseline
//! μIR accelerator:
//!
//! * **Stage 1 — task-graph extraction**: walks the program structure and
//!   cuts task blocks at the boundaries of dynamically schedulable regions:
//!   natural loops, Tapir detach regions (Cilk spawns), and function calls.
//!   Each task captures its scope (live-ins/live-outs) so it can be invoked
//!   through a timing-agnostic asynchronous interface.
//! * **Stage 2 — dataflow lowering**: lowers each task's basic blocks to a
//!   hyperblock (forward branches become dataflow predication, §3.5) and
//!   then to a literal dataflow translation: every compiler op becomes a
//!   decoupled node, every SSA edge a pipelined connection, and memory ops
//!   route through junctions to structures (§3.3–§3.4).
//!
//! The baseline memory system follows §6.4: a shared scratchpad homes small
//! (local) arrays, an L1 cache in front of DRAM serves large (global) ones.
//!
//! # Example
//!
//! ```
//! use muir_frontend::{translate, FrontendConfig};
//! use muir_mir::{FunctionBuilder, Module};
//! use muir_mir::types::ScalarType;
//! use muir_mir::instr::ValueRef;
//!
//! let mut m = Module::new("scale");
//! let a = m.add_mem_object("a", ScalarType::F32, 64);
//! let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
//! b.for_loop(0, ValueRef::int(64), 1, |b, i| {
//!     let v = b.load(a, i);
//!     let w = b.fmul(v, ValueRef::f32(2.0));
//!     b.store(a, i, w);
//! });
//! b.ret(None);
//! m.add_function(b.finish());
//!
//! let acc = translate(&m, &FrontendConfig::default())?;
//! assert_eq!(acc.tasks.len(), 2); // root region + one loop task
//! # Ok::<(), muir_frontend::FrontendError>(())
//! ```

mod build;
pub mod tensor;
#[cfg(test)]
mod tests;

use muir_core::accel::Accelerator;
use std::fmt;

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Objects with at most this many element slots are homed on the shared
    /// scratchpad; larger objects go to the L1 cache (§6.4 baseline).
    pub spad_threshold: u64,
    /// Default `<||>` queue depth between parent and child tasks (1 =
    /// tightly coupled baseline; Pass 1 widens it).
    pub child_queue_depth: u32,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            spad_threshold: 512,
            child_queue_depth: 1,
        }
    }
}

/// Translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    /// Description of the unsupported or malformed construct.
    pub message: String,
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frontend error: {}", self.message)
    }
}

impl std::error::Error for FrontendError {}

/// Translate a module to a baseline μIR accelerator (no μopt passes).
///
/// # Errors
/// Fails on malformed IR (verifier), non-canonical loops (bounds not
/// expressible as `for (i = lo; i < hi; i += step)`), or unsupported
/// constructs (multiple returns in one region).
pub fn translate(
    module: &muir_mir::module::Module,
    config: &FrontendConfig,
) -> Result<Accelerator, FrontendError> {
    build::translate(module, config)
}
