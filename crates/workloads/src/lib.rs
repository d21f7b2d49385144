//! `muir-workloads` — every benchmark the paper evaluates, expressed in the
//! `mir` compiler IR exactly as the paper's front-ends would produce them:
//!
//! * **Polybench/MachSuite** (§5.1, Table 2): GEMM, COVAR, FFT, SPMV, 2MM,
//!   3MM — C++-style sequential loop nests (with HLS-pragma-equivalent
//!   parallel hints where iterations are independent).
//! * **Cilk** (Table 2): FIB, MERGESORT, SAXPY, STENCIL, IMG-SCALE —
//!   Tapir `detach`/`sync` parallelism via `par_for`.
//! * **Tensorflow** (Table 2): CONV, DENSE8, DENSE16, SOFTM8, SOFTM16 —
//!   NN layers lowered to loop nests.
//! * **In-house tensor** (Table 2, §6.3): RELU\[T\], 2MM\[T\], CONV\[T\] —
//!   Tensor2D higher-order ops — plus RGB2YUV (§6.4 cache banking) and
//!   scalar RELU (Figure 18).
//!
//! Inputs are deterministic (fixed-seed PRNG); every workload module's test
//! checks the `mir` interpreter against a plain-Rust reference
//! implementation, which transitively validates the simulated accelerators.

pub mod cilk;
pub mod inhouse;
pub mod polybench;
pub mod tensorflow;
pub mod tensorgraph;

use muir_mir::instr::MemObjId;
use muir_mir::interp::{Interp, InterpError, Memory};
use muir_mir::memory::ElemKind;
use muir_mir::module::Module;

/// Benchmark suite classification (Table 2 groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Polybench / MachSuite loop nests.
    Polybench,
    /// Cilk task-parallel programs.
    Cilk,
    /// Tensorflow-derived NN layers.
    Tensorflow,
    /// In-house (tensor ops, RGB2YUV).
    InHouse,
    /// Tensor-graph front-door families (ATTN, CONVNET, MT-INFER).
    TensorGraph,
}

/// Deterministic initial contents of one memory object.
#[derive(Debug, Clone)]
pub enum InitData {
    /// 32-bit float data.
    F32(Vec<f32>),
    /// Integer data.
    I64(Vec<i64>),
}

/// A complete benchmark: program, inputs, and the objects to verify.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Paper name (e.g. `GEMM`, `2MM\[T\]`).
    pub name: &'static str,
    /// Suite.
    pub class: Class,
    /// Uses floating point (Table 2's `F` superscript).
    pub fp: bool,
    /// Uses Tensor2D higher-order ops (Table 2's `[T]`).
    pub tensor: bool,
    /// The program.
    pub module: Module,
    /// Initial memory contents.
    pub inits: Vec<(MemObjId, InitData)>,
    /// Objects whose final contents define correctness.
    pub outputs: Vec<MemObjId>,
}

impl Workload {
    /// Fresh memory with this workload's inputs loaded.
    pub fn fresh_memory(&self) -> Memory {
        let mut mem = Memory::from_module(&self.module);
        for (obj, data) in &self.inits {
            match data {
                InitData::F32(v) => mem.init_f32(*obj, v),
                InitData::I64(v) => mem.init_i64(*obj, v),
            }
        }
        mem
    }

    /// Run the reference interpreter; returns the final memory.
    ///
    /// # Errors
    /// Propagates interpreter faults.
    pub fn run_reference(&self) -> Result<Memory, InterpError> {
        let mut mem = self.fresh_memory();
        Interp::new(&self.module).run_main(&mut mem, &[])?;
        Ok(mem)
    }

    /// Compare two memories on this workload's output objects with a small
    /// floating-point tolerance (dataflow reassociation never occurs — the
    /// graph evaluates the same expression tree — but exp/div can differ in
    /// the last ulp between environments).
    pub fn outputs_match(&self, a: &Memory, b: &Memory) -> bool {
        self.outputs.iter().all(|obj| {
            let (oa, ob) = (&a.objects[obj.0 as usize], &b.objects[obj.0 as usize]);
            if oa.kind() != ElemKind::F32 || ob.kind() != ElemKind::F32 {
                return oa == ob;
            }
            let (wa, wb) = (oa.words(), ob.words());
            wa.len() == wb.len()
                && wa.iter().zip(wb).all(|(&x, &y)| {
                    let (p, q) = (f32::from_bits(x as u32), f32::from_bits(y as u32));
                    let scale = p.abs().max(q.abs()).max(1.0);
                    (p - q).abs() <= 1e-4 * scale
                })
        })
    }
}

/// A deterministic xorshift PRNG for input generation (independent of crate
/// versions so inputs never drift).
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Prng {
        Prng(seed.max(1))
    }

    /// Next raw value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform float in [0, 1).
    pub(crate) fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform integer in [0, bound).
    pub(crate) fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// A vector of floats in [-1, 1).
    pub fn f32_vec(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next_f32() * 2.0 - 1.0).collect()
    }

    /// A vector of small integers in [0, bound).
    pub(crate) fn i64_vec(&mut self, n: usize, bound: u64) -> Vec<i64> {
        (0..n).map(|_| self.next_below(bound) as i64).collect()
    }
}

/// One registry row: the single source of truth tying a paper name to
/// its family tag and builder. Every suite that enumerates workloads
/// (differential tests, the bit-identity matrix, the benchmark, DSE)
/// iterates this table, so a new family joins them all by construction.
#[derive(Debug, Clone, Copy)]
pub struct RegistryEntry {
    /// Paper name (e.g. `GEMM`, `2MM[T]`, `ATTN`).
    pub name: &'static str,
    /// Suite / family tag.
    pub class: Class,
    /// Builds the full workload (module + inputs + outputs).
    pub build: fn() -> Workload,
}

fn dense8() -> Workload {
    tensorflow::dense(8)
}
fn dense16() -> Workload {
    tensorflow::dense(16)
}
fn softm8() -> Workload {
    tensorflow::softmax(8)
}
fn softm16() -> Workload {
    tensorflow::softmax(16)
}

/// The central workload registry, in the paper's Table 2 order (tensor-
/// graph families appended as the fifth group).
pub const REGISTRY: &[RegistryEntry] = &[
    RegistryEntry {
        name: "GEMM",
        class: Class::Polybench,
        build: polybench::gemm,
    },
    RegistryEntry {
        name: "COVAR",
        class: Class::Polybench,
        build: polybench::covar,
    },
    RegistryEntry {
        name: "FFT",
        class: Class::Polybench,
        build: polybench::fft,
    },
    RegistryEntry {
        name: "SPMV",
        class: Class::Polybench,
        build: polybench::spmv,
    },
    RegistryEntry {
        name: "2MM",
        class: Class::Polybench,
        build: polybench::mm2,
    },
    RegistryEntry {
        name: "3MM",
        class: Class::Polybench,
        build: polybench::mm3,
    },
    RegistryEntry {
        name: "FIB",
        class: Class::Cilk,
        build: cilk::fib,
    },
    RegistryEntry {
        name: "M-SORT",
        class: Class::Cilk,
        build: cilk::mergesort,
    },
    RegistryEntry {
        name: "SAXPY",
        class: Class::Cilk,
        build: cilk::saxpy,
    },
    RegistryEntry {
        name: "STENCIL",
        class: Class::Cilk,
        build: cilk::stencil,
    },
    RegistryEntry {
        name: "IMG-SCALE",
        class: Class::Cilk,
        build: cilk::img_scale,
    },
    RegistryEntry {
        name: "CONV",
        class: Class::Tensorflow,
        build: tensorflow::conv,
    },
    RegistryEntry {
        name: "DENSE8",
        class: Class::Tensorflow,
        build: dense8,
    },
    RegistryEntry {
        name: "DENSE16",
        class: Class::Tensorflow,
        build: dense16,
    },
    RegistryEntry {
        name: "SOFTM8",
        class: Class::Tensorflow,
        build: softm8,
    },
    RegistryEntry {
        name: "SOFTM16",
        class: Class::Tensorflow,
        build: softm16,
    },
    RegistryEntry {
        name: "RELU[T]",
        class: Class::InHouse,
        build: inhouse::relu_tensor,
    },
    RegistryEntry {
        name: "2MM[T]",
        class: Class::InHouse,
        build: inhouse::mm2_tensor,
    },
    RegistryEntry {
        name: "CONV[T]",
        class: Class::InHouse,
        build: inhouse::conv_tensor,
    },
    RegistryEntry {
        name: "RGB2YUV",
        class: Class::InHouse,
        build: inhouse::rgb2yuv,
    },
    RegistryEntry {
        name: "RELU",
        class: Class::InHouse,
        build: inhouse::relu_scalar,
    },
    RegistryEntry {
        name: "ATTN",
        class: Class::TensorGraph,
        build: tensorgraph::attn,
    },
    RegistryEntry {
        name: "CONVNET",
        class: Class::TensorGraph,
        build: tensorgraph::convnet,
    },
    RegistryEntry {
        name: "MT-INFER",
        class: Class::TensorGraph,
        build: tensorgraph::mt_infer,
    },
];

/// All benchmarks, in registry (Table 2) order.
pub fn all() -> Vec<Workload> {
    REGISTRY.iter().map(|e| (e.build)()).collect()
}

/// Look up a benchmark by its paper name (builds only that workload).
pub fn by_name(name: &str) -> Option<Workload> {
    REGISTRY
        .iter()
        .find(|e| e.name == name)
        .map(|e| (e.build)())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete() {
        let ws = all();
        assert_eq!(ws.len(), REGISTRY.len());
        assert_eq!(ws.len(), 24);
        let names: Vec<&str> = ws.iter().map(|w| w.name).collect();
        for expect in [
            "GEMM",
            "COVAR",
            "FFT",
            "SPMV",
            "2MM",
            "3MM",
            "FIB",
            "M-SORT",
            "SAXPY",
            "STENCIL",
            "IMG-SCALE",
            "CONV",
            "DENSE8",
            "DENSE16",
            "SOFTM8",
            "SOFTM16",
            "RELU[T]",
            "2MM[T]",
            "CONV[T]",
            "RGB2YUV",
            "RELU",
            "ATTN",
            "CONVNET",
            "MT-INFER",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn registry_tags_match_built_workloads() {
        for e in REGISTRY {
            let w = (e.build)();
            assert_eq!(w.name, e.name, "registry name drifted");
            assert_eq!(w.class, e.class, "{}: family tag drifted", e.name);
        }
        // Names are unique.
        let mut ns: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        ns.sort_unstable();
        ns.dedup();
        assert_eq!(ns.len(), REGISTRY.len());
    }

    #[test]
    fn lookup_by_class() {
        let by_class = |c: Class| REGISTRY.iter().filter(|e| e.class == c).count();
        assert_eq!(by_class(Class::TensorGraph), 3);
        assert_eq!(by_class(Class::Polybench), 6);
    }

    #[test]
    fn all_modules_verify() {
        for w in all() {
            muir_mir::verify::verify_module(&w.module)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn all_references_run() {
        for w in all() {
            w.run_reference()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn prng_is_deterministic() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = Prng::new(9).f32_vec(32);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("GEMM").is_some());
        assert!(by_name("2MM[T]").is_some());
        assert!(by_name("NOPE").is_none());
    }
}
