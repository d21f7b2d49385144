//! Tensor-graph benchmarks (Table 2, fifth group): workload families
//! expressed in the `muir_frontend::tensor` front door and lowered
//! through the Tensor2D intrinsics — programs the hand-built loop-nest
//! path of `tensorflow.rs` cannot express as single kernels:
//!
//! * **ATTN** — one attention block: `softmax(Q·Kᵀ)·V` over 8×8 tiles
//!   (K is fed pre-transposed so the graph is matmul → softmax →
//!   matmul).
//! * **CONVNET** — a small conv net: 12×12 `conv` 3×3 → `relu` →
//!   `reduce` to a single logit. The relu fuses into the conv's store
//!   loop at lowering.
//! * **MT-INFER** — one multi-tenant inference step: `relu(X·W)` where
//!   each row of `X` is one tenant's activation vector and `W` is the
//!   shared (banked) weight matrix. The batch-service dimension — many
//!   concurrent invocations sharing the sealed artifact — is exercised
//!   through `EvalService` in `muir-bench`.
//!
//! Each builder parses the canonical graph text (kept here as the
//! source of truth, also served by `experiments tensor --builtin`),
//! lowers it with the default tiling/fusion config, and seeds inputs
//! from the fixed-seed PRNG like every other workload.

use crate::{Class, InitData, Prng, Workload};
use muir_frontend::tensor::{TensorGraph, TensorLowerConfig};

/// Canonical ATTN graph text.
pub(crate) const ATTN_TEXT: &str = "\
graph attn
input q : f32[8,8]
input kt : f32[8,8]
input v : f32[8,8]
%s = matmul q, kt
%p = softmax %s
%o = matmul %p, v
output %o
";

/// Canonical CONVNET graph text.
pub(crate) const CONVNET_TEXT: &str = "\
graph convnet
input img : f32[12,12]
input k : f32[3,3]
%c = conv img, k
%r = relu %c
%l = reduce %r
output %l
";

/// Canonical MT-INFER graph text.
pub(crate) const MT_INFER_TEXT: &str = "\
graph mt_infer
input x : f32[8,8]
input w : f32[8,8]
%m = matmul x, w
%a = relu %m
output %a
";

/// Builtin graphs by name (lower-case), for the `experiments tensor
/// --builtin` front door.
pub fn builtin_graph(name: &str) -> Option<&'static str> {
    Some(match name {
        "attn" => ATTN_TEXT,
        "convnet" => CONVNET_TEXT,
        "mt_infer" => MT_INFER_TEXT,
        _ => return None,
    })
}

/// Build a workload from arbitrary graph text — the `experiments tensor`
/// front door. Inputs are seeded exactly like the builtin families.
///
/// # Errors
/// Typed `E-TENSOR-*` parse/verify/lowering failures.
pub fn from_text(
    name: &'static str,
    text: &str,
    seed: u64,
) -> Result<Workload, muir_frontend::tensor::TensorError> {
    let g = TensorGraph::parse(text)?;
    let low = g.lower(&TensorLowerConfig::default())?;
    let mut rng = Prng::new(seed);
    let inits = low
        .inputs
        .iter()
        .zip(&g.inputs)
        .map(|(obj, gi)| (*obj, InitData::F32(rng.f32_vec(gi.dims.elems()))))
        .collect();
    Ok(Workload {
        name,
        class: Class::TensorGraph,
        fp: true,
        tensor: true,
        module: low.module,
        inits,
        outputs: vec![low.output],
    })
}

fn from_graph(name: &'static str, text: &str, seed: u64) -> Workload {
    from_text(name, text, seed).expect("builtin graph builds")
}

/// ATTN: one attention block over 8×8 tiles.
pub(crate) fn attn() -> Workload {
    from_graph("ATTN", ATTN_TEXT, 101)
}

/// CONVNET: conv → relu → reduce to one logit.
pub(crate) fn convnet() -> Workload {
    from_graph("CONVNET", CONVNET_TEXT, 103)
}

/// MT-INFER: one batched multi-tenant inference step, `relu(X·W)`.
pub fn mt_infer() -> Workload {
    from_graph("MT-INFER", MT_INFER_TEXT, 107)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_mir::memory::ElemKind;

    /// Each family's lowered module must agree with the *graph-level*
    /// reference evaluator on the same inputs — a differential across
    /// two independent semantics (graph eval vs mir interp).
    #[test]
    fn graph_eval_matches_mir_reference() {
        for (w, text) in [
            (attn(), ATTN_TEXT),
            (convnet(), CONVNET_TEXT),
            (mt_infer(), MT_INFER_TEXT),
        ] {
            let g = TensorGraph::parse(text).unwrap();
            let inputs: Vec<Vec<f32>> = w
                .inits
                .iter()
                .map(|(_, d)| match d {
                    InitData::F32(v) => v.clone(),
                    InitData::I64(_) => panic!("tensor graphs are f32"),
                })
                .collect();
            let want = g.eval(&inputs).unwrap();
            let mem = w.run_reference().unwrap();
            let out = &mem.objects[w.outputs[0].0 as usize];
            assert_eq!(out.kind(), ElemKind::F32, "{}: non-f32 output", w.name);
            let got = mem.read_f32(w.outputs[0]);
            assert_eq!(got.len(), want.len(), "{}", w.name);
            for (x, y) in want.iter().zip(got) {
                let scale = x.abs().max(y.abs()).max(1.0);
                assert!((x - y).abs() <= 1e-4 * scale, "{}: {x} vs {y}", w.name);
            }
        }
    }

    #[test]
    fn convnet_fuses_its_relu() {
        let g = TensorGraph::parse(CONVNET_TEXT).unwrap();
        let low = g.lower(&TensorLowerConfig::default()).unwrap();
        assert_eq!(low.fused_relus, 1);
    }

    #[test]
    fn attn_softmax_rows_are_stochastic() {
        // Inside ATTN the softmax output rows each sum to 1; the final
        // output rows are therefore convex combinations of V's rows and
        // must stay within V's min/max envelope.
        let w = attn();
        let mem = w.run_reference().unwrap();
        let out = mem.read_f32(w.outputs[0]);
        let v = match &w.inits[2].1 {
            InitData::F32(d) => d.clone(),
            InitData::I64(_) => unreachable!(),
        };
        for col in 0..8 {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for row in 0..8 {
                lo = lo.min(v[row * 8 + col]);
                hi = hi.max(v[row * 8 + col]);
            }
            for row in 0..8 {
                let x = out[row * 8 + col];
                assert!(
                    x >= lo - 1e-4 && x <= hi + 1e-4,
                    "out[{row},{col}] = {x} outside [{lo},{hi}]"
                );
            }
        }
    }
}
