//! Tensorflow-derived benchmarks (Table 2, third group): NN layers lowered
//! to loop nests the way the paper's XLA-based front-end emits them.

use crate::{Class, InitData, Prng, Workload};
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::ValueRef;
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, Type};

/// CONV: 2-D valid convolution, 28×28 input, 3×3 kernel, 26×26 output
/// (scalar MACs; the kernel loops are fully unrolled, as XLA does for
/// constant-trip-3 loops).
pub(crate) fn conv() -> Workload {
    const IW: i64 = 28;
    const OW: i64 = 26;
    let mut m = Module::new("conv");
    let input = m.add_ro_mem_object("in", ScalarType::F32, (IW * IW) as u64);
    let kernel = m.add_ro_mem_object("k", ScalarType::F32, 9);
    let output = m.add_mem_object("out", ScalarType::F32, (OW * OW) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(OW), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(OW), 1, |b, j| {
            let mut acc = ValueRef::f32(0.0);
            for di in 0..3i64 {
                for dj in 0..3i64 {
                    let r0 = b.add(i, ValueRef::int(di));
                    let row = b.mul(r0, ValueRef::int(IW));
                    let c0 = b.add(j, ValueRef::int(dj));
                    let idx = b.add(row, c0);
                    let v = b.load(input, idx);
                    let kv = b.load(kernel, ValueRef::int(di * 3 + dj));
                    let p = b.fmul(v, kv);
                    acc = b.fadd(acc, p);
                }
            }
            let orow = b.mul(i, ValueRef::int(OW));
            let oidx = b.add(orow, j);
            b.store(output, oidx, acc);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(47);
    let iin = rng.f32_vec((IW * IW) as usize);
    let ik = rng.f32_vec(9);
    Workload {
        name: "CONV",
        class: Class::Tensorflow,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(input, InitData::F32(iin)), (kernel, InitData::F32(ik))],
        outputs: vec![output],
    }
}

/// Plain-Rust CONV used by tests.
pub fn conv_reference(input: &[f32], kernel: &[f32], iw: usize, ow: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; ow * ow];
    for i in 0..ow {
        for j in 0..ow {
            let mut acc = 0.0f32;
            for di in 0..3 {
                for dj in 0..3 {
                    acc += input[(i + di) * iw + j + dj] * kernel[di * 3 + dj];
                }
            }
            out[i * ow + j] = acc;
        }
    }
    out
}

/// DENSE layer: `out[b][u] = Σ_k w[u][k]·in[b][k] + bias[u]`, batch 32,
/// 64 inputs, `units` outputs (the paper's DENSE8 / DENSE16).
pub(crate) fn dense(units: i64) -> Workload {
    const BATCH: i64 = 32;
    const IN: i64 = 64;
    let mut m = Module::new(if units == 8 { "dense8" } else { "dense16" });
    let input = m.add_ro_mem_object("in", ScalarType::F32, (BATCH * IN) as u64);
    let w = m.add_ro_mem_object("w", ScalarType::F32, (units * IN) as u64);
    let bias = m.add_ro_mem_object("bias", ScalarType::F32, units as u64);
    let output = m.add_mem_object("out", ScalarType::F32, (BATCH * units) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(BATCH), 1, |b, bi| {
        b.for_loop_par(0, ValueRef::int(units), 1, |b, u| {
            let wrow = b.mul(u, ValueRef::int(IN));
            let irow = b.mul(bi, ValueRef::int(IN));
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(IN),
                1,
                &[(ValueRef::f32(0.0), Type::F32)],
                |b, k, accs| {
                    let wi = b.add(wrow, k);
                    let wv = b.load(w, wi);
                    let ii = b.add(irow, k);
                    let iv = b.load(input, ii);
                    let p = b.fmul(wv, iv);
                    vec![b.fadd(accs[0], p)]
                },
            );
            let bv = b.load(bias, u);
            let s = b.fadd(acc[0], bv);
            let orow = b.mul(bi, ValueRef::int(units));
            let oi = b.add(orow, u);
            b.store(output, oi, s);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(53 + units as u64);
    let iin = rng.f32_vec((BATCH * IN) as usize);
    let iw = rng.f32_vec((units * IN) as usize);
    let ib = rng.f32_vec(units as usize);
    Workload {
        name: if units == 8 { "DENSE8" } else { "DENSE16" },
        class: Class::Tensorflow,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![
            (input, InitData::F32(iin)),
            (w, InitData::F32(iw)),
            (bias, InitData::F32(ib)),
        ],
        outputs: vec![output],
    }
}

/// SOFTMAX over `width`-wide rows, batch 64 (the paper's SOFTM8 /
/// SOFTM16): per row, `exp` each logit, reduce, divide.
pub(crate) fn softmax(width: i64) -> Workload {
    const BATCH: i64 = 64;
    let mut m = Module::new(if width == 8 { "softm8" } else { "softm16" });
    let input = m.add_ro_mem_object("in", ScalarType::F32, (BATCH * width) as u64);
    let output = m.add_mem_object("out", ScalarType::F32, (BATCH * width) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(BATCH), 1, |b, r| {
        let row = b.mul(r, ValueRef::int(width));
        let acc = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(width),
            1,
            &[(ValueRef::f32(0.0), Type::F32)],
            |b, k, accs| {
                let idx = b.add(row, k);
                let v = b.load(input, idx);
                let e = b.exp(v);
                vec![b.fadd(accs[0], e)]
            },
        );
        b.for_loop_par(0, ValueRef::int(width), 1, |b, k| {
            let idx = b.add(row, k);
            let v = b.load(input, idx);
            let e = b.exp(v);
            let s = b.fdiv(e, acc[0]);
            b.store(output, idx, s);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(59 + width as u64);
    let iin = rng.f32_vec((BATCH * width) as usize);
    Workload {
        name: if width == 8 { "SOFTM8" } else { "SOFTM16" },
        class: Class::Tensorflow,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(input, InitData::F32(iin))],
        outputs: vec![output],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain-Rust DENSE used by tests.
    fn dense_reference(
        input: &[f32],
        w: &[f32],
        bias: &[f32],
        batch: usize,
        inputs: usize,
        units: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; batch * units];
        for b in 0..batch {
            for u in 0..units {
                let mut acc = 0.0f32;
                for k in 0..inputs {
                    acc += w[u * inputs + k] * input[b * inputs + k];
                }
                out[b * units + u] = acc + bias[u];
            }
        }
        out
    }

    /// Plain-Rust SOFTMAX used by tests.
    fn softmax_reference(input: &[f32], batch: usize, width: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; batch * width];
        for r in 0..batch {
            let mut sum = 0.0f32;
            for k in 0..width {
                sum += input[r * width + k].exp();
            }
            for k in 0..width {
                out[r * width + k] = input[r * width + k].exp() / sum;
            }
        }
        out
    }

    fn f32_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= 1e-4 * scale, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn conv_matches_native() {
        let w = conv();
        let mem = w.run_reference().unwrap();
        let InitData::F32(input) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::F32(k) = &w.inits[1].1 else {
            panic!()
        };
        f32_close(
            &mem.read_f32(w.outputs[0]),
            &conv_reference(input, k, 28, 26),
        );
    }

    #[test]
    fn dense_layers_match_native() {
        for units in [8usize, 16] {
            let w = dense(units as i64);
            let mem = w.run_reference().unwrap();
            let InitData::F32(input) = &w.inits[0].1 else {
                panic!()
            };
            let InitData::F32(wt) = &w.inits[1].1 else {
                panic!()
            };
            let InitData::F32(bias) = &w.inits[2].1 else {
                panic!()
            };
            f32_close(
                &mem.read_f32(w.outputs[0]),
                &dense_reference(input, wt, bias, 32, 64, units),
            );
        }
    }

    #[test]
    fn softmax_matches_native_and_normalizes() {
        for width in [8usize, 16] {
            let w = softmax(width as i64);
            let mem = w.run_reference().unwrap();
            let InitData::F32(input) = &w.inits[0].1 else {
                panic!()
            };
            let out = mem.read_f32(w.outputs[0]);
            f32_close(&out, &softmax_reference(input, 64, width));
            // Rows sum to 1.
            for r in 0..64 {
                let s: f32 = out[r * width..(r + 1) * width].iter().sum();
                assert!((s - 1.0).abs() < 1e-3, "row {r} sums to {s}");
            }
        }
    }
}
