//! In-house benchmarks (Table 2, fourth group): the Tensor2D higher-order
//! op workloads of §6.3 (RELU\[T\], 2MM\[T\], CONV\[T\]) plus RGB2YUV (§6.4) and
//! scalar RELU (Figure 18).
//!
//! Tensor workloads use a *tile-major* layout: matrix tile (ti,tj) occupies
//! four consecutive element slots, which is the data organisation the
//! type-specific scratchpads of Pass 3 expose (§4) and what lets the
//! databox fetch a whole tile per request. CONV\[T\] is the stride-2 tiled
//! convolution (each non-overlapping 2×2 window dot-multiplied with the
//! weight tile), matching the tile-granular `Conv` functional unit.

use crate::{Class, InitData, Prng, Workload};
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::{TensorOp, ValueRef};
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, TensorShape, Type};

const SHAPE: TensorShape = TensorShape { rows: 2, cols: 2 };

/// RELU\[T\]: element-wise ReLU over 256 2×2 tiles (1024 floats).
pub(crate) fn relu_tensor() -> Workload {
    const TILES: i64 = 256;
    let mut m = Module::new("relu_t");
    let input = m.add_ro_mem_object("in", ScalarType::F32, (TILES * 4) as u64);
    let output = m.add_mem_object("out", ScalarType::F32, (TILES * 4) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(TILES), 1, |b, t| {
        let off = b.mul(t, ValueRef::int(4));
        let tile = b.load_tile(input, off, SHAPE);
        let r = b.tensor1(TensorOp::Relu, SHAPE, tile);
        b.store(output, off, r);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(61);
    let iin = rng.f32_vec((TILES * 4) as usize);
    Workload {
        name: "RELU[T]",
        class: Class::InHouse,
        fp: true,
        tensor: true,
        module: m,
        inits: vec![(input, InitData::F32(iin))],
        outputs: vec![output],
    }
}

/// 2MM\[T\]: tiled matrix multiply `C = A×B` over 8×8 grids of 2×2 tiles
/// (16×16 matrices), exactly Figure 13: loadTile / mulTile / addTile /
/// storeTile.
pub(crate) fn mm2_tensor() -> Workload {
    const NT: i64 = 8;
    let mut m = Module::new("mm2_t");
    let a = m.add_ro_mem_object("A", ScalarType::F32, (NT * NT * 4) as u64);
    let bm = m.add_ro_mem_object("B", ScalarType::F32, (NT * NT * 4) as u64);
    let c = m.add_mem_object("C", ScalarType::F32, (NT * NT * 4) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(NT), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(NT), 1, |b, j| {
            // Zero-tile accumulator: C is zero-initialised, so its own tile
            // provides the init value (Figure 13 accumulates into C).
            let irow = b.mul(i, ValueRef::int(NT * 4));
            let j4 = b.mul(j, ValueRef::int(4));
            let coff = b.add(irow, j4);
            let init = b.load_tile(c, coff, SHAPE);
            let tty = Type::Tensor {
                elem: ScalarType::F32,
                shape: SHAPE,
            };
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(NT),
                1,
                &[(init, tty)],
                |b, k, accs| {
                    let k4 = b.mul(k, ValueRef::int(4));
                    let aoff = b.add(irow, k4);
                    let at = b.load_tile(a, aoff, SHAPE);
                    let krow = b.mul(k, ValueRef::int(NT * 4));
                    let boff = b.add(krow, j4);
                    let bt = b.load_tile(bm, boff, SHAPE);
                    let p = b.tensor2(TensorOp::MatMul, SHAPE, at, bt);
                    vec![b.tensor2(TensorOp::Add, SHAPE, accs[0], p)]
                },
            );
            b.store(c, coff, acc[0]);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(67);
    let ia = rng.f32_vec((NT * NT * 4) as usize);
    let ib = rng.f32_vec((NT * NT * 4) as usize);
    Workload {
        name: "2MM[T]",
        class: Class::InHouse,
        fp: true,
        tensor: true,
        module: m,
        inits: vec![(a, InitData::F32(ia)), (bm, InitData::F32(ib))],
        outputs: vec![c],
    }
}

/// CONV\[T\]: stride-2 tiled convolution: each non-overlapping 2×2 input
/// tile dot-multiplied with a 2×2 weight tile (the `Conv` higher-order op,
/// a window dot-product unit). 12×12 tile grid (24×24 image).
pub(crate) fn conv_tensor() -> Workload {
    const NT: i64 = 12;
    let mut m = Module::new("conv_t");
    let input = m.add_ro_mem_object("in", ScalarType::F32, (NT * NT * 4) as u64);
    let w = m.add_ro_mem_object("w", ScalarType::F32, 4);
    let output = m.add_mem_object("out", ScalarType::F32, (NT * NT) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(NT), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(NT), 1, |b, j| {
            let off = {
                let irow = b.mul(i, ValueRef::int(NT));
                let t = b.add(irow, j);
                b.mul(t, ValueRef::int(4))
            };
            let tile = b.load_tile(input, off, SHAPE);
            let wt = b.load_tile(w, ValueRef::int(0), SHAPE);
            let dot = b.tensor2(TensorOp::Conv, SHAPE, tile, wt);
            let orow = b.mul(i, ValueRef::int(NT));
            let oidx = b.add(orow, j);
            b.store(output, oidx, dot);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(71);
    let iin = rng.f32_vec((NT * NT * 4) as usize);
    let iw = rng.f32_vec(4);
    Workload {
        name: "CONV[T]",
        class: Class::InHouse,
        fp: true,
        tensor: true,
        module: m,
        inits: vec![(input, InitData::F32(iin)), (w, InitData::F32(iw))],
        outputs: vec![output],
    }
}

/// RGB2YUV: fixed-point colour-space conversion over 1024 pixels — long
/// chains of cheap integer ops, the op-fusion pass's favourite shape
/// (§6.1) and a cache-banking workload (§6.4).
pub(crate) fn rgb2yuv() -> Workload {
    const N: i64 = 1024;
    let mut m = Module::new("rgb2yuv");
    let r = m.add_ro_mem_object("r", ScalarType::I64, N as u64);
    let g = m.add_ro_mem_object("g", ScalarType::I64, N as u64);
    let bl = m.add_ro_mem_object("b", ScalarType::I64, N as u64);
    let y = m.add_mem_object("y", ScalarType::I64, N as u64);
    let u = m.add_mem_object("u", ScalarType::I64, N as u64);
    let v = m.add_mem_object("v", ScalarType::I64, N as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(N), 1, |b, i| {
        let rv = b.load(r, i);
        let gv = b.load(g, i);
        let bv = b.load(bl, i);
        let term = |b: &mut FunctionBuilder, c: i64, x: ValueRef| b.mul(x, ValueRef::int(c));
        // Y = ((66R + 129G + 25B + 128) >> 8) + 16
        let y0 = term(b, 66, rv);
        let y1 = term(b, 129, gv);
        let y2 = term(b, 25, bv);
        let ys0 = b.add(y0, y1);
        let ys1 = b.add(ys0, y2);
        let ys2 = b.add(ys1, ValueRef::int(128));
        let ys3 = b.ashr(ys2, ValueRef::int(8));
        let yv = b.add(ys3, ValueRef::int(16));
        b.store(y, i, yv);
        // U = ((-38R - 74G + 112B + 128) >> 8) + 128
        let u0 = term(b, -38, rv);
        let u1 = term(b, -74, gv);
        let u2 = term(b, 112, bv);
        let us0 = b.add(u0, u1);
        let us1 = b.add(us0, u2);
        let us2 = b.add(us1, ValueRef::int(128));
        let us3 = b.ashr(us2, ValueRef::int(8));
        let uv = b.add(us3, ValueRef::int(128));
        b.store(u, i, uv);
        // V = ((112R - 94G - 18B + 128) >> 8) + 128
        let v0 = term(b, 112, rv);
        let v1 = term(b, -94, gv);
        let v2 = term(b, -18, bv);
        let vs0 = b.add(v0, v1);
        let vs1 = b.add(vs0, v2);
        let vs2 = b.add(vs1, ValueRef::int(128));
        let vs3 = b.ashr(vs2, ValueRef::int(8));
        let vv = b.add(vs3, ValueRef::int(128));
        b.store(v, i, vv);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(73);
    let ir = rng.i64_vec(N as usize, 256);
    let ig = rng.i64_vec(N as usize, 256);
    let ib = rng.i64_vec(N as usize, 256);
    Workload {
        name: "RGB2YUV",
        class: Class::InHouse,
        fp: false,
        tensor: false,
        module: m,
        inits: vec![
            (r, InitData::I64(ir)),
            (g, InitData::I64(ig)),
            (bl, InitData::I64(ib)),
        ],
        outputs: vec![y, u, v],
    }
}

/// Scalar RELU over 2048 floats (the Figure 18 `RELU` entry).
pub(crate) fn relu_scalar() -> Workload {
    const N: i64 = 2048;
    let mut m = Module::new("relu");
    let input = m.add_ro_mem_object("in", ScalarType::F32, N as u64);
    let output = m.add_mem_object("out", ScalarType::F32, N as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(N), 1, |b, i| {
        let v = b.load(input, i);
        let r = b.relu(v);
        b.store(output, i, r);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(79);
    let iin = rng.f32_vec(N as usize);
    Workload {
        name: "RELU",
        class: Class::InHouse,
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

    /// Plain-Rust tiled matmul on tile-major data (used by tests).
    fn mm2_tensor_reference(a: &[f32], b: &[f32], nt: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; nt * nt * 4];
        let tile = |m: &[f32], ti: usize, tj: usize, r: usize, q: usize| -> f32 {
            m[(ti * nt + tj) * 4 + r * 2 + q]
        };
        for i in 0..nt {
            for j in 0..nt {
                let mut acc = [0.0f32; 4];
                for k in 0..nt {
                    // 2×2 tile product.
                    for r in 0..2 {
                        for q in 0..2 {
                            let mut s = 0.0f32;
                            for t in 0..2 {
                                s += tile(a, i, k, r, t) * tile(b, k, j, t, q);
                            }
                            acc[r * 2 + q] += s;
                        }
                    }
                }
                for (e, v) in acc.iter().enumerate() {
                    c[(i * nt + j) * 4 + e] = *v;
                }
            }
        }
        c
    }

    fn f32_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= 1e-4 * scale, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn relu_tensor_matches_native() {
        let w = relu_tensor();
        let mem = w.run_reference().unwrap();
        let InitData::F32(input) = &w.inits[0].1 else {
            panic!()
        };
        let expect: Vec<f32> = input.iter().map(|x| x.max(0.0)).collect();
        f32_close(&mem.read_f32(w.outputs[0]), &expect);
    }

    #[test]
    fn mm2_tensor_matches_native() {
        let w = mm2_tensor();
        let mem = w.run_reference().unwrap();
        let InitData::F32(a) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::F32(b) = &w.inits[1].1 else {
            panic!()
        };
        f32_close(&mem.read_f32(w.outputs[0]), &mm2_tensor_reference(a, b, 8));
    }

    #[test]
    fn conv_tensor_matches_native() {
        let w = conv_tensor();
        let mem = w.run_reference().unwrap();
        let InitData::F32(input) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::F32(wt) = &w.inits[1].1 else {
            panic!()
        };
        let out = mem.read_f32(w.outputs[0]);
        for t in 0..144usize {
            let mut e = 0.0f32;
            for k in 0..4 {
                e += input[t * 4 + k] * wt[k];
            }
            assert!((out[t] - e).abs() < 1e-4, "tile {t}");
        }
    }

    #[test]
    fn rgb2yuv_matches_native() {
        let w = rgb2yuv();
        let mem = w.run_reference().unwrap();
        let InitData::I64(r) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::I64(g) = &w.inits[1].1 else {
            panic!()
        };
        let InitData::I64(bl) = &w.inits[2].1 else {
            panic!()
        };
        let y = mem.read_i64(w.outputs[0]);
        let u = mem.read_i64(w.outputs[1]);
        let v = mem.read_i64(w.outputs[2]);
        for k in 0..r.len() {
            assert_eq!(
                y[k],
                ((66 * r[k] + 129 * g[k] + 25 * bl[k] + 128) >> 8) + 16
            );
            assert_eq!(
                u[k],
                ((-38 * r[k] - 74 * g[k] + 112 * bl[k] + 128) >> 8) + 128
            );
            assert_eq!(
                v[k],
                ((112 * r[k] - 94 * g[k] - 18 * bl[k] + 128) >> 8) + 128
            );
        }
    }

    #[test]
    fn relu_scalar_matches_native() {
        let w = relu_scalar();
        let mem = w.run_reference().unwrap();
        let InitData::F32(input) = &w.inits[0].1 else {
            panic!()
        };
        let expect: Vec<f32> = input.iter().map(|x| x.max(0.0)).collect();
        f32_close(&mem.read_f32(w.outputs[0]), &expect);
    }
}

/// Scalar-source baseline of [`relu_tensor`]: the same computation written
/// without tensor intrinsics ("implements the operation through the
/// pipeline", §6.3). One element per loop iteration.
pub(crate) fn relu_tensor_scalar() -> Workload {
    const N: i64 = 1024;
    let mut m = Module::new("relu_t_scalar");
    let input = m.add_ro_mem_object("in", ScalarType::F32, N as u64);
    let output = m.add_mem_object("out", ScalarType::F32, N as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(N), 1, |b, i| {
        let v = b.load(input, i);
        let r = b.relu(v);
        b.store(output, i, r);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(61); // same inputs as relu_tensor
    let iin = rng.f32_vec(N as usize);
    Workload {
        name: "RELU[T]/scalar",
        class: Class::InHouse,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(input, InitData::F32(iin))],
        outputs: vec![output],
    }
}

/// Scalar-source baseline of [`mm2_tensor`]: scalar loops over the same
/// tile-major data (per-element dot products walking tiles).
pub(crate) fn mm2_tensor_scalar() -> Workload {
    const NT: i64 = 8;
    let mut m = Module::new("mm2_t_scalar");
    let a = m.add_ro_mem_object("A", ScalarType::F32, (NT * NT * 4) as u64);
    let bm = m.add_ro_mem_object("B", ScalarType::F32, (NT * NT * 4) as u64);
    let c = m.add_mem_object("C", ScalarType::F32, (NT * NT * 4) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    // For each output tile (i,j) and each element (r,q) of it: dot product
    // over k tiles × 2 inner elements.
    b.for_loop_par(0, ValueRef::int(NT), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(NT), 1, |b, j| {
            let irow = b.mul(i, ValueRef::int(NT * 4));
            let j4 = b.mul(j, ValueRef::int(4));
            let coff0 = b.add(irow, j4);
            for r in 0..2i64 {
                for q in 0..2i64 {
                    let acc = b.for_loop_acc(
                        ValueRef::int(0),
                        ValueRef::int(NT),
                        1,
                        &[(ValueRef::f32(0.0), Type::F32)],
                        |b, k, accs| {
                            let k4 = b.mul(k, ValueRef::int(4));
                            let aoff = b.add(irow, k4);
                            let krow = b.mul(k, ValueRef::int(NT * 4));
                            let boff = b.add(krow, j4);
                            let mut sum = accs[0];
                            for t in 0..2i64 {
                                let ai = b.add(aoff, ValueRef::int(r * 2 + t));
                                let av = b.load(a, ai);
                                let bi = b.add(boff, ValueRef::int(t * 2 + q));
                                let bv = b.load(bm, bi);
                                let p = b.fmul(av, bv);
                                sum = b.fadd(sum, p);
                            }
                            vec![sum]
                        },
                    );
                    let ci = b.add(coff0, ValueRef::int(r * 2 + q));
                    b.store(c, ci, acc[0]);
                }
            }
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(67); // same inputs as mm2_tensor
    let ia = rng.f32_vec((NT * NT * 4) as usize);
    let ib = rng.f32_vec((NT * NT * 4) as usize);
    Workload {
        name: "2MM[T]/scalar",
        class: Class::InHouse,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(a, InitData::F32(ia)), (bm, InitData::F32(ib))],
        outputs: vec![c],
    }
}

/// Scalar-source baseline of [`conv_tensor`]: the stride-2 window dot
/// product written as four scalar MACs per output.
pub(crate) fn conv_tensor_scalar() -> Workload {
    const NT: i64 = 12;
    let mut m = Module::new("conv_t_scalar");
    let input = m.add_ro_mem_object("in", ScalarType::F32, (NT * NT * 4) as u64);
    let w = m.add_ro_mem_object("w", ScalarType::F32, 4);
    let output = m.add_mem_object("out", ScalarType::F32, (NT * NT) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(NT * NT), 1, |b, t| {
        let off = b.mul(t, ValueRef::int(4));
        let mut acc = ValueRef::f32(0.0);
        for k in 0..4i64 {
            let idx = b.add(off, ValueRef::int(k));
            let v = b.load(input, idx);
            let wv = b.load(w, ValueRef::int(k));
            let p = b.fmul(v, wv);
            acc = b.fadd(acc, p);
        }
        b.store(output, t, acc);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(71); // same inputs as conv_tensor
    let iin = rng.f32_vec((NT * NT * 4) as usize);
    let iw = rng.f32_vec(4);
    Workload {
        name: "CONV[T]/scalar",
        class: Class::InHouse,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(input, InitData::F32(iin)), (w, InitData::F32(iw))],
        outputs: vec![output],
    }
}

/// `(tensor, scalar-source)` workload pairs for the Figure 15 comparison.
pub fn tensor_pairs() -> Vec<(Workload, Workload)> {
    vec![
        (relu_tensor(), relu_tensor_scalar()),
        (mm2_tensor(), mm2_tensor_scalar()),
        (conv_tensor(), conv_tensor_scalar()),
    ]
}

#[cfg(test)]
mod scalar_baseline_tests {
    use super::*;

    #[test]
    fn scalar_baselines_compute_the_same_outputs() {
        for (tensor, scalar) in tensor_pairs() {
            let tm = tensor.run_reference().unwrap();
            let sm = scalar.run_reference().unwrap();
            for (&to, &so) in tensor.outputs.iter().zip(&scalar.outputs) {
                let tv = tm.read_f32(to);
                let sv = sm.read_f32(so);
                assert_eq!(tv.len(), sv.len(), "{}", tensor.name);
                for (k, (x, y)) in tv.iter().zip(&sv).enumerate() {
                    assert!(
                        (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0),
                        "{}[{k}]: {x} vs {y}",
                        tensor.name
                    );
                }
            }
        }
    }
}
