//! Polybench / MachSuite benchmarks (Table 2, first group): sequential C++
//! loop nests. Independent loops carry the HLS-pragma-equivalent parallel
//! hint (`for_loop_par`), exactly the annotation discipline the paper's HLS
//! comparison baseline also relies on.

use crate::{Class, InitData, Prng, Workload};
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::ValueRef;
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, Type};

/// GEMM: `C[N][N] = A × B`, N = 32, single-precision.
pub(crate) fn gemm() -> Workload {
    const N: i64 = 32;
    let mut m = Module::new("gemm");
    let a = m.add_ro_mem_object("A", ScalarType::F32, (N * N) as u64);
    let bm = m.add_ro_mem_object("B", ScalarType::F32, (N * N) as u64);
    let c = m.add_mem_object("C", ScalarType::F32, (N * N) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(N), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(N), 1, |b, j| {
            let arow = b.mul(i, ValueRef::int(N));
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(N),
                1,
                &[(ValueRef::f32(0.0), Type::F32)],
                |b, k, accs| {
                    let ai = b.add(arow, k);
                    let av = b.load(a, ai);
                    let bi0 = b.mul(k, ValueRef::int(N));
                    let bi = b.add(bi0, j);
                    let bv = b.load(bm, bi);
                    let p = b.fmul(av, bv);
                    vec![b.fadd(accs[0], p)]
                },
            );
            let ci = b.add(arow, j);
            b.store(c, ci, acc[0]);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(11);
    let ia = rng.f32_vec((N * N) as usize);
    let ib = rng.f32_vec((N * N) as usize);
    Workload {
        name: "GEMM",
        class: Class::Polybench,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(a, InitData::F32(ia)), (bm, InitData::F32(ib))],
        outputs: vec![c],
    }
}

/// Plain-Rust GEMM used by the tests.
pub fn gemm_reference(a: &[f32], b: &[f32], n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// COVAR: covariance matrix of `data[N][M]`, N = M = 24 (Polybench shape:
/// column means, centering, then `cov[M][M]`).
pub(crate) fn covar() -> Workload {
    const N: i64 = 24;
    const M: i64 = 24;
    let mut m = Module::new("covar");
    let data = m.add_mem_object("data", ScalarType::F32, (N * M) as u64);
    let mean = m.add_mem_object("mean", ScalarType::F32, M as u64);
    let cov = m.add_mem_object("cov", ScalarType::F32, (M * M) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    // Column means.
    b.for_loop_par(0, ValueRef::int(M), 1, |b, j| {
        let acc = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(N),
            1,
            &[(ValueRef::f32(0.0), Type::F32)],
            |b, i, accs| {
                let idx0 = b.mul(i, ValueRef::int(M));
                let idx = b.add(idx0, j);
                let v = b.load(data, idx);
                vec![b.fadd(accs[0], v)]
            },
        );
        let mn = b.fdiv(acc[0], ValueRef::f32(N as f32));
        b.store(mean, j, mn);
    });
    // Center the data.
    b.for_loop_par(0, ValueRef::int(N), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(M), 1, |b, j| {
            let idx0 = b.mul(i, ValueRef::int(M));
            let idx = b.add(idx0, j);
            let v = b.load(data, idx);
            let mn = b.load(mean, j);
            let cvd = b.fsub(v, mn);
            b.store(data, idx, cvd);
        });
    });
    // Covariance.
    b.for_loop_par(0, ValueRef::int(M), 1, |b, j1| {
        b.for_loop_par(0, ValueRef::int(M), 1, |b, j2| {
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(N),
                1,
                &[(ValueRef::f32(0.0), Type::F32)],
                |b, i, accs| {
                    let r0 = b.mul(i, ValueRef::int(M));
                    let i1 = b.add(r0, j1);
                    let i2 = b.add(r0, j2);
                    let v1 = b.load(data, i1);
                    let v2 = b.load(data, i2);
                    let p = b.fmul(v1, v2);
                    vec![b.fadd(accs[0], p)]
                },
            );
            let cv = b.fdiv(acc[0], ValueRef::f32((N - 1) as f32));
            let o0 = b.mul(j1, ValueRef::int(M));
            let oi = b.add(o0, j2);
            b.store(cov, oi, cv);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(13);
    let idata = rng.f32_vec((N * M) as usize);
    Workload {
        name: "COVAR",
        class: Class::Polybench,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(data, InitData::F32(idata))],
        outputs: vec![cov],
    }
}

/// FFT: iterative radix-2 DIT on N = 1024 complex points (separate
/// real/imag arrays, MachSuite style). The bit-reversal table and twiddle
/// factors are precomputed inputs, as in MachSuite's `fft/strided`.
pub(crate) fn fft() -> Workload {
    const N: i64 = 1024;
    const STAGES: i64 = 10;
    let mut m = Module::new("fft");
    let in_re = m.add_ro_mem_object("in_re", ScalarType::F32, N as u64);
    let in_im = m.add_ro_mem_object("in_im", ScalarType::F32, N as u64);
    let rev = m.add_ro_mem_object("rev", ScalarType::I64, N as u64);
    let tw_re = m.add_ro_mem_object("tw_re", ScalarType::F32, (N / 2) as u64);
    let tw_im = m.add_ro_mem_object("tw_im", ScalarType::F32, (N / 2) as u64);
    let re = m.add_mem_object("re", ScalarType::F32, N as u64);
    let im = m.add_mem_object("im", ScalarType::F32, N as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    // Bit-reversal copy.
    b.for_loop_par(0, ValueRef::int(N), 1, |b, i| {
        let r = b.load(rev, i);
        let vr = b.load(in_re, r);
        let vi = b.load(in_im, r);
        b.store(re, i, vr);
        b.store(im, i, vi);
    });
    // Stages (serial through memory); butterflies within a stage are
    // independent (disjoint pairs) — parallel hint, as the paper's FFT.
    b.for_loop(0, ValueRef::int(STAGES), 1, |b, s| {
        let half = b.shl(ValueRef::int(1), s);
        let twstride_sh = b.sub(ValueRef::int(STAGES - 1), s);
        b.for_loop_par(0, ValueRef::int(N / 2), 1, |b, k| {
            let hm1 = b.sub(half, ValueRef::int(1));
            let j = b.and(k, hm1);
            let grp = b.sub(k, j); // k - (k & (half-1)) = group base / 1
            let base = b.add(grp, grp); // each group spans 2*half
            let i1 = b.add(base, j);
            let i2 = b.add(i1, half);
            let twi = b.shl(j, twstride_sh);
            let wr = b.load(tw_re, twi);
            let wi = b.load(tw_im, twi);
            let ar1 = b.load(re, i1);
            let ai1 = b.load(im, i1);
            let ar2 = b.load(re, i2);
            let ai2 = b.load(im, i2);
            let tr0 = b.fmul(wr, ar2);
            let tr1 = b.fmul(wi, ai2);
            let tr = b.fsub(tr0, tr1);
            let ti0 = b.fmul(wr, ai2);
            let ti1 = b.fmul(wi, ar2);
            let ti = b.fadd(ti0, ti1);
            let or2 = b.fsub(ar1, tr);
            let oi2 = b.fsub(ai1, ti);
            let or1 = b.fadd(ar1, tr);
            let oi1 = b.fadd(ai1, ti);
            b.store(re, i2, or2);
            b.store(im, i2, oi2);
            b.store(re, i1, or1);
            b.store(im, i1, oi1);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    // Inputs.
    let mut rng = Prng::new(17);
    let ire = rng.f32_vec(N as usize);
    let iim = rng.f32_vec(N as usize);
    let mut irev = vec![0i64; N as usize];
    for (i, r) in irev.iter_mut().enumerate() {
        *r = (i as u64).reverse_bits().wrapping_shr(64 - STAGES as u32) as i64;
    }
    let mut itw_re = vec![0.0f32; (N / 2) as usize];
    let mut itw_im = vec![0.0f32; (N / 2) as usize];
    for t in 0..(N / 2) as usize {
        let ang = -2.0 * std::f64::consts::PI * t as f64 / N as f64;
        itw_re[t] = ang.cos() as f32;
        itw_im[t] = ang.sin() as f32;
    }
    Workload {
        name: "FFT",
        class: Class::Polybench,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![
            (in_re, InitData::F32(ire)),
            (in_im, InitData::F32(iim)),
            (rev, InitData::I64(irev)),
            (tw_re, InitData::F32(itw_re)),
            (tw_im, InitData::F32(itw_im)),
        ],
        outputs: vec![re, im],
    }
}

/// SPMV: CSR sparse matrix-vector product, 256 rows, 8 nnz/row.
pub(crate) fn spmv() -> Workload {
    const ROWS: i64 = 256;
    const NNZ_PER_ROW: i64 = 8;
    const NNZ: i64 = ROWS * NNZ_PER_ROW;
    let mut m = Module::new("spmv");
    let vals = m.add_ro_mem_object("vals", ScalarType::F32, NNZ as u64);
    let cols = m.add_ro_mem_object("cols", ScalarType::I64, NNZ as u64);
    let rowptr = m.add_ro_mem_object("rowptr", ScalarType::I64, (ROWS + 1) as u64);
    let x = m.add_ro_mem_object("x", ScalarType::F32, ROWS as u64);
    let y = m.add_mem_object("y", ScalarType::F32, ROWS as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop_par(0, ValueRef::int(ROWS), 1, |b, i| {
        let lo = b.load(rowptr, i);
        let ip1 = b.add(i, ValueRef::int(1));
        let hi = b.load(rowptr, ip1);
        let acc = b.for_loop_acc(
            lo,
            hi,
            1,
            &[(ValueRef::f32(0.0), Type::F32)],
            |b, e, accs| {
                let v = b.load(vals, e);
                let cidx = b.load(cols, e);
                let xv = b.load(x, cidx);
                let p = b.fmul(v, xv);
                vec![b.fadd(accs[0], p)]
            },
        );
        b.store(y, i, acc[0]);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(19);
    let ivals = rng.f32_vec(NNZ as usize);
    let icols: Vec<i64> = (0..NNZ)
        .map(|_| rng.next_below(ROWS as u64) as i64)
        .collect();
    let irowptr: Vec<i64> = (0..=ROWS).map(|r| r * NNZ_PER_ROW).collect();
    let ix = rng.f32_vec(ROWS as usize);
    Workload {
        name: "SPMV",
        class: Class::Polybench,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![
            (vals, InitData::F32(ivals)),
            (cols, InitData::I64(icols)),
            (rowptr, InitData::I64(irowptr)),
            (x, InitData::F32(ix)),
        ],
        outputs: vec![y],
    }
}

fn matmul_loops(
    b: &mut FunctionBuilder,
    n: i64,
    src_a: muir_mir::instr::MemObjId,
    src_b: muir_mir::instr::MemObjId,
    dst: muir_mir::instr::MemObjId,
) {
    b.for_loop_par(0, ValueRef::int(n), 1, |b, i| {
        b.for_loop_par(0, ValueRef::int(n), 1, |b, j| {
            let row = b.mul(i, ValueRef::int(n));
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(n),
                1,
                &[(ValueRef::f32(0.0), Type::F32)],
                |b, k, accs| {
                    let ai = b.add(row, k);
                    let av = b.load(src_a, ai);
                    let bi0 = b.mul(k, ValueRef::int(n));
                    let bi = b.add(bi0, j);
                    let bv = b.load(src_b, bi);
                    let p = b.fmul(av, bv);
                    vec![b.fadd(accs[0], p)]
                },
            );
            let ci = b.add(row, j);
            b.store(dst, ci, acc[0]);
        });
    });
}

/// 2MM: `D = (A×B)×C`, N = 24.
pub(crate) fn mm2() -> Workload {
    const N: i64 = 24;
    let mut m = Module::new("mm2");
    let a = m.add_ro_mem_object("A", ScalarType::F32, (N * N) as u64);
    let bb = m.add_ro_mem_object("B", ScalarType::F32, (N * N) as u64);
    let c = m.add_ro_mem_object("C", ScalarType::F32, (N * N) as u64);
    let tmp = m.add_mem_object("tmp", ScalarType::F32, (N * N) as u64);
    let d = m.add_mem_object("D", ScalarType::F32, (N * N) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    matmul_loops(&mut b, N, a, bb, tmp);
    matmul_loops(&mut b, N, tmp, c, d);
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(23);
    let ia = rng.f32_vec((N * N) as usize);
    let ib = rng.f32_vec((N * N) as usize);
    let ic = rng.f32_vec((N * N) as usize);
    Workload {
        name: "2MM",
        class: Class::Polybench,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![
            (a, InitData::F32(ia)),
            (bb, InitData::F32(ib)),
            (c, InitData::F32(ic)),
        ],
        outputs: vec![d],
    }
}

/// 3MM: `G = (A×B)×(C×D)`, N = 20.
pub(crate) fn mm3() -> Workload {
    const N: i64 = 20;
    let mut m = Module::new("mm3");
    let a = m.add_ro_mem_object("A", ScalarType::F32, (N * N) as u64);
    let bb = m.add_ro_mem_object("B", ScalarType::F32, (N * N) as u64);
    let c = m.add_ro_mem_object("C", ScalarType::F32, (N * N) as u64);
    let d = m.add_ro_mem_object("D", ScalarType::F32, (N * N) as u64);
    let e = m.add_mem_object("E", ScalarType::F32, (N * N) as u64);
    let f = m.add_mem_object("F", ScalarType::F32, (N * N) as u64);
    let g = m.add_mem_object("G", ScalarType::F32, (N * N) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    matmul_loops(&mut b, N, a, bb, e);
    matmul_loops(&mut b, N, c, d, f);
    matmul_loops(&mut b, N, e, f, g);
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(29);
    let ia = rng.f32_vec((N * N) as usize);
    let ib = rng.f32_vec((N * N) as usize);
    let ic = rng.f32_vec((N * N) as usize);
    let id = rng.f32_vec((N * N) as usize);
    Workload {
        name: "3MM",
        class: Class::Polybench,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![
            (a, InitData::F32(ia)),
            (bb, InitData::F32(ib)),
            (c, InitData::F32(ic)),
            (d, InitData::F32(id)),
        ],
        outputs: vec![g],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain-Rust COVAR used by the tests.
    fn covar_reference(data_in: &[f32], n: usize, m: usize) -> Vec<f32> {
        let mut data = data_in.to_vec();
        let mut mean = vec![0.0f32; m];
        for j in 0..m {
            let mut acc = 0.0f32;
            for i in 0..n {
                acc += data[i * m + j];
            }
            mean[j] = acc / n as f32;
        }
        for i in 0..n {
            for j in 0..m {
                data[i * m + j] -= mean[j];
            }
        }
        let mut cov = vec![0.0f32; m * m];
        for j1 in 0..m {
            for j2 in 0..m {
                let mut acc = 0.0f32;
                for i in 0..n {
                    acc += data[i * m + j1] * data[i * m + j2];
                }
                cov[j1 * m + j2] = acc / (n - 1) as f32;
            }
        }
        cov
    }

    /// Plain-Rust FFT used by the tests (same algorithm and operation order).
    fn fft_reference(in_re: &[f32], in_im: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let n = in_re.len();
        let stages = n.trailing_zeros();
        let mut re = vec![0.0f32; n];
        let mut im = vec![0.0f32; n];
        for i in 0..n {
            let r = (i as u64).reverse_bits().wrapping_shr(64 - stages) as usize;
            re[i] = in_re[r];
            im[i] = in_im[r];
        }
        let mut tw_re = vec![0.0f32; n / 2];
        let mut tw_im = vec![0.0f32; n / 2];
        for t in 0..n / 2 {
            let ang = -2.0 * std::f64::consts::PI * t as f64 / n as f64;
            tw_re[t] = ang.cos() as f32;
            tw_im[t] = ang.sin() as f32;
        }
        for s in 0..stages {
            let half = 1usize << s;
            for k in 0..n / 2 {
                let j = k & (half - 1);
                let base = 2 * (k - j);
                let i1 = base + j;
                let i2 = i1 + half;
                let twi = j << (stages - 1 - s);
                let (wr, wi) = (tw_re[twi], tw_im[twi]);
                let tr = wr * re[i2] - wi * im[i2];
                let ti = wr * im[i2] + wi * re[i2];
                let (r1, i1v) = (re[i1], im[i1]);
                re[i2] = r1 - tr;
                im[i2] = i1v - ti;
                re[i1] = r1 + tr;
                im[i1] = i1v + ti;
            }
        }
        (re, im)
    }

    /// Plain-Rust SPMV used by the tests.
    fn spmv_reference(vals: &[f32], cols: &[i64], rowptr: &[i64], x: &[f32]) -> Vec<f32> {
        let rows = rowptr.len() - 1;
        let mut y = vec![0.0f32; rows];
        for i in 0..rows {
            let mut acc = 0.0f32;
            for e in rowptr[i]..rowptr[i + 1] {
                acc += vals[e as usize] * x[cols[e as usize] as usize];
            }
            y[i] = acc;
        }
        y
    }

    fn f32_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            assert!((x - y).abs() <= 1e-4 * scale, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gemm_matches_native() {
        let w = gemm();
        let mem = w.run_reference().unwrap();
        let (InitData::F32(a), InitData::F32(b)) = (&w.inits[0].1, &w.inits[1].1) else {
            panic!()
        };
        let expect = gemm_reference(a, b, 32);
        f32_close(&mem.read_f32(w.outputs[0]), &expect);
    }

    #[test]
    fn covar_matches_native() {
        let w = covar();
        let mem = w.run_reference().unwrap();
        let InitData::F32(data) = &w.inits[0].1 else {
            panic!()
        };
        let expect = covar_reference(data, 24, 24);
        f32_close(&mem.read_f32(w.outputs[0]), &expect);
    }

    #[test]
    fn fft_matches_native() {
        let w = fft();
        let mem = w.run_reference().unwrap();
        let (InitData::F32(ire), InitData::F32(iim)) = (&w.inits[0].1, &w.inits[1].1) else {
            panic!()
        };
        let (ere, eim) = fft_reference(ire, iim);
        f32_close(&mem.read_f32(w.outputs[0]), &ere);
        f32_close(&mem.read_f32(w.outputs[1]), &eim);
    }

    #[test]
    fn spmv_matches_native() {
        let w = spmv();
        let mem = w.run_reference().unwrap();
        let InitData::F32(vals) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::I64(cols) = &w.inits[1].1 else {
            panic!()
        };
        let InitData::I64(rowptr) = &w.inits[2].1 else {
            panic!()
        };
        let InitData::F32(x) = &w.inits[3].1 else {
            panic!()
        };
        let expect = spmv_reference(vals, cols, rowptr, x);
        f32_close(&mem.read_f32(w.outputs[0]), &expect);
    }

    #[test]
    fn mm2_matches_native() {
        let w = mm2();
        let mem = w.run_reference().unwrap();
        let InitData::F32(a) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::F32(b) = &w.inits[1].1 else {
            panic!()
        };
        let InitData::F32(c) = &w.inits[2].1 else {
            panic!()
        };
        let tmp = gemm_reference(a, b, 24);
        let expect = gemm_reference(&tmp, c, 24);
        f32_close(&mem.read_f32(w.outputs[0]), &expect);
    }

    #[test]
    fn mm3_matches_native() {
        let w = mm3();
        let mem = w.run_reference().unwrap();
        let InitData::F32(a) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::F32(b) = &w.inits[1].1 else {
            panic!()
        };
        let InitData::F32(c) = &w.inits[2].1 else {
            panic!()
        };
        let InitData::F32(d) = &w.inits[3].1 else {
            panic!()
        };
        let e = gemm_reference(a, b, 20);
        let f = gemm_reference(c, d, 20);
        let expect = gemm_reference(&e, &f, 20);
        f32_close(&mem.read_f32(w.outputs[0]), &expect);
    }
}
