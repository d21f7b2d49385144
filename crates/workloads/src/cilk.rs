//! Cilk benchmarks (Table 2, second group): Tapir `detach`/`sync` task
//! parallelism via `par_for`, matching the paper's Cilk front-end.
//!
//! FIB and MERGESORT are recursive in the paper; the paper converts
//! recursion to an iterative pattern in LLVM before translation (§3.5).
//! MERGESORT here is the standard bottom-up (iterative) formulation. FIB is
//! modelled as its recursion-to-iteration conversion: the call tree of
//! `fib(15)` is flattened into an array of task nodes processed by
//! `parallel_for`, preserving the task count (1973 calls) and the
//! per-task work of the original — this is what gives FIB its "extensive
//! parallelism" in Figure 12.

use crate::{Class, InitData, Prng, Workload};
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::{CmpPred, ValueRef};
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, Type};

/// Number of calls in the recursion tree of `fib(n)`.
pub(crate) fn fib_call_count(n: u64) -> u64 {
    // calls(n) = calls(n-1) + calls(n-2) + 1; calls(0) = calls(1) = 1.
    let (mut a, mut b) = (1u64, 1u64);
    if n == 0 || n == 1 {
        return 1;
    }
    for _ in 2..=n {
        let c = a + b + 1;
        a = b;
        b = c;
    }
    b
}

/// FIB(15): the flattened task tree of the Cilk `spawn fib(n-1); spawn
/// fib(n-2)` recursion — one parallel task per call node. Each task
/// computes its node's depth-local contribution; results accumulate per
/// node and the per-node values are the verified output.
pub(crate) fn fib() -> Workload {
    const N: u64 = 15;
    let calls = fib_call_count(N) as i64; // 1973
    let mut m = Module::new("fib");
    let depth = m.add_ro_mem_object("depth", ScalarType::I64, calls as u64);
    let out = m.add_mem_object("out", ScalarType::I64, calls as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, calls, 1, |b, i| {
        // Per-call work: the base-case test + add of the two child results
        // (modelled as a small arithmetic body over the node's depth).
        let d = b.load(depth, i);
        let is_base = b.icmp(CmpPred::Le, d, ValueRef::int(1));
        let dm1 = b.sub(d, ValueRef::int(1));
        let dm2 = b.sub(d, ValueRef::int(2));
        let sum = b.add(dm1, dm2);
        let r = b.select(is_base, ValueRef::int(1), sum);
        b.store(out, i, r);
    });
    b.ret(None);
    m.add_function(b.finish());
    // The depth of each call node in DFS order of the fib(15) tree.
    let mut depths = Vec::with_capacity(calls as usize);
    fn walk(n: i64, depths: &mut Vec<i64>) {
        depths.push(n);
        if n > 1 {
            walk(n - 1, depths);
            walk(n - 2, depths);
        }
    }
    walk(N as i64, &mut depths);
    assert_eq!(depths.len(), calls as usize);
    Workload {
        name: "FIB",
        class: Class::Cilk,
        fp: false,
        tensor: false,
        module: m,
        inits: vec![(depth, InitData::I64(depths))],
        outputs: vec![out],
    }
}

/// Bottom-up MERGESORT over 256 integers: stage loop doubles the run
/// width; runs within a stage merge in parallel (Cilk spawns); a copy-back
/// loop ping-pongs the buffers.
pub(crate) fn mergesort() -> Workload {
    const N: i64 = 256;
    const STAGES: i64 = 8; // log2(N)
    let mut m = Module::new("msort");
    let a = m.add_mem_object("a", ScalarType::I64, N as u64);
    let buf = m.add_mem_object("buf", ScalarType::I64, N as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(STAGES), 1, |b, s| {
        let width = b.shl(ValueRef::int(1), s);
        let two_w = b.add(width, width);
        let runs = b.div(ValueRef::int(N), two_w);
        // Merge each pair of runs (parallel tasks).
        b.par_for_dyn(ValueRef::int(0), runs, 1, |b, p| {
            let lo = b.mul(p, two_w);
            let mid = b.add(lo, width);
            b.for_loop_acc(
                ValueRef::int(0),
                two_w,
                1,
                &[(ValueRef::int(0), Type::I64), (ValueRef::int(0), Type::I64)],
                |b, k, accs| {
                    let (i, j) = (accs[0], accs[1]);
                    let li = b.add(lo, i);
                    let rj = b.add(mid, j);
                    // Clamp the right index so speculative loads stay in
                    // bounds when j == width on the last pair.
                    let rj_ok = b.icmp(CmpPred::Lt, rj, ValueRef::int(N));
                    let rj_c = b.select(rj_ok, rj, ValueRef::int(N - 1));
                    let li_ok = b.icmp(CmpPred::Lt, li, ValueRef::int(N));
                    let li_c = b.select(li_ok, li, ValueRef::int(N - 1));
                    let av = b.load(a, li_c);
                    let bv = b.load(a, rj_c);
                    let left_has = b.icmp(CmpPred::Lt, i, width);
                    let right_has = b.icmp(CmpPred::Lt, j, width);
                    let a_le_b = b.icmp(CmpPred::Le, av, bv);
                    let no_right = b.xor(
                        right_has,
                        ValueRef::Const(muir_mir::instr::ConstVal::Bool(true)),
                    );
                    let pick_cmp = b.and(a_le_b, left_has);
                    let pick_left0 = b.or(pick_cmp, no_right);
                    let pick_left = b.and(pick_left0, left_has);
                    let outv = b.select(pick_left, av, bv);
                    let ok = b.add(lo, k);
                    b.store(buf, ok, outv);
                    let i1 = b.add(i, ValueRef::int(1));
                    let j1 = b.add(j, ValueRef::int(1));
                    let ni = b.select(pick_left, i1, i);
                    let nj = b.select(pick_left, j, j1);
                    vec![ni, nj]
                },
            );
        });
        // Copy back (parallel).
        b.par_for(0, N, 1, |b, i| {
            let v = b.load(buf, i);
            b.store(a, i, v);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(31);
    let init = rng.i64_vec(N as usize, 10_000);
    Workload {
        name: "M-SORT",
        class: Class::Cilk,
        fp: false,
        tensor: false,
        module: m,
        inits: vec![(a, InitData::I64(init))],
        outputs: vec![a],
    }
}

/// SAXPY: `y = a·x + y` over 4096 floats, one Cilk task per element chunk.
pub(crate) fn saxpy() -> Workload {
    const N: i64 = 4096;
    let mut m = Module::new("saxpy");
    let x = m.add_ro_mem_object("x", ScalarType::F32, N as u64);
    let y = m.add_mem_object("y", ScalarType::F32, N as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, N, 1, |b, i| {
        let xv = b.load(x, i);
        let yv = b.load(y, i);
        let ax = b.fmul(xv, ValueRef::f32(2.5));
        let s = b.fadd(ax, yv);
        b.store(y, i, s);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(37);
    let ix = rng.f32_vec(N as usize);
    let iy = rng.f32_vec(N as usize);
    Workload {
        name: "SAXPY",
        class: Class::Cilk,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(x, InitData::F32(ix)), (y, InitData::F32(iy))],
        outputs: vec![y],
    }
}

/// STENCIL: 3×3 mean filter over a 34×34 grid producing the 32×32
/// interior, one Cilk task per output row.
pub(crate) fn stencil() -> Workload {
    const W: i64 = 34;
    const OW: i64 = 32;
    let mut m = Module::new("stencil");
    let input = m.add_ro_mem_object("in", ScalarType::F32, (W * W) as u64);
    let output = m.add_mem_object("out", ScalarType::F32, (OW * OW) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, OW, 1, |b, i| {
        b.for_loop(0, ValueRef::int(OW), 1, |b, j| {
            let mut acc = ValueRef::f32(0.0);
            let mut acc_node = None;
            for di in 0..3i64 {
                for dj in 0..3i64 {
                    let r0 = b.add(i, ValueRef::int(di));
                    let row = b.mul(r0, ValueRef::int(W));
                    let c0 = b.add(j, ValueRef::int(dj));
                    let idx = b.add(row, c0);
                    let v = b.load(input, idx);
                    let nacc = b.fadd(acc, v);
                    acc = nacc;
                    acc_node = Some(nacc);
                }
            }
            let total = acc_node.expect("nonempty stencil");
            let mean = b.fmul(total, ValueRef::f32(1.0 / 9.0));
            let orow = b.mul(i, ValueRef::int(OW));
            let oidx = b.add(orow, j);
            b.store(output, oidx, mean);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(41);
    let iin = rng.f32_vec((W * W) as usize);
    Workload {
        name: "STENCIL",
        class: Class::Cilk,
        fp: true,
        tensor: false,
        module: m,
        inits: vec![(input, InitData::F32(iin))],
        outputs: vec![output],
    }
}

/// IMG-SCALE: 2× box downscale of a 64×64 image to 32×32, one Cilk task
/// per output row.
pub(crate) fn img_scale() -> Workload {
    const IW: i64 = 64;
    const OW: i64 = 32;
    let mut m = Module::new("imgscale");
    let input = m.add_ro_mem_object("in", ScalarType::F32, (IW * IW) as u64);
    let output = m.add_mem_object("out", ScalarType::F32, (OW * OW) as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, OW, 1, |b, i| {
        b.for_loop(0, ValueRef::int(OW), 1, |b, j| {
            let si = b.mul(i, ValueRef::int(2));
            let sj = b.mul(j, ValueRef::int(2));
            let r0 = b.mul(si, ValueRef::int(IW));
            let i00 = b.add(r0, sj);
            let v00 = b.load(input, i00);
            let i01 = b.add(i00, ValueRef::int(1));
            let v01 = b.load(input, i01);
            let i10 = b.add(i00, ValueRef::int(IW));
            let v10 = b.load(input, i10);
            let i11 = b.add(i10, ValueRef::int(1));
            let v11 = b.load(input, i11);
            let s0 = b.fadd(v00, v01);
            let s1 = b.fadd(v10, v11);
            let s = b.fadd(s0, s1);
            let mean = b.fmul(s, ValueRef::f32(0.25));
            let orow = b.mul(i, ValueRef::int(OW));
            let oidx = b.add(orow, j);
            b.store(output, oidx, mean);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut rng = Prng::new(43);
    let iin = rng.f32_vec((IW * IW) as usize);
    Workload {
        name: "IMG-SCALE",
        class: Class::Cilk,
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

    #[test]
    fn fib_call_counts() {
        assert_eq!(fib_call_count(0), 1);
        assert_eq!(fib_call_count(1), 1);
        assert_eq!(fib_call_count(2), 3);
        assert_eq!(fib_call_count(5), 15);
        assert_eq!(fib_call_count(15), 1973);
    }

    #[test]
    fn fib_leaf_and_interior_values() {
        let w = fib();
        let mem = w.run_reference().unwrap();
        let out = mem.read_i64(w.outputs[0]);
        let InitData::I64(depths) = &w.inits[0].1 else {
            panic!()
        };
        for (k, &d) in depths.iter().enumerate() {
            let expect = if d <= 1 { 1 } else { 2 * d - 3 };
            assert_eq!(out[k], expect, "node {k} depth {d}");
        }
    }

    #[test]
    fn mergesort_sorts() {
        let w = mergesort();
        let mem = w.run_reference().unwrap();
        let out = mem.read_i64(w.outputs[0]);
        let InitData::I64(init) = &w.inits[0].1 else {
            panic!()
        };
        let mut expect = init.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn saxpy_matches_native() {
        let w = saxpy();
        let mem = w.run_reference().unwrap();
        let InitData::F32(x) = &w.inits[0].1 else {
            panic!()
        };
        let InitData::F32(y) = &w.inits[1].1 else {
            panic!()
        };
        let out = mem.read_f32(w.outputs[0]);
        for k in 0..x.len() {
            let e = 2.5 * x[k] + y[k];
            assert!((out[k] - e).abs() < 1e-5, "{k}");
        }
    }

    #[test]
    fn stencil_matches_native() {
        let w = stencil();
        let mem = w.run_reference().unwrap();
        let InitData::F32(input) = &w.inits[0].1 else {
            panic!()
        };
        let out = mem.read_f32(w.outputs[0]);
        for i in 0..32usize {
            for j in 0..32usize {
                let mut acc = 0.0f32;
                for di in 0..3 {
                    for dj in 0..3 {
                        acc += input[(i + di) * 34 + j + dj];
                    }
                }
                let e = acc * (1.0 / 9.0);
                let got = out[i * 32 + j];
                assert!((got - e).abs() < 1e-4, "({i},{j}): {got} vs {e}");
            }
        }
    }

    #[test]
    fn img_scale_matches_native() {
        let w = img_scale();
        let mem = w.run_reference().unwrap();
        let InitData::F32(input) = &w.inits[0].1 else {
            panic!()
        };
        let out = mem.read_f32(w.outputs[0]);
        for i in 0..32usize {
            for j in 0..32usize {
                let e = 0.25
                    * (input[2 * i * 64 + 2 * j]
                        + input[2 * i * 64 + 2 * j + 1]
                        + input[(2 * i + 1) * 64 + 2 * j]
                        + input[(2 * i + 1) * 64 + 2 * j + 1]);
                assert!((out[i * 32 + j] - e).abs() < 1e-4);
            }
        }
    }
}
