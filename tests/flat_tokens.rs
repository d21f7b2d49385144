//! A token is a kind byte and a 64-bit word, a tile's lanes sit in a slab
//! beside it — and nothing a program can observe says so. Every outcome
//! pinned here (cycles, root-result hash, end-state hash, or the full text
//! of the error) was printed by the build whose tokens were still
//! `mir::Value`s, and every program is held to `Ready` ≡ `Dense` and, where
//! the interpreter can run it, to the interpreter's memory.
//!
//! The first half pins the behaviour that makes the kind *dynamic*: logic
//! on booleans yields an integer, a comparison a boolean, an integer
//! resize passes its operand's kind through, a memory object refuses a
//! scalar of another kind, poison passes through everything that does not
//! compute, and a float travels by bit pattern. The second half moves
//! vectors and tiles along every path a token takes: fan-out, a loop's
//! feedback edge, an accumulator register, a call's arguments and its
//! reply, a fault's data lines.

use muir::bench::sched::{dense_vs_ready, Outcome};
use muir::core::accel::Accelerator;
use muir::core::node::NodeKind;
use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::mir::builder::FunctionBuilder;
use muir::mir::instr::{CastOp, CmpPred, MemObjId, Op, TensorOp, ValueRef};
use muir::mir::interp::{Interp, Memory};
use muir::mir::memory::{ElemKind, ObjectImage};
use muir::mir::module::Module;
use muir::mir::types::{ScalarType, TensorShape, Type};
use muir::mir::value::Value;
use muir::sim::{end_state_hash, result_hash, FaultClass, FaultPlan, FaultSpec, SimConfig};
use muir::uopt::passes::{OpFusion, Simplify};
use muir::uopt::PassManager;

/// Seal `acc`, run `sched::dense_vs_ready` from the memory `init`
/// prepares, and return the plain `Dense` outcome as the parent build
/// printed it, with the results and, when the run completed, the final
/// memory.
fn run(
    m: &Module,
    acc: &Accelerator,
    args: &[Value],
    cfg: &SimConfig,
    init: &dyn Fn(&mut Memory),
) -> (String, Vec<Value>, Option<Memory>) {
    let comp = CompiledAccel::compile(acc).expect("seal");
    let fresh = || {
        let mut mem = Memory::from_module(m);
        init(&mut mem);
        mem
    };
    let dense = dense_vs_ready(&comp, args, &fresh, cfg, None)
        .unwrap_or_else(|e| panic!("{}: {e}", m.name));
    match dense.into_iter().next().expect("the plain leg") {
        Outcome::Ok { run, mem, .. } => (
            format!(
                "ok cycles={} res={:016x} end={:016x}",
                run.cycles,
                result_hash(&run),
                end_state_hash(&run, &mem)
            ),
            run.results,
            Some(mem),
        ),
        Outcome::Err(e) => (format!("err {e}"), Vec::new(), None),
    }
}

/// [`run`] on the frontend's translation of `m`, fault-free, with the
/// final memory held to the interpreter's.
fn run_like_the_interpreter(
    m: &Module,
    args: &[Value],
    init: &dyn Fn(&mut Memory),
) -> (String, Vec<Value>, Memory) {
    let acc = translate(m, &FrontendConfig::default()).expect("translate");
    let (got, results, mem) = run(m, &acc, args, &SimConfig::default(), init);
    let mut want = Memory::from_module(m);
    init(&mut want);
    Interp::new(m)
        .run_main(&mut want, args)
        .unwrap_or_else(|e| panic!("{}: interpreter: {e}", m.name));
    assert_eq!(
        mem.as_ref(),
        Some(&want),
        "{}: dense vs the interpreter",
        m.name
    );
    (got, results, want)
}

/// The error both the interpreter and the engine end in.
fn fails_everywhere(m: &Module, init: &dyn Fn(&mut Memory), interp: &str, engine: &str) {
    let mut mem = Memory::from_module(m);
    init(&mut mem);
    let e = Interp::new(m).run_main(&mut mem, &[]).expect_err(interp);
    assert_eq!(e.message, interp, "{}", m.name);
    let acc = translate(m, &FrontendConfig::default()).expect("translate");
    let (got, _, _) = run(m, &acc, &[], &SimConfig::default(), init);
    assert_eq!(got, engine, "{}", m.name);
}

fn words(mem: &Memory, obj: MemObjId) -> &[u64] {
    mem.objects[obj.0 as usize].words()
}

/// The caller's stores, given the builder, the `[ints, flags]` objects and
/// the `[lt, both, wide]` values.
type StoreKinds = dyn Fn(&mut FunctionBuilder, [MemObjId; 2], [ValueRef; 3]);

/// `and`/`or`/`xor` of two booleans is an integer; `icmp` is a boolean; a
/// resize is whatever it was given. Each lands in an object of its kind
/// and would be refused by one of the other.
fn kinds_module(store: &StoreKinds) -> Module {
    let mut m = Module::new("kinds");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 4);
    let ints = m.add_mem_object("ints", ScalarType::I32, 8);
    let flags = m.add_mem_object("flags", ScalarType::I1, 8);
    let mut b = FunctionBuilder::new("main", &[])
        .with_mem(&m)
        .returns(Type::I64);
    let x = b.load(a, ValueRef::int(0));
    let y = b.load(a, ValueRef::int(1));
    let lt = b.icmp(CmpPred::Lt, x, ValueRef::int(5));
    let gt = b.icmp(CmpPred::Gt, y, ValueRef::int(2));
    let both = b.and(lt, gt);
    let wide = b.push(Op::Cast(CastOp::IntResize), Some(Type::I32), vec![lt]);
    store(&mut b, [ints, flags], [lt, both, wide]);
    b.ret(Some(both));
    m.add_function(b.finish());
    m
}

fn kinds_init(mem: &mut Memory) {
    mem.init_i64(MemObjId(0), &[3, 9, 0, 0]);
}

#[test]
fn logic_on_booleans_is_an_integer_and_a_comparison_a_boolean() {
    let m = kinds_module(&|b, [ints, flags], [lt, both, wide]| {
        let either = b.or(lt, both);
        let differ = b.xor(lt, lt);
        let narrow = b.push(Op::Cast(CastOp::IntResize), Some(Type::I32), vec![both]);
        for (i, v) in [both, either, differ, narrow].into_iter().enumerate() {
            b.store(ints, ValueRef::int(i as i64), v);
        }
        b.store(flags, ValueRef::int(0), lt);
        b.store(flags, ValueRef::int(1), wide);
    });
    let (got, results, mem) = run_like_the_interpreter(&m, &[], &kinds_init);
    assert_eq!(results, [Value::Int(1)], "`and` of two booleans");
    assert_eq!(words(&mem, MemObjId(1))[..4], [1, 1, 0, 1]);
    assert_eq!(words(&mem, MemObjId(2))[..2], [1, 1]);
    assert_eq!(
        got,
        "ok cycles=96 res=cf5345ab30960092 end=83a69b4a6bc4df75"
    );
}

#[test]
fn an_object_refuses_a_scalar_of_another_kind() {
    // A comparison's boolean into an integer object ...
    let m = kinds_module(&|b, [ints, _], [lt, _, _]| b.store(ints, ValueRef::int(0), lt));
    fails_everywhere(
        &m,
        &kinds_init,
        "store of true to @mem1, which holds int",
        "err [E-SIM-EVAL] evaluation error at cycle 46, task 0 (main) node n4 invocation 1: interpreter error: store of true to @mem1, which holds int",
    );
    // ... the same boolean behind an integer resize ...
    let m = kinds_module(&|b, [ints, _], [_, _, wide]| b.store(ints, ValueRef::int(0), wide));
    fails_everywhere(
        &m,
        &kinds_init,
        "store of true to @mem1, which holds int",
        "err [E-SIM-EVAL] evaluation error at cycle 47, task 0 (main) node n4 invocation 1: interpreter error: store of true to @mem1, which holds int",
    );
    // ... and the integer `and` makes of two booleans into a boolean one.
    let m = kinds_module(&|b, [_, flags], [_, both, _]| b.store(flags, ValueRef::int(0), both));
    fails_everywhere(
        &m,
        &kinds_init,
        "store of 1 to @mem2, which holds bool",
        "err [E-SIM-EVAL] evaluation error at cycle 47, task 0 (main) node n4 invocation 1: interpreter error: store of 1 to @mem2, which holds bool",
    );
}

/// `main(x)` with `x` poison: a loop carries it (a `Merge`, or an
/// accumulator register once fused), a chain computes on it (a `Fused`
/// unit once fused), an untaken branch's load is squashed and a select
/// passes the other arm. Nothing poisoned is stored.
fn poison_module() -> (Module, MemObjId) {
    let mut m = Module::new("poison");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 4);
    let out = m.add_mem_object("out", ScalarType::I32, 4);
    let mut b = FunctionBuilder::new("main", &[Type::I64])
        .with_mem(&m)
        .returns(Type::I64);
    let x = b.arg(0);
    let carried = b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(4),
        1,
        &[(x, Type::I64)],
        |b, i, acc| {
            // a[0] = 3 is never negative: the load of a[i] is squashed
            // every trip and the φ takes the constant.
            let first = b.load(a, ValueRef::int(0));
            let never = b.icmp(CmpPred::Lt, first, ValueRef::int(0));
            let v = b.if_val(
                never,
                &[Type::I32],
                |b| vec![b.load(a, i)],
                |_| vec![ValueRef::int(7)],
            );
            b.store(out, i, v[0]);
            vec![b.add(acc[0], i)]
        },
    );
    let y = b.add(x, ValueRef::int(1));
    let z = b.mul(y, ValueRef::int(2));
    let w = b.add(z, carried[0]);
    b.ret(Some(w));
    m.add_function(b.finish());
    (m, out)
}

#[test]
fn poison_passes_through_select_merge_fused_and_a_squashed_load() {
    let (m, out) = poison_module();
    let init = |mem: &mut Memory| mem.init_i64(MemObjId(0), &[3, 1, 4, 1]);
    let (got, results, mem) = run_like_the_interpreter(&m, &[Value::Poison], &init);
    assert_eq!(results, [Value::Poison]);
    assert_eq!(words(&mem, out), [7, 7, 7, 7]);
    assert_eq!(
        got,
        "ok cycles=97 res=19308cba724037bd end=a0b3c4af15ec423c"
    );
    // Fused: the chain is one unit, the loop's φ an accumulator register.
    let mut acc = translate(&m, &FrontendConfig::default()).expect("translate");
    PassManager::new()
        .with(OpFusion::default())
        .with(Simplify)
        .run(&mut acc)
        .expect("fusion");
    let has = |pred: &dyn Fn(&NodeKind) -> bool| {
        acc.tasks
            .iter()
            .any(|t| t.dataflow.nodes.iter().any(|n| pred(&n.kind)))
    };
    assert!(has(&|k| matches!(k, NodeKind::Fused(_))), "a fused chain");
    assert!(
        has(&|k| matches!(k, NodeKind::FusedAcc { .. })),
        "an accumulator"
    );
    let (got, results, fused_mem) = run(&m, &acc, &[Value::Poison], &SimConfig::default(), &init);
    assert_eq!(results, [Value::Poison]);
    assert_eq!(fused_mem, Some(mem));
    assert_eq!(
        got,
        "ok cycles=97 res=7591b6f4e7ee0dc2 end=47f470ade7532e71"
    );
    // A poison *condition* poisons the select (the interpreter refuses to
    // branch on one, so this is the engine's word alone).
    let mut m = Module::new("poison_cond");
    let mut b = FunctionBuilder::new("main", &[Type::BOOL]).returns(Type::I64);
    let v = b.select(b.arg(0), ValueRef::int(1), ValueRef::int(2));
    b.ret(Some(v));
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).expect("translate");
    let (got, results, _) = run(&m, &acc, &[Value::Poison], &SimConfig::default(), &|_| {});
    assert_eq!(results, [Value::Poison]);
    assert_eq!(
        got,
        "ok cycles=40 res=ba15f8bc7651baad end=f66c4a0b9fd20d36"
    );
}

/// NaN payloads, a signalling NaN, `-0.0`: load → token → fan-out to three
/// consumers (one behind a select) → store, bit for bit.
#[test]
fn a_float_travels_by_bit_pattern() {
    const BITS: [u32; 4] = [0x7fc0_0001, 0x8000_0000, 0x7fa0_0000, 0xffc1_2345];
    let mut m = Module::new("bits");
    let a = m.add_ro_mem_object("a", ScalarType::F32, 4);
    let outs = ["b", "c", "d"].map(|n| m.add_mem_object(n, ScalarType::F32, 4));
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(4), 1, |b, i| {
        let v = b.load(a, i);
        let always = b.icmp(CmpPred::Ge, i, ValueRef::int(0));
        let picked = b.select(always, v, ValueRef::f32(0.0));
        b.store(outs[0], i, v);
        b.store(outs[1], i, v);
        b.store(outs[2], i, picked);
    });
    b.ret(None);
    m.add_function(b.finish());
    let init = |mem: &mut Memory| mem.init_f32(a, &BITS.map(f32::from_bits));
    let (got, _, mem) = run_like_the_interpreter(&m, &[], &init);
    for obj in outs {
        assert_eq!(words(&mem, obj), BITS.map(u64::from), "{obj}");
    }
    assert_eq!(
        got,
        "ok cycles=103 res=1519fd6859f2a44f end=e67a6dfc4ca10ef2"
    );
}

const TILE: TensorShape = TensorShape { rows: 2, cols: 2 };

fn ramp(mem: &mut Memory) {
    mem.init_i64(MemObjId(0), &(0..32).map(|x| x * 3 - 7).collect::<Vec<_>>());
}

/// One tile, three consumers: two stores and both operands of an add.
#[test]
fn a_tile_fans_out_to_every_consumer() {
    let mut m = Module::new("fanout");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 32);
    let outs = ["c", "d", "e"].map(|n| m.add_mem_object(n, ScalarType::I32, 32));
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(8), 1, |b, i| {
        let idx = b.mul(i, ValueRef::int(4));
        let t = b.load_tile(a, idx, TILE);
        let twice = b.tensor2(TensorOp::Add, TILE, t, t);
        b.store(outs[0], idx, t);
        b.store(outs[1], idx, t);
        b.store(outs[2], idx, twice);
    });
    b.ret(None);
    m.add_function(b.finish());
    let (got, _, mem) = run_like_the_interpreter(&m, &[], &ramp);
    assert_eq!(words(&mem, outs[0]), words(&mem, a));
    assert_eq!(words(&mem, outs[1]), words(&mem, a));
    assert_eq!(
        got,
        "ok cycles=160 res=2c12bb0ea3c8a1b6 end=7bba951b980535f5"
    );
}

/// A tile enters a loop as a call argument, goes round the loop's feedback
/// edge four times and comes back as the call's result — patched onto the
/// token of a call node the graph types `i64`.
fn carried_tile_module() -> (Module, MemObjId) {
    let mut m = Module::new("carried");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 32);
    let out = m.add_mem_object("out", ScalarType::I32, 4);
    let ty = Type::Tensor {
        elem: ScalarType::I32,
        shape: TILE,
    };
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let first = b.load_tile(a, ValueRef::int(0), TILE);
    let sum = b.for_loop_acc(
        ValueRef::int(1),
        ValueRef::int(5),
        1,
        &[(first, ty)],
        |b, i, acc| {
            let idx = b.mul(i, ValueRef::int(4));
            let t = b.load_tile(a, idx, TILE);
            vec![b.tensor2(TensorOp::Add, TILE, acc[0], t)]
        },
    );
    b.store(out, ValueRef::int(0), sum[0]);
    b.ret(None);
    m.add_function(b.finish());
    (m, out)
}

#[test]
fn a_tile_is_carried_by_a_loop_passed_to_a_call_and_returned_from_it() {
    let (m, out) = carried_tile_module();
    let (got, _, mem) = run_like_the_interpreter(&m, &[], &ramp);
    // Lane l of the sum: a[l] + a[4 + l] + ... + a[16 + l].
    let want: Vec<u64> = (0..4i64)
        .map(|l| (0..5).map(|k| (4 * k + l) * 3 - 7).sum::<i64>() as u64)
        .collect();
    assert_eq!(words(&mem, out), want);
    assert_eq!(
        got,
        "ok cycles=113 res=6977405dd383f5d7 end=cf46bddc67b493b9"
    );
    // With the φ fused into an accumulator register the tile lives in the
    // `FusedAcc` unit between trips.
    let mut acc = translate(&m, &FrontendConfig::default()).expect("translate");
    PassManager::new()
        .with(OpFusion::default())
        .run(&mut acc)
        .expect("fusion");
    let fused = |k: &NodeKind| matches!(k, NodeKind::FusedAcc { .. });
    assert!(acc
        .tasks
        .iter()
        .any(|t| t.dataflow.nodes.iter().any(|n| fused(&n.kind))));
    let (got, _, fused_mem) = run(&m, &acc, &[], &SimConfig::default(), &ramp);
    assert_eq!(fused_mem, Some(mem));
    assert_eq!(
        got,
        "ok cycles=110 res=a287969c68dcccf2 end=847ac5c31da6c356"
    );
}

#[test]
fn a_vector_loads_fans_out_and_stores() {
    let mut m = Module::new("vector");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 32);
    let c = m.add_mem_object("c", ScalarType::I32, 32);
    let d = m.add_mem_object("d", ScalarType::I32, 32);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(8), 1, |b, i| {
        let idx = b.mul(i, ValueRef::int(4));
        let v = b.load_vec(a, idx, 4);
        b.store(c, idx, v);
        b.store(d, idx, v);
    });
    b.ret(None);
    m.add_function(b.finish());
    let (got, _, mem) = run_like_the_interpreter(&m, &[], &ramp);
    assert_eq!(words(&mem, c), words(&mem, a));
    assert_eq!(words(&mem, d), words(&mem, a));
    assert_eq!(
        got,
        "ok cycles=144 res=ca6e5241e3be221a end=321993f1afd5aade"
    );
}

/// `t = a[0..4]; c[0..4] = t` in the root region: the tile is the first
/// token the run pushes, so a certain single-event plan hits it.
fn one_tile_module(elem: ScalarType) -> Module {
    let mut m = Module::new("one_tile");
    let a = m.add_ro_mem_object("a", elem, 4);
    let c = m.add_mem_object("c", elem, 4);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let t = b.load_tile(a, ValueRef::int(0), TILE);
    b.store(c, ValueRef::int(0), t);
    b.ret(None);
    m.add_function(b.finish());
    m
}

fn certain(class: FaultClass, seed: u64) -> SimConfig {
    SimConfig {
        faults: FaultPlan {
            seed,
            specs: vec![FaultSpec {
                class,
                rate_ppm: 1_000_000,
                max_events: 1,
            }],
        },
        ..SimConfig::default()
    }
}

/// A bit flip on a tile corrupts its first lane the way it corrupts a
/// scalar of that kind — a boolean negated, an integer in one of its low
/// 63 bits, a float in one of its 32 — and no other lane.
#[test]
fn a_bit_flip_corrupts_the_first_lane_of_a_tile() {
    let cases: [(ScalarType, ElemKind, [i64; 4], &str); 3] = [
        (
            ScalarType::I1,
            ElemKind::Bool,
            [1, 0, 1, 1],
            "ok cycles=89 res=688d17d84175b9e2 end=b05a631f9de0e12f",
        ),
        (
            ScalarType::I32,
            ElemKind::Int,
            [5, -6, 7, 8],
            "ok cycles=89 res=688d17d84175b9e2 end=644979dd8e1de845",
        ),
        (
            ScalarType::F32,
            ElemKind::F32,
            [0x3fc0_0000, 0x7fc0_0001, 0x8000_0000, 0x4120_0000],
            "ok cycles=89 res=688d17d84175b9e2 end=7f026ad52bddeb63",
        ),
    ];
    for (elem, kind, input, pin) in cases {
        let input = input.map(|w| w as u64);
        let m = one_tile_module(elem);
        let acc = translate(&m, &FrontendConfig::default()).expect("translate");
        let init = |mem: &mut Memory| {
            mem.objects[0] = ObjectImage::from_words(kind, input.to_vec()).unwrap();
        };
        let cfg = certain(FaultClass::TokenBitFlip, 0xf11b);
        let (got, _, mem) = run(&m, &acc, &[], &cfg, &init);
        let mem = mem.expect("the run completes");
        let stored = words(&mem, MemObjId(1));
        let flipped = stored[0] ^ input[0];
        assert_eq!(flipped.count_ones(), 1, "{elem}: one bit of lane 0");
        let width = match kind {
            ElemKind::Bool => 1,
            ElemKind::Int => 63,
            ElemKind::F32 => 32,
        };
        assert!(flipped.trailing_zeros() < width, "{elem}: bit {flipped:#x}");
        assert_eq!(stored[1..], input[1..], "{elem}: the other lanes");
        assert_eq!(got, pin, "{elem}");
    }
}

/// A duplicated tile token is a second copy of the lanes, not a second
/// name for them: the run ends as it did when tokens were `Value`s.
#[test]
fn a_duplicated_tile_token_is_a_copy() {
    let (m, _) = carried_tile_module();
    let acc = translate(&m, &FrontendConfig::default()).expect("translate");
    for (seed, pin) in [(1, "err [E-SIM-FAULT] token misorder at cycle 55, task 1 (main_loop1) node n2 invocation 2 instance 3: edge e2: expected instance 3, found 2"), (2, "err [E-SIM-FAULT] token misorder at cycle 64, task 1 (main_loop1) node n6 invocation 2 instance 3: edge e4: expected instance 3, found 2"), (3, "err [E-SIM-FAULT] token misorder at cycle 56, task 1 (main_loop1) node n6 invocation 2 instance 1: edge e3: expected instance 1, found 0")] {
        let cfg = SimConfig {
            faults: FaultPlan {
                seed,
                specs: vec![FaultSpec {
                    class: FaultClass::TokenDup,
                    rate_ppm: 150_000,
                    max_events: 2,
                }],
            },
            ..SimConfig::default()
        };
        let (got, _, _) = run(&m, &acc, &[], &cfg, &ramp);
        assert_eq!(got, pin, "seed {seed}");
    }
    let m = one_tile_module(ScalarType::I32);
    let acc = translate(&m, &FrontendConfig::default()).expect("translate");
    let cfg = certain(FaultClass::TokenDup, 0xd0b1);
    let init = |mem: &mut Memory| mem.init_i64(MemObjId(0), &[5, -6, 7, 8]);
    let (got, _, mem) = run(&m, &acc, &[], &cfg, &init);
    let mem = mem.expect("the run completes");
    assert_eq!(words(&mem, MemObjId(1)), words(&mem, MemObjId(0)));
    assert_eq!(
        got,
        "ok cycles=89 res=a694e6f24a8d2245 end=19a7d0fd46fa9ac7"
    );
}
