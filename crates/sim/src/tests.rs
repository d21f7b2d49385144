//! End-to-end simulator tests: every accelerator run is validated against
//! the reference interpreter, and first-order timing behaviours are
//! checked (pipelining, serialization, banking, tiling, contention).

use crate::reference::check_lowering;
use crate::{
    simulate_batch_compiled, simulate_compiled, ChannelState, FaultClass, FaultKind, FaultPlan,
    FaultSpec, SchedulerKind, SimConfig, SimError, SimResult,
};
use muir_core::accel::Accelerator;
use muir_core::compiled::CompiledAccel;
use muir_core::node::{Node, NodeKind};
use muir_core::structure::StructureKind;
use muir_frontend::{translate, FrontendConfig};
use muir_mir::builder::FunctionBuilder;
use muir_mir::instr::{CmpPred, TensorOp, ValueRef};
use muir_mir::interp::{Interp, Memory};
use muir_mir::module::Module;
use muir_mir::types::{ScalarType, TensorShape, Type};
use muir_mir::value::Value;

/// Seal `acc` and run it once: most tests here simulate a graph a single
/// time, so the seal has no one to share with.
fn seal_and_run(
    acc: &Accelerator,
    mem: &mut Memory,
    args: &[Value],
    cfg: &SimConfig,
) -> Result<SimResult, SimError> {
    let comp = CompiledAccel::compile(acc).expect("seal");
    simulate_compiled(&comp, mem, args, cfg)
}

/// Run `acc` from `mem` into the deadlock it must end in, under both
/// schedulers, and hold the error's full text to `want` — the text the
/// PR 17 build printed for the scenario, wait-edge order included.
fn pinned_deadlock(acc: &Accelerator, mem: &Memory, cfg: &SimConfig, want: &str) -> SimError {
    let comp = CompiledAccel::compile(acc).expect("seal");
    let run = |sched| {
        let cfg = cfg.clone().with_scheduler(sched);
        let e = simulate_compiled(&comp, &mut mem.clone(), &[], &cfg).unwrap_err();
        assert_eq!(e.to_string(), want, "{sched:?}");
        e
    };
    run(SchedulerKind::Dense);
    run(SchedulerKind::Ready)
}

fn run_both(m: &Module, inits: &[(muir_mir::instr::MemObjId, Vec<i64>)]) -> (Memory, Memory, u64) {
    let acc = translate(m, &FrontendConfig::default()).expect("translate");
    run_both_on(&acc, m, inits)
}

fn run_both_on(
    acc: &Accelerator,
    m: &Module,
    inits: &[(muir_mir::instr::MemObjId, Vec<i64>)],
) -> (Memory, Memory, u64) {
    let mut ref_mem = Memory::from_module(m);
    let mut sim_mem = Memory::from_module(m);
    for (obj, data) in inits {
        ref_mem.init_i64(*obj, data);
        sim_mem.init_i64(*obj, data);
    }
    Interp::new(m).run_main(&mut ref_mem, &[]).expect("interp");
    let r = seal_and_run(acc, &mut sim_mem, &[], &SimConfig::default()).expect("simulate");
    (ref_mem, sim_mem, r.cycles)
}

fn assert_mem_eq(m: &Module, a: &Memory, b: &Memory) {
    for (i, (oa, ob)) in a.objects.iter().zip(&b.objects).enumerate() {
        assert_eq!(oa, ob, "object {} ({}) differs", i, m.mem_objects[i].name);
    }
}

#[test]
fn straightline_region_matches_interp() {
    let mut m = Module::new("sl");
    let a = m.add_mem_object("a", ScalarType::I32, 8);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let v = b.load(a, ValueRef::int(0));
    let w = b.add(v, ValueRef::int(41));
    b.store(a, ValueRef::int(1), w);
    b.ret(None);
    m.add_function(b.finish());
    let (r, s, cycles) = run_both(&m, &[(a, vec![1, 0, 0, 0, 0, 0, 0, 0])]);
    assert_mem_eq(&m, &r, &s);
    assert!(cycles > 0 && cycles < 200, "tiny program: {cycles} cycles");
}

#[test]
fn loop_matches_interp() {
    let mut m = Module::new("scale");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(64), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.mul(v, ValueRef::int(3));
        b.store(a, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let init: Vec<i64> = (0..64).collect();
    let (r, s, cycles) = run_both(&m, &[(a, init)]);
    assert_mem_eq(&m, &r, &s);
    // 64 pipelined iterations: should take far less than 64 × pipeline
    // depth, but more than 64 cycles.
    assert!(cycles > 64, "{cycles}");
    assert!(cycles < 64 * 20, "pipelining failed: {cycles} cycles");
}

#[test]
fn accumulator_loop_matches_interp() {
    let mut m = Module::new("sum");
    let a = m.add_mem_object("a", ScalarType::I32, 32);
    let out = m.add_mem_object("out", ScalarType::I32, 1);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let accs = b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(32),
        1,
        &[(ValueRef::int(0), Type::I64)],
        |b, i, accs| {
            let v = b.load(a, i);
            vec![b.add(accs[0], v)]
        },
    );
    b.store(out, ValueRef::int(0), accs[0]);
    b.ret(None);
    m.add_function(b.finish());
    let init: Vec<i64> = (1..=32).collect();
    let (r, s, _) = run_both(&m, &[(a, init)]);
    assert_mem_eq(&m, &r, &s);
    assert_eq!(s.read_i64(out)[0], 528);
}

#[test]
fn nested_loops_match_interp() {
    let mut m = Module::new("mat");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(8), 1, |b, i| {
        let base = b.mul(i, ValueRef::int(8));
        b.for_loop(0, ValueRef::int(8), 1, |b, j| {
            let idx = b.add(base, j);
            let v = b.load(a, idx);
            let w = b.add(v, idx);
            b.store(a, idx, w);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let (r, s, _) = run_both(&m, &[(a, vec![5; 64])]);
    assert_mem_eq(&m, &r, &s);
}

#[test]
fn par_for_matches_interp() {
    let mut m = Module::new("cilk");
    let a = m.add_mem_object("a", ScalarType::I32, 32);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, 32, 1, |b, i| {
        let sq = b.mul(i, i);
        b.store(a, i, sq);
    });
    b.ret(None);
    m.add_function(b.finish());
    let (r, s, _) = run_both(&m, &[]);
    assert_mem_eq(&m, &r, &s);
    let out = s.read_i64(a);
    assert_eq!(out[5], 25);
}

#[test]
fn predicated_branch_matches_interp() {
    let mut m = Module::new("cond");
    let a = m.add_mem_object("a", ScalarType::I32, 32);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(32), 1, |b, i| {
        let r = b.rem(i, ValueRef::int(2));
        let is_even = b.icmp(CmpPred::Eq, r, ValueRef::int(0));
        let v = b.if_val(
            is_even,
            &[Type::I64],
            |b| vec![b.mul(ValueRef::Instr(i.as_instr().unwrap()), ValueRef::int(10))],
            |_| vec![ValueRef::int(-1)],
        );
        b.store(a, i, v[0]);
    });
    b.ret(None);
    m.add_function(b.finish());
    let (r, s, _) = run_both(&m, &[]);
    assert_mem_eq(&m, &r, &s);
    let out = s.read_i64(a);
    assert_eq!(out[4], 40);
    assert_eq!(out[5], -1);
}

#[test]
fn predicated_store_skips() {
    let mut m = Module::new("pstore");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let c = b.icmp(CmpPred::Lt, i, ValueRef::int(8));
        b.if_then(c, |b| {
            b.store(a, i, ValueRef::int(7));
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let (r, s, _) = run_both(&m, &[]);
    assert_mem_eq(&m, &r, &s);
    let out = s.read_i64(a);
    assert_eq!(out[0], 7);
    assert_eq!(out[15], 0);
}

#[test]
fn serial_loop_is_slower_than_parallel() {
    // Same body, one with a memory-carried dependence (serializes), one
    // without.
    let build = |carried: bool| -> Module {
        let mut m = Module::new("dep");
        let a = m.add_mem_object("a", ScalarType::I32, 128);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(64), 1, |b, i| {
            let idx = if carried { ValueRef::int(0) } else { i };
            let v = b.load(a, idx);
            let w = b.add(v, ValueRef::int(1));
            b.store(a, idx, w);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    };
    let m1 = build(true);
    let m2 = build(false);
    let (_, _, serial_cycles) = run_both(&m1, &[]);
    let (_, _, parallel_cycles) = run_both(&m2, &[]);
    assert!(
        serial_cycles > parallel_cycles * 2,
        "serial {serial_cycles} vs parallel {parallel_cycles}"
    );
}

#[test]
fn tensor_tiles_match_interp() {
    let shape = TensorShape::new(2, 2);
    let mut m = Module::new("tmm");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let bb = m.add_mem_object("b", ScalarType::I32, 64);
    let c = m.add_mem_object("c", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let idx = b.mul(i, ValueRef::int(4));
        let ta = b.load_tile(a, idx, shape);
        let tb = b.load_tile(bb, idx, shape);
        let tm = b.tensor2(TensorOp::MatMul, shape, ta, tb);
        b.store(c, idx, tm);
    });
    b.ret(None);
    m.add_function(b.finish());
    let ia: Vec<i64> = (0..64).collect();
    let ib: Vec<i64> = (0..64).map(|x| x % 7).collect();
    let (r, s, _) = run_both(&m, &[(a, ia), (bb, ib)]);
    assert_mem_eq(&m, &r, &s);
}

/// A token owns its lanes and gives them back when it is popped, so the
/// lane slab of an invocation grows to the tiles *in flight* — at most one
/// per ring slot — and stops: 10 000 trips that each load two tiles, add
/// them into a carried one and store the sum leave it where a few dozen
/// trips would.
#[test]
fn the_lane_slab_is_bounded_by_tokens_in_flight_not_by_trip_count() {
    const TRIPS: i64 = 10_000;
    let shape = TensorShape::new(2, 2);
    let ty = Type::Tensor {
        elem: ScalarType::I32,
        shape,
    };
    let mut m = Module::new("slab");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 4 * TRIPS as u64);
    let c = m.add_mem_object("c", ScalarType::I32, 4 * TRIPS as u64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let first = b.load_tile(a, ValueRef::int(0), shape);
    b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(TRIPS),
        1,
        &[(first, ty)],
        |b, i, carried| {
            let idx = b.mul(i, ValueRef::int(4));
            let t = b.load_tile(a, idx, shape);
            let twice = b.tensor2(TensorOp::Add, shape, t, t);
            let sum = b.tensor2(TensorOp::Add, shape, twice, carried[0]);
            b.store(c, idx, sum);
            vec![sum]
        },
    );
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).expect("translate");
    let comp = CompiledAccel::compile(&acc).expect("seal");
    let init: Vec<i64> = (0..4 * TRIPS).map(|x| x % 11 - 5).collect();
    let mut want = Memory::from_module(&m);
    want.init_i64(a, &init);
    Interp::new(&m).run_main(&mut want, &[]).expect("interp");
    for sched in [SchedulerKind::Dense, SchedulerKind::Ready] {
        let cfg = SimConfig::default().with_scheduler(sched);
        let mut mem = Memory::from_module(&m);
        mem.init_i64(a, &init);
        let mut engine = crate::engine::Engine::new(&comp, &mut mem, &cfg);
        engine.run(&[]).expect("simulate");
        let (slab_words, ring_slots) = engine.slab_high_water();
        assert!(slab_words >= 4, "{sched:?}: tiles went through the slab");
        assert!(
            slab_words <= 4 * ring_slots && ring_slots < 1000,
            "{sched:?}: {slab_words} slab words over {ring_slots} ring slots"
        );
        assert_eq!(mem, want, "{sched:?}");
    }
}

#[test]
fn function_call_matches_interp() {
    let mut m = Module::new("fn");
    let a = m.add_mem_object("a", ScalarType::I32, 4);
    let mut callee = FunctionBuilder::new("sq", &[Type::I64]).returns(Type::I64);
    let v = callee.mul(callee.arg(0), callee.arg(0));
    callee.ret(Some(v));
    let mut main = FunctionBuilder::new("main", &[]).with_mem(&m);
    let r = main.call(
        muir_mir::instr::FuncId(1),
        &[ValueRef::int(9)],
        Some(Type::I64),
    );
    main.store(a, ValueRef::int(0), r);
    main.ret(None);
    m.add_function(main.finish());
    m.add_function(callee.finish());
    let (r, s, _) = run_both(&m, &[]);
    assert_mem_eq(&m, &r, &s);
    assert_eq!(s.read_i64(a)[0], 81);
}

#[test]
fn sequential_dependent_loops_ordered() {
    // Loop 2 reads what loop 1 wrote: the Order edge must serialize them.
    let mut m = Module::new("seq");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let c = m.add_mem_object("c", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(64), 1, |b, i| {
        let w = b.mul(i, ValueRef::int(2));
        b.store(a, i, w);
    });
    b.for_loop(0, ValueRef::int(64), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.add(v, ValueRef::int(100));
        b.store(c, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let (r, s, _) = run_both(&m, &[]);
    assert_mem_eq(&m, &r, &s);
    assert_eq!(s.read_i64(c)[10], 120);
}

#[test]
fn more_tiles_speed_up_cilk_loop() {
    let build = || {
        let mut m = Module::new("tiles");
        let a = m.add_mem_object("a", ScalarType::I32, 256);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.par_for(0, 64, 1, |b, i| {
            // A moderately deep body so tile-level parallelism matters.
            let x1 = b.mul(i, i);
            let x2 = b.mul(x1, ValueRef::int(3));
            let x3 = b.add(x2, ValueRef::int(11));
            let x4 = b.mul(x3, x1);
            b.store(a, i, x4);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    };
    let m = build();
    let acc1 = translate(&m, &FrontendConfig::default()).unwrap();
    let mut acc4 = acc1.clone();
    // Replicate the spawned region task 4×.
    for t in acc4.task_ids().collect::<Vec<_>>() {
        if matches!(acc4.task(t).kind, muir_core::accel::TaskKind::Region) && t != acc4.root {
            acc4.task_mut(t).tiles = 4;
            acc4.task_mut(t).queue_depth = 8;
        }
    }
    let (_, _, c1) = run_both_on(&acc1, &m, &[]);
    let (r, s, c4) = run_both_on(&acc4, &m, &[]);
    assert_mem_eq(&m, &r, &s);
    assert!(c4 < c1, "tiling should speed up: 1T={c1} 4T={c4}");
}

#[test]
fn banking_speeds_up_tensor_streams() {
    let shape = TensorShape::new(2, 2);
    let build = || {
        let mut m = Module::new("bank");
        let a = m.add_mem_object("a", ScalarType::I32, 256);
        let c = m.add_mem_object("c", ScalarType::I32, 256);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(64), 1, |b, i| {
            let idx = b.mul(i, ValueRef::int(4));
            let t = b.load_tile(a, idx, shape);
            let u = b.tensor2(TensorOp::Add, shape, t, t);
            b.store(c, idx, u);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    };
    let m = build();
    let acc1 = translate(&m, &FrontendConfig::default()).unwrap();
    let mut acc4 = acc1.clone();
    for s in acc4.structure_ids().collect::<Vec<_>>() {
        if let StructureKind::Scratchpad { banks, .. } = &mut acc4.structure_mut(s).kind {
            *banks = 4;
        }
    }
    let (_, _, c1) = run_both_on(&acc1, &m, &[]);
    let (r, s, c4) = run_both_on(&acc4, &m, &[]);
    assert_mem_eq(&m, &r, &s);
    assert!(
        c4 < c1,
        "banking should speed up tile streams: 1B={c1} 4B={c4}"
    );
}

#[test]
fn zero_trip_loop_returns_init() {
    let mut m = Module::new("zero");
    let out = m.add_mem_object("out", ScalarType::I32, 1);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let accs = b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(0), // zero iterations
        1,
        &[(ValueRef::int(42), Type::I64)],
        |b, i, accs| vec![b.add(accs[0], i)],
    );
    b.store(out, ValueRef::int(0), accs[0]);
    b.ret(None);
    m.add_function(b.finish());
    let (r, s, _) = run_both(&m, &[]);
    assert_mem_eq(&m, &r, &s);
    assert_eq!(s.read_i64(out)[0], 42);
}

#[test]
fn cache_structures_record_hits_and_misses() {
    let mut m = Module::new("cachey");
    // Large object → cache-homed.
    let a = m.add_mem_object("a", ScalarType::I32, 1 << 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(256), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.add(v, ValueRef::int(1));
        b.store(a, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let mut mem = Memory::from_module(&m);
    let r = seal_and_run(&acc, &mut mem, &[], &SimConfig::default()).unwrap();
    assert!(r.stats.cache_misses() > 0, "cold cache must miss");
    assert!(
        r.stats.cache_hits() > r.stats.cache_misses(),
        "line reuse must hit"
    );
    assert!(r.stats.dram_fills > 0);
}

#[test]
fn stats_are_populated() {
    let mut m = Module::new("stats");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        b.store(a, i, i);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let mut mem = Memory::from_module(&m);
    let r = seal_and_run(&acc, &mut mem, &[], &SimConfig::default()).unwrap();
    assert!(r.stats.fires > 16);
    assert_eq!(r.stats.task_invocations.iter().sum::<u64>(), 2); // root + loop
    assert_eq!(r.stats.task_invocations.len(), acc.tasks.len());
}

#[test]
fn dynamic_bound_via_args() {
    let mut m = Module::new("dyn");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[Type::I64]).with_mem(&m);
    let n = b.arg(0);
    b.for_loop(0, n, 1, |b, i| {
        b.store(a, i, i);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let mut mem = Memory::from_module(&m);
    let mut ref_mem = Memory::from_module(&m);
    Interp::new(&m)
        .run_main(&mut ref_mem, &[Value::Int(10)])
        .unwrap();
    seal_and_run(&acc, &mut mem, &[Value::Int(10)], &SimConfig::default()).unwrap();
    assert_eq!(ref_mem.objects, mem.objects);
    assert_eq!(mem.read_i64(a)[9], 9);
    assert_eq!(mem.read_i64(a)[10], 0);
}

#[test]
fn vector_loads_and_stores_work() {
    // The polymorphic Vector type: 4-lane loads/stores through the databox.
    let mut m = Module::new("vec");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 64);
    let c = m.add_mem_object("c", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let idx = b.mul(i, ValueRef::int(4));
        let v = b.load_vec(a, idx, 4);
        b.store(c, idx, v);
    });
    b.ret(None);
    m.add_function(b.finish());
    let init: Vec<i64> = (0..64).map(|x| x * 3).collect();
    let (r, s, _) = run_both(&m, &[(a, init.clone())]);
    assert_mem_eq(&m, &r, &s);
    assert_eq!(s.read_i64(c), init);
}

#[test]
fn cycle_limit_is_enforced() {
    let mut m = Module::new("limit");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(64), 1, |b, i| {
        b.store(a, i, i);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let mut mem = Memory::from_module(&m);
    let cfg = SimConfig {
        max_cycles: 10,
        ..SimConfig::default()
    };
    let e = seal_and_run(&acc, &mut mem, &[], &cfg).unwrap_err();
    assert!(
        matches!(e, SimError::CycleLimitExhausted { limit: 10 }),
        "{e}"
    );
    assert_eq!(e.code(), "E-SIM-LIMIT");
    assert!(e.to_string().contains("cycle limit"), "{e}");
}

#[test]
fn corrupted_graph_is_rejected_at_seal() {
    let mut m = Module::new("dead");
    let a = m.add_mem_object("a", ScalarType::I32, 8);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(8), 1, |b, i| {
        b.store(a, i, i);
    });
    b.ret(None);
    m.add_function(b.finish());
    let looped = translate(&m, &FrontendConfig::default()).unwrap();
    let (_, _, tiled) = tiled_workload();
    for mut acc in [looped, tiled] {
        // Cut one data edge feeding a store, leaving its port unconnected.
        let is_store = |k: &NodeKind| matches!(k, NodeKind::Store { .. });
        let t = acc
            .task_ids()
            .find(|&t| acc.task(t).dataflow.nodes.iter().any(|n| is_store(&n.kind)))
            .expect("a task with a store");
        let df = &mut acc.task_mut(t).dataflow;
        let store = df.node_ids().find(|&n| is_store(&df.node(n).kind)).unwrap();
        let pos = df.edges.iter().position(|e| e.dst == store).unwrap();
        df.edges.remove(pos);
        // Sealing is the up-front structural check: the corrupted graph
        // never becomes something the simulator accepts, and the error
        // carries the verifier's finding (site and message).
        let e = CompiledAccel::compile(&acc).unwrap_err();
        assert!(!e.at.is_empty(), "verify error names a site");
        assert!(e.message.contains("unconnected"), "{e}");
    }
}

#[test]
fn narrow_window_serializes_iterations() {
    let mut m = Module::new("win");
    let a = m.add_ro_mem_object("a", ScalarType::F32, 128);
    let c = m.add_mem_object("c", ScalarType::F32, 128);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(128), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.fmul(v, ValueRef::f32(2.0));
        b.store(c, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let run = |window: u64| {
        let mut mem = Memory::from_module(&m);
        let cfg = SimConfig {
            window,
            ..SimConfig::default()
        };
        seal_and_run(&acc, &mut mem, &[], &cfg).unwrap().cycles
    };
    let narrow = run(1);
    let wide = run(64);
    assert!(narrow > 2 * wide, "window=1 {narrow} vs window=64 {wide}");
}

#[test]
fn task_busy_cycles_track_occupancy() {
    let mut m = Module::new("occ");
    let a = m.add_mem_object("a", ScalarType::I32, 32);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(32), 1, |b, i| {
        b.store(a, i, i);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let mut mem = Memory::from_module(&m);
    let r = seal_and_run(&acc, &mut mem, &[], &SimConfig::default()).unwrap();
    // The loop task is busy for most of the run; the root the whole run.
    let busy = &r.stats.task_busy_cycles;
    assert_eq!(busy.len(), acc.tasks.len());
    assert!(busy.iter().any(|&c| c > 32));
    assert!(busy.iter().sum::<u64>() <= r.cycles * acc.tasks.len() as u64 * 2);
}

#[test]
fn order_cycle_deadlock_is_detected() {
    // A structurally valid graph whose Order edges form a cycle can never
    // make progress; the watchdog must report it with diagnostics.
    let mut m = Module::new("ouro");
    let a = m.add_mem_object("a", ScalarType::I32, 8);
    let c = m.add_mem_object("c", ScalarType::I32, 8);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(4), 1, |b, i| {
        b.store(a, i, i);
        b.store(c, i, i);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
    let lp = acc
        .task_ids()
        .find(|&t| acc.task(t).kind.is_loop())
        .unwrap();
    let df = &mut acc.task_mut(lp).dataflow;
    let stores: Vec<_> = df.mem_nodes();
    assert!(stores.len() >= 2);
    // Mutual ordering: each store waits for the other's completion.
    df.connect_order(stores[0], stores[1]);
    df.connect_order(stores[1], stores[0]);
    let mem = Memory::from_module(&m);
    let cfg = SimConfig {
        deadlock_cycles: 2_000,
        ..SimConfig::default()
    };
    // The order-in path of the diagnosis: both wait edges are order edges.
    let e = pinned_deadlock(
        &acc,
        &mem,
        &cfg,
        "[E-SIM-DEADLOCK] deadlock at cycle 2048: blocked-channel cycle: \
         task 1 (main_loop1) st_4 (n1) -[e5 empty, cap 8]-> st_5 (n2); \
         task 1 (main_loop1) st_5 (n2) -[e4 empty, cap 8]-> st_4 (n1); \
         task 0 (main) tile 0: trip 1 admitted 1 completed 0 spawns 0; \
         task 1 (main_loop1) tile 0: trip 4 admitted 4 completed 0 spawns 0",
    );
    let SimError::Deadlock { report, .. } = &e else {
        panic!("want Deadlock, got {e}")
    };
    // The two mutually-ordered stores wait on each other's (empty) order
    // edges: the wait-for walk must find that cycle.
    assert!(!report.wait_cycle.is_empty(), "wait-for cycle found: {e}");
    assert!(
        report
            .wait_cycle
            .iter()
            .all(|w| w.state == ChannelState::Empty),
        "{e}"
    );
    // An all-empty cycle is a graph bug, not a sizing bug: no buffer bump
    // can fix it, so no suggestion is offered.
    assert!(report.suggestion.is_none(), "{e}");
    assert!(e.to_string().contains("deadlock"), "{e}");
    assert!(
        e.to_string().contains("admitted"),
        "diagnostic names stuck tiles: {e}"
    );
}

// ---------------------------------------------------------------------------
// Fault injection & deadlock diagnosis
// ---------------------------------------------------------------------------

/// A small loop workload (a[i] += 3 over 32 elements) used by the fault
/// tests, plus its fault-free reference result.
fn fault_workload() -> (Module, muir_mir::instr::MemObjId, Vec<i64>) {
    let mut m = Module::new("fw");
    let a = m.add_mem_object("a", ScalarType::I32, 32);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(32), 1, |b, i| {
        let v = b.load(a, i);
        let w = b.add(v, ValueRef::int(3));
        b.store(a, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let init: Vec<i64> = (0..32).map(|x| x * 2).collect();
    let mut ref_mem = Memory::from_module(&m);
    ref_mem.init_i64(a, &init);
    Interp::new(&m).run_main(&mut ref_mem, &[]).expect("interp");
    let expected = ref_mem.read_i64(a);
    (m, a, expected)
}

/// The fault workload sealed-ready: its accelerator, its initial image, and
/// the configuration that arms `plan`.
fn fault_case(plan: FaultPlan) -> (Accelerator, Memory, SimConfig) {
    let (m, a, _) = fault_workload();
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &(0..32).map(|x| x * 2).collect::<Vec<_>>());
    let cfg = SimConfig {
        deadlock_cycles: 5_000,
        max_cycles: 2_000_000,
        faults: plan,
        ..SimConfig::default()
    };
    (acc, mem, cfg)
}

/// Run the fault workload under `plan`; returns the simulation outcome and
/// the final memory image of `a`.
fn run_with_plan(plan: FaultPlan) -> (Result<crate::SimResult, SimError>, Vec<i64>, Vec<i64>) {
    let (_, a, expected) = fault_workload();
    let (acc, mut mem, cfg) = fault_case(plan);
    let r = seal_and_run(&acc, &mut mem, &[], &cfg);
    let got = mem.read_i64(a);
    (r, got, expected)
}

/// An always-fire single-event plan: the very first opportunity of `class`
/// injects, so every fault test exercises its class deterministically.
fn certain(class: FaultClass, seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        specs: vec![FaultSpec {
            class,
            rate_ppm: 1_000_000,
            max_events: 1,
        }],
    }
}

#[test]
fn underbuffered_edge_deadlocks_and_suggestion_fixes_it() {
    // Model a μopt pass that wrongly removed a pipeline register: squeeze
    // one dynamic data edge to Fifo(0). The producer can then never hand
    // its token over, so the watchdog must name the blocked channel cycle
    // and suggest the buffer bump that repairs it.
    let (m, a, expected) = fault_workload();
    let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
    let lp = acc
        .task_ids()
        .find(|&t| acc.task(t).kind.is_loop())
        .unwrap();
    let squeezed = {
        let df = &mut acc.task_mut(lp).dataflow;
        let store = df
            .node_ids()
            .find(|&n| matches!(df.node(n).kind, muir_core::node::NodeKind::Store { .. }))
            .unwrap();
        let is_dyn = |df: &muir_core::dataflow::Dataflow, n: muir_core::dataflow::NodeId| {
            !matches!(
                df.node(n).kind,
                muir_core::node::NodeKind::Input { .. } | muir_core::node::NodeKind::Const(_)
            )
        };
        let ei = df
            .edges
            .iter()
            .position(|e| {
                e.dst == store
                    && matches!(e.kind, muir_core::dataflow::EdgeKind::Data)
                    && is_dyn(df, e.src)
            })
            .expect("dynamic data edge into the store");
        df.edges[ei].buffering = muir_core::dataflow::Buffering::Fifo(0);
        ei
    };
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &(0..32).map(|x| x * 2).collect::<Vec<_>>());
    let cfg = SimConfig {
        deadlock_cycles: 2_000,
        ..SimConfig::default()
    };
    let e = pinned_deadlock(&acc, &mem, &cfg, SQUEEZED_DEADLOCK);
    let SimError::Deadlock { report, .. } = &e else {
        panic!("want Deadlock, got {e}")
    };
    // The report names the squeezed channel as the Full link of the cycle.
    assert!(
        report
            .wait_cycle
            .iter()
            .any(|w| w.state == ChannelState::Full && w.edge == squeezed as u32),
        "cycle names the squeezed edge: {e}"
    );
    assert!(
        report
            .wait_cycle
            .iter()
            .any(|w| w.state == ChannelState::Empty),
        "consumer side of the cycle is starved: {e}"
    );
    let sugg = report
        .suggestion
        .expect("full channel in cycle implies a suggestion");
    assert_eq!(sugg.edge, squeezed as u32, "{e}");
    assert!(sugg.depth >= 1, "{e}");
    // Apply the suggested re-buffering: the run must now complete and
    // match the reference result.
    let df = &mut acc.tasks[sugg.task as usize].dataflow;
    df.edges[sugg.edge as usize].buffering = muir_core::dataflow::Buffering::Fifo(sugg.depth);
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &(0..32).map(|x| x * 2).collect::<Vec<_>>());
    let r = seal_and_run(&acc, &mut mem, &[], &SimConfig::default()).expect("fixed run completes");
    assert!(r.cycles > 0);
    assert_eq!(
        mem.read_i64(a),
        expected,
        "fixed run is functionally correct"
    );
}

#[test]
fn idle_skip_never_outruns_the_deadlock_watchdog() {
    // The ready-set scheduler fast-forwards over cycles where no node can
    // fire. A deadlocked accelerator is the extreme case: nothing is ever
    // ready again, so an unbounded skip would jump straight past the
    // watchdog deadline (or spin to the hard cycle limit). The skip target
    // must be capped at `last_progress + deadlock_cycles`, which makes both
    // schedulers report the deadlock at exactly the same cycle.
    let (m, a, _) = fault_workload();
    let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
    let lp = acc
        .task_ids()
        .find(|&t| acc.task(t).kind.is_loop())
        .unwrap();
    {
        let df = &mut acc.task_mut(lp).dataflow;
        let store = df
            .node_ids()
            .find(|&n| matches!(df.node(n).kind, muir_core::node::NodeKind::Store { .. }))
            .unwrap();
        let ei = df
            .edges
            .iter()
            .position(|e| {
                e.dst == store
                    && matches!(e.kind, muir_core::dataflow::EdgeKind::Data)
                    && !matches!(
                        df.node(e.src).kind,
                        muir_core::node::NodeKind::Input { .. }
                            | muir_core::node::NodeKind::Const(_)
                    )
            })
            .expect("dynamic data edge into the store");
        df.edges[ei].buffering = muir_core::dataflow::Buffering::Fifo(0);
    }
    let run = |kind: SchedulerKind| {
        let mut mem = Memory::from_module(&m);
        mem.init_i64(a, &(0..32).map(|x| x * 2).collect::<Vec<_>>());
        let cfg = SimConfig {
            deadlock_cycles: 2_000,
            ..SimConfig::default()
        }
        .with_scheduler(kind);
        seal_and_run(&acc, &mut mem, &[], &cfg).unwrap_err()
    };
    let (dense, ready) = (run(SchedulerKind::Dense), run(SchedulerKind::Ready));
    let SimError::Deadlock { cycle: dc, .. } = dense else {
        panic!("dense: want Deadlock, got {dense}")
    };
    let SimError::Deadlock { cycle: rc, .. } = ready else {
        panic!("ready: want Deadlock, got {ready}")
    };
    assert_eq!(
        dc, rc,
        "watchdog fires at the same cycle under both schedulers"
    );
}

#[test]
fn token_drop_is_never_a_silent_wrong_answer() {
    for seed in 0..8u64 {
        let (r, got, expected) = run_with_plan(certain(FaultClass::TokenDrop, seed));
        match r {
            // Typed detection (misordered tokens) or a hang are both
            // acceptable surfacings of a lost valid pulse.
            Err(SimError::Fault {
                kind: FaultKind::TokenMisorder,
                ..
            }) => {}
            Err(SimError::Deadlock { .. }) | Err(SimError::CycleLimitExhausted { .. }) => {}
            Err(other) => panic!("seed {seed}: unexpected error class {other}"),
            Ok(res) => {
                // A run that completes despite the drop must either be
                // correct or carry the injected-fault flag.
                assert!(
                    got == expected || res.stats.faults_injected() > 0,
                    "seed {seed}: silent corruption"
                );
            }
        }
    }
}

#[test]
fn fault_runs_are_deterministic_per_seed() {
    for class in [
        FaultClass::TokenDrop,
        FaultClass::TokenBitFlip,
        FaultClass::TokenDup,
    ] {
        let (r1, got1, _) = run_with_plan(certain(class, 42));
        let (r2, got2, _) = run_with_plan(certain(class, 42));
        assert_eq!(
            format!("{r1:?}"),
            format!("{r2:?}"),
            "{class}: same seed, same outcome"
        );
        assert_eq!(got1, got2, "{class}: same seed, same memory image");
    }
}

#[test]
fn bit_flip_completion_is_flagged_in_stats() {
    let mut flagged = 0;
    for seed in 0..8u64 {
        let (r, got, expected) = run_with_plan(certain(FaultClass::TokenBitFlip, seed));
        if let Ok(res) = r {
            assert_eq!(res.stats.faults.token_bit_flip, 1, "seed {seed}");
            assert!(res.stats.faults_injected() > 0, "seed {seed}");
            flagged += 1;
            if got != expected {
                // Silent corruption is impossible: the stats carry the flag.
                assert!(res.stats.faults_injected() > 0);
            }
        }
    }
    assert!(
        flagged > 0,
        "at least one flipped run completes (flag visible)"
    );
}

#[test]
fn uncorrectable_ecc_surfaces_as_typed_fault() {
    let mut saw_uncorrectable = false;
    let mut saw_corrected = false;
    for seed in 0..12u64 {
        let (r, _, _) = run_with_plan(certain(FaultClass::MemEcc, seed));
        match r {
            Err(SimError::Fault {
                kind: FaultKind::EccUncorrectable,
                cycle,
                ..
            }) => {
                assert!(cycle > 0);
                saw_uncorrectable = true;
            }
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
            Ok(res) => {
                // The single event was corrected in flight: logged, harmless.
                assert_eq!(res.stats.faults.mem_ecc, 1, "seed {seed}");
                assert_eq!(res.stats.ecc_corrected(), 1, "seed {seed}");
                saw_corrected = true;
            }
        }
    }
    assert!(
        saw_uncorrectable,
        "some seed produces an uncorrectable event"
    );
    assert!(saw_corrected, "some seed produces a corrected event");
}

#[test]
fn stuck_handshake_is_diagnosed_with_the_stuck_node() {
    // A stuck output handshake can never complete.
    let (acc, mem, cfg) = fault_case(certain(FaultClass::StuckHandshake, 7));
    let e = pinned_deadlock(
        &acc,
        &mem,
        &cfg,
        "[E-SIM-DEADLOCK] deadlock at cycle 5046: no blocked-channel cycle; \
         task 0 (main) tile 0: trip 1 admitted 1 completed 0 spawns 0; \
         stuck handshake at task 0 node n0",
    );
    let SimError::Deadlock { report, .. } = &e else {
        panic!("want Deadlock, got {e}")
    };
    assert!(
        !report.stuck_nodes.is_empty(),
        "report names the stuck node: {e}"
    );
    assert!(e.to_string().contains("stuck handshake"), "{e}");
}

#[test]
fn dram_timeout_hangs_are_attributed_to_memory() {
    // Force the severe delay arm: scan seeds until one run hangs; the
    // watchdog must point at outstanding memory traffic, not at channels.
    let mut saw_hang = false;
    for seed in 0..12u64 {
        let (r, _, _) = run_with_plan(certain(FaultClass::DramTimeout, seed));
        match r {
            Err(SimError::Deadlock { report, .. }) => {
                assert!(report.mem_outstanding > 0, "hang blamed on memory");
                saw_hang = true;
            }
            Err(SimError::CycleLimitExhausted { .. }) => saw_hang = true,
            Err(other) => panic!("seed {seed}: unexpected error {other}"),
            Ok(res) => {
                // Minor-delay arm: run completes, slowdown is logged.
                assert_eq!(res.stats.faults.dram_timeout, 1, "seed {seed}");
            }
        }
    }
    assert!(saw_hang, "some seed takes the timeout arm");
}

// ---------------------------------------------------------------------------
// Observability: stall attribution and the zero-perturbation contract
// ---------------------------------------------------------------------------

/// What the fault workload deadlocks with once the dynamic data edge into
/// its store is squeezed to `Fifo(0)` (2 000-cycle watchdog): the squeezed
/// channel is both links of the wait-for cycle.
const SQUEEZED_DEADLOCK: &str = "[E-SIM-DEADLOCK] deadlock at cycle 2078: blocked-channel cycle: \
     task 1 (main_loop1) i (n0) -[e3 full, cap 0]-> st_6 (n2); \
     task 1 (main_loop1) st_6 (n2) -[e3 empty, cap 0]-> i (n0); \
     suggestion: grow task 1 edge e3 to Fifo(1); \
     task 0 (main) tile 0: trip 1 admitted 1 completed 0 spawns 0; \
     task 1 (main_loop1) tile 0: trip 32 admitted 32 completed 0 spawns 0";

/// The fault workload with one dynamic data edge into the store squeezed
/// to `Fifo(depth)`; returns the accelerator and the squeezed edge's
/// (task, edge) coordinates.
fn squeezed_accelerator(m: &Module, depth: u32) -> (Accelerator, usize, usize) {
    let mut acc = translate(m, &FrontendConfig::default()).unwrap();
    let lp = acc
        .task_ids()
        .find(|&t| acc.task(t).kind.is_loop())
        .unwrap();
    let ti = lp.0 as usize;
    let ei = {
        let df = &mut acc.task_mut(lp).dataflow;
        let store = df
            .node_ids()
            .find(|&n| matches!(df.node(n).kind, muir_core::node::NodeKind::Store { .. }))
            .unwrap();
        let is_dyn = |df: &muir_core::dataflow::Dataflow, n: muir_core::dataflow::NodeId| {
            !matches!(
                df.node(n).kind,
                muir_core::node::NodeKind::Input { .. } | muir_core::node::NodeKind::Const(_)
            )
        };
        let ei = df
            .edges
            .iter()
            .position(|e| {
                e.dst == store
                    && matches!(e.kind, muir_core::dataflow::EdgeKind::Data)
                    && is_dyn(df, e.src)
            })
            .expect("dynamic data edge into the store");
        df.edges[ei].buffering = muir_core::dataflow::Buffering::Fifo(depth);
        ei
    };
    (acc, ti, ei)
}

#[test]
fn stall_attribution_blames_the_channel_deadlock_diagnosis_would_bump() {
    // An under-buffered (but live) channel: every other edge gets a deep
    // elastic buffer, so the squeezed Fifo(1) edge is the only place
    // back-pressure can accumulate. The profile must attribute (nearly)
    // all output-full stall cycles to that channel — the same channel the
    // deadlock watchdog names when the buffer is removed entirely.
    let (m, a, expected) = fault_workload();
    let (acc, ti, ei) = squeezed_accelerator(&m, 1);
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &(0..32).map(|x| x * 2).collect::<Vec<_>>());
    let cfg = SimConfig {
        elastic_depth: 1024,
        trace: crate::TraceConfig::on(),
        ..SimConfig::default()
    };
    let r = seal_and_run(&acc, &mut mem, &[], &cfg).expect("squeezed-but-live run completes");
    assert_eq!(mem.read_i64(a), expected, "still functionally correct");

    let profile = r.profile.expect("tracing was on");
    let total_full: u64 = profile.channels.iter().map(|c| c.full_stalls).sum();
    let squeezed_full = profile
        .channels
        .iter()
        .find(|c| c.task as usize == ti && c.edge as usize == ei)
        .map_or(0, |c| c.full_stalls);
    assert!(
        squeezed_full > 0,
        "squeezed channel recorded no full stalls"
    );
    assert!(
        squeezed_full as f64 >= 0.9 * total_full as f64,
        "squeezed channel holds {squeezed_full}/{total_full} full-stall cycles"
    );

    // The bottleneck report's top channel entry names the same edge.
    let report = profile.bottlenecks(5);
    let squeezed_name = profile
        .channels
        .iter()
        .find(|c| c.task as usize == ti && c.edge as usize == ei)
        .map(|c| c.name.clone())
        .unwrap();
    let top_channel = report
        .entries
        .iter()
        .find(|b| b.kind == crate::BottleneckKind::Channel)
        .expect("a channel bottleneck is reported");
    assert_eq!(top_channel.name, squeezed_name, "{report}");
    assert!(
        top_channel.suggestion.contains("Fifo(2)"),
        "suggestion doubles the squeezed capacity: {}",
        top_channel.suggestion
    );

    // Correspondence: with the buffer removed entirely the run deadlocks,
    // and the watchdog's re-buffering suggestion names the very channel
    // the profile blamed.
    let (acc0, ti0, ei0) = squeezed_accelerator(&m, 0);
    assert_eq!((ti0, ei0), (ti, ei), "same edge squeezed in both builds");
    let mut mem = Memory::from_module(&m);
    mem.init_i64(a, &(0..32).map(|x| x * 2).collect::<Vec<_>>());
    let cfg0 = SimConfig {
        deadlock_cycles: 2_000,
        ..SimConfig::default()
    };
    let e = pinned_deadlock(&acc0, &mem, &cfg0, SQUEEZED_DEADLOCK);
    let SimError::Deadlock { report, .. } = &e else {
        panic!("want Deadlock, got {e}")
    };
    let sugg = report.suggestion.expect("deadlock suggests a re-buffer");
    assert_eq!(
        (sugg.task as usize, sugg.edge as usize),
        (ti, ei),
        "profile and deadlock diagnosis name the same channel"
    );
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    // The observer only reads engine facts; enabling it — at any ring
    // capacity — must leave cycles, firings, statistics
    // and results bit-identical to the untraced run.
    let mut m = Module::new("perturb");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let b_obj = m.add_mem_object("b", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(8), 1, |b, i| {
        let base = b.mul(i, ValueRef::int(8));
        b.for_loop(0, ValueRef::int(8), 1, |b, j| {
            let idx = b.add(base, j);
            let v = b.load(a, idx);
            let w = b.load(b_obj, idx);
            let s = b.mul(v, w);
            b.store(a, idx, s);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    let init_a: Vec<i64> = (0..64).map(|x| x + 1).collect();
    let init_b: Vec<i64> = (0..64).map(|x| 2 * x - 5).collect();

    let run = |trace: crate::TraceConfig| {
        let mut mem = Memory::from_module(&m);
        mem.init_i64(a, &init_a);
        mem.init_i64(b_obj, &init_b);
        let cfg = SimConfig {
            trace,
            ..SimConfig::default()
        };
        let r = seal_and_run(&acc, &mut mem, &[], &cfg).expect("run completes");
        (r, mem.read_i64(a))
    };

    let (base, base_mem) = run(crate::TraceConfig::default());
    assert!(base.profile.is_none() && base.trace.is_none());

    let variants = [
        crate::TraceConfig::on(),
        // Tiny ring: forces the drop path.
        crate::TraceConfig {
            capacity: 64,
            ..crate::TraceConfig::on()
        },
    ];
    for (k, v) in variants.into_iter().enumerate() {
        let (traced, traced_mem) = run(v);
        assert_eq!(base.cycles, traced.cycles, "variant {k}: cycles differ");
        assert_eq!(base.stats.fires, traced.stats.fires, "variant {k}");
        assert_eq!(
            base.stats.task_invocations, traced.stats.task_invocations,
            "variant {k}"
        );
        assert_eq!(base.results, traced.results, "variant {k}");
        assert_eq!(base_mem, traced_mem, "variant {k}: memory differs");
        let profile = traced.profile.expect("tracing was on");
        assert_eq!(profile.cycles, traced.cycles, "variant {k}");
        assert_eq!(
            profile.events_recorded + profile.events_dropped,
            traced.trace.as_ref().unwrap().events.len() as u64 + profile.events_dropped,
            "variant {k}: ring accounting is consistent"
        );
    }
}

/// A multi-tile workload (spawned region replicated 4×) that exercises
/// dispatch, spawn completion, and junction arbitration — the paths where
/// a scheduler bug would show up as divergence.
fn tiled_workload() -> (Module, muir_mir::instr::MemObjId, Accelerator) {
    let mut m = Module::new("ptiles");
    let a = m.add_mem_object("a", ScalarType::I32, 256);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, 64, 1, |b, i| {
        let x1 = b.mul(i, i);
        let x2 = b.mul(x1, ValueRef::int(3));
        let x3 = b.add(x2, ValueRef::int(11));
        let x4 = b.mul(x3, x1);
        b.store(a, i, x4);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
    for t in acc.task_ids().collect::<Vec<_>>() {
        if matches!(acc.task(t).kind, muir_core::accel::TaskKind::Region) && t != acc.root {
            acc.task_mut(t).tiles = 4;
            acc.task_mut(t).queue_depth = 8;
        }
    }
    (m, a, acc)
}

/// Everything observable about a run except `sched_visits` (a simulator
/// effort counter that differs between schedulers by design).
#[allow(clippy::type_complexity)]
fn observables(
    r: &crate::SimResult,
    mem: &Memory,
) -> (u64, Vec<Value>, u64, Vec<u64>, Vec<u64>, u64, u64, Memory) {
    (
        r.cycles,
        r.results.clone(),
        r.stats.fires,
        r.stats.task_invocations.clone(),
        r.stats.task_busy_cycles.clone(),
        r.stats.dram_fills,
        r.stats.faults.total(),
        mem.clone(),
    )
}

#[test]
fn ready_scheduler_matches_dense_on_tiled_workload() {
    // The scheduler differential on the richest in-crate workload, plain
    // and under a single bit flip, over one sealed artifact whose tables
    // are first held to the reference lowering. The cross-workload version
    // of this sweep lives in muir-bench's differential suites.
    let (m, a, acc) = tiled_workload();
    let comp = CompiledAccel::compile(&acc).expect("seal");
    check_lowering(&comp).expect("sealed lowering matches the reference");
    let run = |cfg: SimConfig| {
        let mut mem = Memory::from_module(&m);
        let r = simulate_compiled(&comp, &mut mem, &[], &cfg).expect("simulate");
        (observables(&r, &mem), mem.read_i64(a))
    };
    for faults in [
        FaultPlan::none(),
        FaultPlan::single(FaultClass::TokenBitFlip, 0xd1ff),
    ] {
        let base = SimConfig {
            faults,
            ..SimConfig::default()
        };
        let dense = run(base.clone().with_scheduler(SchedulerKind::Dense));
        let ready = run(base.with_scheduler(SchedulerKind::Ready));
        assert_eq!(dense, ready, "ready vs dense");
    }
}

#[test]
fn ready_scheduler_matches_dense_under_faults() {
    // Seeded fault injection draws from one global RNG stream whose order
    // is visit order — the sharpest determinism probe we have.
    let (m, _a, acc) = tiled_workload();
    let plan = FaultPlan {
        seed: 0xfa57,
        specs: vec![
            FaultSpec {
                class: FaultClass::TokenBitFlip,
                rate_ppm: 4_000,
                max_events: 6,
            },
            FaultSpec {
                class: FaultClass::StuckHandshake,
                rate_ppm: 1_000,
                max_events: 2,
            },
        ],
    };
    let run = |scheduler: SchedulerKind| {
        let cfg = SimConfig {
            faults: plan.clone(),
            deadlock_cycles: 20_000,
            max_cycles: 5_000_000,
            ..SimConfig::default()
        }
        .with_scheduler(scheduler);
        let mut mem = Memory::from_module(&m);
        let r = seal_and_run(&acc, &mut mem, &[], &cfg);
        match r {
            Ok(r) => (format!("{:?}", r.stats.faults), Some(observables(&r, &mem))),
            Err(e) => (format!("err: {e}"), None),
        }
    };
    assert_eq!(
        run(SchedulerKind::Dense),
        run(SchedulerKind::Ready),
        "faulted ready vs dense"
    );
}

#[test]
fn ready_with_tracing_is_bit_identical_to_dense_trace() {
    // Tracing forces the dense visitation order, so the trace streams
    // must match event for event.
    let (m, _a, acc) = tiled_workload();
    let run = |scheduler: SchedulerKind| {
        let cfg = SimConfig {
            trace: crate::TraceConfig::on(),
            ..SimConfig::default()
        }
        .with_scheduler(scheduler);
        let mut mem = Memory::from_module(&m);
        let r = seal_and_run(&acc, &mut mem, &[], &cfg).expect("simulate");
        (observables(&r, &mem), r.trace.expect("traced").events)
    };
    let (dense, dense_ev) = run(SchedulerKind::Dense);
    let (ready, ready_ev) = run(SchedulerKind::Ready);
    assert_eq!(dense, ready, "traced ready vs dense");
    assert_eq!(dense_ev, ready_ev, "trace event streams differ");
}

#[test]
fn simulate_batch_matches_standalone_runs_in_order() {
    let (m, a, acc) = tiled_workload();
    let comp = CompiledAccel::compile(&acc).expect("seal");
    // Jobs differ in memory image and scheduler.
    let mut jobs = Vec::new();
    for j in 0..4usize {
        let mut mem = Memory::from_module(&m);
        mem.init_i64(a, &vec![j as i64; 256]);
        let sched = [SchedulerKind::Dense, SchedulerKind::Ready][j % 2];
        jobs.push(crate::BatchJob {
            args: Vec::new(),
            mem,
            cfg: SimConfig::default().with_scheduler(sched),
        });
    }
    for threads in [1usize, 2, 4] {
        let runs = simulate_batch_compiled(&comp, jobs.clone(), threads);
        assert_eq!(runs.len(), jobs.len());
        for (j, (job, run)) in jobs.iter().zip(&runs).enumerate() {
            let mut mem = job.mem.clone();
            let solo = simulate_compiled(&comp, &mut mem, &job.args, &job.cfg).expect("standalone");
            let batch = run.outcome.as_ref().expect("batch run");
            assert_eq!(
                observables(&solo, &mem),
                observables(batch, &run.mem),
                "batch({threads}) job {j} diverged from standalone"
            );
        }
    }
}

#[test]
fn poison_memory_index_is_a_typed_error_not_a_panic() {
    // `5 / a[0]` with `a[0] == 0` is squashed to poison by the divider;
    // using it as a load index is an evaluation error, under both
    // schedulers.
    let mut m = Module::new("poison_idx");
    let a = m.add_mem_object("a", ScalarType::I32, 4);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let z = b.load(a, ValueRef::int(0));
    let q = b.div(ValueRef::int(5), z);
    let v = b.load(a, q);
    b.store(a, ValueRef::int(1), v);
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).expect("translate");
    expect_eval_error(&m, &acc, &[], "poison load index");
}

/// `acc` on `args` must end in an `E-SIM-EVAL` error mentioning `what`,
/// under both schedulers.
fn expect_eval_error(m: &Module, acc: &Accelerator, args: &[Value], what: &str) {
    let comp = CompiledAccel::compile(acc).expect("seal");
    for sched in [SchedulerKind::Dense, SchedulerKind::Ready] {
        let cfg = SimConfig::default().with_scheduler(sched);
        let mut mem = Memory::from_module(m);
        let err = simulate_compiled(&comp, &mut mem, args, &cfg).expect_err(what);
        assert_eq!(err.code(), "E-SIM-EVAL", "{sched:?}: {err}");
        assert!(err.to_string().contains(what), "{sched:?}: {err}");
    }
}

/// Declare every `Input` node of the root task as `ty`: the graph of a
/// frontend that mis-typed its parameters. The door check on root arguments
/// then admits a value of that type, and it reaches operators that expect
/// another.
fn retype_root_inputs(acc: &mut Accelerator, ty: Type) {
    let root = acc.root;
    for nd in &mut acc.task_mut(root).dataflow.nodes {
        if matches!(nd.kind, NodeKind::Input { .. }) {
            nd.ty = ty;
        }
    }
}

/// Root arguments are typed at the door: a value of the wrong scalar kind,
/// or a missing one, is an evaluation error naming the argument before
/// cycle 0. It used to travel as a token and panic inside `Value::as_int`
/// at the `add`.
#[test]
fn root_arguments_are_typed_at_the_door() {
    let mut m = Module::new("door");
    let a = m.add_mem_object("a", ScalarType::I32, 8);
    let mut b = FunctionBuilder::new("main", &[Type::I32]).with_mem(&m);
    let v = b.add(b.arg(0), ValueRef::int(1));
    b.store(a, ValueRef::int(0), v);
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).expect("translate");
    let lanes = Value::Vector(vec![Value::Int(1), Value::Int(2)]);
    for (bad, shown) in [(Value::F32(1.5), "1.5"), (lanes, "<1, 2>")] {
        let what = format!("argument 0 is {shown}, but");
        expect_eval_error(&m, &acc, &[bad], &what);
    }
    expect_eval_error(&m, &acc, &[], "missing argument 0");
    // Booleans and integers read as each other, and poison is a value of
    // every type: all three pass the door (poison to fail at the store).
    let comp = CompiledAccel::compile(&acc).expect("seal");
    for ok in [Value::Int(4), Value::Bool(true)] {
        let mut mem = Memory::from_module(&m);
        simulate_compiled(&comp, &mut mem, &[ok], &SimConfig::default()).expect("admitted");
    }
    expect_eval_error(&m, &acc, &[Value::Poison], "poison stored to");
    // Inside, a composite is lanes of one scalar kind. A boolean and an
    // integer lane each fit a `<2 x i32>` input, but not side by side.
    let mut acc = acc;
    let lanes = Type::Vector {
        elem: ScalarType::I32,
        lanes: 2,
    };
    retype_root_inputs(&mut acc, lanes);
    let mixed = Value::Vector(vec![Value::Int(1), Value::Bool(true)]);
    let what = "argument 0 is <1, true>: lanes must be scalars of one kind";
    expect_eval_error(&m, &acc, &[mixed], what);
}

/// Behind the door a token's dynamic type is the graph's word, so a graph
/// that mis-declares its inputs still reaches the operators with a value
/// they do not expect: each of these used to panic inside `Value::as_bool`
/// / `Value::as_int`.
#[test]
fn mistyped_arguments_are_typed_errors_not_panics() {
    let bad = [Value::F32(1.5)];
    let build = |params: &[Type],
                 body: &dyn Fn(&mut FunctionBuilder, muir_mir::instr::MemObjId)| {
        let mut m = Module::new("mistyped");
        let a = m.add_mem_object("a", ScalarType::F32, 8);
        let mut b = FunctionBuilder::new("main", params).with_mem(&m);
        body(&mut b, a);
        b.ret(None);
        m.add_function(b.finish());
        let mut acc = translate(&m, &FrontendConfig::default()).expect("translate");
        retype_root_inputs(&mut acc, Type::F32);
        (m, acc)
    };
    // The gate of a predicated store. (The frontend also feeds every
    // branch condition to a `not`, whose evaluator would see the value
    // first, so the predicate is wired to the argument by hand.)
    let (m, mut acc) = build(&[Type::BOOL], &|b, a| {
        b.store(a, ValueRef::int(0), ValueRef::f32(1.0));
    });
    let root = acc.root;
    let df = &mut acc.task_mut(root).dataflow;
    let store = df
        .node_ids()
        .find(|&n| matches!(df.node(n).kind, NodeKind::Store { .. }))
        .unwrap();
    let NodeKind::Store { predicated, .. } = &mut df.node_mut(store).kind else {
        unreachable!()
    };
    *predicated = true;
    let p = df.add_node(Node::new("p", NodeKind::Input { index: 0 }, Type::F32));
    df.connect(p, 0, store, 2);
    expect_eval_error(&m, &acc, &bad, "non-boolean predicate");
    // A select condition.
    let (m, acc) = build(&[Type::BOOL], &|b, a| {
        let v = b.select(b.arg(0), ValueRef::f32(1.0), ValueRef::f32(2.0));
        b.store(a, ValueRef::int(0), v);
    });
    expect_eval_error(&m, &acc, &bad, "non-boolean select condition");
    // An int-to-float cast operand.
    let (m, acc) = build(&[Type::I64], &|b, a| {
        let v = b.sitofp(b.arg(0));
        b.store(a, ValueRef::int(0), v);
    });
    expect_eval_error(&m, &acc, &bad, "non-integer cast operand");
    // A loop bound evaluated at activation.
    let (m, acc) = build(&[Type::I64], &|b, a| {
        let n = b.arg(0);
        b.for_loop(0, n, 1, |b, i| b.store(a, i, ValueRef::f32(0.0)));
    });
    expect_eval_error(&m, &acc, &bad, "non-integer loop bound argument");
}

/// The scalar evaluators are total: a branch condition that arrives as a
/// float reaches the `not` the frontend derives from every condition
/// (`xor c, true`), whose evaluator used to panic in `Value::as_int`; the
/// interpreter's own branch used to panic in `Value::as_bool`. Both now
/// report the one message of `flat::Word::want_int`.
#[test]
fn a_float_branch_condition_is_the_same_typed_error_everywhere() {
    let mut m = Module::new("fcond");
    let a = m.add_mem_object("a", ScalarType::F32, 8);
    let mut b = FunctionBuilder::new("main", &[Type::BOOL]).with_mem(&m);
    let c = b.arg(0);
    b.for_loop(0, ValueRef::int(2), 1, |b, i| {
        b.if_then(c, |b| b.store(a, i, ValueRef::f32(1.0)));
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut acc = translate(&m, &FrontendConfig::default()).expect("translate");
    retype_root_inputs(&mut acc, Type::F32);
    let what = "expected integer value, found 1.5";
    let err = Interp::new(&m)
        .run_main(&mut Memory::from_module(&m), &[Value::F32(1.5)])
        .expect_err(what);
    assert_eq!(err.message, what);
    expect_eval_error(&m, &acc, &[Value::F32(1.5)], what);
}

/// A memory object holds scalars of its declared kind and nothing else:
/// a value of another kind stored to it — here a root argument whose
/// `Input` node is declared as whatever the caller passes — is one typed
/// error, the interpreter's, word for word, under both schedulers, where
/// it used to be a silent store of the wrong variant.
#[test]
fn a_value_the_object_cannot_hold_is_the_same_typed_error_everywhere() {
    let mut m = Module::new("misfit");
    let a = m.add_mem_object("a", ScalarType::I32, 8);
    let mut b = FunctionBuilder::new("main", &[Type::I32]).with_mem(&m);
    b.store(a, ValueRef::int(3), b.arg(0));
    b.ret(None);
    m.add_function(b.finish());
    let mut acc = translate(&m, &FrontendConfig::default()).expect("translate");
    // (A lane that is itself a vector, the third misfit `Memory::store`
    // knows, fits no declared type: the door turns it away.)
    for (bad, declared, what) in [
        (
            Value::F32(1.5),
            Type::F32,
            "store of 1.5 to @mem0, which holds int",
        ),
        (
            Value::Bool(true),
            Type::I32,
            "store of true to @mem0, which holds int",
        ),
    ] {
        let mut mem = Memory::from_module(&m);
        let err = Interp::new(&m)
            .run_main(&mut mem, std::slice::from_ref(&bad))
            .expect_err(what);
        assert_eq!(err.message, what);
        assert_eq!(mem, Memory::from_module(&m), "nothing stored");
        retype_root_inputs(&mut acc, declared);
        expect_eval_error(&m, &acc, &[bad], what);
    }
    // Poison keeps the engine's own, earlier message; the interpreter
    // reports it through the same memory check as the rest.
    expect_eval_error(&m, &acc, &[Value::Poison], "poison stored to");
    let err = Interp::new(&m)
        .run_main(&mut Memory::from_module(&m), &[Value::Poison])
        .unwrap_err();
    assert_eq!(err.message, "store of poison to @mem0, which holds int");
}

#[test]
fn lowering_comparator_sees_every_field() {
    use crate::reference::{lower, same_tables, TaskTables};
    use muir_core::compiled::{
        MicroOp, UopKind, SLOT_CONST, SLOT_FEEDBACK, SLOT_PAYLOAD, SLOT_TAG, SLOT_TOKEN,
        UOP_PREDICATED,
    };
    use muir_core::node::{FusedInput, FusedPlan, FusedStep, OpKind};
    use muir_mir::instr::BinOp;
    // An accumulator loop (merge feedback) whose body stores under a
    // predicate and loads the stored object back (order edge).
    let mut m = Module::new("mutants");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let accs = b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(16),
        1,
        &[(ValueRef::int(0), Type::I64)],
        |b, i, accs| {
            let c = b.icmp(CmpPred::Lt, i, ValueRef::int(8));
            b.if_then(c, |b| b.store(a, i, ValueRef::int(7)));
            let v = b.load(a, i);
            vec![b.add(accs[0], v)]
        },
    );
    b.store(a, ValueRef::int(0), accs[0]);
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).expect("translate");
    let comp = muir_core::compiled::CompiledAccel::compile(&acc).expect("seal");
    crate::reference::check_lowering(&comp).expect("sealed lowering matches the reference");

    let good = lower(&acc);
    // Apply `mutate` at the first node (of any task) that `site` accepts
    // and return the comparator's verdict on that task.
    type Site<'a> = &'a dyn Fn(&TaskTables, &MicroOp) -> bool;
    type Mutate<'a> = &'a dyn Fn(&mut TaskTables, usize);
    let verdict = |site: Site, mutate: Mutate| {
        for t in &good {
            if let Some(n) = t.uops.iter().position(|u| site(t, u)) {
                let mut bad = t.clone();
                mutate(&mut bad, n);
                return same_tables(t.view(), bad.view()).expect_err("mutant accepted");
            }
        }
        panic!("no node to mutate");
    };
    fn slots(t: &mut TaskTables, n: usize) -> &mut [u32] {
        let u = t.uops[n];
        &mut t.in_slots[u.slot0 as usize..][..u.nin as usize]
    }
    fn first_out(t: &TaskTables, n: usize) -> usize {
        let u = t.uops[n];
        t.edge_refs[(u.ebase + u32::from(u.nord)) as usize] as usize
    }
    let has_slot = |tag: u32| {
        move |t: &TaskTables, u: &MicroOp| {
            let run = &t.in_slots[u.slot0 as usize..][..u.nin as usize];
            run.iter().any(|s| s & SLOT_TAG == tag)
        }
    };
    let (token, constant, feedback) = (
        has_slot(SLOT_TOKEN),
        has_slot(SLOT_CONST),
        has_slot(SLOT_FEEDBACK),
    );
    let add = OpKind::Bin(BinOp::Add);
    let is_add = |u: &MicroOp| u.kind == UopKind::Compute && u.op == add;
    let is_mem = |u: &MicroOp| matches!(u.kind, UopKind::Load | UopKind::Store);
    // One mutant per field a firing reads (DESIGN.md §14 has the audit):
    // every `MicroOp` field, each pool through the index that reaches it,
    // every `EdgeMeta` field. The expected text is the field the comparator
    // must name.
    let mutants: [(&str, Site, Mutate); 17] = [
        ("kind", &|_, u| is_add(u), &|t, n| {
            t.uops[n].kind = UopKind::FusedAcc;
        }),
        ("flags", &|_, u| u.flags & UOP_PREDICATED != 0, &|t, n| {
            t.uops[n].flags &= !UOP_PREDICATED;
        }),
        ("nin", &|_, u| u.nin > 0, &|t, n| t.uops[n].nin -= 1),
        ("nord", &|_, u| u.nord > 0, &|t, n| {
            t.uops[n].nord -= 1;
            t.uops[n].ebase += 1;
        }),
        ("nout", &|_, u| u.nout > 0, &|t, n| t.uops[n].nout -= 1),
        (": op differs", &|_, u| is_add(u), &|t, n| {
            t.uops[n].op = OpKind::Bin(BinOp::Sub);
        }),
        (": a differs", &|_, u| is_mem(u), &|t, n| t.uops[n].a += 1),
        (": b differs", &|_, u| is_mem(u), &|t, n| t.uops[n].b += 1),
        (
            ": b differs",
            &|_, u| u.kind == UopKind::TaskCall,
            &|t, n| t.uops[n].b += 1 << 16,
        ),
        ("in_slots", &feedback, &|t, n| {
            for s in slots(t, n) {
                if *s & SLOT_TAG == SLOT_FEEDBACK {
                    *s = (*s & !SLOT_TAG) | SLOT_TOKEN;
                }
            }
        }),
        ("in_slots", &token, &|t, n| {
            let s = slots(t, n);
            let i = s.iter().position(|s| s & SLOT_TAG == SLOT_TOKEN).unwrap();
            s[i] ^= 1;
        }),
        ("in_slots", &constant, &|t, n| {
            let s = slots(t, n);
            let i = s.iter().position(|s| s & SLOT_TAG == SLOT_CONST).unwrap();
            let p = (s[i] & SLOT_PAYLOAD) as usize;
            t.consts[p] = Value::Int(t.consts[p].as_int() + 1);
        }),
        ("edge_refs", &|_, u| u.nout > 0, &|t, n| {
            let u = t.uops[n];
            t.edge_refs[(u.ebase + u32::from(u.nord)) as usize] ^= 1;
        }),
        (" src differs", &|_, u| u.nout > 0, &|t, n| {
            let e = first_out(t, n);
            t.edge_meta[e].src ^= 1;
        }),
        ("src_port", &|_, u| u.nout > 0, &|t, n| {
            let e = first_out(t, n);
            t.edge_meta[e].src_port ^= 1;
        }),
        ("is_order", &|_, u| u.nout > 0, &|t, n| {
            let e = first_out(t, n);
            t.edge_meta[e].is_order ^= true;
        }),
        ("fifo", &|_, u| u.nout > 0, &|t, n| {
            let e = first_out(t, n);
            t.edge_meta[e].fifo ^= 1;
        }),
    ];
    for (want, site, mutate) in mutants {
        let got = verdict(site, mutate);
        assert!(got.contains(want), "want `{want}`, got `{got}`");
    }
    // Fused plans are compared by value, not by pool index: give one node
    // a plan on both sides, then change one step's op on one of them.
    let (t, n) = good
        .iter()
        .find_map(|t| Some((t, t.uops.iter().position(is_add)?)))
        .expect("an add");
    let mut fused = t.clone();
    fused.uops[n].kind = UopKind::Fused;
    fused.uops[n].a = 0;
    fused.fused_plans = vec![FusedPlan {
        arity: 2,
        steps: vec![FusedStep {
            op: add,
            ty: Type::I64,
            inputs: vec![FusedInput::External(0), FusedInput::External(1)],
        }],
    }];
    same_tables(fused.view(), fused.view()).expect("equal plans");
    let mut other = fused.clone();
    other.fused_plans[0].steps[0].op = OpKind::Bin(BinOp::Sub);
    let plan = same_tables(fused.view(), other.view()).expect_err("mutant accepted");
    assert!(plan.contains("fused plan"), "{plan}");

    // What a sealed task carries beside the six tables, one mutant per
    // field: the scalars are compared, the scan order is held to being a
    // consumers-first permutation with `pos` its inverse.
    let ti = acc
        .task_ids()
        .position(|t| acc.task(t).kind.is_loop())
        .expect("the loop task");
    let ct = comp.task(ti);
    let e = acc.tasks[ti]
        .dataflow
        .edges
        .iter()
        .find(|e| e.kind != muir_core::dataflow::EdgeKind::Feedback)
        .expect("a forward edge");
    let (src, dst) = (e.src.0 as usize, e.dst.0 as usize);
    type Sealed = (u32, usize, usize, Vec<u32>, Vec<u32>);
    type MutateSealed<'a> = &'a dyn Fn(&mut Sealed);
    let schedule_mutants: [(&str, MutateSealed); 5] = [
        ("dynamic_count", &|s| s.0 += 1),
        ("queue_cap", &|s| s.1 += 1),
        ("njunctions", &|s| s.2 += 1),
        ("pos", &|s| s.4.swap(src, dst)),
        // The producer scanned in its consumer's place, consistently.
        ("order", &|s| {
            s.3.swap(s.4[src] as usize, s.4[dst] as usize);
            s.4.swap(src, dst);
        }),
    ];
    let sealed: Sealed = (
        ct.dynamic_count,
        ct.queue_cap,
        ct.njunctions,
        ct.order.clone(),
        ct.pos.clone(),
    );
    let verdict =
        |s: &Sealed| crate::reference::check_schedule(&acc, ti, s.0, s.1, s.2, &s.3, &s.4);
    verdict(&sealed).expect("the sealed schedule holds");
    for (want, mutate) in schedule_mutants {
        let mut bad = sealed.clone();
        mutate(&mut bad);
        let got = verdict(&bad).expect_err("mutant accepted");
        assert!(got.starts_with(want), "want `{want}`, got `{got}`");
    }
}

/// Sealing has no hidden state: two seals of one graph agree table for
/// table (hash and `size_bytes` are compared in `muir-core`).
#[test]
fn two_compiles_of_one_graph_agree_in_tables() {
    let (_, _, acc) = tiled_workload();
    let a = CompiledAccel::compile(&acc).expect("seal");
    let b = CompiledAccel::compile(&acc.clone()).expect("seal");
    fn view(t: &muir_core::compiled::CompiledTask) -> crate::reference::Code<'_> {
        crate::reference::Code {
            uops: &t.uops,
            in_slots: &t.in_slots,
            edge_refs: &t.edge_refs,
            consts: &t.consts,
            fused_plans: &t.fused_plans,
            edge_meta: &t.edge_meta,
        }
    }
    for (x, y) in a.tasks().iter().zip(b.tasks()) {
        crate::reference::same_tables(view(x), view(y)).expect("same tables");
    }
}
