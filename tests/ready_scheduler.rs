//! The ready scheduler ticks a tile only in cycles where the tick is not a
//! dense no-op, and visits a node only when a wake says it may fire. Two
//! guards on that:
//!
//! * programs built so that tiles sit idle for long stretches — a parent
//!   blocked on a child call, a zero-trip loop, a divider asleep for its
//!   initiation interval, a full child queue, the benchmark's generated
//!   tensor graphs, a graph of more than 64 tasks and 128 tiles — must
//!   come out of `Ready` exactly as they come out of the `Dense` oracle;
//! * `sched_visits / fires` under `Ready` is an exact count, so a change
//!   that makes wakes less precise fails here without any timing.

use muir::bench::sched::{completes_like, dense_vs_ready};
use muir::bench::{baseline, best_stack, optimized};
use muir::core::accel::{Accelerator, TaskKind};
use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::mir::builder::FunctionBuilder;
use muir::mir::instr::ValueRef;
use muir::mir::interp::{Interp, Memory};
use muir::mir::module::Module;
use muir::mir::types::ScalarType;
use muir::sim::{simulate_compiled, SimConfig};
use muir::uopt::passes::{ExecutionTiling, TaskFilter};
use muir::uopt::PassManager;
use muir::workloads;

/// `sched::dense_vs_ready` over one sealed artifact, and the oracle's
/// memory against the interpreter's.
fn check(name: &str, m: &Module, acc: &Accelerator, init: &dyn Fn(&mut Memory)) {
    let comp = CompiledAccel::compile(acc).unwrap_or_else(|e| panic!("{name}: seal: {e}"));
    let fresh = || {
        let mut mem = Memory::from_module(m);
        init(&mut mem);
        mem
    };
    let mut want = fresh();
    Interp::new(m)
        .run_main(&mut want, &[])
        .expect("interpreter");
    dense_vs_ready(&comp, &[], &fresh, &SimConfig::default(), None)
        .and_then(|dense| completes_like(&dense, &want))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
}

/// A serial outer loop whose body calls an inner loop: the parent tile has
/// nothing to do while each child invocation runs.
#[test]
fn parent_blocked_on_a_child_call() {
    let mut m = Module::new("blocked-parent");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(8), 1, |b, i| {
        let base = b.mul(i, ValueRef::int(8));
        b.for_loop(0, ValueRef::int(8), 1, |b, j| {
            let idx = b.add(base, j);
            let v = b.load(a, idx);
            let w = b.add(v, i);
            b.store(a, idx, w);
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    check("blocked-parent", &m, &acc, &|mem| {
        mem.init_i64(a, &(0..64).collect::<Vec<i64>>());
    });
}

/// Inner loops whose bound is the outer index: the first is zero-trip, so
/// its invocation admits nothing and must still retire and reply.
#[test]
fn zero_trip_loop_still_retires() {
    let mut m = Module::new("zero-trip");
    let a = m.add_mem_object("a", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(4), 1, |b, i| {
        b.for_loop(0, i, 1, |b, j| {
            let row = b.mul(i, ValueRef::int(4));
            let idx = b.add(row, j);
            b.store(a, idx, ValueRef::int(7));
        });
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    check("zero-trip", &m, &acc, &|_| {});
}

/// A divider (initiation interval 8) in a pipelined loop: the node sleeps
/// between firings and the tile has no other candidate.
#[test]
fn long_initiation_interval_sleeper() {
    let mut m = Module::new("sleeper");
    let a = m.add_mem_object("a", ScalarType::I32, 32);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(32), 1, |b, i| {
        let v = b.load(a, i);
        let d = b.div(v, ValueRef::int(3));
        b.store(a, i, d);
    });
    b.ret(None);
    m.add_function(b.finish());
    let acc = translate(&m, &FrontendConfig::default()).unwrap();
    check("sleeper", &m, &acc, &|mem| {
        mem.init_i64(a, &(0..32).map(|x| 100 + 9 * x).collect::<Vec<i64>>());
    });
}

/// 64 spawns into one tile behind a two-deep queue: the spawning node
/// waits on the full queue, the child tile is the only one with work.
#[test]
fn full_child_queue() {
    let mut m = Module::new("full-queue");
    let a = m.add_mem_object("a", ScalarType::I32, 64);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.par_for(0, 64, 1, |b, i| {
        let x = b.mul(i, i);
        let y = b.add(x, ValueRef::int(11));
        b.store(a, i, y);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
    for t in acc.task_ids().collect::<Vec<_>>() {
        if matches!(acc.task(t).kind, TaskKind::Region) && t != acc.root {
            acc.task_mut(t).tiles = 1;
            acc.task_mut(t).queue_depth = 2;
        }
    }
    check("full-queue", &m, &acc, &|_| {});
}

/// The ten generated tensor graphs of the `sim-tensor` benchmark. Their
/// softmax and exp units have II = 2 and get their next token the cycle
/// before they may fire again — the case where a wake for a sleeping unit
/// must come due at its `ready_at`, not at the token's cycle. A lost wake
/// here (graph 11 hung) got past the registry workloads and the fuzz
/// corpora.
#[test]
fn generated_tensor_graphs() {
    for k in 0..10 {
        let text = muir::frontend::tensor::gen_graph(11 + k, 8).print();
        let w = workloads::tensorgraph::from_text("GEN", &text, 301 + k).expect("graph builds");
        let acc = baseline(&w);
        check(&format!("gen_graph({})", 11 + k), &w.module, &acc, &|mem| {
            *mem = w.fresh_memory();
        });
    }
}

/// A chain of 100 tensor ops lowers to more than 64 tasks; tiled two ways,
/// they have more than 128 tiles. Phase 3's queued-task set and phase 4's
/// tile calendar are bitsets of 64 per word, so this runs their
/// multi-word paths — a task or tile past the first word queued, marked,
/// drained — against the oracle.
#[test]
fn more_than_64_tasks_and_128_tiles() {
    let mut text = String::from("graph wide\ninput in0 : f32[2,4]\ninput in1 : f32[2,4]\n");
    let mut prev = "in0".to_string();
    for i in 0..100 {
        text += &match i % 3 {
            0 => format!("%n{i} = softmax {prev}\n"),
            1 => format!("%n{i} = add {prev}, in1\n"),
            _ => format!("%n{i} = relu {prev}\n"),
        };
        prev = format!("%n{i}");
    }
    text += &format!("output {prev}\n");
    let w = workloads::tensorgraph::from_text("WIDE", &text, 7).expect("graph builds");
    let tiling = PassManager::new().with(ExecutionTiling {
        tiles: 2,
        filter: TaskFilter::AllChildren,
    });
    let (acc, _) = optimized(&w, &tiling);
    let tiles: u32 = acc.tasks.iter().map(|t| t.tiles.max(1)).sum();
    assert!(
        acc.tasks.len() > 64 && tiles > 128,
        "{} tasks, {tiles} tiles",
        acc.tasks.len()
    );
    check("wide", &w.module, &acc, &|mem| *mem = w.fresh_memory());
}

/// `try_fire` visits per firing under `Ready` on the benchmark's eight
/// scalar baseline programs and a tensor graph, and on GEMM under
/// `best_stack`, whose accumulator registers (II = latency = 4) fire
/// between a token's push and its delivery — the case where a mark made
/// at the push stands before the unit's `ready_at`. The counts repeat
/// exactly; the bounds are what the engine recorded when every firing
/// still had its own completion event and its consumers were woken by it,
/// so a wake calendar that visits a node in a cycle that engine did not
/// fails here.
#[test]
fn ready_scheduler_effort_stays_bounded() {
    let bounded = |name: &str, acc: &Accelerator, visits: u64, fires: u64| {
        let w = workloads::by_name(name).expect("registry workload");
        let comp = CompiledAccel::compile(acc).expect("seal");
        let mut mem = w.fresh_memory();
        let r = simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(r.stats.fires, fires, "{name}: firings");
        assert!(
            r.stats.sched_visits <= visits,
            "{name}: {} visits for {fires} firings, was {visits}",
            r.stats.sched_visits
        );
    };
    for (name, visits, fires) in [
        ("GEMM", 578_374, 333_922),
        ("FIB", 39_455, 21_705),
        ("ATTN", 5_645, 3_478),
        ("COVAR", 248_258, 151_180),
        ("FFT", 427_104, 155_701),
        ("SPMV", 33_119, 18_178),
        ("M-SORT", 145_627, 67_379),
        ("SAXPY", 65_531, 36_866),
        ("STENCIL", 113_901, 61_602),
    ] {
        let w = workloads::by_name(name).expect("registry workload");
        bounded(name, &baseline(&w), visits, fires);
    }
    let w = workloads::by_name("GEMM").expect("registry workload");
    let (best, _) = optimized(&w, &best_stack(w.class));
    bounded("GEMM", &best, 365_549, 268_386);
}
