//! A fixed-latency firing writes the cycle its result is valid into the
//! tokens it pushes and schedules no completion event; its consumers are
//! woken, at the push, for that cycle; an instance retires on one event —
//! and nothing a program can observe says so. Every outcome pinned here
//! (cycles, root-result hash, end-state hash, or the full text of the
//! error) was printed by the build in which every firing still had its own
//! completion event, and every program is held to `Ready` ≡ `Dense` and,
//! where the interpreter can run it, to the interpreter's memory.
//!
//! The programs are chosen for where a stamp could differ from an event: a
//! token that arrives while its consumer sleeps on its initiation interval
//! and a consumer that wakes before its token, a feedback edge, an
//! accumulator register, an edge that fills by the clock alone, admission
//! that waits on an instance's retirement, an instance whose last
//! completion to arrive is not its last to happen, a ring that is revealed
//! feeding one that is stamped, faults on stamped edges, and the watchdog;
//! and a latency past the wake calendar's horizon, which seal refuses.

use muir::bench::sched::{dense_vs_ready, Outcome};
use muir::core::accel::{Accelerator, TaskKind};
use muir::core::dataflow::{Buffering, EdgeKind};
use muir::core::hw;
use muir::core::node::{FusedInput, FusedStep, NodeKind, OpKind};
use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::mir::builder::FunctionBuilder;
use muir::mir::instr::{BinOp, CmpPred, MemObjId, ValueRef};
use muir::mir::interp::{Interp, Memory};
use muir::mir::module::Module;
use muir::mir::types::{ScalarType, Type};
use muir::sim::{end_state_hash, result_hash, FaultClass, FaultPlan, FaultSpec, SimConfig};
use muir::uopt::passes::OpFusion;
use muir::uopt::PassManager;

/// Seal `acc`, run `sched::dense_vs_ready` from the memory `init`
/// prepares, and return the plain `Dense` outcome as the parent build
/// printed it, with the final memory when the run completed.
fn run(
    m: &Module,
    acc: &Accelerator,
    cfg: &SimConfig,
    init: &dyn Fn(&mut Memory),
) -> (String, Option<Memory>) {
    let comp = CompiledAccel::compile(acc).expect("seal");
    let fresh = || {
        let mut mem = Memory::from_module(m);
        init(&mut mem);
        mem
    };
    let dense =
        dense_vs_ready(&comp, &[], &fresh, cfg, None).unwrap_or_else(|e| panic!("{}: {e}", m.name));
    match dense.into_iter().next().expect("the plain leg") {
        Outcome::Ok { run, mem, .. } => (
            format!(
                "ok cycles={} res={:016x} end={:016x}",
                run.cycles,
                result_hash(&run),
                end_state_hash(&run, &mem)
            ),
            Some(mem),
        ),
        Outcome::Err(e) => (format!("err {e}"), None),
    }
}

fn baseline(m: &Module) -> Accelerator {
    translate(m, &FrontendConfig::default()).expect("translate")
}

/// The memory the interpreter leaves.
fn interpreted(m: &Module, init: &dyn Fn(&mut Memory)) -> Memory {
    let mut want = Memory::from_module(m);
    init(&mut want);
    Interp::new(m)
        .run_main(&mut want, &[])
        .unwrap_or_else(|e| panic!("{}: interpreter: {e}", m.name));
    want
}

fn has_node(acc: &Accelerator, pred: &dyn Fn(&NodeKind) -> bool) -> bool {
    acc.tasks
        .iter()
        .any(|t| t.dataflow.nodes.iter().any(|n| pred(&n.kind)))
}

/// Give every dynamic data edge into a node `pick` chooses the buffering
/// `b`, and say how many edges that was.
fn buffer_edges_into(
    acc: &mut Accelerator,
    pick: &dyn Fn(&NodeKind) -> bool,
    b: Buffering,
) -> usize {
    let mut n = 0;
    for t in acc.task_ids().collect::<Vec<_>>() {
        let df = &mut acc.task_mut(t).dataflow;
        for ei in 0..df.edges.len() {
            let e = &df.edges[ei];
            let is_static = matches!(
                df.node(e.src).kind,
                NodeKind::Input { .. } | NodeKind::Const(_)
            );
            if matches!(e.kind, EdgeKind::Data) && !is_static && pick(&df.node(e.dst).kind) {
                df.edges[ei].buffering = b;
                n += 1;
            }
        }
    }
    n
}

/// `out[i] = ((a[i] * 1.5 + a[i]) / 3.0) / 2.0`: two fully pipelined FP
/// units (latency 4) feed a divider (latency 14, II 6) that feeds another.
/// The first divider's tokens arrive every cycle while it sleeps on its
/// II; the second is awake and waiting when each of its tokens arrives.
fn fp_chain_module() -> (Module, MemObjId) {
    let mut m = Module::new("fp_chain");
    let a = m.add_ro_mem_object("a", ScalarType::F32, 24);
    let out = m.add_mem_object("out", ScalarType::F32, 24);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(24), 1, |b, i| {
        let v = b.load(a, i);
        let x = b.fmul(v, ValueRef::f32(1.5));
        let y = b.fadd(x, v);
        let z = b.fdiv(y, ValueRef::f32(3.0));
        let w = b.fdiv(z, ValueRef::f32(2.0));
        b.store(out, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    (m, a)
}

fn fp_init(a: MemObjId) -> impl Fn(&mut Memory) {
    move |mem| {
        mem.init_f32(
            a,
            &(0..24).map(|x| x as f32 * 0.75 - 4.0).collect::<Vec<_>>(),
        )
    }
}

#[test]
fn a_token_arrives_while_its_consumer_sleeps_and_a_consumer_wakes_before_its_token() {
    let (m, a) = fp_chain_module();
    let init = fp_init(a);
    let (got, mem) = run(&m, &baseline(&m), &SimConfig::default(), &init);
    assert_eq!(mem, Some(interpreted(&m, &init)));
    assert_eq!(
        got,
        "ok cycles=269 res=0ef2f766c52e8fc0 end=38403a52b8a01a3b"
    );
}

/// An edge of one slot fills when the token on it is delivered — by the
/// clock alone — and frees when the consumer pops: explicit `Fifo(1)`s
/// into the dividers, then every handshake edge one deep.
#[test]
fn an_edge_fills_by_the_clock_and_frees_on_a_pop() {
    let (m, a) = fp_chain_module();
    let init = fp_init(a);
    let want = interpreted(&m, &init);
    let mut acc = baseline(&m);
    let fdiv =
        |k: &NodeKind| matches!(k, NodeKind::Compute(op) if hw::op_timing(*op, Type::F32).ii == 6);
    assert_eq!(buffer_edges_into(&mut acc, &fdiv, Buffering::Fifo(1)), 2);
    let (got, mem) = run(&m, &acc, &SimConfig::default(), &init);
    assert_eq!(mem.as_ref(), Some(&want));
    assert_eq!(
        got,
        "ok cycles=269 res=0ef2f766c52e8fc0 end=38403a52b8a01a3b"
    );
    let cfg = SimConfig {
        elastic_depth: 1,
        ..SimConfig::default()
    };
    let (got, mem) = run(&m, &baseline(&m), &cfg, &init);
    assert_eq!(mem.as_ref(), Some(&want));
    assert_eq!(
        got,
        "ok cycles=1028 res=46b9a72d64ef6289 end=2d5c04c738cc3639"
    );
}

/// Admission waits on retirement: a window of one instance, and a loop
/// the frontend would pipeline marked serial.
#[test]
fn admission_waits_on_an_instance_retiring() {
    let (m, a) = fp_chain_module();
    let init = fp_init(a);
    let want = interpreted(&m, &init);
    let cfg = SimConfig {
        window: 1,
        ..SimConfig::default()
    };
    let (got, mem) = run(&m, &baseline(&m), &cfg, &init);
    assert_eq!(mem.as_ref(), Some(&want));
    assert_eq!(
        got,
        "ok cycles=1074 res=489c4a039971d99d end=ac21d82b8cbbd9b7"
    );
    let mut acc = baseline(&m);
    for t in acc.task_ids().collect::<Vec<_>>() {
        if let TaskKind::Loop { serial, .. } = &mut acc.task_mut(t).kind {
            assert!(!*serial, "the frontend pipelines this loop");
            *serial = true;
        }
    }
    let (got, mem) = run(&m, &acc, &SimConfig::default(), &init);
    assert_eq!(mem.as_ref(), Some(&want));
    assert_eq!(
        got,
        "ok cycles=1074 res=489c4a039971d99d end=ac21d82b8cbbd9b7"
    );
}

/// `acc = acc * 3 + a[i]`, and a float sum beside it: each `Merge` takes
/// its feedback token from a producer the scan visits before it, a
/// multiplier's latency later. Fused, the float sum is an accumulator
/// register with II = latency = 4.
fn recurrence_module() -> (Module, MemObjId, MemObjId) {
    let mut m = Module::new("recurrence");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 16);
    let f = m.add_ro_mem_object("f", ScalarType::F32, 16);
    let out = m.add_mem_object("out", ScalarType::I32, 2);
    let sum = m.add_mem_object("sum", ScalarType::F32, 2);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let accs = b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(16),
        1,
        &[
            (ValueRef::int(1), Type::I64),
            (ValueRef::f32(0.5), Type::F32),
        ],
        |b, i, acc| {
            let t = b.mul(acc[0], ValueRef::int(3));
            let v = b.load(a, i);
            let x = b.load(f, i);
            vec![b.add(t, v), b.fadd(acc[1], x)]
        },
    );
    b.store(out, ValueRef::int(0), accs[0]);
    b.store(sum, ValueRef::int(0), accs[1]);
    b.ret(None);
    m.add_function(b.finish());
    (m, a, f)
}

#[test]
fn a_merge_takes_its_feedback_and_an_accumulator_keeps_its_own() {
    let (m, a, f) = recurrence_module();
    let init = |mem: &mut Memory| {
        mem.init_i64(a, &(0..16).map(|x| x * 5 - 9).collect::<Vec<_>>());
        mem.init_f32(f, &(0..16).map(|x| x as f32 * 0.25).collect::<Vec<_>>());
    };
    let want = interpreted(&m, &init);
    let acc = baseline(&m);
    assert!(has_node(&acc, &|k| matches!(k, NodeKind::Merge)));
    let (got, mem) = run(&m, &acc, &SimConfig::default(), &init);
    assert_eq!(mem.as_ref(), Some(&want));
    assert_eq!(
        got,
        "ok cycles=174 res=ae316fcc5eb95aaa end=cf50314e0b504b0a"
    );
    let mut acc = baseline(&m);
    PassManager::new()
        .with(OpFusion::default())
        .run(&mut acc)
        .expect("fusion");
    assert!(has_node(&acc, &|k| matches!(k, NodeKind::FusedAcc { .. })));
    let (got, mem) = run(&m, &acc, &SimConfig::default(), &init);
    assert_eq!(mem.as_ref(), Some(&want));
    assert_eq!(
        got,
        "ok cycles=159 res=1e57d14a6aaa1b6b end=4fbfc83ea2c987b9"
    );
}

/// Inner loops bounded by the outer index — the first is zero-trip and
/// retires on its tile's completion check alone. Each inner instance
/// stores, and carries `acc / 3` round a feedback edge nothing else reads:
/// once the cache is warm the store's reply is the instance's last
/// completion to arrive, the divider's stamp (latency 16, no consumer in
/// its own instance) the last to happen, and the blocking call's reply
/// waits for that one.
fn nested_module() -> Module {
    let mut m = Module::new("nested");
    let a = m.add_mem_object("a", ScalarType::I32, 32);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(5), 1, |b, i| {
        let row = b.mul(i, ValueRef::int(4));
        b.for_loop_acc(
            ValueRef::int(0),
            i,
            1,
            &[(ValueRef::int(1000), Type::I64)],
            |b, j, acc| {
                let idx = b.add(row, j);
                b.store(a, idx, acc[0]);
                vec![b.div(acc[0], ValueRef::int(3))]
            },
        );
    });
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn a_zero_trip_loop_retires_and_a_reply_hands_an_instance_to_its_last_stamp() {
    let m = nested_module();
    let want = interpreted(&m, &|_| {});
    let (got, mem) = run(&m, &baseline(&m), &SimConfig::default(), &|_| {});
    assert_eq!(mem.as_ref(), Some(&want));
    assert_eq!(
        got,
        "ok cycles=291 res=4798c931f95383c0 end=429753c02384a30c"
    );
}

/// The load of `a[i]` sits on a branch never taken: squashed, it completes
/// by event after one cycle, and its poison token — on a revealed ring —
/// feeds the select that takes the other arm and stamps its own.
#[test]
fn a_squashed_load_feeds_a_stamping_unit() {
    let mut m = Module::new("squashed");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 16);
    let out = m.add_mem_object("out", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let first = b.load(a, ValueRef::int(0));
        let never = b.icmp(CmpPred::Lt, first, ValueRef::int(0));
        let v = b.if_val(
            never,
            &[Type::I32],
            |b| vec![b.load(a, i)],
            |_| vec![ValueRef::int(7)],
        );
        let w = b.add(v[0], i);
        b.store(out, i, w);
    });
    b.ret(None);
    m.add_function(b.finish());
    let init = |mem: &mut Memory| mem.init_i64(a, &(3..19).collect::<Vec<_>>());
    let (got, mem) = run(&m, &baseline(&m), &SimConfig::default(), &init);
    assert_eq!(mem, Some(interpreted(&m, &init)));
    assert_eq!(
        got,
        "ok cycles=112 res=9cae89ebfe4da91d end=945cb433ddb59d70"
    );
}

/// `((a[i] * 3 + 1) * 5 + 2) * 7` fused into one unit under a generous
/// period budget (6.2 ns, 3 cycles), then lengthened by hand with a chain
/// of divides. Twenty more (76.2 ns, 31 cycles) still seal; twenty-one
/// (79.7 ns, 32 cycles) reach the simulator's 32-cycle horizon, and seal
/// refuses the unit with a typed `E-GRAPH` error naming it and its cycles.
#[test]
fn a_latency_past_the_calendar_horizon() {
    let mut m = Module::new("far");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 16);
    let out = m.add_mem_object("out", ScalarType::I32, 16);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    b.for_loop(0, ValueRef::int(16), 1, |b, i| {
        let v = b.load(a, i);
        let x = b.mul(v, ValueRef::int(3));
        let x = b.add(x, ValueRef::int(1));
        let x = b.mul(x, ValueRef::int(5));
        let x = b.add(x, ValueRef::int(2));
        let x = b.mul(x, ValueRef::int(7));
        b.store(out, i, x);
    });
    b.ret(None);
    m.add_function(b.finish());
    let mut acc = baseline(&m);
    PassManager::new()
        .with(OpFusion::with_period(8.0))
        .run(&mut acc)
        .expect("fusion");
    let lengthened = |divides: usize| {
        let mut acc = acc.clone();
        let node = acc
            .tasks
            .iter_mut()
            .flat_map(|t| &mut t.dataflow.nodes)
            .find(|n| matches!(&n.kind, NodeKind::Fused(p) if p.op_count() == 5))
            .expect("the five ops fuse into one unit");
        let NodeKind::Fused(plan) = &mut node.kind else {
            unreachable!()
        };
        for _ in 0..divides {
            let last = plan.steps.len() as u16 - 1;
            plan.steps.push(FusedStep {
                op: OpKind::Bin(BinOp::Div),
                ty: node.ty,
                inputs: vec![FusedInput::Step(last), FusedInput::External(0)],
            });
        }
        let t = hw::node_timing(&node.kind, node.ty);
        (CompiledAccel::compile(&acc), t.latency)
    };
    let (sealed, latency) = lengthened(20);
    assert_eq!(latency, 31);
    sealed.expect("a 31-cycle unit seals");
    let (refused, latency) = lengthened(21);
    assert_eq!(latency, 32);
    let e = refused.expect_err("a 32-cycle unit is refused");
    assert_eq!(
        format!("[{}] {e}", e.code()),
        "[E-GRAPH] muIR graph error at t1 (main_loop1): n3 (mul_5+add_6+mul_7+add_8+mul_9): \
         fused unit of latency 32 and II 8 cycles reaches the 32-cycle horizon"
    );
}

/// Ready/valid faults on the recurrence's stamped edges: a lost token, a
/// second copy, a corrupted one, a producer whose valid never rises again.
#[test]
fn faults_on_stamped_edges() {
    let (m, a, f) = recurrence_module();
    let init = |mem: &mut Memory| {
        mem.init_i64(a, &(0..16).map(|x| x * 5 - 9).collect::<Vec<_>>());
        mem.init_f32(f, &(0..16).map(|x| x as f32 * 0.25).collect::<Vec<_>>());
    };
    let acc = baseline(&m);
    for (class, seed, want) in [
        (
            FaultClass::TokenDrop,
            1,
            "err [E-SIM-FAULT] token misorder at cycle 48, task 1 (main_loop1) node n3 invocation 2 instance 1: edge e0: expected instance 1, found 2",
        ),
        (
            FaultClass::TokenDrop,
            2,
            "err [E-SIM-FAULT] token misorder at cycle 52, task 1 (main_loop1) node n4 invocation 2 instance 5: edge e1: expected instance 5, found 6",
        ),
        (
            FaultClass::TokenDup,
            1,
            "err [E-SIM-FAULT] token misorder at cycle 48, task 1 (main_loop1) node n3 invocation 2 instance 2: edge e0: expected instance 2, found 1",
        ),
        (
            FaultClass::TokenDup,
            2,
            "err [E-SIM-FAULT] token misorder at cycle 52, task 1 (main_loop1) node n4 invocation 2 instance 6: edge e1: expected instance 6, found 5",
        ),
        (
            FaultClass::TokenBitFlip,
            1,
            "err [E-SIM-EVAL] evaluation error at cycle 47, task 1 (main_loop1) node n3 invocation 2: interpreter error: load out of bounds: @mem0[257]",
        ),
        (
            FaultClass::TokenBitFlip,
            2,
            "err [E-SIM-EVAL] evaluation error at cycle 51, task 1 (main_loop1) node n3 invocation 2: interpreter error: load out of bounds: @mem0[16389]",
        ),
        (
            FaultClass::StuckHandshake,
            1,
            "err [E-SIM-DEADLOCK] deadlock at cycle 2089: no blocked-channel cycle; task 0 (main) tile 0: trip 1 admitted 1 completed 0 spawns 0; task 1 (main_loop1) tile 0: trip 16 admitted 16 completed 0 spawns 0; stuck handshake at task 1 node n0; stuck handshake at task 1 node n7",
        ),
        (
            FaultClass::StuckHandshake,
            2,
            "err [E-SIM-DEADLOCK] deadlock at cycle 2084: no blocked-channel cycle; task 0 (main) tile 0: trip 1 admitted 1 completed 0 spawns 0; task 1 (main_loop1) tile 0: trip 16 admitted 16 completed 1 spawns 0; stuck handshake at task 1 node n0; stuck handshake at task 1 node n1",
        ),
    ] {
        let cfg = SimConfig {
            deadlock_cycles: 2_000,
            faults: FaultPlan {
                seed,
                specs: vec![FaultSpec {
                    class,
                    rate_ppm: 60_000,
                    max_events: 2,
                }],
            },
            ..SimConfig::default()
        };
        let (got, _) = run(&m, &acc, &cfg, &init);
        assert_eq!(got, want, "{class:?} seed {seed}");
    }
}

/// The watchdog counts from the latest cycle anything completed. Here that
/// is the completion of a divide (latency 16) whose consumer — the loop's
/// `Output` — never fires, because its other input comes over a `Fifo(0)`
/// edge that cannot carry a token: the deadlock is reported
/// `deadlock_cycles` + 1 after the divide's *result*, not after its firing,
/// with the divide's completion booked when it fired.
#[test]
fn the_watchdog_counts_from_a_stamped_completion() {
    let mut m = Module::new("watchdog");
    let a = m.add_ro_mem_object("a", ScalarType::I32, 4);
    let out = m.add_mem_object("out", ScalarType::I32, 2);
    let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
    let accs = b.for_loop_acc(
        ValueRef::int(0),
        ValueRef::int(1),
        1,
        &[
            (ValueRef::int(900), Type::I64),
            (ValueRef::int(0), Type::I64),
        ],
        |b, i, acc| {
            let v = b.load(a, i);
            vec![b.div(acc[0], ValueRef::int(7)), b.add(acc[1], v)]
        },
    );
    b.store(out, ValueRef::int(0), accs[0]);
    b.store(out, ValueRef::int(1), accs[1]);
    b.ret(None);
    m.add_function(b.finish());
    let mut acc = baseline(&m);
    let add_into_output = {
        let lp = acc
            .task_ids()
            .find(|&t| acc.task(t).kind.is_loop())
            .expect("the loop task");
        let df = &mut acc.task_mut(lp).dataflow;
        let ei = df
            .edges
            .iter()
            .position(|e| {
                matches!(df.node(e.dst).kind, NodeKind::Output)
                    && matches!(df.node(e.src).kind, NodeKind::Compute(op) if hw::op_timing(op, Type::I64).latency == 1)
            })
            .expect("the add's edge into the Output");
        df.edges[ei].buffering = Buffering::Fifo(0);
        ei
    };
    let cfg = SimConfig {
        deadlock_cycles: 2_000,
        ..SimConfig::default()
    };
    let (got, _) = run(&m, &acc, &cfg, &|mem| mem.init_i64(a, &[5, 6, 7, 8]));
    assert!(
        got.contains(&format!("e{add_into_output} full, cap 0")),
        "{got}"
    );
    assert_eq!(
        got,
        "err [E-SIM-DEADLOCK] deadlock at cycle 2060: blocked-channel cycle: task 1 (main_loop1) out (n4) -[e6 empty, cap 0]-> add_8 (n7); task 1 (main_loop1) add_8 (n7) -[e6 full, cap 0]-> out (n4); suggestion: grow task 1 edge e6 to Fifo(1); task 0 (main) tile 0: trip 1 admitted 1 completed 0 spawns 0; task 1 (main_loop1) tile 0: trip 1 admitted 1 completed 0 spawns 0"
    );
}
