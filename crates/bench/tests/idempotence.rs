//! μopt pass idempotence: applying any pass a second time must be a
//! no-op, observed through the sealed artifact's content hash. This is
//! the property that makes the compile cache sound for optimizer loops —
//! if re-running a pass could keep perturbing the graph, "same content →
//! same artifact" would silently become "same pipeline → different
//! hardware".
//!
//! Two corpora, mirroring the scheduler differential suite: the 21 real
//! workloads and 50 seeded fuzz graphs from `testgen`.

use muir_bench::{baseline, testgen};
use muir_core::content_hash;
use muir_core::rng::SplitMix64;
use muir_frontend::{translate, FrontendConfig};
use muir_uopt::passes::{
    CacheBanking, ExecutionTiling, MemoryLocalization, ScratchpadBanking, TaskFilter, TaskQueueing,
};
use muir_uopt::simplify::{Cse, Simplify};
use muir_uopt::{lower_tensors::LowerTensors, passes::OpFusion, Pass};
use muir_workloads::all;

/// Every pass the repo ships, with representative parameters.
fn pass_suite() -> Vec<(&'static str, Box<dyn Pass>)> {
    vec![
        ("task-queueing", Box::new(TaskQueueing::all(8))),
        ("tiling-spawned", Box::new(ExecutionTiling::spawned(4))),
        (
            "tiling-leaf-loops",
            Box::new(ExecutionTiling {
                tiles: 4,
                filter: TaskFilter::LeafLoops,
            }),
        ),
        ("mem-localization", Box::new(MemoryLocalization)),
        ("spad-banking", Box::new(ScratchpadBanking { banks: 4 })),
        ("cache-banking", Box::new(CacheBanking { banks: 4 })),
        ("op-fusion", Box::new(OpFusion::default())),
        ("lower-tensors", Box::new(LowerTensors)),
        ("simplify", Box::new(Simplify)),
        ("cse", Box::new(Cse)),
    ]
}

/// Apply `pass` twice to `acc`; the second application must leave the
/// graph's content hash unchanged.
fn assert_idempotent(label: &str, pass: &dyn Pass, acc: &mut muir_core::Accelerator) {
    pass.run(acc)
        .unwrap_or_else(|e| panic!("{label}: first application failed: {e}"));
    let once = content_hash(acc);
    pass.run(acc)
        .unwrap_or_else(|e| panic!("{label}: second application failed: {e}"));
    let twice = content_hash(acc);
    assert_eq!(
        once,
        twice,
        "{label}: pass `{}` is not idempotent (hash {once:016x} -> {twice:016x})",
        pass.name()
    );
}

#[test]
fn every_pass_is_idempotent_on_every_workload() {
    for w in all() {
        for (tag, pass) in pass_suite() {
            let mut acc = baseline(&w);
            assert_idempotent(&format!("{}/{tag}", w.name), pass.as_ref(), &mut acc);
        }
    }
}

#[test]
fn every_pass_is_idempotent_on_fuzzed_graphs() {
    // 50 seeded graphs at the default fuzzing size; each starts from the
    // untransformed translation so the pass under test is the only
    // variable.
    let mut rng = SplitMix64::new(0x1de0_9070_5ea1_ed00);
    for i in 0..50u64 {
        let seed = rng.next_u64();
        let case = testgen::gen_case(seed, 2);
        for (tag, pass) in pass_suite() {
            let mut acc = translate(&case.module, &FrontendConfig::default())
                .unwrap_or_else(|e| panic!("fuzz {i} (0x{seed:016x}): translate: {e}"));
            assert_idempotent(
                &format!("fuzz {i} (0x{seed:016x})/{tag}"),
                pass.as_ref(),
                &mut acc,
            );
        }
    }
}

#[test]
fn stacked_pipeline_is_idempotent_as_a_whole() {
    // The full Figure 17 stack, run twice through the manager: the second
    // run must neither fail nor change the sealed artifact.
    for w in all() {
        let mut acc = baseline(&w);
        let pm = muir_bench::full_stack(w.class);
        pm.run(&mut acc)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let once = content_hash(&acc);
        pm.run(&mut acc)
            .unwrap_or_else(|e| panic!("{}: second run: {e}", w.name));
        assert_eq!(
            once,
            content_hash(&acc),
            "{}: full stack is not idempotent",
            w.name
        );
    }
}
