//! Workspace integration test: stacking μopt passes never changes what an
//! accelerator computes — the composability property (§1, novelty iv) the
//! latency-agnostic interfaces are supposed to guarantee.

use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::sim::{simulate_compiled, SimConfig};
use muir::uopt::passes::{
    CacheBanking, Cse, ExecutionTiling, MemoryLocalization, OpFusion, ScratchpadBanking, Simplify,
    TaskQueueing,
};
use muir::uopt::PassManager;
use muir::workloads;

fn full_stack() -> PassManager {
    PassManager::new()
        .with(Simplify)
        .with(Cse)
        .with(TaskQueueing::all(8))
        .with(ExecutionTiling::spawned(4))
        .with(MemoryLocalization::default())
        .with(ScratchpadBanking { banks: 2 })
        .with(CacheBanking { banks: 2 })
        .with(OpFusion::default())
        .with(Simplify)
}

#[test]
fn full_pass_stack_preserves_all_workloads() {
    for w in workloads::all() {
        let mut acc = translate(&w.module, &FrontendConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let baseline_cycles = {
            let comp = CompiledAccel::compile(&acc).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let mut mem = w.fresh_memory();
            simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
                .unwrap_or_else(|e| panic!("{} baseline: {e}", w.name))
                .cycles
        };
        let (comp, report) = full_stack()
            .seal(&mut acc)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(!report.deltas.is_empty());
        // The manager's size columns are the graph's: the last record
        // describes the graph the pipeline returned.
        let (size, last) = (muir::core::stats::graph_stats(&acc), &report.records[8]);
        assert_eq!(
            (last.nodes_after, last.edges_after),
            (size.nodes, size.edges)
        );
        let ref_mem = w.run_reference().unwrap();
        let mut mem = w.fresh_memory();
        let r = simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
            .unwrap_or_else(|e| panic!("{} optimized: {e}", w.name));
        assert!(
            w.outputs_match(&ref_mem, &mem),
            "{}: optimized accelerator computes different outputs",
            w.name
        );
        println!(
            "{:>10}: baseline {} → optimized {} cycles ({:.2}x)",
            w.name,
            baseline_cycles,
            r.cycles,
            baseline_cycles as f64 / r.cycles as f64
        );
    }
}

#[test]
fn tensor_lowering_preserves_tensor_workloads() {
    use muir::uopt::passes::LowerTensors;
    for name in ["RELU[T]", "2MM[T]", "CONV[T]"] {
        let w = workloads::by_name(name).unwrap();
        let mut acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let (comp, _) = PassManager::new()
            .with(LowerTensors)
            .seal(&mut acc)
            .unwrap();
        let ref_mem = w.run_reference().unwrap();
        let mut mem = w.fresh_memory();
        simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            w.outputs_match(&ref_mem, &mem),
            "{name}: lowered outputs differ"
        );
    }
}

#[test]
fn individual_passes_preserve_a_representative_mix() {
    // Each pass alone, on a workload that exercises it.
    let cases: Vec<(&str, PassManager)> = vec![
        ("SAXPY", PassManager::new().with(TaskQueueing::all(8))),
        (
            "STENCIL",
            PassManager::new().with(ExecutionTiling::spawned(8)),
        ),
        (
            "SPMV",
            PassManager::new().with(MemoryLocalization::default()),
        ),
        ("GEMM", PassManager::new().with(CacheBanking { banks: 4 })),
        ("FFT", PassManager::new().with(OpFusion::default())),
        ("RGB2YUV", PassManager::new().with(OpFusion::default())),
        (
            "M-SORT",
            PassManager::new().with(ExecutionTiling::spawned(4)),
        ),
    ];
    for (name, pm) in cases {
        let w = workloads::by_name(name).unwrap();
        let mut acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let (comp, _) = pm.seal(&mut acc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ref_mem = w.run_reference().unwrap();
        let mut mem = w.fresh_memory();
        simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            w.outputs_match(&ref_mem, &mem),
            "{name}: pass broke semantics"
        );
    }
}
