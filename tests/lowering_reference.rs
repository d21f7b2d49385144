//! The seal-time lowering checked directly: for every artifact the rest
//! of the suite simulates, the micro-op tables `seal()` wrote must decode
//! to what `muir_sim::reference` re-derives from the graph alone. Table
//! equality holds for every input, where the Interp-vs-MicroOp runs only
//! show it on the inputs they happen to execute.

use muir::bench::testgen::{gen_case, gen_tensor_case};
use muir::bench::{baseline, best_stack, optimized};
use muir::core::accel::Accelerator;
use muir::core::compiled::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::sim::reference::check_lowering;
use muir::uopt::config::PassSpace;
use muir::workloads::REGISTRY;

fn check(what: &str, acc: &Accelerator) {
    let comp = CompiledAccel::compile(acc).unwrap_or_else(|e| panic!("{what}: seal: {e}"));
    check_lowering(&comp).unwrap_or_else(|e| panic!("{what}: {e}"));
}

#[test]
fn registry_workloads_under_baseline_best_stack_and_sampled_configs() {
    let space = PassSpace::full();
    for entry in REGISTRY {
        let w = (entry.build)();
        check(&format!("{} baseline", w.name), &baseline(&w));
        let (best, _) = optimized(&w, &best_stack(entry.class));
        check(&format!("{} best_stack", w.name), &best);
        for i in space.sample_indices(0x10e5, 16) {
            let cfg = space.nth(i);
            let (acc, _) = optimized(&w, &cfg.pipeline());
            check(&format!("{} [{cfg}]", w.name), &acc);
        }
    }
}

#[test]
fn generated_graphs() {
    for seed in 0..50 {
        let case = gen_case(seed, 2);
        check(&case.desc, &case.build());
    }
    for seed in 0..10 {
        let case = gen_tensor_case(seed, 2);
        let acc = translate(&case.lowered.module, &FrontendConfig::default())
            .unwrap_or_else(|e| panic!("{}: translate: {e}", case.desc));
        check(&case.desc, &acc);
    }
}
