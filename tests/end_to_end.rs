//! Workspace integration test: every paper benchmark goes through the full
//! pipeline — mir program → μIR accelerator → cycle-level simulation — and
//! the simulated accelerator's output memory must match the reference
//! interpreter on all output objects.

use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::sim::{simulate_compiled, SimConfig};
use muir::workloads;

#[test]
fn every_workload_translates() {
    for w in workloads::all() {
        let acc = translate(&w.module, &FrontendConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(acc.tasks.len() >= 2, "{}: suspiciously small graph", w.name);
        muir::core::verify::verify_accelerator(&acc).unwrap_or_else(|e| panic!("{}: {e}", w.name));
    }
}

#[test]
fn every_workload_simulates_correctly() {
    for w in workloads::all() {
        let acc = translate(&w.module, &FrontendConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let ref_mem = w
            .run_reference()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let comp = CompiledAccel::compile(&acc).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut sim_mem = w.fresh_memory();
        let r = simulate_compiled(&comp, &mut sim_mem, &[], &SimConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            w.outputs_match(&ref_mem, &sim_mem),
            "{}: simulated outputs differ from the reference interpreter",
            w.name
        );
        assert!(r.cycles > 0, "{}", w.name);
        println!(
            "{:>10}: {} cycles, {} fires",
            w.name, r.cycles, r.stats.fires
        );
    }
}
