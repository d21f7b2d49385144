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

/// Cross-commit pins: `job_hash` of the registry inputs and
/// `end_state_hash` of the baseline run (`SimConfig::default()`, no
/// arguments), as computed by the last build whose memory images were
/// `Vec<Value>`. The store keys results by the first and the determinism
/// gates compare the second, so a representation change that moved either
/// would turn every persistent store cold without saying so.
#[test]
fn job_and_end_state_hashes_are_pinned_across_image_representations() {
    let pins: [(&str, u64, u64); 6] = [
        ("MT-INFER", 0xa365_652d_0b58_056d, 0x698d_ed9a_ac4e_e284),
        ("ATTN", 0x1cd9_4292_8524_bc2b, 0x2268_5c39_9b3c_e8a6),
        ("CONV[T]", 0x2e8b_c3bd_54da_9f3d, 0x3345_9a6e_6fb4_c563),
        ("GEMM", 0x4833_ac52_4176_d7ee, 0xe716_5b0f_1f0b_03cb),
        ("SPMV", 0xbdfc_fcfa_73b9_76a3, 0x1901_10bc_4761_ea67),
        ("FIB", 0xa4a4_e129_6a17_36eb, 0x9b12_3374_3f1b_5f84),
    ];
    let cfg = SimConfig::default();
    for (name, job, end) in pins {
        let w = workloads::by_name(name).unwrap();
        let acc = translate(&w.module, &FrontendConfig::default()).unwrap();
        let comp = CompiledAccel::compile(&acc).unwrap();
        let mut mem = w.fresh_memory();
        assert_eq!(muir::sim::job_hash(&cfg, &[], &mem), job, "{name}: job");
        let r = simulate_compiled(&comp, &mut mem, &[], &cfg).unwrap();
        assert_eq!(muir::sim::end_state_hash(&r, &mem), end, "{name}: end");
    }
}
