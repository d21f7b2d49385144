//! Round-trip every paper benchmark through the textual IR form:
//! print → parse → verify → interpret → translate → simulate, and check
//! that nothing changed.

use muir::core::CompiledAccel;
use muir::frontend::{translate, FrontendConfig};
use muir::mir::interp::Interp;
use muir::mir::parser::parse_module;
use muir::mir::printer::print_module;
use muir::sim::{simulate_compiled, SimConfig};
use muir::workloads;

#[test]
fn all_workloads_roundtrip_through_text() {
    for w in workloads::all() {
        let p1 = print_module(&w.module);
        let m2 = parse_module(&p1).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        muir::mir::verify::verify_module(&m2).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        // Idempotence after normalisation.
        let p2 = print_module(&m2);
        let m3 = parse_module(&p2).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            p2,
            print_module(&m3),
            "{}: print∘parse not idempotent",
            w.name
        );
        // The parsed program computes the same outputs.
        let ref_mem = w.run_reference().unwrap();
        let mut mem2 = w.fresh_memory();
        Interp::new(&m2)
            .run_main(&mut mem2, &[])
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            w.outputs_match(&ref_mem, &mem2),
            "{}: parsed program diverges",
            w.name
        );
    }
}

#[test]
fn parsed_programs_translate_and_simulate() {
    // A representative subset (full sweep is covered by end_to_end).
    for name in ["GEMM", "FFT", "M-SORT", "2MM[T]", "SOFTM8"] {
        let w = workloads::by_name(name).unwrap();
        let m2 = parse_module(&print_module(&w.module)).unwrap();
        let acc =
            translate(&m2, &FrontendConfig::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ref_mem = w.run_reference().unwrap();
        let comp = CompiledAccel::compile(&acc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut mem = w.fresh_memory();
        simulate_compiled(&comp, &mut mem, &[], &SimConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            w.outputs_match(&ref_mem, &mem),
            "{name}: parsed accelerator diverges"
        );
    }
}
