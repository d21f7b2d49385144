//! Cycle pins for the two comparison baselines: the HLS model of Figure 9
//! and the CPU model of Figure 18, run on the registry workloads those
//! figures plot. The counts are what the models gave before they read
//! `hw::op_timing` and lost their one-value knobs; a change to either
//! model that moves a figure fails here with the whole table.

use muir::baselines::{CpuModel, HlsModel};
use muir::workloads;

/// `(workload, HLS cycles)` for Figure 9. FFT, DENSE8 and DENSE16 run
/// with the vendor streaming buffers, as `fig9_point` runs them.
const HLS: [(&str, u64); 11] = [
    ("GEMM", 157_957),
    ("COVAR", 80_965),
    ("FFT", 32_036),
    ("SPMV", 14_085),
    ("2MM", 140_937),
    ("3MM", 127_693),
    ("CONV", 8_247),
    ("DENSE8", 72_197),
    ("DENSE16", 144_133),
    ("SOFTM8", 6_661),
    ("SOFTM16", 9_221),
];

/// `(workload, CPU cycles)` for Figure 18.
const CPU: [(&str, u64); 10] = [
    ("GEMM", 334_259),
    ("COVAR", 158_511),
    ("FFT", 112_182),
    ("SPMV", 30_437),
    ("2MM", 286_114),
    ("3MM", 251_514),
    ("IMG-SCALE", 36_793),
    ("RELU", 22_687),
    ("2MM[T]", 15_748),
    ("CONV[T]", 5_228),
];

/// Run `cycles` on each pinned workload; fail with the table if any
/// count moved.
fn check(what: &str, pins: &[(&str, u64)], cycles: impl Fn(&workloads::Workload) -> u64) {
    let mut table = String::new();
    let mut moved = Vec::new();
    for &(name, want) in pins {
        let w = workloads::by_name(name).expect("registry workload");
        let got = cycles(&w);
        table.push_str(&format!("  {name:<10} {got:>7} (pinned {want})\n"));
        if got != want {
            moved.push(name);
        }
    }
    assert!(
        moved.is_empty(),
        "{what} cycles moved on {moved:?}:\n{table}"
    );
}

#[test]
fn hls_cycles_match_figure_9_pins() {
    check("HLS", &HLS, |w| {
        let hls = if matches!(w.name, "FFT" | "DENSE8" | "DENSE16") {
            HlsModel::with_streaming()
        } else {
            HlsModel::default()
        };
        let r = hls.run(&w.module, &mut w.fresh_memory());
        r.unwrap_or_else(|e| panic!("{}: {e}", w.name)).cycles
    });
}

#[test]
fn cpu_cycles_match_figure_18_pins() {
    check("CPU", &CPU, |w| {
        let r = CpuModel.run(&w.module, &mut w.fresh_memory());
        r.unwrap_or_else(|e| panic!("{}: {e}", w.name)).cycles
    });
}
