//! Inspect any paper benchmark's generated artefacts: the μIR graph
//! statistics, the Chisel-like RTL, the FIRRTL-like circuit size, the
//! synthesis estimate, and the GraphViz dump.
//!
//! Run with: `cargo run --release --example inspect_rtl -- GEMM`
//! (defaults to SAXPY; `--dot` prints the GraphViz source instead).

use muir::core::dot::to_dot;
use muir::core::stats::graph_stats;
use muir::frontend::{translate, FrontendConfig};
use muir::rtl::circuit::lower_to_circuit;
use muir::rtl::cost::{estimate, Tech};
use muir::rtl::emit_chisel;
use muir::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want_dot = args.iter().any(|a| a == "--dot");
    let name = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "SAXPY".to_string());
    let w = workloads::by_name(&name)
        .ok_or_else(|| format!("unknown workload `{name}`; try GEMM, FFT, 2MM[T], ..."))?;
    let acc = translate(&w.module, &FrontendConfig::default())?;

    if want_dot {
        println!("{}", to_dot(&acc));
        return Ok(());
    }

    let s = graph_stats(&acc);
    println!("workload {name}:");
    println!(
        "  muIR graph: {} tasks, {} nodes, {} edges, {} junctions, depth {}",
        s.tasks, s.nodes, s.edges, s.junctions, s.pipeline_depth
    );
    let circ = lower_to_circuit(&acc);
    println!(
        "  FIRRTL-level circuit: {} cells + {} wires = {} elements ({:.1}x the muIR graph)",
        circ.cell_count(),
        circ.wires,
        circ.total_elements(),
        circ.total_elements() as f64 / s.total_elements() as f64
    );
    let comp = muir::core::CompiledAccel::compile(&acc).expect("workloads verify");
    let f = estimate(&comp, Tech::FpgaArria10);
    let a = estimate(&comp, Tech::Asic28);
    println!(
        "  FPGA: {:.0} MHz, {:.0} mW, {} ALMs, {} regs, {} DSPs",
        f.fmax_mhz, f.power_mw, f.alms, f.regs, f.dsps
    );
    println!(
        "  ASIC: {:.2} GHz, {:.0} mW, {:.2} mm2",
        a.fmax_mhz / 1000.0,
        a.power_mw,
        a.area_mm2
    );
    println!("\n--- Chisel (first 40 lines) ---");
    for line in emit_chisel(&comp).lines().take(40) {
        println!("{line}");
    }
    Ok(())
}
