//! `muir-bench` — the experiment harness regenerating every table and
//! figure of the paper's evaluation (§5–§7).
//!
//! The `experiments` binary prints each table/figure's rows. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record; host time is measured by `benchmark/` alone.

pub mod campaign;
pub mod dse;
pub mod profile;
pub mod sched;
pub mod service;
pub mod store_campaign;
pub mod telemetry_gate;
pub mod testgen;

use muir_baselines::{CpuModel, HlsModel};
use muir_core::accel::Accelerator;
use muir_core::compiled::CompiledAccel;
use muir_frontend::{translate, FrontendConfig};
use muir_rtl::cost::{estimate, CostEstimate, Tech};
use muir_sim::{simulate_compiled, SimConfig, SimResult};
use muir_uopt::passes::{
    CacheBanking, ExecutionTiling, LowerTensors, MemoryLocalization, OpFusion, ScratchpadBanking,
    TaskFilter, TaskQueueing,
};
use muir_uopt::{PassManager, PassReport};
use muir_workloads::{Class, Workload};

/// Translate a workload to its baseline accelerator.
///
/// # Panics
/// Panics on translation failure (workloads are all known-good).
pub fn baseline(w: &Workload) -> Accelerator {
    translate(&w.module, &FrontendConfig::default()).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// Seal a workload's accelerator: verify and lower it once. Every figure
/// helper below seals once and hands the same artifact to the simulator
/// and to the cost model.
///
/// # Panics
/// Panics if the graph fails verification (workloads and the pass stacks
/// applied to them are all known-good).
pub fn sealed(w: &Workload, acc: &Accelerator) -> CompiledAccel {
    CompiledAccel::compile(acc).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// Simulate the sealed accelerator on the workload's inputs and verify
/// outputs against the reference interpreter.
///
/// # Panics
/// Panics on simulation failure or output mismatch.
pub fn run_verified(w: &Workload, comp: &CompiledAccel) -> SimResult {
    let ref_mem = w
        .run_reference()
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let mut mem = w.fresh_memory();
    let r = simulate_compiled(comp, &mut mem, &[], &SimConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert!(
        w.outputs_match(&ref_mem, &mem),
        "{}: accelerator outputs diverge from reference",
        w.name
    );
    r
}

/// Cycles of `acc` on the workload's inputs, verified against the
/// reference interpreter: seal, then [`run_verified`].
///
/// # Panics
/// Panics on verification or simulation failure, or output mismatch.
pub fn verified_cycles(w: &Workload, acc: &Accelerator) -> u64 {
    run_verified(w, &sealed(w, acc)).cycles
}

/// Apply a pass pipeline to a fresh baseline of `w`.
///
/// # Panics
/// Panics on pass failure.
pub fn optimized(w: &Workload, pm: &PassManager) -> (Accelerator, PassReport) {
    let mut acc = baseline(w);
    let report = pm
        .run(&mut acc)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (acc, report)
}

/// The stacked-pass pipeline of Figure 17, following the figure's legend:
/// Cilk workloads get *banking + fusion + tiling*; the rest get *banking +
/// localization + op-fusion*.
pub fn full_stack(class: Class) -> PassManager {
    match class {
        Class::Cilk => PassManager::new()
            .with(TaskQueueing::all(8))
            .with(ExecutionTiling::spawned(8))
            .with(MemoryLocalization)
            .with(ScratchpadBanking { banks: 4 })
            .with(CacheBanking { banks: 4 })
            .with(OpFusion::default()),
        _ => PassManager::new()
            .with(TaskQueueing::all(8))
            .with(MemoryLocalization)
            .with(ScratchpadBanking { banks: 4 })
            .with(CacheBanking { banks: 4 })
            .with(OpFusion::default()),
    }
}

/// The "best version of each accelerator with all the μopt optimizations
/// applied" used against the CPU in Figure 18 — the Figure 17 stack plus
/// execution tiling of the innermost loop tasks (§3.6).
pub fn best_stack(class: Class) -> PassManager {
    match class {
        Class::Cilk => full_stack(class),
        _ => PassManager::new()
            .with(TaskQueueing::all(8))
            .with(ExecutionTiling {
                tiles: 4,
                filter: TaskFilter::LeafLoops,
            })
            .with(MemoryLocalization)
            .with(ScratchpadBanking { banks: 4 })
            .with(CacheBanking { banks: 4 })
            .with(OpFusion::default()),
    }
}

/// Execution time in microseconds at the estimated FPGA clock.
pub(crate) fn exec_time_us(cycles: u64, cost: &CostEstimate) -> f64 {
    cycles as f64 / cost.fmax_mhz
}

/// μIR execution time (µs) of a sealed accelerator on the FPGA clock.
pub(crate) fn uir_time_us(comp: &CompiledAccel, cycles: u64) -> f64 {
    exec_time_us(cycles, &estimate(comp, Tech::FpgaArria10))
}

/// The HLS comparison result for Figure 9: `(uir_time, hls_time)` in µs.
///
/// The paper's observation 1 (§5.2): μIR's dataflow pipelines ~20% deeper
/// and clocks ~20% higher than the HLS FSM; FFT and DENSE keep vendor
/// streaming buffers on the HLS side.
///
/// # Panics
/// Panics on simulation/interpretation failure.
pub fn fig9_point(w: &Workload) -> (f64, f64) {
    let comp = sealed(w, &baseline(w));
    let r = run_verified(w, &comp);
    let uir_cost = estimate(&comp, Tech::FpgaArria10);
    let uir_time = exec_time_us(r.cycles, &uir_cost);

    let streaming = matches!(w.name, "FFT" | "DENSE8" | "DENSE16");
    let hls = if streaming {
        HlsModel::with_streaming()
    } else {
        HlsModel::default()
    };
    let mut mem = w.fresh_memory();
    let hls_r = hls
        .run(&w.module, &mut mem)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let hls_fmax = uir_cost.fmax_mhz / 1.2; // §5.2 observation 1
    let hls_time = hls_r.cycles as f64 / hls_fmax;
    (uir_time, hls_time)
}

/// Figure 18 point: `(accelerator_time_us, cpu_time_us)`.
///
/// # Panics
/// Panics on simulation failure.
pub fn fig18_point(w: &Workload) -> (f64, f64) {
    let (acc, _) = optimized(w, &best_stack(w.class));
    let comp = sealed(w, &acc);
    let t_acc = uir_time_us(&comp, run_verified(w, &comp).cycles);
    let mut mem = w.fresh_memory();
    let cpu = CpuModel
        .run(&w.module, &mut mem)
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    (t_acc, cpu.time_us)
}

/// Tiling sweep (Figure 12): cycles at 1, 2, 4, 8 tiles.
///
/// # Panics
/// Panics on simulation failure.
pub fn fig12_sweep(w: &Workload) -> Vec<(u32, u64)> {
    // The Cilk accelerators stream through scratchpads (Figure 4); the
    // memory system is held constant across the sweep (localized, 4 banks)
    // so the tiling factor is the only variable.
    [1u32, 2, 4, 8]
        .into_iter()
        .map(|t| {
            let pm = PassManager::new()
                .with(MemoryLocalization)
                .with(ScratchpadBanking { banks: 4 })
                .with(TaskQueueing::all(2 * t))
                .with(ExecutionTiling {
                    tiles: t,
                    filter: TaskFilter::Spawned,
                });
            let (acc, _) = optimized(w, &pm);
            (t, verified_cycles(w, &acc))
        })
        .collect()
}

/// Cache-banking sweep (Figure 16): cycles at 1, 2, 4 banks.
///
/// # Panics
/// Panics on simulation failure.
pub fn fig16_sweep(w: &Workload) -> Vec<(u32, u64)> {
    [1u32, 2, 4]
        .into_iter()
        .map(|banks| {
            let pm = PassManager::new().with(CacheBanking { banks });
            let (acc, _) = optimized(w, &pm);
            (banks, verified_cycles(w, &acc))
        })
        .collect()
}

/// Op-fusion point (Figure 11): `(baseline_cycles, fused_cycles)`.
///
/// # Panics
/// Panics on simulation failure.
pub fn fig11_point(w: &Workload) -> (u64, u64) {
    let base = verified_cycles(w, &baseline(w));
    let (fused, _) = optimized(w, &PassManager::new().with(OpFusion::default()));
    let opt = verified_cycles(w, &fused);
    (base, opt)
}

/// Tensor higher-order op point (Figure 15): `(tensor, scalar)` cycles.
///
/// The baseline is the paper's: the same computation written without
/// tensor intrinsics ("implements the operation through the pipeline"),
/// so the tensor variant's wins come from compute density, the widened
/// operand network, and the fused higher-order pipeline (§6.3). Both
/// variants run on localized scratchpads (type-specific for the tensor
/// side).
///
/// # Panics
/// Panics on simulation failure.
pub fn fig15_point(pair: &(Workload, Workload)) -> (u64, u64) {
    let pm = PassManager::new()
        .with(MemoryLocalization)
        .with(OpFusion::default());
    let (tensor_acc, _) = optimized(&pair.0, &pm);
    let t = verified_cycles(&pair.0, &tensor_acc);
    let (scalar_acc, _) = optimized(&pair.1, &pm);
    let s = verified_cycles(&pair.1, &scalar_acc);
    (t, s)
}

/// Lane-lowering ablation (§6.3): the same tensor graph with every tile
/// value lane-expanded by the `LowerTensors` pass — isolates the benefit
/// of the tensor function units from the source-level loop structure.
///
/// # Panics
/// Panics on simulation failure.
pub fn fig15_lowering_ablation(w: &Workload) -> (u64, u64) {
    let native_pm = PassManager::new().with(MemoryLocalization);
    let (native, _) = optimized(w, &native_pm);
    let n = verified_cycles(w, &native);
    let lowered_pm = PassManager::new()
        .with(LowerTensors)
        .with(MemoryLocalization);
    let (lowered, _) = optimized(w, &lowered_pm);
    let l = verified_cycles(w, &lowered);
    (n, l)
}

/// Memory-localization point (§6.4): `(baseline, localized)` cycles.
///
/// # Panics
/// Panics on simulation failure.
pub fn localization_point(w: &Workload) -> (u64, u64) {
    let base = verified_cycles(w, &baseline(w));
    let (local, _) = optimized(w, &PassManager::new().with(MemoryLocalization));
    let opt = verified_cycles(w, &local);
    (base, opt)
}

/// Ablation: task-queue depth sweep (Pass 1) on a Cilk workload.
///
/// # Panics
/// Panics on simulation failure.
pub fn ablation_queue_depth(w: &Workload, depths: &[u32]) -> Vec<(u32, u64)> {
    // Queue depth matters once the consumer is replicated: hold tiling
    // fixed at 4 and vary only the `<||>` FIFO.
    depths
        .iter()
        .map(|&d| {
            let pm = PassManager::new()
                .with(ExecutionTiling::spawned(4))
                .with(TaskQueueing::all(d));
            let (acc, _) = optimized(w, &pm);
            (d, verified_cycles(w, &acc))
        })
        .collect()
}

/// Ablation: fusion clock-period budget sweep — cycles and resulting FPGA
/// fmax per budget (the frequency/cycle-count tradeoff of §6.1).
///
/// # Panics
/// Panics on simulation failure.
pub fn ablation_fusion_period(w: &Workload, periods_ns: &[f64]) -> Vec<(f64, u64, f64)> {
    periods_ns
        .iter()
        .map(|&p| {
            let pm = PassManager::new().with(OpFusion::with_period(p));
            let (acc, _) = optimized(w, &pm);
            let comp = sealed(w, &acc);
            let cycles = run_verified(w, &comp).cycles;
            let fmax = estimate(&comp, Tech::FpgaArria10).fmax_mhz;
            (p, cycles, fmax)
        })
        .collect()
}

/// Ablation: scratchpad banking sweep after localization (Algorithm 2's
/// tunables, separate from Figure 16's cache banking).
///
/// # Panics
/// Panics on simulation failure.
pub fn ablation_spad_banking(w: &Workload, banks: &[u32]) -> Vec<(u32, u64)> {
    banks
        .iter()
        .map(|&b| {
            let pm = PassManager::new()
                .with(MemoryLocalization)
                .with(ScratchpadBanking { banks: b });
            let (acc, _) = optimized(w, &pm);
            (b, verified_cycles(w, &acc))
        })
        .collect()
}

/// Ablation: simulator sensitivity to databox entries and elastic channel
/// depth (§3.4's `#Entries` parameter and the pipelined-connection
/// buffering). Returns `(databox, elastic, cycles)` triples.
///
/// # Panics
/// Panics on simulation failure.
pub fn ablation_sim_buffers(w: &Workload, points: &[(u32, u32)]) -> Vec<(u32, u32, u64)> {
    let comp = sealed(w, &baseline(w));
    let ref_mem = w.run_reference().expect("reference");
    points
        .iter()
        .map(|&(databox, elastic)| {
            let cfg = SimConfig {
                databox_entries: databox,
                elastic_depth: elastic,
                ..SimConfig::default()
            };
            let mut mem = w.fresh_memory();
            let r = simulate_compiled(&comp, &mut mem, &[], &cfg).expect("simulate");
            assert!(
                w.outputs_match(&ref_mem, &mem),
                "{}: buffering changed results",
                w.name
            );
            (databox, elastic, r.cycles)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_workloads::by_name;

    #[test]
    fn fig11_improves_rgb2yuv() {
        // RGB2YUV's integer chains are the canonical fusion target.
        let w = by_name("RGB2YUV").unwrap();
        let (base, opt) = fig11_point(&w);
        assert!(opt < base, "fusion should help: {base} → {opt}");
    }

    #[test]
    fn fig12_saxpy_scales_then_bounds() {
        let w = by_name("SAXPY").unwrap();
        let sweep = fig12_sweep(&w);
        let c1 = sweep[0].1 as f64;
        let c2 = sweep[1].1 as f64;
        let c8 = sweep[3].1 as f64;
        assert!(c2 < c1, "{sweep:?}");
        assert!(c8 < c2, "{sweep:?}");
        // Bounded below by the parent's spawn rate (one task per cycle):
        // 8 tiles cannot beat one iteration per cycle.
        assert!(c8 >= 4096.0, "{sweep:?}");
    }

    #[test]
    fn fig16_banking_helps_gemm() {
        let w = by_name("GEMM").unwrap();
        let sweep = fig16_sweep(&w);
        assert!(sweep[2].1 <= sweep[0].1, "{sweep:?}");
    }

    #[test]
    fn fig15_tensor_units_win() {
        let pair = muir_workloads::inhouse::tensor_pairs().remove(0);
        let (tensor, scalar) = fig15_point(&pair);
        assert!(scalar > tensor, "{tensor} vs {scalar}");
        let w = by_name("RELU[T]").unwrap();
        let (native, lowered) = fig15_lowering_ablation(&w);
        assert!(lowered > native, "{native} vs {lowered}");
    }

    #[test]
    fn fig9_uir_beats_hls_on_gemm() {
        let w = by_name("GEMM").unwrap();
        let (uir, hls) = fig9_point(&w);
        assert!(uir < hls, "uir {uir} vs hls {hls}");
    }

    #[test]
    fn fig18_accelerator_beats_cpu() {
        let w = by_name("IMG-SCALE").unwrap();
        let (acc, cpu) = fig18_point(&w);
        assert!(acc < cpu, "acc {acc} vs cpu {cpu}");
    }
}
