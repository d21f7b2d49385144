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
use muir_mir::interp::Memory;
use muir_rtl::cost::{estimate, Tech};
use muir_sim::{simulate_compiled, SimConfig, SimResult};
use muir_uopt::passes::{
    CacheBanking, ExecutionTiling, LowerTensors, MemoryLocalization, OpFusion, ScratchpadBanking,
    TaskFilter, TaskQueueing,
};
use muir_uopt::{PassManager, PassReport};
use muir_workloads::{by_name, Class, Workload};
use std::collections::HashMap;
use std::rc::Rc;

/// Translate a workload to its baseline accelerator.
///
/// # Panics
/// Panics on translation failure (workloads are all known-good).
pub fn baseline(w: &Workload) -> Accelerator {
    translate(&w.module, &FrontendConfig::default()).unwrap_or_else(|e| panic!("{}: {e}", w.name))
}

/// Seal a workload's accelerator: verify and lower it once. A figure
/// seals once and hands the same artifact to the simulator and to the
/// cost model.
///
/// # Panics
/// Panics if the graph fails verification (workloads and the pass stacks
/// applied to them are all known-good).
pub fn sealed(w: &Workload, acc: &Accelerator) -> CompiledAccel {
    CompiledAccel::compile(acc).unwrap_or_else(|e| panic!("{}: {e}", w.name))
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

/// Figure 11's pipeline: op fusion alone.
pub fn fusion() -> PassManager {
    PassManager::new().with(OpFusion::default())
}

/// Figure 12's pipeline at `t` execution tiles. The memory system is held
/// constant across the sweep (localized, 4 banks), so the tiling factor is
/// the only variable: the Cilk accelerators stream through scratchpads
/// (Figure 4).
pub fn tiling(t: u32) -> PassManager {
    PassManager::new()
        .with(MemoryLocalization)
        .with(ScratchpadBanking { banks: 4 })
        .with(TaskQueueing::all(2 * t))
        .with(ExecutionTiling::spawned(t))
}

/// Figure 15's pipeline, for the tensor variant and its scalar twin alike:
/// localized scratchpads (type-specific for the tensor side) and op fusion.
pub fn tensor_units() -> PassManager {
    PassManager::new()
        .with(MemoryLocalization)
        .with(OpFusion::default())
}

/// Figure 15's lane-lowering ablation (§6.3): a tensor graph on localized
/// scratchpads, with every tile value lane-expanded by `LowerTensors` when
/// `lowered`. It isolates the tensor function units from the source-level
/// loop structure.
pub fn lane_lowering(lowered: bool) -> PassManager {
    let pm = PassManager::new();
    let pm = if lowered { pm.with(LowerTensors) } else { pm };
    pm.with(MemoryLocalization)
}

/// Figure 16's pipeline at `banks` cache banks.
pub fn cache_banking(banks: u32) -> PassManager {
    PassManager::new().with(CacheBanking { banks })
}

/// A workload ready to measure: its baseline accelerator, translated once,
/// and the end memory of its reference interpreter, run once. Every
/// pipeline measured on it starts from a copy of that baseline, is sealed
/// and simulated, and has its outputs checked against that memory.
pub struct Bench {
    /// The workload.
    pub w: Workload,
    /// Its baseline accelerator ([`baseline`]).
    pub base: Accelerator,
    /// The reference interpreter's end memory.
    pub reference: Memory,
}

impl Bench {
    /// Translate `w`'s baseline and run its reference interpreter.
    ///
    /// # Panics
    /// Panics on translation or interpretation failure (workloads are all
    /// known-good).
    pub fn new(w: Workload) -> Bench {
        let reference = w
            .run_reference()
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        Bench {
            base: baseline(&w),
            reference,
            w,
        }
    }

    /// `pm` applied to a copy of the baseline, then sealed. An empty
    /// pipeline seals the baseline itself, verified once, by the seal.
    ///
    /// # Panics
    /// Panics on pass or verification failure.
    pub fn seal(&self, pm: &PassManager) -> CompiledAccel {
        if pm.is_empty() {
            return sealed(&self.w, &self.base);
        }
        let mut acc = self.base.clone();
        pm.run(&mut acc)
            .unwrap_or_else(|e| panic!("{}: {e}", self.w.name));
        sealed(&self.w, &acc)
    }

    /// Simulate `comp` on fresh inputs under `cfg` and check its outputs
    /// against the reference.
    ///
    /// # Panics
    /// Panics on simulation failure or output mismatch.
    pub fn check(&self, comp: &CompiledAccel, cfg: &SimConfig) -> SimResult {
        let mut mem = self.w.fresh_memory();
        let r = simulate_compiled(comp, &mut mem, &[], cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", self.w.name));
        assert!(
            self.w.outputs_match(&self.reference, &mem),
            "{}: accelerator outputs diverge from reference",
            self.w.name
        );
        r
    }

    /// Cycles of `pm`'s accelerator under the default configuration,
    /// output-checked: [`Bench::seal`], then [`Bench::check`].
    ///
    /// # Panics
    /// As those two.
    pub fn cycles(&self, pm: &PassManager) -> u64 {
        self.check(&self.seal(pm), &SimConfig::default()).cycles
    }
}

/// The benches of one run, each built once: a workload's reference
/// interpreter runs once however many figures measure it.
#[derive(Default)]
pub struct Lab {
    benches: HashMap<&'static str, Rc<Bench>>,
}

impl Lab {
    /// The bench of registry workload `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in the registry.
    pub fn named(&mut self, name: &str) -> Rc<Bench> {
        match self.benches.get(name) {
            Some(b) => b.clone(),
            None => {
                self.bench(by_name(name).unwrap_or_else(|| panic!("unknown workload `{name}`")))
            }
        }
    }

    /// The bench of `w`, keyed by its name.
    pub fn bench(&mut self, w: Workload) -> Rc<Bench> {
        self.benches
            .entry(w.name)
            .or_insert_with(|| Rc::new(Bench::new(w)))
            .clone()
    }
}

/// μIR execution time (µs) of `comp` at its estimated FPGA clock, and
/// that clock in MHz.
fn fpga_time_us(comp: &CompiledAccel, cycles: u64) -> (f64, f64) {
    let fmax_mhz = estimate(comp, Tech::FpgaArria10).fmax_mhz;
    (cycles as f64 / fmax_mhz, fmax_mhz)
}

/// FNV-1a over `bytes`: a deterministic, platform-independent seed.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The HLS comparison result for Figure 9: `(uir_time, hls_time)` in µs.
///
/// The paper's observation 1 (§5.2): μIR's dataflow pipelines ~20% deeper
/// and clocks ~20% higher than the HLS FSM; FFT and DENSE keep vendor
/// streaming buffers on the HLS side.
///
/// # Panics
/// Panics on simulation/interpretation failure.
pub fn fig9_point(b: &Bench) -> (f64, f64) {
    let w = &b.w;
    let comp = b.seal(&PassManager::new());
    let (uir_time, uir_fmax) = fpga_time_us(&comp, b.check(&comp, &SimConfig::default()).cycles);
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
    let hls_fmax = uir_fmax / 1.2; // §5.2 observation 1
    let hls_time = hls_r.cycles as f64 / hls_fmax;
    (uir_time, hls_time)
}

/// Figure 18 point: `(accelerator_time_us, cpu_time_us)`.
///
/// # Panics
/// Panics on simulation failure.
pub fn fig18_point(b: &Bench) -> (f64, f64) {
    let comp = b.seal(&best_stack(b.w.class));
    let (t_acc, _) = fpga_time_us(&comp, b.check(&comp, &SimConfig::default()).cycles);
    let mut mem = b.w.fresh_memory();
    let cpu = CpuModel
        .run(&b.w.module, &mut mem)
        .unwrap_or_else(|e| panic!("{}: {e}", b.w.name));
    (t_acc, cpu.time_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(name: &str) -> Bench {
        Bench::new(by_name(name).unwrap())
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fig11_improves_rgb2yuv() {
        // RGB2YUV's integer chains are the canonical fusion target.
        let b = bench("RGB2YUV");
        let base = b.cycles(&PassManager::new());
        let opt = b.cycles(&fusion());
        assert!(opt < base, "fusion should help: {base} → {opt}");
    }

    #[test]
    fn fig12_saxpy_scales_then_bounds() {
        let b = bench("SAXPY");
        let sweep: Vec<u64> = [1u32, 2, 4, 8]
            .into_iter()
            .map(|t| b.cycles(&tiling(t)))
            .collect();
        let c1 = sweep[0] as f64;
        let c2 = sweep[1] as f64;
        let c8 = sweep[3] as f64;
        assert!(c2 < c1, "{sweep:?}");
        assert!(c8 < c2, "{sweep:?}");
        // Bounded below by the parent's spawn rate (one task per cycle):
        // 8 tiles cannot beat one iteration per cycle.
        assert!(c8 >= 4096.0, "{sweep:?}");
    }

    #[test]
    fn fig16_banking_helps_gemm() {
        let b = bench("GEMM");
        let sweep = [1u32, 2, 4].map(|banks| b.cycles(&cache_banking(banks)));
        assert!(sweep[2] <= sweep[0], "{sweep:?}");
    }

    #[test]
    fn fig15_tensor_units_win() {
        let (t, s) = muir_workloads::inhouse::tensor_pairs().remove(0);
        let pm = tensor_units();
        let (tensor, scalar) = (Bench::new(t).cycles(&pm), Bench::new(s).cycles(&pm));
        assert!(scalar > tensor, "{tensor} vs {scalar}");
        let b = bench("RELU[T]");
        let native = b.cycles(&lane_lowering(false));
        let lowered = b.cycles(&lane_lowering(true));
        assert!(lowered > native, "{native} vs {lowered}");
    }

    #[test]
    fn fig9_uir_beats_hls_on_gemm() {
        let (uir, hls) = fig9_point(&bench("GEMM"));
        assert!(uir < hls, "uir {uir} vs hls {hls}");
    }

    #[test]
    fn fig18_accelerator_beats_cpu() {
        let (acc, cpu) = fig18_point(&bench("IMG-SCALE"));
        assert!(acc < cpu, "acc {acc} vs cpu {cpu}");
    }

    #[test]
    fn a_lab_builds_each_bench_once() {
        let mut lab = Lab::default();
        let a = lab.named("SAXPY");
        let b = lab.named("SAXPY");
        assert!(Rc::ptr_eq(&a, &b));
    }
}
