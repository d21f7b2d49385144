//! `muir-baselines` — the two comparison systems of the evaluation.
//!
//! * [`hls`]: a statically scheduled HLS-style execution model (LegUp /
//!   Intel-HLS stand-in) for Figure 9, on μIR's function units: compute
//!   latencies come from `muir_core::hw::op_timing`. It schedules every
//!   basic block under FSM resource constraints, pipelines innermost loops
//!   (with recurrence- and resource-bounded initiation intervals), serializes
//!   nested loops (§5.2: "HLS serialize the nested loop executions"), and
//!   charges cycles per dynamic block using the reference interpreter's
//!   block trace. A vendor streaming-buffer option models the FFT/DENSE
//!   advantage the paper could not switch off.
//! * [`cpu`]: an ARM-Cortex-A9-class dual-issue timing model for
//!   Figure 18, driven by the interpreter's dynamic operation trace with a
//!   small L1 cache model.

pub mod cpu;
pub mod hls;

pub use cpu::{CpuModel, CpuResult};
pub use hls::{HlsModel, HlsResult};
