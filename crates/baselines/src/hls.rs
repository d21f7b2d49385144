//! Statically scheduled HLS execution model (the Figure 9 baseline).
//!
//! Commercial HLS lowers loops to statically scheduled circuits driven by a
//! central FSM (§2.1): each basic block becomes a fixed schedule, innermost
//! loops may be pipelined, nested loops serialize, and every memory access
//! competes for a fixed port budget. We reproduce that model analytically:
//!
//! 1. **Schedule** every basic block: length = max(dependence-critical
//!    path with unit op latencies, resource bound per op class).
//! 2. **Pipeline** innermost loops: II = max(resource II, recurrence II —
//!    a floating-point reduction recurs at the FP-adder latency; a carried
//!    memory dependence serializes the loop).
//! 3. **Account** cycles along the dynamic block trace of the reference
//!    interpreter: a pipelined loop pays its full latency once and II per
//!    subsequent iteration; everything else pays its schedule length.

use muir_mir::analysis::{self, NaturalLoop};
use muir_mir::instr::{BinOp, BlockId, InstrId, Op, UnOp, ValueRef};
use muir_mir::interp::{Interp, InterpError, Memory};
use muir_mir::module::{Function, Module};
use muir_mir::trace::{TraceEvent, TraceSink};
use std::collections::HashMap;

/// FSM resource budget per state (Vivado/LegUp-style defaults).
#[derive(Debug, Clone)]
pub struct HlsResources {
    /// Integer ALU ops per cycle.
    pub int_alu: u32,
    /// FP adders.
    pub fp_add: u32,
    /// FP multipliers.
    pub fp_mul: u32,
    /// Memory read ports.
    pub mem_read: u32,
    /// Memory write ports.
    pub mem_write: u32,
}

impl Default for HlsResources {
    fn default() -> Self {
        HlsResources {
            int_alu: 4,
            fp_add: 1,
            fp_mul: 1,
            mem_read: 2,
            mem_write: 1,
        }
    }
}

/// HLS model configuration.
#[derive(Debug, Clone, Default)]
pub struct HlsModel {
    /// Resource budget.
    pub resources: HlsResources,
    /// Vendor streaming buffers: memory accesses cost nothing extra and do
    /// not compete for ports (the FFT/DENSE advantage of §5.2 the authors
    /// "were unable to turn off").
    pub streaming_buffers: bool,
}

/// Result of an HLS-model run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HlsResult {
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic blocks executed.
    pub blocks: u64,
}

/// Per-block static schedule.
#[derive(Debug, Clone, Copy)]
struct BlockSched {
    /// Schedule length (cycles) when executed as an FSM sequence.
    latency: u64,
    /// When this block belongs to a pipelined innermost loop: the loop's
    /// identity (header id), its initiation interval, the loop's total
    /// fill latency, and whether this block is the header.
    pipelined: Option<PipelinedLoop>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct PipelinedLoop {
    header: u32,
    ii: u64,
    fill: u64,
    is_header: bool,
}

impl HlsModel {
    /// With streaming buffers enabled.
    pub fn with_streaming() -> HlsModel {
        HlsModel {
            streaming_buffers: true,
            ..HlsModel::default()
        }
    }

    /// Run the model over `module` (executing it with the reference
    /// interpreter to obtain the dynamic block trace).
    ///
    /// # Errors
    /// Propagates interpreter faults.
    pub fn run(&self, module: &Module, mem: &mut Memory) -> Result<HlsResult, InterpError> {
        let schedules = self.schedule_module(module);
        let sink = HlsSink {
            schedules,
            cycles: 0,
            blocks: 0,
            current_loop: None,
        };
        let mut interp = Interp::with_sink(module, sink);
        interp.run_main(mem, &[])?;
        let sink = interp.into_sink();
        Ok(HlsResult {
            cycles: sink.cycles,
            blocks: sink.blocks,
        })
    }

    fn schedule_module(&self, module: &Module) -> HashMap<(String, u32), BlockSched> {
        let mut out = HashMap::new();
        let fps = analysis::footprints(module);
        for f in &module.functions {
            let loops = analysis::natural_loops(f, &f.predecessors());
            for b in f.block_ids() {
                let latency = self.block_latency(f, b);
                // A block is pipelined if it belongs to exactly one loop
                // and that loop is innermost and not serialized.
                let owner = loops
                    .iter()
                    .filter(|l| l.blocks.contains(b))
                    .min_by_key(|l| l.blocks.len());
                let pipelined = owner.and_then(|l| {
                    let is_innermost = !loops
                        .iter()
                        .any(|o| o.parent.is_some_and(|p| std::ptr::eq(&loops[p], l)));
                    if !is_innermost {
                        return None;
                    }
                    let dep = analysis::loop_dependence_in(&fps, f, l);
                    if !dep.parallel {
                        return None; // carried memory dependence: serialized
                    }
                    let fill: u64 = l.blocks.iter().map(|lb| self.block_latency(f, lb)).sum();
                    Some(PipelinedLoop {
                        header: l.header.0,
                        ii: self.loop_ii(f, l),
                        fill,
                        is_header: b == l.header,
                    })
                });
                out.insert((f.name.clone(), b.0), BlockSched { latency, pipelined });
            }
        }
        out
    }

    /// Dependence-critical-path + resource-bound schedule length of one
    /// block.
    fn block_latency(&self, f: &Function, b: BlockId) -> u64 {
        let mut level: HashMap<InstrId, u64> = HashMap::new();
        let mut counts = ClassCounts::default();
        let mut depth = 1u64;
        for (iid, instr) in f.block_instrs(b) {
            let op_lat = self.op_latency(&instr.op);
            counts.count(&instr.op, self.streaming_buffers);
            let in_level = instr
                .operands
                .iter()
                .filter_map(|o| match o {
                    ValueRef::Instr(d) => level.get(d).copied(),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            let lvl = in_level + op_lat;
            level.insert(iid, lvl);
            depth = depth.max(lvl);
        }
        depth.max(counts.resource_bound(&self.resources))
    }

    /// Initiation interval of a pipelined innermost loop.
    fn loop_ii(&self, f: &Function, l: &NaturalLoop) -> u64 {
        let mut counts = ClassCounts::default();
        let mut has_fp_reduction = false;
        for b in l.blocks.iter() {
            for (_iid, instr) in f.block_instrs(b) {
                counts.count(&instr.op, self.streaming_buffers);
                // An accumulator φ feeding a float add/sub is the classic
                // reduction recurrence.
                if let Op::Bin(BinOp::FAdd | BinOp::FSub) = instr.op {
                    for o in &instr.operands {
                        if let ValueRef::Instr(d) = o {
                            if matches!(f.instr(*d).op, Op::Phi { .. }) {
                                has_fp_reduction = true;
                            }
                        }
                    }
                }
            }
        }
        let res_ii = counts.resource_bound(&self.resources);
        let rec_ii = if has_fp_reduction { 4 } else { 1 };
        res_ii.max(rec_ii)
    }

    fn op_latency(&self, op: &Op) -> u64 {
        match op {
            Op::Bin(b) => match b {
                BinOp::Mul => 3,
                BinOp::Div | BinOp::Rem => 16,
                BinOp::FAdd | BinOp::FSub | BinOp::FMul => 4,
                BinOp::FDiv => 14,
                _ => 1,
            },
            Op::Un(UnOp::Exp | UnOp::Sqrt) => 12,
            Op::Load { .. } | Op::Store { .. } => {
                if self.streaming_buffers {
                    1
                } else {
                    2
                }
            }
            Op::Tensor(..) => 8, // HLS has no tensor units: expanded macro
            Op::Call { .. } | Op::Detach { .. } | Op::Sync { .. } => 2,
            _ => 1,
        }
    }
}

#[derive(Debug, Default)]
struct ClassCounts {
    int_alu: u64,
    fp_add: u64,
    fp_mul: u64,
    mem_read: u64,
    mem_write: u64,
}

impl ClassCounts {
    fn count(&mut self, op: &Op, streaming: bool) {
        match op {
            Op::Bin(BinOp::FAdd | BinOp::FSub) => self.fp_add += 1,
            Op::Bin(BinOp::FMul | BinOp::FDiv) => self.fp_mul += 1,
            Op::Bin(_) | Op::Cmp(_) | Op::Select | Op::Cast(_) | Op::Un(_) => self.int_alu += 1,
            Op::Load { .. } if !streaming => self.mem_read += 1,
            Op::Store { .. } if !streaming => self.mem_write += 1,
            Op::Tensor(..) => {
                self.fp_mul += 4;
                self.fp_add += 3;
            }
            _ => {}
        }
    }

    fn resource_bound(&self, r: &HlsResources) -> u64 {
        let b = [
            self.int_alu.div_ceil(r.int_alu as u64),
            self.fp_add.div_ceil(r.fp_add as u64),
            self.fp_mul.div_ceil(r.fp_mul as u64),
            self.mem_read.div_ceil(r.mem_read as u64),
            self.mem_write.div_ceil(r.mem_write as u64),
        ];
        b.into_iter().max().unwrap_or(1).max(1)
    }
}

struct HlsSink {
    schedules: HashMap<(String, u32), BlockSched>,
    cycles: u64,
    blocks: u64,
    /// The pipelined loop currently in steady state: (function, header).
    current_loop: Option<(String, u32)>,
}

impl TraceSink for HlsSink {
    fn event(&mut self, _ev: TraceEvent) {}

    fn block(&mut self, func: &str, block: BlockId) {
        self.blocks += 1;
        let key = (func.to_string(), block.0);
        let sched = self.schedules.get(&key).copied().unwrap_or(BlockSched {
            latency: 1,
            pipelined: None,
        });
        match sched.pipelined {
            Some(pl) => {
                let loop_key = (key.0.clone(), pl.header);
                if self.current_loop.as_ref() == Some(&loop_key) {
                    // Steady state: one II per new iteration, overlapped
                    // body blocks are free.
                    if pl.is_header {
                        self.cycles += pl.ii;
                    }
                } else {
                    // Entering the loop: pay the pipeline fill once.
                    self.cycles += pl.fill;
                    self.current_loop = Some(loop_key);
                }
            }
            None => {
                self.cycles += sched.latency;
                self.current_loop = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_mir::builder::FunctionBuilder;
    use muir_mir::types::{ScalarType, Type};

    fn streaming_loop(n: i64) -> Module {
        let mut m = Module::new("hls_t");
        let a = m.add_mem_object("a", ScalarType::F32, n as u64);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(n), 1, |b, i| {
            let v = b.load(a, i);
            let w = b.fmul(v, ValueRef::f32(2.0));
            b.store(a, i, w);
        });
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn pipelined_loop_pays_ii_after_first() {
        let m = streaming_loop(64);
        let mut mem = Memory::from_module(&m);
        let r = HlsModel::default().run(&m, &mut mem).unwrap();
        // ~64 iterations × small II, plus entry/exit blocks. Far below
        // 64 × full-latency.
        assert!(r.cycles > 64, "{r:?}");
        assert!(r.cycles < 64 * 12, "{r:?}");
        assert!(r.blocks > 64);
    }

    #[test]
    fn fp_reduction_recurs_at_adder_latency() {
        let mut m = Module::new("red");
        let a = m.add_mem_object("a", ScalarType::F32, 64);
        let out = m.add_mem_object("out", ScalarType::F32, 1);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        let acc = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(64),
            1,
            &[(ValueRef::f32(0.0), Type::F32)],
            |b, i, accs| {
                let v = b.load(a, i);
                vec![b.fadd(accs[0], v)]
            },
        );
        b.store(out, ValueRef::int(0), acc[0]);
        b.ret(None);
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        let r = HlsModel::default().run(&m, &mut mem).unwrap();
        // II = 4 → at least 64 × 4 cycles in the loop.
        assert!(r.cycles >= 64 * 4, "{r:?}");
    }

    #[test]
    fn carried_memory_dependence_serializes() {
        let mut m = Module::new("ser");
        let a = m.add_mem_object("a", ScalarType::I32, 64);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(64), 1, |b, i| {
            let v = b.load(a, ValueRef::int(0));
            let w = b.add(v, i);
            b.store(a, ValueRef::int(0), w);
        });
        b.ret(None);
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        let serial = HlsModel::default().run(&m, &mut mem).unwrap();
        let m2 = streaming_loop(64);
        let mut mem2 = Memory::from_module(&m2);
        let parallel = HlsModel::default().run(&m2, &mut mem2).unwrap();
        assert!(
            serial.cycles > parallel.cycles,
            "{serial:?} vs {parallel:?}"
        );
    }

    #[test]
    fn streaming_buffers_speed_up_memory_bound_loops() {
        let m = streaming_loop(256);
        let mut m1 = Memory::from_module(&m);
        let plain = HlsModel::default().run(&m, &mut m1).unwrap();
        let mut m2 = Memory::from_module(&m);
        let streamed = HlsModel::with_streaming().run(&m, &mut m2).unwrap();
        assert!(streamed.cycles < plain.cycles, "{streamed:?} vs {plain:?}");
    }

    #[test]
    fn nested_loops_serialize() {
        // Outer loop re-pays the inner loop's fill every outer iteration.
        let mut m = Module::new("nest");
        let a = m.add_mem_object("a", ScalarType::F32, 256);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(16), 1, |b, i| {
            let base = b.mul(i, ValueRef::int(16));
            b.for_loop(0, ValueRef::int(16), 1, |b, j| {
                let idx = b.add(base, j);
                let v = b.load(a, idx);
                let w = b.fadd(v, ValueRef::f32(1.0));
                b.store(a, idx, w);
            });
        });
        b.ret(None);
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        let r = HlsModel::default().run(&m, &mut mem).unwrap();
        // 256 inner iterations plus 16 × (outer overhead + pipeline fill).
        assert!(r.cycles > 256, "{r:?}");
    }
}
