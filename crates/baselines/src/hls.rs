//! Statically scheduled HLS execution model (the Figure 9 baseline).
//!
//! Commercial HLS lowers loops to statically scheduled circuits driven by a
//! central FSM (§2.1): each basic block becomes a fixed schedule, innermost
//! loops may be pipelined, nested loops serialize, and every memory access
//! competes for a fixed port budget. We reproduce that model analytically,
//! on μIR's function units: a compute op's latency is [`hw::op_timing`]'s,
//! the table μIR's seal and simulator read.
//!
//! 1. **Schedule** every basic block: length = max(dependence-critical
//!    path over per-op latencies, resource bound per op class).
//! 2. **Pipeline** innermost loops: II = max(resource II, recurrence II —
//!    the longest latency chain from a header φ to its value from the
//!    loop; a carried memory dependence serializes the loop).
//! 3. **Account** cycles along the dynamic block trace of the reference
//!    interpreter: a pipelined loop pays its full latency once and II per
//!    subsequent iteration; everything else pays its schedule length.

use muir_core::{hw, OpKind};
use muir_mir::analysis::{self, NaturalLoop};
use muir_mir::instr::{BinOp, BlockId, Instr, InstrId, Op, ValueRef};
use muir_mir::interp::{Interp, InterpError, Memory};
use muir_mir::module::{Function, Module};
use muir_mir::trace::{TraceEvent, TraceSink};
use muir_mir::types::Type;
use std::collections::HashMap;

/// A memory access registers its address, then its data.
const MEM_LATENCY: u64 = 2;
/// A vendor streaming buffer hands the data over in the access's cycle.
const STREAMED_MEM_LATENCY: u64 = 1;
/// HLS has no tensor units: a tensor op is an expanded scalar macro.
const TENSOR_MACRO_LATENCY: u64 = 8;
/// A call, detach or sync hands control to another FSM and back.
const HANDOFF_LATENCY: u64 = 2;

/// FSM resource budget per state (Vivado/LegUp-style).
const INT_ALUS: u64 = 4;
const FP_ADDERS: u64 = 1;
const FP_MULTIPLIERS: u64 = 1;
const READ_PORTS: u64 = 2;
const WRITE_PORTS: u64 = 1;

/// HLS model configuration.
#[derive(Debug, Clone, Default)]
pub struct HlsModel {
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

/// How one block executes: as an FSM state sequence of so many cycles, or
/// as part of pipelined loop `lp` (an index into `HlsSink::loops`), whose
/// header starts each iteration.
#[derive(Debug, Clone, Copy)]
enum BlockSched {
    Fsm(u64),
    Pipelined { lp: usize, is_header: bool },
}

/// An innermost loop without a carried memory dependence: it pays `fill`
/// (its blocks' summed schedules) on entry and `ii` per later iteration.
#[derive(Debug, Clone, Copy)]
struct PipelinedLoop {
    fill: u64,
    ii: u64,
}

impl HlsModel {
    /// With streaming buffers enabled.
    pub fn with_streaming() -> HlsModel {
        HlsModel {
            streaming_buffers: true,
        }
    }

    /// Run the model over `module` (executing it with the reference
    /// interpreter to obtain the dynamic block trace).
    ///
    /// # Errors
    /// Propagates interpreter faults.
    pub fn run(&self, module: &Module, mem: &mut Memory) -> Result<HlsResult, InterpError> {
        let mut interp = Interp::with_sink(module, self.schedule(module));
        interp.run_main(mem, &[])?;
        let sink = interp.into_sink();
        Ok(HlsResult {
            cycles: sink.cycles,
            blocks: sink.blocks,
        })
    }

    /// Schedule every block and every pipelined loop of `module` once.
    fn schedule<'m>(&self, module: &'m Module) -> HlsSink<'m> {
        let fps = analysis::footprints(module);
        let mut sink = HlsSink {
            scheds: HashMap::with_capacity(module.functions.len()),
            loops: Vec::new(),
            cycles: 0,
            blocks: 0,
            current_loop: None,
        };
        for f in &module.functions {
            let latency: Vec<u64> = f.block_ids().map(|b| self.block_latency(f, b)).collect();
            let loops = analysis::natural_loops(f, &f.predecessors());
            // Each loop's index in `sink.loops` if it is pipelined: an
            // innermost loop whose memory accesses carry no dependence.
            let mut pipelined = Vec::with_capacity(loops.len());
            for (i, l) in loops.iter().enumerate() {
                let innermost = !loops.iter().any(|o| o.parent == Some(i));
                let lp = innermost && analysis::loop_dependence_in(&fps, f, l).parallel;
                pipelined.push(lp.then(|| {
                    let fill = l.blocks.iter().map(|b| latency[b.0 as usize]).sum();
                    sink.loops.push(PipelinedLoop {
                        fill,
                        ii: self.loop_ii(f, l),
                    });
                    sink.loops.len() - 1
                }));
            }
            let scheds = f.block_ids().map(|b| {
                // A block executes as part of its smallest enclosing loop.
                let owner = (0..loops.len())
                    .filter(|&i| loops[i].blocks.contains(b))
                    .min_by_key(|&i| loops[i].blocks.len());
                match owner.and_then(|i| Some((pipelined[i]?, loops[i].header))) {
                    Some((lp, header)) => BlockSched::Pipelined {
                        lp,
                        is_header: b == header,
                    },
                    None => BlockSched::Fsm(latency[b.0 as usize]),
                }
            });
            sink.scheds.insert(f.name.as_str(), scheds.collect());
        }
        sink
    }

    /// Dependence-critical-path + resource-bound schedule length of one
    /// block.
    fn block_latency(&self, f: &Function, b: BlockId) -> u64 {
        let mut level: HashMap<InstrId, u64> = HashMap::new();
        let mut counts = ClassCounts::default();
        let mut depth = 1u64;
        for (iid, instr) in f.block_instrs(b) {
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
            let lvl = in_level + self.op_latency(instr);
            level.insert(iid, lvl);
            depth = depth.max(lvl);
        }
        depth.max(counts.resource_bound())
    }

    /// Initiation interval of a pipelined innermost loop: the larger of
    /// its resource bound and its recurrence bound, the longest chain from
    /// a header φ to a value it takes from the loop (at least 1).
    fn loop_ii(&self, f: &Function, l: &NaturalLoop) -> u64 {
        let mut counts = ClassCounts::default();
        for b in l.blocks.iter() {
            for (_, instr) in f.block_instrs(b) {
                counts.count(&instr.op, self.streaming_buffers);
            }
        }
        let mut rec = 1;
        for (phi, instr) in f.block_instrs(l.header) {
            if let Op::Phi { .. } = instr.op {
                let mut memo = vec![None; f.instrs.len()];
                for v in instr.operands.iter().filter_map(ValueRef::as_instr) {
                    rec = rec.max(self.chain(f, l, phi, v, &mut memo).unwrap_or(0));
                }
            }
        }
        counts.resource_bound().max(rec)
    }

    /// The longest latency sum along def-use paths from `phi` to `v` (`v`
    /// counted, the φ not) that stay in `l` and pass through no other φ,
    /// or `None` if there is none; `memo` caches it per instruction.
    fn chain(
        &self,
        f: &Function,
        l: &NaturalLoop,
        phi: InstrId,
        v: InstrId,
        memo: &mut [Option<Option<u64>>],
    ) -> Option<u64> {
        let instr = f.instr(v);
        if v == phi {
            return Some(0);
        } else if !l.blocks.contains(instr.block) {
            return None;
        } else if let Some(known) = memo[v.0 as usize] {
            return known;
        }
        let longest = instr
            .operands
            .iter()
            .filter_map(ValueRef::as_instr)
            .filter(|&d| d == phi || !matches!(f.instr(d).op, Op::Phi { .. }))
            .filter_map(|d| self.chain(f, l, phi, d, memo))
            .max();
        let found = longest.map(|d| d + self.op_latency(instr));
        memo[v.0 as usize] = Some(found);
        found
    }

    /// Cycles of one op: a compute op reads [`hw::op_timing`] at its
    /// result type, the costs only HLS has are the consts above, and a φ
    /// or a branch takes one FSM state.
    fn op_latency(&self, instr: &Instr) -> u64 {
        let kind = match instr.op {
            Op::Bin(b) => OpKind::Bin(b),
            Op::Un(u) => OpKind::Un(u),
            Op::Cmp(p) => OpKind::Cmp(p),
            Op::Select => OpKind::Select,
            Op::Cast(c) => OpKind::Cast(c),
            Op::Load { .. } | Op::Store { .. } if self.streaming_buffers => {
                return STREAMED_MEM_LATENCY
            }
            Op::Load { .. } | Op::Store { .. } => return MEM_LATENCY,
            Op::Tensor(..) => return TENSOR_MACRO_LATENCY,
            Op::Call { .. } | Op::Detach { .. } | Op::Sync { .. } => return HANDOFF_LATENCY,
            _ => return 1,
        };
        // An untyped compute op fails the verifier; it reads the scalar row.
        u64::from(hw::op_timing(kind, instr.ty.unwrap_or(Type::I64)).latency)
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

    fn resource_bound(&self) -> u64 {
        let b = [
            self.int_alu.div_ceil(INT_ALUS),
            self.fp_add.div_ceil(FP_ADDERS),
            self.fp_mul.div_ceil(FP_MULTIPLIERS),
            self.mem_read.div_ceil(READ_PORTS),
            self.mem_write.div_ceil(WRITE_PORTS),
        ];
        b.into_iter().max().unwrap_or(1).max(1)
    }
}

struct HlsSink<'m> {
    /// Each function's block schedules by block id, keyed by the name the
    /// block trace passes.
    scheds: HashMap<&'m str, Vec<BlockSched>>,
    /// Every pipelined loop of the module, once.
    loops: Vec<PipelinedLoop>,
    cycles: u64,
    blocks: u64,
    /// The pipelined loop currently in steady state.
    current_loop: Option<usize>,
}

impl TraceSink for HlsSink<'_> {
    fn event(&mut self, _ev: TraceEvent) {}

    fn block(&mut self, func: &str, block: BlockId) {
        self.blocks += 1;
        let sched = self.scheds.get(func).and_then(|s| s.get(block.0 as usize));
        match sched.copied().unwrap_or(BlockSched::Fsm(1)) {
            BlockSched::Pipelined { lp, is_header } => {
                if self.current_loop == Some(lp) {
                    // Steady state: one II per new iteration, overlapped
                    // body blocks are free.
                    if is_header {
                        self.cycles += self.loops[lp].ii;
                    }
                } else {
                    // Entering the loop: pay the pipeline fill once.
                    self.cycles += self.loops[lp].fill;
                    self.current_loop = Some(lp);
                }
            }
            BlockSched::Fsm(latency) => {
                self.cycles += latency;
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

    /// A loop recurs at the summed latency of its chain from a header φ
    /// back to the φ: the FAdd accumulator, and two chains the FAdd-only
    /// rule missed (it gave both II = 1).
    #[test]
    fn fp_reduction_recurs_at_adder_latency() {
        type Step = fn(&mut FunctionBuilder, ValueRef, ValueRef) -> ValueRef;
        // (case, element type, accumulator init, next accumulator from
        // (a[i], acc), lower bound of the loop's II)
        let cases: [(&str, ScalarType, ValueRef, Step, u64); 3] = [
            (
                "acc + a[i]",
                ScalarType::F32,
                ValueRef::f32(0.0),
                |b, v, acc| b.fadd(acc, v),
                4,
            ),
            (
                "x * 3",
                ScalarType::I64,
                ValueRef::int(1),
                |b, _, x| b.mul(x, ValueRef::int(3)),
                3,
            ),
            (
                "acc * a[i] + 1",
                ScalarType::F32,
                ValueRef::f32(0.0),
                |b, v, acc| {
                    let p = b.fmul(acc, v);
                    b.fadd(p, ValueRef::f32(1.0))
                },
                4 + 4,
            ),
        ];
        for (case, ty, init, step, ii) in cases {
            let mut m = Module::new("red");
            let a = m.add_mem_object("a", ty, 64);
            let out = m.add_mem_object("out", ty, 1);
            let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
            let acc = b.for_loop_acc(
                ValueRef::int(0),
                ValueRef::int(64),
                1,
                &[(init, Type::Scalar(ty))],
                |b, i, accs| {
                    let v = b.load(a, i);
                    vec![step(b, v, accs[0])]
                },
            );
            b.store(out, ValueRef::int(0), acc[0]);
            b.ret(None);
            m.add_function(b.finish());
            let mut mem = Memory::from_module(&m);
            let r = HlsModel::default().run(&m, &mut mem).unwrap();
            assert!(r.cycles >= 64 * ii, "{case}: II >= {ii} -> {r:?}");
        }
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
