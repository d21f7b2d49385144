//! ARM-Cortex-A9-class CPU timing model (the Figure 18 baseline).
//!
//! A trace-driven dual-issue model: the reference interpreter streams
//! dynamic operations into this sink, which accounts issue-slot pressure
//! (2-wide), single FP and load/store pipes, long-latency serializing ops,
//! an L1 data-cache model, and a branch-predictor penalty. §6.6 attributes
//! the accelerator win to ILP beyond dual issue, tensor compute density
//! the CPU pipeline cannot match, and dataflow eliminating front-end
//! overhead — all three are first-order effects here.

use muir_mir::instr::BlockId;
use muir_mir::interp::{Interp, InterpError, Memory};
use muir_mir::module::Module;
use muir_mir::trace::{OpClass, TraceEvent, TraceSink};

/// Issue width (dual issue).
const ISSUE_WIDTH: u64 = 2;
/// L1 data cache size in elements (32 KB of 4-byte words).
const L1_ELEMS: u64 = 8192;
/// L1 line size in elements.
const LINE_ELEMS: u64 = 8;
/// L1 associativity.
const ASSOC: usize = 4;
/// L1 sets.
const SETS: u64 = L1_ELEMS / LINE_ELEMS / ASSOC as u64;
/// Miss penalty (cycles to L2/DRAM).
const MISS_PENALTY: u64 = 24;
/// Share of branches mispredicted.
const MISPREDICT_RATE: f64 = 0.06;
/// Pipeline refill cost on a mispredict.
const MISPREDICT_PENALTY: u64 = 9;
/// Clock (MHz).
const FREQ_MHZ: f64 = 1000.0;

/// The CPU model: A9-flavoured and clocked at 1 GHz, with its parameters
/// fixed as the consts above.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel;

/// Result of a CPU-model run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuResult {
    /// Total cycles at the model clock.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Wall time in microseconds at the model clock.
    pub time_us: f64,
}

impl CpuModel {
    /// Run `module` on the model.
    ///
    /// # Errors
    /// Propagates interpreter faults.
    pub fn run(&self, module: &Module, mem: &mut Memory) -> Result<CpuResult, InterpError> {
        let sink = CpuSink::new();
        let mut interp = Interp::with_sink(module, sink);
        interp.run_main(mem, &[])?;
        let sink = interp.into_sink();
        let cycles = sink.cycles();
        Ok(CpuResult {
            cycles,
            instructions: sink.instructions,
            l1_misses: sink.misses,
            time_us: cycles as f64 / FREQ_MHZ,
        })
    }
}

struct CpuSink {
    instructions: u64,
    fp_ops: u64,
    mem_ops: u64,
    branches: u64,
    serial_stall: u64, // div/exp/sqrt serialization
    misses: u64,
    /// L1 tag store: sets × ways of line tags.
    tags: Vec<[u64; ASSOC]>,
    lru: Vec<[u64; ASSOC]>,
    clock: u64,
}

impl CpuSink {
    fn new() -> CpuSink {
        CpuSink {
            tags: vec![[u64::MAX; ASSOC]; SETS as usize],
            lru: vec![[0; ASSOC]; SETS as usize],
            instructions: 0,
            fp_ops: 0,
            mem_ops: 0,
            branches: 0,
            serial_stall: 0,
            misses: 0,
            clock: 0,
        }
    }

    fn access(&mut self, addr: u64) {
        self.clock += 1;
        let line = addr / LINE_ELEMS;
        let set = (line % SETS) as usize;
        let tag = line / SETS;
        let clock = self.clock;
        if let Some(w) = self.tags[set].iter().position(|&t| t == tag) {
            self.lru[set][w] = clock;
            return;
        }
        self.misses += 1;
        let victim = self.lru[set]
            .iter()
            .enumerate()
            .min_by_key(|(_, &l)| l)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.tags[set][victim] = tag;
        self.lru[set][victim] = clock;
    }

    fn cycles(&self) -> u64 {
        // Structural bounds: dual-issue front end, one FP pipe, one LSU.
        let slots = self.instructions.div_ceil(ISSUE_WIDTH);
        let fp = self.fp_ops; // FP pipe accepts 1/cycle
        let mem = self.mem_ops;
        let structural = slots.max(fp).max(mem);
        let mispredicts = (self.branches as f64 * MISPREDICT_RATE) as u64 * MISPREDICT_PENALTY;
        structural + self.serial_stall + self.misses * MISS_PENALTY + mispredicts
    }
}

impl TraceSink for CpuSink {
    fn event(&mut self, ev: TraceEvent) {
        self.instructions += 1;
        match ev.class {
            // Integer ops only take issue slots; a multiply or divide
            // also stalls the pipe behind it.
            OpClass::IntAlu => {}
            OpClass::IntMul => self.serial_stall += 2,
            OpClass::IntDiv => self.serial_stall += 12,
            OpClass::FpAdd | OpClass::FpMul => self.fp_ops += 1,
            OpClass::FpDiv => {
                self.fp_ops += 1;
                self.serial_stall += 10;
            }
            OpClass::FpSpecial => {
                self.fp_ops += 1;
                self.serial_stall += 20;
            }
            OpClass::Load | OpClass::Store => {
                self.mem_ops += 1;
                if let Some(a) = ev.addr {
                    self.access(a);
                }
            }
            OpClass::Branch => self.branches += 1,
            OpClass::Call => self.serial_stall += 4,
        }
    }

    fn block(&mut self, _func: &str, _block: BlockId) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use muir_mir::builder::FunctionBuilder;
    use muir_mir::instr::ValueRef;
    use muir_mir::types::ScalarType;

    fn scale_loop(n: i64) -> Module {
        let mut m = Module::new("cpu_t");
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
    fn cycles_scale_with_work() {
        let small = scale_loop(64);
        let big = scale_loop(512);
        let mut ms = Memory::from_module(&small);
        let mut mb = Memory::from_module(&big);
        let rs = CpuModel.run(&small, &mut ms).unwrap();
        let rb = CpuModel.run(&big, &mut mb).unwrap();
        assert!(rb.cycles > 5 * rs.cycles, "{rs:?} vs {rb:?}");
        assert!(rb.instructions > rs.instructions);
    }

    #[test]
    fn dual_issue_bounds_ipc_at_two(/* IPC ≤ 2 */) {
        let m = scale_loop(256);
        let mut mem = Memory::from_module(&m);
        let r = CpuModel.run(&m, &mut mem).unwrap();
        let ipc = r.instructions as f64 / r.cycles as f64;
        assert!(ipc <= 2.0, "ipc {ipc}");
        assert!(ipc > 0.2, "ipc {ipc}");
    }

    #[test]
    fn strided_loop_misses_then_hits() {
        let m = scale_loop(512);
        let mut mem = Memory::from_module(&m);
        let r = CpuModel.run(&m, &mut mem).unwrap();
        // One miss per 8-element line on the read stream (write allocates
        // hit the same line).
        assert!(r.l1_misses >= 512 / 8, "{r:?}");
        assert!(r.l1_misses <= 2 * 512 / 8 + 8, "{r:?}");
    }

    #[test]
    fn time_reflects_frequency() {
        let m = scale_loop(128);
        let mut mem = Memory::from_module(&m);
        let r = CpuModel.run(&m, &mut mem).unwrap();
        assert!((r.time_us - r.cycles as f64 / 1000.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod penalty_tests {
    use super::*;
    use muir_mir::builder::FunctionBuilder;
    use muir_mir::instr::ValueRef;
    use muir_mir::module::Module;
    use muir_mir::types::ScalarType;

    fn loop_with(
        body: impl Fn(&mut FunctionBuilder, ValueRef, muir_mir::instr::MemObjId),
    ) -> Module {
        let mut m = Module::new("pen");
        let a = m.add_mem_object("a", ScalarType::I32, 128);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(128), 1, |b, i| body(b, i, a));
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn division_costs_more_than_addition() {
        let add = loop_with(|b, i, a| {
            let v = b.add(i, ValueRef::int(1));
            b.store(a, i, v);
        });
        let div = loop_with(|b, i, a| {
            let i1 = b.add(i, ValueRef::int(1));
            let v = b.div(ValueRef::int(1000), i1);
            b.store(a, i, v);
        });
        let mut m1 = Memory::from_module(&add);
        let mut m2 = Memory::from_module(&div);
        let r_add = CpuModel.run(&add, &mut m1).unwrap();
        let r_div = CpuModel.run(&div, &mut m2).unwrap();
        assert!(
            r_div.cycles > r_add.cycles + 128 * 8,
            "{r_add:?} vs {r_div:?}"
        );
    }

    #[test]
    fn exp_serializes_the_fp_pipe() {
        let mul = loop_with(|b, i, a| {
            let f = b.sitofp(i);
            let v = b.fmul(f, ValueRef::f32(1.5));
            let back = b.fptosi(v);
            b.store(a, i, back);
        });
        let exp = loop_with(|b, i, a| {
            let f = b.sitofp(i);
            let v = b.exp(f);
            let back = b.fptosi(v);
            b.store(a, i, back);
        });
        let mut m1 = Memory::from_module(&mul);
        let mut m2 = Memory::from_module(&exp);
        let r_mul = CpuModel.run(&mul, &mut m1).unwrap();
        let r_exp = CpuModel.run(&exp, &mut m2).unwrap();
        assert!(
            r_exp.cycles > r_mul.cycles + 128 * 10,
            "{r_mul:?} vs {r_exp:?}"
        );
    }
}
