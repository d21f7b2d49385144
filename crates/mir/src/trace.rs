//! Dynamic-trace events emitted by the interpreter.
//!
//! The ARM-A9-class CPU timing model in `muir-baselines` consumes these
//! events online (no trace is stored), classifying each dynamic operation
//! and feeding memory addresses to its cache model.

use crate::instr::MemObjId;

/// Classification of one dynamic operation for the CPU timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Simple integer ALU op (add/sub/logic/shift/compare/select/cast).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide or remainder.
    IntDiv,
    /// Float add/sub/compare.
    FpAdd,
    /// Float multiply.
    FpMul,
    /// Float divide.
    FpDiv,
    /// Float special function (exp, sqrt).
    FpSpecial,
    /// Memory load (one element).
    Load,
    /// Memory store (one element).
    Store,
    /// Control transfer.
    Branch,
    /// Call/return and task management overhead.
    Call,
}

/// One dynamic-trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Operation class.
    pub class: OpClass,
    /// Flat global element address for loads/stores.
    pub addr: Option<u64>,
    /// Source memory object for loads/stores.
    pub obj: Option<MemObjId>,
}

impl TraceEvent {
    /// A compute event of the given class.
    pub(crate) fn compute(class: OpClass) -> Self {
        TraceEvent {
            class,
            addr: None,
            obj: None,
        }
    }

    /// A memory event.
    pub(crate) fn mem(class: OpClass, obj: MemObjId, addr: u64) -> Self {
        TraceEvent {
            class,
            addr: Some(addr),
            obj: Some(obj),
        }
    }
}

/// Online consumer of trace events.
pub trait TraceSink {
    /// Observe one dynamic operation.
    fn event(&mut self, ev: TraceEvent);

    /// Observe a basic-block entry (function name + block). Statically
    /// scheduled execution models (the HLS baseline) accumulate cycles per
    /// dynamic block; the default implementation ignores it.
    fn block(&mut self, _func: &str, _block: crate::instr::BlockId) {}
}

/// A sink that discards everything (tracing disabled).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _ev: TraceEvent) {}
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A sink that counts events by class.
    #[derive(Debug, Default, Clone)]
    pub(crate) struct CountingSink {
        /// Total events seen.
        pub total: u64,
        /// Dynamic loads.
        pub loads: u64,
        /// Dynamic stores.
        pub stores: u64,
        /// Dynamic branches.
        pub branches: u64,
        /// Dynamic float ops.
        pub float_ops: u64,
        /// Dynamic integer ALU/mul/div ops.
        pub int_ops: u64,
    }

    impl CountingSink {
        /// New zeroed counter.
        pub(crate) fn new() -> Self {
            Self::default()
        }
    }

    impl TraceSink for CountingSink {
        fn event(&mut self, ev: TraceEvent) {
            self.total += 1;
            match ev.class {
                OpClass::Load => self.loads += 1,
                OpClass::Store => self.stores += 1,
                OpClass::Branch => self.branches += 1,
                OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv | OpClass::FpSpecial => {
                    self.float_ops += 1
                }
                OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => self.int_ops += 1,
                OpClass::Call => {}
            }
        }
    }

    #[test]
    fn counting_sink_classifies() {
        let mut s = CountingSink::new();
        s.event(TraceEvent::compute(OpClass::IntAlu));
        s.event(TraceEvent::compute(OpClass::FpMul));
        s.event(TraceEvent::mem(OpClass::Load, MemObjId(0), 4));
        s.event(TraceEvent::mem(OpClass::Store, MemObjId(0), 4));
        s.event(TraceEvent::compute(OpClass::Branch));
        assert_eq!(s.total, 5);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 1);
        assert_eq!(s.float_ops, 1);
        assert_eq!(s.int_ops, 1);
    }

    #[test]
    fn event_constructors() {
        let e = TraceEvent::mem(OpClass::Load, MemObjId(3), 17);
        assert_eq!(e.addr, Some(17));
        assert_eq!(e.obj, Some(MemObjId(3)));
        let c = TraceEvent::compute(OpClass::FpDiv);
        assert_eq!(c.addr, None);
    }
}
