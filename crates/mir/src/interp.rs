//! Reference interpreter: the functional golden model.
//!
//! Every accelerator microarchitecture generated in this repository is
//! verified by running the same `mir` program here and comparing output
//! memories word-for-word. The interpreter executes Tapir parallelism
//! serially (Cilk semantics guarantee a valid serial elision), and can emit
//! a dynamic trace for the CPU timing baseline.

use crate::flat::{self, Word};
use crate::instr::{
    BinOp, BlockId, CastOp, CmpPred, ConstVal, InstrId, Op, TensorOp, UnOp, ValueRef,
};
pub use crate::memory::Memory;
use crate::module::{Function, Module};
use crate::trace::{NullSink, OpClass, TraceEvent, TraceSink};
use crate::value::Value;
use std::fmt;

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.message)
    }
}

impl std::error::Error for InterpError {}

pub(crate) fn ierr(msg: impl Into<String>) -> InterpError {
    InterpError {
        message: msg.into(),
    }
}

/// `v` as a flat value, a composite's lanes appended to `buf`. (The scalar
/// evaluators read no lanes: for them `buf` is scratch that stays empty
/// unless the operand is mistyped.)
fn flat_word(v: &Value, buf: &mut Vec<u64>) -> Result<Word, InterpError> {
    Word::from_value(v, buf)
        .ok_or_else(|| ierr(format!("the lanes of {v} do not share one scalar kind")))
}

/// `v` read as a branch, select or index operand: an integer, or a boolean
/// as `0`/`1`.
fn want_int(v: &Value) -> Result<i64, InterpError> {
    flat_word(v, &mut Vec::new())?.want_int()
}

/// Evaluate a binary op on scalar values ([`flat::bin`] at the edge).
///
/// # Errors
/// Division by zero and type mismatches.
pub fn eval_bin(op: BinOp, a: &Value, b: &Value) -> Result<Value, InterpError> {
    let buf = &mut Vec::new();
    flat::bin(op, flat_word(a, buf)?, flat_word(b, buf)?).map(|w| w.to_value(&[]))
}

/// Evaluate a unary op on a scalar value ([`flat::un`] at the edge).
///
/// # Errors
/// Type mismatches.
pub fn eval_un(op: UnOp, a: &Value) -> Result<Value, InterpError> {
    flat::un(op, flat_word(a, &mut Vec::new())?).map(|w| w.to_value(&[]))
}

/// Evaluate a comparison on scalar values ([`flat::cmp`] at the edge).
///
/// # Errors
/// Type mismatches.
pub fn eval_cmp(pred: CmpPred, a: &Value, b: &Value) -> Result<Value, InterpError> {
    let buf = &mut Vec::new();
    flat::cmp(pred, flat_word(a, buf)?, flat_word(b, buf)?).map(|w| w.to_value(&[]))
}

/// Evaluate a tensor op ([`flat::tensor`] at the edge, so the simulator's
/// lane arithmetic is this one's). `Conv` and `Reduce` reduce to a scalar;
/// `Softmax` keeps the shape but always yields F32 lanes (it routes
/// through the `exp` unit); others keep shape and element type.
///
/// # Errors
/// Shape mismatches; lanes of the wrong kind, or not all of one kind.
pub(crate) fn eval_tensor(
    op: TensorOp,
    a: &Value,
    b: Option<&Value>,
) -> Result<Value, InterpError> {
    let (mut buf, mut out) = (Vec::new(), Vec::new());
    let a = flat_word(a, &mut buf)?;
    let b = b.map(|b| flat_word(b, &mut buf)).transpose()?;
    flat::tensor(op, a, b, &buf, &mut out).map(|w| w.to_value(&out))
}

enum ExecEnd {
    Ret(Option<Value>),
    Reattach,
}

struct Frame<'f> {
    func: &'f Function,
    values: Vec<Option<Value>>,
    args: Vec<Value>,
}

impl<'f> Frame<'f> {
    fn get(&self, r: &ValueRef) -> Result<Value, InterpError> {
        match r {
            ValueRef::Instr(id) => self.values[id.0 as usize]
                .clone()
                .ok_or_else(|| ierr(format!("use of unevaluated {id}"))),
            ValueRef::Arg(n) => Ok(self.args[*n as usize].clone()),
            ValueRef::Const(c) => Ok(const_value(*c)),
        }
    }
}

fn const_value(c: ConstVal) -> Value {
    c.to_value()
}

/// The interpreter. Holds the module, a fuel budget (dynamic-op limit), and
/// an optional trace sink.
pub struct Interp<'m, S: TraceSink> {
    module: &'m Module,
    sink: S,
    fuel: u64,
}

impl<'m> Interp<'m, NullSink> {
    /// Interpreter without tracing.
    pub fn new(module: &'m Module) -> Self {
        Interp {
            module,
            sink: NullSink,
            fuel: 500_000_000,
        }
    }
}

impl<'m, S: TraceSink> Interp<'m, S> {
    /// Interpreter that feeds dynamic events into `sink`.
    pub fn with_sink(module: &'m Module, sink: S) -> Self {
        Interp {
            module,
            sink,
            fuel: 500_000_000,
        }
    }

    /// Recover the sink after execution.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Run `main` with the given arguments against `memory`.
    ///
    /// # Errors
    /// Propagates out-of-bounds accesses, division by zero, malformed IR,
    /// and fuel exhaustion.
    pub fn run_main(
        &mut self,
        memory: &mut Memory,
        args: &[Value],
    ) -> Result<Option<Value>, InterpError> {
        let f = self
            .module
            .main()
            .ok_or_else(|| ierr("module has no functions"))?;
        self.run_function(f, memory, args.to_vec())
    }

    /// Run an arbitrary function.
    ///
    /// # Errors
    /// Same failure modes as [`Interp::run_main`].
    pub(crate) fn run_function(
        &mut self,
        f: &Function,
        memory: &mut Memory,
        args: Vec<Value>,
    ) -> Result<Option<Value>, InterpError> {
        let mut frame = Frame {
            func: f,
            values: vec![None; f.instrs.len()],
            args,
        };
        match self.exec_from(&mut frame, f.entry, memory)? {
            ExecEnd::Ret(v) => Ok(v),
            ExecEnd::Reattach => Err(ierr("reattach escaped its detach region")),
        }
    }

    fn burn(&mut self, n: u64) -> Result<(), InterpError> {
        if self.fuel < n {
            return Err(ierr("fuel exhausted (possible infinite loop)"));
        }
        self.fuel -= n;
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn exec_from(
        &mut self,
        frame: &mut Frame<'_>,
        start: BlockId,
        memory: &mut Memory,
    ) -> Result<ExecEnd, InterpError> {
        let mut cur = start;
        let mut prev: Option<BlockId> = None;
        'blocks: loop {
            self.sink.block(&frame.func.name, cur);
            // φ nodes read their incoming values as-of block entry, in
            // parallel, before any instruction of the block executes.
            let block = frame.func.block(cur);
            let mut phi_updates: Vec<(InstrId, Value)> = Vec::new();
            for &iid in &block.instrs {
                let instr = frame.func.instr(iid);
                if let Op::Phi { preds } = &instr.op {
                    let p = prev.ok_or_else(|| ierr(format!("{iid}: phi in entry block")))?;
                    let slot = preds
                        .iter()
                        .position(|&b| b == p)
                        .ok_or_else(|| ierr(format!("{iid}: no phi incoming for {p}")))?;
                    phi_updates.push((iid, frame.get(&instr.operands[slot])?));
                } else {
                    break;
                }
            }
            for (iid, v) in phi_updates {
                frame.values[iid.0 as usize] = Some(v);
                self.burn(1)?;
                self.sink.event(TraceEvent::compute(OpClass::IntAlu));
            }

            let instrs: Vec<InstrId> = block.instrs.clone();
            for &iid in &instrs {
                let instr = frame.func.instr(iid).clone();
                if matches!(instr.op, Op::Phi { .. }) {
                    continue;
                }
                self.burn(1)?;
                match &instr.op {
                    Op::Bin(op) => {
                        let a = frame.get(&instr.operands[0])?;
                        let b = frame.get(&instr.operands[1])?;
                        self.sink.event(TraceEvent::compute(classify_bin(*op)));
                        frame.values[iid.0 as usize] = Some(eval_bin(*op, &a, &b)?);
                    }
                    Op::Un(op) => {
                        let a = frame.get(&instr.operands[0])?;
                        let class = match op {
                            UnOp::FNeg => OpClass::FpAdd,
                            UnOp::Relu => OpClass::IntAlu,
                            _ => OpClass::FpSpecial,
                        };
                        self.sink.event(TraceEvent::compute(class));
                        frame.values[iid.0 as usize] = Some(eval_un(*op, &a)?);
                    }
                    Op::Cmp(pred) => {
                        let a = frame.get(&instr.operands[0])?;
                        let b = frame.get(&instr.operands[1])?;
                        self.sink.event(TraceEvent::compute(OpClass::IntAlu));
                        frame.values[iid.0 as usize] = Some(eval_cmp(*pred, &a, &b)?);
                    }
                    Op::Select => {
                        let c = frame.get(&instr.operands[0])?;
                        let a = frame.get(&instr.operands[1])?;
                        let b = frame.get(&instr.operands[2])?;
                        self.sink.event(TraceEvent::compute(OpClass::IntAlu));
                        frame.values[iid.0 as usize] = Some(if want_int(&c)? != 0 { a } else { b });
                    }
                    Op::Cast(op) => {
                        let a = frame.get(&instr.operands[0])?;
                        self.sink.event(TraceEvent::compute(OpClass::IntAlu));
                        let v = match op {
                            CastOp::SiToFp => Value::F32(want_int(&a)? as f32),
                            CastOp::FpToSi => {
                                Value::Int(flat_word(&a, &mut Vec::new())?.want_f32()? as i64)
                            }
                            CastOp::IntResize => a,
                        };
                        frame.values[iid.0 as usize] = Some(v);
                    }
                    Op::Load { obj } => {
                        let idx = want_int(&frame.get(&instr.operands[0])?)?;
                        if idx < 0 {
                            return Err(ierr(format!("{iid}: negative load index")));
                        }
                        let ty = instr.ty.ok_or_else(|| ierr("untyped load"))?;
                        let v = memory.load(*obj, idx as u64, ty)?;
                        for a in (idx as u64..).take(ty.elems() as usize) {
                            self.sink.event(TraceEvent::mem(
                                OpClass::Load,
                                *obj,
                                memory.flat_addr(*obj, a),
                            ));
                        }
                        frame.values[iid.0 as usize] = Some(v);
                    }
                    Op::Store { obj } => {
                        let idx = want_int(&frame.get(&instr.operands[0])?)?;
                        if idx < 0 {
                            return Err(ierr(format!("{iid}: negative store index")));
                        }
                        let v = frame.get(&instr.operands[1])?;
                        let n = memory.store(*obj, idx as u64, &v)?;
                        for a in (idx as u64..).take(n as usize) {
                            self.sink.event(TraceEvent::mem(
                                OpClass::Store,
                                *obj,
                                memory.flat_addr(*obj, a),
                            ));
                        }
                    }
                    Op::Tensor(op, _shape) => {
                        let a = frame.get(&instr.operands[0])?;
                        let b = instr.operands.get(1).map(|o| frame.get(o)).transpose()?;
                        // The CPU has no tensor unit: a tile op costs its
                        // scalar-equivalent mix (§6.6 "compute density").
                        let n = match &a {
                            Value::Tensor { shape, .. } => shape.elems() as u64,
                            _ => 1,
                        };
                        let is_float = matches!(
                            &a,
                            Value::Tensor { data, .. } if matches!(data.first(), Some(Value::F32(_)))
                        );
                        let per = match op {
                            TensorOp::MatMul => 2 * n * (n as f64).sqrt() as u64,
                            TensorOp::Conv => 2 * n,
                            // exp + sum + divide per lane
                            TensorOp::Softmax => 4 * n,
                            _ => n,
                        };
                        for _ in 0..per {
                            self.sink.event(TraceEvent::compute(if is_float {
                                OpClass::FpMul
                            } else {
                                OpClass::IntMul
                            }));
                        }
                        self.burn(per)?;
                        frame.values[iid.0 as usize] = Some(eval_tensor(*op, &a, b.as_ref())?);
                    }
                    Op::Call { callee } => {
                        let target = self
                            .module
                            .functions
                            .get(callee.0 as usize)
                            .ok_or_else(|| ierr(format!("missing callee {callee}")))?;
                        let args = instr
                            .operands
                            .iter()
                            .map(|o| frame.get(o))
                            .collect::<Result<Vec<_>, _>>()?;
                        self.sink.event(TraceEvent::compute(OpClass::Call));
                        let r = self.run_function(target, memory, args)?;
                        if instr.ty.is_some() {
                            frame.values[iid.0 as usize] =
                                Some(r.ok_or_else(|| ierr("void call used as value"))?);
                        }
                    }
                    Op::Br { target } => {
                        self.sink.event(TraceEvent::compute(OpClass::Branch));
                        prev = Some(cur);
                        cur = *target;
                        continue 'blocks;
                    }
                    Op::CondBr { t, f } => {
                        let c = frame.get(&instr.operands[0])?;
                        self.sink.event(TraceEvent::compute(OpClass::Branch));
                        prev = Some(cur);
                        cur = if want_int(&c)? != 0 { *t } else { *f };
                        continue 'blocks;
                    }
                    Op::Ret => {
                        let v = instr.operands.first().map(|o| frame.get(o)).transpose()?;
                        return Ok(ExecEnd::Ret(v));
                    }
                    Op::Detach { body, cont } => {
                        // Serial elision: run the child region to completion,
                        // then continue at the parent's continuation.
                        self.sink.event(TraceEvent::compute(OpClass::Call));
                        match self.exec_from(frame, *body, memory)? {
                            ExecEnd::Reattach => {}
                            ExecEnd::Ret(_) => {
                                return Err(ierr("ret inside detach region"));
                            }
                        }
                        prev = Some(cur);
                        cur = *cont;
                        continue 'blocks;
                    }
                    Op::Reattach { .. } => {
                        return Ok(ExecEnd::Reattach);
                    }
                    Op::Sync { cont } => {
                        self.sink.event(TraceEvent::compute(OpClass::Call));
                        prev = Some(cur);
                        cur = *cont;
                        continue 'blocks;
                    }
                    Op::Phi { .. } => unreachable!("phis handled at block entry"),
                }
            }
            return Err(ierr(format!("block {cur} fell through without terminator")));
        }
    }
}

fn classify_bin(op: BinOp) -> OpClass {
    match op {
        BinOp::Mul => OpClass::IntMul,
        BinOp::Div | BinOp::Rem => OpClass::IntDiv,
        BinOp::FAdd | BinOp::FSub => OpClass::FpAdd,
        BinOp::FMul => OpClass::FpMul,
        BinOp::FDiv => OpClass::FpDiv,
        _ => OpClass::IntAlu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::trace::tests::CountingSink;
    use crate::types::{ScalarType, TensorShape, Type};

    #[test]
    fn straight_line_arithmetic() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", &[Type::I64]).returns(Type::I64);
        let v = b.add(b.arg(0), ValueRef::int(5));
        let w = b.mul(v, ValueRef::int(2));
        b.ret(Some(w));
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        let r = Interp::new(&m)
            .run_main(&mut mem, &[Value::Int(10)])
            .unwrap();
        assert_eq!(r, Some(Value::Int(30)));
    }

    #[test]
    fn loop_sums() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", &[]).returns(Type::I64);
        let accs = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(100),
            1,
            &[(ValueRef::int(0), Type::I64)],
            |b, i, accs| vec![b.add(accs[0], i)],
        );
        b.ret(Some(accs[0]));
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        let r = Interp::new(&m).run_main(&mut mem, &[]).unwrap();
        assert_eq!(r, Some(Value::Int(4950)));
    }

    #[test]
    fn memory_roundtrip_and_trace() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 8);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(8), 1, |b, i| {
            let v = b.load(a, i);
            let w = b.add(v, ValueRef::int(7));
            b.store(a, i, w);
        });
        b.ret(None);
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        mem.init_i64(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut it = Interp::with_sink(&m, CountingSink::new());
        it.run_main(&mut mem, &[]).unwrap();
        let sink = it.into_sink();
        assert_eq!(mem.read_i64(a), vec![8, 9, 10, 11, 12, 13, 14, 15]);
        assert_eq!(sink.loads, 8);
        assert_eq!(sink.stores, 8);
        assert!(sink.branches >= 9);
    }

    #[test]
    fn parallel_for_serial_elision() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 16);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.par_for(0, 16, 1, |b, i| {
            let sq = b.mul(i, i);
            b.store(a, i, sq);
        });
        b.ret(None);
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        Interp::new(&m).run_main(&mut mem, &[]).unwrap();
        let out = mem.read_i64(a);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as i64);
        }
    }

    #[test]
    fn tensor_matmul_tile() {
        let a = Value::Tensor {
            shape: TensorShape::new(2, 2),
            data: vec![
                Value::F32(1.0),
                Value::F32(2.0),
                Value::F32(3.0),
                Value::F32(4.0),
            ],
        };
        let b = Value::Tensor {
            shape: TensorShape::new(2, 2),
            data: vec![
                Value::F32(5.0),
                Value::F32(6.0),
                Value::F32(7.0),
                Value::F32(8.0),
            ],
        };
        let r = eval_tensor(TensorOp::MatMul, &a, Some(&b)).unwrap();
        match r {
            Value::Tensor { data, .. } => {
                assert_eq!(data, [19.0, 22.0, 43.0, 50.0].map(Value::F32));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tensor_reduce_tile() {
        let a = Value::Tensor {
            shape: TensorShape::new(2, 3),
            data: (1..=6).map(|v| Value::F32(v as f32)).collect(),
        };
        let r = eval_tensor(TensorOp::Reduce, &a, None).unwrap();
        assert_eq!(r, Value::F32(21.0));
        let ai = Value::Tensor {
            shape: TensorShape::new(1, 4),
            data: (1..=4).map(Value::Int).collect(),
        };
        assert_eq!(
            eval_tensor(TensorOp::Reduce, &ai, None).unwrap(),
            Value::Int(10)
        );
    }

    #[test]
    fn tensor_softmax_tile() {
        let a = Value::Tensor {
            shape: TensorShape::new(1, 3),
            data: vec![Value::F32(1.0), Value::F32(2.0), Value::F32(3.0)],
        };
        let r = eval_tensor(TensorOp::Softmax, &a, None).unwrap();
        let got = match r {
            Value::Tensor { shape, data } => {
                assert_eq!(shape, TensorShape::new(1, 3));
                let f32_of = |v: &Value| match v {
                    Value::F32(x) => *x,
                    other => panic!("{other:?}"),
                };
                data.iter().map(f32_of).collect::<Vec<_>>()
            }
            other => panic!("{other:?}"),
        };
        let sum: f32 = got.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "softmax lanes must sum to 1, got {sum}"
        );
        assert!(
            got[0] < got[1] && got[1] < got[2],
            "softmax must be monotone: {got:?}"
        );
        // Reference: exp(x)/Σexp computed directly.
        let es: Vec<f32> = [1.0f32, 2.0, 3.0].iter().map(|x| x.exp()).collect();
        let tot: f32 = es.iter().sum();
        for (g, e) in got.iter().zip(es.iter().map(|e| e / tot)) {
            assert!((g - e).abs() < 1e-6, "{g} vs {e}");
        }
    }

    #[test]
    fn tensor_conv_reduces_to_scalar() {
        let a = Value::Tensor {
            shape: TensorShape::new(2, 2),
            data: vec![
                Value::F32(1.0),
                Value::F32(2.0),
                Value::F32(3.0),
                Value::F32(4.0),
            ],
        };
        let w = Value::Tensor {
            shape: TensorShape::new(2, 2),
            data: vec![Value::F32(1.0); 4],
        };
        let r = eval_tensor(TensorOp::Conv, &a, Some(&w)).unwrap();
        assert_eq!(r, Value::F32(10.0));
    }

    #[test]
    fn division_by_zero_reported() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", &[]).returns(Type::I64);
        let v = b.div(ValueRef::int(1), ValueRef::int(0));
        b.ret(Some(v));
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        assert!(Interp::new(&m).run_main(&mut mem, &[]).is_err());
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", &[]);
        let hdr = b.block("spin");
        b.br(hdr);
        b.switch_to(hdr);
        b.br(hdr);
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        let mut it = Interp::new(&m);
        it.fuel = 1000;
        let e = it.run_main(&mut mem, &[]).unwrap_err();
        assert!(e.message.contains("fuel"));
    }

    #[test]
    fn out_of_bounds_reported() {
        let mut m = Module::new("t");
        let a = m.add_mem_object("a", ScalarType::I32, 4);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        let _ = b.load(a, ValueRef::int(99));
        b.ret(None);
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        assert!(Interp::new(&m).run_main(&mut mem, &[]).is_err());
    }

    #[test]
    fn call_and_return_value() {
        let mut m = Module::new("t");
        // main is function 0, callee is function 1.
        let mut callee = FunctionBuilder::new("sq", &[Type::I64]).returns(Type::I64);
        let v = callee.mul(callee.arg(0), callee.arg(0));
        callee.ret(Some(v));
        let mut main = FunctionBuilder::new("main", &[]).returns(Type::I64);
        let r = main.call(
            crate::instr::FuncId(1),
            &[ValueRef::int(9)],
            Some(Type::I64),
        );
        main.ret(Some(r));
        m.add_function(main.finish());
        m.add_function(callee.finish());
        let mut mem = Memory::from_module(&m);
        let r = Interp::new(&m).run_main(&mut mem, &[]).unwrap();
        assert_eq!(r, Some(Value::Int(81)));
    }

    #[test]
    fn select_and_compare() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", &[Type::I64]).returns(Type::I64);
        let c = b.icmp(CmpPred::Lt, b.arg(0), ValueRef::int(0));
        let neg = b.sub(ValueRef::int(0), b.arg(0));
        let abs = b.select(c, neg, b.arg(0));
        b.ret(Some(abs));
        m.add_function(b.finish());
        let mut mem = Memory::from_module(&m);
        let r = Interp::new(&m)
            .run_main(&mut mem, &[Value::Int(-7)])
            .unwrap();
        assert_eq!(r, Some(Value::Int(7)));
        let r = Interp::new(&m)
            .run_main(&mut mem, &[Value::Int(7)])
            .unwrap();
        assert_eq!(r, Some(Value::Int(7)));
    }
}
