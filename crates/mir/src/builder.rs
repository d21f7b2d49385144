//! Ergonomic construction of [`Function`]s.
//!
//! The builder keeps a *current block* cursor, offers one method per opcode,
//! and provides structured helpers (`for_loop`, `for_loop_acc`, `par_for`,
//! `if_val`) that emit the canonical CFG shapes the front-end's task
//! extraction recognises (natural loops, Tapir detach regions).

use crate::instr::{
    BinOp, BlockId, CastOp, CmpPred, FuncId, Instr, InstrId, MemObjId, Op, Operands, TensorOp,
    UnOp, ValueRef,
};
use crate::module::{Block, Function, Module};
use crate::types::{ScalarType, TensorShape, Type};
use std::borrow::Cow;

/// Builder for a single [`Function`].
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
    /// Element types of the module's memory objects, captured by
    /// [`FunctionBuilder::with_mem`] so `load`/`store` can infer types.
    mem_elems: Vec<ScalarType>,
    /// Header block of the most recently completed structured loop.
    last_loop_header: Option<BlockId>,
}

impl FunctionBuilder {
    /// Start building a function with the given parameter types. An entry
    /// block is created and selected.
    pub fn new(name: impl Into<String>, params: &[Type]) -> Self {
        let entry = Block::new("entry");
        FunctionBuilder {
            func: Function {
                name: name.into(),
                params: params.to_vec(),
                ret: None,
                instrs: Vec::new(),
                blocks: vec![entry],
                entry: BlockId(0),
                parallel_hints: Vec::new(),
            },
            cur: BlockId(0),
            mem_elems: Vec::new(),
            last_loop_header: None,
        }
    }

    /// Capture the module's memory-object element types so that typed
    /// `load`/`store` emitters can infer their result types.
    pub fn with_mem(mut self, module: &Module) -> Self {
        self.mem_elems = module.mem_objects.iter().map(|o| o.elem).collect();
        self
    }

    /// Declare the function's return type.
    pub fn returns(mut self, ty: Type) -> Self {
        self.func.ret = Some(ty);
        self
    }

    /// Reference to the `n`-th argument.
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    pub fn arg(&self, n: u32) -> ValueRef {
        assert!(
            (n as usize) < self.func.params.len(),
            "argument {n} out of range for {}",
            self.func.name
        );
        ValueRef::Arg(n)
    }

    /// Create a new (unselected) block.
    pub fn block(&mut self, name: impl Into<Cow<'static, str>>) -> BlockId {
        let id = BlockId(self.func.blocks.len() as u32);
        self.func.blocks.push(Block::new(name));
        id
    }

    /// Select the block new instructions are appended to.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
    }

    /// Append a raw instruction to the current block and return a reference
    /// to its result.
    pub fn push(&mut self, op: Op, ty: Option<Type>, operands: impl Into<Operands>) -> ValueRef {
        let id = InstrId(self.func.instrs.len() as u32);
        self.func.instrs.push(Instr {
            op,
            ty,
            operands: operands.into(),
            block: self.cur,
        });
        self.func.blocks[self.cur.0 as usize].instrs.push(id);
        ValueRef::Instr(id)
    }

    fn infer(&self, v: ValueRef) -> Option<Type> {
        match v {
            ValueRef::Instr(id) => self.func.instr(id).ty,
            ValueRef::Arg(n) => self.func.params.get(n as usize).copied(),
            ValueRef::Const(_) => None,
        }
    }

    fn bin_ty(&self, op: BinOp, a: ValueRef, b: ValueRef) -> Type {
        self.infer(a)
            .or_else(|| self.infer(b))
            .unwrap_or(if op.is_float() { Type::F32 } else { Type::I64 })
    }

    /// Emit a binary op; the result type is inferred from the operands.
    pub(crate) fn bin(&mut self, op: BinOp, a: ValueRef, b: ValueRef) -> ValueRef {
        let ty = self.bin_ty(op, a, b);
        self.push(Op::Bin(op), Some(ty), [a, b])
    }

    /// Integer add.
    pub fn add(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Add, a, b)
    }
    /// Integer subtract.
    pub fn sub(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Sub, a, b)
    }
    /// Integer multiply.
    pub fn mul(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Mul, a, b)
    }
    /// Integer divide.
    pub fn div(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Div, a, b)
    }
    /// Integer remainder.
    pub fn rem(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Rem, a, b)
    }
    /// Bitwise and.
    pub fn and(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::And, a, b)
    }
    /// Bitwise or.
    pub fn or(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Or, a, b)
    }
    /// Bitwise xor.
    pub fn xor(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Xor, a, b)
    }
    /// Shift left.
    pub fn shl(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::Shl, a, b)
    }
    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::AShr, a, b)
    }
    /// Float add.
    pub fn fadd(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::FAdd, a, b)
    }
    /// Float subtract.
    pub fn fsub(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::FSub, a, b)
    }
    /// Float multiply.
    pub fn fmul(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::FMul, a, b)
    }
    /// Float divide.
    pub fn fdiv(&mut self, a: ValueRef, b: ValueRef) -> ValueRef {
        self.bin(BinOp::FDiv, a, b)
    }

    /// Unary math op.
    pub(crate) fn un(&mut self, op: UnOp, a: ValueRef) -> ValueRef {
        let ty = self.infer(a).unwrap_or(Type::F32);
        self.push(Op::Un(op), Some(ty), [a])
    }
    /// e^x.
    pub fn exp(&mut self, a: ValueRef) -> ValueRef {
        self.un(UnOp::Exp, a)
    }
    /// Scalar ReLU.
    pub fn relu(&mut self, a: ValueRef) -> ValueRef {
        self.un(UnOp::Relu, a)
    }

    /// Comparison producing an `i1`.
    pub fn icmp(&mut self, pred: CmpPred, a: ValueRef, b: ValueRef) -> ValueRef {
        self.push(Op::Cmp(pred), Some(Type::BOOL), [a, b])
    }

    /// `select cond, a, b`.
    pub fn select(&mut self, cond: ValueRef, a: ValueRef, b: ValueRef) -> ValueRef {
        let ty = self.infer(a).or_else(|| self.infer(b)).unwrap_or(Type::I64);
        self.push(Op::Select, Some(ty), [cond, a, b])
    }

    /// Signed int → float cast.
    pub fn sitofp(&mut self, a: ValueRef) -> ValueRef {
        self.push(Op::Cast(CastOp::SiToFp), Some(Type::F32), [a])
    }

    /// Float → signed int cast.
    pub fn fptosi(&mut self, a: ValueRef) -> ValueRef {
        self.push(Op::Cast(CastOp::FpToSi), Some(Type::I64), [a])
    }

    fn mem_elem(&self, obj: MemObjId) -> ScalarType {
        *self
            .mem_elems
            .get(obj.0 as usize)
            .unwrap_or_else(|| panic!("memory object {obj} not bound; call with_mem(&module)"))
    }

    /// Scalar load from a memory object at element index `idx`.
    ///
    /// # Panics
    /// Panics if the builder was not bound to the module with
    /// [`FunctionBuilder::with_mem`].
    pub fn load(&mut self, obj: MemObjId, idx: ValueRef) -> ValueRef {
        let ty = Type::Scalar(self.mem_elem(obj));
        self.push(Op::Load { obj }, Some(ty), [idx])
    }

    /// Vector load of `lanes` consecutive elements.
    pub fn load_vec(&mut self, obj: MemObjId, idx: ValueRef, lanes: u8) -> ValueRef {
        let ty = Type::Vector {
            elem: self.mem_elem(obj),
            lanes,
        };
        self.push(Op::Load { obj }, Some(ty), [idx])
    }

    /// Tensor-tile load of `shape` consecutive elements (row-major).
    pub fn load_tile(&mut self, obj: MemObjId, idx: ValueRef, shape: TensorShape) -> ValueRef {
        let ty = Type::Tensor {
            elem: self.mem_elem(obj),
            shape,
        };
        self.push(Op::Load { obj }, Some(ty), [idx])
    }

    /// Store `value` (scalar, vector, or tensor) at element index `idx`.
    pub fn store(&mut self, obj: MemObjId, idx: ValueRef, value: ValueRef) {
        self.push(Op::Store { obj }, None, [idx, value]);
    }

    /// Tensor binary op over two tile values. `TensorOp::Conv` reduces the
    /// element-wise product to a scalar (a window dot-product); all other
    /// ops produce a tile of the same shape.
    pub fn tensor2(
        &mut self,
        op: TensorOp,
        shape: TensorShape,
        a: ValueRef,
        b: ValueRef,
    ) -> ValueRef {
        let elem = self.infer(a).map(|t| t.elem()).unwrap_or(ScalarType::F32);
        let ty = if op.reduces_to_scalar() {
            Type::Scalar(elem)
        } else {
            Type::Tensor { elem, shape }
        };
        self.push(Op::Tensor(op, shape), Some(ty), [a, b])
    }

    /// Tensor unary op over one tile value. `Reduce` yields a scalar;
    /// `Softmax` always yields F32 lanes (it routes through the exp unit).
    pub fn tensor1(&mut self, op: TensorOp, shape: TensorShape, a: ValueRef) -> ValueRef {
        let elem = self.infer(a).map(|t| t.elem()).unwrap_or(ScalarType::F32);
        let ty = if op.reduces_to_scalar() {
            Type::Scalar(elem)
        } else if op == TensorOp::Softmax {
            Type::Tensor {
                elem: ScalarType::F32,
                shape,
            }
        } else {
            Type::Tensor { elem, shape }
        };
        self.push(Op::Tensor(op, shape), Some(ty), [a])
    }

    /// Call another function.
    pub fn call(&mut self, callee: FuncId, args: &[ValueRef], ret: Option<Type>) -> ValueRef {
        self.push(
            Op::Call { callee },
            ret,
            args.iter().copied().collect::<Operands>(),
        )
    }

    /// SSA φ over `(value, predecessor)` pairs.
    pub fn phi(&mut self, ty: Type, incoming: &[(ValueRef, BlockId)]) -> ValueRef {
        let preds = incoming.iter().map(|(_, b)| *b).collect();
        let operands: Operands = incoming.iter().map(|(v, _)| *v).collect();
        self.push(Op::Phi { preds }, Some(ty), operands)
    }

    /// Unconditional branch terminator.
    pub fn br(&mut self, target: BlockId) {
        self.push(Op::Br { target }, None, Operands::new());
    }

    /// Conditional branch terminator.
    pub fn cond_br(&mut self, cond: ValueRef, t: BlockId, f: BlockId) {
        self.push(Op::CondBr { t, f }, None, [cond]);
    }

    /// Return terminator.
    pub fn ret(&mut self, value: Option<ValueRef>) {
        self.push(Op::Ret, None, value.into_iter().collect::<Operands>());
    }

    /// Tapir detach terminator.
    pub(crate) fn detach(&mut self, body: BlockId, cont: BlockId) {
        self.push(Op::Detach { body, cont }, None, Operands::new());
    }

    /// Tapir reattach terminator.
    pub(crate) fn reattach(&mut self, cont: BlockId) {
        self.push(Op::Reattach { cont }, None, Operands::new());
    }

    /// Tapir sync terminator.
    pub(crate) fn sync(&mut self, cont: BlockId) {
        self.push(Op::Sync { cont }, None, Operands::new());
    }

    /// Structured sequential counted loop: `for (i = lo; i < hi; i += step)`.
    /// The closure receives the induction variable.
    pub fn for_loop<F>(&mut self, lo: i64, hi: ValueRef, step: i64, body: F)
    where
        F: FnOnce(&mut Self, ValueRef),
    {
        self.for_loop_acc(ValueRef::int(lo), hi, step, &[], |b, i, _| {
            body(b, i);
            vec![]
        });
    }

    /// Structured sequential loop with loop-carried accumulators.
    ///
    /// `inits` gives the initial `(value, type)` of each accumulator; the
    /// closure receives the induction variable and the current accumulator
    /// values, and must return the next accumulator values. Returns the
    /// final accumulator values (valid after the loop).
    pub fn for_loop_acc<F>(
        &mut self,
        lo: ValueRef,
        hi: ValueRef,
        step: i64,
        inits: &[(ValueRef, Type)],
        body: F,
    ) -> Vec<ValueRef>
    where
        F: FnOnce(&mut Self, ValueRef, &[ValueRef]) -> Vec<ValueRef>,
    {
        let pre = self.cur;
        let header = self.block("loop.header");
        let body_bb = self.block("loop.body");
        let exit = self.block("loop.exit");
        self.br(header);

        // Header: φ for i and each accumulator. The latch incoming is patched
        // after the body is built (we don't know the latch block yet).
        self.switch_to(header);
        let i_phi = self.phi(Type::I64, &[(lo, pre), (lo, pre)]);
        let acc_phis: Vec<ValueRef> = inits
            .iter()
            .map(|(v, ty)| self.phi(*ty, &[(*v, pre), (*v, pre)]))
            .collect();
        let cond = self.icmp(CmpPred::Lt, i_phi, hi);
        self.cond_br(cond, body_bb, exit);

        // Body.
        self.switch_to(body_bb);
        let next_accs = body(self, i_phi, &acc_phis);
        assert_eq!(
            next_accs.len(),
            inits.len(),
            "loop body must return one next-value per accumulator"
        );
        let i_next = self.add(i_phi, ValueRef::int(step));
        let latch = self.cur;
        self.br(header);

        // Patch φ latch incoming.
        self.patch_phi(i_phi, 1, i_next, latch);
        for (phi, next) in acc_phis.iter().zip(next_accs) {
            self.patch_phi(*phi, 1, next, latch);
        }

        self.switch_to(exit);
        self.last_loop_header = Some(header);
        acc_phis
    }

    /// [`FunctionBuilder::for_loop`] with a programmer assertion that the
    /// iterations are independent (the HLS `#pragma parallel` equivalent);
    /// the dependence analysis will not serialize the loop's pipeline.
    pub fn for_loop_par<F>(&mut self, lo: i64, hi: ValueRef, step: i64, body: F)
    where
        F: FnOnce(&mut Self, ValueRef),
    {
        self.for_loop(lo, hi, step, body);
        let header = self.last_loop_header.expect("loop header recorded");
        self.func.parallel_hints.push(header);
    }

    fn patch_phi(&mut self, phi: ValueRef, slot: usize, value: ValueRef, pred: BlockId) {
        let id = phi.as_instr().expect("phi reference");
        let instr = self.func.instr_mut(id);
        instr.operands[slot] = value;
        if let Op::Phi { preds } = &mut instr.op {
            preds[slot] = pred;
        } else {
            panic!("patch_phi on non-phi instruction");
        }
    }

    /// Structured Cilk `parallel_for`: each iteration is detached as a task
    /// (Tapir detach/reattach, closed by a sync), matching the paper's
    /// Figure 4 lowering.
    pub fn par_for<F>(&mut self, lo: i64, hi: i64, step: i64, body: F)
    where
        F: FnOnce(&mut Self, ValueRef),
    {
        self.par_for_dyn(ValueRef::int(lo), ValueRef::int(hi), step, body);
    }

    /// `par_for` with dynamic bounds.
    pub fn par_for_dyn<F>(&mut self, lo: ValueRef, hi: ValueRef, step: i64, body: F)
    where
        F: FnOnce(&mut Self, ValueRef),
    {
        let pre = self.cur;
        let header = self.block("pfor.header");
        let det = self.block("pfor.detach");
        let task = self.block("pfor.task");
        let cont = self.block("pfor.cont");
        let syncb = self.block("pfor.sync");
        let exit = self.block("pfor.exit");
        self.br(header);

        self.switch_to(header);
        let i_phi = self.phi(Type::I64, &[(lo, pre), (lo, pre)]);
        let cond = self.icmp(CmpPred::Lt, i_phi, hi);
        self.cond_br(cond, det, syncb);

        self.switch_to(det);
        self.detach(task, cont);

        self.switch_to(task);
        body(self, i_phi);
        // The closure may have moved the cursor; reattach from wherever the
        // task region's control ends.
        self.reattach(cont);

        self.switch_to(cont);
        let i_next = self.add(i_phi, ValueRef::int(step));
        let latch = self.cur;
        self.br(header);
        self.patch_phi(i_phi, 1, i_next, latch);

        self.switch_to(syncb);
        self.sync(exit);
        self.switch_to(exit);
    }

    /// Structured if/else producing merged values: builds `then`/`else`
    /// blocks, runs the closures, and returns φ-merged results.
    pub fn if_val<FT, FE>(
        &mut self,
        cond: ValueRef,
        tys: &[Type],
        then_f: FT,
        else_f: FE,
    ) -> Vec<ValueRef>
    where
        FT: FnOnce(&mut Self) -> Vec<ValueRef>,
        FE: FnOnce(&mut Self) -> Vec<ValueRef>,
    {
        let then_bb = self.block("if.then");
        let else_bb = self.block("if.else");
        let merge = self.block("if.merge");
        self.cond_br(cond, then_bb, else_bb);

        self.switch_to(then_bb);
        let tv = then_f(self);
        let then_end = self.cur;
        self.br(merge);

        self.switch_to(else_bb);
        let ev = else_f(self);
        let else_end = self.cur;
        self.br(merge);

        assert_eq!(tv.len(), tys.len(), "then branch value count mismatch");
        assert_eq!(ev.len(), tys.len(), "else branch value count mismatch");

        self.switch_to(merge);
        tys.iter()
            .zip(tv.iter().zip(ev.iter()))
            .map(|(ty, (t, e))| self.phi(*ty, &[(*t, then_end), (*e, else_end)]))
            .collect()
    }

    /// Structured if (no else, no values).
    pub fn if_then<FT>(&mut self, cond: ValueRef, then_f: FT)
    where
        FT: FnOnce(&mut Self),
    {
        let then_bb = self.block("if.then");
        let merge = self.block("if.merge");
        self.cond_br(cond, then_bb, merge);
        self.switch_to(then_bb);
        then_f(self);
        self.br(merge);
        self.switch_to(merge);
    }

    /// Finish and return the built function.
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_function;

    #[test]
    fn straight_line() {
        let mut b = FunctionBuilder::new("f", &[Type::I64, Type::I64]);
        let x = b.arg(0);
        let y = b.arg(1);
        let s = b.add(x, y);
        let p = b.mul(s, ValueRef::int(3));
        b.ret(Some(p));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.instrs.len(), 3);
        verify_function(&f, &[]).unwrap();
    }

    #[test]
    fn counted_loop_shape() {
        let mut b = FunctionBuilder::new("loop", &[]);
        b.for_loop(0, ValueRef::int(10), 1, |b, i| {
            let _ = b.add(i, ValueRef::int(1));
        });
        b.ret(None);
        let f = b.finish();
        // pre + header + body + exit
        assert_eq!(f.blocks.len(), 4);
        verify_function(&f, &[]).unwrap();
    }

    #[test]
    fn loop_accumulator_patched() {
        let mut b = FunctionBuilder::new("sum", &[]).returns(Type::I64);
        let accs = b.for_loop_acc(
            ValueRef::int(0),
            ValueRef::int(10),
            1,
            &[(ValueRef::int(0), Type::I64)],
            |b, i, accs| vec![b.add(accs[0], i)],
        );
        b.ret(Some(accs[0]));
        let f = b.finish();
        verify_function(&f, &[]).unwrap();
        // The accumulator φ must reference the add in its latch slot.
        let phi = f.instr(accs[0].as_instr().unwrap());
        assert!(matches!(phi.op, Op::Phi { .. }));
        assert!(phi.operands[1].as_instr().is_some());
    }

    #[test]
    fn par_for_emits_tapir() {
        let mut b = FunctionBuilder::new("pf", &[]);
        b.par_for(0, 8, 1, |b, i| {
            let _ = b.mul(i, i);
        });
        b.ret(None);
        let f = b.finish();
        let ops: Vec<String> = f.instrs.iter().map(|i| i.op.mnemonic()).collect();
        assert!(ops.iter().any(|o| o == "detach"));
        assert!(ops.iter().any(|o| o == "reattach"));
        assert!(ops.iter().any(|o| o == "sync"));
        verify_function(&f, &[]).unwrap();
    }

    #[test]
    fn if_val_merges() {
        let mut b = FunctionBuilder::new("sel", &[Type::I64]).returns(Type::I64);
        let x = b.arg(0);
        let c = b.icmp(CmpPred::Lt, x, ValueRef::int(0));
        let m = b.if_val(
            c,
            &[Type::I64],
            |b| vec![b.sub(ValueRef::int(0), ValueRef::Arg(0))],
            |_| vec![ValueRef::Arg(0)],
        );
        b.ret(Some(m[0]));
        let f = b.finish();
        verify_function(&f, &[]).unwrap();
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    #[should_panic]
    fn arg_out_of_range() {
        let b = FunctionBuilder::new("f", &[Type::I64]);
        b.arg(1);
    }
}
