//! Structural verification of functions and modules.

use crate::instr::{BlockId, Op, ValueRef};
use crate::module::{Function, MemObject, Module};
use std::fmt;

/// A structural verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function the error was found in.
    pub function: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verification failed in `{}`: {}",
            self.function, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

fn err(function: &str, message: impl Into<String>) -> VerifyError {
    VerifyError {
        function: function.to_string(),
        message: message.into(),
    }
}

/// The operand counts `op` accepts, inclusive; `None` where another check
/// fixes the count (a φ against its incoming blocks, a call against its
/// callee) or any count goes (a detach's forwarded live-ins).
fn operand_counts(op: &Op) -> Option<(usize, usize)> {
    Some(match op {
        Op::Un(_) | Op::Cast(_) | Op::Load { .. } | Op::CondBr { .. } => (1, 1),
        Op::Bin(_) | Op::Cmp(_) | Op::Store { .. } => (2, 2),
        Op::Select => (3, 3),
        Op::Tensor(t, _) if t.is_unary() => (1, 1),
        Op::Tensor(..) => (2, 2),
        Op::Ret => (0, 1),
        Op::Br { .. } | Op::Reattach { .. } | Op::Sync { .. } => (0, 0),
        Op::Phi { .. } | Op::Call { .. } | Op::Detach { .. } => return None,
    })
}

/// Verify one function against the module's memory objects.
///
/// Checks: every block ends in exactly one terminator (and only the last
/// instruction is a terminator); branch targets are in range; every op has
/// the operand count it takes; operand references are in range; φ nodes
/// have at least one incoming value, matching pred/operand arity, and only
/// reference CFG predecessors; loads/stores reference existing memory
/// objects (a module without objects has none to reference); stores never
/// write read-only objects.
///
/// # Errors
/// Returns the first problem found.
pub fn verify_function(f: &Function, mem_objects: &[MemObject]) -> Result<(), VerifyError> {
    let nblocks = f.blocks.len() as u32;
    if f.entry.0 >= nblocks {
        return Err(err(&f.name, "entry block out of range"));
    }
    let preds = f.predecessors();
    for (bi, block) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        if block.instrs.is_empty() {
            return Err(err(&f.name, format!("{bid} ({}) is empty", block.name)));
        }
        for (pos, &iid) in block.instrs.iter().enumerate() {
            let instr = f.instr(iid);
            if instr.block != bid {
                return Err(err(&f.name, format!("{iid} block back-pointer mismatch")));
            }
            let is_last = pos + 1 == block.instrs.len();
            if instr.is_terminator() != is_last {
                return Err(err(
                    &f.name,
                    format!(
                        "{bid}: terminator placement wrong at {iid} ({})",
                        instr.op.mnemonic()
                    ),
                ));
            }
            for s in instr.op.successors() {
                if s.0 >= nblocks {
                    return Err(err(&f.name, format!("{iid} branches to missing {s}")));
                }
            }
            if let Some((lo, hi)) = operand_counts(&instr.op) {
                let n = instr.operands.len();
                if n < lo || n > hi {
                    return Err(err(
                        &f.name,
                        format!(
                            "{iid}: {} takes {lo}..={hi} operands, has {n}",
                            instr.op.mnemonic()
                        ),
                    ));
                }
            }
            for opnd in &instr.operands {
                match opnd {
                    ValueRef::Instr(i) => {
                        if i.0 as usize >= f.instrs.len() {
                            return Err(err(&f.name, format!("{iid} references missing {i}")));
                        }
                        if f.instr(*i).ty.is_none() {
                            return Err(err(
                                &f.name,
                                format!("{iid} uses valueless instruction {i}"),
                            ));
                        }
                    }
                    ValueRef::Arg(n) => {
                        if *n as usize >= f.params.len() {
                            return Err(err(&f.name, format!("{iid} uses missing arg {n}")));
                        }
                    }
                    ValueRef::Const(_) => {}
                }
            }
            match &instr.op {
                Op::Phi { preds: phi_preds } => {
                    if phi_preds.len() != instr.operands.len() {
                        return Err(err(&f.name, format!("{iid}: phi arity mismatch")));
                    }
                    if phi_preds.is_empty() {
                        return Err(err(&f.name, format!("{iid}: phi has no incoming values")));
                    }
                    for p in phi_preds {
                        if !preds.of(bid).contains(p) {
                            return Err(err(
                                &f.name,
                                format!("{iid}: phi incoming {p} is not a predecessor of {bid}"),
                            ));
                        }
                    }
                }
                Op::Load { obj } | Op::Store { obj } => {
                    if obj.0 as usize >= mem_objects.len() {
                        return Err(err(&f.name, format!("{iid}: missing memory object {obj}")));
                    }
                    if let Op::Store { obj } = &instr.op {
                        if let Some(o) = mem_objects.get(obj.0 as usize) {
                            if o.read_only {
                                return Err(err(
                                    &f.name,
                                    format!("{iid}: store to read-only object `{}`", o.name),
                                ));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Verify every function of a module.
///
/// # Errors
/// Returns the first problem found in any function; also checks that call
/// targets exist and have matching arity.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for f in &m.functions {
        verify_function(f, &m.mem_objects)?;
        for instr in &f.instrs {
            if let Op::Call { callee } = &instr.op {
                let Some(target) = m.functions.get(callee.0 as usize) else {
                    return Err(err(&f.name, format!("call to missing function {callee}")));
                };
                if target.params.len() != instr.operands.len() {
                    return Err(err(
                        &f.name,
                        format!(
                            "call to `{}` passes {} args, expects {}",
                            target.name,
                            instr.operands.len(),
                            target.params.len()
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::{BinOp, Instr};
    use crate::types::{ScalarType, Type};

    #[test]
    fn good_function_passes() {
        let mut b = FunctionBuilder::new("ok", &[Type::I64]);
        let v = b.add(b.arg(0), ValueRef::int(1));
        b.ret(Some(v));
        assert!(verify_function(&b.finish(), &[]).is_ok());
    }

    #[test]
    fn missing_terminator_caught() {
        let mut b = FunctionBuilder::new("bad", &[]);
        b.add(ValueRef::int(1), ValueRef::int(2));
        let f = b.finish();
        let e = verify_function(&f, &[]).unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn dangling_branch_caught() {
        let mut b = FunctionBuilder::new("bad", &[]);
        b.push(
            Op::Br {
                target: BlockId(99),
            },
            None,
            vec![],
        );
        let f = b.finish();
        assert!(verify_function(&f, &[]).is_err());
    }

    #[test]
    fn bad_operand_caught() {
        let mut b = FunctionBuilder::new("bad", &[]);
        b.push(
            Op::Bin(BinOp::Add),
            Some(Type::I64),
            vec![ValueRef::Instr(crate::instr::InstrId(42)), ValueRef::int(0)],
        );
        b.ret(None);
        assert!(verify_function(&b.finish(), &[]).is_err());
    }

    #[test]
    fn store_to_read_only_caught() {
        let mut m = Module::new("ro");
        let obj = m.add_ro_mem_object("w", ScalarType::F32, 4);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.store(obj, ValueRef::int(0), ValueRef::f32(1.0));
        b.ret(None);
        m.add_function(b.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("read-only"), "{e}");
    }

    #[test]
    fn memory_reference_checked_without_objects() {
        let mut b = FunctionBuilder::new("main", &[]);
        b.push(
            Op::Load {
                obj: crate::instr::MemObjId(0),
            },
            Some(Type::F32),
            vec![ValueRef::int(0)],
        );
        b.ret(None);
        let e = verify_function(&b.finish(), &[]).unwrap_err();
        assert!(e.message.contains("missing memory object @mem0"), "{e}");
    }

    #[test]
    fn operand_counts_checked() {
        let mut b = FunctionBuilder::new("bad", &[]);
        b.push(Op::Bin(BinOp::Add), Some(Type::I64), vec![ValueRef::int(1)]);
        b.ret(None);
        let e = verify_function(&b.finish(), &[]).unwrap_err();
        assert!(e.message.contains("add takes 2..=2 operands, has 1"), "{e}");
        let mut b = FunctionBuilder::new("bad", &[]);
        b.push(Op::Ret, None, vec![ValueRef::int(1), ValueRef::int(2)]);
        assert!(verify_function(&b.finish(), &[]).is_err());
        let mut b = FunctionBuilder::new("bad", &[]);
        b.push(Op::Phi { preds: vec![] }, Some(Type::I64), vec![]);
        b.ret(None);
        let e = verify_function(&b.finish(), &[]).unwrap_err();
        assert!(e.message.contains("no incoming"), "{e}");
    }

    #[test]
    fn call_arity_checked() {
        let mut m = Module::new("calls");
        let mut callee = FunctionBuilder::new("callee", &[Type::I64]);
        callee.ret(None);
        let mut main = FunctionBuilder::new("main", &[]);
        // Call with zero args to a 1-arg function. Callee gets id 1 (added second).
        main.call(crate::instr::FuncId(1), &[], None);
        main.ret(None);
        m.add_function(main.finish());
        m.add_function(callee.finish());
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("args"), "{e}");
    }

    #[test]
    fn phi_pred_mismatch_caught() {
        let mut b = FunctionBuilder::new("bad_phi", &[]);
        let bb = b.block("next");
        b.br(bb);
        b.switch_to(bb);
        // φ claiming an incoming edge from bb itself, which is not a pred.
        b.push(
            Op::Phi { preds: vec![bb] },
            Some(Type::I64),
            vec![ValueRef::int(0)],
        );
        b.ret(None);
        let e = verify_function(&b.finish(), &[]).unwrap_err();
        assert!(e.message.contains("predecessor"), "{e}");
    }

    #[test]
    fn block_backpointer_checked() {
        let mut b = FunctionBuilder::new("bp", &[]);
        b.ret(None);
        let mut f = b.finish();
        // Corrupt the back-pointer.
        let id = f.blocks[0].instrs[0];
        let wrong = Instr {
            block: BlockId(7),
            ..f.instr(id).clone()
        };
        f.instrs[id.0 as usize] = wrong;
        assert!(verify_function(&f, &[]).is_err());
    }
}
