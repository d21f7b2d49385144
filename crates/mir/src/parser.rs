//! Parser for the textual form produced by [`crate::printer`].
//!
//! Together with the printer this gives the compiler IR a durable on-disk
//! representation: programs can be dumped, diffed, hand-edited, and read
//! back. Instruction numbering is normalised on parse (valueless
//! instructions get fresh ids), so `print ∘ parse` is idempotent after one
//! round trip — see the round-trip tests in `tests/ir_roundtrip.rs`.

use crate::instr::{
    BinOp, BlockId, CastOp, CmpPred, ConstVal, FuncId, Instr, InstrId, MemObjId, Op, Operands,
    PhiPreds, TensorOp, UnOp, ValueRef,
};
use crate::module::{Block, Function, Module};
use crate::types::{ScalarType, TensorShape, Type};
use std::collections::HashMap;
use std::fmt;

/// Parse failure with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn perr(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Split `s` around its first `open` and the first `close` after it:
/// `(before, inside, after)`.
fn bracketed(
    s: &str,
    open: char,
    close: char,
    line: usize,
) -> Result<(&str, &str, &str), ParseError> {
    let (before, rest) = s
        .split_once(open)
        .ok_or_else(|| perr(line, format!("missing {open}")))?;
    let (inside, after) = rest
        .split_once(close)
        .ok_or_else(|| perr(line, format!("missing {close} after {open}")))?;
    Ok((before, inside, after))
}

/// A `RxC` tile shape; both dimensions must be nonzero.
fn parse_shape(r: &str, c: &str, line: usize) -> Result<TensorShape, ParseError> {
    let rows: u8 = r
        .trim()
        .parse()
        .map_err(|_| perr(line, "bad tensor rows"))?;
    let cols: u8 = c
        .trim()
        .parse()
        .map_err(|_| perr(line, "bad tensor cols"))?;
    if rows == 0 || cols == 0 {
        return Err(perr(line, "tensor shape dimensions must be nonzero"));
    }
    Ok(TensorShape::new(rows, cols))
}

fn parse_scalar_type(s: &str, line: usize) -> Result<ScalarType, ParseError> {
    match s {
        "i1" => Ok(ScalarType::I1),
        "i8" => Ok(ScalarType::I8),
        "i32" => Ok(ScalarType::I32),
        "i64" => Ok(ScalarType::I64),
        "f32" => Ok(ScalarType::F32),
        other => Err(perr(line, format!("unknown scalar type `{other}`"))),
    }
}

fn parse_type(s: &str, line: usize) -> Result<Type, ParseError> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix("tensor<") {
        let inner = rest
            .strip_suffix('>')
            .ok_or_else(|| perr(line, "unterminated tensor type"))?;
        let (shape, elem) = inner
            .split_once(" x ")
            .ok_or_else(|| perr(line, "malformed tensor type"))?;
        let (r, c) = shape
            .split_once('x')
            .ok_or_else(|| perr(line, "malformed tensor shape"))?;
        return Ok(Type::Tensor {
            elem: parse_scalar_type(elem.trim(), line)?,
            shape: parse_shape(r, c, line)?,
        });
    }
    if let Some(rest) = s.strip_prefix('<') {
        let inner = rest
            .strip_suffix('>')
            .ok_or_else(|| perr(line, "unterminated vector type"))?;
        let (lanes, elem) = inner
            .split_once(" x ")
            .ok_or_else(|| perr(line, "malformed vector type"))?;
        return Ok(Type::Vector {
            elem: parse_scalar_type(elem.trim(), line)?,
            lanes: lanes
                .trim()
                .parse()
                .map_err(|_| perr(line, "bad lane count"))?,
        });
    }
    Ok(Type::Scalar(parse_scalar_type(s, line)?))
}

fn parse_value(s: &str, line: usize) -> Result<ValueRef, ParseError> {
    let s = s.trim();
    if let Some(n) = s.strip_prefix("%arg") {
        return Ok(ValueRef::Arg(
            n.parse().map_err(|_| perr(line, "bad arg index"))?,
        ));
    }
    if let Some(n) = s.strip_prefix('%') {
        return Ok(ValueRef::Instr(InstrId(
            n.parse().map_err(|_| perr(line, "bad instruction id"))?,
        )));
    }
    if s == "true" {
        return Ok(ValueRef::Const(ConstVal::Bool(true)));
    }
    if s == "false" {
        return Ok(ValueRef::Const(ConstVal::Bool(false)));
    }
    if s.contains('.') || s.contains("inf") || s.contains("NaN") {
        return Ok(ValueRef::Const(ConstVal::F32(
            s.parse()
                .map_err(|_| perr(line, format!("bad float `{s}`")))?,
        )));
    }
    Ok(ValueRef::Const(ConstVal::Int(
        s.parse()
            .map_err(|_| perr(line, format!("bad integer `{s}`")))?,
    )))
}

fn parse_block_ref(s: &str, line: usize) -> Result<BlockId, ParseError> {
    s.trim()
        .strip_prefix("bb")
        .and_then(|n| n.parse().ok())
        .map(BlockId)
        .ok_or_else(|| perr(line, format!("bad block reference `{s}`")))
}

fn parse_mem_ref(s: &str, line: usize) -> Result<MemObjId, ParseError> {
    s.trim()
        .strip_prefix("@mem")
        .and_then(|n| n.parse().ok())
        .map(MemObjId)
        .ok_or_else(|| perr(line, format!("bad memory reference `{s}`")))
}

/// Split a comma-separated operand list, respecting `[...]` groups (φ
/// incoming pairs) and `(...)` groups, into trimmed operands; an empty
/// last operand is dropped.
fn split_operands(s: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0i32;
    let mut parts = s
        .split(move |ch: char| {
            match ch {
                '[' | '(' => depth += 1,
                ']' | ')' => depth -= 1,
                _ => {}
            }
            ch == ',' && depth == 0
        })
        .map(str::trim)
        .peekable();
    std::iter::from_fn(move || {
        let part = parts.next()?;
        (!part.is_empty() || parts.peek().is_some()).then_some(part)
    })
}

/// Parse every operand of `s`.
fn parse_values(s: &str, line: usize) -> Result<Operands, ParseError> {
    split_operands(s).map(|a| parse_value(a, line)).collect()
}

fn bin_op(m: &str) -> Option<BinOp> {
    Some(match m {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "lshr" => BinOp::LShr,
        "ashr" => BinOp::AShr,
        "fadd" => BinOp::FAdd,
        "fsub" => BinOp::FSub,
        "fmul" => BinOp::FMul,
        "fdiv" => BinOp::FDiv,
        _ => return None,
    })
}

fn un_op(m: &str) -> Option<UnOp> {
    Some(match m {
        "fneg" => UnOp::FNeg,
        "exp" => UnOp::Exp,
        "sqrt" => UnOp::Sqrt,
        "relu" => UnOp::Relu,
        _ => return None,
    })
}

fn tensor_op(m: &str) -> Option<TensorOp> {
    Some(match m {
        "tensor.add" => TensorOp::Add,
        "tensor.matmul" => TensorOp::MatMul,
        "tensor.mul" => TensorOp::Mul,
        "tensor.relu" => TensorOp::Relu,
        "tensor.conv" => TensorOp::Conv,
        "tensor.reduce" => TensorOp::Reduce,
        "tensor.softmax" => TensorOp::Softmax,
        _ => return None,
    })
}

/// A parsed-but-unresolved instruction: printed id (None = valueless),
/// opcode, result type, operands, and owning block.
type PendingInstr = (Option<u32>, Op, Option<Type>, Operands, BlockId);

struct FnBuilder {
    func: Function,
    /// Pending instructions keyed by printed id.
    pending: Vec<PendingInstr>,
}

impl FnBuilder {
    /// Normalise ids: printed `%N` ids map to fresh arena slots in order of
    /// first definition; valueless instructions slot in where they appear.
    fn finish(mut self, line: usize) -> Result<Function, ParseError> {
        let mut id_map: HashMap<u32, InstrId> = HashMap::with_capacity(self.pending.len());
        // First pass: assign arena ids in textual order.
        for (i, (printed, ..)) in self.pending.iter().enumerate() {
            if let Some(p) = printed {
                id_map.insert(*p, InstrId(i as u32));
            }
        }
        let remap = |v: &ValueRef| -> Result<ValueRef, ParseError> {
            match v {
                ValueRef::Instr(old) => id_map
                    .get(&old.0)
                    .map(|n| ValueRef::Instr(*n))
                    .ok_or_else(|| perr(line, format!("undefined value %{}", old.0))),
                other => Ok(*other),
            }
        };
        self.func.instrs.reserve_exact(self.pending.len());
        for (i, (_printed, op, ty, mut operands, block)) in self.pending.into_iter().enumerate() {
            for v in &mut operands {
                *v = remap(v)?;
            }
            self.func.instrs.push(Instr {
                op,
                ty,
                operands,
                block,
            });
            self.func.blocks[block.0 as usize]
                .instrs
                .push(InstrId(i as u32));
        }
        Ok(self.func)
    }
}

/// Parse a module from the printer's textual form.
///
/// # Errors
/// Syntax errors with line numbers; the result is additionally checked by
/// [`crate::verify::verify_module`].
#[allow(clippy::too_many_lines)]
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new("parsed");
    let mut cur_fn: Option<FnBuilder> = None;
    let mut cur_block: Option<BlockId> = None;

    for (ln, raw) in text.lines().enumerate() {
        let lineno = ln + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("; module ") {
            module.name = rest.trim().to_string();
            continue;
        }
        if let Some(rest) = line.strip_prefix("; parallel_hints:") {
            let f = cur_fn
                .as_mut()
                .ok_or_else(|| perr(lineno, "hints outside function"))?;
            for h in rest.split_whitespace() {
                f.func.parallel_hints.push(parse_block_ref(h, lineno)?);
            }
            continue;
        }
        if line.starts_with(';') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('@') {
            // @memN = global [LEN x ELEM] ; NAME [readonly]
            let (_id, rest) = rest
                .split_once('=')
                .ok_or_else(|| perr(lineno, "malformed global"))?;
            let rest = rest
                .trim()
                .strip_prefix("global")
                .map(str::trim)
                .unwrap_or(rest);
            let (_, inner, meta) = bracketed(rest, '[', ']', lineno)?;
            let (len_s, elem_s) = inner
                .split_once(" x ")
                .ok_or_else(|| perr(lineno, "malformed array type"))?;
            let len: u64 = len_s
                .trim()
                .parse()
                .map_err(|_| perr(lineno, "bad length"))?;
            let elem = parse_scalar_type(elem_s.trim(), lineno)?;
            let meta = meta.trim().trim_start_matches(';').trim();
            let read_only = meta.ends_with("readonly");
            let name = meta.trim_end_matches("readonly").trim();
            let id = module.add_mem_object(name, elem, len);
            if read_only {
                module.mem_objects[id.0 as usize].read_only = true;
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("define ") {
            // define RET @NAME(params) {
            let (ret_s, rest) = rest
                .split_once(" @")
                .ok_or_else(|| perr(lineno, "malformed define"))?;
            let ret = if ret_s.trim() == "void" {
                None
            } else {
                Some(parse_type(ret_s, lineno)?)
            };
            let (name, plist, _) = bracketed(rest, '(', ')', lineno)?;
            let name = name.trim().to_string();
            let mut params = Vec::new();
            if !plist.trim().is_empty() {
                for p in split_operands(plist) {
                    let ty_s = p
                        .rsplit_once(" %arg")
                        .map(|(t, _)| t)
                        .ok_or_else(|| perr(lineno, "malformed parameter"))?;
                    params.push(parse_type(ty_s, lineno)?);
                }
            }
            cur_fn = Some(FnBuilder {
                func: Function {
                    name,
                    params,
                    ret,
                    instrs: Vec::new(),
                    blocks: Vec::new(),
                    entry: BlockId(0),
                    parallel_hints: Vec::new(),
                },
                pending: Vec::new(),
            });
            cur_block = None;
            continue;
        }
        if line == "}" {
            let f = cur_fn.take().ok_or_else(|| perr(lineno, "stray `}`"))?;
            module.functions.push(f.finish(lineno)?);
            continue;
        }
        if line.starts_with("bb") && line.contains(':') {
            let f = cur_fn
                .as_mut()
                .ok_or_else(|| perr(lineno, "block outside function"))?;
            let (_id, name) = line.split_once(':').expect("checked");
            let name = name.trim().trim_start_matches(';').trim().to_string();
            let b = BlockId(f.func.blocks.len() as u32);
            f.func.blocks.push(Block::new(name));
            cur_block = Some(b);
            continue;
        }
        // An instruction line.
        let f = cur_fn
            .as_mut()
            .ok_or_else(|| perr(lineno, "instruction outside function"))?;
        let block = cur_block.ok_or_else(|| perr(lineno, "instruction outside block"))?;
        let (printed_id, rhs, ty) = if let Some((lhs, rest)) = line.split_once(" = ") {
            let id: u32 = lhs
                .trim()
                .strip_prefix('%')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| perr(lineno, "malformed result id"))?;
            let (rhs, ty_s) = rest
                .rsplit_once(" : ")
                .ok_or_else(|| perr(lineno, "missing result type"))?;
            (Some(id), rhs.trim(), Some(parse_type(ty_s, lineno)?))
        } else {
            (None, line, None)
        };
        let (op, operands) = parse_rhs(rhs, lineno)?;
        f.pending.push((printed_id, op, ty, operands, block));
    }
    if cur_fn.is_some() {
        return Err(perr(text.lines().count(), "unterminated function"));
    }
    Ok(module)
}

#[allow(clippy::too_many_lines)]
fn parse_rhs(rhs: &str, line: usize) -> Result<(Op, Operands), ParseError> {
    let (mnemonic, rest) = match rhs.split_once(' ') {
        Some((m, r)) => (m, r.trim()),
        None => (rhs, ""),
    };
    // φ: `phi [v, bbK], [v, bbK]`
    if mnemonic == "phi" {
        let mut preds = PhiPreds::new();
        let mut operands = Operands::new();
        for pair in split_operands(rest) {
            let inner = pair
                .strip_prefix('[')
                .and_then(|p| p.strip_suffix(']'))
                .ok_or_else(|| perr(line, "malformed phi incoming"))?;
            let (v, b) = inner
                .rsplit_once(',')
                .ok_or_else(|| perr(line, "malformed phi pair"))?;
            operands.push(parse_value(v, line)?);
            preds.push(parse_block_ref(b, line)?);
        }
        return Ok((Op::Phi { preds }, operands));
    }
    if mnemonic == "load" || mnemonic == "store" {
        // load @memN[idx]   |   store @memN[idx], value
        let (obj, idx, val_s) = bracketed(rest, '[', ']', line)?;
        let obj = parse_mem_ref(obj, line)?;
        let idx = parse_value(idx, line)?;
        if mnemonic == "load" {
            return Ok((Op::Load { obj }, [idx].into()));
        }
        let val_s = val_s.trim_start_matches(',').trim();
        let val = parse_value(val_s, line)?;
        return Ok((Op::Store { obj }, [idx, val].into()));
    }
    if mnemonic == "br" {
        return Ok((
            Op::Br {
                target: parse_block_ref(rest, line)?,
            },
            Operands::new(),
        ));
    }
    if mnemonic == "condbr" {
        let mut parts = split_operands(rest);
        let (Some(c), Some(t), Some(f), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(perr(line, "condbr needs cond, then, else"));
        };
        return Ok((
            Op::CondBr {
                t: parse_block_ref(t, line)?,
                f: parse_block_ref(f, line)?,
            },
            [parse_value(c, line)?].into(),
        ));
    }
    if mnemonic == "detach" {
        let mut parts = split_operands(rest);
        let (Some(body), Some(cont), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(perr(line, "detach needs body, cont"));
        };
        return Ok((
            Op::Detach {
                body: parse_block_ref(body, line)?,
                cont: parse_block_ref(cont, line)?,
            },
            Operands::new(),
        ));
    }
    if mnemonic == "reattach" {
        return Ok((
            Op::Reattach {
                cont: parse_block_ref(rest, line)?,
            },
            Operands::new(),
        ));
    }
    if mnemonic == "sync" {
        return Ok((
            Op::Sync {
                cont: parse_block_ref(rest, line)?,
            },
            Operands::new(),
        ));
    }
    if mnemonic == "ret" {
        let operands = if rest.is_empty() {
            Operands::new()
        } else {
            [parse_value(rest, line)?].into()
        };
        return Ok((Op::Ret, operands));
    }
    if mnemonic == "call" {
        // call @fnK(args)
        let (callee, args, _) = bracketed(rest, '(', ')', line)?;
        let callee = callee
            .trim()
            .strip_prefix("@fn")
            .and_then(|n| n.parse().ok())
            .map(FuncId)
            .ok_or_else(|| perr(line, "bad callee"))?;
        let args = parse_values(args, line)?;
        return Ok((Op::Call { callee }, args));
    }
    if mnemonic == "select" {
        let ops = parse_values(rest, line)?;
        return Ok((Op::Select, ops));
    }
    if let Some(pred) = mnemonic.strip_prefix("icmp.") {
        let p = match pred {
            "eq" => CmpPred::Eq,
            "ne" => CmpPred::Ne,
            "lt" => CmpPred::Lt,
            "le" => CmpPred::Le,
            "gt" => CmpPred::Gt,
            "ge" => CmpPred::Ge,
            other => return Err(perr(line, format!("unknown predicate `{other}`"))),
        };
        let ops = parse_values(rest, line)?;
        return Ok((Op::Cmp(p), ops));
    }
    if mnemonic == "sitofp" || mnemonic == "fptosi" || mnemonic == "resize" {
        let c = match mnemonic {
            "sitofp" => CastOp::SiToFp,
            "fptosi" => CastOp::FpToSi,
            _ => CastOp::IntResize,
        };
        return Ok((Op::Cast(c), [parse_value(rest, line)?].into()));
    }
    // tensor.X<RxC> a, b
    if let Some((tm, shape_rest)) = mnemonic.split_once('<') {
        if let Some(t) = tensor_op(tm) {
            let shape_s = shape_rest
                .strip_suffix('>')
                .ok_or_else(|| perr(line, "unterminated shape"))?;
            let (r, c) = shape_s
                .split_once('x')
                .ok_or_else(|| perr(line, "malformed shape"))?;
            let shape = parse_shape(r, c, line)?;
            let ops = parse_values(rest, line)?;
            return Ok((Op::Tensor(t, shape), ops));
        }
    }
    if let Some(b) = bin_op(mnemonic) {
        let ops = parse_values(rest, line)?;
        return Ok((Op::Bin(b), ops));
    }
    if let Some(u) = un_op(mnemonic) {
        return Ok((Op::Un(u), [parse_value(rest, line)?].into()));
    }
    Err(perr(line, format!("unknown mnemonic `{mnemonic}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::printer::print_module;

    #[test]
    fn parses_a_minimal_module() {
        let text = "\
; module tiny
@mem0 = global [8 x i32] ; a
define void @main() {
bb0: ; entry
  %0 = load @mem0[0] : i32
  %1 = add %0, 41 : i64
  store @mem0[1], %1
  ret
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.name, "tiny");
        assert_eq!(m.mem_objects.len(), 1);
        assert_eq!(m.mem_objects[0].name, "a");
        let f = m.main().unwrap();
        assert_eq!(f.instrs.len(), 4);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    fn roundtrip_is_idempotent_for_builder_programs() {
        let mut m = Module::new("rt");
        let a = m.add_mem_object("a", ScalarType::F32, 32);
        let mut b = FunctionBuilder::new("main", &[Type::I64]).with_mem(&m);
        b.for_loop(0, ValueRef::int(32), 1, |b, i| {
            let v = b.load(a, i);
            let w = b.fmul(v, ValueRef::f32(2.5));
            b.store(a, i, w);
        });
        b.ret(None);
        m.add_function(b.finish());

        let p1 = print_module(&m);
        let m2 = parse_module(&p1).unwrap();
        crate::verify::verify_module(&m2).unwrap();
        let p2 = print_module(&m2);
        let m3 = parse_module(&p2).unwrap();
        let p3 = print_module(&m3);
        assert_eq!(p2, p3, "print∘parse must be idempotent");
    }

    #[test]
    fn parsed_program_runs_identically() {
        use crate::interp::{Interp, Memory};
        let mut m = Module::new("run");
        let a = m.add_mem_object("a", ScalarType::I32, 16);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(16), 1, |b, i| {
            let sq = b.mul(i, i);
            b.store(a, i, sq);
        });
        b.ret(None);
        m.add_function(b.finish());

        let m2 = parse_module(&print_module(&m)).unwrap();
        let mut mem1 = Memory::from_module(&m);
        Interp::new(&m).run_main(&mut mem1, &[]).unwrap();
        let mut mem2 = Memory::from_module(&m2);
        Interp::new(&m2).run_main(&mut mem2, &[]).unwrap();
        assert_eq!(mem1.objects, mem2.objects);
    }

    /// A call with five arguments and a φ with four incomings hold their
    /// lists on the heap; both print, parse back and run as built.
    #[test]
    fn long_operand_lists_roundtrip_and_run() {
        use crate::instr::{CmpPred, FuncId};
        use crate::interp::{Interp, Memory};
        let mut m = Module::new("wide");
        let o = m.add_mem_object("o", ScalarType::I64, 4);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        b.for_loop(0, ValueRef::int(4), 1, |b, i| {
            let args = [10, 20, 30, 40].map(ValueRef::int);
            let v = b.call(
                FuncId(1),
                &[args[0], args[1], args[2], args[3], i],
                Some(Type::I64),
            );
            b.store(o, i, v);
        });
        b.ret(None);
        m.add_function(b.finish());
        // pick(a, b, c, d, sel): the `sel`-th of a..d, through a 4-way φ.
        let mut b = FunctionBuilder::new("pick", &[Type::I64; 5]).returns(Type::I64);
        let arms: Vec<BlockId> = (0..4).map(|k| b.block(format!("arm{k}"))).collect();
        let join = b.block("join");
        for k in 0..3 {
            let c = b.icmp(CmpPred::Lt, b.arg(4), ValueRef::int(k as i64 + 1));
            let next = if k < 2 {
                b.block(format!("test{k}"))
            } else {
                arms[3]
            };
            b.cond_br(c, arms[k], next);
            b.switch_to(next);
        }
        for &arm in &arms {
            b.switch_to(arm);
            b.br(join);
        }
        b.switch_to(join);
        let incoming: Vec<_> = (0..4).map(|k| (b.arg(k as u32), arms[k])).collect();
        let v = b.phi(Type::I64, &incoming);
        b.ret(Some(v));
        m.add_function(b.finish());
        crate::verify::verify_module(&m).unwrap();

        let m2 = parse_module(&print_module(&m)).unwrap();
        crate::verify::verify_module(&m2).unwrap();
        let p2 = print_module(&m2);
        assert_eq!(p2, print_module(&parse_module(&p2).unwrap()));
        let widest = |m: &Module| {
            let ops = m.functions.iter().flat_map(|f| &f.instrs);
            ops.map(|i| i.operands.len()).max()
        };
        assert_eq!(widest(&m2), Some(5));
        let run = |m: &Module| {
            let mut mem = Memory::from_module(m);
            Interp::new(m).run_main(&mut mem, &[]).unwrap();
            mem.read_i64(o)
        };
        assert_eq!(run(&m), [10, 20, 30, 40]);
        assert_eq!(run(&m2), [10, 20, 30, 40]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "; module x\ndefine void @main() {\nbb0: ; e\n  %0 = bogus 1, 2 : i64\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn parses_parallel_hints() {
        let text = "\
; module h
define void @main() {
; parallel_hints: bb1 bb2
bb0: ; entry
  ret
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(
            m.main().unwrap().parallel_hints,
            vec![BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn tensor_reduce_softmax_roundtrip_and_run() {
        use crate::interp::{Interp, Memory};
        use crate::types::TensorShape;
        let mut m = Module::new("trs");
        let a = m.add_mem_object("a", ScalarType::F32, 8);
        let o = m.add_mem_object("o", ScalarType::F32, 8);
        let mut b = FunctionBuilder::new("main", &[]).with_mem(&m);
        let sh = TensorShape::new(1, 4);
        let t = b.load_tile(a, ValueRef::int(0), sh);
        let s = b.tensor1(crate::instr::TensorOp::Reduce, sh, t);
        b.store(o, ValueRef::int(0), s);
        let sm = b.tensor1(crate::instr::TensorOp::Softmax, sh, t);
        b.store(o, ValueRef::int(4), sm);
        b.ret(None);
        m.add_function(b.finish());
        crate::verify::verify_module(&m).unwrap();

        let p1 = print_module(&m);
        assert!(p1.contains("tensor.reduce<1x4>"), "{p1}");
        assert!(p1.contains("tensor.softmax<1x4>"), "{p1}");
        let m2 = parse_module(&p1).unwrap();
        crate::verify::verify_module(&m2).unwrap();
        assert_eq!(p1, print_module(&m2), "print∘parse must be idempotent");

        let run = |m: &Module| {
            let mut mem = Memory::from_module(m);
            mem.init_f32(a, &[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
            Interp::new(m).run_main(&mut mem, &[]).unwrap();
            mem.read_f32(o)
        };
        let (r1, r2) = (run(&m), run(&m2));
        assert_eq!(r1, r2);
        assert_eq!(r1[0], 10.0);
        let sm_sum: f32 = r1[4..8].iter().sum();
        assert!((sm_sum - 1.0).abs() < 1e-6, "{r1:?}");
    }

    #[test]
    fn float_constants_survive() {
        let text = "\
; module f
@mem0 = global [4 x f32] ; a
define void @main() {
bb0: ; entry
  store @mem0[0], 2.0
  ret
}
";
        let m = parse_module(text).unwrap();
        let st = &m.main().unwrap().instrs[0];
        assert_eq!(st.operands[1], ValueRef::Const(ConstVal::F32(2.0)));
    }
}
