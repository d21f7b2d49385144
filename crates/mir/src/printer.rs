//! Textual printer for modules and functions (LLVM-flavoured syntax).

use crate::instr::{InstrId, Op};
use crate::module::{Function, Module};
use std::fmt::Write;

/// Render one function as text.
pub(crate) fn print_function(f: &Function) -> String {
    let mut out = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, t)| format!("{t} %arg{i}"))
        .collect();
    let ret = f
        .ret
        .map(|t| t.to_string())
        .unwrap_or_else(|| "void".to_string());
    let _ = writeln!(out, "define {ret} @{}({}) {{", f.name, params.join(", "));
    if !f.parallel_hints.is_empty() {
        let hints: Vec<String> = f.parallel_hints.iter().map(|b| b.to_string()).collect();
        let _ = writeln!(out, "; parallel_hints: {}", hints.join(" "));
    }
    for (bi, block) in f.blocks.iter().enumerate() {
        let _ = writeln!(out, "bb{bi}: ; {}", block.name);
        for &iid in &block.instrs {
            let _ = writeln!(out, "  {}", render_instr(f, iid));
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn render_instr(f: &Function, iid: InstrId) -> String {
    let instr = f.instr(iid);
    let ops: Vec<String> = instr.operands.iter().map(|o| o.to_string()).collect();
    let rhs = match &instr.op {
        Op::Phi { preds } => {
            let pairs: Vec<String> = instr
                .operands
                .iter()
                .zip(preds)
                .map(|(v, p)| format!("[{v}, {p}]"))
                .collect();
            format!("phi {}", pairs.join(", "))
        }
        Op::Load { obj } => format!("load {obj}[{}]", ops[0]),
        Op::Store { obj } => format!("store {obj}[{}], {}", ops[0], ops[1]),
        Op::Br { target } => format!("br {target}"),
        Op::CondBr { t, f: fb } => format!("condbr {}, {t}, {fb}", ops[0]),
        Op::Detach { body, cont } => format!("detach {body}, {cont}"),
        Op::Reattach { cont } => format!("reattach {cont}"),
        Op::Sync { cont } => format!("sync {cont}"),
        Op::Call { callee } => format!("call {callee}({})", ops.join(", ")),
        Op::Tensor(t, shape) => format!("{}<{shape}> {}", t.mnemonic(), ops.join(", ")),
        other => format!("{} {}", other.mnemonic(), ops.join(", ")),
    };
    match instr.ty {
        Some(ty) => format!("{iid} = {rhs} : {ty}"),
        None => rhs,
    }
}

/// Render a whole module as text.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; module {}", m.name);
    for (i, obj) in m.mem_objects.iter().enumerate() {
        let ro = if obj.read_only { " readonly" } else { "" };
        let _ = writeln!(
            out,
            "@mem{i} = global [{} x {}] ; {}{ro}",
            obj.len, obj.elem, obj.name
        );
    }
    for f in &m.functions {
        out.push('\n');
        out.push_str(&print_function(f));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::ValueRef;
    use crate::types::{ScalarType, Type};

    #[test]
    fn prints_module_shape() {
        let mut m = Module::new("demo");
        let a = m.add_mem_object("a", ScalarType::F32, 8);
        let mut b = FunctionBuilder::new("main", &[Type::F32]).with_mem(&m);
        let v = b.load(a, ValueRef::int(0));
        let s = b.fadd(v, b.arg(0));
        b.store(a, ValueRef::int(0), s);
        b.ret(None);
        m.add_function(b.finish());
        let text = print_module(&m);
        assert!(text.contains("module demo"));
        assert!(text.contains("@mem0 = global [8 x f32]"));
        assert!(text.contains("define void @main(f32 %arg0)"));
        assert!(text.contains("load @mem0"));
        assert!(text.contains("store @mem0"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn prints_phi_and_branches() {
        let mut b = FunctionBuilder::new("l", &[]);
        b.for_loop(0, ValueRef::int(4), 1, |_, _| {});
        b.ret(None);
        let f = b.finish();
        let text = print_function(&f);
        assert!(text.contains("phi ["));
        assert!(text.contains("condbr"));
    }
}
