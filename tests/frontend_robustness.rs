//! `translate` terminates without panicking on every module `verify_module`
//! accepts, and the mir text parser never panics: the reproducers the
//! line-mutation fuzzer (`experiments fuzz --mir`) found, each now a typed
//! `ParseError`, `VerifyError` or `FrontendError`.

use muir::bench::testgen::run_mir_mutations;
use muir::frontend::{translate, FrontendConfig};
use muir::mir::parser::parse_module;
use muir::mir::printer::print_module;
use muir::mir::verify::verify_module;

/// SAXPY's printed text with `from` replaced by `to` (exactly once).
fn saxpy_with(from: &str, to: &str) -> String {
    let w = muir::workloads::by_name("SAXPY").unwrap();
    let text = print_module(&w.module);
    assert_eq!(text.matches(from).count(), 1, "{from:?} in\n{text}");
    text.replace(from, to)
}

/// Parses and verifies, then `translate` refuses with a message naming
/// `what`.
fn translate_refuses(text: &str, what: &str) {
    let m = parse_module(text).unwrap();
    verify_module(&m).unwrap();
    let e = translate(&m, &FrontendConfig::default()).unwrap_err();
    assert!(e.message.contains(what), "{e}");
}

#[test]
fn a_pure_value_that_depends_on_itself() {
    let text = saxpy_with("%7 = fmul %5, 2.5", "%7 = fmul %7, 2.5");
    translate_refuses(&text, "depends on itself");
}

#[test]
fn a_call_cycle() {
    let text = saxpy_with("; entry\n  br bb1\n", "; entry\n  call @fn0()\n  br bb1\n");
    translate_refuses(
        &text,
        "call cycle: `main` is called while it is being built",
    );
}

#[test]
fn a_detach_into_its_own_block() {
    let text = saxpy_with("detach bb3, bb4", "detach bb2, bb4");
    // The region of `detach bb2` runs back through the loop it sits in.
    translate_refuses(
        &text,
        "loop at bb1 in `main` is re-entered while it is being built",
    );
}

#[test]
fn a_memory_op_in_a_module_without_memory_objects() {
    let w = muir::workloads::by_name("SAXPY").unwrap();
    let text: String = print_module(&w.module)
        .lines()
        .filter(|l| !l.starts_with("@mem"))
        .map(|l| format!("{l}\n"))
        .collect();
    let m = parse_module(&text).unwrap();
    assert!(m.mem_objects.is_empty());
    let e = verify_module(&m).unwrap_err();
    assert!(e.message.contains("missing memory object @mem0"), "{e}");
    let e = translate(&m, &FrontendConfig::default()).unwrap_err();
    assert!(e.message.contains("missing memory object"), "{e}");
}

#[test]
fn parser_lines_that_panicked_are_parse_errors() {
    let body = |line: &str| {
        format!(
            "; module p\n@mem0 = global [16 x f32] ; a\ndefine void @main() {{\nbb0: ; entry\n{line}\n  ret\n}}\n"
        )
    };
    let cases = [
        (
            "; module p\n@mem0 = global f32] ; A [16\n".to_string(),
            2,
            "missing ]",
        ),
        (
            "; module p\ndefine void @main)( {\n".to_string(),
            2,
            "missing )",
        ),
        (
            body("  %0 = load @mem0[0] : tensor<0x8 x f32>"),
            5,
            "nonzero",
        ),
        (body("  %1 = tensor.conv<0x8> 1, 2 : f32"), 5, "nonzero"),
    ];
    for (text, line, what) in cases {
        let e = parse_module(&text).unwrap_err();
        assert_eq!(e.line, line, "{e}");
        assert!(e.message.contains(what), "{e}");
    }
}

#[test]
fn line_mutations_never_panic() {
    let c = run_mir_mutations(0x7e57, 1000).unwrap();
    assert_eq!(c.cases, 1000);
    assert!(c.translated > 0 && c.translated < c.parsed, "{c:?}");
}
