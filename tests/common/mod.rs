//! The `compile` benchmark's 64 units, shared by the cross-commit pin
//! tests: the 24 registry modules parsed back from their printed text, then
//! `gen_graph(11 + k, 8)` for k < 40 through the tensor-graph text and the
//! default `TensorLowerConfig`.
#![allow(dead_code)] // each test binary uses part of this module

use muir::frontend::tensor::{gen_graph, TensorGraph, TensorLowerConfig};
use muir::mir::module::Module;
use muir::mir::parser::parse_module;
use muir::mir::printer::print_module;
use muir::workloads::{Class, REGISTRY};

/// The text a unit starts from.
pub enum Text {
    /// `print_module` text.
    Mir(String),
    /// `TensorGraph::print` text.
    Tensor(String),
}

/// `(name, class, text)` for each unit, in pin-table order.
pub fn texts() -> Vec<(String, Class, Text)> {
    let mut out = Vec::new();
    for e in REGISTRY {
        let w = (e.build)();
        out.push((
            w.name.to_string(),
            w.class,
            Text::Mir(print_module(&w.module)),
        ));
    }
    for k in 0..40u64 {
        let text = gen_graph(11 + k, 8).print();
        out.push((format!("GEN#{k}"), Class::TensorGraph, Text::Tensor(text)));
    }
    out
}

/// `(name, class, module)` for each unit, in pin-table order.
pub fn units() -> Vec<(String, Class, Module)> {
    texts()
        .into_iter()
        .map(|(name, class, text)| {
            let m = match text {
                Text::Mir(t) => parse_module(&t).unwrap_or_else(|e| panic!("{name}: {e}")),
                Text::Tensor(t) => {
                    TensorGraph::parse(&t)
                        .unwrap_or_else(|e| panic!("{name}: {e}"))
                        .lower(&TensorLowerConfig::default())
                        .unwrap_or_else(|e| panic!("{name}: {e}"))
                        .module
                }
            };
            (name, class, m)
        })
        .collect()
}
