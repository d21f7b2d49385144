//! The `compile` benchmark's 64 units, shared by the cross-commit pin
//! tests: the 24 registry modules parsed back from their printed text, then
//! `gen_graph(11 + k, 8)` for k < 40 through the tensor-graph text and the
//! default `TensorLowerConfig`.

use muir::frontend::tensor::{gen_graph, TensorGraph, TensorLowerConfig};
use muir::mir::module::Module;
use muir::mir::parser::parse_module;
use muir::mir::printer::print_module;
use muir::workloads::{Class, REGISTRY};

/// `(name, class, module)` for each unit, in pin-table order.
pub fn units() -> Vec<(String, Class, Module)> {
    let mut out = Vec::new();
    for e in REGISTRY {
        let w = (e.build)();
        let m =
            parse_module(&print_module(&w.module)).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        out.push((w.name.to_string(), w.class, m));
    }
    for k in 0..40u64 {
        let text = gen_graph(11 + k, 8).print();
        let g = TensorGraph::parse(&text).unwrap_or_else(|e| panic!("GEN#{k}: {e}"));
        let low = g
            .lower(&TensorLowerConfig::default())
            .unwrap_or_else(|e| panic!("GEN#{k}: {e}"));
        out.push((format!("GEN#{k}"), Class::TensorGraph, low.module));
    }
    out
}
