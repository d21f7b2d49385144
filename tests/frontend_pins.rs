//! Cross-commit pins for the front end: the `compile` benchmark's 64 units
//! (24 registry modules parsed back from their printed text, then
//! `gen_graph(11 + k, 8)` for k < 40 through the tensor-graph text and the
//! default `TensorLowerConfig`) each hash to what the build before the
//! dense frontend (PR 25) produced — after `translate`, and after
//! `best_stack` + seal. A frontend change that moves a node, an edge, a
//! name or a hash fails here before it reaches a store key.

use muir::bench::best_stack;
use muir::core::{content_hash, CompiledAccel};
use muir::frontend::tensor::{gen_graph, TensorGraph, TensorLowerConfig};
use muir::frontend::{translate, FrontendConfig};
use muir::mir::module::Module;
use muir::mir::parser::parse_module;
use muir::mir::printer::print_module;
use muir::workloads::{Class, REGISTRY};

/// `(unit, content_hash(translate(m)), sealed best_stack hash)`, printed by
/// the parent of the dense-frontend change before any frontend edit.
const PINS: [(&str, u64, u64); 64] = [
    ("GEMM", 0xc349519405bea923, 0x484a9cc789b4bcc7),
    ("COVAR", 0x5173b12bb8481bfa, 0x7707ca2f34a5ac8f),
    ("FFT", 0xf9011667e007481d, 0xbeca70d46cd2487c),
    ("SPMV", 0x08c0d5af8d47e874, 0xd7a3bedb9163a6fb),
    ("2MM", 0x798d08ee344ee551, 0xdbb496309d7fb99e),
    ("3MM", 0xf9c97ee40c0f8703, 0x52e8368d59e6663f),
    ("FIB", 0xf22aa2ba797c897c, 0x9abc7597b6733661),
    ("M-SORT", 0xf6c3116d46eb3867, 0xa24f0e6787dea316),
    ("SAXPY", 0xbfeafaaced930b7a, 0x1cadc51168f8997f),
    ("STENCIL", 0x31fb964c7043d213, 0x6adbe1c0cfc7eb05),
    ("IMG-SCALE", 0x098ecfae470c94e0, 0xba806f18760c2c54),
    ("CONV", 0xfff93f32f92b8d1c, 0x8a676330cce2232f),
    ("DENSE8", 0x25e93ef0652c19bf, 0x91fa308482799928),
    ("DENSE16", 0x852e9c9c1ac226b9, 0x4428a0fe99fb3787),
    ("SOFTM8", 0xe454d9419c5433d8, 0x101e840c9774ab24),
    ("SOFTM16", 0x0fadd613e1aaa3d1, 0x7fbaaa457e8e5731),
    ("RELU[T]", 0xe1ef02b3dfe1533a, 0x71fac096a24106f1),
    ("2MM[T]", 0x9bc641f7744e65f8, 0xd1efed45e707e11b),
    ("CONV[T]", 0x1e68335c44d5e452, 0xe8053758eea95cbc),
    ("RGB2YUV", 0x51cef4b815dbef43, 0xec8cf53b97c3c4cc),
    ("RELU", 0x386116239c4345b2, 0xb708945d1d880b0f),
    ("ATTN", 0x548191c85c2f40de, 0x7e00b52bbbc086ae),
    ("CONVNET", 0x66942b2ef5ef1ddb, 0x70ff3393fee193dd),
    ("MT-INFER", 0x5d690d2cbc0f9017, 0x039502cf6872f370),
    ("GEN#0", 0xc446ea938a9cc517, 0xaa9d52a3783309aa),
    ("GEN#1", 0xc32d72c388a984ca, 0xa6ce8f1553c9bdce),
    ("GEN#2", 0x3ba34c5075f229bc, 0x370eeaae33eee55e),
    ("GEN#3", 0x247eaca6ecca6170, 0xb96734ebdfb251f3),
    ("GEN#4", 0xf236dc0feb9d02c8, 0x6e89b242de1f5a41),
    ("GEN#5", 0xcd95427b36836642, 0x090b9b9adeb210ac),
    ("GEN#6", 0x35d0c413a5ddd2d7, 0x38723ced2ee53e5c),
    ("GEN#7", 0x17f1ea5777f1584d, 0x0fedd7539d566252),
    ("GEN#8", 0x9a8816f277537822, 0xd1df42c7128b0818),
    ("GEN#9", 0xd4a83df27b91926c, 0xbfb3d2f57876b643),
    ("GEN#10", 0x00458e18ffadf824, 0x46d969c942f57386),
    ("GEN#11", 0x04bf33e8d0440dcf, 0xd8408057f62c341b),
    ("GEN#12", 0x99bb4178a1ea67f0, 0xb2037ff12958013a),
    ("GEN#13", 0xbc7af21183cda219, 0x4a59e8559c25da0c),
    ("GEN#14", 0x52cebb50fa384f80, 0xebce2233ebbc6b67),
    ("GEN#15", 0x624874c816f4e2ad, 0x169e38730ce2873a),
    ("GEN#16", 0x7402d7e43cd52abc, 0xc0d560647acaff24),
    ("GEN#17", 0xc13b12778bae5b2b, 0x604223e1402f6ae8),
    ("GEN#18", 0x16e2382120dcc9d2, 0x087b586cddc27916),
    ("GEN#19", 0x44163ea8734e928a, 0xe2db91669e28d3a8),
    ("GEN#20", 0xe420fcda8f2f08d1, 0xd0d491ec5036fcba),
    ("GEN#21", 0xb1121baffefb43da, 0x8de8e6c56ef19c8c),
    ("GEN#22", 0xb6428e8d3c491da3, 0xceba71cb041f89b2),
    ("GEN#23", 0xf3ed9db0f42b07b4, 0xb9e914d9c9418c3e),
    ("GEN#24", 0xb1f7098115cdca66, 0x1c086e65943ad64f),
    ("GEN#25", 0xfeb5d13da68df2b4, 0xa77c0743d0036f8a),
    ("GEN#26", 0x3ba3d3d7f6c3c78b, 0xf60065b106dc9557),
    ("GEN#27", 0xf7afabe7e4cedd32, 0x8b37e1b22a305452),
    ("GEN#28", 0x368c92868a3d57be, 0x37fc417878aae467),
    ("GEN#29", 0x30fe004aadbc2a63, 0x45a18a490e7a36a1),
    ("GEN#30", 0xf0dff707df425bad, 0x75b0e7a463fc0040),
    ("GEN#31", 0xe2c356fa0c942af5, 0x5ea0c37bbb6023eb),
    ("GEN#32", 0x18cbe0f663f13ccc, 0xba7acd62b3bb11f6),
    ("GEN#33", 0x35755671eb1eeeca, 0x2fb6f68532e8fc74),
    ("GEN#34", 0x79f7961d6224e861, 0x9e05df46f2ecc737),
    ("GEN#35", 0x6488a3b72bfdee93, 0x0be85a990a9d1e43),
    ("GEN#36", 0xe0c3679a268ce441, 0x35109f4066ce6413),
    ("GEN#37", 0x326f0bc07391d770, 0x08246d596a0cecd4),
    ("GEN#38", 0x72ce0cee7c8304e3, 0xc74f71cca9495aa3),
    ("GEN#39", 0x8c0317d104f24117, 0xf9559b7128de1a53),
];

fn units() -> Vec<(String, Class, Module)> {
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

fn hashes(class: Class, m: &Module) -> (u64, u64) {
    let mut acc = translate(m, &FrontendConfig::default()).unwrap();
    let translated = content_hash(&acc);
    best_stack(class).run(&mut acc).unwrap();
    let sealed = CompiledAccel::compile(&acc).unwrap().content_hash();
    (translated, sealed)
}

#[test]
fn translate_and_sealed_hashes_are_pinned_for_the_compile_units() {
    let got: Vec<(String, u64, u64)> = units()
        .iter()
        .map(|(name, class, m)| {
            let (t, s) = hashes(*class, m);
            (name.clone(), t, s)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, t, s)| format!("    ({n:?}, {t:#018x}, {s:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "pin table:\n{table}");
    for ((name, t, s), (pn, pt, ps)) in got.iter().zip(PINS) {
        assert_eq!(name, pn);
        assert_eq!((*t, *s), (pt, ps), "{name}: hash moved; table:\n{table}");
    }
}

#[test]
fn translating_twice_gives_the_same_hash() {
    for (name, _, m) in units() {
        let a = content_hash(&translate(&m, &FrontendConfig::default()).unwrap());
        let b = content_hash(&translate(&m, &FrontendConfig::default()).unwrap());
        assert_eq!(a, b, "{name}");
    }
}
