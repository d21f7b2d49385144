//! Cross-commit pins for the front end and the emitter: the `compile`
//! benchmark's 64 units (see `common::units`) each hash to what the build
//! before the dense frontend produced — after `translate`, and after
//! `best_stack` + seal — and the sealed artifact's Chisel text hashes to
//! what the build before the direct-write emitter produced. A change that
//! moves a node, an edge, a name, a hash or an emitted byte fails here
//! before it reaches a store key.

mod common;

use common::units;
use muir::bench::best_stack;
use muir::core::{content_hash, Accelerator, CompiledAccel, ContentHasher};
use muir::frontend::{translate, FrontendConfig};
use muir::mir::module::Module;
use muir::rtl::emit_chisel;
use muir::uopt::PassManager;
use muir::workloads::Class;

/// `(unit, content_hash(translate(m)), sealed best_stack hash, (hash,
/// length) of its Chisel)`. The two graph hashes were printed by the parent
/// of the dense-frontend change before any frontend edit; the Chisel column
/// by the parent of the direct-write emitter before any emitter edit.
const PINS: [(&str, u64, u64, (u64, usize)); 64] = [
    (
        "GEMM",
        0xc349519405bea923,
        0x484a9cc789b4bcc7,
        (0xc490cb52412948dd, 4400),
    ),
    (
        "COVAR",
        0x5173b12bb8481bfa,
        0x7707ca2f34a5ac8f,
        (0x47f7a9195d39ce5c, 8703),
    ),
    (
        "FFT",
        0xf9011667e007481d,
        0xbeca70d46cd2487c,
        (0x61c82f1f4fa82678, 8155),
    ),
    (
        "SPMV",
        0x08c0d5af8d47e874,
        0xd7a3bedb9163a6fb,
        (0x01d6770915ae67fa, 4025),
    ),
    (
        "2MM",
        0x798d08ee344ee551,
        0xdbb496309d7fb99e,
        (0x2c5d66181d20f23a, 8004),
    ),
    (
        "3MM",
        0xf9c97ee40c0f8703,
        0x52e8368d59e6663f,
        (0x6fd4628142cadda3, 11468),
    ),
    (
        "FIB",
        0xf22aa2ba797c897c,
        0x9abc7597b6733661,
        (0x11fcc1ee2c039ffd, 2921),
    ),
    (
        "M-SORT",
        0xf6c3116d46eb3867,
        0xa24f0e6787dea316,
        (0x4418b16f622f84d8, 11318),
    ),
    (
        "SAXPY",
        0xbfeafaaced930b7a,
        0x1cadc51168f8997f,
        (0xeda9f9023a8baa68, 2830),
    ),
    (
        "STENCIL",
        0x31fb964c7043d213,
        0x6adbe1c0cfc7eb05,
        (0x55e498b717050c13, 13965),
    ),
    (
        "IMG-SCALE",
        0x098ecfae470c94e0,
        0xba806f18760c2c54,
        (0x6baab039d13a2ae2, 7520),
    ),
    (
        "CONV",
        0xfff93f32f92b8d1c,
        0x8a676330cce2232f,
        (0x988865291e6b3615, 9756),
    ),
    (
        "DENSE8",
        0x25e93ef0652c19bf,
        0x91fa308482799928,
        (0x43dd0157f022c380, 4889),
    ),
    (
        "DENSE16",
        0x852e9c9c1ac226b9,
        0x4428a0fe99fb3787,
        (0x0d2e04acb6f4fc22, 4812),
    ),
    (
        "SOFTM8",
        0xe454d9419c5433d8,
        0x101e840c9774ab24,
        (0x08adf4c3c5f76505, 4137),
    ),
    (
        "SOFTM16",
        0x0fadd613e1aaa3d1,
        0x7fbaaa457e8e5731,
        (0xa9429e1d981f2198, 4287),
    ),
    (
        "RELU[T]",
        0xe1ef02b3dfe1533a,
        0x71fac096a24106f1,
        (0xa0a3c9b59a25c347, 2225),
    ),
    (
        "2MM[T]",
        0x9bc641f7744e65f8,
        0xd1efed45e707e11b,
        (0xe80c999c80c3798a, 4778),
    ),
    (
        "CONV[T]",
        0x1e68335c44d5e452,
        0xe8053758eea95cbc,
        (0x982075b93db41537, 3461),
    ),
    (
        "RGB2YUV",
        0x51cef4b815dbef43,
        0xec8cf53b97c3c4cc,
        (0xf2761462ff5e0843, 5204),
    ),
    (
        "RELU",
        0x386116239c4345b2,
        0xb708945d1d880b0f,
        (0x5d6df942e94f9b2d, 2005),
    ),
    (
        "ATTN",
        0x548191c85c2f40de,
        0x7e00b52bbbc086ae,
        (0xb2f6482d8885ecad, 13758),
    ),
    (
        "CONVNET",
        0x66942b2ef5ef1ddb,
        0x70ff3393fee193dd,
        (0x00131332c50d2747, 7404),
    ),
    (
        "MT-INFER",
        0x5d690d2cbc0f9017,
        0x039502cf6872f370,
        (0x12ec640a7c15d843, 6537),
    ),
    (
        "GEN#0",
        0xc446ea938a9cc517,
        0xaa9d52a3783309aa,
        (0x041b3d905899f539, 29245),
    ),
    (
        "GEN#1",
        0xc32d72c388a984ca,
        0xa6ce8f1553c9bdce,
        (0x394a8fa05eb67a31, 35160),
    ),
    (
        "GEN#2",
        0x3ba34c5075f229bc,
        0x370eeaae33eee55e,
        (0xba80abe2fb3abdc4, 35687),
    ),
    (
        "GEN#3",
        0x247eaca6ecca6170,
        0xb96734ebdfb251f3,
        (0x91cf07f56b29635d, 21285),
    ),
    (
        "GEN#4",
        0xf236dc0feb9d02c8,
        0x6e89b242de1f5a41,
        (0x718ef4cd8f5a6028, 25793),
    ),
    (
        "GEN#5",
        0xcd95427b36836642,
        0x090b9b9adeb210ac,
        (0x2cf53cbc9d26c35c, 27252),
    ),
    (
        "GEN#6",
        0x35d0c413a5ddd2d7,
        0x38723ced2ee53e5c,
        (0x4d5a4b69b86a897c, 22761),
    ),
    (
        "GEN#7",
        0x17f1ea5777f1584d,
        0x0fedd7539d566252,
        (0x2bdd5c19f9335cf2, 34212),
    ),
    (
        "GEN#8",
        0x9a8816f277537822,
        0xd1df42c7128b0818,
        (0x780b59b609321a02, 38546),
    ),
    (
        "GEN#9",
        0xd4a83df27b91926c,
        0xbfb3d2f57876b643,
        (0x06d043cb0739baa5, 34355),
    ),
    (
        "GEN#10",
        0x00458e18ffadf824,
        0x46d969c942f57386,
        (0x26e9203c852a7a65, 24515),
    ),
    (
        "GEN#11",
        0x04bf33e8d0440dcf,
        0xd8408057f62c341b,
        (0x86bffbc8c80a5138, 24621),
    ),
    (
        "GEN#12",
        0x99bb4178a1ea67f0,
        0xb2037ff12958013a,
        (0x3e8c9e4db5684105, 30112),
    ),
    (
        "GEN#13",
        0xbc7af21183cda219,
        0x4a59e8559c25da0c,
        (0xe988ee054ec58aa2, 30389),
    ),
    (
        "GEN#14",
        0x52cebb50fa384f80,
        0xebce2233ebbc6b67,
        (0x68db741d602db36c, 30643),
    ),
    (
        "GEN#15",
        0x624874c816f4e2ad,
        0x169e38730ce2873a,
        (0xfd1af4b2ed5cfa79, 24836),
    ),
    (
        "GEN#16",
        0x7402d7e43cd52abc,
        0xc0d560647acaff24,
        (0xffa43cbce1077cf5, 36528),
    ),
    (
        "GEN#17",
        0xc13b12778bae5b2b,
        0x604223e1402f6ae8,
        (0xcf3b9a8b8aa44d41, 31236),
    ),
    (
        "GEN#18",
        0x16e2382120dcc9d2,
        0x087b586cddc27916,
        (0xd8be0c0e43748792, 36649),
    ),
    (
        "GEN#19",
        0x44163ea8734e928a,
        0xe2db91669e28d3a8,
        (0xa73583732ea5d07c, 24851),
    ),
    (
        "GEN#20",
        0xe420fcda8f2f08d1,
        0xd0d491ec5036fcba,
        (0x603ae3e6d535bc23, 22610),
    ),
    (
        "GEN#21",
        0xb1121baffefb43da,
        0x8de8e6c56ef19c8c,
        (0x05a9811fcbaa5f1c, 26088),
    ),
    (
        "GEN#22",
        0xb6428e8d3c491da3,
        0xceba71cb041f89b2,
        (0x8ff69dc918978600, 26656),
    ),
    (
        "GEN#23",
        0xf3ed9db0f42b07b4,
        0xb9e914d9c9418c3e,
        (0xba1356c6b85ba60e, 25851),
    ),
    (
        "GEN#24",
        0xb1f7098115cdca66,
        0x1c086e65943ad64f,
        (0xd86e3e3e8bfa16af, 27472),
    ),
    (
        "GEN#25",
        0xfeb5d13da68df2b4,
        0xa77c0743d0036f8a,
        (0x804d6f7f4b450ae2, 20778),
    ),
    (
        "GEN#26",
        0x3ba3d3d7f6c3c78b,
        0xf60065b106dc9557,
        (0xaf91ee9feb28efc2, 37025),
    ),
    (
        "GEN#27",
        0xf7afabe7e4cedd32,
        0x8b37e1b22a305452,
        (0x9190e9d8812d0dab, 29691),
    ),
    (
        "GEN#28",
        0x368c92868a3d57be,
        0x37fc417878aae467,
        (0x0a18ebbbf2a20f71, 37151),
    ),
    (
        "GEN#29",
        0x30fe004aadbc2a63,
        0x45a18a490e7a36a1,
        (0x7745ba5b61230d3f, 26676),
    ),
    (
        "GEN#30",
        0xf0dff707df425bad,
        0x75b0e7a463fc0040,
        (0xbe28b3272250a3d1, 33422),
    ),
    (
        "GEN#31",
        0xe2c356fa0c942af5,
        0x5ea0c37bbb6023eb,
        (0x48b4ca74cb00aba2, 24218),
    ),
    (
        "GEN#32",
        0x18cbe0f663f13ccc,
        0xba7acd62b3bb11f6,
        (0x9b16661d28f2733f, 31179),
    ),
    (
        "GEN#33",
        0x35755671eb1eeeca,
        0x2fb6f68532e8fc74,
        (0x4ada5af63f2b2024, 30598),
    ),
    (
        "GEN#34",
        0x79f7961d6224e861,
        0x9e05df46f2ecc737,
        (0x818c283f2887fe3a, 26904),
    ),
    (
        "GEN#35",
        0x6488a3b72bfdee93,
        0x0be85a990a9d1e43,
        (0x954f17c483465fee, 37376),
    ),
    (
        "GEN#36",
        0xe0c3679a268ce441,
        0x35109f4066ce6413,
        (0xaddd4baa9f48eaa8, 22813),
    ),
    (
        "GEN#37",
        0x326f0bc07391d770,
        0x08246d596a0cecd4,
        (0x6d7d34622b434e42, 26675),
    ),
    (
        "GEN#38",
        0x72ce0cee7c8304e3,
        0xc74f71cca9495aa3,
        (0xb70ac0cd08ec98ca, 23630),
    ),
    (
        "GEN#39",
        0x8c0317d104f24117,
        0xf9559b7128de1a53,
        (0xad637d660ff16e1e, 27947),
    ),
];

/// `(translate hash, sealed hash, (Chisel hash, Chisel length))`.
fn hashes(class: Class, m: &Module) -> (u64, u64, (u64, usize)) {
    let mut acc = translate(m, &FrontendConfig::default()).unwrap();
    let translated = content_hash(&acc);
    best_stack(class).run(&mut acc).unwrap();
    let comp = CompiledAccel::compile(&acc).unwrap();
    let chisel = emit_chisel(&comp);
    let mut h = ContentHasher::new();
    h.push(chisel.as_bytes());
    (translated, comp.content_hash(), (h.finish(), chisel.len()))
}

#[test]
fn translate_and_sealed_hashes_are_pinned_for_the_compile_units() {
    let got: Vec<(String, u64, u64, (u64, usize))> = units()
        .iter()
        .map(|(name, class, m)| {
            let (t, s, c) = hashes(*class, m);
            (name.clone(), t, s, c)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, t, s, (ch, cl))| {
            format!("    ({n:?}, {t:#018x}, {s:#018x}, ({ch:#018x}, {cl})),\n")
        })
        .collect();
    assert_eq!(got.len(), PINS.len(), "pin table:\n{table}");
    for ((name, t, s, c), (pn, pt, ps, pc)) in got.iter().zip(PINS) {
        assert_eq!(name, pn);
        assert_eq!(
            (*t, *s, *c),
            (pt, ps, pc),
            "{name}: hash moved; table:\n{table}"
        );
    }
}

/// Translating twice gives the same hash, sealing twice the same
/// `(content_hash, size_bytes)`, and an empty pass pipeline leaves the
/// hash where sealing found it.
#[test]
fn translating_twice_gives_the_same_hash() {
    let seal = |acc: &Accelerator| {
        let c = CompiledAccel::compile(acc).unwrap();
        (c.content_hash(), c.size_bytes())
    };
    for (name, _, m) in units() {
        let mut acc = translate(&m, &FrontendConfig::default()).unwrap();
        let b = content_hash(&translate(&m, &FrontendConfig::default()).unwrap());
        assert_eq!(content_hash(&acc), b, "{name}");
        let sealed = seal(&acc);
        assert_eq!(seal(&acc), sealed, "{name}: sealing twice");
        PassManager::new().run(&mut acc).unwrap();
        assert_eq!(content_hash(&acc), sealed.0, "{name}: empty pipeline");
    }
}
