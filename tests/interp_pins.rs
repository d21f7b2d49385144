//! Cross-commit pins for the reference interpreter: each of the `compile`
//! benchmark's 64 units (see `common::texts`) runs once under a sink that
//! hashes the whole `TraceSink` stream, and must reproduce what the
//! `Value`-based interpreter gave: the number of dynamic events, the
//! digest of every event and block entry in order, and the hash of memory
//! and return value at the end. The CPU and HLS baselines are functions
//! of that stream and the checks against the simulator of that memory, so
//! a change to how the interpreter evaluates that moves either fails here
//! with the whole table.

mod common;

use common::{texts, Text};
use muir::core::ContentHasher;
use muir::mir::instr::BlockId;
use muir::mir::interp::{Interp, Memory};
use muir::mir::parser::parse_module;
use muir::mir::trace::{TraceEvent, TraceSink};
use muir::workloads::{self, tensorgraph, Workload};
use std::hash::Hash;

/// `(unit, dynamic events, stream digest, end-state hash)`, printed by the
/// interpreter before it ran on flat words.
const PINS: [(&str, u64, u64, u64); 64] = [
    ("GEMM", 439588, 0x0b89c0f90381d41b, 0x8f0d38ef089a621c),
    ("COVAR", 200604, 0x51986d44f100bd81, 0x7e7b67a6670b3263),
    ("FFT", 174198, 0x929665d72fcf0bc6, 0x74f125184c747dff),
    ("SPMV", 26116, 0xe9cada0a8b801d5d, 0x092484dac3e1db6a),
    ("2MM", 374840, 0xace7b2f1880600fe, 0x0a5553494bf7dd78),
    ("3MM", 328152, 0x665a5470e7c68814, 0x9aab69104af7e004),
    ("FIB", 25654, 0x6be191d54191e3f3, 0x7a80b7bb497f8675),
    ("M-SORT", 79494, 0xc55508168ed93214, 0xd14ba64c0478b1d6),
    ("SAXPY", 45061, 0x0e79aeb066e146c5, 0x8bffd01ac7564763),
    ("STENCIL", 64837, 0x730e2929db26e52f, 0x726d950ac7d94516),
    ("IMG-SCALE", 23877, 0x0036253c60a897e1, 0xeee0920d5bbaaf70),
    ("CONV", 54318, 0xc120b7dce2b7caef, 0x8fcfc2bbed76abb3),
    ("DENSE8", 201252, 0x2d52d0e7953cc298, 0x5a2b7069d4d1da55),
    ("DENSE16", 402212, 0x1fa8333c93480c3e, 0xa7ec91c8fee98d49),
    ("SOFTM8", 11204, 0x8bc2cdf2d8d60157, 0x721145f3d9a3aee4),
    ("SOFTM16", 21444, 0xcf1cc365c5a91067, 0xcc8cf9feb072fe97),
    ("RELU[T]", 4612, 0x25e7632f3559e3d9, 0x92129ea71e871dbb),
    ("2MM[T]", 20876, 0xf51d43898cfe617f, 0x55a09e2f95fc89b6),
    ("CONV[T]", 4000, 0x049bd4fc953f26fd, 0xfee4bc89df38f8e8),
    ("RGB2YUV", 35844, 0x27fd652b24f0070c, 0x49bb452104b67b31),
    ("RELU", 16388, 0x85dc082f6a396844, 0xd86a2ef657aee6ee),
    ("ATTN", 9444, 0xcf1af2b9d0ce0b14, 0x79472c3690120c03),
    ("CONVNET", 13260, 0x94bad2cab92a153f, 0x85c037fd91e26657),
    ("MT-INFER", 4568, 0x11218c8c137dff91, 0xfcd3018580a93de1),
    ("GEN#0", 6131, 0x1cda97a05e0843ac, 0xff558adfd4e245f0),
    ("GEN#1", 7296, 0x94fef7a5136cdb8a, 0xf44ebb86f143c32d),
    ("GEN#2", 3951, 0x53261d16d1f39b68, 0x3f33b16139014937),
    ("GEN#3", 6496, 0x5d6e1a998607c2f6, 0xaef2232b7326fe17),
    ("GEN#4", 2885, 0x09b7418fd29f88bf, 0x2529d2da3e7f090e),
    ("GEN#5", 820, 0xaf9c016de9bdc0b5, 0xc6e45c7db9f8e31f),
    ("GEN#6", 3318, 0x1a298c83d1aa4836, 0x8c021255a61314a1),
    ("GEN#7", 3670, 0x4bc52505158ce4b8, 0xcec00e9d34d18bda),
    ("GEN#8", 8195, 0x7cf4b02751d64010, 0x8b74ebb296002a1c),
    ("GEN#9", 16169, 0x7f8b12e623f1a6ec, 0xa10d7cceb839d17e),
    ("GEN#10", 12530, 0xe6136d38794f9f86, 0xe6d597e095941616),
    ("GEN#11", 22638, 0x8f217ab9bcfd3a87, 0x6f65bfd927d451bd),
    ("GEN#12", 6568, 0x0a19417c06bb3af3, 0x2eb950bc49a7135d),
    ("GEN#13", 2825, 0x6ae90d1f963ac18c, 0x5cb136b0faecfd8c),
    ("GEN#14", 3726, 0x00d261e48062637e, 0xdb7e64bda5ce81ed),
    ("GEN#15", 4644, 0x9cc29ac51254776f, 0x19ea386c82c2fce3),
    ("GEN#16", 12374, 0x7d0e7cb60de1c86c, 0x4e20619c953afe28),
    ("GEN#17", 8501, 0xbcb2c36c31752ffe, 0x7e1a4b6850e047db),
    ("GEN#18", 9715, 0x0ae7e14857ce86d3, 0x9e82d4e5d983ed82),
    ("GEN#19", 9706, 0x74a63a5c2b250d6f, 0x6bfa29cee64a7e4d),
    ("GEN#20", 13302, 0xcab00eab94045b11, 0x52e8b48ed57f0f04),
    ("GEN#21", 313, 0x32ac4fce4fc45a56, 0x9f7038be28a0ebae),
    ("GEN#22", 686, 0x1492da1404fac6cd, 0xf2bcaffd01cc046c),
    ("GEN#23", 1232, 0xc6e0622997967489, 0x78f264e37f03c07e),
    ("GEN#24", 2514, 0xcac314e09be797a8, 0xf8d2fbec63e30a71),
    ("GEN#25", 12728, 0x5034c80c77fc66d7, 0x618632bf92614fae),
    ("GEN#26", 38971, 0xf178a74f2fcd4df0, 0x8226959639460ce1),
    ("GEN#27", 17222, 0x6f0726b1b8a0839a, 0xa3656c8decbe09e9),
    ("GEN#28", 9027, 0xeb91aaa0a230b416, 0x2336ad9cf308465c),
    ("GEN#29", 658, 0xa14ab3aa0476957d, 0xf698ffeedf6d21ba),
    ("GEN#30", 2918, 0xa6d1c293d62c8490, 0xf436ab96820e7f1d),
    ("GEN#31", 8276, 0x2f49f43100c6d909, 0x3df7154b46d6acc9),
    ("GEN#32", 6775, 0xe20a4a1a227f4e02, 0x96125f1363e0e72a),
    ("GEN#33", 763, 0x54062480e19ca4f9, 0xfca6144d2d229643),
    ("GEN#34", 956, 0xd8f8def14c4385cb, 0xf86aebb7f97c239c),
    ("GEN#35", 10888, 0xeefd1de55d5535d7, 0xf98d42220af36d9e),
    ("GEN#36", 1486, 0xc65ab29e73aaa357, 0x1200808c503d49c7),
    ("GEN#37", 1264, 0xf084d04f81152a18, 0x0e6ed33915101bea),
    ("GEN#38", 891, 0xd990960a81410478, 0x2dfcfbb7be59a9d3),
    ("GEN#39", 3264, 0x211b5952572872b2, 0x46bf0f3db05a656a),
];

/// Hashes every event and block entry, in order.
struct StreamHash {
    events: u64,
    h: ContentHasher,
}

impl TraceSink for StreamHash {
    fn event(&mut self, ev: TraceEvent) {
        self.events += 1;
        self.h.push_u64(ev.class as u64);
        ev.addr.hash(&mut self.h);
        ev.obj.map(|o| o.0).hash(&mut self.h);
    }

    fn block(&mut self, func: &str, block: BlockId) {
        self.h.push_str(func);
        self.h.push_u64(u64::from(block.0));
    }
}

/// The registry workload, or the generated graph's workload with inputs
/// drawn from a seed of its own.
fn workload(k: usize, name: &str, text: &Text) -> Workload {
    match text {
        Text::Mir(_) => workloads::by_name(name).expect("registry workload"),
        Text::Tensor(t) => tensorgraph::from_text("GEN", t, 0x5eed + k as u64)
            .unwrap_or_else(|e| panic!("{name}: {e}")),
    }
}

fn run(k: usize, name: &str, text: &Text) -> (u64, u64, u64) {
    let w = workload(k, name, text);
    let module = match text {
        Text::Mir(t) => parse_module(t).unwrap_or_else(|e| panic!("{name}: {e}")),
        Text::Tensor(_) => w.module.clone(),
    };
    let mut mem: Memory = w.fresh_memory();
    let sink = StreamHash {
        events: 0,
        h: ContentHasher::new(),
    };
    let mut it = Interp::with_sink(&module, sink);
    let ret = it
        .run_main(&mut mem, &[])
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let sink = it.into_sink();
    let mut end = ContentHasher::new();
    mem.hash(&mut end);
    ret.hash(&mut end);
    (sink.events, sink.h.finish(), end.finish())
}

#[test]
fn interpreter_streams_and_end_states_match_pins() {
    let mut table = String::new();
    let mut moved = Vec::new();
    for (k, (name, _, text)) in texts().iter().enumerate() {
        let got = run(k, name, text);
        table.push_str(&format!(
            "    ({name:?}, {}, {:#018x}, {:#018x}),\n",
            got.0, got.1, got.2
        ));
        match PINS.get(k) {
            Some(&(n, events, digest, end)) if n == name && (events, digest, end) == got => {}
            _ => moved.push(name.clone()),
        }
    }
    assert!(
        moved.is_empty(),
        "interpreter runs moved on {moved:?}:\n{table}"
    );
}
