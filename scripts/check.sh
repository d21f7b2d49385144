#!/bin/sh
# Repo hygiene gate: formatting, lints on every workspace crate, the
# tier-1 test suite, the trace-exporter schema gate, the sealed-artifact
# determinism gate (compile twice -> identical content hash; no-op pass
# pipeline -> hash unchanged), the store determinism gate (cold/warm/
# post-fault over the full workload suite, then muir-store's own tests with
# the entry a pre-flat-image build wrote), the storage fault campaign
# (4 injected fault classes x plain/sim-faulted differential), the
# seeded graph-fuzz smoke (30 graphs, check_lowering + Dense/Ready),
# the tensor-lowering differential gate (text-parsed vs API-built
# GEMM/CONV-shaped graphs bit-identical in cycles and end-state hash,
# numerics matching the hand-built workloads), the
# tensor-graph fuzz smoke (seeded frontend graphs through parse ->
# lower -> seal -> sim), the mir line-mutation fuzz (20 000 seeded edits of
# the printed registry modules through parse -> verify -> translate: each
# stage may refuse a case with its typed error, none may panic), the scheduler differential (sealed tables held
# to the reference lowering, then Ready vs the Dense oracle over the same
# artifact, plain, traced and faulted: a tiled workload in muir-sim, then
# all 24 registry workloads), the one-hot-path gate (under crates/sim/src:
# no `unsafe`, no `SchedulerKind::Parallel`, no second firing body — one
# `fn try_fire` and one `fn fire` in engine.rs — and a reference lowering
# that names no `CompiledTask` outside `check_lowering`), the one-adjacency
# gate (the sealed artifact holds each edge once: the per-node edge lists,
# the CSR index and the memory-client map stay out of
# crates/core/src/compiled.rs and crates/sim/src), the one-front-door gate (the simulator accepts sealed
# artifacts only: no exec-mode switch, no uncompiled simulate wrappers and
# no process-local compile cache under crates/ src/ tests/ examples/), the
# one-memory-image gate (no `Vec<Vec<Value>>` image under crates/ src/ tests/
# examples/, the store codec's `obj` path parses straight into words
# without the `Value`-token helpers, and the engine moves words —
# `Memory::words`/`store_words` — never the `Value`-building `load`/`store`),
# the one-token-payload gate (in crates/sim/src/engine.rs a `Value` list or
# field exists only between the door's two marker comments: root arguments
# in, results out), the one-wake-clock gate (engine.rs keeps one wake
# calendar keyed by cycle — no `next` list, no `future` heap, no membership
# bits — schedules `Ev::NodeDone` from one site and pushes an in-flight token
# from one branch: every other firing stamps), the cross-commit outcomes gate
# (`experiments outcomes` — every registry workload x baseline/best_stack x
# Dense/Ready x plain/traced/faulted, cycles and hashes or the error's text —
# against scripts/outcomes.golden, which the parent of the last engine
# change wrote), the one-JSON-module gate (under crates/: string escaping and the `json_*`
# helpers live in crates/core/src/json.rs only, and the retired second
# scoreboard is named by no source, script or manifest), the telemetry
# zero-perturbation guard (metrics on vs off bit-identical on every
# workload), the metrics gate (one instrumented GEMM capture whose
# merged trace and registry snapshot must validate against
# scripts/trace_schema.json and scripts/metrics_schema.json), the
# DSE smoke gate (a 2-workload seeded sweep through the eval service,
# run cold@1-thread then warm@2-threads over one store: the reports
# must validate against scripts/dse_schema.json and byte-match), and the
# benchmark gate (the hash functions render no text; the benchmark
# crate's own tests, then `benchmark/run.sh --smoke`, so an API or
# hash-contract change that breaks the benchmark fails here first). Host
# time is measured by `benchmark/` alone. Each tool-dependent stage is
# skipped (not failed) when its tool is missing, so the script works in
# minimal containers.
set -eu

cd "$(dirname "$0")/.."

if command -v cargo >/dev/null 2>&1 && cargo fmt --version >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all --check
else
    echo "== cargo fmt not available; skipped =="
fi

if command -v cargo >/dev/null 2>&1 && cargo clippy --version >/dev/null 2>&1; then
    for crate in muir-core muir-mir muir-frontend muir-sim muir-uopt muir-rtl muir-workloads muir-store muir-bench; do
        echo "== cargo clippy -p $crate (warnings are errors) =="
        cargo clippy -p "$crate" --all-targets -- -D warnings
    done
else
    echo "== cargo clippy not available; skipped =="
fi

echo "== tier-1 tests =="
cargo test -q

echo "== trace exporter vs scripts/trace_schema.json =="
cargo run -q -p muir-bench --bin experiments -- trace-schema scripts/trace_schema.json

echo "== artifact determinism (compile twice + no-op pipeline, all workloads) =="
cargo run -q -p muir-bench --bin experiments -- compile-stats

echo "== store determinism gate (cold/warm/post-fault, all workloads; the parent-written fixture entry) =="
cargo run --release -q -p muir-bench --bin experiments -- serve target/store-check
cargo test -q -p muir-store --lib

echo "== storage fault campaign (4 classes x plain/sim-faulted) =="
cargo run --release -q -p muir-bench --bin experiments -- store-campaign target/store-campaign-check

echo "== graph-fuzz smoke (30 seeded graphs, check_lowering + Dense/Ready x plain/traced/faulted) =="
cargo run --release -q -p muir-bench --bin experiments -- fuzz --graphs 30 --seed 0xc1

echo "== tensor-lowering differential gate (frontend vs hand-built GEMM/CONV) =="
cargo run --release -q -p muir-bench --bin experiments -- tensor --gate

echo "== tensor-graph fuzz smoke (10 seeded graphs through the frontend) =="
cargo run --release -q -p muir-bench --bin experiments -- fuzz --tensor --graphs 10 --seed 0x7e50

echo "== mir line-mutation fuzz (20 000 cases through parse -> verify -> translate, no panic) =="
cargo run --release -q -p muir-bench --bin experiments -- fuzz --mir 20000 --seed 0x6d69

echo "== check_lowering + Dense/Ready differential (tiled workload, plain/traced/faulted) =="
cargo test --release -q -p muir-sim --lib ready_
cargo test --release -q -p muir-sim --lib lowering_comparator_sees_every_field

echo "== one hot path (crates/sim/src: no unsafe, no Parallel, one firing body) =="
if grep -rnE 'unsafe|SchedulerKind::Parallel|try_fire_interp|fire_interp|use_uop|slot_scratch' crates/sim/src |
    grep -v 'forbid(unsafe_code)'; then
    echo "check.sh: crates/sim/src must stay free of unsafe code, of a Parallel scheduler and of a second firing body (lines above)" >&2
    exit 1
fi
for f in try_fire fire; do
    n=$(grep -cE "^ *fn $f" crates/sim/src/engine.rs || true)
    if [ "$n" != 1 ]; then
        echo "check.sh: engine.rs must define exactly one \`fn $f…\` (found $n)" >&2
        exit 1
    fi
done
# The reference lowering starts from the graph: only `check_lowering`
# may look at the sealed tables it is compared with.
if sed -e '/^#\[cfg(test)\]/,$d' -e '/^pub fn check_lowering/,/^}/d' crates/sim/src/reference.rs |
    grep -n 'CompiledTask'; then
    echo "check.sh: reference.rs reads the artifact's lowered tables outside check_lowering (lines above)" >&2
    exit 1
fi

echo "== one adjacency (the sealed artifact holds each edge once) =="
# Whole words: `order_in`, `runs_in_order` and `df.edge_index()` are fine.
if grep -rnwE 'in_data|in_order|mem_clients|conn_queue_depth|EdgeIndex' crates/core/src/compiled.rs crates/sim/src; then
    echo "check.sh: a sealed task lists an edge in in_slots/edge_refs and nowhere else; the engine and the oracle walk those (lines above)" >&2
    exit 1
fi

echo "== one front door (sealed artifacts only: no exec mode, no uncompiled simulate, no compile cache) =="
if grep -rnE 'ExecMode|with_exec|compile_cached|cache_stats|CacheStats|MUIR_COMPILE_CACHE_CAP|pub fn simulate(_batch)?\(' \
    crates src tests examples; then
    echo "check.sh: muir-sim has one door — CompiledAccel::compile, then simulate_compiled / simulate_batch_compiled (lines above)" >&2
    exit 1
fi

echo "== one memory image (typed words; obj lines decode straight into them) =="
if grep -rn 'Vec<Vec<Value>>' crates src tests examples; then
    echo "check.sh: a memory image is one ObjectImage (kind + Vec<u64>) per object, never a Vec<Value> (lines above)" >&2
    exit 1
fi
# A firing copies words between the image and its tokens.
if grep -nE '\.(load|store)\(' crates/sim/src/engine.rs; then
    echo "check.sh: engine.rs reads Memory::words and writes Memory::store_words; load/store build a Value per element (lines above)" >&2
    exit 1
fi
# decode_eval's obj path is take_obj and the two parsers under it; the
# Value-token helpers of the results line stay out of it.
if ! grep -q 'objects.push(take_obj(' crates/store/src/codec.rs ||
    sed -n '/^fn parse_i64/,/^\/\/\/ Encode a \[`StoredEval`\]/p' crates/store/src/codec.rs |
    grep -nE 'parse_values?|counted|Value::'; then
    echo "check.sh: decode_eval must parse obj lines straight into words (take_obj), building no Value (lines above)" >&2
    exit 1
fi

echo "== one token payload (engine.rs: Value lists at the door only) =="
# A token is a `flat::Word`; what a firing touches follows it. `Value`
# comes in with the root arguments and goes out with the results.
door_in='// ---- the door: root arguments in'
door_out='// ---- the door: results out'
if [ "$(grep -cF -e "$door_in" -e "$door_out" crates/sim/src/engine.rs)" != 2 ]; then
    echo "check.sh: engine.rs must keep its two door markers (\`$door_in\`, \`$door_out\`)" >&2
    exit 1
fi
if sed "\\|$door_in|,\\|$door_out|d" crates/sim/src/engine.rs |
    grep -nE 'val: Value|Vec<Value>|Option<Value>|Vec<Vec<Value>>'; then
    echo "check.sh: engine.rs holds a Value outside the door; tokens, scratch, arguments and results are flat::Word (lines above; numbered without the door)" >&2
    exit 1
fi

echo "== one wake clock (engine.rs: one calendar, one NodeDone site, one in-flight push) =="
# A fixed-latency firing stamps its tokens and wakes their consumers for
# the stamp's cycle; only a Load, Store or TaskCall completes by event.
if grep -nE 'IN_NEXT|IN_FUTURE|next: Vec' crates/sim/src/engine.rs; then
    echo "check.sh: engine.rs keeps its wakes in the calendar (ReadySet::cal, far), not in per-container lists and bits (lines above)" >&2
    exit 1
fi
# Every mention but the pattern of dispatch_event's match arm.
n=$(grep -F 'Ev::NodeDone(' crates/sim/src/engine.rs | grep -cvE '^ *Ev::NodeDone\([a-z_]+\) =>' || true)
if [ "$n" != 1 ]; then
    echo "check.sh: engine.rs must construct Ev::NodeDone at exactly one site, book_firing's event path (found $n)" >&2
    exit 1
fi
n=$(grep -cE 'let vis = .*u64::MAX' crates/sim/src/engine.rs || true)
m=$(grep -cE 'vis: u64::MAX' crates/sim/src/engine.rs || true)
if [ "$n" != 1 ] || [ "$m" != 1 ]; then
    echo "check.sh: engine.rs pushes a token in flight (vis = u64::MAX) from one branch of fire, and names that visibility otherwise only in Token::EMPTY (found $n, $m)" >&2
    exit 1
fi

echo "== outcomes vs scripts/outcomes.golden (24 workloads x baseline/best_stack x Dense/Ready x plain/traced/faulted) =="
cargo run --release -q -p muir-bench --bin experiments -- outcomes >target/outcomes.txt
cmp target/outcomes.txt scripts/outcomes.golden
echo "288 outcomes identical to the parent-written golden file"

echo "== check_lowering + Dense/Ready differential (24 registry workloads, plain/traced/faulted) =="
cargo test --release -q -p muir-bench --test scheduler_diff every_scheduler_matches_dense_on_every_workload

echo "== one JSON module (crates/: one escaper, no second scoreboard) =="
if grep -rnE 'fn (esc|json_)' crates --include='*.rs' | grep -v '^crates/core/src/json\.rs:'; then
    echo "check.sh: JSON escaping and writing belong to crates/core/src/json.rs alone (lines above)" >&2
    exit 1
fi
# The pattern is split so that this script does not match itself.
if grep -rn 'BENCH''_sim' crates scripts Cargo.toml benchmark/Cargo.toml; then
    echo "check.sh: the retired second scoreboard is still named (lines above); host time is benchmark/'s" >&2
    exit 1
fi

echo "== telemetry zero-perturbation guard (metrics on == off, all workloads) =="
cargo test --release -q -p muir-bench --test telemetry

echo "== metrics gate (merged trace + snapshot vs scripts/*_schema.json) =="
cargo run --release -q -p muir-bench --bin experiments -- metrics GEMM target/metrics-check

echo "== dse smoke gate (2 workloads, determinism across threads + warm store, schema) =="
rm -rf target/dse-check
cargo run --release -q -p muir-bench --bin experiments -- dse \
    --workload "RELU[T]" --workload "CONV[T]" --budget 8 --threads 1 \
    --store target/dse-check/store --out target/dse-check/cold.json
cargo run --release -q -p muir-bench --bin experiments -- dse \
    --workload "RELU[T]" --workload "CONV[T]" --budget 8 --threads 2 \
    --store target/dse-check/store --out target/dse-check/warm.json
cmp target/dse-check/cold.json target/dse-check/warm.json
echo "dse reports byte-identical across threads 1/2 and cold/warm store"

echo "== hashing is structural (no Debug/format! rendering in the hash functions) =="
# The non-test part of the sim hashing module, and ContentHasher +
# content_hash in the core crate.
if {
    sed '/^#\[cfg(test)\]/,$d' crates/sim/src/hashing.rs
    sed -n '/^pub struct ContentHasher/,/^pub fn forward_topo/p' crates/core/src/compiled.rs
} | grep -nE ':#?\?\}|format!|write!\(|to_string\('; then
    echo "check.sh: a hash function renders text (lines above)" >&2
    exit 1
fi

echo "== benchmark crate (own tests + smoke run of all five workloads) =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml
benchmark/run.sh --smoke

echo "check.sh: OK"
