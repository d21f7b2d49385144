#!/bin/sh
# Repo hygiene gate: formatting, lints on every workspace crate, the
# tier-1 test suite (`cargo test -q`: every workspace crate, its full
# registry sweeps left to the release stages below; the sealed-artifact
# determinism check — translate and seal twice, identical hash and size;
# no-op pass pipeline, hash unchanged — is tests/frontend_pins.rs), the
# trace-exporter schema gate, the storage fault campaign
# (4 injected fault classes x plain/sim-faulted differential), three
# `experiments fuzz <target>` stages over the one fuzz driver in
# crates/bench/src/testgen.rs — `graphs` (30 seeded graphs:
# check_lowering, Dense/Ready plain/traced/faulted, the interpreter),
# then the tensor-lowering differential gate (text-parsed vs API-built
# GEMM/CONV-shaped graphs bit-identical in cycles and end-state hash,
# numerics matching the hand-built workloads), `tensor` (10 seeded
# frontend graphs through lower -> seal -> sim, plain/traced/faulted) and
# `mir` (20 000 seeded edits of the printed registry modules through
# parse -> verify -> translate: each stage may refuse a case with its
# typed error, none may panic), the scheduler differential (sealed tables
# held to the reference lowering, then Ready vs the Dense oracle over the
# same artifact, plain, traced and faulted: a tiled workload in muir-sim,
# then all 24 registry workloads), the one-differential gate (under
# crates/bench/src and tests/, only crates/bench/src/sched.rs names
# `SchedulerKind::Dense`), the one-hot-path gate (under crates/sim/src:
# no `unsafe`, no `SchedulerKind::Parallel`, no second firing body — one
# `fn try_fire` and one `fn fire` in engine.rs and engine/ — and a reference lowering
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
# the one-token-payload gate (under crates/sim/src/engine.rs and engine/,
# `Value` is named in engine/door.rs only: root arguments in, results
# out), the one-wake-clock gate (engine.rs and engine/ keep one wake
# calendar keyed by cycle — no `next` list, no `future` heap, no membership
# bits; its `cal` field and the one occupancy mask beside it and the event
# ring are each defined once, and no loop walks
# `0..self.tile_due.len()`; no far heap beside the calendar or the event
# ring, since the verifier holds every unit inside their horizon —
# schedules `Ev::NodeDone` from one site and pushes an in-flight token
# from one branch: every other firing stamps),
# the cross-commit outcomes gate
# (`experiments outcomes` — every registry workload x baseline/best_stack x
# Dense/Ready x plain/traced/faulted, cycles and hashes or the error's text —
# against scripts/outcomes.golden, which the parent of the last engine
# change wrote), the one-JSON-module gate (under crates/: string escaping and the `json_*`
# helpers live in crates/core/src/json.rs only, and the retired second
# scoreboard is named by no source, script or manifest), the
# retired-names gate (no `RetryPolicy`, `max_attempts`, `period_ns`,
# `deadline_cycles`, `min_child_depth` or `max_elems` under crates/ src/
# tests/ examples/ and no `is_transient` under crates/sim: one clock, no
# service deadline or retry, no knob no caller sets; no `coalesced` in
# crates/bench/src/dse.rs: one job per artifact), the
# interpreter gate (crates/mir/src/interp.rs clones neither a block's
# instruction list nor an instruction), the one-timing-table gate (no
# `BinOp::…`/`UnOp::…` arm mapped to a latency literal under
# crates/baselines/src: the HLS model reads hw::op_timing), the
# one-count-per-fact gate
# (under crates/, a `service.*`, `store.*` or `dse.*` fact reaches the
# registry only through crates/bench/src/telemetry_gate.rs,
# which reads the stats structs at capture time, and the registry in
# crates/core/src/telemetry.rs holds plain values: no `AtomicU64`, no
# `Arc`), the one-verifier / one-emitter-buffer gate (`fn
# verify_accelerator` is defined once, in crates/core/src/verify.rs, whose
# non-test part names no `HashMap`, `HashSet` or `BTreeMap`; the non-test
# part of crates/rtl/src/chisel.rs writes into its one buffer and has no
# `format!(`), the telemetry zero-perturbation guard and store
# determinism gate (seal + cold/warm service drains with metrics on vs
# off bit-identical on every workload, and the "on" leg must record;
# every warm job a store hit with no simulation attempt, a read-side bit
# flip surfacing an `E-STORE-*` warning and recomputing the same end
# state, the repaired entry hitting again; the ignored full sweep), the
# metrics gate (one instrumented GEMM capture whose
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
    for crate in muir-core muir-mir muir-frontend muir-sim muir-uopt muir-rtl muir-workloads muir-store muir-baselines muir-bench muir; do
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

echo "== storage fault campaign (4 classes x plain/sim-faulted) =="
cargo run --release -q -p muir-bench --bin experiments -- store-campaign target/store-campaign-check

echo "== fuzz graphs (30 seeded graphs, check_lowering + Dense/Ready x plain/traced/faulted + interpreter) =="
cargo run --release -q -p muir-bench --bin experiments -- fuzz graphs 30 --seed 0xc1

echo "== tensor-lowering differential gate (frontend vs hand-built GEMM/CONV) =="
cargo run --release -q -p muir-bench --bin experiments -- tensor --gate

echo "== fuzz tensor (10 seeded graphs through the frontend, Dense/Ready x plain/traced/faulted) =="
cargo run --release -q -p muir-bench --bin experiments -- fuzz tensor 10 --seed 0x7e50

echo "== fuzz mir (20 000 line mutations through parse -> verify -> translate, no panic) =="
cargo run --release -q -p muir-bench --bin experiments -- fuzz mir 20000 --seed 0x6d69

echo "== check_lowering + Dense/Ready differential (tiled workload, plain/traced/faulted) =="
cargo test --release -q -p muir-sim --lib ready_
cargo test --release -q -p muir-sim --lib lowering_comparator_sees_every_field

echo "== one hot path (crates/sim/src: no unsafe, no Parallel, one firing body) =="
if grep -rnE 'unsafe|SchedulerKind::Parallel|try_fire_interp|fire_interp|use_uop|slot_scratch' crates/sim/src |
    grep -v 'forbid(unsafe_code)'; then
    echo "check.sh: crates/sim/src must stay free of unsafe code, of a Parallel scheduler and of a second firing body (lines above)" >&2
    exit 1
fi
# The engine is engine.rs and its child modules under engine/.
engine="crates/sim/src/engine.rs crates/sim/src/engine"
for f in try_fire fire; do
    n=$(grep -rhE "^ *fn $f" $engine | grep -c . || true)
    if [ "$n" != 1 ]; then
        echo "check.sh: engine.rs and engine/ must define exactly one \`fn $f…\` (found $n)" >&2
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
if grep -rnE '\.(load|store)\(' $engine; then
    echo "check.sh: engine.rs and engine/ read Memory::words and write Memory::store_words; load/store build a Value per element (lines above)" >&2
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

echo "== one token payload (engine.rs and engine/: Value at the door only) =="
# A token is a `flat::Word`; what a firing touches follows it. `Value`
# comes in with the root arguments and goes out with the results, in
# engine/door.rs.
if grep -rnw 'Value' $engine | grep -v '^crates/sim/src/engine/door\.rs:'; then
    echo "check.sh: the engine names a Value outside engine/door.rs; tokens, scratch, arguments and results are flat::Word (lines above)" >&2
    exit 1
fi

echo "== one wake clock (engine.rs and engine/: one calendar, one NodeDone site, one in-flight push) =="
# A fixed-latency firing stamps its tokens and wakes their consumers for
# the stamp's cycle; only a Load, Store or TaskCall completes by event.
if grep -rnE 'IN_NEXT|IN_FUTURE|next: Vec' $engine; then
    echo "check.sh: the engine keeps its wakes in the calendar (Calendar::cal), not in per-container lists and bits (lines above)" >&2
    exit 1
fi
# Node visits and tile ticks are marked in one calendar type, and it and
# the event ring share one occupancy mask over one horizon: the calendar's
# slots and the mask are declared once, and phase 4 drains the calendar
# instead of reading every tile's `tile_due` entry.
for field in 'cal: Vec<' 'occupied: u32,'; do
    n=$(grep -rhE "^ *$field" $engine | grep -c . || true)
    if [ "$n" != 1 ]; then
        echo "check.sh: engine.rs and engine/ must declare \`$field\` exactly once, in \`struct Calendar\` or \`struct Occupancy\` (found $n)" >&2
        exit 1
    fi
done
# Every mark and every event is due inside the horizon (the verifier
# refuses a unit that reaches it), so neither the calendar nor the event
# ring keeps a far heap.
n=$(grep -rhE 'far:[[:space:]]*BinaryHeap<' $engine | grep -c . || true)
if [ "$n" != 0 ] || grep -rnE 'EvAt|ev_far|ev_seq|mark_far|promote_far|EV_HORIZON|CAL_HORIZON' $engine; then
    echo "check.sh: the engine keeps no far heap beside its calendar or event ring (found $n \`far: BinaryHeap<\` fields; other lines above)" >&2
    exit 1
fi
if grep -rnF '0..self.tile_due.len()' $engine; then
    echo "check.sh: phase 4 takes its tiles from the tile calendar (tile_cal), not from a walk over tile_due (lines above)" >&2
    exit 1
fi
# Every mention but the pattern of dispatch_event's match arm.
n=$(grep -rhF 'Ev::NodeDone(' $engine | grep -cvE '^ *Ev::NodeDone\([a-z_]+\) =>' || true)
if [ "$n" != 1 ]; then
    echo "check.sh: the engine must construct Ev::NodeDone at exactly one site, book_firing's event path (found $n)" >&2
    exit 1
fi
n=$(grep -rhE 'let vis = .*u64::MAX' $engine | grep -c . || true)
m=$(grep -rhE 'vis: u64::MAX' $engine | grep -c . || true)
if [ "$n" != 1 ] || [ "$m" != 1 ]; then
    echo "check.sh: the engine pushes a token in flight (vis = u64::MAX) from one branch of fire, and names that visibility otherwise only in Token::EMPTY (found $n, $m)" >&2
    exit 1
fi

echo "== outcomes vs scripts/outcomes.golden (24 workloads x baseline/best_stack x Dense/Ready x plain/traced/faulted) =="
cargo run --release -q -p muir-bench --bin experiments -- outcomes >target/outcomes.txt
cmp target/outcomes.txt scripts/outcomes.golden
echo "288 outcomes identical to the parent-written golden file"

echo "== check_lowering + Dense/Ready differential (24 registry workloads, plain/traced/faulted; full sweep) =="
cargo test --release -q -p muir-bench --test scheduler_diff -- --include-ignored

echo "== one differential (crates/bench/src, tests/: Dense is run in sched.rs only) =="
if grep -rn 'SchedulerKind::Dense' crates/bench/src tests | grep -v '^crates/bench/src/sched\.rs:'; then
    echo "check.sh: Ready is compared with the Dense oracle by muir_bench::sched::dense_vs_ready alone (lines above)" >&2
    exit 1
fi

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

echo "== retired names (no retry, no second clock, no unset knob, no DSE coalesced count) =="
# A job runs once on its own budget, every unit is timed at the one
# clock, the passes' fixed limits are constants, and a DSE group submits
# one job, so nothing is left to retry, clock, set or coalesce.
if grep -rnwE 'RetryPolicy|max_attempts|period_ns|deadline_cycles|min_child_depth|max_elems' crates src tests examples ||
    grep -rnw 'is_transient' crates/sim ||
    grep -nw 'coalesced' crates/bench/src/dse.rs; then
    echo "check.sh: a job runs once on its own budget, the clock is hw::BASELINE_PERIOD_NS, the passes' limits are constants and dse::explore submits one job per artifact; the retired names are back (lines above)" >&2
    exit 1
fi

echo "== interpreter reads in place (crates/mir/src/interp.rs: no block or instruction clones) =="
# exec_from borrows blocks and instructions through the frame's function
# and reuses one phi buffer; a clone per block entry or per executed
# instruction is what made a reference run allocate per step.
if grep -nE 'instrs\.clone\(\)|\.instr\([^)]*\)\.clone\(\)' crates/mir/src/interp.rs; then
    echo "check.sh: the reference interpreter clones a block's instruction list or an instruction (lines above)" >&2
    exit 1
fi

echo "== one timing table (crates/baselines/src: no per-op latency arm) =="
# The HLS baseline reads every compute op's latency from hw::op_timing;
# only the costs HLS alone has (memory, tensor macro, hand-off) are its own.
if grep -rnE '(BinOp|UnOp)::[A-Za-z]+\)* *=> *[0-9]' crates/baselines/src; then
    echo "check.sh: a baseline copies a latency of muir_core::hw::op_timing (lines above)" >&2
    exit 1
fi

echo "== one count per fact (crates/: service/store/dse facts reach the registry through telemetry_gate.rs only) =="
if grep -rnE '(count|gauge_set)\((&format!\()?"(service|store|dse)\.' crates --include='*.rs' |
    grep -v '^crates/bench/src/telemetry_gate\.rs:'; then
    echo "check.sh: a service/store/dse fact is counted in its stats struct and bridged by telemetry_gate::record_stats, never counted live (lines above)" >&2
    exit 1
fi
if grep -nwE 'AtomicU64|Arc' crates/core/src/telemetry.rs; then
    echo "check.sh: the telemetry registry holds plain values behind its mutex; no per-metric atomics or handles (lines above)" >&2
    exit 1
fi

echo "== one graph verifier, one emitter buffer (verify.rs: no hash maps; chisel.rs: no format!) =="
defs=$(grep -rnE 'fn verify_accelerator\b' crates src tests examples --include='*.rs' || true)
if [ "$(printf '%s\n' "$defs" | grep -c .)" != 1 ] || ! printf '%s\n' "$defs" | grep -q '^crates/core/src/verify\.rs:'; then
    printf '%s\n' "$defs" >&2
    echo "check.sh: verify_accelerator must be defined exactly once, in crates/core/src/verify.rs (definitions above)" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/verify.rs | grep -nwE 'HashMap|HashSet|BTreeMap'; then
    echo "check.sh: the verifier works over dense per-task tables and sorted vectors, not hash or tree maps (lines above)" >&2
    exit 1
fi
if sed '/^#\[cfg(test)\]/,$d' crates/rtl/src/chisel.rs | grep -nF 'format!('; then
    echo "check.sh: emit_chisel appends into its one String; a format! allocates a second one (lines above)" >&2
    exit 1
fi

echo "== telemetry zero-perturbation guard + store determinism (metrics on == off, cold/warm/post-fault, all workloads; full sweep) =="
cargo test --release -q -p muir-bench --test telemetry -- --include-ignored

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
