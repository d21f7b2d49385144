#!/usr/bin/env bash
# Build the benchmark and run it. Works from any directory.
#
#   run.sh [--seed N] [--seconds S] [--repeat N]   every workload, end to end
#   run.sh --trace                                 ... plus the traced run (per-layer)
#   run.sh --smoke                                 1 warm-up + 3 rounds each, < 30 s
#   run.sh --compare A.json B.json                 hold results B against results A
#   run.sh --workload W --seed N --seconds S --trace 0|1    one run; last line is JSON
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the current
# directory, so build and look for the binary without changing it.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/muir-benchmark" --out "$here/out" "$@"
