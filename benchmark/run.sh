#!/usr/bin/env bash
# Builds the benchmark and the `cgra-serve` daemon from this checkout, then
# runs one workload:
#
#   bash benchmark/run.sh --workload <table2-sweep|route-min|serve-mixed> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run state
# (work fingerprints, span files, scratch cache segments) to
# $CARGO_TARGET_DIR/bench-state. The last line of standard output is the
# run's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
cargo build --release --offline --quiet -p cgra-serve --bin cgra-serve >&2
exec "$target/release/cgra-benchmark" \
    --serve-bin "$target/release/cgra-serve" \
    --state-dir "$target/bench-state" "$@"
