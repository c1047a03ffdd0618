#!/bin/sh
# Build callpath-serve and the benchmark from source, then run one
# workload from the root of the checkout:
#
#   bash perfbench/run.sh --workload views-100k --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
#
# The program's worker pool runs one thread (CALLPATH_THREADS=1): on a
# shared 2-core host a second pool thread made each parallel step take
# either t or 2t, depending on whether the other core was free.
set -eu
here=$(dirname "$0")
: "${CARGO_TARGET_DIR:=.bench_build}"
export CARGO_TARGET_DIR
export CALLPATH_THREADS=1
cargo build --release --offline --quiet --manifest-path "$here/../Cargo.toml" --bin callpath-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
