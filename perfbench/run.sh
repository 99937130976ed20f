#!/usr/bin/env bash
# Builds the daemon (`stashd`, from the repository's workspace) and the
# benchmark, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload matrix|long-sim|checkpoint|serve \
#       --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark finds stashd beside its own binary there.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p bench --bin stashd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
