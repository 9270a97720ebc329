#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
#
# The binary is started as a child of this shell, not through `cargo run`:
# cargo execs the program it runs, so the program would inherit cargo's
# reaped children (rustc, hundreds of MiB) in its own getrusage accounting
# and report them as the peak memory of the ranks it spawns.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
"$target/release/e2e" "$@"
