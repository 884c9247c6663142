#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it; arguments go to `perf`
# (see README.md). Run from anywhere: paths resolve against the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/perf}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perf" "$@"
