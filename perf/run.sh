#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it from the repository
# root. See perf/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
export SCDB_PERF_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SCDB_PERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/scdb-perf" "$@"
