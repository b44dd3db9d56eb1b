#!/usr/bin/env bash
# Gate for the perf package alone: format, lints as errors, smoke.
# Not wired into scripts/ci.sh yet (that file is outside perf/).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo fmt --manifest-path perf/Cargo.toml -- --check
cargo clippy --offline --release --manifest-path perf/Cargo.toml --all-targets -- -D warnings
perf/run.sh --smoke
