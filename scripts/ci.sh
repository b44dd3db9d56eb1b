#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests — all offline (no registry
# access; every external crate is a workspace shim under compat/).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test -q"
cargo test -q --offline

echo "== crash matrix (release)"
cargo test -q --offline --release -p scdb-bench --test durability_crash_matrix

echo "== cargo test -q --release"
cargo test -q --offline --release

echo "== group-commit ingest smoke (release)"
# Asserts the fsync amortization (>= 8x fewer fsyncs/row at batch 64
# under FsyncPolicy::Always) and the range-sharded write path: with four
# concurrent writers, 4 shards must beat 1 shard on instance-lock wait
# p99 while the 1-shard baseline actually contends — telemetry counts
# and lock-wait histograms, not wall clock, stable on 1-core boxes.
cargo run -q --offline --release -p scdb-bench --bin e_ingest_throughput -- --smoke

echo "== secondary index smoke (release)"
# Asserts the statistics-driven access path: a selective point query
# takes the index scan, returns rows identical to the full scan, and
# touches >= 100x fewer rows — count checks, stable on 1-core boxes.
cargo run -q --offline --release -p scdb-bench --bin e_index -- --smoke

echo "== semantic optimization smoke (release)"
# Pins E-T1-OS3's rows / scanned / atom_evals / rewrite counts for all
# five queries under all five optimizer configs: guards short-circuit
# order, unsat pruning and the count-based IS selectivity without a
# clock.
cargo run -q --offline --release -p scdb-bench --bin e_os3_semopt -- --smoke

echo "== telemetry pipeline smoke (release)"
# Asserts the enabled-sampler overhead stays within 5% (+ fixed slack)
# of the telemetry-off loop, that samples/watches actually fired, and
# that all five commit-stage histograms were observed.
cargo run -q --offline --release -p scdb-bench --bin e_telemetry -- --smoke

echo "== storage-fault resilience smoke (release)"
# Asserts the degraded-mode contract under an injected persistent fsync
# failure: zero failed reads while degraded, every write fails fast
# with CoreError::Degraded (no hung tickets), and the node returns to
# DbMode::Normal without reopening once the fault clears; plus the
# supervisor contract for a committer panic mid-batch.
cargo run -q --offline --release -p scdb-bench --bin e_faults -- --smoke

echo "== checkpointed recovery smoke (release)"
# Asserts by counts that a checkpointed open re-pays no curation: zero
# records replayed, zero ER comparisons, and snapshot_rows equal to the
# live row count (a raw-replay control proves the counter is live); and
# that the snapshot stays within its pinned bytes per live row.
cargo run -q --offline --release -p scdb-bench --bin e_recovery -- --smoke

echo "== incremental entity resolution smoke (release)"
# Pins E-T1-FS1 part 3's first 2k-row window by counts: comparisons and
# context evaluations equal constants captured before identity scoring
# gained its character-multiset ceiling (no decision may move), and that
# ceiling settles >= 90% of the pruned comparisons without an exact
# Jaro-Winkler.
cargo run -q --offline --release -p scdb-bench --bin e_fs1_er -- --smoke

echo "== system catalog smoke (release)"
# Asserts the fully-observed loop (metrics + events + monitoring-cadence
# sys.* polling) stays within 5% (+ fixed slack) of the unobserved loop,
# that every relation listed in sys.relations answers SELECT *, and that
# a real acked batch's correlation id joins to its complete
# flush -> append -> fsync -> apply journey in sys.events.
cargo run -q --offline --release -p scdb-bench --bin e_syscat -- --smoke

echo "== benchmark package gate (release)"
# perf/ is a package of its own (it builds into .bench_build/): format,
# clippy -D warnings, and the counts-only smoke run of all seven
# workloads with their output checks. Proves the surface the benchmark
# compiles against still exists; timings are judged by
# `perf/run.sh compare`, not here. Building perf/ rewrites
# perf/Cargo.lock (cargo drops the entries of crates the workspace no
# longer has), so the lock file is saved first and put back afterwards,
# on failure too (the subshell's EXIT trap), leaving the frozen package
# as it was found.
(
    perf_lock=$(mktemp)
    cp perf/Cargo.lock "$perf_lock"
    trap 'cp "$perf_lock" perf/Cargo.lock; rm -f "$perf_lock"' EXIT
    perf/check.sh
)

echo "== flight recorder event dump (release)"
# The sweep validates its own dump against scdb_obs::EVENT_KINDS: every
# line a JSON object, seq strictly increasing, every (subsystem, kind)
# known, and the batch_id contract; it exits non-zero on any problem.
mkdir -p target/experiments
cargo run -q --offline --release -p scdb-bench --bin run_all_experiments -- \
    --events-jsonl target/experiments/events.jsonl

echo "== ci green"
