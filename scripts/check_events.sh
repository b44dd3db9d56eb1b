#!/usr/bin/env bash
# Validate a flight-recorder JSONL dump (run_all_experiments
# --events-jsonl): every line parses as a JSON object, `seq` is
# strictly increasing down the file, every `subsystem` tag belongs to
# the documented vocabulary (DESIGN.md §7), and every `kind` belongs to
# that subsystem's known event kinds — a new emission site must be
# added here (and to DESIGN.md) before it ships.
#
# Usage: scripts/check_events.sh <events.jsonl>
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <events.jsonl>" >&2
    exit 2
fi

python3 - "$1" <<'PY'
import json
import sys

KNOWN_SUBSYSTEMS = {"core", "txn", "query", "storage", "er", "obs", "lock"}

# Per-subsystem event kinds (keep in sync with the emission sites; grep
# for `scdb_obs::event(` / `record_with_message(`).
KNOWN_KINDS = {
    "core": {
        "ingest",
        "ingest.stages",
        "recovery.snapshot",
        "recovery.complete",
        "checkpoint.serialize",
        "checkpoint.complete",
        "index.create",
        "index.drop",
        "index.advise",
        "mode.degrade",
        "mode.recover",
        "thread.panic",
        "thread.restart",
        "shard.map",
        "shard.recovery",
        "shard.seal",
    },
    "txn": {
        "recovery.snapshot",
        "recovery.snapshot_drop",
        "recovery.segment",
        "recovery.truncated",
        "recovery.scan",
        "group_commit.flush",
        "wal.append",
        "wal.fsync",
        "segment.seal",
        "segment.rotate",
        "segment.prune",
        "checkpoint.write",
        "checkpoint.sync",
        "checkpoint.rename",
        "checkpoint.prune",
        "fault.injected",
    },
    "query": {"scan.parallel", "slow", "index.scan"},
    "storage": {"cluster.build"},
    "er": {"merge"},
    "obs": {"warn", "watch.fired", "watch.resolved"},
    "lock": {"contended"},
}

path = sys.argv[1]
prev_seq = -1
n = 0
errors = []
with open(path, encoding="utf-8") as fh:
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            errors.append(f"line {lineno}: empty line")
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: not valid JSON: {e}")
            continue
        if not isinstance(ev, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        seq = ev.get("seq")
        if not isinstance(seq, int):
            errors.append(f"line {lineno}: missing integer 'seq'")
        elif seq <= prev_seq:
            errors.append(
                f"line {lineno}: seq {seq} not strictly greater than {prev_seq}"
            )
        else:
            prev_seq = seq
        subsystem = ev.get("subsystem")
        if subsystem not in KNOWN_SUBSYSTEMS:
            errors.append(f"line {lineno}: unknown subsystem {subsystem!r}")
        kind = ev.get("kind")
        if not isinstance(kind, str) or not kind:
            errors.append(f"line {lineno}: missing or empty 'kind'")
        elif subsystem in KNOWN_KINDS and kind not in KNOWN_KINDS[subsystem]:
            errors.append(
                f"line {lineno}: unknown kind {kind!r} for subsystem {subsystem!r}"
            )
        # Correlation-id contract: the batch-scoped WAL events only
        # exist while a batch context is set, so they must carry a
        # positive batch_id; any batch_id anywhere must be a
        # non-negative integer (it joins against sys.events).
        fields = ev.get("fields")
        batch_id = fields.get("batch_id") if isinstance(fields, dict) else None
        if batch_id is not None and (not isinstance(batch_id, int) or batch_id < 0):
            errors.append(f"line {lineno}: malformed batch_id {batch_id!r}")
        if kind in ("wal.append", "wal.fsync") and not (
            isinstance(batch_id, int) and batch_id > 0
        ):
            errors.append(
                f"line {lineno}: {kind} without a positive batch_id: {batch_id!r}"
            )
        if kind == "group_commit.flush" and not isinstance(batch_id, int):
            errors.append(f"line {lineno}: group_commit.flush missing batch_id")
        n += 1

if n == 0:
    errors.append("no events in dump")
for e in errors[:20]:
    print(f"check_events: {e}", file=sys.stderr)
if errors:
    print(f"check_events: {len(errors)} problem(s) in {n} events", file=sys.stderr)
    sys.exit(1)
print(f"check_events: {n} events ok (seq {prev_seq} max)")
PY
