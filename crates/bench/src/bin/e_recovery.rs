//! E-REC — recovery time vs log size, with and without a checkpoint.
//!
//! A durable [`Db`] applies a seeded curation schedule of N ops (ingests
//! with duplicates and cross-references, kv transactions, enrichment
//! writes, link-discovery sweeps), then shuts down cleanly. The
//! experiment measures `Db::open` — snapshot install plus committed-log
//! replay — as the log grows, in two variants per size:
//!
//! * **raw replay** — no checkpoint: every committed record re-runs the
//!   full curation pipeline (ER comparisons included), so open time grows
//!   linearly with the log;
//! * **checkpointed** — one `Db::checkpoint()` before shutdown: recovery
//!   installs the materialized snapshot (rows adopt their final entity
//!   assignments wholesale — no similarity comparisons) and replays an
//!   empty suffix, so open time stays flat.
//!
//! Each (ops × checkpoint) configuration is one table row (ops,
//! checkpoint flag, log bytes on disk, open wall ms, records replayed,
//! snapshot rows, txns discarded). The timing record is the benchmark's
//! `recover.reopen` workload (`BENCH_<pr>.json`, `perf/run.sh`):
//! `op_p50_ms` is the checkpointed open and `setup_s` includes a raw
//! replay. `--smoke` runs one size and *asserts* by
//! counts alone (stable on a 1-core box): the checkpointed open replays
//! no record, runs no ER comparison, and reinstalls every live row, and
//! the snapshot stays within its pinned bytes per live row.

use scdb_bench::{apply_curation_op, banner, time_ms, Table};
use scdb_core::{Db, DurabilityConfig, FsyncPolicy};
use scdb_datagen::crash::{crash_schedule, ScheduleConfig};

const SIZES: &[usize] = &[250, 500, 1000, 2000];

/// Schedule length of the `--smoke` gate.
const SMOKE_OPS: usize = 500;

/// Snapshot bytes per live row of the `--smoke` checkpoint (bytes over
/// live rows), pinned at its exact value so that no second copy of the
/// rows creeps back into the snapshot. The schedule's 390 rows resolve
/// into 59 entities joined by 122 edges, so the snapshot carries that
/// many `Node` and `Edge` frames and an identity per entity, plus one
/// `Symbols` frame; the names registered to entities are rebuilt from
/// the rows, not stored (51 040 B while they were). (While the
/// schedule's pool names chained into one entity, the same checkpoint
/// held one node, no edge, and 38 299 B.)
const SMOKE_SNAPSHOT_BYTES_PER_ROW: f64 = 48_910.0 / 390.0;

struct RunResult {
    log_bytes: u64,
    open_ms: f64,
    records_replayed: usize,
    snapshot_rows: usize,
    txns_discarded: usize,
    /// Records the database held when it was closed.
    live_rows: u64,
    /// Bytes of the checkpoint's snapshot (`txn.checkpoint.snapshot_bytes`);
    /// 0 without one.
    snapshot_bytes: u64,
    /// `er.comparisons` counted during the reopen.
    open_comparisons: u64,
    /// Graph nodes and edges of the reopened database.
    nodes: usize,
    edges: usize,
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn run(ops: usize, checkpoint: bool) -> RunResult {
    let dir = std::env::temp_dir().join(format!(
        "scdb-e-rec-{}-{ops}-{checkpoint}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let schedule = crash_schedule(
        &ScheduleConfig {
            ops,
            sources: 3,
            entity_pool: 64,
            link_rate: 0.3,
            kv_rate: 0.2,
            checkpoint_every: None,
            ..ScheduleConfig::default()
        },
        0xEEC,
    );
    let snapshot_counter = scdb_obs::metrics().counter("txn.checkpoint.snapshot_bytes");
    let snapshot_before = snapshot_counter.get();
    let live_rows = {
        // EveryN batches fsyncs so building the log is not the bottleneck;
        // the clean Drop syncs the tail.
        let db = Db::builder()
            .durability_config(DurabilityConfig::dir(&dir).fsync(FsyncPolicy::EveryN(32)))
            .open()
            .expect("open fresh log");
        for op in &schedule {
            apply_curation_op(&db, op).expect("apply op");
        }
        if checkpoint {
            db.checkpoint().expect("checkpoint");
        }
        db.stats().records
    };
    let snapshot_bytes = snapshot_counter.get() - snapshot_before;
    let log_bytes = dir_bytes(&dir);
    let comparisons = scdb_obs::metrics().counter("er.comparisons");
    let comparisons_before = comparisons.get();
    let (db, open_ms) = time_ms(|| Db::open(&dir).expect("recover"));
    let report = db.recovery_report().expect("durable open has a report");
    let (nodes, edges) = {
        let graph = db.graph();
        let nodes: Vec<_> = graph.node_ids().collect();
        let edges = nodes.iter().map(|&v| graph.edges(v).len()).sum();
        (nodes.len(), edges)
    };
    let result = RunResult {
        log_bytes,
        open_ms,
        records_replayed: report.records_replayed,
        snapshot_rows: report.snapshot_rows,
        txns_discarded: report.txns_discarded,
        live_rows,
        snapshot_bytes,
        open_comparisons: comparisons.get() - comparisons_before,
        nodes,
        edges,
    };
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Count-only gate: a checkpointed open replays nothing, compares
/// nothing, and reinstalls every live row. The raw-replay control proves
/// the comparison counter is live, so the zero is not vacuous.
fn smoke() -> i32 {
    let raw = run(SMOKE_OPS, false);
    let ckpt = run(SMOKE_OPS, true);
    let mut failures = Vec::new();
    if raw.records_replayed == 0 || raw.open_comparisons == 0 {
        failures.push(format!(
            "raw replay replayed {} records with {} comparisons (want both > 0)",
            raw.records_replayed, raw.open_comparisons
        ));
    }
    if ckpt.records_replayed != 0 {
        failures.push(format!(
            "checkpointed open replayed {} records (want 0)",
            ckpt.records_replayed
        ));
    }
    if ckpt.open_comparisons != 0 {
        failures.push(format!(
            "checkpointed open ran {} ER comparisons (want 0)",
            ckpt.open_comparisons
        ));
    }
    if ckpt.live_rows == 0 || ckpt.snapshot_rows as u64 != ckpt.live_rows {
        failures.push(format!(
            "snapshot reinstalled {} rows, the database held {}",
            ckpt.snapshot_rows, ckpt.live_rows
        ));
    }
    // The open replays no record (above), so its graph is what the
    // snapshot's `Node` and `Edge` frames installed, one per frame.
    println!(
        "smoke: checkpoint installed {} Node and {} Edge frame(s)",
        ckpt.nodes, ckpt.edges
    );
    if ckpt.nodes <= 1 || ckpt.edges == 0 {
        failures.push(format!(
            "checkpoint holds {} node(s) and {} edge(s) (want > 1 and > 0)",
            ckpt.nodes, ckpt.edges
        ));
    }
    let per_row = ckpt.snapshot_bytes as f64 / ckpt.live_rows.max(1) as f64;
    println!(
        "smoke: snapshot {} B for {} live rows = {per_row:.2} B/row \
         (pinned {SMOKE_SNAPSHOT_BYTES_PER_ROW:.2})",
        ckpt.snapshot_bytes, ckpt.live_rows
    );
    if ckpt.snapshot_bytes == 0 || per_row > SMOKE_SNAPSHOT_BYTES_PER_ROW {
        failures.push(format!(
            "snapshot is {per_row:.2} B per live row (want > 0 and <= \
             {SMOKE_SNAPSHOT_BYTES_PER_ROW:.2})"
        ));
    }
    for f in &failures {
        println!("SMOKE FAIL: {f}");
    }
    if failures.is_empty() {
        println!(
            "smoke: checkpointed open reinstalled {} of {} rows, replayed 0 records, \
             0 comparisons (raw replay: {} records, {} comparisons) OK",
            ckpt.snapshot_rows, ckpt.live_rows, raw.records_replayed, raw.open_comparisons
        );
        0
    } else {
        1
    }
}

fn main() {
    banner(
        "E-REC",
        "durability & recovery (DESIGN.md §9): open time vs log size",
        "raw replay re-curates every committed record (linear); a checkpoint \
         snapshot makes recovery flat regardless of history length",
    );
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let mut table = Table::new(&[
        "ops",
        "checkpoint",
        "log_bytes",
        "open_ms",
        "replayed",
        "snapshot_rows",
        "discarded",
    ]);
    for &ops in SIZES {
        for checkpoint in [false, true] {
            let r = run(ops, checkpoint);
            table.row(&[
                ops.to_string(),
                checkpoint.to_string(),
                r.log_bytes.to_string(),
                format!("{:.1}", r.open_ms),
                r.records_replayed.to_string(),
                r.snapshot_rows.to_string(),
                r.txns_discarded.to_string(),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!("shape check: without a checkpoint, open_ms grows with ops (records_replayed ≈ log");
    println!("records); with one, records_replayed is ~0 and open_ms stays flat as the history");
    println!("doubles — the snapshot adopts final entity assignments instead of re-resolving.");
}
