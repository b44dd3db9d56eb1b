//! E-ING — ingest throughput: single-record vs batched vs queued group
//! commit (DESIGN.md §9 "Group commit").
//!
//! The paper's continuous-curation model (FS.1) makes ingest the
//! throughput-critical path, and under `FsyncPolicy::Always` the
//! per-record pipeline pays one fsync per row. Group commit amortizes:
//! `Db::ingest_batch` (and the `DbBuilder::ingest_queue` committer)
//! seals many rows plus one commit record in a single WAL append — one
//! fsync per *batch*.
//!
//! Three modes per fsync policy, at batch sizes {1, 8, 64, 256}:
//!
//! * **single** — `Db::ingest` per record (a group commit of one);
//! * **batch** — explicit `Db::ingest_batch` chunks;
//! * **queued** — `ingest_queue(batch)` + `ingest_async`, submitting a
//!   chunk of tickets and then awaiting them, so the committer sees
//!   full batches.
//!
//! Each configuration is one table row (mode, policy, batch, write
//! shards, rows, wall ms, rows/sec, fsyncs, fsyncs per row from the
//! `txn.wal.fsyncs` counter delta, and the write-shard logs that grew).
//! One more row runs queued group commit over two write shards, the
//! pooled keys spread over both: the database's one committer seals each
//! batch across the shards its rows route to. The timing record is the benchmark's `ingest.bulk`,
//! `ingest.sharded` and `mixed.rw` workloads (`BENCH_<pr>.json`,
//! `perf/run.sh`). `--smoke` runs a
//! small deterministic subset and *asserts* the fsync amortization
//! (≥ 8× fewer fsyncs per row at batch 64 under `Always`, no queued
//! row, at one shard or two, above single-record ingest, and both
//! shards' logs grown by the 2-shard row) — a count check, not a
//! wall-clock check, so it is stable on a 1-core CI box.
//!
//! A fourth axis measures the range-sharded write path (DESIGN.md §14):
//! `--shards 1,2,4` runs four concurrent writers against that many
//! write shards, each writer keeping affinity to one shard so a
//! multi-shard run commits with no cross-writer lock conflicts while
//! the single-shard run serializes every commit (and its fsync) on one
//! instance write lock. The headline number is the instance-lock wait
//! p99 from the `core.lock.instance*.wait_ns` histograms — telemetry,
//! not wall clock — which `--smoke` gates on: 4 shards must beat 1
//! shard, and the 1-shard baseline must actually have contended.
//!
//! Qualitative shape to expect: under `Always` group commit wins big
//! (fsyncs dominate; fsyncs/row drops as 1/batch); under `EveryN(64)`
//! the gap narrows because the policy already amortizes; under
//! `OnCheckpoint` nobody fsyncs, so all modes converge to pipeline
//! cost and the remaining batch win is one lock acquisition + one WAL
//! append per batch instead of per row.

use scdb_core::{Db, DurabilityConfig, FsyncPolicy, IngestConfig};
use scdb_er::normalize::normalize;
use scdb_placement::{PlacementPolicy, ShardMap};
use scdb_types::{Record, Value};
use std::collections::BTreeMap;
use std::path::Path;

use scdb_bench::{banner, time_ms, Table};

const BATCHES: &[usize] = &[1, 8, 64, 256];
const FULL_ROWS: usize = 512;
const SMOKE_ROWS: usize = 128;
const SHARD_AXIS: &[u32] = &[1, 2, 4];
const SHARD_WRITERS: usize = 4;
const SHARD_ROWS_PER_WRITER: usize = 64;
const SHARD_SMOKE_ROWS_PER_WRITER: usize = 24;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Single,
    Batch,
    Queued,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Single => "single",
            Mode::Batch => "batch",
            Mode::Queued => "queued",
        }
    }
}

fn policy_name(policy: FsyncPolicy) -> &'static str {
    match policy {
        FsyncPolicy::Always => "always",
        FsyncPolicy::EveryN(_) => "every64",
        FsyncPolicy::OnCheckpoint => "on_checkpoint",
    }
}

struct RunResult {
    rows: usize,
    ms: f64,
    fsyncs: u64,
    /// Write-shard logs that grew during the timed region.
    logs_grown: usize,
}

impl RunResult {
    fn rows_per_sec(&self) -> f64 {
        if self.ms <= 0.0 {
            0.0
        } else {
            self.rows as f64 / (self.ms / 1000.0)
        }
    }

    fn fsyncs_per_row(&self) -> f64 {
        self.fsyncs as f64 / self.rows.max(1) as f64
    }
}

/// Name `i` of the 64-name pool the rows draw from.
fn pool_name(i: usize) -> String {
    format!("drug-{}", i % 64)
}

/// Deterministic row `i`: a pool name (drives merges), a float, and a
/// cross-reference (drives link discovery) — the same record shape the
/// crash schedules use.
fn record(db: &Db, i: usize) -> Record {
    let name = db.intern("name");
    let dose = db.intern("dose");
    let target = db.intern("ref");
    Record::from_pairs([
        (name, Value::str(pool_name(i))),
        (dose, Value::Float((i % 10) as f64 + 0.5)),
        (target, Value::str(pool_name(i * 7 + 1))),
    ])
}

/// Bytes per write-shard log in `dir`: segment files grouped by the
/// name before their sequence number (`wal-s0`, `wal-s1`, or `wal` for
/// a one-shard database).
fn log_bytes(dir: &Path) -> BTreeMap<String, u64> {
    let mut logs = BTreeMap::new();
    for entry in std::fs::read_dir(dir)
        .expect("read the log directory")
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some((log, _seq)) = name.strip_suffix(".seg").and_then(|n| n.rsplit_once('-')) {
            *logs.entry(log.to_string()).or_default() += entry.metadata().map_or(0, |m| m.len());
        }
    }
    logs
}

fn run(mode: Mode, policy: FsyncPolicy, batch: usize, shards: u32, rows: usize) -> RunResult {
    let dir = std::env::temp_dir().join(format!(
        "scdb-e-ing-{}-{}-{}-{batch}-{shards}",
        std::process::id(),
        mode.name(),
        policy_name(policy)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = Db::builder()
        .durability_config(DurabilityConfig::dir(&dir).fsync(policy))
        .write_shards(shards);
    if mode == Mode::Queued {
        builder = builder.ingest_config(IngestConfig::queued(batch.max(1)));
    }
    let db = builder.open().expect("open fresh log");
    db.register_source("bench", Some("name"));
    let records: Vec<Record> = (0..rows).map(|i| record(&db, i)).collect();
    let logs_before = log_bytes(&dir);
    let fsyncs_before = scdb_obs::metrics().counter("txn.wal.fsyncs").get();
    let ((), ms) = time_ms(|| match mode {
        Mode::Single => {
            for r in records {
                db.ingest("bench", r, None).expect("ingest");
            }
        }
        Mode::Batch => {
            let mut it = records.into_iter();
            loop {
                let chunk: Vec<Record> = it.by_ref().take(batch.max(1)).collect();
                if chunk.is_empty() {
                    break;
                }
                db.ingest_batch("bench", chunk).expect("ingest_batch");
            }
        }
        Mode::Queued => {
            let mut it = records.into_iter();
            loop {
                let chunk: Vec<Record> = it.by_ref().take(batch.max(1)).collect();
                if chunk.is_empty() {
                    break;
                }
                let tickets: Vec<_> = chunk
                    .into_iter()
                    .map(|r| db.ingest_async("bench", r, None).expect("submit"))
                    .collect();
                for t in tickets {
                    t.wait().expect("group commit");
                }
            }
        }
    });
    let fsyncs = scdb_obs::metrics().counter("txn.wal.fsyncs").get() - fsyncs_before;
    assert_eq!(db.stats().records, rows as u64, "every row curated");
    drop(db);
    let logs_grown = log_bytes(&dir)
        .iter()
        .filter(|&(log, &bytes)| bytes > logs_before.get(log).copied().unwrap_or(0))
        .count();
    let _ = std::fs::remove_dir_all(&dir);
    RunResult {
        rows,
        ms,
        fsyncs,
        logs_grown,
    }
}

struct ShardedResult {
    rows: usize,
    ms: f64,
    fsyncs: u64,
    lock_wait_p99_ns: u64,
    lock_waits: u64,
}

impl ShardedResult {
    fn rows_per_sec(&self) -> f64 {
        if self.ms <= 0.0 {
            0.0
        } else {
            self.rows as f64 / (self.ms / 1000.0)
        }
    }
}

/// `n` distinct identity keys that the default range map for `shards`
/// places on writer `w`'s home shard (`w % shards`) — the same routing
/// the `Db` applies, probed up front so the timed region measures
/// commits, not placement.
fn shard_keys(shards: u32, writer: usize, n: usize) -> Vec<String> {
    let map = ShardMap::build(PlacementPolicy::Range, shards, &[]);
    let target = writer as u32 % shards;
    let keys: Vec<String> = (0..200_000)
        .map(|i| format!("w{writer} entity {i}"))
        .filter(|k| map.shard_of_key(&normalize(k)) == target)
        .take(n)
        .collect();
    assert_eq!(keys.len(), n, "probe keys for shard {target}");
    keys
}

/// Concurrent-writer ingest against `shards` write shards under
/// `FsyncPolicy::Always`. Each writer runs unqueued `Db::ingest` (the
/// writer thread itself takes its shard's locks — a committer queue
/// would hide the contention this axis exists to measure) over keys
/// that all route to its home shard. With one shard every commit
/// serializes on one instance write lock held across the fsync; with
/// `shards >= writers` the writers never collide.
fn run_sharded(shards: u32, writers: usize, rows_per_writer: usize) -> ShardedResult {
    let dir = std::env::temp_dir().join(format!(
        "scdb-e-ing-sharded-{}-{shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = Db::builder().durability_config(DurabilityConfig::dir(&dir));
    if shards > 1 {
        builder = builder.write_shards(shards);
    }
    let db = builder.open().expect("open fresh sharded log");
    db.register_source("bench", Some("name"));
    let name = db.intern("name");
    let dose = db.intern("dose");
    let batches: Vec<Vec<Record>> = (0..writers)
        .map(|w| {
            shard_keys(shards, w, rows_per_writer)
                .into_iter()
                .enumerate()
                .map(|(i, key)| {
                    Record::from_pairs([(name, Value::str(key)), (dose, Value::Int(i as i64))])
                })
                .collect()
        })
        .collect();
    let rows = writers * rows_per_writer;
    // Fresh metric state so the lock-wait histograms describe only this
    // configuration (they accumulate per process otherwise).
    scdb_obs::metrics().reset();
    let fsyncs_before = scdb_obs::metrics().counter("txn.wal.fsyncs").get();
    let ((), ms) = time_ms(|| {
        std::thread::scope(|scope| {
            let db = &db;
            for batch in batches {
                scope.spawn(move || {
                    for r in batch {
                        db.ingest("bench", r, None).expect("ingest");
                    }
                });
            }
        });
    });
    let fsyncs = scdb_obs::metrics().counter("txn.wal.fsyncs").get() - fsyncs_before;
    assert_eq!(db.stats().records, rows as u64, "every row curated");
    let snap = scdb_obs::metrics().snapshot();
    let mut lock_wait_p99_ns = 0u64;
    let mut lock_waits = 0u64;
    for (name, h) in &snap.histograms {
        if name.starts_with("core.lock.instance") && name.ends_with(".wait_ns") {
            lock_wait_p99_ns = lock_wait_p99_ns.max(h.p99);
            lock_waits += h.count;
        }
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    ShardedResult {
        rows,
        ms,
        fsyncs,
        lock_wait_p99_ns,
        lock_waits,
    }
}

fn sharded_table() -> Table {
    Table::new(&[
        "shards",
        "writers",
        "rows",
        "ms",
        "rows/sec",
        "fsyncs",
        "lock-wait p99 us",
        "waits",
    ])
}

fn emit_sharded(table: &mut Table, shards: u32, writers: usize, r: &ShardedResult) {
    table.row(&[
        shards.to_string(),
        writers.to_string(),
        r.rows.to_string(),
        format!("{:.1}", r.ms),
        format!("{:.0}", r.rows_per_sec()),
        r.fsyncs.to_string(),
        format!("{:.1}", r.lock_wait_p99_ns as f64 / 1000.0),
        r.lock_waits.to_string(),
    ]);
}

fn emit(
    table: &mut Table,
    mode: Mode,
    policy: FsyncPolicy,
    batch: usize,
    shards: u32,
    r: &RunResult,
) {
    table.row(&[
        mode.name().to_string(),
        policy_name(policy).to_string(),
        batch.to_string(),
        shards.to_string(),
        r.rows.to_string(),
        format!("{:.1}", r.ms),
        format!("{:.0}", r.rows_per_sec()),
        r.fsyncs.to_string(),
        format!("{:.4}", r.fsyncs_per_row()),
        r.logs_grown.to_string(),
    ]);
}

fn smoke() -> i32 {
    let policy = FsyncPolicy::Always;
    let mut table = new_table();
    let single = run(Mode::Single, policy, 1, 1, SMOKE_ROWS);
    emit(&mut table, Mode::Single, policy, 1, 1, &single);
    let batch64 = run(Mode::Batch, policy, 64, 1, SMOKE_ROWS);
    emit(&mut table, Mode::Batch, policy, 64, 1, &batch64);
    let queued64 = run(Mode::Queued, policy, 64, 1, SMOKE_ROWS);
    emit(&mut table, Mode::Queued, policy, 64, 1, &queued64);
    let queued64_sharded = run(Mode::Queued, policy, 64, 2, SMOKE_ROWS);
    emit(&mut table, Mode::Queued, policy, 64, 2, &queued64_sharded);
    println!("\n{}", table.render());
    // Fsync *counts* are deterministic for single and batch modes;
    // queued batch shape depends on committer scheduling, so its gate
    // is looser. No wall-clock assertions (1-core CI box).
    let mut ok = true;
    let reduction = single.fsyncs_per_row() / batch64.fsyncs_per_row().max(f64::EPSILON);
    if reduction < 8.0 {
        println!(
            "SMOKE FAIL: ingest_batch@64 reduced fsyncs/row only {reduction:.1}x \
             (need >= 8x): single={} batch64={}",
            single.fsyncs, batch64.fsyncs
        );
        ok = false;
    } else {
        println!("smoke: ingest_batch@64 fsync reduction {reduction:.1}x (>= 8x) OK");
    }
    // The same gate at two write shards, whose run must have written
    // both shards' logs: the one committer seals each batch on every
    // shard it spans.
    if queued64_sharded.logs_grown < 2 {
        println!(
            "SMOKE FAIL: the 2-shard queued run grew {} write-shard log(s), not both",
            queued64_sharded.logs_grown
        );
        ok = false;
    }
    for (shards, queued) in [(1, &queued64), (2, &queued64_sharded)] {
        if queued.fsyncs > single.fsyncs {
            println!(
                "SMOKE FAIL: queued@64 at {shards} shard(s) issued more fsyncs than \
                 single-record ingest ({} > {})",
                queued.fsyncs, single.fsyncs
            );
            ok = false;
        } else {
            println!(
                "smoke: queued@64 at {shards} shard(s) fsyncs {} <= single {} OK",
                queued.fsyncs, single.fsyncs
            );
        }
    }
    // Sharded-write-path gate: with four writers, four shards must beat
    // one shard on instance-lock wait p99, and the 1-shard baseline must
    // actually have contended (otherwise the comparison is vacuous).
    // Telemetry counts and bucketed waits, not wall clock.
    let mut shard_table = sharded_table();
    let one = run_sharded(1, SHARD_WRITERS, SHARD_SMOKE_ROWS_PER_WRITER);
    emit_sharded(&mut shard_table, 1, SHARD_WRITERS, &one);
    let four = run_sharded(4, SHARD_WRITERS, SHARD_SMOKE_ROWS_PER_WRITER);
    emit_sharded(&mut shard_table, 4, SHARD_WRITERS, &four);
    println!("\n{}", shard_table.render());
    if one.lock_waits == 0 {
        println!(
            "SMOKE FAIL: the 1-shard baseline saw no contended instance-lock \
             acquisitions across {SHARD_WRITERS} writers — nothing to amortize"
        );
        ok = false;
    }
    if four.lock_wait_p99_ns >= one.lock_wait_p99_ns.max(1) {
        println!(
            "SMOKE FAIL: 4-shard lock-wait p99 {}ns did not beat 1-shard {}ns",
            four.lock_wait_p99_ns, one.lock_wait_p99_ns
        );
        ok = false;
    } else {
        println!(
            "smoke: sharded lock-wait p99 {}ns (4 shards) < {}ns (1 shard), \
             baseline waits {} OK",
            four.lock_wait_p99_ns, one.lock_wait_p99_ns, one.lock_waits
        );
    }
    if ok {
        0
    } else {
        1
    }
}

fn new_table() -> Table {
    Table::new(&[
        "mode",
        "policy",
        "batch",
        "shards",
        "rows",
        "ms",
        "rows/sec",
        "fsyncs",
        "fsyncs/row",
        "logs",
    ])
}

fn main() {
    banner(
        "E-ING",
        "group-commit ingest (DESIGN.md §9): fsync amortization vs batch size",
        "one WAL append seals a whole batch, so fsyncs/row falls as 1/batch under \
         FsyncPolicy::Always; EveryN narrows the gap, OnCheckpoint leaves only the \
         per-batch lock + append savings",
    );
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    if let Some(pos) = args.iter().position(|a| a == "--shards") {
        // Sharded axis only: `--shards 1,2,4` (defaults to the full axis).
        let counts: Vec<u32> = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("1,2,4")
            .split(',')
            .map(|s| s.trim().parse().expect("--shards takes N[,N...]"))
            .collect();
        let mut table = sharded_table();
        for &shards in &counts {
            let r = run_sharded(shards, SHARD_WRITERS, SHARD_ROWS_PER_WRITER);
            emit_sharded(&mut table, shards, SHARD_WRITERS, &r);
        }
        println!("\n{}", table.render());
        println!("shape check: lock-wait p99 falls as shards approach the writer count —");
        println!("one shard serializes every commit (and its fsync) on one instance write");
        println!("lock; at shards >= writers each writer owns its shard and never blocks.");
        return;
    }
    let mut table = new_table();
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(64),
        FsyncPolicy::OnCheckpoint,
    ] {
        let single = run(Mode::Single, policy, 1, 1, FULL_ROWS);
        emit(&mut table, Mode::Single, policy, 1, 1, &single);
        for &batch in BATCHES {
            let r = run(Mode::Batch, policy, batch, 1, FULL_ROWS);
            emit(&mut table, Mode::Batch, policy, batch, 1, &r);
            let r = run(Mode::Queued, policy, batch, 1, FULL_ROWS);
            emit(&mut table, Mode::Queued, policy, batch, 1, &r);
        }
    }
    let r = run(Mode::Queued, FsyncPolicy::Always, 64, 2, FULL_ROWS);
    emit(&mut table, Mode::Queued, FsyncPolicy::Always, 64, 2, &r);
    println!("\n{}", table.render());
    println!("shape check: under always, batch/queued fsyncs/row ≈ 1/batch while single stays");
    println!("at 1.0; under every64 the policy already amortizes so the curves meet near batch");
    println!("64; under on_checkpoint fsyncs are 0 everywhere and the residual win is one lock");
    println!("acquisition and one WAL append per batch instead of per row.");
    let mut shard_table = sharded_table();
    for &shards in SHARD_AXIS {
        let r = run_sharded(shards, SHARD_WRITERS, SHARD_ROWS_PER_WRITER);
        emit_sharded(&mut shard_table, shards, SHARD_WRITERS, &r);
    }
    println!("\n{}", shard_table.render());
    println!("shape check: lock-wait p99 falls as shards approach the writer count — one");
    println!("shard serializes every commit (and its fsync) on one instance write lock; at");
    println!("shards >= writers each writer owns its shard and never blocks.");
}
