//! E-TEL — telemetry pipeline: sampler overhead and the commit-latency
//! decomposition (DESIGN.md §7 "Telemetry pipeline").
//!
//! Observability is only free-ish if it stays off the contended paths:
//! the sampler reads the lock-free metrics registry, so a ticking
//! telemetry pipeline should cost ingest+query throughput almost
//! nothing. This experiment drives the same 10k-row ingest+query loop
//! twice — telemetry off, then telemetry on with a sample tick every
//! 100 rows plus watch evaluation and a live time-series ring — and
//! compares wall time. It also surfaces the tentpole payload: every
//! acked ingest decomposed into queue-wait → batch-build → WAL-append
//! → fsync → apply stage histograms.
//!
//! The table reports both loop times and the sample/watch counts, and
//! one line the overhead ratio. Observability's cost on the trajectory
//! is the benchmark's `obs.overhead_pct` and the commit stages its
//! `reported.ingest.*` metrics (`BENCH_<pr>.json`, `perf/run.sh`). The
//! Prometheus text exposition of the final registry is written to
//! `target/experiments/telemetry.prom` for the CI format lint.
//! `--smoke` runs paired rounds and *asserts* the enabled loop stays
//! within 5% (plus fixed slack for 1-core CI jitter) of the disabled
//! loop, and that all five stages were observed.

use std::time::Duration;

use scdb_core::{
    Db, DurabilityConfig, FsyncPolicy, IngestConfig, TelemetryConfig, WatchOp, WatchRule,
    WatchSignal,
};
use scdb_types::{Record, Value};

use scdb_bench::{banner, time_ms, Table};

const FULL_ROWS: usize = 10_000;
const SMOKE_ROWS: usize = 2_000;
const TICK_EVERY: usize = 100;
const STAGES: &[&str] = &["queue_wait", "batch_build", "wal_append", "fsync", "apply"];

/// Deterministic row `i`: a pool name (drives merges), a float, and a
/// cross-reference (drives link discovery).
fn record(db: &Db, i: usize) -> Record {
    let name = db.intern("name");
    let dose = db.intern("dose");
    let target = db.intern("ref");
    Record::from_pairs([
        (name, Value::str(format!("drug-{}", i % 64))),
        (dose, Value::Float((i % 10) as f64 + 0.5)),
        (target, Value::str(format!("drug-{}", (i * 7 + 1) % 64))),
    ])
}

struct LoopResult {
    ms: f64,
    samples: usize,
    watch_fires: u64,
}

/// The ingest+query loop: queued group-commit ingest in chunks of 64,
/// one query every [`TICK_EVERY`] rows — and, with telemetry enabled,
/// one explicit sampler tick at the same cadence (manual ticks instead
/// of a timer thread keep the workload deterministic; the tick is the
/// identical code path).
fn run_loop(rows: usize, telemetry: bool, tag: &str) -> LoopResult {
    let dir = std::env::temp_dir().join(format!("scdb-e-tel-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut builder = Db::builder()
        .durability_config(DurabilityConfig::dir(&dir).fsync(FsyncPolicy::EveryN(64)))
        .ingest_config(IngestConfig::queued(64));
    if telemetry {
        builder = builder.telemetry(
            TelemetryConfig::default()
                .interval(Duration::ZERO)
                .retention(256)
                // A rule that actually fires under load, so the watch
                // engine is exercised, not just configured: any apply
                // work in a window breaches immediately.
                .watch(
                    WatchRule::new(
                        "ingest-active",
                        WatchSignal::HistogramP99("core.ingest.stage.apply_ns".to_string()),
                        WatchOp::Above,
                        0.0,
                    )
                    .sustain(1),
                ),
        );
    }
    let db = builder.open().expect("open fresh log");
    db.register_source("bench", Some("name"));
    let records: Vec<Record> = (0..rows).map(|i| record(&db, i)).collect();
    let ((), ms) = time_ms(|| {
        let mut it = records.into_iter();
        let mut done = 0usize;
        let mut next_tick = TICK_EVERY;
        loop {
            let chunk: Vec<Record> = it.by_ref().take(64).collect();
            if chunk.is_empty() {
                break;
            }
            let tickets: Vec<_> = chunk
                .into_iter()
                .map(|r| db.ingest_async("bench", r, None).expect("submit"))
                .collect();
            done += tickets.len();
            for t in tickets {
                t.wait().expect("group commit");
            }
            if done >= next_tick {
                next_tick += TICK_EVERY;
                if telemetry {
                    db.sample_now();
                }
                let out = db
                    .query("SELECT name FROM bench WHERE dose >= 5.0")
                    .expect("query");
                assert!(!out.rows.is_empty(), "query sees ingested rows");
            }
        }
    });
    let samples = db.telemetry_samples().len();
    let watch_fires = db.watch_statuses().iter().map(|w| w.fired).sum();
    assert_eq!(db.stats().records, rows as u64, "every row curated");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    LoopResult {
        ms,
        samples,
        watch_fires,
    }
}

/// Write the Prometheus exposition of the current registry for the CI
/// format lint (`scripts/ci.sh`).
fn write_exposition() -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("experiments");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("telemetry.prom");
    let text = scdb_core::prometheus_text(&scdb_obs::metrics().snapshot());
    std::fs::write(&path, text).expect("write telemetry.prom");
    path
}

fn emit(rows: usize, off: &LoopResult, on: &LoopResult) {
    let overhead = if off.ms <= 0.0 { 0.0 } else { on.ms / off.ms };
    let mut table = Table::new(&["telemetry", "rows", "ms", "samples", "watch_fires"]);
    table.row(&[
        "off".to_string(),
        rows.to_string(),
        format!("{:.1}", off.ms),
        off.samples.to_string(),
        off.watch_fires.to_string(),
    ]);
    table.row(&[
        "on".to_string(),
        rows.to_string(),
        format!("{:.1}", on.ms),
        on.samples.to_string(),
        on.watch_fires.to_string(),
    ]);
    println!("\n{}", table.render());
    println!("overhead (on / off): {overhead:.4}");
}

fn smoke() -> i32 {
    // Paired rounds, best round wins: a 1-core CI box can stall either
    // arm for reasons that have nothing to do with the sampler, so the
    // gate is "some round showed the overhead bound", matching the
    // observability test-suite convention.
    const ROUNDS: usize = 3;
    let mut ok_overhead = false;
    let mut last: Option<(LoopResult, LoopResult)> = None;
    for round in 0..ROUNDS {
        scdb_obs::metrics().reset();
        let off = run_loop(SMOKE_ROWS, false, &format!("off-{round}"));
        scdb_obs::metrics().reset();
        let on = run_loop(SMOKE_ROWS, true, &format!("on-{round}"));
        let bound = off.ms * 1.05 + 10.0;
        println!(
            "round {round}: off={:.1} ms on={:.1} ms bound={bound:.1} ms",
            off.ms, on.ms
        );
        if on.ms <= bound {
            ok_overhead = true;
            last = Some((off, on));
            break;
        }
        last = Some((off, on));
    }
    let (off, on) = last.expect("at least one round ran");
    emit(SMOKE_ROWS, &off, &on);
    let prom = write_exposition();
    println!("prometheus exposition: {}", prom.display());
    let mut ok = true;
    if !ok_overhead {
        println!("SMOKE FAIL: enabled-sampler overhead exceeded 5% in every round");
        ok = false;
    } else {
        println!("smoke: enabled-sampler overhead within 5% (+10 ms slack) OK");
    }
    if on.samples == 0 {
        println!("SMOKE FAIL: no telemetry samples were recorded");
        ok = false;
    } else {
        println!("smoke: {} telemetry samples recorded OK", on.samples);
    }
    if on.watch_fires == 0 {
        println!("SMOKE FAIL: the ingest-active watch never fired");
        ok = false;
    } else {
        println!("smoke: watch fired {} time(s) OK", on.watch_fires);
    }
    for stage in STAGES {
        let h = scdb_obs::metrics()
            .histogram(&format!("core.ingest.stage.{stage}_ns"))
            .snapshot();
        if h.count == 0 {
            println!("SMOKE FAIL: stage histogram core.ingest.stage.{stage}_ns is empty");
            ok = false;
        }
    }
    if ok {
        println!("smoke: all five commit stages observed OK");
        0
    } else {
        1
    }
}

fn main() {
    banner(
        "E-TEL",
        "telemetry pipeline (DESIGN.md §7): sampler overhead + commit-stage split",
        "the sampler only reads the lock-free registry, so a ticking pipeline should \
         cost the ingest+query loop < 5%; the stage histograms decompose every acked \
         ingest into queue-wait / batch-build / WAL-append / fsync / apply",
    );
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    scdb_obs::metrics().reset();
    let off = run_loop(FULL_ROWS, false, "off");
    scdb_obs::metrics().reset();
    let on = run_loop(FULL_ROWS, true, "on");
    emit(FULL_ROWS, &off, &on);
    let prom = write_exposition();
    println!("prometheus exposition: {}", prom.display());
    println!("\nshape check: overhead should sit near 1.0 (the sampler reads, never locks the");
    println!("shards); queue_wait dominates the stage split under a saturated queue, fsync");
    println!("stays near zero under EveryN(64), and apply carries the curation pipeline cost.");
}
