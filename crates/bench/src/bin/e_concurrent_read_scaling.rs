//! E-CRS — concurrent read scaling: N reader threads against a live
//! ingest stream.
//!
//! The shared `Db` handle's claim is architectural: readers take shard
//! read locks and never serialize behind each other or behind the
//! writer's ingest (which holds the instance+relation write locks only
//! for the duration of one record's pipeline). This experiment preloads
//! 10k rows, keeps a writer ingesting continuously, and measures query
//! throughput at 1/2/4/8 reader threads.
//!
//! Each configuration is one table row (readers, wall ms, queries
//! completed, queries/s, speedup vs 1 reader). Readers beside a live
//! writer are on the trajectory as the benchmark's `mixed.rw` workload
//! (`BENCH_<pr>.json`, `perf/run.sh`).
//!
//! Read the speedup column against the host: on a multi-core machine the
//! 4-reader row is expected at ≥ 2× the 1-reader row; on a single
//! hardware thread the readers time-slice one core and the honest
//! expectation is ≈ 1× (no scaling is physically available, but
//! throughput must not *collapse* either — that would indicate lock
//! serialization rather than CPU saturation).

use scdb_bench::{banner, Table};
use scdb_core::Db;
use scdb_types::{Record, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PRELOAD: usize = 10_000;
const MEASURE: Duration = Duration::from_millis(1200);

/// Names far apart in edit space so fuzzy identity matching never merges
/// distinct serials (ER stays cheap and deterministic at 10k rows).
fn row_name(i: usize) -> String {
    let tag = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
    format!("{tag:05x}-row-{i}")
}

fn record(name: scdb_types::Symbol, val: scdb_types::Symbol, i: usize) -> Record {
    Record::from_pairs([
        (name, Value::str(row_name(i))),
        (val, Value::Float((i % 1000) as f64)),
    ])
}

/// One configuration: preload, then measure N readers against a live
/// writer. Returns (wall ms, queries completed, rows ingested live).
fn run(readers: usize) -> (f64, u64, usize) {
    let db = Db::builder().scan_workers(4).build();
    db.register_source("stream", Some("name"));
    let name = db.intern("name");
    let val = db.intern("val");
    for i in 0..PRELOAD {
        db.ingest("stream", record(name, val, i), None)
            .expect("preload");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let queries = Arc::new(AtomicU64::new(0));

    // Live ingest stream for the whole measurement window.
    let writer = {
        let db = db.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut i = PRELOAD;
            while !stop.load(Ordering::Acquire) {
                db.ingest("stream", record(name, val, i), None)
                    .expect("ingest");
                i += 1;
            }
            i - PRELOAD
        })
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let out = db
                        .query("SELECT name FROM stream WHERE val >= 500.0 LIMIT 100")
                        .expect("query");
                    assert!(!out.rows.is_empty());
                    queries.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    std::thread::sleep(MEASURE);
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join().expect("reader");
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let ingested = writer.join().expect("writer");
    (wall_ms, queries.load(Ordering::Relaxed), ingested)
}

fn main() {
    banner(
        "E-CRS",
        "concurrent read scaling (shared handle, parallel scans)",
        "reader threads scale with available cores instead of serializing behind the writer",
    );
    println!(
        "host parallelism: {} hardware thread(s)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut table = Table::new(&[
        "readers",
        "wall_ms",
        "queries",
        "queries/s",
        "speedup vs 1",
        "rows ingested live",
    ]);
    let mut baseline_qps = 0.0f64;
    for readers in [1usize, 2, 4, 8] {
        let (wall_ms, queries, ingested) = run(readers);
        let qps = queries as f64 / (wall_ms / 1000.0);
        if readers == 1 {
            baseline_qps = qps;
        }
        let speedup = if baseline_qps > 0.0 {
            qps / baseline_qps
        } else {
            0.0
        };
        table.row(&[
            readers.to_string(),
            format!("{wall_ms:.0}"),
            queries.to_string(),
            format!("{qps:.1}"),
            format!("{speedup:.2}x"),
            ingested.to_string(),
        ]);
    }
    println!("\n{}", table.render());
    println!("shape check: queries/s grows with readers up to the core count (≥2x at 4 readers");
    println!("on a ≥4-core host); on fewer cores it plateaus near 1x without collapsing.");
}
