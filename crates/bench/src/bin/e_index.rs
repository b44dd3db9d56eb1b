//! E-IDX — secondary indexes vs parallel scan (DESIGN.md §10).
//!
//! The statistics-driven optimizer picks an access path per query: a
//! selective equality over an indexed attribute routes through the
//! hash/ordered secondary index ([`PlanNode::IndexScan`]), everything
//! else takes the parallel full scan. This experiment measures both
//! paths over the same data at 10k and 100k rows:
//!
//! * **point** — `tag = '…'` matching ~0.1% of rows (10 rows per
//!   distinct tag value);
//! * **range** — `dose >= lo AND dose < hi` covering ~1% of rows.
//!
//! Each (size, query, access) cell is one table row with wall ms, rows
//! scanned, rows out, and the access path the optimizer actually chose.
//! The timing record is the benchmark's `query.point` and `query.scan`
//! workloads (`BENCH_<pr>.json`, `perf/run.sh`). `--smoke` runs the
//! 10k point query only and *asserts* the index win by row counts —
//! the index path must return identical rows while touching only the
//! matching candidates instead of every row — so it is stable on a
//! 1-core CI box (no wall-clock gate). It also asserts by counts that
//! the query path's metric handles are written: k indexed point queries
//! advance `query.index.scans` by k, `query.index.candidates` and
//! `query.rows_out` by the summed counts, `query.index.fallbacks` by 0
//! and `core.query` by k observations — and, with metrics disabled, move
//! none of them.
//!
//! Qualitative shape to expect: the point query's index scan touches
//! 3 orders of magnitude fewer rows and wins wall-clock accordingly.
//! The range query is reported honestly: on live-ingested data the
//! incrementally-built histograms estimate wide ranges conservatively,
//! so the optimizer may keep the parallel scan — the `access` field
//! records its decision either way.
//!
//! [`PlanNode::IndexScan`]: scdb_query::PlanNode

use scdb_bench::{banner, time_ms, Table};
use scdb_core::{Db, IndexKind};
use scdb_types::{Record, Value};

const SIZES: &[usize] = &[10_000, 100_000];
const SMOKE_SIZE: usize = 10_000;
const REPS: usize = 5;

/// Names far apart in edit space (hash prefix) so fuzzy identity
/// matching never merges distinct serials and ER stays cheap.
fn row_name(i: usize) -> String {
    let tag = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
    format!("{tag:05x}-row-{i}")
}

/// `n` rows: unique `name`, `tag` shared by 10 rows (the point-query
/// column), monotone integer `dose` (the range-query column).
fn build(n: usize) -> Db {
    let db = Db::new();
    db.register_source("events", Some("name"));
    let name = db.intern("name");
    let tag = db.intern("tag");
    let dose = db.intern("dose");
    for i in 0..n {
        let r = Record::from_pairs([
            (name, Value::str(row_name(i))),
            (tag, Value::str(format!("t{:05}", i % (n / 10)))),
            (dose, Value::Int(i as i64)),
        ]);
        db.ingest("events", r, None).expect("ingest");
    }
    db
}

fn point_sql() -> String {
    "SELECT name FROM events WHERE tag = 't00042'".to_string()
}

fn range_sql(n: usize) -> String {
    let lo = n / 2;
    let hi = lo + n / 100;
    format!("SELECT name FROM events WHERE dose >= {lo} AND dose < {hi}")
}

struct RunResult {
    ms: f64,
    rows_scanned: u64,
    rows_out: u64,
    access: &'static str,
}

/// Run `sql` `REPS` times, keeping the fastest wall time (counters are
/// identical across reps).
fn run(db: &Db, sql: &str) -> RunResult {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let (out, ms) = time_ms(|| db.query(sql).expect("query"));
        best = best.min(ms);
        last = Some(out);
    }
    let out = last.unwrap();
    RunResult {
        ms: best,
        rows_scanned: out.stats.rows_scanned,
        rows_out: out.rows.len() as u64,
        access: if out.plan.index_scan().is_some() {
            "index_scan"
        } else {
            "scan"
        },
    }
}

fn emit(table: &mut Table, rows: usize, query: &str, phase: &str, r: &RunResult) {
    table.row(&[
        rows.to_string(),
        query.to_string(),
        phase.to_string(),
        r.access.to_string(),
        format!("{:.3}", r.ms),
        r.rows_scanned.to_string(),
        r.rows_out.to_string(),
    ]);
}

fn new_table() -> Table {
    Table::new(&[
        "rows",
        "query",
        "phase",
        "access",
        "ms",
        "rows_scanned",
        "rows_out",
    ])
}

/// Index the two query columns; returns entry counts for the banner.
fn create_indexes(db: &Db) -> (usize, usize) {
    db.create_index("ix_tag", "events", "tag", IndexKind::Hash)
        .expect("create hash index");
    db.create_index("ix_dose", "events", "dose", IndexKind::Ordered)
        .expect("create ordered index");
    let defs = db.indexes();
    (defs.len(), 2)
}

/// The query-path metrics the smoke pins:
/// `[index.scans, index.candidates, index.fallbacks, rows_out, core.query observations]`.
fn query_counts() -> [u64; 5] {
    let snap = scdb_obs::metrics().snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    [
        counter("query.index.scans"),
        counter("query.index.candidates"),
        counter("query.index.fallbacks"),
        counter("query.rows_out"),
        snap.histograms.get("core.query").map_or(0, |h| h.count),
    ]
}

/// Run `k` indexed point queries over distinct tags; returns the
/// movement of [`query_counts`] and what the outcomes report:
/// `(delta, candidates, rows_out)`.
fn point_query_deltas(db: &Db, k: usize) -> ([u64; 5], u64, u64) {
    let before = query_counts();
    let (mut candidates, mut rows_out) = (0, 0);
    for i in 0..k {
        let sql = format!("SELECT name FROM events WHERE tag = 't{i:05}'");
        let out = db.query(&sql).expect("query");
        candidates += out.stats.rows_scanned;
        rows_out += out.rows.len() as u64;
    }
    let after = query_counts();
    (
        std::array::from_fn(|i| after[i] - before[i]),
        candidates,
        rows_out,
    )
}

/// The metric-handle gate: every handle on the indexed point-query path
/// is written once per query, and none is written while disabled.
fn smoke_metrics(db: &Db) -> bool {
    const K: u64 = 16;
    let mut ok = true;
    let (delta, candidates, rows_out) = point_query_deltas(db, K as usize);
    let want = [K, candidates, 0, rows_out, K];
    if delta != want || rows_out != 10 * K {
        println!(
            "SMOKE FAIL: {K} point queries moved [index.scans, index.candidates, \
             index.fallbacks, rows_out, core.query] by {delta:?}, want {want:?} \
             ({rows_out} rows out)"
        );
        ok = false;
    }
    scdb_obs::metrics().set_enabled(false);
    let (delta, _, _) = point_query_deltas(db, K as usize);
    scdb_obs::metrics().set_enabled(true);
    if delta != [0; 5] {
        println!("SMOKE FAIL: with metrics disabled, {K} point queries moved {delta:?}");
        ok = false;
    }
    if ok {
        println!(
            "smoke: {K} point queries wrote every query-path metric once, none while disabled OK"
        );
    }
    ok
}

fn smoke() -> i32 {
    let mut table = new_table();
    let db = build(SMOKE_SIZE);
    let before = run(&db, &point_sql());
    emit(&mut table, SMOKE_SIZE, "point", "pre-index", &before);
    create_indexes(&db);
    let after = run(&db, &point_sql());
    emit(&mut table, SMOKE_SIZE, "point", "indexed", &after);
    println!("\n{}", table.render());

    let mut ok = true;
    if after.access != "index_scan" {
        println!("SMOKE FAIL: selective point query did not take the index path");
        ok = false;
    }
    if after.rows_out != before.rows_out || after.rows_out != 10 {
        println!(
            "SMOKE FAIL: index path changed the result ({} vs {} rows, want 10)",
            after.rows_out, before.rows_out
        );
        ok = false;
    }
    if before.rows_scanned != SMOKE_SIZE as u64 {
        println!(
            "SMOKE FAIL: pre-index scan touched {} rows, want {SMOKE_SIZE}",
            before.rows_scanned
        );
        ok = false;
    }
    if after.rows_scanned >= before.rows_scanned / 100 {
        println!(
            "SMOKE FAIL: index scan touched {} rows vs {} for the full scan \
             (want >= 100x fewer)",
            after.rows_scanned, before.rows_scanned
        );
        ok = false;
    }
    ok &= smoke_metrics(&db);
    if ok {
        println!(
            "smoke: index scan {} rows vs full scan {} rows, identical 10-row result OK",
            after.rows_scanned, before.rows_scanned
        );
        0
    } else {
        1
    }
}

fn main() {
    banner(
        "E-IDX",
        "secondary indexes & access paths (DESIGN.md §10)",
        "a selective point query routes through the hash index and touches only its \
         candidates; the optimizer's EXPLAIN records the access decision either way",
    );
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let mut table = new_table();
    for &n in SIZES {
        let db = build(n);
        for (query, sql) in [("point", point_sql()), ("range", range_sql(n))] {
            let r = run(&db, &sql);
            emit(&mut table, n, query, "pre-index", &r);
        }
        create_indexes(&db);
        for (query, sql) in [("point", point_sql()), ("range", range_sql(n))] {
            let r = run(&db, &sql);
            emit(&mut table, n, query, "indexed", &r);
        }
        // Show the optimizer's reasoning for the indexed point query.
        let out = db.query(&point_sql()).expect("explain");
        println!("\n-- plan at {n} rows --\n{}", out.plan);
        for line in &out.plan.rewrites {
            println!("rewrite: {line}");
        }
    }
    println!("\n{}", table.render());
}
