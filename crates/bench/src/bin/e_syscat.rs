//! E-SYS — system catalog: `sys.*` refresh cost and the overhead of
//! querying the database's own telemetry while it ingests (DESIGN.md
//! §13 "Self-observation & system catalog").
//!
//! A self-curating database must be able to *query* its own state, but
//! self-observation is only honest if watching the system does not
//! change it. This experiment drives the usual 10k-row group-commit
//! ingest+query loop twice — once with the whole observability stack
//! disabled (metrics registry and flight recorder off, no catalog
//! reads), once fully observed: registry and recorder on,
//! correlation-id events stamped on every batch, and a
//! monitoring-cadence `sys.*` poller (`sys.metrics`, `sys.wal`,
//! `sys.locks` every 500 rows) riding the loop — and compares wall
//! time, the same enabled-vs-disabled convention as the existing <5%
//! observability budget guards. It then measures the per-relation
//! refresh cost: one `SELECT *` per catalog relation against a
//! warmed-up instance, reading the `sys_refresh` stage out of each
//! query's own `EXPLAIN ANALYZE` profile (the catalog reports on
//! itself). The ring-scanning relations (`sys.events`, `sys.threads`)
//! are deliberately *not* in the timed poll set: materializing a full
//! 8k-event ring is milliseconds of honest work, and the table reports
//! that cost per refresh instead of hiding it in a loop average.
//!
//! One machine-readable `BENCH JSON {...}` line carries both loop
//! times, the overhead ratio, and per-relation `{rows, refresh_ns,
//! total_ns}`. `--smoke` runs paired rounds and *asserts* the observed
//! loop stays within 5% (plus fixed slack for 1-core CI jitter) of the
//! unobserved loop, that every relation listed in `sys.relations`
//! answers `SELECT *`, and that a real acked batch's correlation id
//! joins to its flush→append→fsync→apply journey in `sys.events`.

use std::time::Duration;

use scdb_core::{Db, DurabilityConfig, FsyncPolicy, IngestConfig, TelemetryConfig};
use scdb_types::{Record, Value};

use scdb_bench::{banner, time_ms, Table};

const FULL_ROWS: usize = 10_000;
const SMOKE_ROWS: usize = 2_000;
const POLL_EVERY: usize = 500;
const POLL_QUERIES: &[&str] = &[
    "SELECT * FROM sys.metrics LIMIT 50",
    "SELECT * FROM sys.wal",
    "SELECT * FROM sys.locks",
];

/// Deterministic row `i`: a pool name (drives merges) plus a float.
fn record(db: &Db, i: usize) -> Record {
    let name = db.intern("name");
    let dose = db.intern("dose");
    Record::from_pairs([
        (name, Value::str(format!("drug-{}", i % 64))),
        (dose, Value::Float((i % 10) as f64 + 0.5)),
    ])
}

/// The ingest+query loop: queued group-commit ingest in chunks of 64,
/// one user query every 100 rows — and, when observed, the registry
/// and flight recorder enabled plus the three health-relation catalog
/// queries every [`POLL_EVERY`] rows.
fn run_loop(rows: usize, observed: bool, tag: &str) -> f64 {
    scdb_obs::metrics().set_enabled(observed);
    scdb_obs::events().set_enabled(observed);
    let dir = std::env::temp_dir().join(format!("scdb-e-sys-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::builder()
        .durability_config(DurabilityConfig::dir(&dir).fsync(FsyncPolicy::EveryN(64)))
        .ingest_config(IngestConfig::queued(64))
        .open()
        .expect("open fresh log");
    db.register_source("bench", Some("name"));
    let records: Vec<Record> = (0..rows).map(|i| record(&db, i)).collect();
    let ((), ms) = time_ms(|| {
        let mut it = records.into_iter();
        let mut done = 0usize;
        let mut next_query = 100usize;
        let mut next_poll = POLL_EVERY;
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
            if done >= next_query {
                next_query += 100;
                let out = db
                    .query("SELECT name FROM bench WHERE dose >= 5.0")
                    .expect("query");
                assert!(!out.rows.is_empty(), "query sees ingested rows");
            }
            if observed && done >= next_poll {
                next_poll += POLL_EVERY;
                for sql in POLL_QUERIES {
                    db.query(sql).expect("sys poll");
                }
            }
        }
    });
    assert_eq!(db.stats().records, rows as u64, "every row curated");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    scdb_obs::metrics().set_enabled(true);
    scdb_obs::events().set_enabled(true);
    ms
}

struct RelationCost {
    name: String,
    rows: usize,
    refresh_ns: u64,
    total_ns: u64,
}

/// One `SELECT *` per catalog relation against a warmed-up durable
/// instance (ingest + queries + telemetry ticks + a slow capture), with
/// the refresh cost read out of each query's own profile.
fn measure_refresh(rows: usize) -> Vec<RelationCost> {
    let dir = std::env::temp_dir().join(format!("scdb-e-sys-refresh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::builder()
        .durability_config(DurabilityConfig::dir(&dir).fsync(FsyncPolicy::EveryN(64)))
        .ingest_config(IngestConfig::queued(64))
        .telemetry(TelemetryConfig::default().interval(Duration::ZERO))
        .slow_query_threshold(Duration::ZERO)
        .open()
        .expect("open fresh log");
    db.register_source("bench", Some("name"));
    for chunk in (0..rows).collect::<Vec<_>>().chunks(64) {
        let tickets: Vec<_> = chunk
            .iter()
            .map(|&i| {
                db.ingest_async("bench", record(&db, i), None)
                    .expect("submit")
            })
            .collect();
        for t in tickets {
            t.wait().expect("group commit");
        }
    }
    db.sample_now();
    db.query("SELECT name FROM bench WHERE dose >= 5.0")
        .expect("warm user query");

    let catalog = db.query("SELECT * FROM sys.relations").expect("catalog");
    let symbols = db.symbols_ref();
    let names: Vec<String> = catalog
        .rows
        .iter()
        .filter_map(|r| {
            scdb_core::syscat::record_to_json(r, &symbols)
                .get("name")
                .and_then(|v| v.as_str().map(str::to_owned))
        })
        .collect();
    drop(symbols);

    let mut costs = Vec::new();
    for name in names {
        let out = db
            .query(&format!("SELECT * FROM {name}"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let refresh = out
            .profile
            .stage("sys_refresh")
            .expect("sys_refresh stage in profile")
            .duration;
        costs.push(RelationCost {
            name,
            rows: out.rows.len(),
            refresh_ns: refresh.as_nanos() as u64,
            total_ns: out.profile.total.as_nanos() as u64,
        });
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    costs
}

/// The acceptance-criteria journey, exercised under bench conditions: a
/// real acked batch id joins to its full pipeline trace in `sys.events`.
fn journey_check() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("scdb-e-sys-journey-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Db::builder()
        .durability_config(DurabilityConfig::dir(&dir))
        .ingest_config(IngestConfig::queued(64))
        .open()
        .expect("open fresh log");
    db.register_source("bench", Some("name"));
    let batch: Vec<Record> = (0..32).map(|i| record(&db, i)).collect();
    let reports = db.ingest_batch("bench", batch).expect("acked batch");
    let batch_id = reports.last().expect("reports").batch_id;
    let out = db
        .query(&format!(
            "SELECT * FROM sys.events WHERE batch_id = {batch_id}"
        ))
        .expect("correlated trace");
    let symbols = db.symbols_ref();
    let kinds: Vec<String> = out
        .rows
        .iter()
        .filter_map(|r| {
            scdb_core::syscat::record_to_json(r, &symbols)
                .get("kind")
                .and_then(|v| v.as_str().map(str::to_owned))
        })
        .collect();
    drop(symbols);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    for kind in [
        "group_commit.flush",
        "wal.append",
        "wal.fsync",
        "ingest.stages",
    ] {
        if !kinds.iter().any(|k| k == kind) {
            return Err(format!(
                "batch {batch_id} journey missing {kind}, got {kinds:?}"
            ));
        }
    }
    Ok(())
}

fn emit(rows: usize, off_ms: f64, on_ms: f64, costs: &[RelationCost]) {
    let overhead = if off_ms <= 0.0 { 0.0 } else { on_ms / off_ms };
    let mut table = Table::new(&["relation", "rows", "refresh_us", "total_us"]);
    for c in costs {
        table.row(&[
            c.name.clone(),
            c.rows.to_string(),
            format!("{:.1}", c.refresh_ns as f64 / 1_000.0),
            format!("{:.1}", c.total_ns as f64 / 1_000.0),
        ]);
    }
    println!("\n{}", table.render());
    let refresh_json: Vec<String> = costs
        .iter()
        .map(|c| {
            format!(
                "\"{}\":{{\"rows\":{},\"refresh_ns\":{},\"total_ns\":{}}}",
                c.name, c.rows, c.refresh_ns, c.total_ns
            )
        })
        .collect();
    println!(
        "BENCH JSON {{\"experiment\":\"syscat\",\"rows\":{rows},\
         \"off_ms\":{off_ms:.2},\"on_ms\":{on_ms:.2},\"overhead\":{overhead:.4},\
         \"relations\":{{{}}}}}",
        refresh_json.join(",")
    );
}

fn smoke() -> i32 {
    // Paired rounds, best round wins: same convention as e_telemetry —
    // a 1-core CI box can stall either arm, so the gate is "some round
    // showed the overhead bound"; a real regression fails every round.
    const ROUNDS: usize = 3;
    let mut ok_overhead = false;
    let mut last = (0.0f64, 0.0f64);
    for round in 0..ROUNDS {
        scdb_obs::metrics().reset();
        let off = run_loop(SMOKE_ROWS, false, &format!("off-{round}"));
        scdb_obs::metrics().reset();
        let on = run_loop(SMOKE_ROWS, true, &format!("on-{round}"));
        let bound = off * 1.05 + 10.0;
        println!("round {round}: off={off:.1} ms on={on:.1} ms bound={bound:.1} ms");
        last = (off, on);
        if on <= bound {
            ok_overhead = true;
            break;
        }
    }
    scdb_obs::metrics().reset();
    let costs = measure_refresh(SMOKE_ROWS);
    emit(SMOKE_ROWS, last.0, last.1, &costs);
    let mut ok = true;
    if !ok_overhead {
        println!("SMOKE FAIL: observed-loop overhead exceeded 5% in every round");
        ok = false;
    } else {
        println!("smoke: full observation + sys polling within 5% (+10 ms slack) OK");
    }
    for c in &costs {
        if c.rows == 0
            && matches!(
                c.name.as_str(),
                "sys.metrics" | "sys.events" | "sys.relations"
            )
        {
            println!("SMOKE FAIL: {} returned no rows after a workload", c.name);
            ok = false;
        }
    }
    if ok {
        println!(
            "smoke: all {} catalog relations answered SELECT * OK",
            costs.len()
        );
    }
    match journey_check() {
        Ok(()) => println!("smoke: correlation-id batch journey reconstructed OK"),
        Err(e) => {
            println!("SMOKE FAIL: {e}");
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    banner(
        "E-SYS",
        "system catalog (DESIGN.md §13): sys.* refresh cost + self-observation overhead",
        "the catalog materializes from snapshots and rings without core write locks, so \
         polling sys.* during a saturated ingest loop should cost < 5%; per-relation \
         refresh cost comes from each query's own sys_refresh profile stage",
    );
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    scdb_obs::metrics().reset();
    let off = run_loop(FULL_ROWS, false, "off");
    scdb_obs::metrics().reset();
    let on = run_loop(FULL_ROWS, true, "on");
    scdb_obs::metrics().reset();
    let costs = measure_refresh(FULL_ROWS);
    emit(FULL_ROWS, off, on, &costs);
    if let Err(e) = journey_check() {
        println!("journey check FAILED: {e}");
        std::process::exit(1);
    }
    println!("\nshape check: overhead should sit near 1.0 (health-relation refresh reads");
    println!("snapshots, never the write path); sys.events refresh dominates the table (ring");
    println!("snapshot + field explosion), sys.wal is a single row and should be microseconds.");
}
