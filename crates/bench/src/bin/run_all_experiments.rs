//! Run every experiment binary in sequence, writing each report to
//! `target/experiments/<id>.txt` — the inputs EXPERIMENTS.md records.
//!
//! Usage:
//!   `cargo run --release -p scdb-bench --bin run_all_experiments`
//!   `cargo run --release -p scdb-bench --bin run_all_experiments -- --metrics-json out.json`
//!   `cargo run --release -p scdb-bench --bin run_all_experiments -- --events-jsonl out.jsonl`
//!
//! With `--metrics-json <path>` the binary instead drives an in-process
//! workload through every instrumented subsystem — ingest, entity
//! resolution, reasoning, query, transactions, storage clustering — and
//! writes the resulting [`scdb_obs`] metrics snapshot as JSON. (The
//! experiment binaries are child processes; their metric registries are
//! invisible here, so the observability sweep has to run in-process.)
//!
//! With `--events-jsonl <path>` it drives a durable ingest → query →
//! checkpoint → reopen cycle with the flight recorder enabled, prints
//! the resulting [`Db::health_report`](scdb_core::Db::health_report)
//! table, and dumps the event ring as JSON Lines (one event per line,
//! `seq` strictly increasing) — the input `scripts/check_events.sh`
//! validates in CI.

use std::path::Path;
use std::process::Command;

use scdb_bench::curated_db;
use scdb_datagen::corrupt::CorruptionConfig;
use scdb_datagen::life_science::ScaledConfig;
use scdb_storage::cluster::{ClusterStrategy, ClusteredLayout, CoAccessTracker};
use scdb_storage::page::PageConfig;
use scdb_storage::RowStore;
use scdb_txn::{DurableWal, FailpointLog, FsyncPolicy, LogRecord, TxnManager};
use scdb_types::{Record, SourceId, Value};

const EXPERIMENTS: &[&str] = &[
    "e_f1_holistic",
    "e_f2_figure2",
    "e_fs1_er",
    "e_fs2_richness",
    "e_fs3_uncertainty",
    "e_fs5_unified_lang",
    "e_fs6_refine",
    "e_fs7_qbe",
    "e_fs8_crowd",
    "e_fs9_material",
    "e_fs10_warfarin",
    "e_fs11_isolation",
    "e_os1_cluster",
    "e_os2_traversal",
    "e_os3_semopt",
    "e_os4_placement",
    "e_s5_codd",
    "e_concurrent_read_scaling",
    "e_recovery",
    "e_ingest_throughput",
    "e_telemetry",
    "e_index",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--metrics-json") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--metrics-json requires a path argument");
            std::process::exit(2);
        };
        metrics_sweep(path);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--events-jsonl") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--events-jsonl requires a path argument");
            std::process::exit(2);
        };
        events_sweep(path);
        return;
    }

    let out_dir = Path::new("target/experiments");
    std::fs::create_dir_all(out_dir).expect("create output dir");
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        print!("running {exp:<22} … ");
        let output = Command::new(
            std::env::current_exe()
                .expect("self path")
                .with_file_name(exp),
        )
        .output();
        match output {
            Ok(out) if out.status.success() => {
                let path = out_dir.join(format!("{exp}.txt"));
                std::fs::write(&path, &out.stdout).expect("write report");
                println!("ok → {}", path.display());
            }
            Ok(out) => {
                println!("FAILED (status {:?})", out.status.code());
                failures.push(*exp);
            }
            Err(e) => {
                println!("FAILED to launch: {e}");
                failures.push(*exp);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        println!("\nfailed: {failures:?}");
        std::process::exit(1);
    }
}

/// Drive a durable ingest → query → checkpoint → reopen cycle with the
/// flight recorder on, then dump the event ring to `path` as JSON Lines
/// and print the health report. (Like the metrics sweep, this has to
/// run in-process: the event ring of a child experiment binary is
/// invisible here.)
fn events_sweep(path: &str) {
    use scdb_core::{Db, DurabilityConfig, FsyncPolicy};

    scdb_obs::metrics().set_enabled(true);
    let events = scdb_obs::events();
    events.set_enabled(true);

    let dir = std::env::temp_dir().join(format!("scdb-events-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Db::builder()
            .durability_config(DurabilityConfig::dir(&dir).fsync(FsyncPolicy::EveryN(64)))
            .slow_query_threshold(std::time::Duration::ZERO)
            .open()
            .expect("open durable db");
        db.register_source("sweep", Some("k"));
        let k = db.intern("k");
        let v = db.intern("v");
        for i in 0..2_000i64 {
            let r = Record::from_pairs([(k, Value::str(format!("key-{i}"))), (v, Value::Int(i))]);
            db.ingest("sweep", r, None).expect("ingest");
        }
        for _ in 0..5 {
            db.query("SELECT k FROM sweep WHERE v >= 1000 LIMIT 50")
                .expect("query");
        }
        // Index lifecycle so the dump carries the ("core", "index.*")
        // and ("query", "index.scan") events: an explicit create, an
        // indexed point query, the slow-ring advisor, and a drop.
        db.create_index("ix_k", "sweep", "k", scdb_core::IndexKind::Hash)
            .expect("create index");
        db.query("SELECT k FROM sweep WHERE k = 'key-42'")
            .expect("indexed query");
        db.advise_indexes(false).expect("advise");
        db.drop_index("ix_k").expect("drop index");
        db.checkpoint().expect("checkpoint");
        for i in 2_000..2_100i64 {
            let r = Record::from_pairs([(k, Value::str(format!("key-{i}"))), (v, Value::Int(i))]);
            db.ingest("sweep", r, None).expect("ingest tail");
        }
        // One group-committed batch so the dump carries a
        // ("txn", "group_commit.flush") event and the health report
        // shows the group-commit section.
        let batch: Vec<Record> = (2_100..2_164i64)
            .map(|i| Record::from_pairs([(k, Value::str(format!("key-{i}"))), (v, Value::Int(i))]))
            .collect();
        db.ingest_batch("sweep", batch).expect("group batch");
        db.sync_wal().expect("sync");
        println!("{}", db.health_report().render());
    }
    // Reopen so the dump also carries the recovery event sequence.
    let db = Db::open(&dir).expect("reopen");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    let jsonl = events.export_jsonl();
    if let Err(e) = std::fs::write(path, &jsonl) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {} events ({} recorded, {} dropped) → {path}",
        jsonl.lines().count(),
        events.recorded(),
        events.dropped(),
    );
}

/// Drive every instrumented subsystem once, then write the global
/// metrics snapshot to `path` as JSON.
fn metrics_sweep(path: &str) {
    scdb_obs::metrics().set_enabled(true);

    // Ingest + ER + link discovery + storage writes.
    let cfg = ScaledConfig {
        n_drugs: 120,
        n_genes: 40,
        n_diseases: 20,
        n_sources: 3,
        duplicate_rate: 0.5,
        corruption: CorruptionConfig::moderate(),
        seed: 0x0B5,
    };
    let (db, _sources) = curated_db(&cfg);

    // Semantics + queries (plan / optimize / execute + profile).
    db.register_source("trials", Some("drug"));
    let drug = db.intern("drug");
    let dose = db.intern("dose");
    for i in 0..200i64 {
        let name = ["Warfarin", "Ibuprofen", "Methotrexate"][(i % 3) as usize];
        let r = Record::from_pairs([
            (drug, Value::str(name)),
            (dose, Value::Float(2.0 + (i % 50) as f64 / 10.0)),
        ]);
        db.ingest("trials", r, None).expect("ingest trial");
    }
    db.with_ontology(|o| o.subclass("Anticoagulant", "Drug"));
    db.assert_entity_type("Warfarin", "Anticoagulant")
        .expect("typed");
    let profile = db
        .query("SELECT drug, dose FROM trials WHERE drug IS 'Drug' AND dose >= 4.0 LIMIT 5")
        .expect("semantic query")
        .profile;
    db.query("SELECT drug FROM trials WHERE dose >= 6.0")
        .expect("range query");

    // Secondary indexes: create → indexed point query (50 distinct
    // doses, selectivity 0.02, takes the index) → advisor → drop.
    db.create_index("ix_dose", "trials", "dose", scdb_core::IndexKind::Hash)
        .expect("create index");
    db.query("SELECT drug FROM trials WHERE dose = 4.5")
        .expect("indexed query");
    db.advise_indexes(false).expect("advise");
    db.drop_index("ix_dose").expect("drop index");

    // Transactions: MVCC begin/commit/abort, each committed write set
    // appended with its seal through a durable WAL on the in-memory
    // medium. Aborted transactions are never logged, as in
    // `Db::kv_commit`.
    let mgr = TxnManager::new();
    let (mut wal, _) =
        DurableWal::open(Box::new(FailpointLog::new()), FsyncPolicy::Always, 1 << 20)
            .expect("open in-memory log");
    for k in 0..16u64 {
        let mut txn = mgr.begin();
        txn.write(k, Value::Int(k as i64)).expect("write");
        if k % 4 == 3 {
            mgr.abort(&mut txn);
            continue;
        }
        mgr.commit(&mut txn).expect("commit");
        wal.append_sealed(&[
            LogRecord::Write {
                txn: txn.id(),
                key: k,
                value: Some(Value::Int(k as i64)),
            },
            LogRecord::seal(&[txn.id()], &[]),
        ])
        .expect("append");
    }

    // Storage: direct point reads + a clustering pass.
    let mut store = RowStore::new(SourceId(99));
    let attr = {
        let mut symbols = scdb_types::SymbolTable::new();
        symbols.intern("k")
    };
    let ids: Vec<_> = (0..64i64)
        .map(|i| store.append(Record::from_pairs([(attr, Value::Int(i))])))
        .collect();
    for id in &ids {
        store.get(*id).expect("stored");
    }
    let mut tracker = CoAccessTracker::new(1024);
    for g in 0..16u64 {
        tracker.observe(&[g, g + 16, g + 32]);
    }
    ClusteredLayout::build(
        &tracker,
        64,
        PageConfig::new(8),
        ClusterStrategy::CoAccessGreedy,
    );

    let snapshot = db.metrics_report();
    let json = serde_json::to_string_pretty(&snapshot.to_json()).expect("serializable");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }

    println!("{}", profile.render());
    println!("{}", snapshot.render());
    println!(
        "wrote {} metrics ({} counters, {} gauges, {} histograms) → {path}",
        snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len(),
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
    );
}
