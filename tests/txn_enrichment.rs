//! FS.11 integration: concurrent user transactions vs continuous
//! enrichment, under both isolation regimes, plus crash recovery of
//! durably committed kv writes and the kv / isolation surface of the
//! `Db` facade.

use scdb_txn::{EnrichedDb, IsolationMode};
use scdb_types::Value;

#[test]
fn snapshot_mode_is_repeatable_under_enrichment_storm() {
    let db = EnrichedDb::new(IsolationMode::Snapshot);
    for k in 0..100u64 {
        db.enrich(k, Value::Int(k as i64));
    }
    let mut txn = db.begin();
    let first: Vec<Option<Value>> = (0..100).map(|k| db.read(&mut txn, k)).collect();
    // Enrichment storm mid-transaction.
    for k in 0..100u64 {
        db.enrich(k, Value::Int(-(k as i64)));
    }
    let second: Vec<Option<Value>> = (0..100).map(|k| db.read(&mut txn, k)).collect();
    assert_eq!(first, second, "snapshot reads repeatable");
    assert_eq!(db.stats().snapshot().1, 0, "zero phantoms");
}

#[test]
fn relaxed_mode_trades_repeatability_for_freshness() {
    let db = EnrichedDb::new(IsolationMode::RelaxedEnrichment);
    for k in 0..100u64 {
        db.enrich(k, Value::Int(k as i64));
    }
    let mut txn = db.begin();
    let _first: Vec<Option<Value>> = (0..100).map(|k| db.read(&mut txn, k)).collect();
    for k in 0..100u64 {
        db.enrich(k, Value::Int(-(k as i64)));
    }
    let second: Vec<Option<Value>> = (0..100).map(|k| db.read(&mut txn, k)).collect();
    // Freshness: the second read observes the new enrichment.
    assert_eq!(second[5], Some(Value::Int(-5)));
    // And the anomaly accounting shows the price.
    let (_, phantoms, _) = db.stats().snapshot();
    assert_eq!(phantoms, 100, "every re-read was a phantom");
}

#[test]
fn concurrent_writers_and_curation_threads() {
    let db = EnrichedDb::new(IsolationMode::RelaxedEnrichment);
    let tm = db.txn_manager().clone();
    let writer_db = db.clone();
    let curator_db = db.clone();
    let writers = std::thread::spawn(move || {
        let mut commits = 0;
        for i in 0..200u64 {
            let mut t = writer_db.begin();
            t.write(i % 10, Value::Int(i as i64)).unwrap();
            if writer_db.txn_manager().commit(&mut t).is_ok() {
                commits += 1;
            }
        }
        commits
    });
    let curator = std::thread::spawn(move || {
        for i in 0..200u64 {
            curator_db.enrich(1000 + (i % 10), Value::str(format!("fact{i}")));
        }
    });
    let commits = writers.join().unwrap();
    curator.join().unwrap();
    assert!(commits > 0);
    let (total_commits, _aborts) = tm.stats();
    assert_eq!(total_commits, commits);
    // Enrichment keys visible.
    let mut t = db.begin();
    assert!(db.read(&mut t, 1005).is_some());
}

/// Fifty durable kv commits, then power loss tears the last one's seal:
/// the reopened store holds exactly the first 49 and reports the torn
/// transaction as discarded.
#[test]
fn wal_roundtrip_of_curated_writes() {
    use scdb_core::{Db, DurabilityConfig, FailpointLog};

    let open = |log: &FailpointLog| {
        Db::builder()
            .durability_config(DurabilityConfig::store(Box::new(log.clone())))
            .open()
            .unwrap()
    };
    let log = FailpointLog::new();
    let db = open(&log);
    for i in 0..50u64 {
        let mut t = db.kv_begin();
        t.write(i, Value::Int(i as i64 * 2)).unwrap();
        db.kv_commit(&mut t).unwrap();
    }
    drop(db);
    let seg = "wal-00000001.seg";
    log.cut_durable(seg, log.durable_len(seg) - 2);

    let db = open(&log);
    assert_eq!(db.recovery_report().unwrap().txns_discarded, 1);
    assert_eq!(db.kv_store().txn_manager().latest_entries().len(), 49);
    let mut t = db.kv_begin();
    for i in 0..49u64 {
        assert_eq!(db.kv_read(&mut t, i), Some(Value::Int(i as i64 * 2)));
    }
    assert_eq!(db.kv_read(&mut t, 49), None, "torn seal commits nothing");
}

/// The `Db` facade surfaces the enrichment store's isolation modes: under
/// `Snapshot`, reads inside a transaction are repeatable while curation
/// enriches concurrently; under `RelaxedEnrichment`, the same reads see
/// fresh enrichment immediately.
#[test]
fn facade_exposes_isolation_modes() {
    use scdb_core::Db;

    let db = Db::builder().isolation(IsolationMode::Snapshot).build();
    assert_eq!(db.kv_isolation(), IsolationMode::Snapshot);
    db.kv_enrich(1, Value::Int(1)).unwrap();
    let mut txn = db.kv_begin();
    assert_eq!(db.kv_read(&mut txn, 1), Some(Value::Int(1)));
    db.kv_enrich(1, Value::Int(2)).unwrap();
    assert_eq!(
        db.kv_read(&mut txn, 1),
        Some(Value::Int(1)),
        "snapshot reads stay repeatable under enrichment"
    );

    let db = Db::builder()
        .isolation(IsolationMode::RelaxedEnrichment)
        .build();
    assert_eq!(db.kv_isolation(), IsolationMode::RelaxedEnrichment);
    db.kv_enrich(1, Value::Int(1)).unwrap();
    let mut txn = db.kv_begin();
    assert_eq!(db.kv_read(&mut txn, 1), Some(Value::Int(1)));
    db.kv_enrich(1, Value::Int(2)).unwrap();
    assert_eq!(
        db.kv_read(&mut txn, 1),
        Some(Value::Int(2)),
        "relaxed mode trades repeatability for freshness"
    );
}

/// Explicit transactions through the facade keep first-committer-wins
/// conflict semantics, and retraction tombstones flow through reads.
#[test]
fn facade_kv_transactions_conflict_and_retract() {
    use scdb_core::{CoreError, Db};
    use scdb_txn::TxnError;

    let db = Db::builder().build();
    let mut a = db.kv_begin();
    let mut b = db.kv_begin();
    a.write(7, Value::Int(1)).unwrap();
    b.write(7, Value::Int(2)).unwrap();
    db.kv_commit(&mut a).unwrap();
    let err = db.kv_commit(&mut b).unwrap_err();
    assert!(
        matches!(err, CoreError::Txn(TxnError::WriteConflict { key: 7 })),
        "unexpected error: {err}"
    );

    db.kv_enrich(9, Value::str("fact")).unwrap();
    db.kv_retract(9).unwrap();
    let mut t = db.kv_begin();
    assert_eq!(db.kv_read(&mut t, 9), None, "retraction tombstone wins");
}
