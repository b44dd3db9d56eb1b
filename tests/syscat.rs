//! System-catalog integration: the `sys.*` relations answer ordinary
//! ScQL, the batch correlation id reconstructs a group-commit batch's
//! flush→append→fsync→apply journey from `sys.events`, sys queries
//! never feed the slow-query ring they expose, the namespace is
//! reserved against user registration, and one `diagnostic_bundle`
//! call drops the whole catalog on disk.

use std::sync::Mutex;
use std::time::Duration;

use scdb_core::{CoreError, Db, DurabilityConfig, IngestConfig, TelemetryConfig, SLOW_QUERY_RING};
use scdb_er::normalize::normalize;
use scdb_placement::{PlacementPolicy, ShardMap};
use scdb_types::{Record, Value};

/// Serializes tests that toggle process-global observability state or
/// assert on the contents of the global event ring.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_OBS.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("scdb-syscat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Render one result row as JSON through the shared symbol table — the
/// same path `diagnostic_bundle` uses for its JSONL files.
fn row_json(db: &Db, row: &Record) -> serde_json::Value {
    scdb_core::syscat::record_to_json(row, &db.symbols_ref())
}

/// The catalog is self-describing: `sys.relations` lists every
/// relation, and each listed relation answers `SELECT *` through the
/// ordinary query path with a populated profile.
#[test]
fn every_catalog_relation_is_queryable() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);
    scdb_obs::events().set_enabled(true);

    let db = Db::new();
    let out = db.query("SELECT * FROM sys.relations").expect("catalog");
    assert!(out.rows.len() >= 9, "catalog lists all relations");
    for row in &out.rows {
        let json = row_json(&db, row);
        let name = json
            .get("name")
            .and_then(|v| v.as_str())
            .expect("name column")
            .to_string();
        assert!(
            json.get("description").and_then(|v| v.as_str()).is_some(),
            "description column on {name}"
        );
        let rel = db
            .query(&format!("SELECT * FROM {name} LIMIT 5"))
            .unwrap_or_else(|e| panic!("{name} not queryable: {e}"));
        assert!(
            rel.profile.stage("sys_refresh").is_some(),
            "{name} profile carries the sys_refresh stage"
        );
        for stage in ["plan", "optimize", "execute"] {
            assert!(
                rel.profile.stage(stage).is_some(),
                "{name} missing pipeline stage {stage}"
            );
        }
    }
    // Unknown catalog relations fail like any unknown source.
    assert!(matches!(
        db.query("SELECT * FROM sys.nope"),
        Err(CoreError::UnknownSource(_))
    ));
}

/// ISSUE acceptance: `SELECT * FROM sys.events WHERE batch_id = N`
/// returns the complete pipeline journey — group-commit flush, WAL
/// append, fsync, and apply — of a real batch whose id came back on the
/// ingest ack.
#[test]
fn correlation_id_reconstructs_batch_journey() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);
    scdb_obs::events().set_enabled(true);

    let dir = scratch_dir("journey");
    let db = Db::builder()
        .durability_config(DurabilityConfig::dir(&dir))
        .ingest_config(IngestConfig::queued(64))
        .open()
        .expect("open");
    db.register_source("journey", Some("k"));
    let k = db.intern("k");
    let v = db.intern("v");
    let batch: Vec<Record> = (0..32i64)
        .map(|i| Record::from_pairs([(k, Value::str(format!("k-{i}"))), (v, Value::Int(i))]))
        .collect();
    let reports = db.ingest_batch("journey", batch).expect("acked batch");
    let batch_id = reports.last().expect("reports").batch_id;
    assert!(batch_id > 0, "queued ingest acks carry a correlation id");

    let out = db
        .query(&format!(
            "SELECT * FROM sys.events WHERE batch_id = {batch_id}"
        ))
        .expect("correlated trace");
    let kinds: Vec<String> = out
        .rows
        .iter()
        .filter_map(|r| {
            row_json(&db, r)
                .get("kind")
                .and_then(|v| v.as_str().map(str::to_owned))
        })
        .collect();
    for kind in [
        "group_commit.flush",
        "wal.append",
        "wal.fsync",
        "ingest.stages",
    ] {
        assert!(
            kinds.iter().any(|x| x == kind),
            "batch {batch_id} journey missing {kind}, got {kinds:?}"
        );
    }
    // Every acked report in the call maps to a traceable batch.
    for r in &reports {
        assert!(r.batch_id > 0, "every ack carries an id");
    }
    // The inline (unqueued) path is a batch of one — traceable too.
    let inline = Db::new();
    inline.register_source("inline", Some("k"));
    let rep = inline
        .ingest("inline", Record::from_pairs([(k, Value::str("x"))]), None)
        .expect("inline ingest");
    assert!(rep.batch_id > 0, "inline path mints a batch of one");

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: the catalog stays consistent while a writer hammers the
/// database — monotone counts across repeated refreshes, and every
/// `sys.events` row renders with its mandatory columns.
#[test]
fn sys_relations_consistent_under_concurrent_ingest() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);
    scdb_obs::events().set_enabled(true);

    let db = Db::new();
    db.register_source("feed", Some("k"));
    let k = db.intern("k");
    let v = db.intern("v");
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            for i in 0..2_000i64 {
                let r = Record::from_pairs([(k, Value::str(format!("k-{i}"))), (v, Value::Int(i))]);
                db.ingest("feed", r, None).expect("ingest");
            }
        })
    };

    let mut last_sys_queries = 0i64;
    let mut last_applies = 0i64;
    for _ in 0..20 {
        // The sys-query counter counts this very query stream: strictly
        // monotone across reads.
        let out = db
            .query("SELECT * FROM sys.metrics WHERE name = 'query.sys_queries'")
            .expect("metrics");
        if let Some(row) = out.rows.first() {
            let value = row_json(&db, row)
                .get("value")
                .and_then(|v| v.as_i64())
                .expect("counter value");
            assert!(value >= last_sys_queries, "counter went backwards");
            last_sys_queries = value;
        }
        // The apply-stage histogram only grows while the writer runs.
        let out = db
            .query("SELECT * FROM sys.metrics WHERE name = 'core.ingest.stage.apply_ns'")
            .expect("metrics");
        if let Some(row) = out.rows.first() {
            let count = row_json(&db, row)
                .get("count")
                .and_then(|v| v.as_i64())
                .expect("histogram count");
            assert!(count >= last_applies, "histogram count went backwards");
            last_applies = count;
        }
        let out = db.query("SELECT * FROM sys.events").expect("events");
        let mut last_seq = -1i64;
        for row in &out.rows {
            let json = row_json(&db, row);
            let seq = json.get("seq").and_then(|v| v.as_i64()).expect("seq");
            assert!(seq > last_seq, "event seq strictly increasing");
            last_seq = seq;
            for col in ["ts_ms", "subsystem", "kind"] {
                assert!(json.get(col).is_some(), "event row missing {col}");
            }
        }
    }
    writer.join().expect("writer");
    assert!(
        last_applies > 0,
        "writer progress visible through sys.metrics"
    );
}

/// Satellite: a sys query must never be captured into the slow-query
/// ring it exposes — even with a zero threshold that captures every
/// user query.
#[test]
fn sys_queries_never_enter_the_slow_ring() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);

    let db = Db::builder().slow_query_threshold(Duration::ZERO).build();
    db.register_source("users", Some("k"));
    let k = db.intern("k");
    db.ingest("users", Record::from_pairs([(k, Value::str("x"))]), None)
        .expect("ingest");
    for _ in 0..5 {
        db.query("SELECT * FROM sys.slow_queries").expect("sys");
        db.query("SELECT * FROM sys.metrics LIMIT 3").expect("sys");
    }
    db.query("SELECT k FROM users").expect("user query");

    let slow = db.slow_queries();
    assert!(
        slow.iter().any(|q| q.text.contains("FROM users")),
        "zero threshold still captures user queries"
    );
    assert!(
        slow.iter().all(|q| !q.text.contains("FROM sys.")),
        "sys queries leaked into the slow ring: {:?}",
        slow.iter().map(|q| &q.text).collect::<Vec<_>>()
    );
}

/// Satellite: the `sys` namespace is reserved — registration, ingest
/// (via source lookup), and index creation all refuse it.
#[test]
fn sys_namespace_is_reserved() {
    let db = Db::new();
    for name in ["sys", "sys.events", "sys.custom"] {
        assert!(
            matches!(
                db.try_register_source(name, None),
                Err(CoreError::ReservedNamespace(_))
            ),
            "registration of {name} must be refused"
        );
    }
    // Not reserved: merely sys-like prefixes.
    db.try_register_source("system", None).expect("system ok");
    db.register_source("users", Some("k"));
    let k = db.intern("k");
    db.ingest("users", Record::from_pairs([(k, Value::str("x"))]), None)
        .expect("ingest");
    assert!(matches!(
        db.ingest(
            "sys.events",
            Record::from_pairs([(k, Value::str("x"))]),
            None
        ),
        Err(CoreError::UnknownSource(_))
    ));
    assert!(matches!(
        db.create_index("sys.idx", "users", "k", scdb_core::IndexKind::Hash),
        Err(CoreError::ReservedNamespace(_))
    ));
    assert!(matches!(
        db.create_index("idx", "sys.events", "kind", scdb_core::IndexKind::Hash),
        Err(CoreError::ReservedNamespace(_))
    ));
}

/// Satellite: the slow-query ring holds at most [`SLOW_QUERY_RING`]
/// captures, keeping the newest.
#[test]
fn slow_query_capacity_bounds_the_ring() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);

    let db = Db::builder().slow_query_threshold(Duration::ZERO).build();
    db.register_source("cap", Some("k"));
    let k = db.intern("k");
    let v = db.intern("v");
    for i in 0..5i64 {
        let r = Record::from_pairs([(k, Value::str(format!("k-{i}"))), (v, Value::Int(i))]);
        db.ingest("cap", r, None).expect("ingest");
    }
    let n = SLOW_QUERY_RING + 7;
    for i in 0..n {
        db.query(&format!("SELECT k FROM cap WHERE v >= {i}"))
            .expect("query");
    }
    let slow = db.slow_queries();
    assert_eq!(slow.len(), SLOW_QUERY_RING, "ring bounded at its capacity");
    assert!(
        slow.last()
            .expect("newest")
            .text
            .ends_with(&format!(">= {}", n - 1)),
        "newest capture retained"
    );
    assert!(
        slow.first().expect("oldest").text.ends_with(">= 7"),
        "oldest surviving capture is the ring's width back"
    );
}

/// Satellite: one `diagnostic_bundle` call writes health JSON,
/// Prometheus text, and one parseable JSONL file per exported catalog
/// relation — all from the same `sys.*` machinery queries use.
#[test]
fn diagnostic_bundle_exports_the_catalog() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);
    scdb_obs::events().set_enabled(true);

    let db = Db::builder()
        .slow_query_threshold(Duration::ZERO)
        .telemetry(TelemetryConfig::default().interval(Duration::ZERO))
        .build();
    db.register_source("bundle", Some("k"));
    let k = db.intern("k");
    let v = db.intern("v");
    for i in 0..50i64 {
        let r = Record::from_pairs([(k, Value::str(format!("k-{i}"))), (v, Value::Int(i))]);
        db.ingest("bundle", r, None).expect("ingest");
    }
    db.query("SELECT k FROM bundle WHERE v >= 25")
        .expect("query");
    db.sample_now().expect("telemetry tick");

    let dir = scratch_dir("bundle");
    let bundle = db.diagnostic_bundle(&dir).expect("bundle");
    assert_eq!(bundle.dir, dir);
    for name in [
        "health.json",
        "metrics.prom",
        "events.jsonl",
        "samples.jsonl",
        "slow_queries.jsonl",
        "watches.jsonl",
    ] {
        assert!(
            bundle.files.iter().any(|f| f == name),
            "bundle receipt lists {name}"
        );
        assert!(dir.join(name).is_file(), "{name} written");
    }

    let health: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("health.json")).expect("read"))
            .expect("health parses");
    assert!(health.get("uptime_ms").is_some());
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("read");
    assert!(prom.contains("# HELP ") && prom.contains("# TYPE "));
    for (file, must_have) in [
        ("events.jsonl", "kind"),
        ("samples.jsonl", "metric"),
        ("slow_queries.jsonl", "profile"),
    ] {
        let text = std::fs::read_to_string(dir.join(file)).expect("read");
        assert!(!text.trim().is_empty(), "{file} non-empty after workload");
        for line in text.lines() {
            let json: serde_json::Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("{file} line fails to parse: {e}"));
            assert!(
                json.get(must_have).is_some(),
                "{file} rows carry {must_have}"
            );
        }
    }
    // The slow-query profiles embed the full EXPLAIN ANALYZE JSON.
    let slow_text = std::fs::read_to_string(dir.join("slow_queries.jsonl")).expect("read");
    let first: serde_json::Value =
        serde_json::from_str(slow_text.lines().next().expect("capture")).expect("parses");
    let profile: serde_json::Value =
        serde_json::from_str(first.get("profile").and_then(|p| p.as_str()).expect("str"))
            .expect("embedded profile parses");
    assert!(profile.get("stages").is_some(), "stage breakdown embedded");

    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: `sys.wal` reports one row per write shard (keyed by the
/// `shard` column) and `sys.locks` discovers the extra shards'
/// `.s<k>` lock labels from the wait histograms — no schema change,
/// the relations just grow with `DbBuilder::write_shards`.
#[test]
fn wal_and_lock_relations_learn_shards() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);

    let db = Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(
            scdb_txn::FailpointLog::new(),
        )))
        .write_shards(4)
        .open()
        .expect("open sharded db");
    db.register_source("trials", Some("name"));
    for i in 0..40i64 {
        let r = Record::from_pairs([
            (db.intern("name"), Value::str(format!("entity-{i}"))),
            (db.intern("dose"), Value::Int(i)),
        ]);
        db.ingest("trials", r, None).expect("ingest");
    }

    let out = db.query("SELECT * FROM sys.wal").expect("sys.wal");
    assert_eq!(out.rows.len(), 4, "one sys.wal row per write shard");
    let mut shards = Vec::new();
    for row in &out.rows {
        let json = row_json(&db, row);
        shards.push(
            json.get("shard")
                .and_then(|v| v.as_i64())
                .expect("shard column"),
        );
        assert_eq!(
            json.get("durable").and_then(|v| v.as_bool()),
            Some(true),
            "every shard holds an installed WAL"
        );
        assert!(
            json.get("records_since_ckpt").is_some(),
            "lag columns present on a durable shard row"
        );
    }
    shards.sort_unstable();
    assert_eq!(shards, vec![0, 1, 2, 3]);

    let locks = db.query("SELECT * FROM sys.locks").expect("sys.locks");
    let labels: Vec<String> = locks
        .rows
        .iter()
        .map(|r| {
            row_json(&db, r)
                .get("shard")
                .and_then(|v| v.as_str().map(str::to_string))
                .expect("shard label column")
        })
        .collect();
    for base in ["symbols", "instance", "relation", "durable"] {
        assert!(
            labels.iter().any(|l| l == base),
            "baseline lock label {base} always listed: {labels:?}"
        );
    }
    for k in 1..4 {
        assert!(
            labels.iter().any(|l| l == &format!("instance.s{k}")),
            "shard {k}'s instance lock label discovered from traffic: {labels:?}"
        );
    }

    // One `ingest.stages` schema whatever the batch's shape (ISSUE 16):
    // a commit on one shard and a commit spanning shards both carry
    // `shard` (the first participant), so the `sys.events` column is
    // not ragged; the spanning one also has a `shard.seal` event that
    // counts its participants.
    scdb_obs::events().set_enabled(true);
    let one = db
        .ingest(
            "trials",
            Record::from_pairs([(db.intern("name"), Value::str("entity-900"))]),
            None,
        )
        .expect("single-row commit");
    let spanning: Vec<Record> = (901..917i64)
        .map(|i| Record::from_pairs([(db.intern("name"), Value::str(format!("entity-{i}")))]))
        .collect();
    let many = db.ingest_batch("trials", spanning).expect("batch commit");
    let event_of = |batch_id: u64, kind: &str| {
        let out = db
            .query(&format!(
                "SELECT * FROM sys.events WHERE batch_id = {batch_id}"
            ))
            .expect("correlated trace");
        out.rows
            .iter()
            .map(|r| row_json(&db, r))
            .find(|j| j.get("kind").and_then(|v| v.as_str()) == Some(kind))
    };
    let shard_of = |batch_id: u64| {
        event_of(batch_id, "ingest.stages")
            .expect("the batch's ingest.stages event")
            .get("shard")
            .and_then(|v| v.as_i64())
    };
    assert!(shard_of(one.batch_id).is_some());
    assert!(event_of(one.batch_id, "shard.seal").is_none());
    assert!(
        shard_of(many[0].batch_id).is_some(),
        "the cross-shard commit reports its first participant"
    );
    let seal = event_of(many[0].batch_id, "shard.seal").expect("16 spread keys span shards");
    assert!(seal.get("shards").and_then(|v| v.as_i64()) > Some(1));
}

/// Satellite (ISSUE 16): `query.{plan,optimize,execute}_ns` are observed
/// once per query and cover every shard the query fanned out to. With
/// every row on shard 1 of 2, the executed time a query reports must be
/// in the range of the same scan on an unsharded database — not the
/// near-zero cost of scanning the empty shard 0.
#[test]
fn sharded_query_metrics_cover_every_shard() {
    let _g = obs_lock();
    scdb_obs::metrics().set_enabled(true);

    let map = ShardMap::build(PlacementPolicy::Range, 2, &[]);
    let keys: Vec<String> = (0..)
        .map(|i| format!("k{i}"))
        .filter(|k| map.shard_of_key(&normalize(k)) == 1)
        .take(400)
        .collect();
    let load = |db: &Db| {
        db.register_source("t", Some("name"));
        let name = db.intern("name");
        let rows = keys
            .iter()
            .map(|k| Record::from_pairs([(name, Value::str(k.as_str()))]))
            .collect();
        db.ingest_batch("t", rows).expect("load");
    };
    let unsharded = Db::new();
    load(&unsharded);
    let sharded = Db::builder().write_shards(2).build();
    load(&sharded);

    // (observations, nanoseconds) one query adds to `query.execute_ns`.
    let executed = |db: &Db| {
        let read = || {
            let snap = scdb_obs::metrics().snapshot();
            let h = snap.histograms.get("query.execute_ns");
            h.map_or((0, 0), |h| (h.count, h.sum))
        };
        let before = read();
        let out = db.query("SELECT name FROM t").expect("scan");
        assert_eq!(out.rows.len(), keys.len());
        let after = read();
        (after.0 - before.0, after.1 - before.1)
    };
    let (mut lone_ns, mut fanned_ns) = (u64::MAX, 0);
    for _ in 0..5 {
        let (n, ns) = executed(&unsharded);
        assert_eq!(n, 1);
        lone_ns = lone_ns.min(ns);
        let (n, ns) = executed(&sharded);
        assert_eq!(n, 1, "one observation per query, not one per shard");
        fanned_ns = fanned_ns.max(ns);
    }
    assert!(
        fanned_ns * 4 >= lone_ns,
        "the sharded scan reports {fanned_ns} ns executed against {lone_ns} ns \
         for the same rows unsharded: shard 1's time is missing"
    );
}
