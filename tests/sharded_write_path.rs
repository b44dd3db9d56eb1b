//! The range-sharded write path (ISSUE 10 tentpole acceptance).
//!
//! Records route by identity key through the [`ShardMap`] to one of N
//! write shards, each owning its own instance/relation slice and its
//! own WAL (`wal-s<k>-*.seg`). These tests pin the contract end to
//! end: routing spreads keys and queries fan out across every shard;
//! a reopened database replays the shard logs on parallel worker
//! threads back to the exact committed state; a torn single-shard
//! batch is discarded without touching the other shards; and a torn
//! cross-shard seal voids the whole multi-shard batch on *every*
//! participant while earlier single-shard commits survive.

use std::collections::{BTreeMap, HashSet};

use scdb_core::{CoreError, Db, DurabilityConfig, IndexKind, IngestConfig};
use scdb_er::normalize::normalize;
use scdb_obs::EventFilter;
use scdb_placement::{PlacementPolicy, ShardMap};
use scdb_txn::frame::read_frames;
use scdb_txn::wal::decode_record;
use scdb_txn::{FailpointLog, LogRecord, WalStore};
use scdb_types::{Record, Value};

const SHARDS: u32 = 4;

/// The same routing table [`Db`] builds for `write_shards(shards)` with
/// the default policy — lets the tests pick keys with known
/// destinations.
fn routing_map_for(shards: u32) -> ShardMap {
    ShardMap::build(PlacementPolicy::Range, shards, &[])
}

fn routing_map() -> ShardMap {
    routing_map_for(SHARDS)
}

/// `n` distinct probe keys that the default range map places on `shard`.
fn keys_on(map: &ShardMap, shard: u32, n: usize) -> Vec<String> {
    let keys: Vec<String> = (0..100_000)
        .map(|i| format!("entity-{i}"))
        .filter(|k| map.shard_of_key(&normalize(k)) == shard)
        .take(n)
        .collect();
    assert_eq!(keys.len(), n, "found {n} probe keys for shard {shard}");
    keys
}

fn row(db: &Db, name: &str, dose: i64) -> Record {
    Record::from_pairs([
        (db.intern("name"), Value::str(name)),
        (db.intern("dose"), Value::Int(dose)),
    ])
}

/// Open over `log` with `shards` write shards (fsync on every seal) and
/// `ingest` as the ingest pipeline.
fn open_configured(log: &FailpointLog, shards: u32, ingest: IngestConfig) -> Result<Db, CoreError> {
    Db::builder()
        .durability_config(DurabilityConfig::store(Box::new(log.clone())))
        .ingest_config(ingest)
        .write_shards(shards)
        .open()
}

/// Open over `log` with `shards` write shards and direct ingest.
fn open_with(log: &FailpointLog, shards: u32) -> Result<Db, CoreError> {
    open_configured(log, shards, IngestConfig::direct())
}

/// The two ingest pipelines a commit may arrive through, named for
/// assertion messages: a direct commit on the caller's thread, and the
/// group-commit queue's committer.
fn ingest_paths() -> [(&'static str, IngestConfig); 2] {
    [
        ("direct", IngestConfig::direct()),
        ("queued", IngestConfig::queued(64)),
    ]
}

fn open_sharded(log: &FailpointLog) -> Result<Db, CoreError> {
    open_with(log, SHARDS)
}

fn durable_sizes(log: &FailpointLog) -> BTreeMap<String, u64> {
    log.file_names()
        .into_iter()
        .map(|name| {
            let len = log.durable_len(&name);
            (name, len)
        })
        .collect()
}

/// `(file, start, end)` for every durable file that grew between two
/// size snapshots.
fn grown(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Vec<(String, u64, u64)> {
    after
        .iter()
        .filter_map(|(name, len)| {
            let start = before.get(name).copied().unwrap_or(0);
            (*len > start).then(|| (name.clone(), start, *len))
        })
        .collect()
}

#[test]
fn sharded_ingest_routes_by_key_and_queries_fan_out() {
    let map = routing_map();
    let db = Db::builder().write_shards(SHARDS).build();
    db.register_source("trials", Some("name"));
    let mut per_shard = [0usize; SHARDS as usize];
    for i in 0..40 {
        let name = format!("entity-{i}");
        per_shard[map.shard_of_key(&normalize(&name)) as usize] += 1;
        db.ingest("trials", row(&db, &name, i), None).unwrap();
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "the range map spread the probe keys over every shard: {per_shard:?}"
    );
    // Aggregate accessors sum the disjoint per-shard slices.
    assert_eq!(db.record_count("trials").unwrap(), 40);
    // The `entity-<i>` names are fuzzy-similar (shared token), so each
    // shard's resolver folds its slice into one entity: entity
    // resolution is per-shard, and similarity merges never cross a
    // shard boundary.
    assert_eq!(db.entity_count(), SHARDS as usize);
    assert_eq!(db.stats().records, 40);
    // A query fans out and concatenates every shard's rows.
    let out = db.query("SELECT name, dose FROM trials").unwrap();
    assert_eq!(out.rows.len(), 40, "fan-out returns every shard's rows");
    assert_eq!(
        out.stats.rows_scanned, 40,
        "every shard's slice was scanned"
    );
    assert_eq!(out.stats.rows_out, 40);
    // The global LIMIT is re-applied after concatenation.
    let limited = db.query("SELECT name FROM trials LIMIT 5").unwrap();
    assert_eq!(limited.rows.len(), 5);
    assert_eq!(limited.stats.rows_out, 5);
    // The dump carries one section per shard.
    let dump = db.state_dump();
    for k in 0..SHARDS {
        assert!(
            dump.contains(&format!("shard {k}\n")),
            "state dump has a 'shard {k}' section"
        );
    }
}

#[test]
fn sharded_reopen_replays_in_parallel_and_restores_state() {
    scdb_obs::events().set_enabled(true);
    let live = FailpointLog::new();
    let db = open_sharded(&live).unwrap();
    db.register_source("trials", Some("name"));
    for i in 0..32 {
        db.ingest("trials", row(&db, &format!("entity-{i}"), i), None)
            .unwrap();
    }
    db.kv_enrich(7, Value::str("annotation")).unwrap();
    db.create_index("ix_name", "trials", "name", IndexKind::Hash)
        .unwrap();
    // A batch spanning several shards goes through the cross-shard
    // seal protocol on the unqueued path.
    let batch: Vec<Record> = (100..108)
        .map(|i| row(&db, &format!("entity-{i}"), i))
        .collect();
    db.ingest_batch("trials", batch).unwrap();
    let committed = db.state_dump();
    let names = live.file_names();
    for k in 0..SHARDS {
        assert!(
            names.iter().any(|n| n.starts_with(&format!("wal-s{k}-"))),
            "shard {k} owns its own WAL files: {names:?}"
        );
    }

    let fork = live.fork();
    fork.crash();
    drop(db);
    let seq0 = scdb_obs::events().recorded();
    let recovered = open_sharded(&fork).expect("reopen the sharded directory");
    assert_eq!(
        recovered.state_dump(),
        committed,
        "parallel recovery reconstructs the exact committed state"
    );
    let report = recovered.recovery_report().expect("durable open reports");
    assert_eq!(report.txns_discarded, 0, "clean crash discards nothing");
    assert!(report.records_replayed > 0);

    // One progress event per shard, emitted from ≥ 2 distinct worker
    // threads (the replay genuinely ran in parallel).
    let progress = scdb_obs::events().select(
        &EventFilter::new()
            .seq_min(seq0)
            .subsystem("core")
            .kind("shard.recovery"),
    );
    assert!(
        progress.len() >= SHARDS as usize,
        "one recovery-progress event per shard: got {}",
        progress.len()
    );
    let threads: HashSet<String> = progress
        .iter()
        .filter_map(|e| e.message.as_ref().map(|m| m.to_string()))
        .collect();
    assert!(
        threads.len() >= 2,
        "shard replay ran on ≥ 2 worker threads: {threads:?}"
    );

    // Query the recovered database across shards.
    let out = recovered.query("SELECT name FROM trials").unwrap();
    assert_eq!(out.rows.len(), 40);
}

#[test]
fn reopen_with_a_different_shard_count_is_refused() {
    let live = FailpointLog::new();
    let db = open_sharded(&live).unwrap();
    db.register_source("s", Some("name"));
    db.ingest("s", row(&db, "entity-1", 1), None).unwrap();
    drop(db);
    let err = match open_with(&live, 2) {
        Err(e) => e,
        Ok(_) => panic!("a 4-shard directory must refuse a 2-shard open"),
    };
    assert!(
        err.to_string().contains("shard"),
        "the error names the shard layout: {err}"
    );
    assert!(
        open_with(&live, 1).is_err(),
        "a 4-shard directory must refuse an unsharded open"
    );
}

#[test]
fn torn_single_shard_batch_spares_the_other_shards() {
    let map = routing_map();
    let live = FailpointLog::new();
    let db = open_sharded(&live).unwrap();
    db.register_source("trials", Some("name"));
    let survivors = keys_on(&map, 0, 2);
    let victims = keys_on(&map, 3, 2);
    // Committed context on both shards.
    db.ingest("trials", row(&db, &survivors[0], 1), None)
        .unwrap();
    db.ingest("trials", row(&db, &victims[0], 2), None).unwrap();
    let before_dump = db.state_dump();
    let before = durable_sizes(&live);
    // The victim commit lands entirely on shard 3.
    db.ingest("trials", row(&db, &victims[1], 3), None).unwrap();
    let after_dump = db.state_dump();
    let after = durable_sizes(&live);
    let grew = grown(&before, &after);
    assert_eq!(
        grew.len(),
        1,
        "a single-shard commit grows one log: {grew:?}"
    );
    let (name, start, end) = grew[0].clone();
    assert!(
        name.starts_with("wal-s3-"),
        "the commit landed on shard 3's log: {name}"
    );
    // Every cut strictly inside the commit discards it — and only it.
    let mut cuts_tested = 0usize;
    for cut in start + 1..end {
        let victim = live.fork();
        victim.cut_durable(&name, cut);
        let recovered = open_sharded(&victim).expect("reopen after cut");
        assert_eq!(
            recovered.state_dump(),
            before_dump,
            "cut at byte {cut} of {name} discards the torn commit and \
             leaves the other shards intact"
        );
        cuts_tested += 1;
    }
    assert!(cuts_tested > 10, "swept real bytes: {cuts_tested}");
    // A cut at the exact end keeps the commit.
    let whole = live.fork();
    whole.cut_durable(&name, end);
    let recovered = open_sharded(&whole).unwrap();
    assert_eq!(recovered.state_dump(), after_dump);
}

#[test]
fn torn_cross_shard_seal_discards_the_batch_on_every_shard() {
    for (path, ingest) in ingest_paths() {
        torn_cross_shard_seal_arm(path, ingest);
    }
}

/// One arm of the torn-seal sweep: the batch arrives through `ingest`,
/// and recovery must treat it as one unit either way.
fn torn_cross_shard_seal_arm(path: &str, ingest: IngestConfig) {
    let map = routing_map();
    let live = FailpointLog::new();
    let db = open_configured(&live, SHARDS, ingest).unwrap();
    db.register_source("trials", Some("name"));
    // Committed single-shard history on both future participants: it
    // must survive every cut below.
    let a = keys_on(&map, 0, 3);
    let b = keys_on(&map, 3, 3);
    for (i, k) in a.iter().take(2).chain(b.iter().take(2)).enumerate() {
        db.ingest("trials", row(&db, k, i as i64), None).unwrap();
    }
    let before_dump = db.state_dump();
    let before = durable_sizes(&live);
    // One multi-shard batch spanning shards 0 and 3: either path
    // appends the rows plus a cross-shard CommitGroup seal to *both*
    // participant logs.
    db.ingest_batch("trials", vec![row(&db, &a[2], 100), row(&db, &b[2], 101)])
        .unwrap();
    let after_dump = db.state_dump();
    let after = durable_sizes(&live);
    let grew = grown(&before, &after);
    assert_eq!(
        grew.len(),
        2,
        "{path}: the multi-shard batch grew both participant logs: {grew:?}"
    );
    assert!(grew.iter().any(|(n, _, _)| n.starts_with("wal-s0-")));
    assert!(grew.iter().any(|(n, _, _)| n.starts_with("wal-s3-")));

    // Sweep cuts through each participant's byte range — through the
    // row records *and* through the trailing seal. Any torn copy must
    // void the whole batch everywhere: recovery on the intact shard
    // waits at its seal, learns the peer's log ended without it, and
    // discards its half too.
    let mut cuts_tested = 0usize;
    let mut discard_reported = 0usize;
    for (name, start, end) in &grew {
        let mut offsets: Vec<u64> = (start + 1..*end).step_by(3).collect();
        offsets.push(end - 1); // strictly inside the seal frame
        offsets.sort_unstable();
        offsets.dedup();
        for cut in offsets {
            let victim = live.fork();
            victim.cut_durable(name, cut);
            let recovered = open_sharded(&victim).expect("reopen after cut");
            assert_eq!(
                recovered.state_dump(),
                before_dump,
                "{path}: cut at byte {cut} of {name} must discard the \
                 multi-shard batch on every participant"
            );
            let report = recovered.recovery_report().unwrap();
            discard_reported += usize::from(report.txns_discarded > 0);
            cuts_tested += 1;
        }
        // A cut at this log's exact end leaves both seals intact: the
        // whole batch commits.
        let whole = live.fork();
        whole.cut_durable(name, *end);
        let recovered = open_sharded(&whole).unwrap();
        assert_eq!(
            recovered.state_dump(),
            after_dump,
            "{path}: intact seals on both logs commit the batch"
        );
    }
    assert!(cuts_tested > 10, "{path}: swept real bytes: {cuts_tested}");
    assert!(
        discard_reported > 0,
        "{path}: at least the intact-peer forks report a discarded txn"
    );
}

/// Every durable segment on `log`, decoded record by record and
/// rendered to one compact label per record: `(file name, labels)` in
/// file-name order. `CommitGroup` labels carry the sealed-txn count and
/// the participant shards.
fn decoded_segments(log: &FailpointLog) -> Vec<(String, Vec<String>)> {
    segment_records(log)
        .into_iter()
        .map(|(name, records)| {
            let labels = records
                .iter()
                .map(|r| match r {
                    LogRecord::SourceReg { .. } => "SourceReg".to_string(),
                    LogRecord::IngestRow { .. } => "IngestRow".to_string(),
                    LogRecord::CommitGroup { txns, shards } => {
                        let participants: Vec<u32> = shards.iter().map(|(s, _)| *s).collect();
                        format!("CommitGroup({} txns, shards {participants:?})", txns.len())
                    }
                    other => format!("{other:?}"),
                })
                .collect();
            (name, labels)
        })
        .collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `(file name, byte length, FNV-1a hash)` of every file on `log` that
/// `keep` selects, in file-name order: pins the bytes, not just the
/// decoded records.
fn file_digests(log: &FailpointLog, keep: impl Fn(&str) -> bool) -> Vec<(String, usize, u64)> {
    log.file_names()
        .into_iter()
        .filter(|name| keep(name))
        .map(|name| {
            let data = WalStore::read(log, &name).expect("read file");
            let hash = fnv1a(&data);
            (name, data.len(), hash)
        })
        .collect()
}

fn segment_digests(log: &FailpointLog) -> Vec<(String, usize, u64)> {
    file_digests(log, |name| name.ends_with(".seg"))
}

fn segment_records(log: &FailpointLog) -> Vec<(String, Vec<LogRecord>)> {
    log.file_names()
        .into_iter()
        .filter(|name| name.ends_with(".seg"))
        .map(|name| {
            let data = WalStore::read(log, &name).expect("read segment");
            let (frames, tail) = read_frames(&data);
            assert_eq!(tail.truncated_bytes, 0, "{name} decodes to its last byte");
            let records = frames
                .into_iter()
                .map(|mut frame| decode_record(&mut frame, 0).expect("decode record"))
                .collect();
            (name, records)
        })
        .collect()
}

/// The fixed schedule of the framing pin: one row, a three-row batch on
/// the same shard, then a two-row batch that spans every shard the
/// database has (`home` keys route to shard 0, `away` to the last).
fn run_framing_schedule(db: &Db, home: &[String], away: &str) {
    db.register_source("trials", Some("name"));
    db.ingest("trials", row(db, &home[0], 0), None).unwrap();
    let same_shard = home[1..4].iter().map(|k| row(db, k, 1)).collect();
    db.ingest_batch("trials", same_shard).unwrap();
    db.ingest_batch("trials", vec![row(db, &home[4], 2), row(db, away, 3)])
        .unwrap();
}

fn labels(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// The on-disk framing the commit path must not move: which record
/// kinds a commit writes, in what order, into which file — and, pinned
/// by length and FNV-1a hash, the exact bytes. One row seals with a
/// one-txn seal (the encoder's 9-byte framing); a same-shard batch with
/// a seal whose participant vector is empty; a cross-shard batch with
/// the identical non-empty vector in every participant's log. An
/// unsharded database writes the unsuffixed `wal-*.seg`; shard `k` of a
/// sharded one writes `wal-s<k>-*.seg`. A queued database writes the
/// same bytes as a direct one: the committer commits each popped batch
/// through the same routed commit.
#[test]
fn commit_framing_is_pinned_for_one_and_two_shards() {
    let map = routing_map_for(2);
    let home = keys_on(&map, 0, 5);
    let away = keys_on(&map, 1, 1).remove(0);
    for (path, ingest) in ingest_paths() {
        // 1 shard: every key is home, one unsuffixed log, no shard
        // vectors.
        let log = FailpointLog::new();
        let db = open_configured(&log, 1, ingest.clone()).unwrap();
        run_framing_schedule(&db, &home, &away);
        drop(db);
        assert_eq!(
            decoded_segments(&log),
            vec![(
                "wal-00000001.seg".to_string(),
                labels(&[
                    "SourceReg",
                    "IngestRow",
                    "CommitGroup(1 txns, shards [])",
                    "IngestRow",
                    "IngestRow",
                    "IngestRow",
                    "CommitGroup(3 txns, shards [])",
                    "IngestRow",
                    "IngestRow",
                    "CommitGroup(2 txns, shards [])",
                ])
            )],
            "{path}, 1 shard"
        );
        assert_eq!(
            segment_digests(&log),
            vec![("wal-00000001.seg".to_string(), 532, 0x1c76_8052_5c13_67f6)],
            "{path}, 1 shard"
        );

        // 2 shards: the same schedule splits its last batch over both
        // logs.
        let log = FailpointLog::new();
        let db = open_configured(&log, 2, ingest).unwrap();
        run_framing_schedule(&db, &home, &away);
        drop(db);
        assert_eq!(
            decoded_segments(&log),
            vec![
                (
                    "wal-s0-00000001.seg".to_string(),
                    labels(&[
                        "SourceReg",
                        "IngestRow",
                        "CommitGroup(1 txns, shards [])",
                        "IngestRow",
                        "IngestRow",
                        "IngestRow",
                        "CommitGroup(3 txns, shards [])",
                        "IngestRow",
                        "CommitGroup(1 txns, shards [0, 1])",
                    ])
                ),
                (
                    "wal-s1-00000001.seg".to_string(),
                    labels(&[
                        "SourceReg",
                        "IngestRow",
                        "CommitGroup(1 txns, shards [0, 1])",
                    ])
                ),
            ],
            "{path}, 2 shards"
        );
        // Both participants sealed the identical vector, and each entry
        // names the first transaction its own shard sealed under it.
        let mut vectors = Vec::new();
        for (shard, (_, records)) in segment_records(&log).into_iter().enumerate() {
            let Some(LogRecord::CommitGroup { txns, shards }) = records.last() else {
                panic!("{path}: each log ends in the cross-shard seal: {records:?}");
            };
            assert_eq!(shards[shard], (shard as u32, txns[0]), "{path}");
            vectors.push(shards.clone());
        }
        assert_eq!(vectors[0], vectors[1], "{path}: one vector, sealed twice");
        assert_eq!(
            segment_digests(&log),
            vec![
                (
                    "wal-s0-00000001.seg".to_string(),
                    482,
                    0x7ca3_f426_97ce_0130
                ),
                (
                    "wal-s1-00000001.seg".to_string(),
                    147,
                    0xe435_7cd1_53bb_66fe
                ),
            ],
            "{path}, 2 shards"
        );
    }
}

/// First differential arm of ROADMAP item E: a shard is a whole
/// database. Fed only keys that route to shard 1, a 2-shard database's
/// `shard 1` section of `state_dump` equals, byte for byte, the dump of
/// an unsharded database fed the same rows.
#[test]
fn one_shards_slice_equals_the_unsharded_database() {
    let keys = keys_on(&routing_map_for(2), 1, 12);
    let feed = |db: &Db| {
        db.register_source("trials", Some("name"));
        db.register_source("notes", None);
        for (i, k) in keys.iter().take(6).enumerate() {
            db.ingest("trials", row(db, k, i as i64), Some("free text"))
                .unwrap();
        }
        // A repeated key merges; the rest arrive as one batch.
        db.ingest("notes", row(db, &keys[0], 99), None).unwrap();
        let batch = keys[6..].iter().map(|k| row(db, k, 7)).collect();
        db.ingest_batch("trials", batch).unwrap();
        db.create_index("ix_dose", "trials", "dose", IndexKind::Ordered)
            .unwrap();
        db.discover_links().unwrap();
    };
    let unsharded = Db::new();
    feed(&unsharded);
    let sharded = Db::builder().write_shards(2).build();
    feed(&sharded);
    let dump = sharded.state_dump();
    let (shard0, shard1) = dump
        .strip_prefix("shard 0\n")
        .and_then(|rest| rest.split_once("shard 1\n"))
        .expect("two labelled sections");
    assert_eq!(shard1, unsharded.state_dump());
    assert!(
        shard0.contains("rows=0") && !shard0.contains("\nrow "),
        "nothing routed to shard 0: {shard0}"
    );
}

/// The curation schedule of the digest pin: sources with and without a
/// designated identity, a reference ingested before its target and then
/// swept, a bridging row that absorbs an entity, a JSON document with
/// its text, and rows after a checkpoint.
fn run_curation_schedule(db: &Db) {
    let gene = |g: &str, f: &str| {
        Record::from_pairs([
            (db.intern("gene"), Value::str(g)),
            (db.intern("function"), Value::str(f)),
        ])
    };
    let drug = |n: &str, t: &str, dose: i64| {
        Record::from_pairs([
            (db.intern("name"), Value::str(n)),
            (db.intern("target"), Value::str(t)),
            (db.intern("dose"), Value::Int(dose)),
        ])
    };
    let note = |title: &str| Record::from_pairs([(db.intern("title"), Value::str(title))]);
    db.register_source("drugs", Some("name"));
    db.register_source("genes", Some("gene"));
    db.register_source("notes", None);
    db.ingest("genes", gene("TP53", "tumor suppressor"), None)
        .unwrap();
    db.ingest("drugs", drug("Warfarin", "VKORC1", 5), None)
        .unwrap();
    db.ingest("drugs", drug("Nutlin", "TP53", 2), None).unwrap();
    db.ingest("genes", gene("VKORC1", "vitamin k epoxide reductase"), None)
        .unwrap();
    db.discover_links().unwrap();
    let a = db.ingest("notes", note("aspirin tablet"), None).unwrap();
    let b = db
        .ingest("notes", note("aspirin coated small pill"), None)
        .unwrap();
    assert_ne!(a.entity, b.entity, "two entities before the bridge");
    let bridge = db
        .ingest("notes", note("aspirin tablet coated small pill"), None)
        .unwrap();
    assert!(!bridge.absorbed.is_empty(), "the bridge absorbs an entity");
    db.ingest_json("drugs", r#"{"name":"Aspirin","target":"PTGS2","dose":81}"#)
        .unwrap();
    db.checkpoint().unwrap();
    db.ingest("genes", gene("PTGS2", "cyclooxygenase"), None)
        .unwrap();
    db.ingest("drugs", drug("warfarin", "VKORC1", 3), None)
        .unwrap();
    db.ingest_batch(
        "drugs",
        vec![
            drug("Celecoxib", "PTGS2", 200),
            drug("Idasanutlin", "TP53", 1),
        ],
    )
    .unwrap();
}

/// Run [`run_curation_schedule`] on `shards` write shards and check
/// its outputs against their pins: the `(length, FNV-1a)` digest of
/// `state_dump`, and the digest of every file on the medium. A reopen
/// lands on the same dump.
fn assert_curation_digests(shards: u32, dump_digest: (usize, u64), files: &[(&str, usize, u64)]) {
    let log = FailpointLog::new();
    let db = open_with(&log, shards).unwrap();
    run_curation_schedule(&db);
    let dump = db.state_dump();
    drop(db);
    assert_eq!(
        (dump.len(), fnv1a(dump.as_bytes())),
        dump_digest,
        "{shards}-shard state dump:\n{dump}"
    );
    let files: Vec<(String, usize, u64)> = files
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    assert_eq!(file_digests(&log, |_| true), files, "{shards}-shard medium");
    assert_eq!(open_with(&log, shards).unwrap().state_dump(), dump);
}

/// Curation is pinned by its outputs — the state dump, the log segments
/// and the snapshot — on one shard and on two.
#[test]
fn curation_digests_are_pinned_for_one_and_two_shards() {
    assert_curation_digests(
        1,
        (2049, 0xda74_2b39_8490_1760),
        &[
            ("snap-00000002.scdb", 0x5d0, 0x6b05_add1_5873_76d2),
            ("wal-00000002.seg", 0x19e, 0x3be1_e702_a4d1_1685),
        ],
    );
    assert_curation_digests(
        2,
        (2090, 0x8cf3_eab6_361e_45ba),
        &[
            ("snap-s0-00000002.scdb", 0x525, 0x58c0_3422_bde4_ddba),
            ("snap-s1-00000002.scdb", 0x307, 0xb553_c4e4_6974_0a3a),
            ("wal-s0-00000002.seg", 0xd2, 0xa36b_0d08_e723_6c4e),
            ("wal-s1-00000002.seg", 0xcc, 0x2711_65cb_ffc1_5297),
        ],
    );
}
