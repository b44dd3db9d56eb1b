//! Differential arms (ROADMAP F1): a database must answer exactly like a
//! simpler reference fed the same rows.
//!
//! Reopened ≡ never-closed: a database checkpointed halfway through a
//! load, dropped and reopened from its snapshot, then fed the rest, ends
//! in the state of one that was never closed, and resolves every later
//! row to the same entity. A snapshot reopen adopts its rows without
//! scoring them, so this is what shows that the adopted resolver — its
//! blocker, aligner profiles and union-find — is the live one. The
//! snapshot does not carry the resolver's cross-source alignment cache,
//! so the gated arms realign before every cross-source comparison; the
//! arm at the default interval is ignored until the snapshot carries it.

use scdb_core::{Db, DurabilityConfig, IngestReport};
use scdb_datagen::life_science::{scaled, ScaledConfig};
use scdb_er::ResolverConfig;
use scdb_txn::FailpointLog;
use scdb_types::{Record, SymbolTable, Value};

/// One generated row, symbol-free so it can be interned into any `Db`.
struct Row {
    source: String,
    attrs: Vec<(String, Value)>,
    text: Option<String>,
}

/// Each source with its identity attribute (its rows' first), and the
/// rows interleaved across sources in arrival order, each carrying a
/// `tag` shared by ten consecutive rows of its source as in the
/// benchmark corpus.
fn corpus() -> (Vec<(String, String)>, Vec<Row>) {
    let mut symbols = SymbolTable::new();
    let generated = scaled(
        &ScaledConfig {
            n_drugs: 120,
            n_genes: 40,
            n_diseases: 24,
            seed: 0xD1FF,
            ..ScaledConfig::default()
        },
        &mut symbols,
    );
    let sources = generated
        .iter()
        .map(|s| {
            let first = s.records[0].record.attrs().next().expect("non-empty rows");
            (s.name.clone(), symbols.resolve(first).to_string())
        })
        .collect();
    let longest = generated.iter().map(|s| s.records.len()).max().unwrap_or(0);
    let rows = (0..longest)
        .flat_map(|i| generated.iter().enumerate().map(move |(k, s)| (i, k, s)))
        .filter_map(|(i, k, s)| {
            let r = s.records.get(i)?;
            let mut attrs: Vec<(String, Value)> = r
                .record
                .iter()
                .map(|(a, v)| (symbols.resolve(a).to_string(), v.clone()))
                .collect();
            attrs.push(("tag".into(), Value::str(format!("{:04x}s{k}", i / 10))));
            Some(Row {
                source: s.name.clone(),
                attrs,
                text: r.text.clone(),
            })
        })
        .collect();
    (sources, rows)
}

/// What one ingest decided — record, entity, fresh, absorbed, links —
/// minus its batch id (a per-handle counter).
type Decision = (u32, u64, u64, bool, Vec<u64>, usize);

fn decision(r: &IngestReport) -> Decision {
    (
        r.record.source.0,
        r.record.offset,
        r.entity.0,
        r.fresh_entity,
        r.absorbed.iter().map(|e| e.0).collect(),
        r.links_discovered,
    )
}

fn load(db: &Db, rows: &[Row]) -> Vec<Decision> {
    rows.iter()
        .map(|row| {
            let record =
                Record::from_pairs(row.attrs.iter().map(|(a, v)| (db.intern(a), v.clone())));
            let report = db
                .ingest(&row.source, record, row.text.as_deref())
                .expect("ingest");
            decision(&report)
        })
        .collect()
}

fn reopened_equals_never_closed(shards: u32, resolver: ResolverConfig) {
    let (sources, rows) = corpus();
    let (first, rest) = rows.split_at(rows.len() / 2);
    let register = |db: &Db| {
        for (name, identity) in &sources {
            db.register_source(name, Some(identity));
        }
    };
    let builder = || {
        Db::builder()
            .write_shards(shards)
            .resolver(resolver.clone())
    };

    let never_closed = builder().build();
    register(&never_closed);
    load(&never_closed, first);
    let expected = load(&never_closed, rest);

    let log = FailpointLog::new();
    let open = || {
        builder()
            .durability_config(DurabilityConfig::store(Box::new(log.clone())))
            .open()
            .expect("open")
    };
    {
        let db = open();
        register(&db);
        load(&db, first);
        db.checkpoint().expect("checkpoint");
    }
    let db = open();
    let report = db.recovery_report().expect("durable open has a report");
    assert_eq!(
        report.records_replayed, 0,
        "the reopen came from the snapshot"
    );
    assert_eq!(report.snapshot_rows, first.len());

    let got = load(&db, rest);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "row {} of the continued load", first.len() + i);
    }
    assert_eq!(db.state_dump(), never_closed.state_dump());
}

/// Realigning before every cross-source comparison: the cross-source
/// alignment cache, which the snapshot does not carry, then decides
/// nothing, and everything the snapshot does rebuild must match.
fn realign_every_row() -> ResolverConfig {
    ResolverConfig {
        realign_interval: 1,
        ..ResolverConfig::default()
    }
}

#[test]
fn reopened_equals_never_closed_unsharded() {
    reopened_equals_never_closed(1, realign_every_row());
}

#[test]
fn reopened_equals_never_closed_two_shards() {
    reopened_equals_never_closed(2, realign_every_row());
}

/// At the default realign interval a never-closed resolver scores with
/// alignments cached up to 255 rows earlier, while a reopened one
/// rebuilds them at its first cross-source comparison, so a later merge
/// decision can differ.
#[test]
#[ignore = "ROADMAP F1: the snapshot does not carry the alignment cache"]
fn reopened_equals_never_closed_at_the_default_realign_interval() {
    for shards in [1, 2] {
        reopened_equals_never_closed(shards, ResolverConfig::default());
    }
}
