//! Durability beyond the commit path: per-shard log replay and snapshot
//! install (what [`DbBuilder::open`](super::DbBuilder::open) drives),
//! the cross-shard seal ledger, checkpoints, and the canonical
//! [`Db::state_dump`] digest the crash oracles compare.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use scdb_er::AlignmentMap;
use scdb_graph::Edge;
use scdb_obs::{metrics, FieldValue as F};
use scdb_placement::ShardMap;
use scdb_storage::{IndexDef, IndexKind};
use scdb_txn::{
    CheckpointStats, EnrichedDb, LogRecord, VersionOrigin, WalRecovery, WalRecoveryReport,
};
use scdb_types::{
    Confidence, EntityId, Provenance, Record, RecordId, SourceId, SymbolTable, Value,
};

use super::ingest::identity_key;
use super::{Db, InstanceShard, RelationShard};
use crate::error::CoreError;
use crate::group_commit::IngestItem;
use crate::snapshot::SnapshotRecord;

/// What [`Db::open`] rebuilt from the log directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbRecoveryReport {
    /// Low-level scan statistics: segments read, bytes physically cut
    /// from torn/corrupt tails, snapshots discarded.
    pub wal: WalRecoveryReport,
    /// Rows reinstalled from the snapshot (no ER re-run).
    pub snapshot_rows: usize,
    /// Committed log records replayed through the live pipeline.
    pub records_replayed: usize,
    /// Transactions discarded: logged but never sealed (or sealed by a
    /// cross-shard seal some participant's log lost) at the time of the
    /// crash.
    pub txns_discarded: usize,
}

impl DbRecoveryReport {
    /// Fold one shard's report into the database-wide one: counters
    /// add up, and the snapshot sequence is the first shard's that has
    /// one (checkpoints advance every shard's sequence together).
    pub(super) fn absorb(&mut self, shard: DbRecoveryReport) {
        self.snapshot_rows += shard.snapshot_rows;
        self.records_replayed += shard.records_replayed;
        self.txns_discarded += shard.txns_discarded;
        self.wal.segments_scanned += shard.wal.segments_scanned;
        self.wal.records_decoded += shard.wal.records_decoded;
        self.wal.bytes_truncated += shard.wal.bytes_truncated;
        self.wal.corrupt_tail |= shard.wal.corrupt_tail;
        self.wal.snapshots_discarded += shard.wal.snapshots_discarded;
        self.wal.snapshot_seq = self.wal.snapshot_seq.or(shard.wal.snapshot_seq);
    }

    /// Rebuild a recovery report from the flight-recorder event stream
    /// alone: the newest `("txn", "recovery.scan")` summary paired with
    /// the `("core", "recovery.complete")` event that followed it.
    /// Returns `None` when either half is missing from `events` (e.g.
    /// the ring wrapped past them — check `events_dropped`).
    pub fn from_events(events: &[scdb_obs::Event]) -> Option<DbRecoveryReport> {
        let complete = events
            .iter()
            .rev()
            .find(|e| e.subsystem.as_str() == "core" && e.kind.as_str() == "recovery.complete")?;
        let scan = events.iter().rev().find(|e| {
            e.subsystem.as_str() == "txn"
                && e.kind.as_str() == "recovery.scan"
                && e.seq < complete.seq
        })?;
        Some(DbRecoveryReport {
            wal: WalRecoveryReport {
                segments_scanned: scan.field_u64("segments")? as usize,
                records_decoded: scan.field_u64("records")? as usize,
                bytes_truncated: scan.field_u64("bytes_cut")?,
                corrupt_tail: scan.field_u64("corrupt")? != 0,
                snapshots_discarded: scan.field_u64("snap_drops")? as usize,
                snapshot_seq: (scan.field_u64("has_snapshot")? != 0)
                    .then(|| scan.field_u64("snapshot_seq"))
                    .flatten(),
            },
            snapshot_rows: complete.field_u64("snapshot_rows")? as usize,
            records_replayed: complete.field_u64("records_replayed")? as usize,
            txns_discarded: complete.field_u64("txns_discarded")? as usize,
        })
    }
}

impl Db {
    /// What the last [`Db::open`] recovered; `None` for in-memory
    /// databases.
    pub fn recovery_report(&self) -> Option<DbRecoveryReport> {
        self.inner.recovery.lock().clone()
    }

    /// True when mutations are being logged to a durable WAL (every
    /// shard's is installed together).
    pub fn is_durable(&self) -> bool {
        self.inner.shard0().durable.lock().is_some()
    }

    /// Write a snapshot of the durable state, seal it atomically, and
    /// truncate the log segments it supersedes. Subsequent [`Db::open`]
    /// calls load the snapshot and replay only records logged after it.
    ///
    /// Errors with [`CoreError::Recovery`] when durability is not
    /// configured.
    pub fn checkpoint(&self) -> Result<CheckpointStats, CoreError> {
        let _span = scdb_obs::span!("core.checkpoint");
        self.ensure_writable()?;
        // Shard read locks freeze a consistent state; the `durable`
        // locks come after every instance/relation lock per the lock
        // order, and holding them excludes concurrent loggers, so each
        // snapshot covers exactly its shard's sealed log prefix. Taking
        // *every* shard's locks makes the checkpoint a global barrier:
        // no cross-shard batch is half inside it, which is what lets
        // recovery gate cross-shard seals per log suffix.
        let symbols = self.inner.symbols.read();
        let mut slices = Vec::with_capacity(self.inner.shards.len());
        for shard in &self.inner.shards {
            slices.push((shard.instance.read(), shard.relation.read()));
        }
        let mut wals: Vec<_> = self
            .inner
            .shards
            .iter()
            .map(|shard| shard.durable.lock())
            .collect();
        if wals[0].is_none() {
            return Err(CoreError::Recovery(
                "checkpoint requires durability (DurabilityConfig + open)".to_string(),
            ));
        }
        let serialize_start = Instant::now();
        let sharded = slices.len() > 1;
        let payloads: Vec<Vec<Vec<u8>>> = (0u32..)
            .zip(&slices)
            .map(|(k, (instance, relation))| {
                build_snapshot(
                    &symbols,
                    instance,
                    relation,
                    // Sharded snapshots lead with the shard's identity
                    // and the routing table, validated on reopen.
                    sharded.then_some((k, &self.inner.shard_map)),
                    // The kv store is global state, not sharded: it
                    // rides in shard 0's snapshot (and shard 0's log).
                    (k == 0).then_some(&self.inner.enriched),
                )
            })
            .collect();
        let frames_total: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let serialize_ns = serialize_start.elapsed().as_nanos() as u64;
        metrics().observe("core.checkpoint.serialize_ns", serialize_ns);
        scdb_obs::event(
            "core",
            "checkpoint.serialize",
            &[
                ("ns", F::U64(serialize_ns)),
                ("frames", F::U64(frames_total)),
            ],
        );
        let mut stats: Option<CheckpointStats> = None;
        for (wal, payload) in wals.iter_mut().zip(&payloads) {
            let wal = wal.as_mut().expect("shard WALs are installed together");
            let s = wal.checkpoint(payload).map_err(|e| self.trip_on_io(e))?;
            stats = Some(match stats {
                None => s,
                Some(mut total) => {
                    total.snapshot_bytes += s.snapshot_bytes;
                    total.segments_removed += s.segments_removed;
                    total
                }
            });
        }
        let stats = stats.expect("at least one shard");
        scdb_obs::event(
            "core",
            "checkpoint.complete",
            &[
                ("seq", F::U64(stats.seq)),
                ("bytes", F::U64(stats.snapshot_bytes)),
                ("segments_removed", F::U64(stats.segments_removed as u64)),
            ],
        );
        Ok(stats)
    }

    /// Force any unsynced log tail to stable storage (relevant under
    /// [`FsyncPolicy::EveryN`](scdb_txn::FsyncPolicy::EveryN) /
    /// [`FsyncPolicy::OnCheckpoint`](scdb_txn::FsyncPolicy::OnCheckpoint)).
    /// No-op for in-memory databases.
    pub fn sync_wal(&self) -> Result<(), CoreError> {
        for shard in &self.inner.shards {
            if let Some(wal) = shard.durable.lock().as_mut() {
                // Deliberately not gated on mode: a manual sync doubles
                // as a recovery probe, and a failing one trips the node.
                wal.sync().map_err(|e| self.trip_on_io(e))?;
            }
        }
        Ok(())
    }

    /// Canonical digest of the *durable* state: sources, rows, entity
    /// assignments, graph, identity indexes, kv store, and curation
    /// counters, rendered deterministically (sorted, symbol-free). Two
    /// databases with equal dumps are observably equivalent for every
    /// durable API; the crash matrix compares recovered instances
    /// against a reference with `assert_eq!(a.state_dump(), …)`.
    ///
    /// Deliberately excludes the semantic shard (not durable) and perf
    /// counters like ER comparisons (recovery's fast path skips them).
    pub fn state_dump(&self) -> String {
        let symbols = self.inner.symbols.read();
        let sharded = self.inner.shards.len() > 1;
        let mut out = String::new();
        // One section per shard — labelled when there is more than one,
        // which makes the oracle shard-sensitive: a record recovered
        // onto the wrong shard changes the dump even if the union of
        // rows is right — then the (global) kv store once.
        for (k, shard) in self.inner.shards.iter().enumerate() {
            let instance = shard.instance.read();
            let relation = shard.relation.read();
            if sharded {
                let _ = writeln!(out, "shard {k}");
            }
            dump_shard_state(&mut out, &symbols, &instance, &relation);
        }
        for (key, value, origin) in self.inner.enriched.txn_manager().latest_entries() {
            let _ = writeln!(
                out,
                "kv {key} = {:?} origin={origin:?}",
                value.as_ref().map(Value::render)
            );
        }
        out
    }

    /// Replay one shard's log into that shard's (empty) state slice:
    /// snapshot records first, then the committed log suffix through
    /// the live pipeline. Called with the shard's `durable` still
    /// `None`, so replay does not re-log. An open runs one of these per
    /// shard, each on its own worker; the [`SealLedger`] commit-gates
    /// cross-shard seals — a multi-shard batch is applied only when
    /// *every* participant's log carries its seal, and discarded on
    /// every shard otherwise. Everything else (registrations, rows,
    /// link sweeps, indexes) replays scoped to `shard` alone, never
    /// re-routed: the record is pinned to the log that carried it.
    pub(super) fn install_recovery(
        &self,
        shard: u32,
        recovered: WalRecovery,
        ledger: &SealLedger,
    ) -> Result<DbRecoveryReport, CoreError> {
        let mut report = DbRecoveryReport {
            wal: recovered.report,
            ..DbRecoveryReport::default()
        };
        if let Some(frames) = recovered.snapshot {
            report.snapshot_rows = self.install_snapshot(shard, frames)?;
        }
        // Commit-gated replay: buffer each transaction's operations and
        // apply them only when its seal arrives. This also tolerates
        // txn-id reuse across restarts (ids restart after checkpoints).
        let mut pending: HashMap<u64, Vec<LogRecord>> = HashMap::new();
        for record in recovered.records {
            match record {
                LogRecord::SourceReg {
                    name,
                    identity_attr,
                } => {
                    self.replay_register_source(shard, &name, identity_attr.as_deref());
                    report.records_replayed += 1;
                }
                LogRecord::Enrich { key, value } => {
                    self.inner.enriched.txn_manager().install_recovered(
                        key,
                        value,
                        VersionOrigin::Enrichment,
                    );
                    report.records_replayed += 1;
                }
                LogRecord::IngestRow { txn, .. }
                | LogRecord::DiscoverLinks { txn }
                | LogRecord::Write { txn, .. } => {
                    pending.entry(txn).or_default().push(record);
                }
                LogRecord::CommitGroup { txns, shards } => {
                    // The one commit-gating rule: a seal commits every
                    // listed transaction at once, in log (= apply)
                    // order. A missing/torn seal leaves them all in
                    // `pending` — discarded below. Non-empty `shards` is
                    // a cross-shard seal: it commits only when every
                    // participant's log carries it too (the ledger
                    // barrier); a participant whose copy was torn forces
                    // every other shard to discard the batch, keeping
                    // the group atomic.
                    report.records_replayed += 1;
                    let commit = shards.is_empty() || ledger.arrive(shard, &shards);
                    for txn in txns {
                        let ops = pending.remove(&txn).unwrap_or_default();
                        if commit {
                            report.records_replayed += ops.len();
                            for op in ops {
                                self.replay_op(shard, op)?;
                            }
                        } else if !ops.is_empty() {
                            report.txns_discarded += 1;
                        }
                    }
                }
                LogRecord::IndexCreate {
                    name,
                    source,
                    attr,
                    kind,
                } => {
                    // Auto-sealed: applied at its log position, so later
                    // replayed ingests maintain the index incrementally
                    // exactly as the live pipeline did. `durable` is
                    // still None, so nothing is re-logged.
                    let kind = index_kind(kind)?;
                    self.replay_create_index(
                        shard,
                        IndexDef {
                            name,
                            source,
                            attr,
                            kind,
                        },
                    )?;
                    report.records_replayed += 1;
                }
                LogRecord::IndexDrop { name } => {
                    self.replay_drop_index(shard, &name);
                    report.records_replayed += 1;
                }
            }
        }
        // Unsealed tails: logged, never committed — discarded, exactly
        // what the crash semantics promise.
        report.txns_discarded += pending.len();
        Ok(report)
    }

    fn replay_op(&self, shard: u32, op: LogRecord) -> Result<(), CoreError> {
        match op {
            LogRecord::IngestRow {
                source,
                attrs,
                text,
                ..
            } => {
                // Pinned to the shard whose log carried the row — never
                // re-routed (routing state may not be rebuilt yet, and
                // the oracle demands the record land where it was
                // logged).
                let record = {
                    let mut symbols = self.inner.symbols.write();
                    Record::from_pairs(
                        attrs
                            .into_iter()
                            .map(|(name, value)| (symbols.intern(&name), value)),
                    )
                };
                let item = IngestItem::new(source, record, text);
                self.commit(vec![(shard, vec![(0, item)])])
                    .pop()
                    .expect("one result per item")?;
            }
            LogRecord::DiscoverLinks { .. } => {
                self.discover_links_shard(shard)?;
            }
            LogRecord::Write { key, value, .. } => {
                self.inner.enriched.txn_manager().install_recovered(
                    key,
                    value,
                    VersionOrigin::Explicit,
                );
            }
            _ => {}
        }
        Ok(())
    }

    /// Replay-scoped source registration: installs the source on
    /// `shard`'s slice alone. The live [`Db::try_register_source`]
    /// broadcasts to every shard (and logs to every shard's WAL), so
    /// each shard's log carries its own `SourceReg` — replaying it
    /// scoped keeps parallel workers independent.
    fn replay_register_source(&self, shard: u32, name: &str, identity_attr: Option<&str>) {
        let slice = &self.inner.shards[shard as usize];
        let mut symbols = self.inner.symbols.write();
        let mut instance = slice.instance.write();
        let mut relation = slice.relation.write();
        if instance.source_state(name).is_err() {
            self.install_source(
                &mut symbols,
                &mut instance,
                &mut relation,
                name,
                identity_attr,
            );
        }
    }

    /// Replay-scoped index creation on one shard's slice (the live
    /// [`Db::create_index`] broadcasts; each shard's log carries its own
    /// `IndexCreate`). Idempotent per name.
    fn replay_create_index(&self, shard: u32, def: IndexDef) -> Result<(), CoreError> {
        let symbols = self.inner.symbols.read();
        let mut instance = self.inner.shards[shard as usize].instance.write();
        if instance.index_owner_mut(&def.name).is_some() {
            return Ok(());
        }
        let state = instance.source_state_mut(&def.source)?;
        state.indexes.create(def, &symbols, &state.store);
        Ok(())
    }

    /// Replay-scoped index drop on one shard's slice. A missing index is
    /// fine (the create may have been checkpointed away differently).
    fn replay_drop_index(&self, shard: u32, name: &str) {
        let mut instance = self.inner.shards[shard as usize].instance.write();
        if let Some(state) = instance.index_owner_mut(name) {
            state.indexes.drop_index(name);
        }
    }

    /// Install snapshot frames into one (empty) shard slice. Returns the
    /// number of rows reinstalled.
    ///
    /// Each row is noted in the name columns and claims its identity key
    /// as it is adopted ([`RelationShard::adopt_row`]), so the name index
    /// is complete once the rows are. The key is chosen as curation chose
    /// it ([`identity_key`]): the `Symbols` frame, interned first, gives
    /// attributes the symbol order the checkpointing process had. A
    /// frame that names an entity at or above the number of `Row` frames
    /// is refused: entity ids start at 0 and each fresh entity is minted
    /// by a row.
    fn install_snapshot(&self, shard: u32, frames: Vec<bytes::Bytes>) -> Result<usize, CoreError> {
        let started = Instant::now();
        let records: Vec<SnapshotRecord> = frames
            .into_iter()
            .map(SnapshotRecord::decode)
            .collect::<Result<_, _>>()?;
        match records.last() {
            Some(SnapshotRecord::Tail { count }) if *count as usize == records.len() - 1 => {}
            _ => {
                return Err(CoreError::Recovery(
                    "snapshot is missing its tail record (torn checkpoint)".to_string(),
                ))
            }
        }
        let decoded = Instant::now();
        let minted = records
            .iter()
            .filter(|rec| matches!(rec, SnapshotRecord::Row { .. }))
            .count() as u64;
        let minted_entity = |id: u64| {
            let beyond = || format!("snapshot names entity {id}, beyond the {minted} rows mint");
            (id < minted)
                .then_some(EntityId(id))
                .ok_or_else(|| CoreError::Recovery(beyond()))
        };
        let slice = &self.inner.shards[shard as usize];
        let mut symbols = self.inner.symbols.write();
        let mut instance = slice.instance.write();
        let mut relation = slice.relation.write();
        let inst = &mut *instance;
        let rel = &mut *relation;
        let mut adopt: Vec<(RecordId, Record, EntityId)> = Vec::new();
        let mut alignments = Vec::new();
        let mut rows = 0usize;
        for rec in records {
            match rec {
                SnapshotRecord::Symbols { names } => {
                    // Every shard's snapshot lists the same table; the
                    // first to install interns it, the rest find it.
                    for name in &names {
                        symbols.intern(name);
                    }
                }
                SnapshotRecord::Source {
                    name,
                    identity_attr,
                } => {
                    self.install_source(&mut symbols, inst, rel, &name, identity_attr.as_deref());
                }
                SnapshotRecord::Row {
                    source,
                    entity,
                    attrs,
                    text,
                } => {
                    let record = Record::from_pairs(
                        attrs
                            .into_iter()
                            .map(|(name, value)| (symbols.intern(&name), value)),
                    );
                    let entity = minted_entity(entity)?;
                    // No index exists yet (IndexDef frames follow every
                    // row), so the append notes nothing in one.
                    let state = inst.source_state_mut(&source)?;
                    let rid = state.append(&symbols, record.clone());
                    let key_attr = identity_key(state.identity_attr, &record).map(|(a, _)| a);
                    rel.adopt_row(state.id, key_attr, rid.offset as usize, &record, entity);
                    if let Some(t) = &text {
                        inst.text.index(rid, t);
                    }
                    adopt.push((rid, record, entity));
                    rows += 1;
                }
                SnapshotRecord::Alignment {
                    a,
                    b,
                    built_at,
                    pairs,
                } => {
                    let pairs = pairs
                        .into_iter()
                        .map(|(l, r, w)| (symbols.intern(&l), symbols.intern(&r), w))
                        .collect();
                    let map = AlignmentMap::from_pairs(pairs);
                    alignments.push(((SourceId(a), SourceId(b)), map, built_at));
                }
                SnapshotRecord::Node { entity: e, records } => {
                    rel.graph.ensure_node(minted_entity(e)?).records = records
                        .into_iter()
                        .map(|(src, off)| RecordId::new(SourceId(src), off))
                        .collect();
                }
                SnapshotRecord::Edge {
                    from,
                    to,
                    role,
                    source,
                    tick,
                } => {
                    let role = symbols.intern(&role);
                    let prov = Provenance::inferred(SourceId(source), Confidence::CERTAIN, tick);
                    rel.graph
                        .add_edge(minted_entity(from)?, minted_entity(to)?, role, prov)?;
                    // `links` counters arrive via Meta; don't double-count.
                }
                frame @ (SnapshotRecord::Name { entity: e, .. }
                | SnapshotRecord::Ident { entity: e, .. }) => {
                    minted_entity(e)?;
                    rel.install_name_frame(frame);
                }
                SnapshotRecord::Kv {
                    key,
                    value,
                    enrichment,
                } => {
                    let origin = if enrichment {
                        VersionOrigin::Enrichment
                    } else {
                        VersionOrigin::Explicit
                    };
                    self.inner
                        .enriched
                        .txn_manager()
                        .install_recovered(key, value, origin);
                }
                SnapshotRecord::Meta {
                    records,
                    merges,
                    links,
                    tick,
                } => {
                    rel.stats.records = records;
                    rel.stats.merges = merges;
                    rel.stats.links = links;
                    rel.tick = tick;
                }
                SnapshotRecord::IndexDef {
                    name,
                    source,
                    attr,
                    kind,
                } => {
                    // IndexDef frames follow every Row frame of their
                    // source, so building contents here sees all rows.
                    let state = inst.source_state_mut(&source)?;
                    state.indexes.create(
                        IndexDef {
                            name,
                            source,
                            attr,
                            kind: index_kind(kind)?,
                        },
                        &symbols,
                        &state.store,
                    );
                }
                SnapshotRecord::ShardState {
                    shard: snap_shard,
                    shards,
                    slots,
                } => {
                    // Routing must be stable across restarts: a record's
                    // future copies have to land on the same shard as
                    // its past ones, or entities silently split. Refuse
                    // to open under a different layout.
                    if snap_shard != shard || shards != self.inner.shard_count() {
                        return Err(CoreError::Recovery(format!(
                            "checkpoint was written by shard {snap_shard}/{shards}, \
                             opened as shard {shard}/{} — shard layout must match",
                            self.inner.shard_count()
                        )));
                    }
                    match ShardMap::from_slots(shards, slots) {
                        Some(map) if map == self.inner.shard_map => {}
                        Some(_) => {
                            return Err(CoreError::Recovery(
                                "checkpoint shard map differs from the configured \
                                 placement policy — reopen with the original policy"
                                    .to_string(),
                            ))
                        }
                        None => {
                            return Err(CoreError::Recovery(
                                "checkpoint shard map is malformed".to_string(),
                            ))
                        }
                    }
                }
                SnapshotRecord::Tail { .. } => {}
            }
        }
        // Adopt the final clustering wholesale: no similarity
        // comparisons, no re-merging — this is what makes checkpointed
        // recovery flat in log size (experiment E-REC).
        let installed = Instant::now();
        rel.resolver.adopt_batch(adopt);
        // The alignment cache goes back once every row it counts is
        // adopted, so the next realignment falls where it would have.
        for (pair, map, built_at) in alignments {
            if !rel.resolver.restore_alignment(pair, map, built_at) {
                return Err(CoreError::Recovery(format!(
                    "snapshot alignment built at row {built_at}, beyond the {} rows adopted",
                    rel.resolver.len()
                )));
            }
        }
        let nanos = |from: Instant, to: Instant| F::U64(to.duration_since(from).as_nanos() as u64);
        scdb_obs::event(
            "core",
            "recovery.snapshot",
            &[
                ("shard", F::U64(u64::from(shard))),
                ("rows", F::U64(rows as u64)),
                ("decode_ns", nanos(started, decoded)),
                ("install_ns", nanos(decoded, installed)),
                ("adopt_ns", nanos(installed, Instant::now())),
            ],
        );
        Ok(rows)
    }
}

/// Decode a logged index-kind tag.
fn index_kind(tag: u8) -> Result<IndexKind, CoreError> {
    IndexKind::from_tag(tag)
        .ok_or_else(|| CoreError::Recovery(format!("unknown index kind tag {tag}")))
}

/// Cross-shard seal barrier for parallel recovery. Each worker replays
/// its own shard's log; on reaching a cross-shard seal it announces
/// itself here and waits until every listed participant has announced
/// the same seal (→ commit) or some participant finished its log
/// without announcing it (that copy was torn → discard, everywhere).
/// Workers hold no shard locks while waiting, and live appends write
/// cross-shard seals while holding *all* participants' durable locks —
/// so seal order is identical across the participating logs and the
/// barrier cannot cycle.
pub(super) struct SealLedger {
    /// Number of replay workers; a seal naming a shard at or beyond it
    /// (bytes no live commit writes) can never complete.
    shards: u32,
    state: std::sync::Mutex<SealLedgerState>,
    cv: std::sync::Condvar,
}

#[derive(Default)]
struct SealLedgerState {
    /// Seal key (the full participant vector) → shards that announced it.
    seen: HashMap<Vec<(u32, u64)>, HashSet<u32>>,
    /// Workers that have exhausted their log.
    done: HashSet<u32>,
}

impl SealLedger {
    pub(super) fn new(shards: u32) -> SealLedger {
        SealLedger {
            shards,
            state: std::sync::Mutex::new(SealLedgerState::default()),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Announce `shard`'s copy of seal `key`, then block until the
    /// seal's fate is decided: true = every participant announced it
    /// (commit), false = some participant's log ended without it
    /// (discard).
    fn arrive(&self, shard: u32, key: &[(u32, u64)]) -> bool {
        let mut st = self.lock();
        st.seen.entry(key.to_vec()).or_default().insert(shard);
        self.cv.notify_all();
        loop {
            let seen = st.seen.get(key).expect("inserted above");
            if key.iter().all(|(s, _)| seen.contains(s)) {
                return true;
            }
            if key
                .iter()
                .any(|(s, _)| !seen.contains(s) && (st.done.contains(s) || *s >= self.shards))
            {
                return false;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Mark `shard`'s log exhausted, deciding every seal this shard
    /// never announced.
    pub(super) fn finish(&self, shard: u32) {
        self.lock().done.insert(shard);
        self.cv.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SealLedgerState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Render one shard's durable state (sources, rows, indexes, graph,
/// identity maps) into `out` in the canonical [`Db::state_dump`] order.
/// The kv store and the stats line are appended by the caller.
fn dump_shard_state(
    out: &mut String,
    symbols: &SymbolTable,
    instance: &InstanceShard,
    relation: &RelationShard,
) {
    for (name, state) in &instance.sources {
        let _ = writeln!(
            out,
            "source {name} identity={:?} rows={}",
            state.identity_attr.map(|attr| symbols.resolve(attr)),
            state.store.len()
        );
        for (rid, record) in state.store.scan() {
            let mut attrs: Vec<String> = record
                .iter()
                .map(|(a, v)| format!("{}={}", symbols.resolve(a), v.render()))
                .collect();
            attrs.sort();
            let entity = relation
                .resolver
                .entity_of(rid)
                .map(|e| e.0 as i64)
                .unwrap_or(-1);
            let text = instance.text.get(rid).unwrap_or("");
            let _ = writeln!(
                out,
                "row {}:{} entity={entity} [{}] text={text:?}",
                rid.source.0,
                rid.offset,
                attrs.join(",")
            );
        }
    }
    for (_, state) in &instance.sources {
        for ix in state.indexes.iter() {
            let d = ix.def();
            let _ = writeln!(
                out,
                "index {} on {}.{} kind={} entries={}",
                d.name,
                d.source,
                d.attr,
                d.kind,
                ix.entries()
            );
        }
    }
    let mut nodes: Vec<EntityId> = relation.graph.node_ids().collect();
    nodes.sort();
    for v in &nodes {
        let node = relation.graph.node(*v).expect("listed node exists");
        let mut attrs: Vec<String> = instance
            .fold_attrs(&node.records)
            .iter()
            .map(|(a, val)| format!("{}={}", symbols.resolve(a), val.render()))
            .collect();
        attrs.sort();
        let mut records: Vec<String> = node
            .records
            .iter()
            .map(|r| format!("{}:{}", r.source.0, r.offset))
            .collect();
        records.sort();
        let _ = writeln!(
            out,
            "node {} [{}] records=[{}]",
            v.0,
            attrs.join(","),
            records.join(",")
        );
        let mut edges: Vec<String> = relation
            .graph
            .edges(*v)
            .iter()
            .map(|e| {
                format!(
                    "edge {}-[{}]->{} src={} tick={}",
                    v.0,
                    symbols.resolve(e.role),
                    e.to.0,
                    e.provenance.source.0,
                    e.provenance.tick
                )
            })
            .collect();
        edges.sort();
        for e in edges {
            let _ = writeln!(out, "{e}");
        }
    }
    relation.dump_names(out);
    let s = &relation.stats;
    let _ = writeln!(
        out,
        "stats records={} merges={} links={} tick={}",
        s.records, s.merges, s.links, relation.tick
    );
}

/// Serialize one shard's slice as snapshot frames. `shard_state` leads
/// a sharded snapshot with the shard's identity and routing table;
/// `kv` appends the (global) kv store.
fn build_snapshot(
    symbols: &SymbolTable,
    instance: &InstanceShard,
    relation: &RelationShard,
    shard_state: Option<(u32, &ShardMap)>,
    kv: Option<&EnrichedDb>,
) -> Vec<Vec<u8>> {
    let mut recs: Vec<SnapshotRecord> = Vec::new();
    if let Some((shard, map)) = shard_state {
        // First frame of every sharded snapshot: who this shard is and
        // how keys route. Validated on reopen before anything installs.
        recs.push(SnapshotRecord::ShardState {
            shard,
            shards: map.shards(),
            slots: map.slots().to_vec(),
        });
    }
    recs.push(SnapshotRecord::Symbols {
        names: symbols.iter().map(|(_, name)| name.to_string()).collect(),
    });
    for (name, state) in &instance.sources {
        recs.push(SnapshotRecord::Source {
            name: name.clone(),
            identity_attr: state
                .identity_attr
                .map(|attr| symbols.resolve(attr).to_string()),
        });
    }
    // Rows in global ingest order (the resolver's arrival history), with
    // their final entity assignments.
    for (rid, record) in relation.resolver.history() {
        let entity = relation
            .resolver
            .entity_of(*rid)
            .map(|e| e.0)
            .unwrap_or(u64::MAX);
        let source = instance
            .sources
            .get(rid.source.0 as usize)
            .map(|(n, _)| n.clone())
            .unwrap_or_default();
        recs.push(SnapshotRecord::Row {
            source,
            entity,
            attrs: record
                .iter()
                .map(|(a, v)| (symbols.resolve(a).to_string(), v.clone()))
                .collect(),
            text: instance.text.get(*rid).map(str::to_owned),
        });
    }
    let mut alignments: Vec<_> = relation.resolver.alignments().collect();
    alignments.sort_unstable_by_key(|(pair, _, _)| *pair);
    for ((a, b), map, built_at) in alignments {
        let name = |s| symbols.resolve(s).to_string();
        let pairs = map.pairs().map(|(l, r, w)| (name(l), name(r), w));
        let (a, b, pairs) = (a.0, b.0, pairs.collect());
        recs.push(SnapshotRecord::Alignment {
            a,
            b,
            built_at,
            pairs,
        });
    }
    let mut nodes: Vec<EntityId> = relation.graph.node_ids().collect();
    nodes.sort();
    for v in &nodes {
        let node = relation.graph.node(*v).expect("listed node exists");
        recs.push(SnapshotRecord::Node {
            entity: v.0,
            records: node
                .records
                .iter()
                .map(|r| (r.source.0, r.offset))
                .collect(),
        });
    }
    // Edges in `(from, to, role, source, tick)` order.
    for v in &nodes {
        let mut edges: Vec<&Edge> = relation.graph.edges(*v).iter().collect();
        let role = |e: &Edge| symbols.resolve(e.role);
        edges.sort_by_key(|e| (e.to, role(e), e.provenance.source, e.provenance.tick));
        recs.extend(edges.into_iter().map(|e| SnapshotRecord::Edge {
            from: v.0,
            to: e.to.0,
            role: role(e).to_string(),
            source: e.provenance.source.0,
            tick: e.provenance.tick,
        }));
    }
    recs.extend(
        relation
            .identities()
            .map(|(entity, key)| SnapshotRecord::Ident {
                entity,
                key: key.to_string(),
            }),
    );
    // Index definitions after every row of their source (contents
    // rebuild from the installed rows during snapshot install).
    for (_, state) in &instance.sources {
        for def in state.indexes.defs() {
            recs.push(SnapshotRecord::IndexDef {
                name: def.name,
                source: def.source,
                attr: def.attr,
                kind: def.kind.tag(),
            });
        }
    }
    if let Some(enriched) = kv {
        for (key, value, origin) in enriched.txn_manager().latest_entries() {
            recs.push(SnapshotRecord::Kv {
                key,
                value,
                enrichment: origin == VersionOrigin::Enrichment,
            });
        }
    }
    recs.push(SnapshotRecord::Meta {
        records: relation.stats.records,
        merges: relation.stats.merges,
        links: relation.stats.links,
        tick: relation.tick,
    });
    recs.push(SnapshotRecord::Tail {
        count: recs.len() as u64,
    });
    recs.iter().map(SnapshotRecord::encode).collect()
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;

    #[test]
    fn durable_reopen_recovers_full_state() {
        let dir = tmpdir("reopen");
        let reference = Db::new();
        seed_curated(&reference);
        {
            let db = Db::open(&dir).unwrap();
            assert!(db.is_durable());
            seed_curated(&db);
            assert_eq!(db.state_dump(), reference.state_dump());
        }
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(report.records_replayed > 0);
        assert_eq!(report.txns_discarded, 0);
        assert_eq!(db.state_dump(), reference.state_dump());
        // The recovered instance keeps curating and querying normally.
        db.ingest("drugbank", drug_record(&db, "Warfarin", "TP53"), None)
            .unwrap();
        assert_eq!(db.stats().records, 4);
        assert!(!db.text().search("dhfr", 3).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The name index in comparable form: the symbol table in id order
    /// (it orders a row's attributes, so it picks a first string), then
    /// per shard, each source's name columns by attribute name, resolved
    /// to strings row by row (`-` for a row without a string; a dropped
    /// or unseen column has no line), then the `name` and `ident` lines
    /// of the dump.
    fn name_index_view(db: &Db) -> String {
        let symbols = db.symbols_ref();
        let mut attrs: Vec<_> = symbols.iter().collect();
        let mut out = String::from("symbols:");
        for &(_, name) in &attrs {
            let _ = write!(out, " {name}");
        }
        out.push('\n');
        attrs.sort_by_key(|&(_, name)| name);
        for (k, shard) in db.inner.shards.iter().enumerate() {
            let instance = shard.instance.read();
            let relation = shard.relation.read();
            for (name, state) in &instance.sources {
                let names = relation.names.source(state.id);
                for &(attr, attr_name) in &attrs {
                    let Some(column) = names.column(attr) else {
                        continue;
                    };
                    let _ = write!(out, "s{k} {name}.{attr_name}:");
                    for row in 0..state.store.len() {
                        let key = column.name(row).map(|id| relation.names.resolve(id));
                        let _ = write!(out, " {}", key.unwrap_or("-"));
                    }
                    out.push('\n');
                }
            }
            relation.dump_names(&mut out);
        }
        out
    }

    /// The schedule of [`rebuilt_name_index_equals_the_curated_one`] in
    /// three parts. Part 0 bridges two `notes` entities after the
    /// absorbed one claimed its name; `notes` has no identity attribute,
    /// and its `summary`, interned before any row brings it, orders
    /// before `title`, so a row holding both is keyed by its summary;
    /// `codes` has an `Int` identity; names are not all ASCII, and
    /// `codes.tag` turns from strings to an integer. Returns the entities
    /// the part's rows absorbed.
    fn name_schedule(db: &Db, part: u8) -> usize {
        use scdb_types::Value;
        let row = |pairs: &[(&str, Value)]| {
            Record::from_pairs(pairs.iter().map(|(a, v)| (db.intern(a), v.clone())))
        };
        let drug = |n: &str, t: &str| row(&[("name", Value::str(n)), ("target", Value::str(t))]);
        let note = |title: &str| row(&[("title", Value::str(title))]);
        let memo = |title: &str, summary: &str| {
            row(&[
                ("title", Value::str(title)),
                ("summary", Value::str(summary)),
            ])
        };
        let code = |c: i64, tag: Value| row(&[("code", Value::Int(c)), ("tag", tag)]);
        let rows: Vec<(&str, Record)> = match part {
            0 => {
                db.register_source("drugs", Some("name"));
                db.register_source("notes", None);
                db.register_source("codes", Some("code"));
                db.intern("summary");
                vec![
                    ("drugs", drug("Warfarin", "VKORC1")),
                    ("notes", note("aspirin tablet")),
                    ("notes", note("aspirin coated small pill")),
                    ("notes", note("aspirin tablet coated small pill")),
                    ("drugs", drug("Ibuprofène", "PTGS2")),
                    ("codes", code(7, Value::str("Warfarin"))),
                    ("drugs", drug("warfarin", "VKORC1")),
                    ("notes", note("Ärztliche Notiz über Warfarin")),
                    ("notes", memo("xtwo", "ytwo")),
                ]
            }
            1 => vec![
                ("drugs", drug("VKORC1", "vitamin k")),
                ("codes", code(7, Value::str("ibuprofène"))),
                ("codes", code(42, Value::Int(3))),
                ("notes", note("7")),
            ],
            _ => vec![
                ("drugs", drug("Ibuprofene", "PTGS2")),
                ("notes", note("aspirin coated small pill")),
                (
                    "codes",
                    code(9, Value::str("Ärztliche Notiz über Warfarin")),
                ),
            ],
        };
        let mut absorbed = 0;
        for (source, record) in rows {
            absorbed += db.ingest(source, record, None).unwrap().absorbed.len();
        }
        absorbed
    }

    /// Snapshot install rebuilds the name index curation leaves: after a
    /// checkpoint reopen, after a checkpoint plus a log tail, and after a
    /// checkpoint of a reopened database, every name column (row by row)
    /// and every `name` / `ident` dump line equals the never-closed
    /// database's.
    #[test]
    fn rebuilt_name_index_equals_the_curated_one() {
        let never_closed = Db::new();
        let dir = tmpdir("names-rebuilt");
        let mut absorbed = 0;
        let mut check = |db: &Db, parts: std::ops::Range<u8>, when: &str| {
            for part in parts {
                absorbed += name_schedule(&never_closed, part);
            }
            assert_eq!(
                name_index_view(db),
                name_index_view(&never_closed),
                "{when}"
            );
            assert_eq!(db.state_dump(), never_closed.state_dump(), "{when}");
        };
        {
            let db = Db::open(&dir).unwrap();
            name_schedule(&db, 0);
            db.checkpoint().unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().records_replayed, 0);
        check(&db, 0..1, "checkpoint reopen");
        name_schedule(&db, 1);
        drop(db);
        let db = Db::open(&dir).unwrap();
        assert!(db.recovery_report().unwrap().records_replayed > 0);
        check(&db, 1..2, "checkpoint plus a log tail");
        db.checkpoint().unwrap();
        name_schedule(&db, 2);
        db.checkpoint().unwrap();
        drop(db);
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().records_replayed, 0);
        check(&db, 2..3, "checkpoint of a reopened database");
        let claimed = never_closed
            .inner
            .shard0()
            .relation
            .read()
            .names
            .registered()
            .count();
        println!(
            "rows {}, absorbed entities {absorbed}, names claimed {claimed}",
            never_closed.stats().records
        );
        assert!(absorbed >= 1 && claimed >= 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_reopen_skips_replay() {
        let dir = tmpdir("ckpt");
        let reference = Db::new();
        seed_curated(&reference);
        {
            let db = Db::open(&dir).unwrap();
            seed_curated(&db);
            let stats = db.checkpoint().unwrap();
            assert!(stats.snapshot_bytes > 0);
        }
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(report.wal.snapshot_seq.is_some(), "snapshot was loaded");
        assert_eq!(report.records_replayed, 0, "nothing after the checkpoint");
        assert!(report.snapshot_rows >= 3);
        assert_eq!(db.state_dump(), reference.state_dump());
        // Post-checkpoint writes replay on the next open.
        reference
            .ingest(
                "drugbank",
                drug_record(&reference, "Warfarin", "TP53"),
                None,
            )
            .unwrap();
        db.ingest("drugbank", drug_record(&db, "Warfarin", "TP53"), None)
            .unwrap();
        drop(db);
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.state_dump(), reference.state_dump());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A snapshot carries rows, not statistics: reopening rebuilds every
    /// attribute's statistics, kind bitmask included, from the rows.
    #[test]
    fn attr_stats_rebuild_from_snapshot_rows() {
        use scdb_types::{Value, ValueKind};
        let dir = tmpdir("stats-reopen");
        let profile = |db: &Db| {
            db.with_attr_stats("mixed", |stats, rows| {
                let mut attrs: Vec<(String, u8, u64, u64)> = stats
                    .iter()
                    .map(|(name, s)| (name.clone(), s.kinds, s.rows, s.nulls))
                    .collect();
                attrs.sort();
                (attrs, rows)
            })
            .unwrap()
        };
        let before = {
            let db = Db::open(&dir).unwrap();
            db.register_source("mixed", None);
            let v = db.intern("v");
            let w = db.intern("w");
            for r in [
                Record::from_pairs([(v, Value::Int(1))]),
                Record::from_pairs([(v, Value::Null), (w, Value::Float(0.5))]),
                Record::from_pairs([(v, Value::str("one"))]),
            ] {
                db.ingest("mixed", r, None).unwrap();
            }
            db.checkpoint().unwrap();
            profile(&db)
        };
        let bit = |k: ValueKind| 1u8 << k as u8;
        assert_eq!(
            before,
            (
                vec![
                    ("v".into(), bit(ValueKind::Int) | bit(ValueKind::Str), 3, 1),
                    ("w".into(), bit(ValueKind::Float), 1, 0),
                ],
                3
            )
        );
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert!(report.wal.snapshot_seq.is_some(), "snapshot was loaded");
        assert_eq!(report.records_replayed, 0);
        assert_eq!(profile(&db), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The most-common-values sketch a reopen rebuilds from the snapshot's
    /// rows is the one the never-closed database kept, so equality
    /// estimates (and with them EXPLAIN's numbers and atom order) do not
    /// change across a restart. A cycle of 40 values keeps the 16-slot
    /// sketch evicting among tied counts.
    #[test]
    fn reopened_selectivity_eq_equals_never_closed() {
        use scdb_types::Value;
        let dir = tmpdir("mcv-reopen");
        let rows = |db: &Db| {
            db.register_source("cycle", None);
            let v = db.intern("v");
            for i in 0..1000 {
                db.ingest("cycle", Record::from_pairs([(v, Value::Int(i % 40))]), None)
                    .unwrap();
            }
        };
        let estimates = |db: &Db| {
            db.with_attr_stats("cycle", |stats, _| {
                (0..40)
                    .map(|i| stats["v"].selectivity_eq(&Value::Int(i)))
                    .collect::<Vec<f64>>()
            })
            .unwrap()
        };
        let never_closed = Db::new();
        rows(&never_closed);
        {
            let db = Db::open(&dir).unwrap();
            rows(&db);
            db.checkpoint().unwrap();
        }
        let reopened = Db::open(&dir).unwrap();
        assert_eq!(estimates(&reopened), estimates(&never_closed));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bridge merge joins two entities whose rows disagree on `shelf`.
    /// The folded view keeps the survivor's first value, live and after
    /// a checkpoint reopen.
    #[test]
    fn bridged_entities_keep_the_survivors_first_value() {
        use scdb_types::Value;
        let dir = tmpdir("bridge-fold");
        let note = |db: &Db, title: &str, shelf: i64| {
            Record::from_pairs([
                (db.intern("title"), Value::str(title)),
                (db.intern("shelf"), Value::Int(shelf)),
            ])
        };
        let folded = |db: &Db, entity: EntityId| {
            let attrs = db.entity_attrs(entity).expect("live entity");
            let symbols = db.symbols_ref();
            let get = |name| attrs.get(symbols.get(name).unwrap()).cloned();
            (get("title"), get("shelf"))
        };
        let kept = (Some(Value::str("aspirin tablet")), Some(Value::Int(100)));
        let survivor = {
            let db = Db::open(&dir).unwrap();
            db.register_source("notes", None);
            let a = db
                .ingest("notes", note(&db, "aspirin tablet", 100), None)
                .unwrap();
            let b = db
                .ingest("notes", note(&db, "aspirin coated small pill", 90), None)
                .unwrap();
            assert_ne!(a.entity, b.entity, "two entities before the bridge");
            let bridge = db
                .ingest(
                    "notes",
                    note(&db, "aspirin tablet coated small pill", 95),
                    None,
                )
                .unwrap();
            assert_eq!(bridge.entity, a.entity);
            assert_eq!(bridge.absorbed, vec![b.entity]);
            assert_eq!(folded(&db, a.entity), kept);
            assert!(db.entity_attrs(b.entity).is_none(), "absorbed");
            db.checkpoint().unwrap();
            a.entity
        };
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().records_replayed, 0);
        assert_eq!(folded(&db, survivor), kept);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The schedule behind `fixtures/node-attrs-checkpoint`: the part
    /// before the checkpoint, or the part after it.
    fn fixture_schedule(db: &Db, after_checkpoint: bool) {
        use scdb_storage::IndexKind;
        use scdb_types::Value;
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
        let note = |title: &str, shelf: i64| {
            Record::from_pairs([
                (db.intern("title"), Value::str(title)),
                (db.intern("shelf"), Value::Int(shelf)),
            ])
        };
        if after_checkpoint {
            db.ingest("genes", gene("PTGS2", "cyclooxygenase"), None)
                .unwrap();
            db.ingest("drugs", drug("Nutlin", "TP53", 2), None).unwrap();
            return;
        }
        db.register_source("genes", Some("gene"));
        db.register_source("drugs", Some("name"));
        db.register_source("notes", None);
        db.create_index("ix_dose", "drugs", "dose", IndexKind::Ordered)
            .unwrap();
        db.ingest("genes", gene("TP53", "tumor suppressor"), None)
            .unwrap();
        db.ingest("drugs", drug("Warfarin", "VKORC1", 5), None)
            .unwrap();
        db.ingest("drugs", drug("warfarin", "VKORC1", 3), None)
            .unwrap();
        db.ingest("genes", gene("VKORC1", "vitamin k epoxide reductase"), None)
            .unwrap();
        db.discover_links().unwrap();
        for (title, shelf) in [
            ("aspirin tablet", 100),
            ("aspirin coated small pill", 90),
            ("aspirin tablet coated small pill", 95),
        ] {
            db.ingest("notes", note(title, shelf), None).unwrap();
        }
        db.ingest_json("drugs", r#"{"name":"Aspirin","target":"PTGS2","dose":81}"#)
            .unwrap();
        db.kv_enrich(7, Value::Int(42)).unwrap();
    }

    /// `fixtures/node-attrs-checkpoint` was written by commit 4d22ac9,
    /// whose graph nodes kept a copy of their rows' attributes: a
    /// snapshot whose `Node` frames carry attribute lists, and a log
    /// suffix of two rows, from [`fixture_schedule`] on one shard.
    /// `state_dump.txt` is that commit's dump of it. The directory
    /// still opens to that dump, and the schedule run today reaches it
    /// too.
    #[test]
    fn checkpoint_whose_nodes_carry_attributes_still_opens() {
        const FILES: [(&str, &[u8]); 2] = [
            (
                "snap-00000002.scdb",
                include_bytes!("../../fixtures/node-attrs-checkpoint/snap-00000002.scdb"),
            ),
            (
                "wal-00000002.seg",
                include_bytes!("../../fixtures/node-attrs-checkpoint/wal-00000002.seg"),
            ),
        ];
        let expected = include_str!("../../fixtures/node-attrs-checkpoint/state_dump.txt");
        let dir = tmpdir("node-attrs");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in FILES {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.wal.snapshot_seq, Some(2));
        assert_eq!((report.snapshot_rows, report.records_replayed), (8, 4));
        assert_eq!(db.state_dump(), expected);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);

        let live = Db::new();
        fixture_schedule(&live, false);
        fixture_schedule(&live, true);
        assert_eq!(live.state_dump(), expected);
    }

    /// An alignment frame counts the rows its map was built from; one
    /// that claims more rows than the snapshot adopts is refused as a
    /// recovery error, not left to underflow at the next comparison.
    #[test]
    fn alignment_built_past_the_adopted_rows_is_a_recovery_error() {
        use scdb_types::Value;
        let install = |built_at: u64| {
            let frames = [
                SnapshotRecord::Source {
                    name: "a".into(),
                    identity_attr: None,
                },
                SnapshotRecord::Source {
                    name: "b".into(),
                    identity_attr: None,
                },
                SnapshotRecord::Row {
                    source: "a".into(),
                    entity: 0,
                    attrs: vec![("name".into(), Value::str("warfarin"))],
                    text: None,
                },
                SnapshotRecord::Alignment {
                    a: 0,
                    b: 1,
                    built_at,
                    pairs: vec![("name".into(), "drug".into(), 0.5)],
                },
                SnapshotRecord::Tail { count: 4 },
            ];
            let frames = frames.iter().map(|f| f.encode().into()).collect();
            Db::new().install_snapshot(0, frames)
        };
        assert_eq!(install(1).unwrap(), 1);
        assert!(matches!(install(2), Err(CoreError::Recovery(_))));
    }

    /// Encode `frames`, close them with their `Tail`, and install them
    /// into shard 0 of `db`.
    fn install_into(db: &Db, mut frames: Vec<SnapshotRecord>) -> Result<usize, CoreError> {
        let count = frames.len() as u64;
        frames.push(SnapshotRecord::Tail { count });
        let frames = frames.iter().map(|f| f.encode().into()).collect();
        db.install_snapshot(0, frames)
    }

    /// [`install_into`] a fresh database.
    fn install_frames(frames: Vec<SnapshotRecord>) -> Result<usize, CoreError> {
        install_into(&Db::new(), frames)
    }

    /// A frame that names an entity no row could have minted is refused
    /// as a recovery error, not left to overflow while the install sizes
    /// a table for it.
    #[test]
    fn snapshot_entity_beyond_the_rows_is_a_recovery_error() {
        use scdb_types::Value;
        let source = SnapshotRecord::Source {
            name: "a".into(),
            identity_attr: None,
        };
        let row = |entity| SnapshotRecord::Row {
            source: "a".into(),
            entity,
            attrs: vec![("name".into(), Value::str("warfarin"))],
            text: None,
        };
        let key = || "warfarin".to_string();
        assert_eq!(install_frames(vec![source.clone(), row(0)]).unwrap(), 1);
        for frame in [
            SnapshotRecord::Name {
                key: key(),
                entity: u64::MAX,
            },
            SnapshotRecord::Ident {
                entity: u64::MAX,
                key: key(),
            },
        ] {
            let frames = vec![source.clone(), row(0), frame];
            assert!(matches!(
                install_frames(frames),
                Err(CoreError::Recovery(_))
            ));
        }
        let frames = vec![source, row(u64::MAX)];
        assert!(matches!(
            install_frames(frames),
            Err(CoreError::Recovery(_))
        ));
    }

    /// Serve a database a snapshot was installed into: dump it, scan and
    /// probe every source, read every entity the rows could have minted,
    /// sweep for links and ingest one more row per source. Query and
    /// ingest errors are allowed; panics are not.
    fn serve_installed(db: &Db, rows: u64) {
        use scdb_types::Value;
        let _ = db.state_dump();
        for source in db.source_names() {
            let _ = db.query(&format!("SELECT * FROM {source}"));
            let _ = db.query(&format!("SELECT * FROM {source} WHERE name = 'warfarin'"));
        }
        for entity in (0..=rows).chain([u64::MAX]) {
            let _ = db.entity_attrs(EntityId(entity));
        }
        let _ = db.discover_links();
        for source in db.source_names() {
            let record = Record::from_pairs([
                (db.intern("name"), Value::str("warfarin")),
                (db.intern("code"), Value::Int(3)),
            ]);
            let _ = db.ingest(&source, record, None);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// Three sources, then a short sequence of well-formed frames of
        /// every kind, whose entity ids name a row's entity, fall below
        /// twice the row count, or are `u64::MAX`, install or fail with
        /// an error, never a panic; and a database that installed them
        /// serves reads and writes without one. `spread` eighths of the
        /// ids other than `u64::MAX` fall past the rows: from none, in
        /// cases built to install and be served, to half, in cases that
        /// probe dangling ids.
        #[test]
        fn random_frames_install_or_err_never_panic(
            identities in (0u8..3, 0u8..3, 0u8..3),
            spread in 0u8..=4,
            picks in proptest::collection::vec(
                (0u8..14, proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>()),
                0..24,
            )
        ) {
            use scdb_types::Value;
            let rows = picks.iter().filter(|(kind, _, _)| matches!(kind, 1..=3)).count() as u64;
            let id = |raw: u8| match raw {
                255 => u64::MAX,
                raw if raw % 8 < spread => rows + u64::from(raw / 8) % rows.max(1),
                raw => u64::from(raw / 8) % rows.max(1),
            };
            let identity = |pick: u8| [None, Some("name"), Some("code")][usize::from(pick)];
            let key = |raw: u8| ["warfarin", "ärztin", "7", ""][usize::from(raw % 4)].to_string();
            let source = |raw: u8| ["a", "b", "c"][usize::from(raw % 3)].to_string();
            let attr = |raw: u8| ["name", "code", "dose"][usize::from(raw % 3)].to_string();
            let (ia, ib, ic) = identities;
            let sources = [(0, ia), (1, ib), (2, ic)].map(|(s, pick)| SnapshotRecord::Source {
                name: source(s),
                identity_attr: identity(pick).map(str::to_string),
            });
            let frames = sources
                .into_iter()
                .chain(picks.iter().map(|&(kind, x, y)| match kind {
                    0 => SnapshotRecord::Source {
                        name: source(x),
                        identity_attr: identity(y % 3).map(str::to_string),
                    },
                    1..=3 => SnapshotRecord::Row {
                        source: source(y),
                        entity: id(x),
                        attrs: vec![
                            ("name".into(), Value::str(key(y / 3))),
                            ("code".into(), Value::Int(i64::from(y % 5))),
                        ],
                        text: None,
                    },
                    4 => SnapshotRecord::Node {
                        entity: id(x),
                        records: vec![(u32::from(y % 3), u64::from(y % 4))],
                    },
                    5 => SnapshotRecord::Edge {
                        from: id(x),
                        to: id(y),
                        role: "r".into(),
                        source: 0,
                        tick: 1,
                    },
                    6 => SnapshotRecord::Name {
                        key: key(y),
                        entity: id(x),
                    },
                    7 => SnapshotRecord::Ident {
                        entity: id(x),
                        key: key(y),
                    },
                    8 => SnapshotRecord::Meta {
                        records: u64::from(x),
                        merges: 0,
                        links: 0,
                        tick: u64::from(y),
                    },
                    9 => SnapshotRecord::Alignment {
                        a: u32::from(x % 4),
                        b: u32::from(y % 4),
                        built_at: u64::from(y) % (rows + 2),
                        pairs: vec![(attr(x), attr(y), f64::from(y) / 255.0)],
                    },
                    10 => SnapshotRecord::IndexDef {
                        name: format!("ix{}", x % 2),
                        source: source(x),
                        attr: attr(y),
                        // A known tag three times in four, else any.
                        kind: if y % 4 == 3 { y } else { y % 2 },
                    },
                    11 => SnapshotRecord::Kv {
                        key: u64::from(x % 4),
                        value: [None, Some(Value::Int(i64::from(y))), Some(Value::str(key(y)))]
                            [usize::from(y % 3)]
                        .clone(),
                        enrichment: y % 2 == 0,
                    },
                    12 => SnapshotRecord::Symbols {
                        names: vec![key(x), attr(y), key(y)],
                    },
                    // This database's own shard state half the time.
                    _ if y % 2 == 0 => SnapshotRecord::ShardState {
                        shard: 0,
                        shards: 1,
                        slots: ShardMap::build(scdb_placement::PlacementPolicy::Range, 1, &[])
                            .slots()
                            .to_vec(),
                    },
                    _ => SnapshotRecord::ShardState {
                        shard: u32::from(x % 2),
                        shards: 1 + u32::from(y % 4 / 2),
                        slots: vec![u32::from(x % 2); usize::from(y)],
                    },
                }))
                .collect();
            let db = Db::new();
            if install_into(&db, frames).is_ok() {
                serve_installed(&db, rows);
            }
        }
    }

    #[test]
    fn checkpoint_requires_durability() {
        let db = Db::new();
        assert!(matches!(db.checkpoint(), Err(CoreError::Recovery(_))));
        assert!(!db.is_durable());
        assert!(db.recovery_report().is_none());
        db.sync_wal().unwrap(); // no-op in memory
    }
}
