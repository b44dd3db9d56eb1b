//! The write path: source registration, routing, the one commit
//! function every ingest funnels into, per-record curation, link
//! discovery, and the group-commit committer loop.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::RwLockWriteGuard;
use scdb_er::normalize::normalize;
use scdb_obs::{metrics, FieldValue as F, Histogram};
use scdb_storage::{IndexSet, RowStore};
use scdb_txn::{DurableWal, LogRecord, TxnError};
use scdb_types::{Record, SourceId, Symbol, SymbolTable, Value, ValueKind};

use super::{
    Db, DbInner, DbMode, IngestReport, InstanceShard, RelationShard, SourceState, StageHistograms,
};
use crate::error::CoreError;
use crate::group_commit::{CommitTicket, IngestItem, IngestQueue, TicketState};

impl Db {
    /// Register a source; idempotent per name. `identity_attr` names the
    /// attribute whose value identifies the record's entity (defaults to
    /// the record's first string attribute at ingest time).
    ///
    /// # Panics
    ///
    /// Panics where [`Db::try_register_source`] returns an error, which
    /// it returns to handle instead:
    ///
    /// - `name` is in the reserved `sys.` namespace
    ///   ([`CoreError::ReservedNamespace`]);
    /// - the database is degraded to read-only mode
    ///   ([`CoreError::Degraded`]);
    /// - on a durable database, the registration cannot be logged
    ///   ([`CoreError::Txn`]).
    pub fn register_source(&self, name: &str, identity_attr: Option<&str>) -> SourceId {
        self.try_register_source(name, identity_attr)
            .unwrap_or_else(|e| panic!("source registration failed: {e}"))
    }

    /// [`Db::register_source`], surfacing WAL append failures.
    pub fn try_register_source(
        &self,
        name: &str,
        identity_attr: Option<&str>,
    ) -> Result<SourceId, CoreError> {
        self.ensure_writable()?;
        if crate::syscat::is_sys_name(name) {
            return Err(CoreError::ReservedNamespace(name.to_string()));
        }
        // DDL broadcasts: every shard gets the source definition (its
        // own row store, stats, indexes) and logs the registration to
        // its own WAL, so each shard's log replays standalone. Locks
        // are acquired shard-major, matching the commit path.
        let mut symbols = self.inner.symbols.write();
        let mut slices = Vec::with_capacity(self.inner.shards.len());
        for shard in &self.inner.shards {
            slices.push((shard.instance.write(), shard.relation.write()));
        }
        if let Ok(existing) = slices[0].0.source_state(name) {
            return Ok(existing.id);
        }
        // Log before mutating (auto-sealed: registration is not gated by
        // a commit record — it is idempotent and carries no user data).
        self.log_to_every_shard(&LogRecord::SourceReg {
            name: name.to_string(),
            identity_attr: identity_attr.map(str::to_string),
        })?;
        let mut id = SourceId(0);
        for (instance, relation) in &mut slices {
            id = self.install_source(&mut symbols, instance, relation, name, identity_attr);
        }
        Ok(id)
    }

    /// Install a new source on one shard's slice: the next source id,
    /// the resolver's identity designation, and the routing mirror.
    /// Live registration runs it on every slice, replay and snapshot
    /// install on the slice whose log carried the definition.
    pub(super) fn install_source(
        &self,
        symbols: &mut SymbolTable,
        inst: &mut InstanceShard,
        rel: &mut RelationShard,
        name: &str,
        identity_attr: Option<&str>,
    ) -> SourceId {
        let id = SourceId(inst.sources.len() as u32);
        let identity_attr = identity_attr.map(|attr| symbols.intern(attr));
        if let Some(attr) = identity_attr {
            rel.resolver.designate_identity(id, attr);
        }
        inst.sources.push((
            name.to_string(),
            SourceState {
                id,
                store: RowStore::new(id),
                stats: HashMap::new(),
                identity_attr,
                indexes: IndexSet::new(),
            },
        ));
        self.inner
            .identities
            .write()
            .insert(name.to_string(), identity_attr);
        id
    }

    /// Append one auto-sealed DDL record to every shard's WAL (a no-op
    /// on an in-memory database). The caller holds the locks that
    /// order the DDL against commits.
    pub(super) fn log_to_every_shard(&self, record: &LogRecord) -> Result<(), CoreError> {
        for shard in &self.inner.shards {
            if let Some(wal) = shard.durable.lock().as_mut() {
                wal.append_sealed(std::slice::from_ref(record))
                    .map_err(|e| self.trip_on_io(e))?;
            }
        }
        Ok(())
    }

    /// Ingest one record into `source`, running the full incremental
    /// curation pipeline: store → schema/stats → ER → graph node →
    /// link discovery. Optional `text` is indexed in the text store.
    ///
    /// Without an ingest queue this is a group commit of one: the
    /// record's shard's `instance` and `relation` locks are held
    /// exclusively for the whole pipeline, so concurrent readers see
    /// either none or all of the record's effects. With
    /// [`IngestConfig::queued`](super::IngestConfig::queued) configured
    /// the record is enqueued for the database's committer and this call
    /// blocks until the batch containing it is durably sealed and
    /// applied — same guarantees, one amortized fsync.
    pub fn ingest(
        &self,
        source: &str,
        record: Record,
        text: Option<&str>,
    ) -> Result<IngestReport, CoreError> {
        self.ensure_writable()?;
        let item = IngestItem::new(source.to_string(), record, text.map(str::to_owned));
        match &self.inner.queue {
            Some(queue) => queue.submit(item)?.wait(),
            None => self.commit_one(item),
        }
    }

    /// Ingest many records into `source` as one group-committed batch:
    /// a single WAL append (one fsync under
    /// [`FsyncPolicy::Always`](scdb_txn::FsyncPolicy::Always)) seals
    /// the whole batch, and the curation pipeline runs for every
    /// row under one instance+relation write-lock acquisition. Reports
    /// come back in input order. A batch whose rows route to several
    /// shards commits atomically across them: every participant's log
    /// ends in the same seal. With an ingest queue configured the
    /// records ride the committer instead: they enter the queue in input
    /// order, in chunks of at most the queue's capacity, and each chunk
    /// commits as one group across shards.
    ///
    /// On a per-record pipeline error the first failure is returned;
    /// every row of a sealed batch is logged, so memory matches the log
    /// either way.
    pub fn ingest_batch(
        &self,
        source: &str,
        records: Vec<Record>,
    ) -> Result<Vec<IngestReport>, CoreError> {
        self.ensure_writable()?;
        let item = |record| IngestItem::new(source.to_string(), record, None);
        let Some(queue) = &self.inner.queue else {
            let items = records.into_iter().map(item).collect();
            return self.route_and_commit(items).into_iter().collect();
        };
        let mut records = records.into_iter().peekable();
        let mut tickets = Vec::new();
        while records.peek().is_some() {
            let chunk = records.by_ref().take(queue.capacity()).map(item).collect();
            tickets.extend(queue.submit_all(chunk)?);
        }
        tickets.into_iter().map(CommitTicket::wait).collect()
    }

    /// Enqueue one record for group commit and return its awaitable
    /// [`CommitTicket`] without blocking for durability — how a single
    /// producer thread keeps the committer's batches full. Without an
    /// ingest queue the record is applied inline and the ticket comes
    /// back already resolved.
    pub fn ingest_async(
        &self,
        source: &str,
        record: Record,
        text: Option<&str>,
    ) -> Result<CommitTicket, CoreError> {
        self.ensure_writable()?;
        let item = IngestItem::new(source.to_string(), record, text.map(str::to_owned));
        match &self.inner.queue {
            Some(queue) => queue.submit(item),
            None => Ok(CommitTicket::resolved(self.commit_one(item))),
        }
    }

    /// The unqueued single-record path: a batch of one, applied on the
    /// caller's thread.
    fn commit_one(&self, item: IngestItem) -> Result<IngestReport, CoreError> {
        self.route_and_commit(vec![item])
            .pop()
            .expect("one result per item")
    }

    /// Route a batch — a direct call's or a committer's — and commit it
    /// as one: its rows grouped by owning shard (shards ascending, input
    /// order kept within a group). Results come back in input order.
    fn route_and_commit(&self, items: Vec<IngestItem>) -> Vec<Result<IngestReport, CoreError>> {
        let mut groups: Vec<Vec<(usize, IngestItem)>> =
            self.inner.shards.iter().map(|_| Vec::new()).collect();
        for (slot, item) in items.into_iter().enumerate() {
            let shard = self.route_shard(&item.source, &item.record);
            groups[shard as usize].push((slot, item));
        }
        let participants = groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .map(|(k, group)| (k as u32, group))
            .collect();
        self.commit(participants)
    }

    /// The shard a record's rows belong to: its routing key hashed
    /// through the [`ShardMap`](scdb_placement::ShardMap). A one-shard
    /// database skips the key extraction entirely.
    fn route_shard(&self, source: &str, record: &Record) -> u32 {
        if self.inner.shards.len() == 1 {
            return 0;
        }
        let key = self.routing_key(source, record);
        self.inner.shard_map.shard_of_key(&key)
    }

    /// A record's routing key: the (normalized) value of its source's
    /// identity attribute when present, else its first string value,
    /// else its first value rendered. Normalizing matches the identity
    /// key the resolver registers, so records that name the same entity
    /// co-locate on one shard and per-shard entity resolution stays
    /// exact.
    fn routing_key(&self, source: &str, record: &Record) -> String {
        // The identity attribute comes from the leaf-lock mirror, not a
        // shard's instance state: commits hold their shard's instance
        // write lock across the fsync, and routing must never wait on
        // that (no cross-shard coordination on the hot path).
        let identity = self.inner.identities.read().get(source).copied().flatten();
        identity
            .and_then(|attr| record.get(attr))
            .or_else(|| identity_key(None, record).map(|(_, v)| v))
            .or_else(|| record.iter().next().map(|(_, v)| v))
            .map(|v| normalize(&v.render()))
            .unwrap_or_default()
    }

    /// The commit function: every ingest path — a direct call, a
    /// committer's batch, a replayed row — ends here with its rows
    /// grouped by owning shard (`participants`, ascending by shard;
    /// each row tagged with its slot in the result vector).
    ///
    /// Three phases under one symbols-read plus, *for the participant
    /// shards only*, instance-write + relation-write acquisition in
    /// shard-major order — so a one-participant commit is fully
    /// independent of the other shards, log order equals apply order
    /// (entity resolution is order-dependent) and readers never see a
    /// torn batch:
    ///
    /// 1. **Prepare** — validate each item's source. The row stays the
    ///    one [`Record`] it arrived as. A failed item must leave memory
    ///    and log unchanged; the rest of the batch is unaffected.
    /// 2. **Log** — under the participants' `durable` mutexes (taken in
    ///    shard order), frame each participant's valid rows plus one
    ///    seal ([`LogRecord::seal`]) into a single append to that
    ///    shard's WAL. Each row's `(name, value)` pairs are built from
    ///    its record here, and only here: an in-memory database never
    ///    resolves a name or clones a value on the write path. A failed
    ///    append fails the whole batch: nothing was applied, nothing
    ///    gets acked.
    /// 3. **Apply** — run the curation pipeline per row via
    ///    [`curate_one`], which clones the row exactly once (the
    ///    store's copy; the resolver consumes the original).
    ///
    /// A batch that spans shards is atomic across their logs: every
    /// participant's append ends in the same seal, and recovery applies
    /// the batch only when the seal is present in *every* participant's
    /// log, so a torn or missing seal on any one shard discards the
    /// whole batch everywhere, while commits on other shards are
    /// unaffected.
    pub(super) fn commit(
        &self,
        participants: Vec<(u32, Vec<(usize, IngestItem)>)>,
    ) -> Vec<Result<IngestReport, CoreError>> {
        let _span = scdb_obs::span!("core.ingest");
        let total: usize = participants.iter().map(|(_, items)| items.len()).sum();
        if total == 0 {
            return Vec::new();
        }
        // Degraded gate, re-checked here so records that were already
        // queued when the node tripped resolve fast with the cause
        // instead of hitting the sick medium (or hanging).
        if self.inner.degraded.load(Ordering::Relaxed) {
            if let DbMode::Degraded { reason, .. } = self.mode() {
                return (0..total)
                    .map(|_| Err(CoreError::Degraded(reason.clone())))
                    .collect();
            }
        }
        // Commit-latency decomposition: how long each row sat in the
        // ingest queue before the committer picked it up, then per-batch
        // build / WAL-append / fsync / apply splits. Unqueued paths
        // stamp `enqueued_at` at call entry, so their queue wait is just
        // the call overhead (~0) and every acked ingest decomposes the
        // same way. The timings themselves are plain clock arithmetic;
        // the histogram writes use pre-resolved handles gated on the
        // metrics switch, and the summary event self-gates on the ring,
        // so a disabled registry pays only the branch.
        let staged = metrics().enabled();
        let stages = &self.inner.stages;
        let mut max_wait_ns = 0u64;
        // The batch inherits its oldest member's correlation id (ids are
        // minted in arrival order, so they are strictly increasing
        // across batches); every event this batch emits downstream —
        // flush, WAL append, fsync, apply, a degraded trip — carries it,
        // and every acked ticket reports it back.
        let mut batch_id = u64::MAX;
        {
            let now = Instant::now();
            for (_, item) in participants.iter().flat_map(|(_, items)| items) {
                // duration_since saturates to zero if clocks race.
                let wait_ns = now.duration_since(item.enqueued_at).as_nanos() as u64;
                if staged {
                    stages.queue_wait.record(wait_ns);
                }
                max_wait_ns = max_wait_ns.max(wait_ns);
                batch_id = batch_id.min(item.ticket_id);
            }
        }
        let symbols = self.inner.symbols.read();
        let mut parts: Vec<Participant<'_>> = Vec::with_capacity(participants.len());
        for (shard, items) in &participants {
            let slice = &self.inner.shards[*shard as usize];
            parts.push(Participant {
                shard: *shard,
                instance: slice.instance.write(),
                relation: slice.relation.write(),
                slots: Vec::with_capacity(items.len()),
                prepared: Vec::with_capacity(items.len()),
                txns: Vec::new(),
            });
        }
        // Phase 1: prepare.
        let build_start = Instant::now();
        for (part, (_, items)) in parts.iter_mut().zip(participants) {
            for (slot, item) in items {
                part.slots.push(slot);
                part.prepared
                    .push(prepare_item(&part.instance, item, batch_id));
            }
        }
        let build_ns = build_start.elapsed().as_nanos() as u64;
        if staged {
            stages.batch_build.record(build_ns);
        }
        // Phase 2: log each participant's rows and the batch's seal in
        // one append per WAL, ascending by shard — live appends always
        // seal in that order, so seals appear in a consistent relative
        // order across logs.
        let mut append_ns = 0u64;
        let mut fsync_ns = 0u64;
        {
            let mut wals = Vec::with_capacity(parts.len());
            for part in &parts {
                wals.push(self.inner.shards[part.shard as usize].durable.lock());
            }
            // WALs are installed on every shard together (once replay
            // is done), so the first participant's answers for all.
            if wals[0].is_some() {
                // Mint every participant's transaction ids before the
                // first append: all of them seal with one vector.
                for (part, wal) in parts.iter_mut().zip(&mut wals) {
                    let wal = wal.as_mut().expect("installed together");
                    part.txns = part
                        .prepared
                        .iter()
                        .filter(|p| p.is_ok())
                        .map(|_| wal.next_txn_id())
                        .collect();
                }
                let sealers: Vec<(u32, u64)> = parts
                    .iter()
                    .filter_map(|p| p.txns.first().map(|&first| (p.shard, first)))
                    .collect();
                let batch_rows: usize = parts.iter().map(|p| p.txns.len()).sum();
                let mut failure: Option<TxnError> = None;
                for (part, wal) in parts.iter().zip(&mut wals) {
                    if part.txns.is_empty() {
                        continue;
                    }
                    let wal = wal.as_mut().expect("installed together");
                    match part.log(wal, &symbols, batch_id, batch_rows, &sealers) {
                        Ok((append, fsync)) => {
                            append_ns += append;
                            fsync_ns += fsync;
                        }
                        Err(e) => {
                            failure = Some(e);
                            break;
                        }
                    }
                }
                if let Some(e) = failure {
                    // The batch fails on every participant: nothing is
                    // applied, nothing gets acked. Earlier participants
                    // may already hold their seal, but recovery
                    // discards a cross-shard batch whose seal is
                    // missing from any participant's log, so memory
                    // matches the log. A persistent I/O failure also
                    // trips the node to degraded read-only mode.
                    if e.io_class().is_some() {
                        self.trip_degraded_for_batch(e.to_string(), batch_id);
                    }
                    let msg = CoreError::from(e).chain();
                    return collect_slots(total, &mut parts, |_, _, p| {
                        Err(p
                            .err()
                            .unwrap_or_else(|| CoreError::GroupCommit(msg.clone())))
                    });
                }
                if sealers.len() > 1 {
                    scdb_obs::event(
                        "core",
                        "shard.seal",
                        &[
                            ("batch_id", F::U64(batch_id)),
                            ("shards", F::U64(sealers.len() as u64)),
                            ("rows", F::U64(total as u64)),
                        ],
                    );
                }
            }
        }
        if staged {
            // Zero on in-memory databases: no WAL means the append and
            // fsync stages genuinely cost nothing, but the decomposition
            // stays complete on every path.
            stages.wal_append.record(append_ns);
            stages.fsync.record(fsync_ns);
        }
        // Phase 3: apply, per participant in log order.
        let apply_start = Instant::now();
        let mut applied = false;
        let split = staged.then_some(stages);
        let out = collect_slots(total, &mut parts, |inst, rel, p| {
            applied |= p.is_ok();
            curate_one(inst, rel, &symbols, p?, split)
        });
        // Curation changed the world: invalidate the semantic cache once
        // per batch, before the participants' locks release (semantic
        // comes after relation in the lock order).
        if applied {
            self.inner.semantic.write().saturation = None;
        }
        let apply_ns = apply_start.elapsed().as_nanos() as u64;
        if staged {
            stages.apply.record(apply_ns);
        }
        // Per-batch flight-recorder summary; record() is a no-op unless
        // the ring is enabled, so this does not ride the metrics switch.
        scdb_obs::event(
            "core",
            "ingest.stages",
            &[
                ("batch_id", F::U64(batch_id)),
                ("rows", F::U64(total as u64)),
                ("queue_wait_ns", F::U64(max_wait_ns)),
                ("build_ns", F::U64(build_ns)),
                ("append_ns", F::U64(append_ns)),
                ("fsync_ns", F::U64(fsync_ns)),
                ("apply_ns", F::U64(apply_ns)),
                // The first participant; a batch that spans shards also
                // emits `shard.seal` with the participant count (events
                // carry at most eight fields).
                ("shard", F::U64(u64::from(parts[0].shard))),
            ],
        );
        out
    }

    /// Ingest a JSON document (§3.1: the instance layer "must natively
    /// also support semi-structured data such as XML and JSON"). The
    /// document is flattened into dotted attribute paths (`drug.name`,
    /// `drug.targets[0]`, …) and then curated exactly like a tabular
    /// record; the raw text is additionally indexed in the text store.
    pub fn ingest_json(&self, source: &str, json: &str) -> Result<IngestReport, CoreError> {
        // Flatten under a scoped symbols write lock, released before the
        // ingest pipeline re-acquires symbols for reading.
        let record = {
            let mut symbols = self.inner.symbols.write();
            scdb_types::json::flatten_json(json, &mut symbols)
        };
        let Some(record) = record else {
            return Err(CoreError::InvalidDocument {
                source: source.to_string(),
                reason: "unparseable JSON document".to_string(),
            });
        };
        self.ingest(source, record, Some(json))
    }

    /// Re-run link discovery over every stored record — used after bulk
    /// loads where references preceded their targets. Returns new links.
    ///
    /// On a sharded database the sweep runs shard by shard: each
    /// shard's marker is logged to its own WAL and its sweep sees only
    /// its own rows and graph, so replay of one shard's log reproduces
    /// exactly that shard's links.
    pub fn discover_links(&self) -> Result<usize, CoreError> {
        self.ensure_writable()?;
        let mut total = 0usize;
        for k in 0..self.inner.shard_count() {
            total += self.discover_links_shard(k)?;
        }
        Ok(total)
    }

    /// One shard's link-discovery sweep (the live path loops this over
    /// every shard; replay calls it for the shard whose log carried the
    /// marker).
    pub(super) fn discover_links_shard(&self, shard: u32) -> Result<usize, CoreError> {
        let _span = scdb_obs::span!("core.discover_links");
        let slice = &self.inner.shards[shard as usize];
        let instance = slice.instance.read();
        let mut relation = slice.relation.write();
        let rel = &mut *relation;
        // The sweep mutates the graph deterministically from current
        // state, so a single sealed marker record is enough for replay.
        if let Some(wal) = slice.durable.lock().as_mut() {
            let txn = wal.next_txn_id();
            wal.append_sealed(&[
                LogRecord::DiscoverLinks { txn },
                LogRecord::seal(&[txn], &[]),
            ])
            .map_err(|e| self.trip_on_io(e))?;
        }
        rel.tick += 1;
        let tick = rel.tick;
        // The rows are read under the instance guard while the link rule
        // writes through the relation guard — two locks, so no copy.
        let mut new_links = 0usize;
        for (_, state) in &instance.sources {
            for (rid, record) in state.store.scan() {
                if let Some(entity) = rel.resolver.entity_of(rid) {
                    new_links += rel.link(entity, record, state.id, None, tick)?;
                }
            }
        }
        if new_links > 0 {
            self.inner.semantic.write().saturation = None;
        }
        metrics().add("core.links_discovered", new_links as u64);
        Ok(new_links)
    }
}

/// One shard's share of a commit: its write locks, its rows (each with
/// its slot in the caller's result vector), and the transaction ids
/// minted for the rows that prepared.
struct Participant<'a> {
    shard: u32,
    instance: RwLockWriteGuard<'a, InstanceShard>,
    relation: RwLockWriteGuard<'a, RelationShard>,
    slots: Vec<usize>,
    prepared: Vec<Result<Prepared, CoreError>>,
    txns: Vec<u64>,
}

impl Participant<'_> {
    /// Append this participant's valid rows and the batch's seal to its
    /// WAL as one framed append. Returns the WAL's `(append, fsync)`
    /// nanoseconds — pure append I/O vs fsync (including rotation
    /// fsyncs), split out by the WAL itself.
    fn log(
        &self,
        wal: &mut DurableWal,
        symbols: &SymbolTable,
        batch_id: u64,
        batch_rows: usize,
        sealers: &[(u32, u64)],
    ) -> Result<(u64, u64), TxnError> {
        let mut recs = Vec::with_capacity(self.txns.len() + 1);
        for (p, &txn) in self.prepared.iter().flatten().zip(&self.txns) {
            recs.push(LogRecord::IngestRow {
                txn,
                source: self.instance.sources[p.source_id.0 as usize].0.clone(),
                attrs: p
                    .record
                    .iter()
                    .map(|(a, v)| (symbols.resolve(a).to_string(), v.clone()))
                    .collect(),
                text: p.text.clone(),
            });
        }
        recs.push(LogRecord::seal(&self.txns, sealers));
        // Bracket the append with the batch's correlation id so the
        // WAL's append/fsync events carry it; cleared on both exits so
        // unrelated appends (checkpoints, registrations) stay
        // uncorrelated.
        wal.set_batch_context(batch_id);
        // A lone row is a plain sealed append; anything larger is a
        // group-commit flush and feeds the `txn.group_commit.*` metrics.
        let appended = if batch_rows == 1 {
            wal.append_sealed(&recs)
        } else {
            wal.append_group(&recs, self.txns.len())
        };
        wal.set_batch_context(0);
        appended?;
        Ok(wal.last_stage_ns())
    }
}

/// Run `f` over every participant's rows, participant by participant in
/// row order, and return the results in the caller's slot order.
fn collect_slots(
    total: usize,
    parts: &mut [Participant<'_>],
    mut f: impl FnMut(
        &mut InstanceShard,
        &mut RelationShard,
        Result<Prepared, CoreError>,
    ) -> Result<IngestReport, CoreError>,
) -> Vec<Result<IngestReport, CoreError>> {
    let mut out: Vec<Option<Result<IngestReport, CoreError>>> = (0..total).map(|_| None).collect();
    for part in parts {
        let Participant {
            instance,
            relation,
            slots,
            prepared,
            ..
        } = part;
        for (slot, p) in slots.drain(..).zip(prepared.drain(..)) {
            out[slot] = Some(f(instance, relation, p));
        }
    }
    out.into_iter()
        .map(|r| r.expect("every slot belongs to exactly one participant"))
        .collect()
}

/// One prepared row, ready to log and apply: its source validated, the
/// row itself the one [`Record`] it arrived as.
struct Prepared {
    source_id: SourceId,
    identity_attr: Option<Symbol>,
    record: Record,
    text: Option<String>,
    /// The batch correlation id this row was committed under.
    batch_id: u64,
}

/// Resolve one queued item's source against its shard's instance state.
/// The result is ready to log and to feed [`curate_one`].
fn prepare_item(
    inst: &InstanceShard,
    item: IngestItem,
    batch_id: u64,
) -> Result<Prepared, CoreError> {
    let state = inst.source_state(&item.source)?;
    Ok(Prepared {
        source_id: state.id,
        identity_attr: state.identity_attr,
        record: item.record,
        text: item.text,
        batch_id,
    })
}

/// A row's identity key and the attribute that holds it: the value of
/// its source's identity attribute, or else (`None`) its first string in
/// symbol-id order. Curation registers it, and snapshot install claims
/// it again from the row.
pub(super) fn identity_key(
    identity_attr: Option<Symbol>,
    record: &Record,
) -> Option<(Symbol, &Value)> {
    match identity_attr {
        Some(attr) => record.get(attr).map(|v| (attr, v)),
        None => record.iter().find(|(_, v)| v.kind() == ValueKind::Str),
    }
}

/// Times consecutive steps of [`curate_one`] into the
/// `core.ingest.apply.*` histograms; without histograms (metrics off) it
/// reads no clock.
struct ApplyClock<'a> {
    stages: Option<&'a StageHistograms>,
    last: Option<Instant>,
}

impl<'a> ApplyClock<'a> {
    fn start(stages: Option<&'a StageHistograms>) -> Self {
        ApplyClock {
            stages,
            last: stages.map(|_| Instant::now()),
        }
    }

    /// Record the time since the previous lap into `step`'s histogram.
    fn lap(&mut self, step: fn(&StageHistograms) -> &Histogram) {
        if let (Some(stages), Some(last)) = (self.stages, self.last) {
            let now = Instant::now();
            step(stages).record(now.duration_since(last).as_nanos() as u64);
            self.last = Some(now);
        }
    }
}

/// Run the per-record curation pipeline (store → stats → text → ER →
/// graph → link discovery) under the caller's shard write locks. The row
/// is cloned exactly once: the store keeps the clone, the resolver
/// consumes the original, and every later step reads the store's copy.
/// With `split`, each step's time goes to its `core.ingest.apply.*`
/// histogram.
fn curate_one(
    inst: &mut InstanceShard,
    rel: &mut RelationShard,
    symbols: &SymbolTable,
    p: Prepared,
    split: Option<&StageHistograms>,
) -> Result<IngestReport, CoreError> {
    let mut clock = ApplyClock::start(split);
    let Prepared {
        source_id,
        identity_attr,
        record,
        text,
        batch_id,
    } = p;
    rel.tick += 1;
    let tick = rel.tick;
    // 1. Instance layer.
    let record_id = inst.sources[source_id.0 as usize]
        .1
        .append(symbols, record.clone());
    if let Some(t) = &text {
        inst.text.index(record_id, t);
    }
    clock.lap(|s| &s.apply_instance);
    // 2. Relation layer: entity resolution, then the entity's graph
    // node (absorbing every entity the row bridged).
    let event = rel.resolver.add(record_id, record, symbols);
    clock.lap(|s| &s.apply_er);
    let entity = event.entity;
    rel.stats.records += 1;
    if !event.fresh {
        rel.stats.merges += 1;
    }
    rel.graph.ensure_node(entity); // the survivor of the merges below
    rel.absorb(entity, &event.absorbed)?;
    rel.graph.ensure_node(entity).records.push(record_id);
    let (source, state) = &inst.sources[source_id.0 as usize];
    let record = state.store.get(record_id)?;
    if let Some((_, v)) = identity_key(identity_attr, record) {
        rel.register_identity(entity, v);
    }
    clock.lap(|s| &s.apply_graph);
    // 3. Link discovery: non-identity values referencing other
    // entities become edges labelled by the attribute.
    let links = rel.link(
        entity,
        record,
        source_id,
        Some(record_id.offset as usize),
        tick,
    )?;
    clock.lap(|s| &s.apply_links);
    scdb_obs::event(
        "core",
        "ingest",
        &[
            ("source", F::Str(source.as_str().into())),
            ("entity", F::U64(entity.0)),
            ("fresh", F::U64(event.fresh as u64)),
            ("links", F::U64(links as u64)),
            ("absorbed", F::U64(event.absorbed.len() as u64)),
            ("batch_id", F::U64(batch_id)),
        ],
    );
    Ok(IngestReport {
        record: record_id,
        entity,
        fresh_entity: event.fresh,
        absorbed: event.absorbed,
        links_discovered: links,
        batch_id,
    })
}

/// Tickets popped from the queue but not yet resolved, shared between
/// the committer body and its supervisor: after a committer panic the
/// supervisor fails whatever is still in the slot, so no producer ever
/// hangs on a ticket whose batch died mid-flight.
pub(super) type InflightTickets = Arc<std::sync::Mutex<Vec<Arc<TicketState>>>>;

/// Poison-proof lock for the in-flight slot (the committer panicking
/// while holding it must not wedge the supervisor).
pub(super) fn lock_inflight(
    slot: &InflightTickets,
) -> std::sync::MutexGuard<'_, Vec<Arc<TicketState>>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The committer loop: drain the queue in batches, commit each batch
/// as a direct batch commits ([`Db::route_and_commit`]), resolve the
/// tickets. Exits when the queue is closed and drained (the last [`Db`]
/// handle dropped). One committer serves every write shard, so a batch
/// whose rows span shards commits as one, sealed across them.
pub(super) fn group_committer(
    inner: Weak<DbInner>,
    queue: Arc<IngestQueue>,
    inflight: InflightTickets,
) {
    let max_batch = queue.capacity();
    loop {
        let batch = queue.pop_batch(max_batch);
        if batch.is_empty() {
            return;
        }
        match inner.upgrade() {
            Some(inner) => {
                let db = Db { inner };
                let (items, tickets): (Vec<IngestItem>, Vec<Arc<TicketState>>) =
                    batch.into_iter().unzip();
                // Publish the batch's tickets before touching the
                // pipeline: if apply panics, the supervisor resolves
                // them from here.
                *lock_inflight(&inflight) = tickets.clone();
                let results = db.route_and_commit(items);
                for (ticket, result) in tickets.iter().zip(results) {
                    ticket.resolve(result);
                }
                lock_inflight(&inflight).clear();
            }
            None => {
                // The database is gone: these records were accepted but
                // never sealed. Their producers must see a failure, not
                // a silent drop.
                for (_, ticket) in batch {
                    ticket.resolve(Err(CoreError::GroupCommit(
                        "database dropped before the batch was committed".to_string(),
                    )));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::super::{DurabilityConfig, IngestConfig};
    use super::*;

    #[test]
    fn ingest_resolves_and_links() {
        let db = Db::new();
        db.register_source("uniprot", Some("Gene"));
        db.register_source("drugbank", Some("Drug Name"));
        let r = gene_record(&db, "DHFR", "Limits Cell Growth");
        let gene_report = db.ingest("uniprot", r, None).unwrap();
        assert!(gene_report.fresh_entity);
        let r = drug_record(&db, "Methotrexate", "DHFR");
        let drug_report = db.ingest("drugbank", r, None).unwrap();
        assert!(drug_report.fresh_entity);
        assert_eq!(drug_report.links_discovered, 1, "drug → gene link");
        let g = db.graph();
        let edges = g.edges(drug_report.entity);
        assert_eq!(edges[0].to, gene_report.entity);
    }

    #[test]
    fn duplicate_names_resolve_to_same_entity() {
        let db = Db::new();
        db.register_source("a", Some("Drug Name"));
        let r1 = drug_record(&db, "Warfarin", "TP53");
        let r2 = drug_record(&db, "warfarin", "TP53");
        let e1 = db.ingest("a", r1, None).unwrap();
        let e2 = db.ingest("a", r2, None).unwrap();
        assert_eq!(e1.entity, e2.entity);
        assert_eq!(db.stats().merges, 1);
    }

    #[test]
    fn discover_links_after_bulk_load() {
        let db = Db::new();
        db.register_source("drugbank", Some("Drug Name"));
        db.register_source("uniprot", Some("Gene"));
        // Drug arrives BEFORE its gene target exists.
        let r = drug_record(&db, "Methotrexate", "DHFR");
        let d = db.ingest("drugbank", r, None).unwrap();
        assert_eq!(d.links_discovered, 0);
        let r = gene_record(&db, "DHFR", "Limits Cell Growth");
        db.ingest("uniprot", r, None).unwrap();
        let new_links = db.discover_links().unwrap();
        assert_eq!(new_links, 1, "late link discovered");
    }

    #[test]
    fn json_ingestion_flattens_and_curates() {
        let db = Db::new();
        db.register_source("uniprot", Some("gene"));
        db.register_source("docs", Some("drug.name"));
        let g = db.intern("gene");
        db.ingest(
            "uniprot",
            Record::from_pairs([(g, Value::str("TP53"))]),
            None,
        )
        .unwrap();
        let report = db
            .ingest_json(
                "docs",
                r#"{"drug":{"name":"Warfarin","targets":["TP53"]},"dose":5.1}"#,
            )
            .unwrap();
        // Flattened attributes participate in curation: the target value
        // resolved against the gene entity.
        assert_eq!(report.links_discovered, 1);
        // Dotted attributes are queryable.
        let out = db
            .query("SELECT drug.name FROM docs WHERE dose CLOSE TO 5.0 WITHIN 0.5")
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        // The raw document is text-searchable.
        assert!(!db.text().search("Warfarin", 3).is_empty());
        // Garbage is rejected with the dedicated variant.
        assert!(matches!(
            db.ingest_json("docs", "{not json"),
            Err(CoreError::InvalidDocument { .. })
        ));
    }

    #[test]
    fn text_ingestion_searchable() {
        let db = Db::new();
        db.register_source("docs", None);
        let a = db.intern("title");
        let r = Record::from_pairs([(a, Value::str("warfarin study"))]);
        let rep = db
            .ingest("docs", r, Some("warfarin prevents blood clots"))
            .unwrap();
        let hits = db.text().search("blood clots", 5);
        assert_eq!(hits[0].record, rep.record);
    }

    #[test]
    fn ingest_batch_matches_per_record_ingest() {
        let reference = Db::new();
        reference.register_source("drugbank", Some("Drug Name"));
        for (n, g) in BATCH_ROWS {
            reference
                .ingest("drugbank", drug_record(&reference, n, g), None)
                .unwrap();
        }
        let db = Db::new();
        db.register_source("drugbank", Some("Drug Name"));
        let records: Vec<Record> = BATCH_ROWS
            .iter()
            .map(|(n, g)| drug_record(&db, n, g))
            .collect();
        let reports = db.ingest_batch("drugbank", records).unwrap();
        assert_eq!(reports.len(), BATCH_ROWS.len());
        assert!(!reports[1].fresh_entity, "case-folded duplicate merged");
        assert_eq!(reports[3].links_discovered, 1, "late reference linked");
        assert_eq!(db.state_dump(), reference.state_dump());
        assert!(db.ingest_batch("drugbank", Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn queued_ingest_equivalent_and_reported_healthy() {
        let reference = Db::new();
        seed_curated(&reference);
        let db = Db::builder().ingest_config(IngestConfig::queued(8)).build();
        seed_curated(&db);
        assert_eq!(db.state_dump(), reference.state_dump());
        let health = db.health_report();
        let gc = health.group_commit.clone().expect("queue configured");
        assert_eq!(gc.queue_capacity, 8);
        assert!(health.render().contains("group commit"));
        assert!(health
            .to_json()
            .get("group_commit")
            .unwrap()
            .as_object()
            .is_some());
    }

    #[test]
    fn queued_ingest_surfaces_per_record_errors() {
        let db = Db::builder().ingest_config(IngestConfig::queued(4)).build();
        db.register_source("a", Some("Drug Name"));
        let good = db
            .ingest_async("a", drug_record(&db, "Warfarin", "TP53"), None)
            .unwrap();
        let bad = db
            .ingest_async("nope", drug_record(&db, "Aspirin", "PTGS2"), None)
            .unwrap();
        assert!(matches!(bad.wait(), Err(CoreError::UnknownSource(_))));
        good.wait().unwrap();
        assert_eq!(db.stats().records, 1, "the bad row touched nothing");
    }

    #[test]
    fn ingest_async_without_queue_resolves_inline() {
        let db = Db::new();
        db.register_source("a", Some("Drug Name"));
        let t = db
            .ingest_async("a", drug_record(&db, "Warfarin", "TP53"), None)
            .unwrap();
        assert!(t.is_resolved());
        assert!(t.wait().unwrap().fresh_entity);
    }

    #[test]
    fn full_queue_applies_backpressure_without_deadlock() {
        let db = Db::builder().ingest_config(IngestConfig::queued(1)).build();
        db.register_source("a", Some("Drug Name"));
        let tickets: Vec<_> = (0..16)
            .map(|i| {
                db.ingest_async("a", drug_record(&db, &format!("Drug{i}"), "TP53"), None)
                    .unwrap()
            })
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(db.stats().records, 16);
    }

    #[test]
    fn dropping_db_closes_queue_and_resolves_tickets() {
        let db = Db::builder().ingest_config(IngestConfig::queued(8)).build();
        db.register_source("a", Some("Drug Name"));
        let ticket = db
            .ingest_async("a", drug_record(&db, "Warfarin", "TP53"), None)
            .unwrap();
        drop(db);
        // Either the committer sealed the record before the drop (Ok) or
        // the close beat it (group-commit error) — but the ticket must
        // resolve; an enqueued-then-dropped record never hangs a waiter.
        match ticket.wait() {
            Ok(r) => assert!(r.fresh_entity),
            Err(CoreError::GroupCommit(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn queued_durable_group_commit_recovers() {
        let dir = tmpdir("group");
        let reference = Db::new();
        reference.register_source("drugbank", Some("Drug Name"));
        for (n, g) in BATCH_ROWS {
            reference
                .ingest("drugbank", drug_record(&reference, n, g), None)
                .unwrap();
        }
        {
            let db = Db::builder()
                .ingest_config(IngestConfig::queued(16))
                .durability_config(DurabilityConfig::dir(&dir))
                .open()
                .unwrap();
            db.register_source("drugbank", Some("Drug Name"));
            // Submit everything before waiting, so the committer can
            // seal multiple rows under one CommitGroup.
            let tickets: Vec<_> = BATCH_ROWS
                .iter()
                .map(|(n, g)| {
                    db.ingest_async("drugbank", drug_record(&db, n, g), None)
                        .unwrap()
                })
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
            assert_eq!(db.state_dump(), reference.state_dump());
        }
        // Reopen WITHOUT a queue: replay of group-sealed rows goes
        // through the direct path and lands on identical state.
        let db = Db::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.txns_discarded, 0);
        assert!(report.records_replayed >= BATCH_ROWS.len());
        assert_eq!(db.state_dump(), reference.state_dump());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_ingest_batch_is_one_group_seal() {
        let dir = tmpdir("batchseal");
        let reference = Db::new();
        reference.register_source("drugbank", Some("Drug Name"));
        for (n, g) in BATCH_ROWS {
            reference
                .ingest("drugbank", drug_record(&reference, n, g), None)
                .unwrap();
        }
        {
            let db = Db::builder()
                .durability_config(DurabilityConfig::dir(&dir))
                .open()
                .unwrap();
            db.register_source("drugbank", Some("Drug Name"));
            let records: Vec<Record> = BATCH_ROWS
                .iter()
                .map(|(n, g)| drug_record(&db, n, g))
                .collect();
            db.ingest_batch("drugbank", records).unwrap();
            assert_eq!(db.state_dump(), reference.state_dump());
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().txns_discarded, 0);
        assert_eq!(db.state_dump(), reference.state_dump());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
