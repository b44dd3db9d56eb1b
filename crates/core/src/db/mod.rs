//! The [`Db`] facade: a cheaply-clonable, `Send + Sync` handle.
//!
//! One handle owns all three layers plus the query machinery. The
//! curation loop is *incremental and continuous* (FS.1, §4.2): every
//! ingested record is immediately resolved against the existing entity
//! population, linked into the relation graph, and exposed to queries;
//! nothing requires an offline pass. Semantic saturation is recomputed
//! lazily (it is the one global step) and cached until curation
//! invalidates it.
//!
//! The facade is one `impl Db` spread over one file per concern:
//! `builder` (configuration, construction, the recovery driver),
//! `ingest` (DDL, routing, the commit function, curation), `recovery`
//! (replay, snapshots, checkpoints, the state digest), `query` (user
//! and `sys.*` queries), `mode` (degraded mode, thread supervision) and
//! `admin` (indexes, telemetry, health, the kv store). This file holds
//! the state they share and the read accessors.
//!
//! # Concurrency model
//!
//! Interior state is split into per-subsystem [`parking_lot::RwLock`]s
//! so readers and the curation writer proceed concurrently:
//!
//! | lock       | contents                                              |
//! |------------|-------------------------------------------------------|
//! | `symbols`  | the shared [`SymbolTable`]                            |
//! | `instance` | row stores, per-attribute statistics, text store      |
//! | `relation` | incremental resolver, property graph, identity index  |
//! | `durable`  | the optional disk-backed WAL ([`DurableWal`])         |
//! | `semantic` | ontology, cached saturation/taxonomy, trained models  |
//! | `config`   | optimizer configuration, scan executor                |
//!
//! `instance`, `relation` and `durable` exist once per *write shard*:
//! the database is a `Vec` of `ShardSlice`s (length 1 unless
//! [`DbBuilder::write_shards`] says otherwise), and everything below is
//! written against that vector.
//!
//! Every method takes `&self`; reads (`query`, `richness`,
//! `entity_count`, accessors) acquire read locks and run concurrently
//! with each other, while writes (`ingest`, `discover_links`, ontology
//! edits) take the affected locks exclusively. To stay deadlock-free,
//! locks are always acquired in the fixed order **symbols → instance →
//! relation → durable → semantic → config**, shard-major within the
//! per-shard classes (`instance.s0 < relation.s0 < instance.s1 < … <
//! durable.s0 < durable.s1 < …`); any subset is fine as long as the
//! relative order holds.
//!
//! A commit holds its participants' `instance` and `relation` write
//! locks together for the whole record pipeline, so a concurrent reader
//! never observes a stored record whose entity assignment does not
//! exist yet (no torn reads).
//!
//! With [`IngestConfig::queued`] configured, ingest becomes *group
//! commit*: producers enqueue into their shard's bounded queue (holding
//! **no** locks while enqueuing or waiting on their
//! [`CommitTicket`](crate::group_commit::CommitTicket)s, so the queue
//! adds no edges to the lock order) and one committer thread per shard
//! drains batches, acquiring that shard's locks once per *batch* and
//! sealing the whole batch with a single WAL append — one fsync
//! amortized over every queued record. See the
//! [`group_commit`](crate::group_commit) module docs.
//!
//! # Durability
//!
//! With a [`DurabilityConfig`] configured, every curation mutation is
//! logged to a segmented, CRC-framed on-disk WAL *before* the in-memory
//! state changes, and sealed with a commit record — redo logging in its
//! classical form. Because the WAL append happens under the `instance` +
//! `relation` write locks, log order equals apply order, which matters:
//! entity resolution is order-dependent, so replay must see ingests in
//! exactly the sequence the live pipeline did. Group-commit batches are
//! sealed by one `CommitGroup` record listing every transaction in the
//! batch; a torn seal discards the whole batch, so recovery always
//! restores exactly the committed prefix of *sealed batches*. [`Db::open`] rebuilds
//! state as *newest valid snapshot + committed log suffix*; unsealed
//! tails are discarded and torn/bit-rotted bytes are physically cut
//! (see [`DbRecoveryReport`]). [`Db::checkpoint`] installs a snapshot
//! atomically and truncates the sealed prefix. The semantic layer is
//! deliberately not logged — it is derived or user-supplied
//! configuration, re-established by the application after `open`.

mod admin;
mod builder;
mod ingest;
mod mode;
mod query;
mod recovery;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{MappedRwLockReadGuard, Mutex, RwLockReadGuard};
use scdb_er::normalize::normalize;
use scdb_er::IncrementalResolver;
use scdb_graph::metrics::{assess, RichnessReport};
use scdb_graph::PropertyGraph;
use scdb_obs::{metrics, Histogram, QueryProfile, TrackedMutex, TrackedRwLock};
use scdb_placement::ShardMap;
use scdb_query::exec::Executor;
use scdb_query::optimizer::OptimizerConfig;
use scdb_query::plan::LogicalPlan;
use scdb_query::ExecStats;
use scdb_semantic::{Ontology, Reasoner, Saturation, Taxonomy, TrainedModel};
use scdb_storage::stats::AttrStatistics;
use scdb_storage::{IndexSet, RowStore, TextStore};
use scdb_txn::{DurableWal, EnrichedDb, WalLag};
use scdb_types::{Confidence, EntityId, Record, RecordId, SourceId, Symbol, SymbolTable};

use crate::error::CoreError;
use crate::group_commit::IngestQueue;
use crate::telemetry::TelemetryState;

pub use admin::DiagnosticBundle;
pub use builder::{DbBuilder, DurabilityConfig, IngestConfig};
pub use mode::DbMode;
pub use query::{SlowQuery, SLOW_QUERY_RING};
pub use recovery::DbRecoveryReport;

/// What one ingest did.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The stored record.
    pub record: RecordId,
    /// The entity the record resolved to.
    pub entity: EntityId,
    /// True when a brand-new entity was minted.
    pub fresh_entity: bool,
    /// Entities fused into `entity` because this record bridged them.
    pub absorbed: Vec<EntityId>,
    /// Instance-level links discovered from this record's values.
    pub links_discovered: usize,
    /// Correlation id of the commit batch that carried this record
    /// (the inline path is a batch of one). Join it against
    /// `sys.events`' `batch_id` column to reconstruct the batch's
    /// flush→append→fsync→apply pipeline journey.
    pub batch_id: u64,
}

/// Cumulative curation counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CurationStats {
    /// Records ingested across all sources.
    pub records: u64,
    /// Entity-merge events (records attached to existing entities).
    pub merges: u64,
    /// Cross-entity links discovered.
    pub links: u64,
    /// Facts derived by the last saturation.
    pub inferred_facts: u64,
    /// Saturation runs.
    pub reason_runs: u64,
}

/// Result of a query execution.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Output rows.
    pub rows: Vec<Record>,
    /// The optimized plan that ran.
    pub plan: LogicalPlan,
    /// Execution counters.
    pub stats: ExecStats,
    /// `EXPLAIN ANALYZE`-style per-stage breakdown (see
    /// [`QueryProfile::render`] for the human-readable form).
    pub profile: QueryProfile,
}

struct SourceState {
    id: SourceId,
    store: RowStore,
    stats: HashMap<String, AttrStatistics>,
    identity_attr: Option<String>,
    /// Secondary indexes over this source's rows, maintained by the
    /// curation pipeline under the instance write lock. Contents are
    /// never logged — only definitions persist (WAL + snapshot); the
    /// contents rebuild deterministically from the row store.
    indexes: IndexSet,
}

impl SourceState {
    /// Fold `record`'s values into the per-attribute statistics — the
    /// one stats path for live curation and snapshot install. An
    /// attribute's name is copied only the first time it is seen.
    fn observe_stats(&mut self, symbols: &SymbolTable, record: &Record) {
        for (attr, value) in record.iter() {
            let name = symbols.resolve(attr);
            match self.stats.get_mut(name) {
                Some(stats) => stats.observe(value),
                None => {
                    let mut stats = AttrStatistics::new(16, 4096);
                    stats.observe(value);
                    self.stats.insert(name.to_string(), stats);
                }
            }
        }
    }
}

/// One shard's instance layer: row stores and the text index.
struct InstanceShard {
    sources: Vec<(String, SourceState)>,
    text: TextStore,
}

impl InstanceShard {
    fn source_state(&self, name: &str) -> Result<&SourceState, CoreError> {
        self.sources
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| CoreError::UnknownSource(name.to_string()))
    }

    fn source_state_mut(&mut self, name: &str) -> Result<&mut SourceState, CoreError> {
        self.sources
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| CoreError::UnknownSource(name.to_string()))
    }

    /// The source that owns the index named `name` (index names are
    /// unique across the database).
    fn index_owner_mut(&mut self, name: &str) -> Option<&mut SourceState> {
        self.sources
            .iter_mut()
            .map(|(_, s)| s)
            .find(|s| s.indexes.get(name).is_some())
    }
}

/// One shard's relation layer: resolver, graph, identity index,
/// counters.
struct RelationShard {
    resolver: IncrementalResolver,
    graph: PropertyGraph,
    entity_by_name: HashMap<String, EntityId>,
    identity_of_entity: HashMap<EntityId, String>,
    stats: CurationStats,
    tick: u64,
}

/// One write shard: its slice of the instance and relation layers, its
/// own WAL, and — with queued ingest — its own group-commit queue. A
/// database is a `Vec` of these ([`DbInner::shards`]); records route to
/// exactly one by identity key, so each slice is a complete,
/// independent curated database over its key range.
struct ShardSlice {
    instance: TrackedRwLock<InstanceShard>,
    relation: TrackedRwLock<RelationShard>,
    /// The optional disk-backed WAL. `None` while recovery replays (so
    /// replayed mutations are not re-logged) and for purely in-memory
    /// databases; installed by [`DbBuilder::open`] once replay is done.
    durable: TrackedMutex<Option<DurableWal>>,
    /// The bounded group-commit queue; `None` unless
    /// [`IngestConfig::queued`] was configured. The shard's committer
    /// thread holds its own `Arc` to the queue plus a `Weak` to the
    /// [`DbInner`], so dropping the last [`Db`] handle closes the queue
    /// and lets the committer drain and exit.
    queue: Option<Arc<IngestQueue>>,
}

/// Semantic layer: ontology, cached inference products, models.
struct SemanticShard {
    ontology: Ontology,
    saturation: Option<Arc<Saturation>>,
    taxonomy: Option<Taxonomy>,
    models: HashMap<String, TrainedModel>,
}

/// Query-machinery configuration.
struct ConfigShard {
    optimizer: OptimizerConfig,
    executor: Executor,
}

/// The lock classes, in lock order — one `core.lock.<label>.wait_ns`
/// histogram each (see [`lock_labels`] for the per-shard labels).
const LOCK_CLASSES: &[&str] = &[
    "symbols", "instance", "relation", "durable", "semantic", "config",
];

/// The per-shard lock classes.
const SHARD_LOCK_CLASSES: [&str; 3] = ["instance", "relation", "durable"];

/// The one place a shard index becomes a name. Shard 0 keeps the bare
/// lock, metric and thread names, and a one-shard database the
/// unsuffixed WAL and snapshot file names, so an unsharded database
/// has the labels and the on-disk layout it had before sharding
/// existed (`instance`, `wal-*.seg`, `scdb-group-commit`).
#[derive(Clone, Copy)]
struct ShardLabel {
    k: u32,
    shards: u32,
}

impl ShardLabel {
    /// Lock label of class `base`: `instance`, `instance.s1`, ….
    fn lock(self, base: &str) -> String {
        if self.k == 0 {
            base.to_string()
        } else {
            format!("{base}.s{}", self.k)
        }
    }

    /// `(label, wait-histogram name)` for a tracked lock. The
    /// tracked-lock API wants `&'static str`; interning (rather than
    /// leaking per construction) keeps repeated `Db` builds from
    /// growing the heap.
    fn tracked(self, base: &str) -> (&'static str, &'static str) {
        let label = self.lock(base);
        let metric = format!("core.lock.{label}.wait_ns");
        (intern_static(label), intern_static(metric))
    }

    /// File-name scope of this shard's WAL: `None` is the unsuffixed
    /// `wal-*.seg` / `snap-*.scdb`, `Some(k)` is `wal-s<k>-*.seg`.
    fn wal_scope(self) -> Option<u32> {
        (self.shards > 1).then_some(self.k)
    }

    /// Name of this shard's group-commit thread.
    fn committer_thread(self) -> String {
        if self.k == 0 {
            "scdb-group-commit".to_string()
        } else {
            format!("scdb-commit-s{}", self.k)
        }
    }
}

/// Every lock label of a `shards`-shard database, in lock-class order
/// then shard order — the rows of `sys.locks` and of the health
/// report's lock section.
pub(crate) fn lock_labels(shards: u32) -> Vec<String> {
    let mut labels: Vec<String> = LOCK_CLASSES.iter().map(|s| s.to_string()).collect();
    for k in 1..shards {
        let label = ShardLabel { k, shards };
        labels.extend(SHARD_LOCK_CLASSES.iter().map(|base| label.lock(base)));
    }
    labels
}

fn intern_static(s: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex as StdMutex, OnceLock};
    static INTERNED: OnceLock<StdMutex<HashSet<&'static str>>> = OnceLock::new();
    let set = INTERNED.get_or_init(|| StdMutex::new(HashSet::new()));
    let mut guard = set.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&existing) = guard.get(s.as_str()) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    guard.insert(leaked);
    leaked
}

struct DbInner {
    /// When this handle was built/opened (uptime anchor).
    started: Instant,
    symbols: TrackedRwLock<SymbolTable>,
    /// The write shards, length ≥ 1 and fixed at build time. Everything
    /// the engine does to per-shard state it does to a subset of this
    /// vector, in ascending index order.
    shards: Vec<ShardSlice>,
    /// Slot→shard routing table for the range-sharded write path
    /// ([`DbBuilder::write_shards`]). Fixed at build time and persisted
    /// in checkpoints so a reopened database routes identically.
    shard_map: ShardMap,
    /// Source name → identity attribute, mirrored from the (broadcast)
    /// source registry so routing never touches a shard's instance
    /// lock: a commit holds its shard's instance write lock across the
    /// fsync, and routing through it would couple every writer to that
    /// shard. A leaf lock: held only for the lookup, never while
    /// acquiring any other lock.
    identities: parking_lot::RwLock<HashMap<String, Option<String>>>,
    /// The kv/enrichment store shared by user transactions and the
    /// curation pipeline (internally synchronized).
    enriched: EnrichedDb,
    /// What the last `open` recovered; `None` for in-memory databases.
    recovery: Mutex<Option<DbRecoveryReport>>,
    /// Bounded ring of recent slow-query captures (newest at the back).
    slow: Mutex<VecDeque<SlowQuery>>,
    /// Wall-time threshold above which a query is captured into `slow`.
    slow_threshold: Duration,
    semantic: TrackedRwLock<SemanticShard>,
    config: TrackedRwLock<ConfigShard>,
    /// Telemetry pipeline state (time-series ring, watch engine, JSONL
    /// sink); `None` unless [`DbBuilder::telemetry`] was configured.
    /// The sampler thread mirrors the committers' lifecycle: it holds
    /// this `Arc` plus a `Weak` to the inner, so dropping the last
    /// [`Db`] handle stops it (below).
    telemetry: Option<Arc<TelemetryState>>,
    /// Fast-path write gate: mirrors `mode` so every write entry point
    /// pays one relaxed load, not a lock, while healthy.
    degraded: AtomicBool,
    /// The degraded-mode state machine (reason, trip time, probe
    /// liveness). A leaf lock: held only briefly and never while
    /// acquiring any shard lock.
    mode: Mutex<mode::ModeState>,
    /// Monotone health-report sequence ([`Db::health_report`]).
    health_seq: AtomicU64,
    /// Pre-resolved handles for the five commit-stage histograms, so the
    /// per-ingest decomposition skips the registry name lookup on the
    /// hot path. `Metrics::reset` zeroes histograms in place, so these
    /// stay registered for the lifetime of the process.
    stages: StageHistograms,
}

/// Cached `core.ingest.stage.*` histogram handles (commit-latency
/// decomposition, DESIGN.md §7).
struct StageHistograms {
    queue_wait: Arc<Histogram>,
    batch_build: Arc<Histogram>,
    wal_append: Arc<Histogram>,
    fsync: Arc<Histogram>,
    apply: Arc<Histogram>,
}

impl StageHistograms {
    fn resolve() -> StageHistograms {
        let m = metrics();
        StageHistograms {
            queue_wait: m.histogram("core.ingest.stage.queue_wait_ns"),
            batch_build: m.histogram("core.ingest.stage.batch_build_ns"),
            wal_append: m.histogram("core.ingest.stage.wal_append_ns"),
            fsync: m.histogram("core.ingest.stage.fsync_ns"),
            apply: m.histogram("core.ingest.stage.apply_ns"),
        }
    }
}

impl Drop for DbInner {
    fn drop(&mut self) {
        for queue in self.shards.iter().filter_map(|s| s.queue.as_ref()) {
            queue.close();
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.stop();
        }
    }
}

impl DbInner {
    /// Number of write shards (≥ 1).
    fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Shard 0's slice. It holds the authoritative copy of everything
    /// DDL broadcasts to every shard (sources, index definitions), and
    /// it is the only slice the single-shard accessors read (DESIGN.md
    /// §14, "Known limits").
    fn shard0(&self) -> &ShardSlice {
        &self.shards[0]
    }

    /// Every shard's WAL lag, in shard order (`None` = no WAL).
    fn wal_lags(&self) -> Vec<Option<WalLag>> {
        self.shards
            .iter()
            .map(|s| s.durable.lock().as_ref().map(DurableWal::lag))
            .collect()
    }

    /// WAL lag summed over every shard's log; `active_seq` reports the
    /// furthest shard. `None` on an in-memory database.
    fn wal_lag_total(&self) -> Option<WalLag> {
        self.wal_lags()
            .into_iter()
            .flatten()
            .reduce(|mut total, lag| {
                total.records_since_checkpoint += lag.records_since_checkpoint;
                total.unsynced_bytes += lag.unsynced_bytes;
                total.active_segment_bytes += lag.active_segment_bytes;
                total.active_seq = total.active_seq.max(lag.active_seq);
                total
            })
    }
}

/// The self-curating database handle.
///
/// `Db` is an [`Arc`]-backed handle: [`Clone`] is a pointer copy, and
/// clones share one underlying database, so a writer thread can ingest
/// while any number of reader threads query through their own clones.
/// See the [module docs](self) for the shard/locking scheme.
#[derive(Clone)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl Default for Db {
    fn default() -> Self {
        Self::new()
    }
}

impl Db {
    /// A fresh, empty database with default configuration.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Start a [`DbBuilder`] for explicit configuration.
    pub fn builder() -> DbBuilder {
        DbBuilder::default()
    }

    /// Open (or create) a durable database under `dir` with default
    /// configuration and [`FsyncPolicy::Always`](scdb_txn::FsyncPolicy):
    /// recovers the snapshot plus the committed log suffix, then
    /// resumes logging.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Db, CoreError> {
        Self::builder()
            .durability_config(DurabilityConfig::dir(dir))
            .open()
    }

    /// Run `f` with exclusive access to the symbol table (intern
    /// attribute names through this).
    pub fn with_symbols<R>(&self, f: impl FnOnce(&mut SymbolTable) -> R) -> R {
        f(&mut self.inner.symbols.write())
    }

    /// Intern one name in the shared symbol table.
    pub fn intern(&self, name: &str) -> Symbol {
        self.inner.symbols.write().intern(name)
    }

    /// Read-only symbol table. The returned guard holds the symbols
    /// read lock; drop it before calling a `&self` method that writes
    /// symbols (`intern`, `with_symbols`, `ingest_json`).
    pub fn symbols_ref(&self) -> RwLockReadGuard<'_, SymbolTable> {
        self.inner.symbols.read()
    }

    /// Run `f` with exclusive access to the ontology (declare concepts,
    /// roles, axioms, type assertions). Invalidates the cached
    /// saturation and taxonomy.
    pub fn with_ontology<R>(&self, f: impl FnOnce(&mut Ontology) -> R) -> R {
        let mut semantic = self.inner.semantic.write();
        let sem = &mut *semantic;
        let out = f(&mut sem.ontology);
        sem.saturation = None;
        sem.taxonomy = None;
        out
    }

    /// Replace the ontology wholesale. Invalidates the cached
    /// saturation and taxonomy.
    pub fn set_ontology(&self, ontology: Ontology) {
        let mut semantic = self.inner.semantic.write();
        semantic.ontology = ontology;
        semantic.saturation = None;
        semantic.taxonomy = None;
    }

    /// Read-only ontology. The guard holds the semantic shard's read
    /// lock until dropped.
    pub fn ontology(&self) -> MappedRwLockReadGuard<'_, Ontology> {
        RwLockReadGuard::map(self.inner.semantic.read(), |s: &SemanticShard| &s.ontology)
    }

    /// Assert that the entity known by `name` is a member of `concept`.
    pub fn assert_entity_type(&self, name: &str, concept: &str) -> Result<(), CoreError> {
        let Some(entity) = self.entity_named(name) else {
            return Err(CoreError::UnknownEntity(name.to_string()));
        };
        let mut semantic = self.inner.semantic.write();
        let sem = &mut *semantic;
        let c = sem.ontology.concept(concept);
        sem.ontology.assert_type(entity, c, Confidence::CERTAIN);
        sem.saturation = None;
        sem.taxonomy = None;
        Ok(())
    }

    /// The entity registered under `name`, if any.
    pub fn entity_named(&self, name: &str) -> Option<EntityId> {
        self.inner
            .shard0()
            .relation
            .read()
            .entity_by_name
            .get(&normalize(name))
            .copied()
    }

    /// Run semantic saturation: graph edges whose role names are declared
    /// in the ontology become ABox role assertions, then the reasoner
    /// saturates. The result is cached until the next curation write; the
    /// returned [`Arc`] is a consistent snapshot that stays valid even if
    /// curation invalidates the cache afterwards.
    pub fn reason(&self) -> Result<Arc<Saturation>, CoreError> {
        {
            let semantic = self.inner.semantic.read();
            if let Some(sat) = &semantic.saturation {
                if semantic.taxonomy.is_some() {
                    return Ok(Arc::clone(sat));
                }
            }
        }
        let symbols = self.inner.symbols.read();
        let mut relation = self.inner.shard0().relation.write();
        let mut semantic = self.inner.semantic.write();
        let sem = &mut *semantic;
        if sem.saturation.is_none() {
            let _span = scdb_obs::span!("core.reason");
            let mut effective = sem.ontology.clone();
            // Fold relation-layer edges into the ABox.
            let mut edges: Vec<(EntityId, String, EntityId, u64)> = Vec::new();
            for v in relation.graph.node_ids() {
                for e in relation.graph.edges(v) {
                    edges.push((
                        v,
                        symbols.resolve(e.role).to_string(),
                        e.to,
                        e.provenance.tick,
                    ));
                }
            }
            edges.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
            for (from, role_name, to, _) in edges {
                // Only roles the ontology knows about participate in
                // reasoning; look for a role whose normalized name matches.
                if let Ok(role) = effective.find_role(&role_name) {
                    effective.assert_role(from, role, to, Confidence::CERTAIN);
                } else if let Ok(role) = effective.find_role(&normalize(&role_name)) {
                    effective.assert_role(from, role, to, Confidence::CERTAIN);
                }
            }
            let sat = Reasoner::new().saturate(&effective);
            relation.stats.inferred_facts = sat.derived_count();
            relation.stats.reason_runs += 1;
            let m = metrics();
            m.inc("core.reason_runs");
            m.gauge_set("core.inferred_facts", relation.stats.inferred_facts as i64);
            sem.saturation = Some(Arc::new(sat));
        }
        if sem.taxonomy.is_none() {
            sem.taxonomy = Some(Taxonomy::build(&sem.ontology));
        }
        Ok(Arc::clone(sem.saturation.as_ref().expect("just computed")))
    }

    /// Build the taxonomy cache if missing (cheap, concept-level only).
    fn ensure_taxonomy(&self) {
        if self.inner.semantic.read().taxonomy.is_some() {
            return;
        }
        let mut semantic = self.inner.semantic.write();
        let sem = &mut *semantic;
        if sem.taxonomy.is_none() {
            sem.taxonomy = Some(Taxonomy::build(&sem.ontology));
        }
    }

    /// Build the FS.10 parallel-world view of the curated instance: one
    /// world per source, whose premise is the ontology concept named by
    /// the source's `premise_attr` value (e.g. a `population` column whose
    /// values are declared concepts). Sources without any record carrying
    /// the attribute are skipped. Evaluate the result with
    /// [`scdb_uncertain::ParallelWorldSet::justified`] against the
    /// taxonomy's disjointness — the §4.2 flow end to end.
    pub fn parallel_worlds(
        &self,
        premise_attr: &str,
    ) -> Result<scdb_uncertain::ParallelWorldSet, CoreError> {
        let attr = self.inner.symbols.read().get(premise_attr);
        let Some(attr) = attr else {
            return Ok(scdb_uncertain::ParallelWorldSet::new());
        };
        let instance = self.inner.shard0().instance.read();
        let semantic = self.inner.semantic.read();
        let mut set = scdb_uncertain::ParallelWorldSet::new();
        for (_, state) in &instance.sources {
            let tuples: Vec<Record> = state.store.scan().map(|(_, r)| r.clone()).collect();
            let premise = tuples.iter().find_map(|r| {
                r.get(attr)
                    .and_then(|v| semantic.ontology.find_concept(&v.render()).ok())
            });
            if let Some(premise) = premise {
                set.add(scdb_uncertain::ParallelWorld {
                    id: scdb_types::WorldId(state.id.0),
                    premises: vec![premise],
                    tuples,
                });
            }
        }
        Ok(set)
    }

    /// Register a trained statistical model under its spec name (FS.4).
    pub fn register_model(&self, model: TrainedModel) {
        self.inner
            .semantic
            .write()
            .models
            .insert(model.spec().name.clone(), model);
    }

    /// The relation-layer graph. The guard holds the relation lock
    /// until dropped — bind it (`let g = db.graph();`) before borrowing
    /// edges out of it.
    pub fn graph(&self) -> MappedRwLockReadGuard<'_, PropertyGraph> {
        RwLockReadGuard::map(self.inner.shard0().relation.read(), |r: &RelationShard| {
            &r.graph
        })
    }

    /// The text store. The guard holds the instance lock until dropped.
    pub fn text(&self) -> MappedRwLockReadGuard<'_, TextStore> {
        RwLockReadGuard::map(self.inner.shard0().instance.read(), |i: &InstanceShard| {
            &i.text
        })
    }

    /// Per-source richness (FS.2): metrics over the subgraph of edges
    /// contributed by `source`.
    pub fn source_richness(&self, source: &str) -> Result<RichnessReport, CoreError> {
        let shard = self.inner.shard0();
        let sid = shard.instance.read().source_state(source)?.id;
        let relation = shard.relation.read();
        let mut sub = PropertyGraph::new();
        for v in relation.graph.node_ids() {
            for e in relation.graph.edges(v) {
                if e.provenance.source == sid {
                    sub.ensure_node(v);
                    sub.ensure_node(e.to);
                    let _ = sub.add_edge(v, e.to, e.role, e.provenance.clone());
                }
            }
        }
        Ok(assess(&sub))
    }

    /// Whole-graph richness.
    pub fn richness(&self) -> RichnessReport {
        assess(&self.inner.shard0().relation.read().graph)
    }

    /// Curation counters (an owned snapshot, summed across shards).
    pub fn stats(&self) -> CurationStats {
        let mut total = CurationStats::default();
        for shard in &self.inner.shards {
            let relation = shard.relation.read();
            total.records += relation.stats.records;
            total.merges += relation.stats.merges;
            total.links += relation.stats.links;
            total.inferred_facts += relation.stats.inferred_facts;
            total.reason_runs += relation.stats.reason_runs;
        }
        total
    }

    /// Number of live entities (summed across shards; entities never
    /// span shards because records route by key range).
    pub fn entity_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.relation.read().resolver.entity_count())
            .sum()
    }

    /// Number of registered sources (registration broadcasts to every
    /// shard).
    pub fn source_count(&self) -> usize {
        self.inner.shard0().instance.read().sources.len()
    }

    /// Records stored in `source`, summed across shards.
    pub fn record_count(&self, source: &str) -> Result<usize, CoreError> {
        let mut total = 0;
        for shard in &self.inner.shards {
            total += shard.instance.read().source_state(source)?.store.len();
        }
        Ok(total)
    }

    /// Registered source names, in registration order.
    pub fn source_names(&self) -> Vec<String> {
        let instance = self.inner.shard0().instance.read();
        instance.sources.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Run `f` over a source's per-attribute statistics and its row
    /// count (shard 0). The statistics hold only the values appended
    /// rows carried, so an attribute whose `rows` falls short of the row
    /// count is missing from some rows.
    pub(crate) fn with_attr_stats<R>(
        &self,
        source: &str,
        f: impl FnOnce(&HashMap<String, AttrStatistics>, usize) -> R,
    ) -> Result<R, CoreError> {
        let instance = self.inner.shard0().instance.read();
        let state = instance.source_state(source)?;
        Ok(f(&state.stats, state.store.len()))
    }

    /// Total pairwise ER comparisons so far (cost metric).
    pub fn er_comparisons(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.relation.read().resolver.comparisons())
            .sum()
    }

    /// Current record → entity assignments. Shard 0 only: `RecordId`s
    /// are per-shard namespaces and collide across shards, so a merged
    /// map would be ambiguous on a sharded database.
    pub fn assignments(&self) -> HashMap<RecordId, EntityId> {
        self.inner.shard0().relation.read().resolver.assignments()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Fixtures shared by the `db` submodules' unit tests.
    use super::Db;
    use scdb_types::{Record, Value};

    pub(crate) fn drug_record(db: &Db, name: &str, gene: &str) -> Record {
        let n = db.intern("Drug Name");
        let g = db.intern("Drug Targets (Genes)");
        Record::from_pairs([(n, Value::str(name)), (g, Value::str(gene))])
    }

    pub(crate) fn gene_record(db: &Db, gene: &str, function: &str) -> Record {
        let g = db.intern("Gene");
        let f = db.intern("Function");
        Record::from_pairs([(g, Value::str(gene)), (f, Value::str(function))])
    }

    pub(crate) fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scdb-core-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(crate) fn seed_curated(db: &Db) {
        db.register_source("uniprot", Some("Gene"));
        db.register_source("drugbank", Some("Drug Name"));
        db.ingest(
            "uniprot",
            gene_record(db, "DHFR", "Limits Cell Growth"),
            None,
        )
        .unwrap();
        db.ingest(
            "drugbank",
            drug_record(db, "Methotrexate", "DHFR"),
            Some("methotrexate targets dhfr"),
        )
        .unwrap();
        db.ingest("drugbank", drug_record(db, "methotrexate", "DHFR"), None)
            .unwrap(); // merge
    }

    /// `(name, gene)` pairs covering a merge (case-folded duplicate) and
    /// a link (value referencing an earlier entity).
    pub(crate) const BATCH_ROWS: [(&str, &str); 4] = [
        ("Methotrexate", "DHFR"),
        ("methotrexate", "DHFR"),
        ("Warfarin", "TP53"),
        ("Aspirin", "methotrexate"),
    ];

    /// `n` trial rows spread over 50 distinct drug names — selective
    /// point queries, plenty of rows for the optimizer's stats.
    pub(crate) fn trials_db(db: &Db, n: i64) {
        db.register_source("trials", None);
        let d = db.intern("drug");
        let dose = db.intern("dose");
        for i in 0..n {
            let r = Record::from_pairs([
                (d, Value::str(format!("Drug{:03}", i % 50))),
                (dose, Value::Int(i)),
            ]);
            db.ingest("trials", r, None).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn handle_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<Db>();
        let db = Db::new();
        db.register_source("a", None);
        let clone = db.clone();
        // Clones share state: a source registered through one handle is
        // visible through the other.
        assert_eq!(clone.source_count(), 1);
        assert_eq!(clone.source_names(), vec!["a".to_string()]);
    }

    #[test]
    fn reason_over_graph_edges() {
        let db = Db::new();
        db.register_source("uniprot", Some("Gene"));
        db.register_source("drugbank", Some("Drug Name"));
        let r = gene_record(&db, "DHFR", "Limits Cell Growth");
        db.ingest("uniprot", r, None).unwrap();
        let r = drug_record(&db, "Methotrexate", "DHFR");
        db.ingest("drugbank", r, None).unwrap();
        // Ontology: the edge role name (attribute name) declared as a
        // role; domain typing makes anything with a target a Drug.
        db.with_ontology(|o| {
            let role = o.role("Drug Targets (Genes)");
            let drug = o.concept("Drug");
            let gene = o.concept("Gene");
            o.add_axiom(scdb_semantic::Axiom::Domain(role, drug));
            o.add_axiom(scdb_semantic::Axiom::Range(role, gene));
        });
        let sat = db.reason().unwrap();
        let drug_c = db.ontology().find_concept("Drug").unwrap();
        let mtx = db.entity_named("Methotrexate").unwrap();
        assert!(sat.has_type(mtx, drug_c));
    }

    #[test]
    fn reason_snapshot_survives_invalidation() {
        let db = Db::new();
        db.register_source("a", Some("Drug Name"));
        let r = drug_record(&db, "Warfarin", "TP53");
        db.ingest("a", r, None).unwrap();
        let sat = db.reason().unwrap();
        // A subsequent ingest invalidates the cache, but the Arc we hold
        // is a stable snapshot.
        let r2 = drug_record(&db, "Aspirin", "PTGS2");
        db.ingest("a", r2, None).unwrap();
        let _ = sat.derived_count();
        // A fresh reason() recomputes rather than returning the old Arc.
        let sat2 = db.reason().unwrap();
        assert!(!Arc::ptr_eq(&sat, &sat2), "cache was invalidated");
    }

    #[test]
    fn richness_reports() {
        let db = Db::new();
        db.register_source("uniprot", Some("Gene"));
        db.register_source("drugbank", Some("Drug Name"));
        let r = gene_record(&db, "DHFR", "x");
        db.ingest("uniprot", r, None).unwrap();
        let r = drug_record(&db, "Methotrexate", "DHFR");
        db.ingest("drugbank", r, None).unwrap();
        let whole = db.richness();
        assert!(whole.edges >= 1);
        let drugbank = db.source_richness("drugbank").unwrap();
        assert!(drugbank.edges >= 1);
        let uniprot = db.source_richness("uniprot").unwrap();
        assert_eq!(uniprot.edges, 0, "uniprot contributed no links");
    }

    #[test]
    fn parallel_worlds_from_curated_sources() {
        use scdb_uncertain::FuzzyPredicate;
        let db = Db::new();
        // Records must carry symbols minted by the db's own table.
        let corpus = db.with_symbols(|symbols| {
            scdb_datagen::clinical::generate(
                &scdb_datagen::clinical::paper_populations(),
                7,
                symbols,
            )
        });
        for src in &corpus.sources {
            db.register_source(&src.name, Some("drug"));
            for rec in &src.records {
                db.ingest(&src.name, rec.record.clone(), None).unwrap();
            }
        }
        db.set_ontology(corpus.ontology.clone());
        let worlds = db.parallel_worlds("population").unwrap();
        assert_eq!(worlds.len(), 3, "one world per clinical source");
        // The §4.2 evaluation over the curated store.
        let dose = db.symbols_ref().get("effective_dose").unwrap();
        let narrow = FuzzyPredicate::CloseTo {
            center: 5.0,
            width: 0.5,
        };
        let degree = move |r: &Record| {
            r.get(dose)
                .and_then(|v| v.as_float())
                .map(|x| narrow.membership(x))
                .unwrap_or(0.0)
        };
        let taxonomy = scdb_semantic::Taxonomy::build(&db.ontology());
        assert!(!worlds.naive_certain(&degree, 0.5));
        let ans = worlds.justified(&degree, 0.5, |a, b| taxonomy.are_disjoint(a, b));
        assert!(ans.justified && ans.premises_disjoint);
        // Unknown premise attribute ⇒ empty world set.
        assert!(db.parallel_worlds("nonexistent").unwrap().is_empty());
    }
}
