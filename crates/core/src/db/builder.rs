//! Configuration and construction: [`DurabilityConfig`] /
//! [`IngestConfig`], the [`DbBuilder`] chain, and [`DbBuilder::open`] —
//! the recovery driver that replays every shard's log on its own
//! worker before installing the WALs.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use scdb_er::{IncrementalResolver, ResolverConfig};
use scdb_graph::PropertyGraph;
use scdb_obs::{metrics, FieldValue as F, TrackedMutex, TrackedRwLock};
use scdb_placement::{PlacementPolicy, ShardMap};
use scdb_query::exec::Executor;
use scdb_query::optimizer::OptimizerConfig;
use scdb_semantic::Ontology;
use scdb_storage::TextStore;
use scdb_txn::{
    discover_shard_count, DurableWal, EnrichedDb, FsStore, FsyncPolicy, IsolationMode, SharedStore,
    TxnManager, WalStore,
};
use scdb_types::SymbolTable;

use super::admin::telemetry_sampler;
use super::ingest::{group_committer, InflightTickets};
use super::mode::{supervise, ModeState};
use super::recovery::SealLedger;
use super::{
    ConfigShard, CurationStats, Db, DbInner, DbMode, DbRecoveryReport, InstanceShard,
    RelationShard, SemanticShard, ShardLabel, ShardSlice, StageHistograms,
};
use crate::error::CoreError;
use crate::group_commit::IngestQueue;
use crate::telemetry::{TelemetryConfig, TelemetryState};

/// Where the WAL lives: a real directory or an injected store (tests
/// use the in-memory [`scdb_txn::FailpointLog`], whose fault plan fires
/// against the live database).
enum DurabilityTarget {
    Dir(std::path::PathBuf),
    Store(Box<dyn WalStore>),
}

impl std::fmt::Debug for DurabilityTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityTarget::Dir(p) => f.debug_tuple("Dir").field(p).finish(),
            DurabilityTarget::Store(_) => f.write_str("Store(<dyn WalStore>)"),
        }
    }
}

/// Where and how mutations are made durable, as one value: the WAL
/// location (or injected store), the fsync policy, and the segment
/// rotation threshold. Grouping the knobs keeps [`DbBuilder`] chains
/// readable and lets applications pass durability around as data.
///
/// ```no_run
/// use scdb_core::{Db, DurabilityConfig, FsyncPolicy};
/// # fn main() -> Result<(), scdb_core::CoreError> {
/// let db = Db::builder()
///     .durability_config(
///         DurabilityConfig::dir("/var/lib/scdb/wal")
///             .fsync(FsyncPolicy::EveryN(64))
///             .segment_bytes(4 << 20),
///     )
///     .open()?;
/// # let _ = db;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
#[must_use = "pass the config to DbBuilder::durability_config"]
pub struct DurabilityConfig {
    target: DurabilityTarget,
    policy: FsyncPolicy,
    segment_bytes: u64,
}

impl DurabilityConfig {
    fn new(target: DurabilityTarget) -> Self {
        DurabilityConfig {
            target,
            policy: FsyncPolicy::Always,
            segment_bytes: 1 << 20,
        }
    }

    /// Log to a segmented WAL under `dir` (created on open), fsynced
    /// with [`FsyncPolicy::Always`] until overridden by
    /// [`DurabilityConfig::fsync`].
    pub fn dir(dir: impl AsRef<std::path::Path>) -> Self {
        Self::new(DurabilityTarget::Dir(dir.as_ref().to_path_buf()))
    }

    /// Log to an explicit storage medium — the crash-matrix and
    /// fault-resilience tests inject [`scdb_txn::FailpointLog`] here and
    /// arm faults through its [`plan`](scdb_txn::FailpointLog::plan).
    pub fn store(store: Box<dyn WalStore>) -> Self {
        Self::new(DurabilityTarget::Store(store))
    }

    /// Override the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Segment rotation threshold in bytes (default 1 MiB). Smaller
    /// segments mean more files but finer-grained checkpoint truncation.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }
}

/// Ingest-pipeline knobs as one value: the group-commit queue capacity
/// and the batch flush deadline.
#[derive(Debug, Clone, Default)]
#[must_use = "pass the config to DbBuilder::ingest_config"]
pub struct IngestConfig {
    queue_capacity: Option<usize>,
    max_delay: Option<Duration>,
}

impl IngestConfig {
    /// Direct ingest: no queue, every ingest is a group commit of one,
    /// applied on the caller's thread.
    pub fn direct() -> Self {
        IngestConfig::default()
    }

    /// Group-commit ingest through a bounded in-memory queue of
    /// `capacity` records (minimum 1) per write shard, drained by a
    /// dedicated committer thread. [`Db::ingest`] keeps its exact
    /// signature — it enqueues and blocks until the batch containing
    /// its record is durably sealed and applied — while
    /// [`Db::ingest_async`] returns the
    /// [`CommitTicket`](crate::group_commit::CommitTicket) directly so
    /// producers can overlap. Many queued records share one WAL append
    /// (one fsync); producers hitting a full queue block, and the
    /// blocked time feeds the `txn.group_commit.stall_ns` histogram
    /// (backpressure, bounded memory).
    pub fn queued(capacity: usize) -> Self {
        IngestConfig {
            queue_capacity: Some(capacity),
            max_delay: None,
        }
    }

    /// Flush deadline for a partial batch: the committer holds a
    /// non-full batch open up to `delay` past its oldest record's
    /// enqueue time, so trickle ingest still amortizes fsyncs without
    /// unbounded latency (a lone row commits within the bound). Each
    /// deadline-triggered flush increments the
    /// `txn.group_commit.deadline_flushes` counter. Without this the
    /// committer flushes any non-empty queue immediately. Only
    /// meaningful with a queue configured.
    pub fn max_delay(mut self, delay: Duration) -> Self {
        self.max_delay = Some(delay);
        self
    }
}

/// Fluent constructor for [`Db`]: resolver config, metrics on/off, scan
/// parallelism, enrichment isolation, and durability in one chain. The
/// optimizer starts from [`OptimizerConfig::default`]; change it on the
/// live handle with [`Db::set_optimizer_config`].
///
/// ```
/// use scdb_core::Db;
/// let db = Db::builder().metrics(false).scan_workers(2).build();
/// # let _ = db;
/// ```
///
/// With durability configured, finish with [`DbBuilder::open`] (which
/// recovers whatever the log directory already holds) instead of
/// [`DbBuilder::build`]:
///
/// ```no_run
/// use scdb_core::{Db, DurabilityConfig};
/// # fn main() -> Result<(), scdb_core::CoreError> {
/// let db = Db::builder()
///     .durability_config(DurabilityConfig::dir("/var/lib/scdb/wal"))
///     .open()?;
/// # let _ = db;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
#[must_use = "builders do nothing until `.build()` or `.open()` is called"]
pub struct DbBuilder {
    resolver: ResolverConfig,
    metrics_enabled: Option<bool>,
    executor: Executor,
    isolation: Option<IsolationMode>,
    durability: Option<DurabilityConfig>,
    slow_query_threshold: Option<Duration>,
    ingest: IngestConfig,
    telemetry: Option<TelemetryConfig>,
    write_shards: Option<u32>,
}

impl DbBuilder {
    /// Entity-resolution configuration (thresholds, blocking, realign).
    pub fn resolver(mut self, config: ResolverConfig) -> Self {
        self.resolver = config;
        self
    }

    /// Enable or disable the global metrics registry. When left unset
    /// the registry keeps its current state (enabled by default).
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics_enabled = Some(enabled);
        self
    }

    /// Number of scan worker threads for query execution (1 = always
    /// sequential). Defaults to available parallelism, capped small.
    pub fn scan_workers(mut self, workers: usize) -> Self {
        self.executor = Executor::with_workers(workers);
        self
    }

    /// Isolation regime for the kv/enrichment store (`kv_*` methods).
    /// Defaults to [`IsolationMode::Snapshot`].
    pub fn isolation(mut self, mode: IsolationMode) -> Self {
        self.isolation = Some(mode);
        self
    }

    /// Log every curation mutation to the WAL `config` describes
    /// (target + fsync policy + segment size). Finish the chain with
    /// [`DbBuilder::open`] — `build` panics when durability is
    /// configured, because opening must also recover existing state.
    pub fn durability_config(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Apply an [`IngestConfig`] (queue capacity + flush deadline).
    /// Without one every ingest is a batch of one.
    pub fn ingest_config(mut self, config: IngestConfig) -> Self {
        self.ingest = config;
        self
    }

    /// Wall-time threshold above which a query execution is captured —
    /// full [`QueryProfile`](scdb_obs::QueryProfile) plus query text —
    /// into the bounded slow-query ring ([`Db::slow_queries`], capacity
    /// [`SLOW_QUERY_RING`](super::SLOW_QUERY_RING)). Defaults to 100 ms.
    pub fn slow_query_threshold(mut self, threshold: Duration) -> Self {
        self.slow_query_threshold = Some(threshold);
        self
    }

    /// Enable the telemetry pipeline: a background sampler thread that
    /// folds a metrics-registry snapshot into a bounded time-series
    /// ring every [`TelemetryConfig::interval`], evaluates the
    /// configured watch rules against each sample, and (optionally)
    /// appends samples/watch transitions/health reports to a JSONL
    /// file. With a zero interval no thread is spawned and
    /// [`Db::sample_now`] drives ticks explicitly. See
    /// [`TelemetryConfig`].
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Partition the write path into `shards` range-sharded slices (§14,
    /// DESIGN.md). Each shard owns its own instance/relation state
    /// slice, its own WAL (`wal-s<k>-*.seg`), and — with an ingest
    /// queue configured — its own committer thread, so single-shard
    /// batches commit fully independently: one lock acquisition, one
    /// append, one fsync per shard. Records route by their identity
    /// value through a [`ShardMap`] built with [`PlacementPolicy::Range`]
    /// (contiguous slot ranges, so neighbouring keys co-locate) and
    /// persisted in checkpoints. `0`/`1` leave the database unsharded
    /// (the default: one slice, unsuffixed file names). The shard count is fixed for
    /// the life of the log directory — [`DbBuilder::open`] refuses a
    /// directory laid out for a different count.
    pub fn write_shards(mut self, shards: u32) -> Self {
        self.write_shards = Some(shards.max(1));
        self
    }

    /// Build an in-memory database handle.
    ///
    /// # Panics
    ///
    /// Panics if durability was configured — a durable database must be
    /// constructed with [`DbBuilder::open`], which also runs recovery.
    pub fn build(self) -> Db {
        assert!(
            self.durability.is_none(),
            "durability is configured: finish with DbBuilder::open(), not build()"
        );
        self.build_volatile()
    }

    fn build_volatile(self) -> Db {
        if let Some(on) = self.metrics_enabled {
            metrics().set_enabled(on);
        }
        let isolation = self.isolation.unwrap_or(IsolationMode::Snapshot);
        let telemetry = self.telemetry.map(|c| Arc::new(TelemetryState::new(c)));
        let shard_map =
            ShardMap::build(PlacementPolicy::Range, self.write_shards.unwrap_or(1), &[]);
        let shard_count = shard_map.shards();
        let shards: Vec<ShardSlice> = (0..shard_count)
            .map(|k| {
                let label = ShardLabel {
                    k,
                    shards: shard_count,
                };
                let (instance, relation, durable) = (
                    label.tracked("instance"),
                    label.tracked("relation"),
                    label.tracked("durable"),
                );
                ShardSlice {
                    instance: TrackedRwLock::new(
                        instance.0,
                        instance.1,
                        InstanceShard {
                            sources: Vec::new(),
                            text: TextStore::new(),
                        },
                    ),
                    relation: TrackedRwLock::new(
                        relation.0,
                        relation.1,
                        RelationShard {
                            resolver: IncrementalResolver::new(self.resolver.clone()),
                            graph: PropertyGraph::new(),
                            entity_by_name: HashMap::new(),
                            identity_of_entity: HashMap::new(),
                            stats: CurationStats::default(),
                            tick: 0,
                        },
                    ),
                    durable: TrackedMutex::new(durable.0, durable.1, None),
                    queue: self
                        .ingest
                        .queue_capacity
                        .map(|cap| Arc::new(IngestQueue::new(cap, self.ingest.max_delay))),
                }
            })
            .collect();
        let db = Db {
            inner: Arc::new(DbInner {
                started: Instant::now(),
                symbols: TrackedRwLock::new(
                    "symbols",
                    "core.lock.symbols.wait_ns",
                    SymbolTable::new(),
                ),
                shards,
                shard_map,
                identities: parking_lot::RwLock::new(HashMap::new()),
                enriched: EnrichedDb::with_manager(TxnManager::new(), isolation),
                recovery: Mutex::new(None),
                slow: Mutex::new(VecDeque::new()),
                slow_threshold: self
                    .slow_query_threshold
                    .unwrap_or(Duration::from_millis(100)),
                semantic: TrackedRwLock::new(
                    "semantic",
                    "core.lock.semantic.wait_ns",
                    SemanticShard {
                        ontology: Ontology::new(),
                        saturation: None,
                        taxonomy: None,
                        models: HashMap::new(),
                    },
                ),
                config: TrackedRwLock::new(
                    "config",
                    "core.lock.config.wait_ns",
                    ConfigShard {
                        optimizer: OptimizerConfig::default(),
                        executor: self.executor,
                    },
                ),
                telemetry: telemetry.clone(),
                degraded: AtomicBool::new(false),
                mode: Mutex::new(ModeState {
                    mode: DbMode::Normal,
                    probing: false,
                }),
                health_seq: AtomicU64::new(0),
                stages: StageHistograms::resolve(),
            }),
        };
        metrics().gauge_set("core.mode", 0);
        // One committer thread per shard queue. Each holds only a Weak:
        // the threads never keep the database alive. Recovery
        // (DbBuilder::open) runs before any producer can enqueue, so the
        // threads just park until then. The supervisor wrapper catches
        // panics (including injected ones), fails the in-flight tickets,
        // and restarts the loop.
        for (k, slice) in db.inner.shards.iter().enumerate() {
            let Some(queue) = slice.queue.clone() else {
                continue;
            };
            let shard = k as u32;
            let label = ShardLabel {
                k: shard,
                shards: shard_count,
            };
            let weak = Arc::downgrade(&db.inner);
            let inflight: InflightTickets = Arc::new(std::sync::Mutex::new(Vec::new()));
            std::thread::Builder::new()
                .name(label.committer_thread())
                .spawn(move || {
                    let body_weak = weak.clone();
                    let body_inflight = Arc::clone(&inflight);
                    supervise("group-commit", weak, Some(inflight), move || {
                        group_committer(
                            body_weak.clone(),
                            Arc::clone(&queue),
                            Arc::clone(&body_inflight),
                            shard,
                        )
                    })
                })
                .expect("spawn group-commit committer thread");
        }
        if let Some(state) = telemetry {
            // Same Weak lifecycle as the committer. A zero interval
            // means manual ticks only (Db::sample_now) — no thread.
            if !state.interval.is_zero() {
                let weak = Arc::downgrade(&db.inner);
                std::thread::Builder::new()
                    .name("scdb-telemetry".to_string())
                    .spawn(move || {
                        let body_weak = weak.clone();
                        supervise("telemetry", weak, None, move || {
                            telemetry_sampler(body_weak.clone(), Arc::clone(&state))
                        })
                    })
                    .expect("spawn telemetry sampler thread");
            }
        }
        db
    }

    /// Open the database: recover snapshot + committed log suffix from
    /// the configured durability target, then start logging. Without a
    /// durability target this is equivalent to [`DbBuilder::build`].
    pub fn open(mut self) -> Result<Db, CoreError> {
        let durability = self.durability.take();
        let db = self.build_volatile();
        let Some(DurabilityConfig {
            target,
            policy,
            segment_bytes,
        }) = durability
        else {
            return Ok(db);
        };
        let store: Box<dyn WalStore> = match target {
            DurabilityTarget::Dir(dir) => Box::new(
                FsStore::open(&dir)
                    .map_err(|e| scdb_txn::TxnError::io(format!("open {}", dir.display()), &e))?,
            ),
            DurabilityTarget::Store(store) => store,
        };
        // The on-disk shard layout is fixed at creation: refuse to open
        // a directory whose file names describe a different shard count
        // than the builder configured (a legacy unsharded directory
        // counts as one shard).
        let shards = db.inner.shard_count();
        let found = discover_shard_count(store.as_ref())
            .map_err(|e| scdb_txn::TxnError::io("scan log dir", &e))?;
        if let Some(found) = found {
            if found != shards {
                return Err(CoreError::Recovery(format!(
                    "log directory holds {found} write shard(s) but the builder \
                     configured {shards} — the shard count is fixed when the \
                     database is created (DbBuilder::write_shards)"
                )));
            }
        }
        // Recovery replays through the live pipeline while `durable` is
        // still `None`, so nothing gets re-logged; the WALs are
        // installed only once the state matches the committed logs.
        // Every shard's log is replayed by its own worker over the
        // shared medium, synchronized only at cross-shard seals (the
        // ledger): worker k replays exactly shard k's log into shard
        // k's slice.
        let shared = SharedStore::new(store);
        let ledger = SealLedger::new(shards);
        let replay = |k: u32| -> Result<(DurableWal, DbRecoveryReport), CoreError> {
            let out = (|| {
                let (wal, recovered) = DurableWal::open_shard(
                    Box::new(shared.clone()),
                    policy,
                    segment_bytes,
                    ShardLabel { k, shards }.wal_scope(),
                )?;
                scdb_obs::events().record_with_message(
                    "core",
                    "shard.recovery",
                    &[
                        ("shard", F::U64(u64::from(k))),
                        ("records", F::U64(recovered.records.len() as u64)),
                    ],
                    &format!("{:?}", std::thread::current().id()),
                );
                let report = db.install_recovery(k, recovered, &ledger)?;
                Ok((wal, report))
            })();
            // Decide every seal this worker never announced — even on
            // error, so no other worker waits on it forever.
            ledger.finish(k);
            out
        };
        // The calling thread is the first worker, so a one-shard open
        // spawns nothing (and the recovered state is allocated by the
        // thread that goes on to use it).
        let results = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..shards)
                .map(|k| scope.spawn(move || replay(k)))
                .collect();
            let mut results = vec![replay(0)];
            results.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("recovery worker panicked")),
            );
            results
        });
        let mut report = DbRecoveryReport::default();
        for (slice, result) in db.inner.shards.iter().zip(results) {
            let (wal, shard_report) = result?;
            report.absorb(shard_report);
            *slice.durable.lock() = Some(wal);
        }
        scdb_obs::event(
            "core",
            "shard.map",
            &[
                ("shards", F::U64(u64::from(shards))),
                ("slots", F::U64(db.inner.shard_map.slots().len() as u64)),
            ],
        );
        let m = metrics();
        m.gauge_set(
            "core.recovery.records_replayed",
            report.records_replayed as i64,
        );
        m.gauge_set("core.recovery.txns_discarded", report.txns_discarded as i64);
        m.gauge_set("core.recovery.snapshot_rows", report.snapshot_rows as i64);
        scdb_obs::event(
            "core",
            "recovery.complete",
            &[
                ("snapshot_rows", F::U64(report.snapshot_rows as u64)),
                ("records_replayed", F::U64(report.records_replayed as u64)),
                ("txns_discarded", F::U64(report.txns_discarded as u64)),
            ],
        );
        *db.inner.recovery.lock() = Some(report);
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use scdb_types::Record;

    #[test]
    fn builder_configures_all_knobs() {
        let db = Db::builder()
            .resolver(ResolverConfig::default())
            .scan_workers(2)
            .build();
        db.register_source("t", None);
        assert_eq!(db.record_count("t").unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "durability is configured")]
    fn build_panics_when_durability_configured() {
        let _ = Db::builder()
            .durability_config(DurabilityConfig::dir("/tmp/never-created"))
            .build();
    }

    #[test]
    fn durability_and_ingest_configs_take_effect() {
        let dir = tmpdir("cfg-group");
        {
            let db = Db::builder()
                .durability_config(
                    DurabilityConfig::dir(&dir)
                        .fsync(FsyncPolicy::EveryN(8))
                        .segment_bytes(1 << 20),
                )
                .ingest_config(IngestConfig::queued(4))
                .open()
                .unwrap();
            assert!(db.is_durable());
            db.register_source("drugbank", Some("Drug Name"));
            let t = db
                .ingest_async("drugbank", drug_record(&db, "Warfarin", "TP53"), None)
                .unwrap();
            t.wait().unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.stats().records, 1);
        // Direct ingest config is the default shape.
        let plain = Db::builder().ingest_config(IngestConfig::direct()).build();
        plain.register_source("a", None);
        assert!(plain.ingest_async("a", Record::new(), None).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
