//! `scdb-core` — the self-curating database facade.
//!
//! This crate assembles every layer of the paper's holistic data model
//! (Figure 1) behind one handle, [`Db`]:
//!
//! * the **instance layer** (`scdb-storage`) stores raw records and text
//!   and infers per-source schemas from the data;
//! * the **relation layer** (`scdb-er` + `scdb-graph`) continuously
//!   resolves records into entities and discovers instance-level links —
//!   the paper's *horizontal expansion* (data → information);
//! * the **semantic layer** (`scdb-semantic`) types entities, reasons over
//!   the TBox/RBox, and hosts declarative statistical models — the
//!   *vertical expansion* (information → knowledge);
//! * the **query model** (`scdb-query` + `scdb-uncertain`) executes ScQL
//!   with semantic optimization, refines queries in context, and answers
//!   over parallel worlds.
//!
//! Curation is not an offline ETL step: every [`Db::ingest`] call runs
//! the incremental pipeline, and [`Db::reason`] folds graph facts into
//! the semantic layer on demand. [`Db`] is a cheaply-clonable
//! `Send + Sync` handle — readers query through shard read locks while
//! a writer ingests (see the [`db`] module docs for the locking
//! scheme). The [`codd`] module renders the paper's §5 "revisited Codd
//! rules" as an executable compliance report over a live instance.
//!
//! ```
//! use scdb_core::Db;
//! use scdb_types::{Record, Value};
//!
//! # fn main() -> Result<(), scdb_core::CoreError> {
//! let db = Db::builder().build();
//! db.register_source("drugbank", Some("drug"));
//! let drug = db.intern("drug");
//! let dose = db.intern("dose_mg");
//! db.ingest(
//!     "drugbank",
//!     Record::from_pairs([(drug, Value::str("Warfarin")), (dose, Value::Float(5.1))]),
//!     None,
//! )?;
//! db.with_ontology(|o| o.subclass_exists("Drug", "has_target", "Gene"));
//! db.assert_entity_type("Warfarin", "Drug")?;
//! let out = db.query(
//!     "SELECT drug FROM drugbank \
//!      WHERE dose_mg CLOSE TO 5.0 WITHIN 0.5 AND drug HAS SOME has_target",
//! )?;
//! assert_eq!(out.rows.len(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod codd;
pub mod db;
pub mod error;
pub mod explore;
pub mod group_commit;
pub mod health;
mod snapshot;
pub mod syscat;
pub mod telemetry;

pub use codd::{CoddItem, CoddStatus};
pub use db::{
    CurationStats, Db, DbBuilder, DbMode, DbRecoveryReport, DiagnosticBundle, DurabilityConfig,
    IngestConfig, IngestReport, QueryOutcome, SlowQuery, SLOW_QUERY_RING,
};
pub use error::CoreError;
pub use explore::{ExplorationOutcome, ExploreConfig};
pub use group_commit::CommitTicket;
pub use health::{
    DbHealthReport, GroupCommitHealth, IngestStageLatency, LockWaitSummary, ModeHealth, WalHealth,
};
pub use scdb_obs::{
    default_watches, prometheus_text, MetricsSnapshot, QueryProfile, Sample, SeriesSummary,
    TimeSeriesRing, WatchOp, WatchRule, WatchSignal, WatchStatus,
};
pub use scdb_storage::{IndexDef, IndexKind};
pub use scdb_txn::{
    CheckpointStats, FailpointLog, FaultPlan, FsyncPolicy, IoClass, IsolationMode, Transaction,
    TxnError, WalRecoveryReport, WalStore,
};
pub use syscat::is_sys_name;
pub use telemetry::TelemetryConfig;
