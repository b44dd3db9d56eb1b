//! Concurrency control for the enriched data model — FS.11.
//!
//! The paper asks: "If the relation and semantic layers can be changed
//! continuously, even when the instance layer does not change, and these
//! layers are further enhanced with non-deterministic predictive inference
//! power, could the classical isolation semantics … ever be satisfied? In
//! what ways must concurrency control be extended to account for the
//! non-determinism that is not the result of explicit update queries?"
//!
//! This crate provides the machinery to *pose and measure* that question:
//!
//! * [`mvcc`] — a classical multi-version store with snapshot-isolation
//!   transactions (first-committer-wins write conflicts);
//! * [`wal`] and [`durable`] — one write-ahead log: the record codec with
//!   its single seal, and the segmented, checkpointed log that frames it
//!   onto a medium (redo of sealed transactions on reopen), because
//!   "these fundamental changes to the concurrency model will inevitably
//!   have implication\[s\] for … logging and recovery protocols";
//! * [`fault`] and [`inject`] — one in-memory medium carrying one fault
//!   schedule, for crash and fault-resilience tests;
//! * [`enrich`] — the extension: *enrichment writes* originate from the
//!   curation pipeline, not from user transactions. Under
//!   [`enrich::IsolationMode::Snapshot`] they stay invisible to running
//!   transactions (repeatable reads, stale enrichment); under
//!   [`enrich::IsolationMode::RelaxedEnrichment`] — the paper's "pulled
//!   and eventually received with uncertainty" — they become visible
//!   immediately, trading repeatability for freshness. The anomaly
//!   counters quantify the trade in experiment E-T1-FS11.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod enrich;
pub mod error;
pub mod fault;
pub mod frame;
pub mod inject;
pub mod mvcc;
pub mod wal;

pub use durable::{
    discover_shard_count, CheckpointStats, DurableWal, FsStore, FsyncPolicy, SharedStore, WalLag,
    WalRecovery, WalRecoveryReport, WalStore,
};
pub use enrich::{EnrichedDb, IsolationMode, ReadStats};
pub use error::{IoClass, TxnError};
pub use fault::FailpointLog;
pub use inject::FaultPlan;
pub use mvcc::{Transaction, TxnManager, TxnStatus, VersionOrigin};
pub use wal::LogRecord;
