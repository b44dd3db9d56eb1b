//! `Db::health_report()` — one struct summarizing the engine's vital
//! signs: uptime counters, WAL lag, lock-wait tails, warnings, slow
//! queries, and flight-recorder loss accounting.
//!
//! The report is a point-in-time composite read from the shard locks,
//! the metrics registry, and the event log; [`DbHealthReport::render`]
//! prints it as a text table, [`DbHealthReport::to_json`] serializes it
//! for dashboards. Built to answer "is this instance healthy, and if
//! not, where is it hurting?" without attaching a debugger.

use scdb_obs::WatchStatus;
use scdb_txn::WalLag;

use crate::db::CurationStats;

/// Wait-time summary for one shard lock, distilled from its
/// `core.lock.<shard>.wait_ns` histogram. Only *blocked* acquisitions
/// are measured (the uncontended fast path records nothing), so
/// `count` is the number of times anyone waited at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockWaitSummary {
    /// Shard label (`symbols`, `instance`, `relation`, `durable`,
    /// `semantic`, `config`).
    pub shard: String,
    /// Blocked acquisitions observed.
    pub count: u64,
    /// 99th-percentile wait in nanoseconds (bucket upper bound).
    pub p99_ns: u64,
    /// Largest single wait in nanoseconds.
    pub max_ns: u64,
}

/// Durability health: how far the WAL has drifted from its anchors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalHealth {
    /// Current lag (records since checkpoint, unsynced bytes, active
    /// segment fill).
    pub lag: WalLag,
    /// Checkpoints completed over this process's lifetime.
    pub checkpoints: u64,
    /// Fsyncs issued over this process's lifetime.
    pub fsyncs: u64,
}

/// Latency summary for one named commit stage, distilled from its
/// `core.ingest.stage.<stage>_ns` histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStageLatency {
    /// Stage name (`queue_wait`, `batch_build`, `wal_append`, `fsync`,
    /// `apply`).
    pub stage: String,
    /// Observations (per-row for `queue_wait`, per-batch otherwise).
    pub count: u64,
    /// Median in nanoseconds (bucket upper bound).
    pub p50_ns: u64,
    /// 99th percentile in nanoseconds (bucket upper bound).
    pub p99_ns: u64,
    /// Largest single observation in nanoseconds.
    pub max_ns: u64,
}

/// Group-commit ingest health: queue occupancy, flush shape, how much
/// fsync work batching saved, and the commit-latency decomposition.
/// Distilled from the `txn.group_commit.*` metrics, the
/// `core.ingest_queue.depth` gauge, and the `core.ingest.stage.*`
/// histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupCommitHealth {
    /// Configured queue capacity; `0` when no queue is configured (the
    /// counters below can still be non-zero via `Db::ingest_batch`).
    pub queue_capacity: usize,
    /// Records currently queued (last gauge value).
    pub queue_depth: i64,
    /// Group flushes (multi-record WAL appends) so far.
    pub flushes: u64,
    /// Records committed through group flushes.
    pub batch_records: u64,
    /// Largest single batch flushed.
    pub max_batch: u64,
    /// Fsyncs avoided versus committing each record individually.
    pub fsyncs_saved: u64,
    /// Producer stalls on a full queue (backpressure events).
    pub stalls: u64,
    /// 99th-percentile stall in nanoseconds (bucket upper bound).
    pub stall_p99_ns: u64,
    /// Commit-latency decomposition: every acked ingest split into
    /// queue-wait → batch-build → WAL-append → fsync → apply. Always
    /// all five stages, in pipeline order; zeroed rows mean the stage
    /// was never observed (metrics disabled) or cost nothing.
    pub stages: Vec<IngestStageLatency>,
}

/// Degraded-mode and fault-handling health: the current
/// [`crate::DbMode`] plus lifetime trip/recovery/injection counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModeHealth {
    /// Whether the node is currently in degraded read-only mode.
    pub degraded: bool,
    /// The trip cause, when degraded.
    pub reason: Option<String>,
    /// How long the node has been degraded, when degraded.
    pub degraded_for_ms: Option<u64>,
    /// Times the node tripped into degraded mode (`core.fault.tripped`).
    pub tripped: u64,
    /// Times it recovered back to normal (`core.fault.recoveries`).
    pub recoveries: u64,
    /// Faults fired by a [`crate::FaultPlan`] (`core.fault.injected`);
    /// `0` in production, where the log is not on an in-memory
    /// [`crate::FailpointLog`].
    pub faults_injected: u64,
    /// Background-thread panics caught by the supervisor.
    pub thread_panics: u64,
    /// Supervised thread restarts after those panics.
    pub thread_restarts: u64,
}

/// The composite health report returned by `Db::health_report()`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbHealthReport {
    /// Monotone per-handle report number (starts at 0) — correlates a
    /// rendered report with the JSONL telemetry line it produced.
    pub seq: u64,
    /// Capture time, milliseconds since the flight-recorder epoch — the
    /// same clock events and time-series samples carry.
    pub at_ms: u64,
    /// Milliseconds since this handle was built/opened.
    pub uptime_ms: u64,
    /// Cumulative curation counters.
    pub curation: CurationStats,
    /// Live entities.
    pub entities: usize,
    /// Registered sources.
    pub sources: usize,
    /// Whether mutations are logged to a durable WAL.
    pub durable: bool,
    /// Write-path mode and fault counters.
    pub mode: ModeHealth,
    /// WAL drift and durability counters; `None` for in-memory handles.
    pub wal: Option<WalHealth>,
    /// Group-commit ingest counters; `None` when no ingest queue is
    /// configured and no group flush ever ran.
    pub group_commit: Option<GroupCommitHealth>,
    /// Per-shard lock-wait tails, every shard always present (zeroed
    /// rows mean nobody ever blocked on that shard).
    pub locks: Vec<LockWaitSummary>,
    /// Slow-query captures currently retained (`Db::slow_queries()`).
    pub slow_queries: usize,
    /// The capture threshold in milliseconds.
    pub slow_query_threshold_ms: u64,
    /// Warning-ring contents, oldest first (`scdb_obs::recent_warnings`).
    pub warnings: Vec<String>,
    /// Events ever recorded by the flight recorder.
    pub events_recorded: u64,
    /// Events lost to ring wrap-around — counted, never silent.
    pub events_dropped: u64,
    /// Current status of every configured watch rule; empty when no
    /// telemetry pipeline is configured.
    pub watches: Vec<WatchStatus>,
}

impl DbHealthReport {
    /// Human-readable text table, one section per concern.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== scdb health ==");
        let _ = writeln!(
            out,
            "report               seq={} at_ms={}",
            self.seq, self.at_ms
        );
        let _ = writeln!(out, "uptime_ms            {}", self.uptime_ms);
        let _ = writeln!(
            out,
            "curation             records={} merges={} links={}",
            self.curation.records, self.curation.merges, self.curation.links
        );
        let _ = writeln!(
            out,
            "population           entities={} sources={}",
            self.entities, self.sources
        );
        match (&self.mode.degraded, &self.mode.reason) {
            (true, Some(reason)) => {
                let _ = writeln!(
                    out,
                    "mode                 DEGRADED (read-only) for {} ms: {}",
                    self.mode.degraded_for_ms.unwrap_or(0),
                    reason
                );
            }
            _ => {
                let _ = writeln!(out, "mode                 normal");
            }
        }
        let _ = writeln!(
            out,
            "mode counters        tripped={} recoveries={} faults_injected={} \
             thread_panics={} thread_restarts={}",
            self.mode.tripped,
            self.mode.recoveries,
            self.mode.faults_injected,
            self.mode.thread_panics,
            self.mode.thread_restarts
        );
        match &self.wal {
            Some(w) => {
                let _ = writeln!(
                    out,
                    "wal                  records_since_ckpt={} unsynced_bytes={} \
                     active_seg={} ({} B)",
                    w.lag.records_since_checkpoint,
                    w.lag.unsynced_bytes,
                    w.lag.active_seq,
                    w.lag.active_segment_bytes
                );
                let _ = writeln!(
                    out,
                    "wal durability       checkpoints={} fsyncs={}",
                    w.checkpoints, w.fsyncs
                );
            }
            None => {
                let _ = writeln!(out, "wal                  (in-memory, no durability)");
            }
        }
        if let Some(g) = &self.group_commit {
            let _ = writeln!(
                out,
                "group commit         queue={}/{} flushes={} rows={} max_batch={}",
                g.queue_depth, g.queue_capacity, g.flushes, g.batch_records, g.max_batch
            );
            let _ = writeln!(
                out,
                "group commit savings fsyncs_saved={} stalls={} stall_p99_ns<={}",
                g.fsyncs_saved, g.stalls, g.stall_p99_ns
            );
            let _ = writeln!(out, "commit stages        (per acked ingest)");
            for s in &g.stages {
                let _ = writeln!(
                    out,
                    "  {:<18} count={} p50_ns<={} p99_ns<={} max_ns={}",
                    s.stage, s.count, s.p50_ns, s.p99_ns, s.max_ns
                );
            }
        }
        let _ = writeln!(out, "lock waits           (blocked acquisitions only)");
        for l in &self.locks {
            let _ = writeln!(
                out,
                "  {:<18} count={} p99_ns<={} max_ns={}",
                l.shard, l.count, l.p99_ns, l.max_ns
            );
        }
        let _ = writeln!(
            out,
            "slow queries         {} retained (threshold {} ms)",
            self.slow_queries, self.slow_query_threshold_ms
        );
        let _ = writeln!(
            out,
            "events               recorded={} dropped={}",
            self.events_recorded, self.events_dropped
        );
        if !self.watches.is_empty() {
            let _ = writeln!(
                out,
                "watches              (threshold rules, per sample tick)"
            );
            for w in &self.watches {
                let _ = writeln!(
                    out,
                    "  {:<18} {} value={:.1} threshold={:.1} fired={}",
                    w.name,
                    if w.firing { "FIRING" } else { "ok" },
                    w.value,
                    w.threshold,
                    w.fired
                );
            }
        }
        let _ = writeln!(out, "warnings             {}", self.warnings.len());
        for w in &self.warnings {
            let _ = writeln!(out, "  ! {w}");
        }
        out
    }

    /// JSON document form, stable key order.
    pub fn to_json(&self) -> serde_json::Value {
        let mut root = serde_json::Map::new();
        root.insert("seq".into(), serde_json::Value::from(self.seq));
        root.insert("at_ms".into(), serde_json::Value::from(self.at_ms));
        root.insert("uptime_ms".into(), serde_json::Value::from(self.uptime_ms));
        let mut curation = serde_json::Map::new();
        curation.insert(
            "records".into(),
            serde_json::Value::from(self.curation.records),
        );
        curation.insert(
            "merges".into(),
            serde_json::Value::from(self.curation.merges),
        );
        curation.insert("links".into(), serde_json::Value::from(self.curation.links));
        root.insert("curation".into(), serde_json::Value::Object(curation));
        root.insert("entities".into(), serde_json::Value::from(self.entities));
        root.insert("sources".into(), serde_json::Value::from(self.sources));
        root.insert("durable".into(), serde_json::Value::from(self.durable));
        let mut mode = serde_json::Map::new();
        mode.insert(
            "degraded".into(),
            serde_json::Value::from(self.mode.degraded),
        );
        mode.insert(
            "reason".into(),
            match &self.mode.reason {
                Some(r) => serde_json::Value::from(r.as_str()),
                None => serde_json::Value::Null,
            },
        );
        mode.insert(
            "degraded_for_ms".into(),
            match self.mode.degraded_for_ms {
                Some(ms) => serde_json::Value::from(ms),
                None => serde_json::Value::Null,
            },
        );
        mode.insert("tripped".into(), serde_json::Value::from(self.mode.tripped));
        mode.insert(
            "recoveries".into(),
            serde_json::Value::from(self.mode.recoveries),
        );
        mode.insert(
            "faults_injected".into(),
            serde_json::Value::from(self.mode.faults_injected),
        );
        mode.insert(
            "thread_panics".into(),
            serde_json::Value::from(self.mode.thread_panics),
        );
        mode.insert(
            "thread_restarts".into(),
            serde_json::Value::from(self.mode.thread_restarts),
        );
        root.insert("mode".into(), serde_json::Value::Object(mode));
        if let Some(w) = &self.wal {
            let mut wal = serde_json::Map::new();
            wal.insert(
                "records_since_checkpoint".into(),
                serde_json::Value::from(w.lag.records_since_checkpoint),
            );
            wal.insert(
                "unsynced_bytes".into(),
                serde_json::Value::from(w.lag.unsynced_bytes),
            );
            wal.insert(
                "active_segment_bytes".into(),
                serde_json::Value::from(w.lag.active_segment_bytes),
            );
            wal.insert(
                "active_seq".into(),
                serde_json::Value::from(w.lag.active_seq),
            );
            wal.insert("checkpoints".into(), serde_json::Value::from(w.checkpoints));
            wal.insert("fsyncs".into(), serde_json::Value::from(w.fsyncs));
            root.insert("wal".into(), serde_json::Value::Object(wal));
        } else {
            root.insert("wal".into(), serde_json::Value::Null);
        }
        if let Some(g) = &self.group_commit {
            let mut gc = serde_json::Map::new();
            gc.insert(
                "queue_capacity".into(),
                serde_json::Value::from(g.queue_capacity),
            );
            gc.insert("queue_depth".into(), serde_json::Value::from(g.queue_depth));
            gc.insert("flushes".into(), serde_json::Value::from(g.flushes));
            gc.insert(
                "batch_records".into(),
                serde_json::Value::from(g.batch_records),
            );
            gc.insert("max_batch".into(), serde_json::Value::from(g.max_batch));
            gc.insert(
                "fsyncs_saved".into(),
                serde_json::Value::from(g.fsyncs_saved),
            );
            gc.insert("stalls".into(), serde_json::Value::from(g.stalls));
            gc.insert(
                "stall_p99_ns".into(),
                serde_json::Value::from(g.stall_p99_ns),
            );
            let stages: Vec<serde_json::Value> = g
                .stages
                .iter()
                .map(|s| {
                    let mut m = serde_json::Map::new();
                    m.insert("stage".into(), serde_json::Value::from(s.stage.as_str()));
                    m.insert("count".into(), serde_json::Value::from(s.count));
                    m.insert("p50_ns".into(), serde_json::Value::from(s.p50_ns));
                    m.insert("p99_ns".into(), serde_json::Value::from(s.p99_ns));
                    m.insert("max_ns".into(), serde_json::Value::from(s.max_ns));
                    serde_json::Value::Object(m)
                })
                .collect();
            gc.insert("stages".into(), serde_json::Value::Array(stages));
            root.insert("group_commit".into(), serde_json::Value::Object(gc));
        } else {
            root.insert("group_commit".into(), serde_json::Value::Null);
        }
        let locks: Vec<serde_json::Value> = self
            .locks
            .iter()
            .map(|l| {
                let mut m = serde_json::Map::new();
                m.insert("shard".into(), serde_json::Value::from(l.shard.as_str()));
                m.insert("count".into(), serde_json::Value::from(l.count));
                m.insert("p99_ns".into(), serde_json::Value::from(l.p99_ns));
                m.insert("max_ns".into(), serde_json::Value::from(l.max_ns));
                serde_json::Value::Object(m)
            })
            .collect();
        root.insert("locks".into(), serde_json::Value::Array(locks));
        root.insert(
            "slow_queries".into(),
            serde_json::Value::from(self.slow_queries),
        );
        root.insert(
            "slow_query_threshold_ms".into(),
            serde_json::Value::from(self.slow_query_threshold_ms),
        );
        root.insert(
            "warnings".into(),
            serde_json::Value::Array(
                self.warnings
                    .iter()
                    .map(|w| serde_json::Value::from(w.as_str()))
                    .collect(),
            ),
        );
        root.insert(
            "events_recorded".into(),
            serde_json::Value::from(self.events_recorded),
        );
        root.insert(
            "events_dropped".into(),
            serde_json::Value::from(self.events_dropped),
        );
        root.insert(
            "watches".into(),
            serde_json::Value::Array(self.watches.iter().map(WatchStatus::to_json).collect()),
        );
        serde_json::Value::Object(root)
    }
}
