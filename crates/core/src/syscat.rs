//! The `sys` system catalog: observability as relations.
//!
//! The paper's thesis is a database that curates *itself* — which means
//! the curator must be able to *query* the system's own state, not just
//! call bespoke Rust accessors. This module materializes the live
//! observability stack (metrics registry, flight recorder, slow-query
//! ring, watch engine, time-series ring, index definitions, lock-wait
//! histograms, WAL lag, thread supervision) into ordinary rows on
//! demand, so `SELECT * FROM sys.events WHERE batch_id = 42` runs
//! through the very same plan → optimize → execute pipeline as a user
//! query (full `EXPLAIN ANALYZE` included).
//!
//! Design constraints, enforced by the call sites in [`crate::db`]:
//!
//! * **No core shard write lock during refresh.** Every builder here is
//!   a pure function over snapshots that were taken under read locks,
//!   leaf mutexes, or lock-free rings. (The one exception: the first
//!   sys query after startup may intern previously-unseen attribute
//!   names under a brief symbols write lock; steady-state refreshes
//!   find every name already interned.)
//! * **The namespace is reserved.** [`is_sys_name`] gates source
//!   registration, ingest (via source lookup), and index creation, so
//!   no user relation can shadow a catalog relation.
//! * **No self-amplification.** Sys queries are never captured into the
//!   slow-query ring — otherwise querying `sys.slow_queries` could
//!   itself become the slowest query in the ring it reads.
//!
//! Rows are built as `(column name, value)` pairs; `crate::db` interns
//! the names into the shared symbol table and assembles [`Record`]s, so
//! callers resolve sys columns exactly like user attributes.

use std::collections::BTreeMap;

use scdb_obs::{Event, FieldValue, MetricsSnapshot, Sample, WatchStatus};
use scdb_storage::IndexDef;
use scdb_txn::WalLag;
use scdb_types::{Record, SymbolTable, Value};

use crate::db::{DbMode, SlowQuery};

/// One catalog row before symbol interning: `(column, value)` pairs in
/// column order.
pub(crate) type SysRow = Vec<(String, Value)>;

/// True for the reserved system namespace: `sys` itself or any
/// `sys.`-prefixed name. Such names cannot be registered as sources,
/// ingested into, or used for indexes — they address the catalog.
pub fn is_sys_name(name: &str) -> bool {
    name == "sys" || name.starts_with("sys.")
}

/// The catalog's relations with one-line descriptions — also the
/// contents of `sys.relations`, so the catalog is self-describing.
pub(crate) const RELATIONS: &[(&str, &str)] = &[
    (
        "sys.metrics",
        "metrics registry: counters, gauges, histogram percentiles",
    ),
    (
        "sys.events",
        "flight recorder ring, event fields exploded to columns",
    ),
    (
        "sys.slow_queries",
        "slow-query ring: text, stage split, full profile JSON",
    ),
    ("sys.watches", "watch rules and their firing state"),
    (
        "sys.samples",
        "telemetry time-series ring, one row per metric per sample",
    ),
    (
        "sys.indexes",
        "secondary index definitions and entry counts",
    ),
    ("sys.locks", "per-shard lock-wait statistics"),
    (
        "sys.wal",
        "WAL lag, fsync counters, and degraded-mode state",
    ),
    (
        "sys.threads",
        "supervised background threads: panics and restarts",
    ),
    ("sys.relations", "this catalog"),
];

/// `sys.relations`: one row per catalog relation.
pub(crate) fn relation_rows() -> Vec<SysRow> {
    RELATIONS
        .iter()
        .map(|(name, description)| {
            vec![
                ("name".to_string(), Value::str(*name)),
                ("description".to_string(), Value::str(*description)),
            ]
        })
        .collect()
}

/// `sys.metrics`: counters and gauges as `(name, kind, value)`,
/// histograms as `(name, kind, count, sum, min, max, p50, p95, p99)`.
pub(crate) fn metrics_rows(snap: &MetricsSnapshot) -> Vec<SysRow> {
    let mut rows =
        Vec::with_capacity(snap.counters.len() + snap.gauges.len() + snap.histograms.len());
    for (name, value) in &snap.counters {
        rows.push(vec![
            ("name".to_string(), Value::str(name)),
            ("kind".to_string(), Value::str("counter")),
            ("value".to_string(), Value::Int(*value as i64)),
        ]);
    }
    for (name, value) in &snap.gauges {
        rows.push(vec![
            ("name".to_string(), Value::str(name)),
            ("kind".to_string(), Value::str("gauge")),
            ("value".to_string(), Value::Int(*value)),
        ]);
    }
    for (name, h) in &snap.histograms {
        rows.push(vec![
            ("name".to_string(), Value::str(name)),
            ("kind".to_string(), Value::str("histogram")),
            ("count".to_string(), Value::Int(h.count as i64)),
            ("sum".to_string(), Value::Int(h.sum as i64)),
            ("min".to_string(), Value::Int(h.min as i64)),
            ("max".to_string(), Value::Int(h.max as i64)),
            ("p50".to_string(), Value::Int(h.p50 as i64)),
            ("p95".to_string(), Value::Int(h.p95 as i64)),
            ("p99".to_string(), Value::Int(h.p99 as i64)),
        ]);
    }
    rows
}

/// `sys.events`: `(seq, ts_ms, subsystem, kind[, message])` plus every
/// event field exploded into its own column (`batch_id`, `rows`, `ns`,
/// …) — what makes the correlation-id join possible.
pub(crate) fn events_rows(events: &[Event]) -> Vec<SysRow> {
    events
        .iter()
        .map(|e| {
            let mut row: SysRow = vec![
                ("seq".to_string(), Value::Int(e.seq as i64)),
                ("ts_ms".to_string(), Value::Int(e.ts_ms as i64)),
                ("subsystem".to_string(), Value::str(e.subsystem.as_str())),
                ("kind".to_string(), Value::str(e.kind.as_str())),
            ];
            for (k, v) in e.fields() {
                let value = match v {
                    FieldValue::U64(n) => Value::Int(*n as i64),
                    FieldValue::Str(s) => Value::str(s.as_str()),
                };
                row.push((k.as_str().to_string(), value));
            }
            if let Some(msg) = &e.message {
                row.push(("message".to_string(), Value::str(msg.as_ref())));
            }
            row
        })
        .collect()
}

/// `sys.slow_queries`: the ring's captures with their stage split and
/// the full `EXPLAIN ANALYZE` profile as a JSON-string column, so a
/// diagnostic bundle gets complete profiles from the catalog alone.
pub(crate) fn slow_query_rows(slow: &[SlowQuery]) -> Vec<SysRow> {
    slow.iter()
        .map(|q| {
            let stage_ns = |name: &str| {
                q.profile
                    .stage(name)
                    .map(|s| s.duration.as_nanos() as i64)
                    .unwrap_or(0)
            };
            vec![
                ("text".to_string(), Value::str(&q.text)),
                ("at_ms".to_string(), Value::Int(q.at_ms as i64)),
                (
                    "total_ns".to_string(),
                    Value::Int(q.total.as_nanos() as i64),
                ),
                ("plan_ns".to_string(), Value::Int(stage_ns("plan"))),
                ("optimize_ns".to_string(), Value::Int(stage_ns("optimize"))),
                ("execute_ns".to_string(), Value::Int(stage_ns("execute"))),
                (
                    "profile".to_string(),
                    Value::str(serde_json::to_string(&q.profile.to_json()).unwrap_or_default()),
                ),
            ]
        })
        .collect()
}

/// `sys.watches`: one row per configured watch rule.
pub(crate) fn watch_rows(statuses: &[WatchStatus]) -> Vec<SysRow> {
    statuses
        .iter()
        .map(|w| {
            vec![
                ("name".to_string(), Value::str(&w.name)),
                ("metric".to_string(), Value::str(&w.metric)),
                ("kind".to_string(), Value::str(w.kind)),
                ("firing".to_string(), Value::Bool(w.firing)),
                ("breaches".to_string(), Value::Int(w.breaches as i64)),
                ("fired".to_string(), Value::Int(w.fired as i64)),
                ("value".to_string(), Value::Float(w.value)),
                ("threshold".to_string(), Value::Float(w.threshold)),
                ("sustain".to_string(), Value::Int(w.sustain as i64)),
            ]
        })
        .collect()
}

/// `sys.samples`: the time-series ring flattened to one row per metric
/// per sample — counters carry `(delta, rate, total)`, gauges `level`,
/// histograms `(count, sum, p99, max)`.
pub(crate) fn sample_rows(samples: &[std::sync::Arc<Sample>]) -> Vec<SysRow> {
    let mut rows = Vec::new();
    for s in samples {
        let head = |metric: &str, kind: &str| -> SysRow {
            vec![
                ("seq".to_string(), Value::Int(s.seq as i64)),
                ("at_ms".to_string(), Value::Int(s.at_ms as i64)),
                ("interval_ms".to_string(), Value::Int(s.interval_ms as i64)),
                ("metric".to_string(), Value::str(metric)),
                ("kind".to_string(), Value::str(kind)),
            ]
        };
        for (metric, w) in &s.counters {
            let mut row = head(metric, "counter");
            row.push(("delta".to_string(), Value::Int(w.delta as i64)));
            row.push(("rate".to_string(), Value::Float(w.rate)));
            row.push(("total".to_string(), Value::Int(w.total as i64)));
            rows.push(row);
        }
        for (metric, level) in &s.gauges {
            let mut row = head(metric, "gauge");
            row.push(("level".to_string(), Value::Int(*level)));
            rows.push(row);
        }
        for (metric, w) in &s.histograms {
            let mut row = head(metric, "histogram");
            row.push(("count".to_string(), Value::Int(w.count as i64)));
            row.push(("sum".to_string(), Value::Int(w.sum as i64)));
            row.push(("p99".to_string(), Value::Int(w.p99 as i64)));
            row.push(("max".to_string(), Value::Int(w.max as i64)));
            rows.push(row);
        }
    }
    rows
}

/// `sys.indexes`: definitions plus live entry counts, gathered under
/// the instance *read* lock by the caller.
pub(crate) fn index_rows(defs: &[(IndexDef, u64)]) -> Vec<SysRow> {
    defs.iter()
        .map(|(def, entries)| {
            let kind = match def.kind {
                scdb_storage::IndexKind::Hash => "hash",
                scdb_storage::IndexKind::Ordered => "ordered",
            };
            vec![
                ("name".to_string(), Value::str(&def.name)),
                ("source".to_string(), Value::str(&def.source)),
                ("attr".to_string(), Value::str(&def.attr)),
                ("kind".to_string(), Value::str(kind)),
                ("entries".to_string(), Value::Int(*entries as i64)),
            ]
        })
        .collect()
}

/// `sys.locks`: per-shard wait statistics from the
/// `core.lock.<shard>.wait_ns` histograms. Every lock of the database
/// (`instance`, `instance.s1`, `durable.s2`, …) is always listed — the
/// wait histograms only materialize on contended acquisitions, so the
/// rows must not depend on them — and any further `core.lock.*`
/// histograms are discovered from the registry, so the relation grows
/// without a schema change here.
pub(crate) fn lock_rows(write_shards: u32, snap: &MetricsSnapshot) -> Vec<SysRow> {
    let mut shards = crate::db::lock_labels(write_shards);
    let mut extra: Vec<String> = snap
        .histograms
        .keys()
        .filter_map(|name| {
            name.strip_prefix("core.lock.")
                .and_then(|rest| rest.strip_suffix(".wait_ns"))
                .filter(|shard| !shards.iter().any(|s| s == shard))
                .map(str::to_owned)
        })
        .collect();
    extra.sort();
    shards.extend(extra);
    shards
        .iter()
        .map(|shard| {
            let name = format!("core.lock.{shard}.wait_ns");
            let h = snap.histograms.get(&name);
            let g = |f: fn(&scdb_obs::HistogramSnapshot) -> u64| h.map(f).unwrap_or(0) as i64;
            vec![
                ("shard".to_string(), Value::str(shard.as_str())),
                ("count".to_string(), Value::Int(g(|h| h.count))),
                ("p50_ns".to_string(), Value::Int(g(|h| h.p50))),
                ("p99_ns".to_string(), Value::Int(g(|h| h.p99))),
                ("max_ns".to_string(), Value::Int(g(|h| h.max))),
            ]
        })
        .collect()
}

/// `sys.wal`: one row per write-shard WAL — that shard's lag columns,
/// plus the (global) fsync/checkpoint counters and mode on every row.
pub(crate) fn wal_rows(
    lags: &[Option<WalLag>],
    mode: &DbMode,
    snap: &MetricsSnapshot,
) -> Vec<SysRow> {
    let counter = |name: &str| *snap.counters.get(name).unwrap_or(&0) as i64;
    lags.iter()
        .enumerate()
        .map(|(shard, lag)| {
            let mut row: SysRow = vec![
                ("shard".to_string(), Value::Int(shard as i64)),
                ("durable".to_string(), Value::Bool(lag.is_some())),
            ];
            if let Some(lag) = lag {
                row.push((
                    "records_since_ckpt".to_string(),
                    Value::Int(lag.records_since_checkpoint as i64),
                ));
                row.push((
                    "unsynced_bytes".to_string(),
                    Value::Int(lag.unsynced_bytes as i64),
                ));
                row.push((
                    "active_segment_bytes".to_string(),
                    Value::Int(lag.active_segment_bytes as i64),
                ));
                row.push(("active_seq".to_string(), Value::Int(lag.active_seq as i64)));
            }
            row.push(("fsyncs".to_string(), Value::Int(counter("txn.wal.fsyncs"))));
            row.push((
                "checkpoints".to_string(),
                Value::Int(counter("txn.checkpoints")),
            ));
            match mode {
                DbMode::Normal => row.push(("mode".to_string(), Value::str("normal"))),
                DbMode::Degraded { reason, since_ms } => {
                    row.push(("mode".to_string(), Value::str("degraded")));
                    row.push(("reason".to_string(), Value::str(reason)));
                    row.push((
                        "degraded_for_ms".to_string(),
                        Value::Int(
                            scdb_obs::event::coarse_now_ms().saturating_sub(*since_ms) as i64
                        ),
                    ));
                }
            }
            row
        })
        .collect()
}

/// `sys.threads`: per-thread panic/restart counts aggregated from the
/// supervisor's flight-recorder events, plus an `(all)` totals row from
/// the monotone counters (the ring is bounded; the counters are not).
pub(crate) fn thread_rows(events: &[Event], snap: &MetricsSnapshot) -> Vec<SysRow> {
    let mut per: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in events {
        if e.subsystem.as_str() != "core" {
            continue;
        }
        let slot = |name: Option<FieldValue>| {
            name.and_then(|v| v.as_str().map(str::to_string))
                .unwrap_or_else(|| "?".to_string())
        };
        match e.kind.as_str() {
            "thread.panic" => per.entry(slot(e.field("thread"))).or_default().0 += 1,
            "thread.restart" => per.entry(slot(e.field("thread"))).or_default().1 += 1,
            _ => {}
        }
    }
    let counter = |name: &str| *snap.counters.get(name).unwrap_or(&0) as i64;
    let mut rows: Vec<SysRow> = per
        .into_iter()
        .map(|(thread, (panics, restarts))| {
            vec![
                ("thread".to_string(), Value::str(thread)),
                ("panics".to_string(), Value::Int(panics as i64)),
                ("restarts".to_string(), Value::Int(restarts as i64)),
            ]
        })
        .collect();
    rows.push(vec![
        ("thread".to_string(), Value::str("(all)")),
        (
            "panics".to_string(),
            Value::Int(counter("core.thread.panics")),
        ),
        (
            "restarts".to_string(),
            Value::Int(counter("core.thread.restarts")),
        ),
    ]);
    rows
}

/// Render a query-result [`Record`] as a JSON object, resolving
/// attribute symbols through `symbols` — how [`crate::Db::diagnostic_bundle`]
/// turns `SELECT * FROM sys.*` rows into JSONL lines.
pub fn record_to_json(record: &Record, symbols: &SymbolTable) -> serde_json::Value {
    let mut obj = serde_json::Map::new();
    for (sym, value) in record.iter() {
        let v = match value {
            Value::Null => serde_json::Value::Null,
            Value::Bool(b) => serde_json::Value::from(*b),
            Value::Int(n) => serde_json::Value::from(*n),
            Value::Float(x) => serde_json::Value::from(*x),
            Value::Timestamp(t) => serde_json::Value::from(*t),
            other => serde_json::Value::from(other.render().into_owned()),
        };
        obj.insert(symbols.resolve(sym).to_string(), v);
    }
    serde_json::Value::Object(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sys_namespace_detection() {
        assert!(is_sys_name("sys"));
        assert!(is_sys_name("sys.events"));
        assert!(is_sys_name("sys.anything.else"));
        assert!(!is_sys_name("system"));
        assert!(!is_sys_name("drugbank"));
        assert!(!is_sys_name("Sys.events"));
    }

    #[test]
    fn relations_catalog_is_self_describing() {
        let rows = relation_rows();
        assert_eq!(rows.len(), RELATIONS.len());
        assert!(rows
            .iter()
            .any(|r| matches!(&r[0].1, Value::Str(s) if &**s == "sys.relations")));
        // Every listed relation is itself a sys name.
        for (name, _) in RELATIONS {
            assert!(is_sys_name(name), "{name}");
        }
    }

    #[test]
    fn metrics_rows_cover_all_families() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a.b".into(), 3);
        snap.gauges.insert("c.d".into(), -1);
        snap.histograms.insert(
            "e.f".into(),
            scdb_obs::HistogramSnapshot {
                count: 1,
                sum: 2,
                min: 2,
                max: 2,
                p50: 2,
                p95: 2,
                p99: 2,
            },
        );
        let rows = metrics_rows(&snap);
        assert_eq!(rows.len(), 3);
        let kinds: Vec<&str> = rows
            .iter()
            .filter_map(|r| match &r[1].1 {
                Value::Str(s) => Some(&**s),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec!["counter", "gauge", "histogram"]);
    }

    #[test]
    fn record_to_json_resolves_symbols() {
        let mut symbols = SymbolTable::new();
        let a = symbols.intern("batch_id");
        let b = symbols.intern("kind");
        let rec = Record::from_pairs([(a, Value::Int(7)), (b, Value::str("flush"))]);
        let json = record_to_json(&rec, &symbols);
        assert_eq!(json.get("batch_id").and_then(|v| v.as_i64()), Some(7));
        assert_eq!(json.get("kind").and_then(|v| v.as_str()), Some("flush"));
    }
}
