//! `scdb-obs` — zero-dependency observability for the curation pipeline.
//!
//! Three layers, all hand-rolled on `std` + `parking_lot`:
//!
//! 1. **Metrics** — a process-global [`MetricsRegistry`] of named
//!    counters, gauges, and fixed-bucket latency histograms. The hot
//!    path is lock-free (atomics); the registry map is behind a
//!    `parking_lot::RwLock` taken in read mode except on first
//!    registration of a name. [`MetricsRegistry::snapshot`] produces a
//!    [`MetricsSnapshot`] serializable through `serde_json`.
//! 2. **Spans** — [`span!`] opens a scope guard that records wall time
//!    into the histogram named after the span when dropped. Spans nest:
//!    a thread-local stack tracks the active parent so child spans also
//!    feed a `<parent>/<child>` edge histogram, giving per-call-site
//!    breakdowns without any allocation when disabled.
//! 3. **Query profiles** — [`QueryProfile`] is an `EXPLAIN ANALYZE`
//!    style record (per-stage durations, rows in/out, optimizer
//!    decisions) built by executors and attached to query outcomes.
//!
//! On top sits the telemetry pipeline: [`TimeSeriesRing`] turns
//! periodic snapshots into bounded per-metric windows with derived
//! rates ([`timeseries`]), [`WatchEngine`] evaluates declarative
//! threshold rules against each sample ([`watch`]), and the exporters
//! ([`export`]) render snapshots as Prometheus text exposition or
//! append tagged JSONL telemetry lines.
//!
//! Naming convention: `subsystem.operation` (e.g. `txn.commit`,
//! `er.comparisons`, `query.execute_ns`). Explicitly-observed
//! nanosecond histograms end in `_ns`; span histograms record
//! nanoseconds under the span's own name (`core.ingest`). See
//! DESIGN.md §Observability.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod lock;
pub mod profile;
pub mod timeseries;
pub mod watch;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::RwLock;

pub use event::{event, events, Event, EventFilter, EventLog, FieldValue, SmallStr};
pub use export::{prometheus_name, prometheus_text, JsonlSink};
pub use lock::{set_lock_contention_threshold_ns, TrackedMutex, TrackedRwLock};
pub use profile::{ProfileBuilder, QueryProfile, StageProfile};
pub use timeseries::{CounterWindow, HistogramWindow, Sample, SeriesSummary, TimeSeriesRing};
pub use watch::{default_watches, WatchEngine, WatchOp, WatchRule, WatchSignal, WatchStatus};

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// Monotonically increasing event count. Lock-free.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A value that can move both ways (queue depths, cache sizes). Lock-free.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust by a signed delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket count: bucket `i` holds values whose bit length is `i`
/// (powers of two), so bucket bounds are `[2^(i-1), 2^i)`. 64 buckets
/// cover the full `u64` range; values of 0 land in bucket 0.
const HISTOGRAM_BUCKETS: usize = 64;

/// Fixed-bucket (power-of-two) histogram of `u64` observations —
/// typically nanoseconds. Lock-free on the record path.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Point-in-time summary of this histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(&buckets, count, 0.50),
            p95: quantile(&buckets, count, 0.95),
            p99: quantile(&buckets, count, 0.99),
        }
    }
}

/// Upper-bound estimate of the q-quantile from power-of-two buckets.
/// Returns the inclusive upper edge of the bucket holding the rank, so
/// the estimate never under-reports.
fn quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // Bucket i holds values in [2^(i-1), 2^i); upper edge 2^i - 1.
            return if i == 0 {
                0
            } else if i >= 64 {
                u64::MAX
            } else {
                (1u64 << i) - 1
            };
        }
    }
    u64::MAX
}

/// Frozen summary of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Bucket-resolution median (upper bound).
    pub p50: u64,
    /// Bucket-resolution 95th percentile (upper bound).
    pub p95: u64,
    /// Bucket-resolution 99th percentile (upper bound).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of observations, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Named metrics, globally reachable via [`metrics()`].
///
/// The map locks are only contended on first registration of each name;
/// steady-state updates go straight to the atomic inside the `Arc`.
/// When disabled (see [`MetricsRegistry::set_enabled`]) every record
/// path short-circuits on one relaxed atomic load.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Fresh registry, enabled.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Whether record paths are live.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn all record paths on or off. Off costs one relaxed load per
    /// call site — the basis of the < 5% overhead budget.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Counter handle for `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(self.counters.write().entry(name.to_string()).or_default())
    }

    /// Gauge handle for `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(self.gauges.write().entry(name.to_string()).or_default())
    }

    /// Histogram handle for `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(self.histograms.write().entry(name.to_string()).or_default())
    }

    /// Increment counter `name` by one (no-op when disabled).
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `n` (no-op when disabled).
    pub fn add(&self, name: &str, n: u64) {
        if self.enabled() {
            self.counter(name).add(n);
        }
    }

    /// Set gauge `name` (no-op when disabled).
    pub fn gauge_set(&self, name: &str, v: i64) {
        if self.enabled() {
            self.gauge(name).set(v);
        }
    }

    /// Record `v` into histogram `name` (no-op when disabled).
    pub fn observe(&self, name: &str, v: u64) {
        if self.enabled() {
            self.histogram(name).record(v);
        }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every metric (counts, gauges, histogram buckets). Names stay
    /// registered. Meant for test isolation and experiment phases.
    pub fn reset(&self) {
        for c in self.counters.read().values() {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in self.gauges.read().values() {
            g.value.store(0, Ordering::Relaxed);
        }
        for h in self.histograms.read().values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.min.store(u64::MAX, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
        }
    }
}

/// The process-global registry used by all instrumentation.
pub fn metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

// ---------------------------------------------------------------------------
// Warnings
// ---------------------------------------------------------------------------

/// Capacity of the warning compatibility ring: the most recent
/// `WARN_RING` (64) messages survive for [`recent_warnings`] even after
/// the event ring has churned past them.
pub const WARN_RING: usize = 64;

fn warn_ring() -> &'static parking_lot::Mutex<std::collections::VecDeque<String>> {
    static RING: OnceLock<parking_lot::Mutex<std::collections::VecDeque<String>>> = OnceLock::new();
    RING.get_or_init(|| parking_lot::Mutex::new(std::collections::VecDeque::new()))
}

/// Record a warning: something recoverable but noteworthy happened (e.g.
/// a torn WAL suffix was truncated during recovery). Bumps the
/// `obs.warnings` counter, emits a `("obs", "warn")` event carrying the
/// full message into the flight recorder, and retains the most recent
/// [`WARN_RING`] messages for post-mortem inspection via
/// [`recent_warnings`] — a compatibility view that survives event-ring
/// churn. Warnings bypass the registry enable gate — losing a durability
/// diagnostic because metrics were off would defeat the point — but the
/// event copy still honors the event ring's own gate.
pub fn warn(message: impl Into<String>) {
    let message = message.into();
    metrics().counter("obs.warnings").inc();
    events().record_with_message("obs", "warn", &[], &message);
    let mut ring = warn_ring().lock();
    if ring.len() == WARN_RING {
        ring.pop_front();
    }
    ring.push_back(message);
}

/// The most recent warnings, oldest first (bounded ring).
pub fn recent_warnings() -> Vec<String> {
    warn_ring().lock().iter().cloned().collect()
}

/// Clear the warning ring (test isolation).
pub fn clear_warnings() {
    warn_ring().lock().clear();
}

// ---------------------------------------------------------------------------
// Snapshot + JSON
// ---------------------------------------------------------------------------

/// Frozen copy of a [`MetricsRegistry`], ordered by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// JSON document form, stable key order.
    pub fn to_json(&self) -> serde_json::Value {
        let mut counters = serde_json::Map::new();
        for (k, v) in &self.counters {
            counters.insert(k.clone(), serde_json::Value::from(*v));
        }
        let mut gauges = serde_json::Map::new();
        for (k, v) in &self.gauges {
            gauges.insert(k.clone(), serde_json::Value::from(*v));
        }
        let mut histograms = serde_json::Map::new();
        for (k, h) in &self.histograms {
            let mut m = serde_json::Map::new();
            m.insert("count".into(), serde_json::Value::from(h.count));
            m.insert("sum".into(), serde_json::Value::from(h.sum));
            m.insert("min".into(), serde_json::Value::from(h.min));
            m.insert("max".into(), serde_json::Value::from(h.max));
            m.insert("p50".into(), serde_json::Value::from(h.p50));
            m.insert("p95".into(), serde_json::Value::from(h.p95));
            m.insert("p99".into(), serde_json::Value::from(h.p99));
            histograms.insert(k.clone(), serde_json::Value::Object(m));
        }
        let mut root = serde_json::Map::new();
        root.insert("counters".into(), serde_json::Value::Object(counters));
        root.insert("gauges".into(), serde_json::Value::Object(gauges));
        root.insert("histograms".into(), serde_json::Value::Object(histograms));
        serde_json::Value::Object(root)
    }

    /// Rebuild a snapshot from its [`Self::to_json`] form.
    pub fn from_json(v: &serde_json::Value) -> Option<MetricsSnapshot> {
        let root = v.as_object()?;
        let mut out = MetricsSnapshot::default();
        for (k, v) in root.get("counters")?.as_object()? {
            out.counters.insert(k.clone(), v.as_u64()?);
        }
        for (k, v) in root.get("gauges")?.as_object()? {
            out.gauges.insert(k.clone(), v.as_i64()?);
        }
        for (k, v) in root.get("histograms")?.as_object()? {
            let h = v.as_object()?;
            let field = |n: &str| h.get(n).and_then(|x| x.as_u64());
            out.histograms.insert(
                k.clone(),
                HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    p50: field("p50")?,
                    p95: field("p95")?,
                    p99: field("p99")?,
                },
            );
        }
        Some(out)
    }

    /// Compact human-readable dump, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k} = {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k}: n={} mean={:.0} p50<={} p99<={} max={}\n",
                h.count,
                h.mean(),
                h.p50,
                h.p99,
                h.max
            ));
        }
        out
    }
}

impl serde::Serialize for MetricsSnapshot {
    fn to_ser_value(&self) -> serde::SerValue {
        self.to_json().to_ser_value()
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// RAII scope timer. On drop, records elapsed nanoseconds into the
/// histogram named after the span; if the span was opened inside
/// another span, also records into the `<parent>/<name>` edge
/// histogram so nested breakdowns are queryable. When the registry is
/// disabled at open time the guard is inert (no clock reads).
#[must_use = "a span records on drop; binding to _ discards it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    parent: Option<&'static str>,
    start: Option<Instant>,
}

impl SpanGuard {
    /// The span's own name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Name of the enclosing span at open time, if any.
    pub fn parent(&self) -> Option<&'static str> {
        self.parent
    }
}

/// Open a span. Prefer the [`span!`] macro at call sites.
pub fn span(name: &'static str) -> SpanGuard {
    if !metrics().enabled() {
        return SpanGuard {
            name,
            parent: None,
            start: None,
        };
    }
    let parent = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(name);
        parent
    });
    SpanGuard {
        name,
        parent,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.name) {
                s.pop();
            }
        });
        let m = metrics();
        m.observe(self.name, ns);
        if let Some(parent) = self.parent {
            // Edge histograms are few (one per static parent/child pair),
            // so the format! only runs while a span is actually nested.
            m.observe(&format!("{parent}/{}", self.name), ns);
        }
    }
}

/// Open a named span guard: `let _s = span!("er.block");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-global registry; serialize the ones that
    /// toggle `enabled` or reset it, and the ones that compare its counts
    /// before and after a step.
    pub(crate) static TEST_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn counters_and_gauges() {
        let r = MetricsRegistry::new();
        r.inc("a.b");
        r.add("a.b", 4);
        assert_eq!(r.counter("a.b").get(), 5);
        r.gauge_set("g.x", -3);
        assert_eq!(r.gauge("g.x").get(), -3);
        r.gauge("g.x").add(5);
        assert_eq!(r.gauge("g.x").get(), 2);
    }

    #[test]
    fn disabled_registry_drops_updates() {
        let r = MetricsRegistry::new();
        r.set_enabled(false);
        r.inc("quiet");
        r.observe("quiet_ns", 10);
        r.set_enabled(true);
        assert_eq!(r.counter("quiet").get(), 0);
        assert_eq!(r.histogram("quiet_ns").count(), 0);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 221.2).abs() < 1e-9);
        // p50 rank 3 → value 3 lives in bucket [2,4) → upper edge 3.
        assert_eq!(s.p50, 3);
        // p99 rank 5 → 1000 lives in [512,1024) → upper edge 1023.
        assert_eq!(s.p99, 1023);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p99), (0, 0, 0, 0));
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.min, s.max, s.p50), (1, 0, 0, 0));
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        r.inc("mt.counter");
                        r.observe("mt.hist", i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("mt.counter").get(), threads * per_thread);
        let s = r.histogram("mt.hist").snapshot();
        assert_eq!(s.count, threads * per_thread);
        assert_eq!(s.max, per_thread - 1);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let r = MetricsRegistry::new();
        r.add("c.one", 7);
        r.gauge_set("g.two", -9);
        for v in [5u64, 50, 500] {
            r.observe("h.three_ns", v);
        }
        let snap = r.snapshot();
        let text = serde_json::to_string(&snap).expect("serializable");
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid json");
        let back = MetricsSnapshot::from_json(&parsed).expect("decodable");
        assert_eq!(back, snap);
        assert_eq!(back.counters["c.one"], 7);
        assert_eq!(back.gauges["g.two"], -9);
        assert_eq!(back.histograms["h.three_ns"].count, 3);
    }

    #[test]
    fn spans_record_and_nest() {
        let _guard = TEST_LOCK.lock();
        metrics().reset();
        {
            let outer = span!("t.outer");
            assert_eq!(outer.parent(), None);
            {
                let inner = span!("t.inner");
                assert_eq!(inner.parent(), Some("t.outer"));
                std::hint::black_box(0);
            }
        }
        let m = metrics();
        assert_eq!(m.histogram("t.outer").count(), 1);
        assert_eq!(m.histogram("t.inner").count(), 1);
        assert_eq!(m.histogram("t.outer/t.inner").count(), 1);
        // The child ran strictly inside the parent.
        assert!(m.histogram("t.inner").sum() <= m.histogram("t.outer").sum());
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = TEST_LOCK.lock();
        metrics().reset();
        metrics().set_enabled(false);
        {
            let s = span!("t.quiet");
            assert_eq!(s.parent(), None);
        }
        metrics().set_enabled(true);
        assert_eq!(metrics().histogram("t.quiet").count(), 0);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = MetricsRegistry::new();
        r.add("r.c", 3);
        r.observe("r.h", 9);
        r.reset();
        let s = r.snapshot();
        assert_eq!(s.counters["r.c"], 0);
        assert_eq!(s.histograms["r.h"].count, 0);
    }
}
