//! The flight recorder: a bounded, process-global ring of structured
//! [`Event`] records.
//!
//! Where the metrics registry answers *"how much / how fast overall"*,
//! the event log answers *"what happened, in what order"* — the
//! per-event timeline the paper's FS.9/FS.11 vision (queries over the
//! curation process itself) needs once a run has ended. Subsystems emit
//! events on *notable* transitions (a contended lock, a WAL segment
//! rotation, a checkpoint phase, recovery progress, a slow query, every
//! curation ingest); the recorder retains the most recent
//! [`EventLog::capacity`] of them.
//!
//! Design constraints, in order:
//!
//! 1. **The disabled path allocates nothing.** [`Event`] identity
//!    fields are fixed-capacity inline strings ([`SmallStr`]) and field
//!    values are [`FieldValue`] (a `Copy` scalar or inline string), so
//!    a `record` call that finds the recorder disabled touches one
//!    relaxed atomic and returns — no heap, no clock.
//! 2. **Producers never block each other on a shared lock.** The write
//!    cursor is a single `fetch_add`; each claimed sequence number maps
//!    to one slot (`seq % capacity`), and slots are individually locked
//!    only for the microseconds of one struct move, so concurrent
//!    producers proceed in parallel and an event is never torn.
//! 3. **Loss is counted, never silent.** When the ring wraps, every
//!    overwritten (or belatedly-arriving) event increments both the
//!    recorder's internal drop count and the `obs.events_dropped`
//!    counter — [`EventLog::dropped`] is exact:
//!    `recorded() == len() + dropped()` at every quiescent point.
//!
//! Timestamps are coarse milliseconds since the recorder's first use
//! ([`Event::ts_ms`]); ordering questions should use `seq`, which is
//! globally unique and strictly increasing.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// Inline string capacity of [`SmallStr`] (bytes).
pub const SMALL_STR: usize = 23;

/// Maximum key/value fields per [`Event`].
pub const MAX_FIELDS: usize = 8;

/// Capacity of the process-global ring returned by [`events`].
pub const EVENT_RING_CAPACITY: usize = 8192;

/// The event vocabulary: every subsystem and the kinds its emission
/// sites record. A new emission site adds its kind here (and to
/// DESIGN.md §7) before it ships; [`validate_jsonl`] and the
/// observability tests check recorded events against this table.
pub const EVENT_KINDS: &[(&str, &[&str])] = &[
    (
        "core",
        &[
            "ingest",
            "ingest.stages",
            "recovery.snapshot",
            "recovery.complete",
            "checkpoint.serialize",
            "checkpoint.complete",
            "index.create",
            "index.drop",
            "index.advise",
            "mode.degrade",
            "mode.recover",
            "thread.panic",
            "thread.restart",
            "shard.map",
            "shard.recovery",
            "shard.seal",
        ],
    ),
    (
        "txn",
        &[
            "recovery.snapshot",
            "recovery.snapshot_drop",
            "recovery.segment",
            "recovery.truncated",
            "recovery.scan",
            "group_commit.flush",
            "wal.append",
            "wal.fsync",
            "segment.seal",
            "segment.rotate",
            "segment.prune",
            // The checkpoint phases, emitted as `checkpoint.{phase}`.
            "checkpoint.write",
            "checkpoint.sync",
            "checkpoint.rename",
            "checkpoint.prune",
            "fault.injected",
        ],
    ),
    ("query", &["scan.parallel", "slow", "index.scan"]),
    ("storage", &["cluster.build"]),
    ("er", &["merge"]),
    ("obs", &["warn", "watch.fired", "watch.resolved"]),
    ("lock", &["contended"]),
];

/// True when `(subsystem, kind)` is in [`EVENT_KINDS`].
pub fn is_known_event(subsystem: &str, kind: &str) -> bool {
    EVENT_KINDS
        .iter()
        .any(|(s, kinds)| *s == subsystem && kinds.contains(&kind))
}

/// A fixed-capacity inline string: up to [`SMALL_STR`] bytes, truncated
/// at a character boundary. `Copy`, allocation-free — the building
/// block that keeps the event hot path off the heap.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SmallStr {
    len: u8,
    buf: [u8; SMALL_STR],
}

impl SmallStr {
    /// Build from `s`, truncating to the longest prefix of at most
    /// [`SMALL_STR`] bytes that ends on a char boundary.
    pub fn new(s: &str) -> SmallStr {
        let mut end = s.len().min(SMALL_STR);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; SMALL_STR];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        SmallStr {
            len: end as u8,
            buf,
        }
    }

    /// The stored text.
    pub fn as_str(&self) -> &str {
        // Construction only ever copies a char-boundary prefix of valid
        // UTF-8, so this cannot fail; fall back to "" defensively.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl std::fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

impl std::fmt::Display for SmallStr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> Self {
        SmallStr::new(s)
    }
}

/// One event field value: a scalar or a small inline string. `Copy`, so
/// field slices live on the caller's stack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned scalar (counts, ids, nanoseconds; booleans as 0/1).
    U64(u64),
    /// A small inline string (shard names, source names, …).
    Str(SmallStr),
}

impl FieldValue {
    /// The scalar value, if this field is numeric.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::Str(_) => None,
        }
    }

    /// The string value, if this field is textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::U64(_) => None,
            FieldValue::Str(s) => Some(s.as_str()),
        }
    }

    fn to_json(self) -> serde_json::Value {
        match self {
            FieldValue::U64(v) => serde_json::Value::from(v),
            FieldValue::Str(s) => serde_json::Value::from(s.as_str()),
        }
    }
}

/// One structured flight-recorder record.
///
/// Identity is `(subsystem, kind)` — e.g. `("txn", "segment.rotate")`
/// or `("lock", "contended")` — plus up to [`MAX_FIELDS`] key/value
/// fields. Long free text (warning messages) rides in `message`, which
/// is `None` on every hot path.
#[derive(Clone, Debug)]
pub struct Event {
    /// Globally unique, strictly increasing sequence number.
    pub seq: u64,
    /// Coarse timestamp: milliseconds since the recorder's first use.
    pub ts_ms: u64,
    /// Emitting subsystem (`core`, `txn`, `query`, `storage`, `er`,
    /// `obs`, `lock`).
    pub subsystem: SmallStr,
    /// Event kind within the subsystem (`ingest`, `checkpoint.sync`, …).
    pub kind: SmallStr,
    fields: [(SmallStr, FieldValue); MAX_FIELDS],
    nfields: u8,
    /// Optional long-form text (warning messages); `None` on hot paths.
    pub message: Option<Arc<str>>,
}

impl Event {
    /// The key/value fields, in emission order.
    pub fn fields(&self) -> &[(SmallStr, FieldValue)] {
        &self.fields[..self.nfields as usize]
    }

    /// Value of the named field, if present.
    pub fn field(&self, key: &str) -> Option<FieldValue> {
        self.fields()
            .iter()
            .find(|(k, _)| k.as_str() == key)
            .map(|(_, v)| *v)
    }

    /// Numeric value of the named field, if present and numeric.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(|v| v.as_u64())
    }

    /// One-line JSON form (the JSONL export unit).
    pub fn to_json(&self) -> serde_json::Value {
        let mut obj = serde_json::Map::new();
        obj.insert("seq".into(), serde_json::Value::from(self.seq));
        obj.insert("ts_ms".into(), serde_json::Value::from(self.ts_ms));
        obj.insert(
            "subsystem".into(),
            serde_json::Value::from(self.subsystem.as_str()),
        );
        obj.insert("kind".into(), serde_json::Value::from(self.kind.as_str()));
        let mut fields = serde_json::Map::new();
        for (k, v) in self.fields() {
            fields.insert(k.as_str().to_string(), v.to_json());
        }
        obj.insert("fields".into(), serde_json::Value::Object(fields));
        if let Some(m) = &self.message {
            obj.insert("message".into(), serde_json::Value::from(&**m));
        }
        serde_json::Value::Object(obj)
    }

    /// Rebuild an event from its [`Self::to_json`] form (JSONL import).
    pub fn from_json(v: &serde_json::Value) -> Option<Event> {
        let obj = v.as_object()?;
        let mut fields = [(SmallStr::new(""), FieldValue::U64(0)); MAX_FIELDS];
        let mut nfields = 0u8;
        if let Some(fmap) = obj.get("fields").and_then(|f| f.as_object()) {
            for (k, fv) in fmap {
                if (nfields as usize) >= MAX_FIELDS {
                    break;
                }
                let value = if let Some(n) = fv.as_u64() {
                    FieldValue::U64(n)
                } else {
                    FieldValue::Str(SmallStr::new(fv.as_str()?))
                };
                fields[nfields as usize] = (SmallStr::new(k), value);
                nfields += 1;
            }
        }
        Some(Event {
            seq: obj.get("seq")?.as_u64()?,
            ts_ms: obj.get("ts_ms")?.as_u64()?,
            subsystem: SmallStr::new(obj.get("subsystem")?.as_str()?),
            kind: SmallStr::new(obj.get("kind")?.as_str()?),
            fields,
            nfields,
            message: obj.get("message").and_then(|m| m.as_str()).map(Arc::from),
        })
    }
}

/// Filter for the in-process query API ([`EventLog::select`]). All
/// criteria are conjunctive; unset criteria match everything.
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    subsystem: Option<String>,
    kind: Option<String>,
    kind_prefix: Option<String>,
    seq_min: Option<u64>,
    seq_max: Option<u64>,
}

impl EventFilter {
    /// Match everything (refine with the builder methods).
    pub fn new() -> EventFilter {
        EventFilter::default()
    }

    /// Keep events from this subsystem only.
    pub fn subsystem(mut self, s: &str) -> Self {
        self.subsystem = Some(s.to_string());
        self
    }

    /// Keep events of exactly this kind.
    pub fn kind(mut self, k: &str) -> Self {
        self.kind = Some(k.to_string());
        self
    }

    /// Keep events whose kind starts with this prefix (phase families
    /// like `checkpoint.` or `recovery.`).
    pub fn kind_prefix(mut self, p: &str) -> Self {
        self.kind_prefix = Some(p.to_string());
        self
    }

    /// Keep events with `seq >= min`.
    pub fn seq_min(mut self, min: u64) -> Self {
        self.seq_min = Some(min);
        self
    }

    /// Keep events with `seq <= max`.
    pub fn seq_max(mut self, max: u64) -> Self {
        self.seq_max = Some(max);
        self
    }

    /// Does `e` satisfy every set criterion?
    pub fn matches(&self, e: &Event) -> bool {
        self.subsystem
            .as_deref()
            .is_none_or(|s| e.subsystem.as_str() == s)
            && self.kind.as_deref().is_none_or(|k| e.kind.as_str() == k)
            && self
                .kind_prefix
                .as_deref()
                .is_none_or(|p| e.kind.as_str().starts_with(p))
            && self.seq_min.is_none_or(|m| e.seq >= m)
            && self.seq_max.is_none_or(|m| e.seq <= m)
    }
}

/// The bounded flight-recorder ring. See the [module docs](self) for
/// the design; use the process-global instance via [`events`].
pub struct EventLog {
    enabled: AtomicBool,
    next: AtomicU64,
    dropped: AtomicU64,
    /// Cached handle for the `obs.events_dropped` mirror so a wrapped
    /// ring does not pay a by-name registry lookup on every overwrite.
    dropped_counter: Arc<crate::Counter>,
    slots: Vec<Mutex<Option<Event>>>,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Coarse milliseconds since the recorder epoch (first observability
/// use in this process).
pub fn coarse_now_ms() -> u64 {
    epoch().elapsed().as_millis() as u64
}

impl EventLog {
    /// A fresh recorder retaining the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> EventLog {
        let capacity = capacity.max(1);
        EventLog {
            enabled: AtomicBool::new(true),
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            dropped_counter: crate::metrics().counter("obs.events_dropped"),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Whether `record` calls are live.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Off costs one relaxed load per call
    /// site (same contract as the metrics registry's gate).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Ring capacity (events retained).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including since-overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Events lost to ring wrap-around — exact, never silent:
    /// `recorded() == len() + dropped()` at every quiescent point.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.lock().is_some()).count()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one event. No-op (one atomic load, no allocation) when
    /// disabled. Field slices beyond [`MAX_FIELDS`] are truncated.
    pub fn record(&self, subsystem: &str, kind: &str, fields: &[(&str, FieldValue)]) {
        self.record_inner(subsystem, kind, fields, None);
    }

    /// [`Self::record`] with long-form text attached (warning
    /// messages). The message is heap-allocated — keep this off hot
    /// paths.
    pub fn record_with_message(
        &self,
        subsystem: &str,
        kind: &str,
        fields: &[(&str, FieldValue)],
        message: &str,
    ) {
        self.record_inner(subsystem, kind, fields, Some(Arc::from(message)));
    }

    fn record_inner(
        &self,
        subsystem: &str,
        kind: &str,
        fields: &[(&str, FieldValue)],
        message: Option<Arc<str>>,
    ) {
        if !self.enabled() {
            return;
        }
        let mut packed = [(SmallStr::new(""), FieldValue::U64(0)); MAX_FIELDS];
        let nfields = fields.len().min(MAX_FIELDS);
        for (dst, (k, v)) in packed.iter_mut().zip(fields.iter().take(MAX_FIELDS)) {
            *dst = (SmallStr::new(k), *v);
        }
        let ts_ms = coarse_now_ms();
        // Claim a sequence number — the only globally shared write.
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let event = Event {
            seq,
            ts_ms,
            subsystem: SmallStr::new(subsystem),
            kind: SmallStr::new(kind),
            fields: packed,
            nfields: nfields as u8,
            message,
        };
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock();
        match guard.as_ref() {
            // Normal wrap: displace the older occupant and count it.
            Some(old) if old.seq < seq => {
                *guard = Some(event);
                self.count_drop();
            }
            // A racing producer with a *newer* seq already filled this
            // slot; the belated event is the one lost.
            Some(_) => self.count_drop(),
            None => *guard = Some(event),
        }
    }

    fn count_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        // Mirror into the registry so snapshots carry the loss count.
        // Uses the cached raw counter handle: loss accounting bypasses
        // the metrics enable gate, like warnings do.
        self.dropped_counter.inc();
    }

    /// Every retained event, ascending by `seq`.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out: Vec<Event> = self.slots.iter().filter_map(|s| s.lock().clone()).collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The in-process query API: retained events matching `filter`,
    /// ascending by `seq`.
    pub fn select(&self, filter: &EventFilter) -> Vec<Event> {
        let mut out: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().clone())
            .filter(|e| filter.matches(e))
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Serialize every retained event as JSON Lines: one event object
    /// per line, ascending by `seq` (so `seq` is strictly increasing
    /// down the file).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&serde_json::to_string(&e.to_json()).unwrap_or_default());
            out.push('\n');
        }
        out
    }

    /// Drop every retained event and zero the loss count. Sequence
    /// numbers keep increasing across a clear (ordering stays global).
    /// Meant for test isolation and experiment phase boundaries.
    pub fn clear(&self) {
        for s in &self.slots {
            *s.lock() = None;
        }
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// Check a JSON Lines event dump ([`EventLog::export_jsonl`]): every
/// line is a JSON object, `seq` strictly increases down the file, every
/// `(subsystem, kind)` is in [`EVENT_KINDS`], and the batch-id contract
/// holds. That contract: any `batch_id` field is an unsigned integer
/// (it joins against `sys.events`), `wal.append` and `wal.fsync` carry
/// a positive one (they only exist inside a batch), and
/// `group_commit.flush` carries one. Returns the number of events, or
/// every problem found, one message per problem.
pub fn validate_jsonl(text: &str) -> Result<usize, Vec<String>> {
    let mut errors = Vec::new();
    let mut prev_seq: Option<u64> = None;
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = line.trim();
        if line.is_empty() {
            errors.push(format!("line {lineno}: empty line"));
            continue;
        }
        let ev = match serde_json::from_str(line) {
            Ok(v @ serde_json::Value::Object(_)) => v,
            Ok(_) => {
                errors.push(format!("line {lineno}: not a JSON object"));
                continue;
            }
            Err(e) => {
                errors.push(format!("line {lineno}: not valid JSON: {e}"));
                continue;
            }
        };
        match ev.get("seq").and_then(serde_json::Value::as_u64) {
            None => errors.push(format!("line {lineno}: missing integer 'seq'")),
            Some(seq) if prev_seq.is_some_and(|p| seq <= p) => errors.push(format!(
                "line {lineno}: seq {seq} not strictly greater than {}",
                prev_seq.unwrap_or_default()
            )),
            Some(seq) => prev_seq = Some(seq),
        }
        let subsystem = ev.get("subsystem").and_then(serde_json::Value::as_str);
        let kind = ev.get("kind").and_then(serde_json::Value::as_str);
        match (subsystem, kind) {
            (_, None | Some("")) => errors.push(format!("line {lineno}: missing or empty 'kind'")),
            (Some(s), Some(k)) if is_known_event(s, k) => {}
            (s, Some(k)) => errors.push(format!(
                "line {lineno}: unknown event kind {k:?} for subsystem {:?}",
                s.unwrap_or_default()
            )),
        }
        let batch_id = ev.get("fields").and_then(|f| f.get("batch_id"));
        let batch = batch_id.and_then(serde_json::Value::as_u64);
        if batch_id.is_some() && batch.is_none() {
            errors.push(format!("line {lineno}: malformed batch_id {batch_id:?}"));
        }
        match kind {
            Some(k @ ("wal.append" | "wal.fsync")) if batch.is_none_or(|b| b == 0) => {
                errors.push(format!("line {lineno}: {k} without a positive batch_id"));
            }
            Some("group_commit.flush") if batch.is_none() => {
                errors.push(format!(
                    "line {lineno}: group_commit.flush missing batch_id"
                ));
            }
            _ => {}
        }
        n += 1;
    }
    if n == 0 {
        errors.push("no events in dump".to_string());
    }
    if errors.is_empty() {
        Ok(n)
    } else {
        Err(errors)
    }
}

/// The process-global flight recorder used by all instrumentation
/// (capacity [`EVENT_RING_CAPACITY`]).
pub fn events() -> &'static EventLog {
    static GLOBAL: OnceLock<EventLog> = OnceLock::new();
    GLOBAL.get_or_init(|| EventLog::with_capacity(EVENT_RING_CAPACITY))
}

/// Record one event into the process-global recorder — the call-site
/// shorthand used throughout the tree:
/// `scdb_obs::event("txn", "segment.rotate", &[("seq", F::U64(n))])`.
pub fn event(subsystem: &str, kind: &str, fields: &[(&str, FieldValue)]) {
    events().record(subsystem, kind, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_str_truncates_on_char_boundary() {
        assert_eq!(SmallStr::new("abc").as_str(), "abc");
        let long = "x".repeat(40);
        assert_eq!(SmallStr::new(&long).as_str().len(), SMALL_STR);
        // Multi-byte char straddling the boundary is dropped whole.
        let tricky = format!("{}é", "a".repeat(SMALL_STR - 1));
        let s = SmallStr::new(&tricky);
        assert_eq!(s.as_str(), "a".repeat(SMALL_STR - 1));
    }

    #[test]
    fn record_select_and_fields() {
        let log = EventLog::with_capacity(16);
        log.record(
            "txn",
            "segment.rotate",
            &[
                ("seq", FieldValue::U64(3)),
                ("shard", FieldValue::Str("a".into())),
            ],
        );
        log.record("core", "ingest", &[("entity", FieldValue::U64(7))]);
        let all = log.snapshot();
        assert_eq!(all.len(), 2);
        assert!(all[0].seq < all[1].seq);
        let txn = log.select(&EventFilter::new().subsystem("txn"));
        assert_eq!(txn.len(), 1);
        assert_eq!(txn[0].kind.as_str(), "segment.rotate");
        assert_eq!(txn[0].field_u64("seq"), Some(3));
        assert_eq!(txn[0].field("shard").unwrap().as_str(), Some("a"));
        assert!(
            log.select(&EventFilter::new().kind_prefix("segment."))
                .len()
                == 1
        );
        let none = log.select(&EventFilter::new().subsystem("txn").kind("nope"));
        assert!(none.is_empty());
    }

    #[test]
    fn seq_range_filter() {
        let log = EventLog::with_capacity(16);
        for i in 0..10u64 {
            log.record("t", "k", &[("i", FieldValue::U64(i))]);
        }
        let mid = log.select(&EventFilter::new().seq_min(3).seq_max(5));
        assert_eq!(mid.len(), 3);
        assert_eq!(mid[0].seq, 3);
        assert_eq!(mid[2].seq, 5);
    }

    #[test]
    fn overwrite_accounting_is_exact() {
        let log = EventLog::with_capacity(8);
        for i in 0..20u64 {
            log.record("t", "k", &[("i", FieldValue::U64(i))]);
        }
        assert_eq!(log.recorded(), 20);
        assert_eq!(log.len(), 8);
        assert_eq!(log.dropped(), 12, "every displaced event is counted");
        let snap = log.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>(), "newest events win");
        log.clear();
        assert_eq!(log.len(), 0);
        assert_eq!(log.dropped(), 0);
        log.record("t", "k", &[]);
        assert_eq!(log.snapshot()[0].seq, 20, "seq stays monotone across clear");
    }

    #[test]
    fn disabled_path_records_nothing() {
        let log = EventLog::with_capacity(4);
        log.set_enabled(false);
        log.record("t", "k", &[("i", FieldValue::U64(1))]);
        assert!(log.is_empty());
        assert_eq!(log.recorded(), 0);
        log.set_enabled(true);
        log.record("t", "k", &[]);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn jsonl_round_trip() {
        let log = EventLog::with_capacity(8);
        log.record(
            "txn",
            "checkpoint.sync",
            &[("ns", FieldValue::U64(1234)), ("seg", FieldValue::U64(2))],
        );
        log.record_with_message("obs", "warn", &[], "torn tail cut during recovery");
        let jsonl = log.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let mut prev = None;
        for line in &lines {
            let v = serde_json::from_str(line).expect("line parses");
            let e = Event::from_json(&v).expect("event decodes");
            if let Some(p) = prev {
                assert!(e.seq > p, "seq strictly increasing");
            }
            prev = Some(e.seq);
        }
        let warn = Event::from_json(&serde_json::from_str(lines[1]).unwrap()).unwrap();
        assert_eq!(warn.subsystem.as_str(), "obs");
        assert_eq!(warn.kind.as_str(), "warn");
        assert_eq!(
            warn.message.as_deref(),
            Some("torn tail cut during recovery")
        );
        let sync = Event::from_json(&serde_json::from_str(lines[0]).unwrap()).unwrap();
        assert_eq!(sync.field_u64("ns"), Some(1234));
        assert_eq!(sync.field_u64("seg"), Some(2));
        assert!(sync.message.is_none());
    }

    #[test]
    fn field_overflow_truncates() {
        let log = EventLog::with_capacity(4);
        let fields: Vec<(String, FieldValue)> = (0..12)
            .map(|i| (format!("f{i}"), FieldValue::U64(i)))
            .collect();
        let borrowed: Vec<(&str, FieldValue)> =
            fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        log.record("t", "k", &borrowed);
        let e = &log.snapshot()[0];
        assert_eq!(e.fields().len(), MAX_FIELDS);
        assert_eq!(e.field_u64("f0"), Some(0));
        assert!(e.field("f11").is_none());
    }

    #[test]
    fn validate_jsonl_accepts_a_real_dump_and_names_each_problem() {
        let log = EventLog::with_capacity(8);
        log.record("txn", "wal.append", &[("batch_id", FieldValue::U64(3))]);
        log.record(
            "txn",
            "group_commit.flush",
            &[("batch_id", FieldValue::U64(0))],
        );
        log.record_with_message("obs", "warn", &[], "note");
        let good = log.export_jsonl();
        assert_eq!(validate_jsonl(&good), Ok(3));
        assert!(is_known_event("txn", "checkpoint.rename"));
        assert!(!is_known_event("core", "checkpoint.rename"));

        let bad_lines = [
            (r#"[1]"#, "not a JSON object"),
            (r#"{"seq":1,"subsystem":"txn""#, "not valid JSON"),
            (
                r#"{"subsystem":"er","kind":"merge"}"#,
                "missing integer 'seq'",
            ),
            (
                r#"{"seq":9,"subsystem":"core","kind":"wal.append"}"#,
                "unknown event kind",
            ),
            (
                r#"{"seq":10,"subsystem":"txn","kind":"wal.fsync","fields":{}}"#,
                "without a positive batch_id",
            ),
            (
                r#"{"seq":11,"subsystem":"txn","kind":"wal.fsync","fields":{"batch_id":0}}"#,
                "without a positive batch_id",
            ),
            (
                r#"{"seq":12,"subsystem":"txn","kind":"group_commit.flush","fields":{}}"#,
                "missing batch_id",
            ),
            (
                r#"{"seq":13,"subsystem":"er","kind":"merge","fields":{"batch_id":"x"}}"#,
                "malformed batch_id",
            ),
            (
                r#"{"seq":2,"subsystem":"er","kind":"merge"}"#,
                "not strictly greater",
            ),
            ("", "empty line"),
        ];
        for (line, want) in bad_lines {
            let errors = validate_jsonl(&format!("{}{line}\n", good)).unwrap_err();
            assert!(
                errors.iter().any(|e| e.contains(want)),
                "{line:?}: want {want:?}, got {errors:?}"
            );
        }
        assert_eq!(
            validate_jsonl(""),
            Err(vec!["no events in dump".to_string()])
        );
    }
}
