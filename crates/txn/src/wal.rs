//! The log record vocabulary and its codec.
//!
//! Every mutation the database makes durable is one [`LogRecord`]; a
//! transaction's records are appended together with a seal
//! ([`LogRecord::seal`]) that commits them, and recovery applies only
//! sealed transactions. [`crate::durable::DurableWal`] frames each
//! encoded record (`[len][crc32][payload]`) onto a segmented medium; the
//! core crate's `Db::open` replays what it reads back, commit-gated.
//!
//! Besides the kv write (`Write`), the log carries the curation
//! pipeline's own mutations: `SourceReg` (source registration),
//! `IngestRow` (one raw record entering the instance layer),
//! `DiscoverLinks` (an instance-level link discovery sweep), `Enrich`
//! (an auto-committed curation write) and the index DDL records.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use scdb_types::Value;

use crate::error::TxnError;

/// A single log record.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A write of `key` by `txn` (None = delete).
    Write {
        /// Writing transaction.
        txn: u64,
        /// Key written.
        key: u64,
        /// New value (`None` is a tombstone).
        value: Option<Value>,
    },
    /// The seal, and the only commit record: every transaction in
    /// `txns` committed atomically with this record, in list (= apply)
    /// order. A torn or missing seal discards *all* of its transactions
    /// — the log never exposes a partial batch. Build it with
    /// [`LogRecord::seal`].
    ///
    /// A *cross-shard* batch carries a non-empty `shards` vector: one
    /// `(shard, first_txn)` entry per participating write shard, in
    /// ascending shard order. The identical vector is sealed into every
    /// participant's log, and recovery commits the group only when every
    /// participant's log contains its matching seal — a torn seal on any
    /// shard discards the whole batch on all of them.
    CommitGroup {
        /// Sealed transactions, in log (= apply) order.
        txns: Vec<u64>,
        /// Cross-shard participant vector: `(shard, first_txn)` per
        /// participating shard, ascending; empty for single-shard seals.
        shards: Vec<(u32, u64)>,
    },
    /// A source registration in the instance layer.
    SourceReg {
        /// Source name.
        name: String,
        /// Configured identity attribute, if any.
        identity_attr: Option<String>,
    },
    /// One raw record entering the instance layer via `Db::ingest`.
    IngestRow {
        /// The ingest transaction this row belongs to.
        txn: u64,
        /// Source name the row was ingested into.
        source: String,
        /// Attribute name/value pairs in record order.
        attrs: Vec<(String, Value)>,
        /// Free-text payload indexed alongside the row, if any.
        text: Option<String>,
    },
    /// An instance-level link discovery sweep (mutates the graph).
    DiscoverLinks {
        /// The ingest transaction sealing this sweep.
        txn: u64,
    },
    /// An auto-committed curation write to the kv/enrichment store.
    Enrich {
        /// Key written.
        key: u64,
        /// New value (`None` retracts).
        value: Option<Value>,
    },
    /// A secondary-index creation. Auto-sealed like `SourceReg`: the
    /// definition takes effect at this log position and the index
    /// contents rebuild deterministically from the rows visible at that
    /// point (contents are never logged). Checkpoints also carry the
    /// definitions, since checkpoint pruning drops pre-checkpoint
    /// segments.
    IndexCreate {
        /// Index name (unique across the database).
        name: String,
        /// Source whose rows are indexed.
        source: String,
        /// Indexed attribute.
        attr: String,
        /// Index-kind wire tag (`scdb-storage`'s `IndexKind::tag`).
        kind: u8,
    },
    /// A secondary-index drop (auto-sealed).
    IndexDrop {
        /// Index name.
        name: String,
    },
}

impl LogRecord {
    /// The seal that closes one append: commits `txns`, and — when more
    /// than one write shard takes part — carries the `(shard,
    /// first_txn)` participant vector that makes the batch atomic across
    /// their logs. A vector naming a single shard is dropped, since such
    /// a seal commit-gates within its own log.
    pub fn seal(txns: &[u64], shards: &[(u32, u64)]) -> LogRecord {
        LogRecord::CommitGroup {
            txns: txns.to_vec(),
            shards: if shards.len() > 1 {
                shards.to_vec()
            } else {
                Vec::new()
            },
        }
    }
}

const TAG_WRITE: u8 = 1;
/// A seal of exactly one transaction and no participant vector: the
/// 9-byte framing every lone row, kv commit and link sweep seals with.
const TAG_SEAL_ONE: u8 = 2;
const TAG_SOURCE_REG: u8 = 5;
const TAG_INGEST_ROW: u8 = 6;
const TAG_DISCOVER_LINKS: u8 = 7;
const TAG_ENRICH: u8 = 8;
/// Any other seal: a txn count and list, then — only when non-empty — a
/// participant count and `(shard, first_txn)` pairs.
const TAG_SEAL: u8 = 9;
const TAG_INDEX_CREATE: u8 = 10;
const TAG_INDEX_DROP: u8 = 11;

// The field codec below is shared with the core crate's snapshot files:
// both formats are built from the same strings, values, counts and
// attribute lists. Every decoder takes `at`, the offset its errors
// report, and never reads or allocates past the bytes it was given.

/// Serialize an optional [`Value`] in the WAL wire format.
pub fn put_value(buf: &mut BytesMut, v: &Option<Value>) {
    match v {
        None => buf.put_u8(0),
        Some(Value::Null) => buf.put_u8(1),
        Some(Value::Bool(b)) => {
            buf.put_u8(2);
            buf.put_u8(u8::from(*b));
        }
        Some(Value::Int(i)) => {
            buf.put_u8(3);
            buf.put_i64(*i);
        }
        Some(Value::Float(f)) => {
            buf.put_u8(4);
            buf.put_f64(*f);
        }
        Some(Value::Str(s)) => {
            buf.put_u8(5);
            put_str(buf, s);
        }
        Some(Value::Timestamp(t)) => {
            buf.put_u8(6);
            buf.put_i64(*t);
        }
        Some(other) => {
            // Bytes/Doc serialize via their textual rendering — the WAL is
            // for the scalar fast path; the core crate stores documents in
            // the instance layer, not through the WAL.
            buf.put_u8(5);
            put_str(buf, &other.render());
        }
    }
}

/// Decode an optional [`Value`] written by [`put_value`]. `at` is only
/// used to report the offset in the error.
pub fn get_value(buf: &mut Bytes, at: usize) -> Result<Option<Value>, TxnError> {
    need(buf, 1, at)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(Value::Null)),
        2 => need(buf, 1, at).map(|()| Some(Value::Bool(buf.get_u8() != 0))),
        3 => need(buf, 8, at).map(|()| Some(Value::Int(buf.get_i64()))),
        4 => need(buf, 8, at).map(|()| Some(Value::Float(buf.get_f64()))),
        5 => with_str(buf, at, |s| Some(Value::str(s))),
        6 => need(buf, 8, at).map(|()| Some(Value::Timestamp(buf.get_i64()))),
        _ => Err(TxnError::CorruptLog { offset: at }),
    }
}

/// Error unless `buf` holds at least `n` more bytes.
pub fn need(buf: &Bytes, n: usize, at: usize) -> Result<(), TxnError> {
    if buf.remaining() < n {
        Err(TxnError::CorruptLog { offset: at })
    } else {
        Ok(())
    }
}

/// Serialize a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Decode a length-prefixed UTF-8 string and hand it to `f` borrowed.
fn with_str<T>(buf: &mut Bytes, at: usize, f: impl FnOnce(&str) -> T) -> Result<T, TxnError> {
    let len = get_count(buf, 1, at)?;
    let bytes = buf.copy_to_bytes(len);
    std::str::from_utf8(&bytes)
        .map(f)
        .map_err(|_| TxnError::CorruptLog { offset: at })
}

/// Decode a string written by [`put_str`].
pub fn get_str(buf: &mut Bytes, at: usize) -> Result<String, TxnError> {
    with_str(buf, at, str::to_owned)
}

/// Serialize an optional string: a presence byte, then the string.
pub fn put_opt_str(buf: &mut BytesMut, s: &Option<String>) {
    match s {
        None => buf.put_u8(0),
        Some(s) => {
            buf.put_u8(1);
            put_str(buf, s);
        }
    }
}

/// Decode an optional string written by [`put_opt_str`].
pub fn get_opt_str(buf: &mut Bytes, at: usize) -> Result<Option<String>, TxnError> {
    need(buf, 1, at)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_str(buf, at)?)),
        _ => Err(TxnError::CorruptLog { offset: at }),
    }
}

/// Serialize an attribute list: a count, then each name and value.
pub fn put_attrs(buf: &mut BytesMut, attrs: &[(String, Value)]) {
    buf.put_u32(attrs.len() as u32);
    for (name, value) in attrs {
        put_str(buf, name);
        put_value(buf, &Some(value.clone()));
    }
}

/// Decode an attribute list written by [`put_attrs`].
pub fn get_attrs(buf: &mut Bytes, at: usize) -> Result<Vec<(String, Value)>, TxnError> {
    // An attribute is at least a length prefix and a value tag.
    let n = get_count(buf, 5, at)?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(buf, at)?;
        let value = get_value(buf, at)?.ok_or(TxnError::CorruptLog { offset: at })?;
        attrs.push((name, value));
    }
    Ok(attrs)
}

/// Serialize one record into `buf` (no framing — the durable layer adds
/// length + CRC32 around each record). The encoder alone picks a seal's
/// framing: the shortest one that holds it.
pub fn encode_record(buf: &mut BytesMut, record: &LogRecord) {
    match record {
        LogRecord::Write { txn, key, value } => {
            buf.put_u8(TAG_WRITE);
            buf.put_u64(*txn);
            buf.put_u64(*key);
            put_value(buf, value);
        }
        LogRecord::CommitGroup { txns, shards } => match (txns.as_slice(), shards.is_empty()) {
            ([txn], true) => {
                buf.put_u8(TAG_SEAL_ONE);
                buf.put_u64(*txn);
            }
            _ => {
                buf.put_u8(TAG_SEAL);
                buf.put_u32(txns.len() as u32);
                for txn in txns {
                    buf.put_u64(*txn);
                }
                if !shards.is_empty() {
                    buf.put_u32(shards.len() as u32);
                    for (shard, first_txn) in shards {
                        buf.put_u32(*shard);
                        buf.put_u64(*first_txn);
                    }
                }
            }
        },
        LogRecord::SourceReg {
            name,
            identity_attr,
        } => {
            buf.put_u8(TAG_SOURCE_REG);
            put_str(buf, name);
            put_opt_str(buf, identity_attr);
        }
        LogRecord::IngestRow {
            txn,
            source,
            attrs,
            text,
        } => {
            buf.put_u8(TAG_INGEST_ROW);
            buf.put_u64(*txn);
            put_str(buf, source);
            put_attrs(buf, attrs);
            put_opt_str(buf, text);
        }
        LogRecord::DiscoverLinks { txn } => {
            buf.put_u8(TAG_DISCOVER_LINKS);
            buf.put_u64(*txn);
        }
        LogRecord::Enrich { key, value } => {
            buf.put_u8(TAG_ENRICH);
            buf.put_u64(*key);
            put_value(buf, value);
        }
        LogRecord::IndexCreate {
            name,
            source,
            attr,
            kind,
        } => {
            buf.put_u8(TAG_INDEX_CREATE);
            put_str(buf, name);
            put_str(buf, source);
            put_str(buf, attr);
            buf.put_u8(*kind);
        }
        LogRecord::IndexDrop { name } => {
            buf.put_u8(TAG_INDEX_DROP);
            put_str(buf, name);
        }
    }
}

/// Read a `u32` count prefix for elements of at least `min_len` bytes
/// each: errors unless the rest of `data` can hold that many, so no
/// allocation is ever sized by an unchecked prefix.
pub fn get_count(data: &mut Bytes, min_len: usize, at: usize) -> Result<usize, TxnError> {
    need(data, 4, at)?;
    let n = data.get_u32() as usize;
    if data.remaining() / min_len < n {
        return Err(TxnError::CorruptLog { offset: at });
    }
    Ok(n)
}

/// Decode one record from `data` (the cursor advances past it). `at` is
/// the logical offset used in corruption errors.
pub fn decode_record(data: &mut Bytes, at: usize) -> Result<LogRecord, TxnError> {
    let corrupt = TxnError::CorruptLog { offset: at };
    if data.remaining() < 1 {
        return Err(corrupt);
    }
    let tag = data.get_u8();
    let fixed = match tag {
        TAG_WRITE => 16,
        TAG_SEAL_ONE | TAG_INGEST_ROW | TAG_DISCOVER_LINKS | TAG_ENRICH => 8,
        _ => 0,
    };
    if data.remaining() < fixed {
        return Err(corrupt);
    }
    match tag {
        TAG_WRITE => {
            let txn = data.get_u64();
            let key = data.get_u64();
            let value = get_value(data, at)?;
            Ok(LogRecord::Write { txn, key, value })
        }
        TAG_SEAL_ONE => Ok(LogRecord::CommitGroup {
            txns: vec![data.get_u64()],
            shards: Vec::new(),
        }),
        TAG_SEAL => {
            let n = get_count(data, 8, at)?;
            let txns = (0..n).map(|_| data.get_u64()).collect();
            // The participant suffix is present only for cross-shard seals.
            let shards = if data.has_remaining() {
                let m = get_count(data, 12, at)?;
                (0..m).map(|_| (data.get_u32(), data.get_u64())).collect()
            } else {
                Vec::new()
            };
            Ok(LogRecord::CommitGroup { txns, shards })
        }
        TAG_SOURCE_REG => {
            let name = get_str(data, at)?;
            let identity_attr = get_opt_str(data, at)?;
            Ok(LogRecord::SourceReg {
                name,
                identity_attr,
            })
        }
        TAG_INGEST_ROW => {
            let txn = data.get_u64();
            let source = get_str(data, at)?;
            let attrs = get_attrs(data, at)?;
            let text = get_opt_str(data, at)?;
            Ok(LogRecord::IngestRow {
                txn,
                source,
                attrs,
                text,
            })
        }
        TAG_DISCOVER_LINKS => Ok(LogRecord::DiscoverLinks {
            txn: data.get_u64(),
        }),
        TAG_ENRICH => {
            let key = data.get_u64();
            let value = get_value(data, at)?;
            Ok(LogRecord::Enrich { key, value })
        }
        TAG_INDEX_CREATE => {
            let name = get_str(data, at)?;
            let source = get_str(data, at)?;
            let attr = get_str(data, at)?;
            need(data, 1, at)?;
            let kind = data.get_u8();
            Ok(LogRecord::IndexCreate {
                name,
                source,
                attr,
                kind,
            })
        }
        TAG_INDEX_DROP => Ok(LogRecord::IndexDrop {
            name: get_str(data, at)?,
        }),
        _ => Err(corrupt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{DurableWal, FsyncPolicy, WalStore};
    use crate::fault::FailpointLog;
    use crate::mvcc::TxnManager;

    fn encode(record: &LogRecord) -> Bytes {
        let mut buf = BytesMut::new();
        encode_record(&mut buf, record);
        buf.freeze()
    }

    fn assert_roundtrip(records: &[LogRecord]) {
        for r in records {
            let mut bytes = encode(r);
            assert_eq!(&decode_record(&mut bytes, 0).unwrap(), r);
            assert!(bytes.is_empty(), "{r:?} decodes to its last byte");
        }
    }

    fn open(log: &FailpointLog) -> (DurableWal, crate::durable::WalRecovery) {
        DurableWal::open(Box::new(log.clone()), FsyncPolicy::Always, 1 << 20).unwrap()
    }

    fn sample() -> Vec<LogRecord> {
        vec![
            LogRecord::Write {
                txn: 1,
                key: 10,
                value: Some(Value::Int(1)),
            },
            LogRecord::Write {
                txn: 2,
                key: 20,
                value: Some(Value::str("uncommitted")),
            },
            LogRecord::seal(&[1], &[]),
            LogRecord::Write {
                txn: 3,
                key: 30,
                value: None,
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        assert_roundtrip(&sample());
    }

    #[test]
    fn roundtrip_all_value_kinds() {
        let writes: Vec<LogRecord> = [
            None,
            Some(Value::Null),
            Some(Value::Bool(true)),
            Some(Value::Int(-5)),
            Some(Value::Float(2.5)),
            Some(Value::str("héllo")),
            Some(Value::Timestamp(99)),
        ]
        .into_iter()
        .map(|value| LogRecord::Write {
            txn: 1,
            key: 0,
            value,
        })
        .collect();
        assert_roundtrip(&writes);
    }

    #[test]
    fn roundtrip_curation_records() {
        assert_roundtrip(&[
            LogRecord::SourceReg {
                name: "drugbank".into(),
                identity_attr: Some("drug".into()),
            },
            LogRecord::SourceReg {
                name: "free".into(),
                identity_attr: None,
            },
            LogRecord::IngestRow {
                txn: (1 << 63) | 7,
                source: "drugbank".into(),
                attrs: vec![
                    ("drug".into(), Value::str("Warfarin")),
                    ("dose".into(), Value::Float(5.1)),
                    ("ok".into(), Value::Bool(true)),
                ],
                text: Some("an anticoagulant".into()),
            },
            LogRecord::DiscoverLinks { txn: (1 << 63) | 8 },
            LogRecord::Enrich {
                key: 42,
                value: Some(Value::Int(9)),
            },
            LogRecord::Enrich {
                key: 42,
                value: None,
            },
        ]);
    }

    #[test]
    fn roundtrip_index_records() {
        assert_roundtrip(&[
            LogRecord::IndexCreate {
                name: "ix_drug".into(),
                source: "drugbank".into(),
                attr: "drug".into(),
                kind: 0,
            },
            LogRecord::IndexCreate {
                name: "ix_dose".into(),
                source: "drugbank".into(),
                attr: "dose".into(),
                kind: 1,
            },
            LogRecord::IndexDrop {
                name: "ix_drug".into(),
            },
        ]);
    }

    #[test]
    fn commit_group_roundtrip_and_recovery() {
        let seals = [
            LogRecord::seal(&[], &[]),
            LogRecord::seal(&[4], &[]),
            LogRecord::seal(&[4, 5, 6], &[(0, 4)]),
            LogRecord::seal(&[7], &[(0, 3), (2, 7)]),
        ];
        // A one-shard participant vector is dropped: it gates nothing.
        assert_eq!(seals[2], LogRecord::seal(&[4, 5, 6], &[]));
        assert_eq!(encode(&seals[1]).len(), 9, "lone seal: tag + txn");
        assert_eq!(encode(&seals[3]).as_slice()[0], TAG_SEAL);
        assert_roundtrip(&seals);
        // Whatever the framing, the seals come back from the medium as
        // built.
        let log = FailpointLog::new();
        open(&log).0.append_sealed(&seals).unwrap();
        assert_eq!(open(&log).1.records, seals);
    }

    #[test]
    fn torn_tail_truncated() {
        for r in sample() {
            let bytes = encode(&r);
            for cut in 0..bytes.len() {
                let mut torn = bytes.slice(0..cut);
                assert!(decode_record(&mut torn, 0).is_err(), "{r:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn crash_recover_end_to_end() {
        // Real transactions logged as they commit; the second one crashes
        // before its seal. The log hands back every clean record — the
        // unsealed tail included — and leaves commit gating to its
        // reader.
        let tm = TxnManager::new();
        let log = FailpointLog::new();
        let (mut wal, _) = open(&log);
        let mut t = tm.begin();
        t.write(1, Value::Int(100)).unwrap();
        let write = LogRecord::Write {
            txn: t.id(),
            key: 1,
            value: Some(Value::Int(100)),
        };
        wal.append_sealed(&[write.clone(), LogRecord::seal(&[t.id()], &[])])
            .unwrap();
        tm.commit(&mut t).unwrap();
        let t2 = tm.begin();
        let doomed = LogRecord::Write {
            txn: t2.id(),
            key: 2,
            value: Some(Value::Int(200)),
        };
        wal.append_sealed(std::slice::from_ref(&doomed)).unwrap();
        log.crash();
        std::mem::forget(wal);
        let (mut wal, rec) = open(&log);
        assert_eq!(
            rec.records,
            vec![write, LogRecord::seal(&[t.id()], &[]), doomed]
        );
        assert!(wal.next_txn_id() > t2.id(), "ids resume past the tail");
    }

    #[test]
    fn garbage_bytes_yield_empty_log_with_reported_truncation() {
        // A frame whose checksum holds but whose payload is no record.
        let log = FailpointLog::new();
        let garbage = crate::frame::frame_bytes(&[0xFF, 0x00, 0x01]);
        log.clone().append("wal-00000001.seg", &garbage).unwrap();
        let (_wal, rec) = open(&log);
        assert!(rec.records.is_empty());
        assert_eq!(rec.report.bytes_truncated, garbage.len() as u64);
        assert!(rec.report.corrupt_tail, "undecodable payload is corruption");
    }
}
