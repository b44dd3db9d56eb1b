//! Checkpoint snapshot format for [`crate::Db`].
//!
//! A snapshot is a sequence of CRC-framed records (the framing lives in
//! `scdb_txn::frame`; this module only defines the payloads) that
//! materializes the *durable* portion of a database: the symbol order,
//! sources, rows in global ingest order with their final entity
//! assignments, the resolver's cached cross-source alignments, the
//! property graph, each entity's identity, and the kv/enrichment store.
//! Recovery installs these records directly — no entity resolution
//! re-runs — so checkpointed recovery costs O(data), not O(data × ER
//! comparisons), and cannot diverge from the state that was snapshotted
//! (replaying merges through the live pipeline would be order-sensitive).
//!
//! A `Node` frame lists the node's records; its attribute list is
//! written empty and read past, so a checkpoint whose nodes still
//! carried a copy of their attributes opens. The names registered to
//! entities are rebuilt from the `Row` frames as they install, so no
//! `Name` frame is written; one read from an older checkpoint names a
//! registration its row already claimed.
//!
//! Record order inside a snapshot is load-bearing: a `Symbols` record
//! comes first (after a sharded snapshot's `ShardState`), so the reopened
//! symbol table orders attributes as the checkpointing one did and a row
//! without an identity attribute is keyed by the same first string; then
//! `Source` records (row installs need the stores), then `Row` (graph
//! nodes refer to record ids), then `Alignment` (restored once every
//! row is adopted), then `Node` before `Edge` (edges need endpoints),
//! then the index maps, the kv store, `Meta`, and a final `Tail` whose
//! count must match — a snapshot without its `Tail` is a torn write and
//! is rejected wholesale.
//!
//! The semantic layer (ontology, cached saturation, trained models) is
//! deliberately absent: it is derived or user-supplied configuration,
//! not curated state, and is documented as non-durable (see ROADMAP).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use scdb_txn::wal::{
    get_attrs, get_count, get_opt_str, get_str, get_value, need, put_attrs, put_opt_str, put_str,
    put_value,
};
use scdb_txn::TxnError;
use scdb_types::Value;

use crate::error::CoreError;

/// One snapshot payload (one CRC frame in the snapshot file).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SnapshotRecord {
    /// A registered source, in registration order.
    Source {
        name: String,
        identity_attr: Option<String>,
    },
    /// One stored row, in *global ingest order* across all sources, with
    /// its final (post-merge) entity assignment.
    Row {
        source: String,
        entity: u64,
        attrs: Vec<(String, Value)>,
        text: Option<String>,
    },
    /// A property-graph node: the records fused into it, in order.
    Node {
        entity: u64,
        records: Vec<(u32, u64)>,
    },
    /// One source pair's cached attribute alignment: the resolver's
    /// `(left, right, weight)` triples for sources `a < b`, and the
    /// number of rows it had seen when it built them.
    Alignment {
        a: u32,
        b: u32,
        built_at: u64,
        pairs: Vec<(String, String, f64)>,
    },
    /// A discovered link (provenance: inferred, certain).
    Edge {
        from: u64,
        to: u64,
        role: String,
        source: u32,
        tick: u64,
    },
    /// One `normalized name → entity` registration: read from older
    /// checkpoints, no longer written.
    Name { key: String, entity: u64 },
    /// One `entity → identity key` index entry.
    Ident { entity: u64, key: String },
    /// Latest version of one kv/enrichment key.
    Kv {
        key: u64,
        value: Option<Value>,
        enrichment: bool,
    },
    /// Curation counters and the logical clock.
    Meta {
        records: u64,
        merges: u64,
        links: u64,
        tick: u64,
    },
    /// A secondary-index definition. Contents are never snapshotted —
    /// they rebuild deterministically from the installed rows — but the
    /// definitions must ride along because checkpointing truncates the
    /// WAL records that created them.
    IndexDef {
        name: String,
        source: String,
        attr: String,
        kind: u8,
    },
    /// The symbol table's names in symbol-id order. Absent from older
    /// checkpoints, whose symbols are interned as their rows bring them.
    Symbols { names: Vec<String> },
    /// Terminator: `count` = number of records before it. A snapshot
    /// whose last record is not a matching `Tail` is rejected.
    Tail { count: u64 },
    /// Shard identity and the slot→shard routing table of a
    /// range-sharded database (first record of every shard snapshot when
    /// `shards > 1`; absent on unsharded snapshots). Validated on
    /// install: a reopened database must route identically, or recovery
    /// refuses rather than silently scattering an entity's future
    /// records onto different shards than its past ones.
    ShardState {
        shard: u32,
        shards: u32,
        slots: Vec<u32>,
    },
}

const TAG_SOURCE: u8 = 1;
const TAG_ROW: u8 = 2;
const TAG_NODE: u8 = 3;
const TAG_EDGE: u8 = 4;
const TAG_NAME: u8 = 5;
const TAG_IDENT: u8 = 6;
const TAG_KV: u8 = 7;
const TAG_META: u8 = 8;
const TAG_TAIL: u8 = 9;
const TAG_INDEX_DEF: u8 = 10;
const TAG_SHARD_STATE: u8 = 11;
const TAG_ALIGNMENT: u8 = 12;
const TAG_SYMBOLS: u8 = 13;

impl SnapshotRecord {
    /// Serialize into a standalone frame payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            SnapshotRecord::Source {
                name,
                identity_attr,
            } => {
                buf.put_u8(TAG_SOURCE);
                put_str(&mut buf, name);
                put_opt_str(&mut buf, identity_attr);
            }
            SnapshotRecord::Row {
                source,
                entity,
                attrs,
                text,
            } => {
                buf.put_u8(TAG_ROW);
                put_str(&mut buf, source);
                buf.put_u64(*entity);
                put_attrs(&mut buf, attrs);
                put_opt_str(&mut buf, text);
            }
            SnapshotRecord::Node { entity, records } => {
                buf.put_u8(TAG_NODE);
                buf.put_u64(*entity);
                put_attrs(&mut buf, &[]);
                buf.put_u32(records.len() as u32);
                for (src, off) in records {
                    buf.put_u32(*src);
                    buf.put_u64(*off);
                }
            }
            SnapshotRecord::Alignment {
                a,
                b,
                built_at,
                pairs,
            } => {
                buf.put_u8(TAG_ALIGNMENT);
                buf.put_u32(*a);
                buf.put_u32(*b);
                buf.put_u64(*built_at);
                buf.put_u32(pairs.len() as u32);
                for (left, right, weight) in pairs {
                    put_str(&mut buf, left);
                    put_str(&mut buf, right);
                    buf.put_u64(weight.to_bits());
                }
            }
            SnapshotRecord::Edge {
                from,
                to,
                role,
                source,
                tick,
            } => {
                buf.put_u8(TAG_EDGE);
                buf.put_u64(*from);
                buf.put_u64(*to);
                put_str(&mut buf, role);
                buf.put_u32(*source);
                buf.put_u64(*tick);
            }
            SnapshotRecord::Name { key, entity } => {
                buf.put_u8(TAG_NAME);
                put_str(&mut buf, key);
                buf.put_u64(*entity);
            }
            SnapshotRecord::Ident { entity, key } => {
                buf.put_u8(TAG_IDENT);
                buf.put_u64(*entity);
                put_str(&mut buf, key);
            }
            SnapshotRecord::Kv {
                key,
                value,
                enrichment,
            } => {
                buf.put_u8(TAG_KV);
                buf.put_u64(*key);
                buf.put_u8(u8::from(*enrichment));
                put_value(&mut buf, value);
            }
            SnapshotRecord::Meta {
                records,
                merges,
                links,
                tick,
            } => {
                buf.put_u8(TAG_META);
                buf.put_u64(*records);
                buf.put_u64(*merges);
                buf.put_u64(*links);
                buf.put_u64(*tick);
            }
            SnapshotRecord::IndexDef {
                name,
                source,
                attr,
                kind,
            } => {
                buf.put_u8(TAG_INDEX_DEF);
                put_str(&mut buf, name);
                put_str(&mut buf, source);
                put_str(&mut buf, attr);
                buf.put_u8(*kind);
            }
            SnapshotRecord::Symbols { names } => {
                buf.put_u8(TAG_SYMBOLS);
                buf.put_u32(names.len() as u32);
                for name in names {
                    put_str(&mut buf, name);
                }
            }
            SnapshotRecord::Tail { count } => {
                buf.put_u8(TAG_TAIL);
                buf.put_u64(*count);
            }
            SnapshotRecord::ShardState {
                shard,
                shards,
                slots,
            } => {
                buf.put_u8(TAG_SHARD_STATE);
                buf.put_u32(*shard);
                buf.put_u32(*shards);
                buf.put_u32(slots.len() as u32);
                for s in slots {
                    buf.put_u32(*s);
                }
            }
        }
        buf.freeze().as_slice().to_vec()
    }

    /// Decode one frame payload.
    pub(crate) fn decode(buf: Bytes) -> Result<SnapshotRecord, CoreError> {
        Self::decode_fields(buf).map_err(|_| {
            CoreError::Recovery("snapshot record is truncated or malformed".to_string())
        })
    }

    fn decode_fields(mut buf: Bytes) -> Result<SnapshotRecord, TxnError> {
        let buf = &mut buf;
        need(buf, 1, 0)?;
        let rec = match buf.get_u8() {
            TAG_SOURCE => SnapshotRecord::Source {
                name: get_str(buf, 0)?,
                identity_attr: get_opt_str(buf, 0)?,
            },
            TAG_ROW => {
                let source = get_str(buf, 0)?;
                need(buf, 8, 0)?;
                SnapshotRecord::Row {
                    source,
                    entity: buf.get_u64(),
                    attrs: get_attrs(buf, 0)?,
                    text: get_opt_str(buf, 0)?,
                }
            }
            TAG_NODE => {
                need(buf, 8, 0)?;
                let entity = buf.get_u64();
                // Attributes are folded from the records: read past any.
                get_attrs(buf, 0)?;
                let n = get_count(buf, 12, 0)?;
                SnapshotRecord::Node {
                    entity,
                    records: (0..n).map(|_| (buf.get_u32(), buf.get_u64())).collect(),
                }
            }
            TAG_ALIGNMENT => {
                need(buf, 16, 0)?;
                let a = buf.get_u32();
                let b = buf.get_u32();
                let built_at = buf.get_u64();
                // A triple is at least two length prefixes and the weight.
                let n = get_count(buf, 16, 0)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let left = get_str(buf, 0)?;
                    let right = get_str(buf, 0)?;
                    need(buf, 8, 0)?;
                    pairs.push((left, right, f64::from_bits(buf.get_u64())));
                }
                SnapshotRecord::Alignment {
                    a,
                    b,
                    built_at,
                    pairs,
                }
            }
            TAG_EDGE => {
                need(buf, 16, 0)?;
                let from = buf.get_u64();
                let to = buf.get_u64();
                let role = get_str(buf, 0)?;
                need(buf, 12, 0)?;
                SnapshotRecord::Edge {
                    from,
                    to,
                    role,
                    source: buf.get_u32(),
                    tick: buf.get_u64(),
                }
            }
            TAG_NAME => {
                let key = get_str(buf, 0)?;
                need(buf, 8, 0)?;
                SnapshotRecord::Name {
                    key,
                    entity: buf.get_u64(),
                }
            }
            TAG_IDENT => {
                need(buf, 8, 0)?;
                SnapshotRecord::Ident {
                    entity: buf.get_u64(),
                    key: get_str(buf, 0)?,
                }
            }
            TAG_KV => {
                need(buf, 9, 0)?;
                SnapshotRecord::Kv {
                    key: buf.get_u64(),
                    enrichment: buf.get_u8() != 0,
                    value: get_value(buf, 0)?,
                }
            }
            TAG_META => {
                need(buf, 32, 0)?;
                SnapshotRecord::Meta {
                    records: buf.get_u64(),
                    merges: buf.get_u64(),
                    links: buf.get_u64(),
                    tick: buf.get_u64(),
                }
            }
            TAG_INDEX_DEF => {
                let name = get_str(buf, 0)?;
                let source = get_str(buf, 0)?;
                let attr = get_str(buf, 0)?;
                need(buf, 1, 0)?;
                SnapshotRecord::IndexDef {
                    name,
                    source,
                    attr,
                    kind: buf.get_u8(),
                }
            }
            TAG_SYMBOLS => {
                // A name is at least its length prefix.
                let n = get_count(buf, 4, 0)?;
                SnapshotRecord::Symbols {
                    names: (0..n).map(|_| get_str(buf, 0)).collect::<Result<_, _>>()?,
                }
            }
            TAG_TAIL => {
                need(buf, 8, 0)?;
                SnapshotRecord::Tail {
                    count: buf.get_u64(),
                }
            }
            TAG_SHARD_STATE => {
                need(buf, 8, 0)?;
                let shard = buf.get_u32();
                let shards = buf.get_u32();
                let n = get_count(buf, 4, 0)?;
                SnapshotRecord::ShardState {
                    shard,
                    shards,
                    slots: (0..n).map(|_| buf.get_u32()).collect(),
                }
            }
            _ => return Err(TxnError::CorruptLog { offset: 0 }),
        };
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;

    /// One record of every kind.
    fn samples() -> Vec<SnapshotRecord> {
        vec![
            SnapshotRecord::Source {
                name: "drugbank".into(),
                identity_attr: Some("drug".into()),
            },
            SnapshotRecord::Source {
                name: "feed".into(),
                identity_attr: None,
            },
            SnapshotRecord::Row {
                source: "drugbank".into(),
                entity: 7,
                attrs: vec![
                    ("drug".into(), Value::str("Warfarin")),
                    ("dose".into(), Value::Float(5.1)),
                ],
                text: Some("raw json".into()),
            },
            SnapshotRecord::Node {
                entity: 7,
                records: vec![(0, 0), (1, 3)],
            },
            SnapshotRecord::Alignment {
                a: 0,
                b: 2,
                built_at: 256,
                pairs: vec![
                    ("drug".into(), "name".into(), 0.75),
                    ("target".into(), "gene".into(), f64::MIN_POSITIVE),
                ],
            },
            SnapshotRecord::Alignment {
                a: 1,
                b: 2,
                built_at: 0,
                pairs: Vec::new(),
            },
            SnapshotRecord::Edge {
                from: 7,
                to: 9,
                role: "targets".into(),
                source: 1,
                tick: 42,
            },
            SnapshotRecord::Name {
                key: "warfarin".into(),
                entity: 7,
            },
            SnapshotRecord::Ident {
                entity: 7,
                key: "warfarin".into(),
            },
            SnapshotRecord::Kv {
                key: 3,
                value: Some(Value::Int(9)),
                enrichment: true,
            },
            SnapshotRecord::Kv {
                key: 4,
                value: None,
                enrichment: false,
            },
            SnapshotRecord::Meta {
                records: 10,
                merges: 2,
                links: 3,
                tick: 11,
            },
            SnapshotRecord::IndexDef {
                name: "ix_drug".into(),
                source: "drugbank".into(),
                attr: "drug".into(),
                kind: 1,
            },
            SnapshotRecord::Symbols {
                names: vec!["drug".into(), "ärztin".into(), String::new()],
            },
            SnapshotRecord::Symbols { names: Vec::new() },
            SnapshotRecord::Tail { count: 12 },
            SnapshotRecord::ShardState {
                shard: 2,
                shards: 4,
                slots: (0..64u32).map(|i| i % 4).collect(),
            },
        ]
    }

    #[test]
    fn all_variants_roundtrip() {
        for rec in samples() {
            let back = SnapshotRecord::decode(Bytes::from(rec.encode())).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn truncated_payload_is_rejected() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                let res = SnapshotRecord::decode(Bytes::from(&bytes[..cut]));
                assert!(res.is_err(), "{rec:?} cut at {cut} must not decode");
            }
        }
    }

    /// A `Node` frame written when nodes carried a copy of their
    /// attributes decodes to the same node; the attributes are read past.
    #[test]
    fn node_attributes_are_read_past() {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_NODE);
        buf.put_u64(7);
        put_attrs(&mut buf, &[("drug".into(), Value::str("Warfarin"))]);
        buf.put_u32(1);
        buf.put_u32(0);
        buf.put_u64(3);
        assert_eq!(
            SnapshotRecord::decode(buf.freeze()).unwrap(),
            SnapshotRecord::Node {
                entity: 7,
                records: vec![(0, 3)],
            }
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let res = SnapshotRecord::decode(Bytes::from(vec![99u8, 0, 0]));
        assert!(matches!(res, Err(CoreError::Recovery(_))));
    }

    /// A count is bounded by the bytes left, as in the log: a claim of
    /// `u32::MAX` elements is an error, not an allocation.
    #[test]
    fn counts_past_the_payload_are_rejected() {
        let max: &[u8] = &u32::MAX.to_be_bytes();
        let inputs: [&[&[u8]]; 5] = [
            // A row (source "s", entity 0) claiming u32::MAX attributes.
            &[&[TAG_ROW, 0, 0, 0, 1, b's'], &[0; 8], max, &[0; 16]],
            // A node with no attributes claiming u32::MAX records.
            &[&[TAG_NODE], &[0; 8], &[0; 4], max, &[0; 12]],
            // A shard state claiming u32::MAX slots.
            &[&[TAG_SHARD_STATE], &[0; 8], max, &[0; 8]],
            // An alignment claiming u32::MAX attribute pairs.
            &[&[TAG_ALIGNMENT], &[0; 16], max, &[0; 32]],
            // A symbol table claiming u32::MAX names.
            &[&[TAG_SYMBOLS], max, &[0; 16]],
        ];
        for parts in inputs {
            let res = SnapshotRecord::decode(Bytes::from(parts.concat()));
            assert!(matches!(res, Err(CoreError::Recovery(_))), "{parts:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random bytes behind every tag — each arm sees garbage, not
        /// just the catch-all — decode or err, never panic.
        #[test]
        fn random_tails_never_panic(tag in 0u8..15, tail in vec(any::<u8>(), 0..64)) {
            let mut bytes = vec![tag];
            bytes.extend(&tail);
            let _ = SnapshotRecord::decode(Bytes::from(bytes));
        }
    }
}
