//! Secondary indexes over attribute values (OS.3 access paths).
//!
//! Two index shapes cover the ScQL comparison atoms: a **hash** index
//! answering point equality, and an **ordered** (B-tree-style) index
//! answering both equality and range predicates. Both map attribute
//! values to the row offsets holding them, in the owning source's
//! arrival order, so an index scan can reproduce exactly the rows (and
//! row order) a full scan would produce.
//!
//! Rows are only ever appended, so an index is filled in exactly two
//! ways: [`IndexSet::create`] builds it from the whole store, and
//! [`IndexSet::note_append`] adds each row the curation pipeline appends
//! under the instance-shard lock. Contents are never logged — they
//! rebuild deterministically from the row store during recovery, while
//! the *definitions* persist through the WAL and checkpoint snapshot.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use scdb_types::{Record, SymbolTable, Value};

use crate::row::RowStore;

/// The shape of a secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Point-equality index (hash map from value to row offsets).
    Hash,
    /// Ordered index (B-tree map) answering equality *and* ranges.
    Ordered,
}

impl IndexKind {
    /// Stable wire tag (WAL / snapshot encoding).
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::Hash => 0,
            IndexKind::Ordered => 1,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<IndexKind> {
        match tag {
            0 => Some(IndexKind::Hash),
            1 => Some(IndexKind::Ordered),
            _ => None,
        }
    }
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IndexKind::Hash => "hash",
            IndexKind::Ordered => "ordered",
        })
    }
}

/// The durable definition of a secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name (unique across the database).
    pub name: String,
    /// Source whose rows are indexed.
    pub source: String,
    /// Indexed attribute.
    pub attr: String,
    /// Index shape.
    pub kind: IndexKind,
}

/// A predicate pushed down into an index lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexPredicate {
    /// `attr = value`.
    Eq(Value),
    /// `attr` within the (half-)open range; each bound is
    /// `(value, inclusive)`.
    Range {
        /// Lower bound, if any.
        lo: Option<(Value, bool)>,
        /// Upper bound, if any.
        hi: Option<(Value, bool)>,
    },
}

#[derive(Debug)]
enum Backing {
    Hash(HashMap<Value, Vec<u64>>),
    Ordered(BTreeMap<Value, Vec<u64>>),
}

/// One secondary index: definition plus contents.
#[derive(Debug)]
pub struct SecondaryIndex {
    def: IndexDef,
    backing: Backing,
    entries: u64,
}

impl SecondaryIndex {
    /// An empty index for `def`.
    pub fn new(def: IndexDef) -> Self {
        let backing = match def.kind {
            IndexKind::Hash => Backing::Hash(HashMap::new()),
            IndexKind::Ordered => Backing::Ordered(BTreeMap::new()),
        };
        SecondaryIndex {
            def,
            backing,
            entries: 0,
        }
    }

    /// The definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Number of (value, offset) entries currently indexed.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Insert one row's value. Nulls are not indexed — a null never
    /// passes a filter (three-valued logic), so the index stays lean.
    pub fn insert(&mut self, value: &Value, offset: u64) {
        if value.is_null() {
            return;
        }
        let slot = match &mut self.backing {
            Backing::Hash(m) => m.entry(value.clone()).or_default(),
            Backing::Ordered(m) => m.entry(value.clone()).or_default(),
        };
        slot.push(offset);
        self.entries += 1;
    }

    /// True when this index can answer `pred`.
    pub fn supports(&self, pred: &IndexPredicate) -> bool {
        match (pred, self.def.kind) {
            (IndexPredicate::Eq(_), _) => true,
            (IndexPredicate::Range { .. }, IndexKind::Ordered) => true,
            (IndexPredicate::Range { .. }, IndexKind::Hash) => false,
        }
    }

    /// Row offsets matching `pred`, sorted ascending (arrival order), or
    /// `None` when the index shape cannot answer the predicate.
    pub fn lookup(&self, pred: &IndexPredicate) -> Option<Vec<u64>> {
        if !self.supports(pred) {
            return None;
        }
        let mut out: Vec<u64> = match (&self.backing, pred) {
            (Backing::Hash(m), IndexPredicate::Eq(v)) => m.get(v).cloned().unwrap_or_default(),
            (Backing::Ordered(m), IndexPredicate::Eq(v)) => m.get(v).cloned().unwrap_or_default(),
            (Backing::Ordered(m), IndexPredicate::Range { lo, hi }) => {
                use std::ops::Bound;
                let lower = match lo {
                    None => Bound::Unbounded,
                    Some((v, true)) => Bound::Included(v.clone()),
                    Some((v, false)) => Bound::Excluded(v.clone()),
                };
                let upper = match hi {
                    None => Bound::Unbounded,
                    Some((v, true)) => Bound::Included(v.clone()),
                    Some((v, false)) => Bound::Excluded(v.clone()),
                };
                m.range((lower, upper))
                    .flat_map(|(_, offs)| offs.iter().copied())
                    .collect()
            }
            (Backing::Hash(_), IndexPredicate::Range { .. }) => return None,
        };
        out.sort_unstable();
        Some(out)
    }

    /// Rebuild contents from `store` (index creation, recovery and
    /// snapshot install).
    pub fn rebuild(&mut self, symbols: &SymbolTable, store: &RowStore) {
        self.backing = match self.def.kind {
            IndexKind::Hash => Backing::Hash(HashMap::new()),
            IndexKind::Ordered => Backing::Ordered(BTreeMap::new()),
        };
        self.entries = 0;
        let Some(sym) = symbols.get(&self.def.attr) else {
            return;
        };
        for (id, record) in store.scan() {
            if let Some(v) = record.get(sym) {
                self.insert(v, id.offset);
            }
        }
    }
}

/// The secondary indexes of one source.
#[derive(Debug, Default)]
pub struct IndexSet {
    list: Vec<SecondaryIndex>,
}

impl IndexSet {
    /// An empty set.
    pub fn new() -> Self {
        IndexSet::default()
    }

    /// True when no indexes exist.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Number of indexes.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Definitions, in creation order.
    pub fn defs(&self) -> Vec<IndexDef> {
        self.list.iter().map(|i| i.def.clone()).collect()
    }

    /// Iterate the indexes.
    pub fn iter(&self) -> impl Iterator<Item = &SecondaryIndex> {
        self.list.iter()
    }

    /// Find an index by name.
    pub fn get(&self, name: &str) -> Option<&SecondaryIndex> {
        self.list.iter().find(|i| i.def.name == name)
    }

    /// Create an index and build its contents from `store`. Returns
    /// `false` when an index with the same name already exists.
    pub fn create(&mut self, def: IndexDef, symbols: &SymbolTable, store: &RowStore) -> bool {
        if self.get(&def.name).is_some() {
            return false;
        }
        let mut idx = SecondaryIndex::new(def);
        idx.rebuild(symbols, store);
        self.list.push(idx);
        true
    }

    /// Drop an index by name; returns `true` when one was removed.
    pub fn drop_index(&mut self, name: &str) -> bool {
        let before = self.list.len();
        self.list.retain(|i| i.def.name != name);
        self.list.len() < before
    }

    /// Maintain all indexes for a newly appended row.
    pub fn note_append(&mut self, symbols: &SymbolTable, record: &Record, offset: u64) {
        for idx in &mut self.list {
            if let Some(sym) = symbols.get(&idx.def.attr) {
                if let Some(v) = record.get(sym) {
                    idx.insert(v, offset);
                }
            }
        }
    }

    /// Row offsets for `pred` from the first index on `attr` that can
    /// answer it, sorted ascending; `None` when no usable index exists.
    pub fn lookup(&self, attr: &str, pred: &IndexPredicate) -> Option<Vec<u64>> {
        self.list
            .iter()
            .filter(|i| i.def.attr == attr)
            .find_map(|i| i.lookup(pred))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::SourceId;

    fn fixture() -> (SymbolTable, RowStore) {
        let mut syms = SymbolTable::new();
        let name = syms.intern("name");
        let score = syms.intern("score");
        let mut store = RowStore::new(SourceId(0));
        for i in 0..10i64 {
            store.append(Record::from_pairs([
                (name, Value::str(format!("r{i}"))),
                (score, Value::Int(i)),
            ]));
        }
        (syms, store)
    }

    fn def(name: &str, attr: &str, kind: IndexKind) -> IndexDef {
        IndexDef {
            name: name.into(),
            source: "s".into(),
            attr: attr.into(),
            kind,
        }
    }

    #[test]
    fn hash_point_lookup() {
        let (syms, store) = fixture();
        let mut set = IndexSet::new();
        assert!(set.create(def("ix", "name", IndexKind::Hash), &syms, &store));
        let offs = set
            .lookup("name", &IndexPredicate::Eq(Value::str("r3")))
            .unwrap();
        assert_eq!(offs, vec![3]);
        assert!(set
            .lookup("name", &IndexPredicate::Eq(Value::str("nope")))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn hash_rejects_range() {
        let (syms, store) = fixture();
        let mut set = IndexSet::new();
        set.create(def("ix", "score", IndexKind::Hash), &syms, &store);
        let pred = IndexPredicate::Range {
            lo: Some((Value::Int(2), true)),
            hi: None,
        };
        assert!(set.lookup("score", &pred).is_none());
    }

    #[test]
    fn ordered_range_lookup() {
        let (syms, store) = fixture();
        let mut set = IndexSet::new();
        set.create(def("ix", "score", IndexKind::Ordered), &syms, &store);
        let pred = IndexPredicate::Range {
            lo: Some((Value::Int(3), true)),
            hi: Some((Value::Int(6), false)),
        };
        assert_eq!(set.lookup("score", &pred).unwrap(), vec![3, 4, 5]);
        // Ordered also answers equality.
        assert_eq!(
            set.lookup("score", &IndexPredicate::Eq(Value::Int(7)))
                .unwrap(),
            vec![7]
        );
    }

    #[test]
    fn duplicate_name_rejected_and_drop() {
        let (syms, store) = fixture();
        let mut set = IndexSet::new();
        assert!(set.create(def("ix", "name", IndexKind::Hash), &syms, &store));
        assert!(!set.create(def("ix", "score", IndexKind::Ordered), &syms, &store));
        assert!(set.drop_index("ix"));
        assert!(!set.drop_index("ix"));
        assert!(set.is_empty());
    }

    #[test]
    fn incremental_maintenance_tracks_appends() {
        let (mut syms, mut store) = fixture();
        let name = syms.intern("name");
        let mut set = IndexSet::new();
        set.create(def("ix", "name", IndexKind::Hash), &syms, &store);
        // Append a duplicate value at a new offset.
        let rec = Record::from_pairs([(name, Value::str("r3"))]);
        let id = store.append(rec.clone());
        set.note_append(&syms, &rec, id.offset);
        assert_eq!(
            set.lookup("name", &IndexPredicate::Eq(Value::str("r3")))
                .unwrap(),
            vec![3, 10]
        );
    }

    #[test]
    fn nulls_not_indexed() {
        let (mut syms, store) = fixture();
        let name = syms.intern("name");
        let mut set = IndexSet::new();
        set.create(def("ix", "name", IndexKind::Hash), &syms, &store);
        let rec = Record::from_pairs([(name, Value::Null)]);
        set.note_append(&syms, &rec, 99);
        let idx = set.get("ix").unwrap();
        assert_eq!(idx.entries(), 10);
        assert!(set
            .lookup("name", &IndexPredicate::Eq(Value::Null))
            .unwrap()
            .is_empty());
    }

    /// The reference check for append-only maintenance: indexes created
    /// over the full store equal indexes created empty and fed every row
    /// through `note_append`.
    #[test]
    fn rebuild_matches_incremental() {
        let (mut syms, mut full) = fixture();
        let score = syms.intern("score");
        // Duplicates, a null, a mixed-kind value and a missing attribute.
        for v in [Value::Int(3), Value::Null, Value::str("x"), Value::Int(3)] {
            full.append(Record::from_pairs([(score, v)]));
        }
        full.append(Record::new());
        let (mut rebuilt, mut incremental) = (IndexSet::new(), IndexSet::new());
        let mut grown = RowStore::new(full.source());
        for (ix, kind) in [("ix_h", IndexKind::Hash), ("ix_o", IndexKind::Ordered)] {
            assert!(rebuilt.create(def(ix, "score", kind), &syms, &full));
            assert!(incremental.create(def(ix, "score", kind), &syms, &grown));
        }
        for (_, record) in full.scan() {
            let id = grown.append(record.clone());
            incremental.note_append(&syms, record, id.offset);
        }
        for (a, b) in rebuilt.iter().zip(incremental.iter()) {
            assert_eq!(a.entries(), b.entries(), "{}", a.def().name);
        }
        let range = |lo: Option<(Value, bool)>, hi| IndexPredicate::Range { lo, hi };
        for pred in [
            IndexPredicate::Eq(Value::Int(3)),
            IndexPredicate::Eq(Value::str("x")),
            range(None, Some((Value::Int(4), true))),
            range(Some((Value::Int(2), false)), Some((Value::str("x"), true))),
        ] {
            let want = rebuilt.lookup("score", &pred);
            assert_eq!(want, incremental.lookup("score", &pred), "{pred:?}");
        }
        let three = rebuilt.lookup("score", &IndexPredicate::Eq(Value::Int(3)));
        assert_eq!(three, Some(vec![3, 10, 13]));
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in [IndexKind::Hash, IndexKind::Ordered] {
            assert_eq!(IndexKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(IndexKind::from_tag(9), None);
        assert_eq!(IndexKind::Hash.to_string(), "hash");
        assert_eq!(IndexKind::Ordered.to_string(), "ordered");
    }
}
