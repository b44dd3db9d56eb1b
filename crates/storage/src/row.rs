//! The per-source row store.
//!
//! Records append in arrival order (the natural order of a continuously
//! ingesting source, §4.2 "individual data sources may change over time")
//! and are never rewritten in place: a record's id is its offset, and the
//! store only grows. What the rows say about the source's attributes is
//! learned by the per-attribute [`stats`](crate::stats) the caller folds
//! every appended record into, so the "schema becomes part of the data"
//! (§1).

use scdb_types::{Record, RecordId, SourceId};

use crate::error::StorageError;

/// An append-only, schema-flexible record store for one source.
#[derive(Debug)]
pub struct RowStore {
    source: SourceId,
    rows: Vec<Record>,
}

impl RowStore {
    /// New empty store for `source`.
    pub fn new(source: SourceId) -> Self {
        RowStore {
            source,
            rows: Vec::new(),
        }
    }

    /// The source this store manages.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Append a record, returning its id.
    pub fn append(&mut self, record: Record) -> RecordId {
        let offset = self.rows.len() as u64;
        let size = record.approx_size();
        self.rows.push(record);
        let m = scdb_obs::metrics();
        m.inc("storage.rows_appended");
        m.add("storage.bytes_written", size as u64);
        RecordId::new(self.source, offset)
    }

    /// Fetch a record.
    pub fn get(&self, id: RecordId) -> Result<&Record, StorageError> {
        if id.source != self.source {
            return Err(StorageError::WrongSource {
                expected: self.source,
                got: id.source,
            });
        }
        self.rows
            .get(id.offset as usize)
            .ok_or(StorageError::NoSuchRecord(id))
    }

    /// Iterate records in physical (arrival) order.
    pub fn scan(&self) -> impl Iterator<Item = (RecordId, &Record)> {
        let source = self.source;
        self.rows
            .iter()
            .enumerate()
            .map(move |(i, r)| (RecordId::new(source, i as u64), r))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::{SymbolTable, Value};

    fn store_with(n: u64) -> (RowStore, SymbolTable) {
        let mut syms = SymbolTable::new();
        let name = syms.intern("name");
        let mut s = RowStore::new(SourceId(0));
        for i in 0..n {
            s.append(Record::from_pairs([(name, Value::str(format!("r{i}")))]));
        }
        (s, syms)
    }

    #[test]
    fn append_get_roundtrip() {
        let (s, syms) = store_with(3);
        let id = RecordId::new(SourceId(0), 1);
        let r = s.get(id).unwrap();
        assert_eq!(r.get(syms.get("name").unwrap()), Some(&Value::str("r1")));
    }

    #[test]
    fn wrong_source_rejected() {
        let (s, _) = store_with(1);
        let err = s.get(RecordId::new(SourceId(9), 0)).unwrap_err();
        assert!(matches!(err, StorageError::WrongSource { .. }));
    }

    #[test]
    fn missing_record_rejected() {
        let (s, _) = store_with(1);
        assert!(matches!(
            s.get(RecordId::new(SourceId(0), 5)),
            Err(StorageError::NoSuchRecord(_))
        ));
    }
}
