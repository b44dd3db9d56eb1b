//! The per-source row store.
//!
//! Records append in arrival order (the natural order of a continuously
//! ingesting source, §4.2 "individual data sources may change over time")
//! and are never rewritten in place: a record's id is its offset, and the
//! store only grows. What the rows say about the source's attributes is
//! learned by the per-attribute [`stats`](crate::stats) the caller folds
//! every appended record into, so the "schema becomes part of the data"
//! (§1).
//!
//! The store also learns which attributes are numeric. While every
//! non-null value an attribute has held is a `Float`, or an `Int` within
//! ±2^53, the store keeps that attribute's values as a [`NumericColumn`]:
//! an `f64` per row plus a presence bit. A range filter reads the column
//! by row offset instead of searching every record's fields. The first
//! value of any other kind drops the column for good. Because rows are
//! never updated or removed, a column only grows, and replaying the rows
//! through [`RowStore::append`] rebuilds it: nothing about it is logged.

use scdb_obs::CounterHandle;
use scdb_types::{Record, RecordId, SourceId, Symbol, Value};

use crate::error::StorageError;

static ROWS_APPENDED: CounterHandle = CounterHandle::new("storage.rows_appended");
static BYTES_WRITTEN: CounterHandle = CounterHandle::new("storage.bytes_written");

/// Largest integer magnitude a column holds: every `Int` within ±2^53 is
/// exactly an `f64`, so the column orders it as `Value::cmp` orders
/// `(Int, Int)` pairs, as `i64`.
const MAX_EXACT_INT: u64 = 1 << 53;

/// The `f64` a numeric column holds for `v`, or `None` when `v` keeps an
/// attribute out of the columns: anything but a `Float` or an `Int`
/// within ±2^53.
///
/// Comparing two such images with `f64::total_cmp` orders them exactly as
/// `Value::cmp` orders the values: `(Int, Int)` pairs compare as `i64`,
/// which agrees with `f64` order inside ±2^53, and every pair involving a
/// `Float` already compares through `total_cmp` (so NaN and ±0.0 keep
/// their places). The executor applies the same test to a literal before
/// it compares it through a column.
pub fn exact_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::Int(i) if i.unsigned_abs() <= MAX_EXACT_INT => Some(i as f64),
        _ => None,
    }
}

/// One attribute's values as `f64`s, by row offset. A row that lacks the
/// attribute or holds `Null` is absent. Absent rows past the last present
/// one take no space; the gaps before it are padded when a later row
/// brings a value.
#[derive(Debug, Default)]
pub struct NumericColumn {
    values: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` is set when row `i` holds a value.
    present: Vec<u64>,
}

impl NumericColumn {
    /// The value of row `offset`, or `None` when that row is absent.
    #[inline]
    pub fn get(&self, offset: usize) -> Option<f64> {
        let word = *self.present.get(offset / 64)?;
        (word >> (offset % 64) & 1 == 1).then(|| self.values[offset])
    }

    /// Record row `offset`'s value. Offsets arrive ascending.
    fn push(&mut self, offset: usize, v: f64) {
        self.values.resize(offset, 0.0);
        self.values.push(v);
        let word = offset / 64;
        if self.present.len() <= word {
            self.present.resize(word + 1, 0);
        }
        self.present[word] |= 1 << (offset % 64);
    }
}

/// What the store knows about one attribute's kinds so far.
#[derive(Debug, Default)]
enum Column {
    /// No non-null value yet.
    #[default]
    Unseen,
    /// Every non-null value so far has an [`exact_f64`] image.
    Numeric(NumericColumn),
    /// Some value had none; the attribute is read from the records.
    Dropped,
}

/// An append-only, schema-flexible record store for one source.
#[derive(Debug)]
pub struct RowStore {
    source: SourceId,
    rows: Vec<Record>,
    /// Indexed by [`Symbol::index`].
    columns: Vec<Column>,
}

impl RowStore {
    /// New empty store for `source`.
    pub fn new(source: SourceId) -> Self {
        RowStore {
            source,
            rows: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// The source this store manages.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Append a record, returning its id.
    pub fn append(&mut self, record: Record) -> RecordId {
        let offset = self.rows.len();
        for (attr, value) in record.iter() {
            self.note_value(offset, attr, value);
        }
        let size = record.approx_size();
        self.rows.push(record);
        ROWS_APPENDED.inc();
        BYTES_WRITTEN.add(size as u64);
        RecordId::new(self.source, offset as u64)
    }

    /// Fold row `offset`'s `value` of `attr` into the attribute's column.
    fn note_value(&mut self, offset: usize, attr: Symbol, value: &Value) {
        if value.is_null() {
            return;
        }
        let i = attr.index();
        if self.columns.len() <= i {
            self.columns.resize_with(i + 1, Column::default);
        }
        let column = &mut self.columns[i];
        match (exact_f64(value), &mut *column) {
            (_, Column::Dropped) => {}
            (Some(v), Column::Numeric(values)) => values.push(offset, v),
            (Some(v), Column::Unseen) => {
                let mut values = NumericColumn::default();
                values.push(offset, v);
                *column = Column::Numeric(values);
            }
            (None, _) => *column = Column::Dropped,
        }
    }

    /// `attr`'s numeric column, while every non-null value the attribute
    /// has held has an [`exact_f64`] image. `None` for an attribute with
    /// no value yet or a value of another kind.
    pub fn numeric_column(&self, attr: Symbol) -> Option<&NumericColumn> {
        match self.columns.get(attr.index())? {
            Column::Numeric(values) => Some(values),
            Column::Unseen | Column::Dropped => None,
        }
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

    /// The records in physical (arrival) order; a record's offset is its
    /// index here.
    pub fn rows(&self) -> &[Record] {
        &self.rows
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
    use scdb_types::SymbolTable;

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

    #[test]
    fn exact_images_stop_at_two_to_the_53() {
        let edge = 1i64 << 53;
        assert_eq!(exact_f64(&Value::Int(edge)), Some(edge as f64));
        assert_eq!(exact_f64(&Value::Int(-edge)), Some(-edge as f64));
        assert_eq!(exact_f64(&Value::Int(edge + 1)), None);
        assert_eq!(exact_f64(&Value::Int(-edge - 1)), None);
        assert_eq!(exact_f64(&Value::Int(i64::MIN)), None);
        assert!(exact_f64(&Value::Float(f64::NAN)).unwrap().is_nan());
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::str("1"),
            Value::Timestamp(1),
        ] {
            assert_eq!(exact_f64(&v), None, "{v:?}");
        }
    }

    /// A column holds a row's value exactly when the row has a non-null
    /// numeric value, pads the rows that lack one, and is gone for good at
    /// the first value of another kind.
    #[test]
    fn numeric_columns_follow_the_values() {
        let mut syms = SymbolTable::new();
        let (x, sparse, mixed, wide, nulls) = (
            syms.intern("x"),
            syms.intern("sparse"),
            syms.intern("mixed"),
            syms.intern("wide"),
            syms.intern("nulls"),
        );
        let mut s = RowStore::new(SourceId(0));
        for i in 0..200i64 {
            let mut r = Record::from_pairs([(x, Value::Int(i)), (nulls, Value::Null)]);
            if i % 70 == 3 {
                r.set(sparse, Value::Float(i as f64 / 2.0));
            }
            if i < 100 {
                r.set(mixed, Value::Float(1.0));
            } else if i == 150 {
                r.set(mixed, Value::str("one"));
            }
            r.set(wide, Value::Int(if i == 199 { 1 << 60 } else { i }));
            if i == 10 {
                r.set(x, Value::Null);
            }
            s.append(r);
        }
        let x_col = s.numeric_column(x).expect("x is numeric");
        assert_eq!(x_col.get(0), Some(0.0));
        assert_eq!(x_col.get(10), None, "a null is absent");
        assert_eq!(x_col.get(199), Some(199.0));
        assert_eq!(x_col.get(200), None, "past the last row");
        let sparse_col = s.numeric_column(sparse).expect("sparse is numeric");
        let present: Vec<usize> = (0..200).filter(|&i| sparse_col.get(i).is_some()).collect();
        assert_eq!(present, [3, 73, 143]);
        assert_eq!(sparse_col.get(143), Some(71.5));
        assert_eq!(
            sparse_col.values.len(),
            144,
            "no padding past the last value"
        );
        assert!(
            s.numeric_column(mixed).is_none(),
            "a string drops the column"
        );
        assert!(
            s.numeric_column(wide).is_none(),
            "an Int beyond 2^53 drops it"
        );
        assert!(s.numeric_column(nulls).is_none(), "only nulls: no column");
        assert!(s.numeric_column(Symbol(99)).is_none());
        // A dropped column stays dropped.
        s.append(Record::from_pairs([(mixed, Value::Float(2.0))]));
        assert!(s.numeric_column(mixed).is_none());
    }
}
