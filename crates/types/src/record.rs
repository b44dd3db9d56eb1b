//! Schema-flexible records.
//!
//! Sources are "independently produced and maintained" (§1) and arrive with
//! their own attribute vocabularies (Figure 2: one source says `Drug Name`,
//! another says `Drug`). A [`Record`] is therefore a sparse list of
//! `(attribute, value)` pairs. What is known about a source's attributes is
//! learned *from the data itself* by the storage layer's per-attribute
//! statistics — schema as data, not as a separate blueprint.

use crate::symbol::Symbol;
use crate::value::Value;

/// A sparse, schema-flexible record: attribute/value pairs sorted by
/// attribute symbol for deterministic iteration and cheap merging.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    fields: Vec<(Symbol, Value)>,
}

impl Record {
    /// Empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from unsorted pairs; later duplicates of the same attribute
    /// win (last-writer semantics, matching ingestion order).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (Symbol, Value)>) -> Self {
        let mut r = Record::new();
        for (k, v) in pairs {
            r.set(k, v);
        }
        r
    }

    /// Set (insert or replace) an attribute.
    pub fn set(&mut self, attr: Symbol, value: Value) {
        match self.fields.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (attr, value)),
        }
    }

    /// Get an attribute's value.
    pub fn get(&self, attr: Symbol) -> Option<&Value> {
        self.fields
            .binary_search_by_key(&attr, |(a, _)| *a)
            .ok()
            .map(|i| &self.fields[i].1)
    }

    /// Remove an attribute, returning its value.
    pub fn remove(&mut self, attr: Symbol) -> Option<Value> {
        match self.fields.binary_search_by_key(&attr, |(a, _)| *a) {
            Ok(i) => Some(self.fields.remove(i).1),
            Err(_) => None,
        }
    }

    /// Number of present attributes.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when no attributes are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate `(attribute, value)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &Value)> {
        self.fields.iter().map(|(a, v)| (*a, v))
    }

    /// The attribute symbols present.
    pub fn attrs(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.fields.iter().map(|(a, _)| *a)
    }

    /// Approximate in-memory size, for storage accounting.
    pub fn approx_size(&self) -> usize {
        self.fields
            .iter()
            .map(|(_, v)| 4 + v.approx_size())
            .sum::<usize>()
    }
}

impl FromIterator<(Symbol, Value)> for Record {
    fn from_iter<T: IntoIterator<Item = (Symbol, Value)>>(iter: T) -> Self {
        Record::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    fn syms() -> (SymbolTable, Symbol, Symbol, Symbol) {
        let mut t = SymbolTable::new();
        let name = t.intern("name");
        let dose = t.intern("dose");
        let gene = t.intern("gene");
        (t, name, dose, gene)
    }

    #[test]
    fn record_set_get_replace() {
        let (_t, name, dose, _g) = syms();
        let mut r = Record::new();
        r.set(name, Value::str("Warfarin"));
        r.set(dose, Value::Float(5.1));
        assert_eq!(r.get(name), Some(&Value::str("Warfarin")));
        r.set(name, Value::str("Ibuprofen"));
        assert_eq!(r.get(name), Some(&Value::str("Ibuprofen")));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn record_iterates_in_symbol_order() {
        let (_t, name, dose, gene) = syms();
        let r = Record::from_pairs([
            (gene, Value::str("TP53")),
            (name, Value::str("x")),
            (dose, Value::Int(1)),
        ]);
        let order: Vec<Symbol> = r.attrs().collect();
        assert_eq!(order, vec![name, dose, gene]);
    }

    #[test]
    fn record_remove() {
        let (_t, name, dose, _g) = syms();
        let mut r = Record::from_pairs([(name, Value::str("a")), (dose, Value::Int(2))]);
        assert_eq!(r.remove(dose), Some(Value::Int(2)));
        assert_eq!(r.remove(dose), None);
        assert_eq!(r.len(), 1);
    }
}
