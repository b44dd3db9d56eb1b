//! Interned strings for attribute, concept, and role names.
//!
//! The holistic data model treats meta-data (names of attributes, concepts,
//! roles) as data; names are compared and joined constantly across layers,
//! so we intern them once and pass 4-byte [`Symbol`]s around.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A handle to an interned string inside a [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Raw index into the owning table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym{}", self.0)
    }
}

/// An append-only string interner.
///
/// Lookup by name is O(1) via a hash map; lookup by symbol is O(1) via a
/// dense vector. Strings are stored as `Arc<str>` so resolved names can be
/// handed out without copying.
#[derive(Debug, Default, Clone)]
pub struct SymbolTable {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, Symbol>,
}

impl SymbolTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning the existing symbol when already present.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.by_name.get(name) {
            return sym;
        }
        let arc: Arc<str> = Arc::from(name);
        let sym = Symbol(self.names.len() as u32);
        self.names.push(Arc::clone(&arc));
        self.by_name.insert(arc, sym);
        sym
    }

    /// Look up a symbol by name without interning.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.by_name.get(name).copied()
    }

    /// Resolve a symbol to its name. Panics on a foreign symbol only in
    /// debug builds; callers within the workspace always use symbols minted
    /// by the same table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Resolve to a shared `Arc<str>`.
    pub fn resolve_arc(&self, sym: Symbol) -> Arc<str> {
        Arc::clone(&self.names[sym.index()])
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(Symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol(i as u32), n.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.intern("drug");
        let b = t.intern("drug");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("gene");
        let b = t.intern("disease");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "gene");
        assert_eq!(t.resolve(b), "disease");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.get("x").is_none());
        let s = t.intern("x");
        assert_eq!(t.get("x"), Some(s));
    }

    #[test]
    fn iter_in_order() {
        let mut t = SymbolTable::new();
        t.intern("a");
        t.intern("b");
        let collected: Vec<_> = t.iter().map(|(_, n)| n.to_string()).collect();
        assert_eq!(collected, vec!["a", "b"]);
    }
}
