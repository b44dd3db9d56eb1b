//! Identifier newtypes used to address data across the three layers.
//!
//! Identity is the backbone of the relation layer: "the key characteristics
//! of the relation layer are to capture entity interconnectedness and to
//! establish the identity of an entity within and across multiple data
//! sources" (§3.2). We therefore distinguish *records* (raw rows in a
//! source, instance layer) from *entities* (resolved real-world objects,
//! relation layer) at the type level.

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// The raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Build from a raw index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                $name(i as $inner)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// A resolved real-world entity in the relation layer.
    EntityId,
    u64,
    "e"
);
id_newtype!(
    /// A registered data source (DrugBank, CTD, a sensor feed, …).
    SourceId,
    u32,
    "src"
);
id_newtype!(
    /// A named concept (class) in the semantic layer's TBox.
    ConceptId,
    u32,
    "C"
);
id_newtype!(
    /// A named role (property) in the semantic layer's RBox.
    RoleId,
    u32,
    "R"
);
id_newtype!(
    /// An attribute (column) of a source schema.
    AttrId,
    u32,
    "a"
);
id_newtype!(
    /// A parallel world — one independent actual world per source (§4.2).
    WorldId,
    u32,
    "w"
);

/// A raw record inside one source: `(source, offset)`.
///
/// Records live in the instance layer; entity resolution maps them onto
/// [`EntityId`]s in the relation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// The owning source.
    pub source: SourceId,
    /// Zero-based offset of the record within the source.
    pub offset: u64,
}

impl RecordId {
    /// Build a record id.
    pub fn new(source: SourceId, offset: u64) -> Self {
        RecordId { source, offset }
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.source, self.offset)
    }
}

/// Monotonic id generator, shared by layers that mint fresh ids.
#[derive(Debug, Default)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// New generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint the next entity id.
    pub fn next_entity(&mut self) -> EntityId {
        let id = EntityId(self.next);
        self.next += 1;
        id
    }

    /// Number of ids minted so far.
    pub fn count(&self) -> u64 {
        self.next
    }

    /// Ensure future ids are strictly greater than `id` — used when
    /// adopting externally-assigned ids (snapshot rehydration) so fresh
    /// mints never collide with recovered entities.
    pub fn advance_past(&mut self, id: EntityId) {
        self.next = self.next.max(id.0 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes() {
        assert_eq!(EntityId(3).to_string(), "e3");
        assert_eq!(SourceId(1).to_string(), "src1");
        assert_eq!(ConceptId(2).to_string(), "C2");
        assert_eq!(RoleId(0).to_string(), "R0");
        assert_eq!(WorldId(4).to_string(), "w4");
        assert_eq!(RecordId::new(SourceId(1), 9).to_string(), "src1:9");
    }

    #[test]
    fn idgen_is_monotonic_and_dense() {
        let mut g = IdGen::new();
        let a = g.next_entity();
        let b = g.next_entity();
        assert_eq!(a, EntityId(0));
        assert_eq!(b, EntityId(1));
        assert_eq!(g.count(), 2);
    }

    #[test]
    fn index_roundtrip() {
        let e = EntityId::from_index(42);
        assert_eq!(e.index(), 42);
        assert_eq!(e, EntityId(42));
    }

    #[test]
    fn record_ids_order_by_source_then_offset() {
        let a = RecordId::new(SourceId(0), 10);
        let b = RecordId::new(SourceId(1), 0);
        let c = RecordId::new(SourceId(1), 5);
        assert!(a < b && b < c);
    }
}
