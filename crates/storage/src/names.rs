//! Name columns: string attributes as interned ids.
//!
//! A semantic atom (`IS`, `HAS SOME`) asks of each row which entity its
//! value names. Read from the record, that is a symbol lookup, a
//! normalization and a hash probe per row. A [`NameIndex`] answers it
//! with loads instead: it interns every normalized string a shard has
//! stored as a [`NameId`], keeps one id per row for each string
//! attribute of each source (a name column), and maps each id to the
//! entity registered under that name, if any. The map is mutable, so a
//! name registered after the row that mentions it, or moved by a merge,
//! is seen by every later query without touching the column.
//!
//! The index is also the registry of names: the first entity to claim a
//! name keeps it, and a merge moves the absorbed entity's names, which
//! each entity keeps in a chain, so it visits no other name.
//!
//! The caller normalizes: the index stores the keys it is given. Like
//! the row store's numeric columns, a name column only grows, holds
//! nothing that is not derived from the rows, and is rebuilt by feeding
//! the rows again, in order. The caller notes every row it stores, so the
//! columns always cover the rows. While every non-null value an attribute
//! has held is a string the column is kept; the first value of another
//! kind drops it for good, and the attribute is read from the records.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use scdb_types::{EntityId, SourceId, Symbol};

/// A normalized string's id in one [`NameIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

/// No name: a column entry of a row that holds no string, and the end of
/// an entity's chain of names.
const NO_NAME: NameId = NameId(u32::MAX);

/// The entity-table entry of a name no entity is registered under.
const NO_ENTITY: u64 = u64::MAX;

/// The hasher of a map whose keys are hashes already: a `u64` key is its
/// own hash.
#[derive(Debug, Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// What the index knows about one attribute of one source so far.
#[derive(Debug, Default)]
enum Column {
    /// No non-null value yet.
    #[default]
    Unseen,
    /// Every non-null value so far was a string: its id by row offset.
    /// Rows past the end are absent.
    Names(Vec<NameId>),
    /// Some value was not a string; the attribute is read from the
    /// records.
    Dropped,
}

/// One shard's interned names, the entity each names, and its name
/// columns.
#[derive(Debug, Default)]
pub struct NameIndex {
    /// Every name's text, back to back.
    text: String,
    /// By [`NameId`]: where the name's text ends (it starts where the
    /// previous one ends).
    ends: Vec<u32>,
    /// A name's hash → its id. A hash taken by another name moves the
    /// name to the next free hash value, so a lookup walks hash values
    /// up from its own until it meets its name or a free one.
    slots: HashMap<u64, NameId, BuildHasherDefault<Prehashed>>,
    hasher: RandomState,
    /// By [`NameId`]: the id of the entity registered under the name, or
    /// [`NO_ENTITY`].
    entities: Vec<u64>,
    /// By [`NameId`]: the next name of the same entity.
    next: Vec<NameId>,
    /// By entity id: the first of its names.
    first: Vec<NameId>,
    /// One past the largest entity id any name was registered under.
    entity_bound: u64,
    /// By source id, then by [`Symbol::index`]: one source's name
    /// columns.
    sources: Vec<Vec<Column>>,
}

impl NameIndex {
    /// An empty index.
    pub fn new() -> NameIndex {
        NameIndex::default()
    }

    /// Walk `key`'s hash values to its id, or to the free value it would
    /// take.
    fn probe(&self, key: &str) -> Result<NameId, u64> {
        let mut h = self.hasher.hash_one(key);
        loop {
            match self.slots.get(&h) {
                Some(&id) if self.resolve(id) == key => return Ok(id),
                Some(_) => h = h.wrapping_add(1),
                None => return Err(h),
            }
        }
    }

    /// The id of `key`, minted on first sight.
    pub fn intern(&mut self, key: &str) -> NameId {
        let h = match self.probe(key) {
            Ok(id) => return id,
            Err(h) => h,
        };
        let id = NameId(u32::try_from(self.ends.len()).expect("fewer than 2^32 names"));
        self.text.push_str(key);
        self.ends
            .push(u32::try_from(self.text.len()).expect("under 4 GiB of names"));
        self.entities.push(NO_ENTITY);
        self.next.push(NO_NAME);
        self.slots.insert(h, id);
        id
    }

    /// The id of `key`, if it was interned.
    pub fn get(&self, key: &str) -> Option<NameId> {
        self.probe(key).ok()
    }

    /// The string `id` stands for.
    pub fn resolve(&self, id: NameId) -> &str {
        let i = id.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The entity registered under `id`, if any.
    pub fn entity(&self, id: NameId) -> Option<EntityId> {
        let e = self.entities[id.0 as usize];
        (e != NO_ENTITY).then_some(EntityId(e))
    }

    /// The entity registered under the name `key`, if any.
    pub fn entity_named(&self, key: &str) -> Option<EntityId> {
        self.entity(self.get(key)?)
    }

    /// Register `id` as a name of `entity` unless an entity holds it
    /// already: the first claim keeps a name. Returns whether it took.
    pub fn register(&mut self, id: NameId, entity: EntityId) -> bool {
        if self.entities[id.0 as usize] != NO_ENTITY {
            return false;
        }
        self.entities[id.0 as usize] = entity.0;
        let e = self.chain_of(entity);
        self.next[id.0 as usize] = std::mem::replace(&mut self.first[e], id);
        true
    }

    /// Move every name of `absorbed` to `survivor`, visiting only those.
    pub fn merge(&mut self, survivor: EntityId, absorbed: EntityId) {
        let Some(&head) = self.first.get(absorbed.0 as usize) else {
            return;
        };
        if head == NO_NAME || survivor == absorbed {
            return;
        }
        let mut last = head;
        loop {
            self.entities[last.0 as usize] = survivor.0;
            match self.next[last.0 as usize] {
                NO_NAME => break,
                next => last = next,
            }
        }
        self.first[absorbed.0 as usize] = NO_NAME;
        let s = self.chain_of(survivor);
        self.next[last.0 as usize] = std::mem::replace(&mut self.first[s], head);
    }

    /// Where `entity`'s chain starts in `first`, growing it to fit.
    fn chain_of(&mut self, entity: EntityId) -> usize {
        let e = usize::try_from(entity.0).expect("entity ids are dense");
        if self.first.len() <= e {
            self.first.resize(e + 1, NO_NAME);
        }
        self.entity_bound = self.entity_bound.max(entity.0 + 1);
        e
    }

    /// Every registered name with its entity, in no particular order.
    pub fn registered(&self) -> impl Iterator<Item = (&str, EntityId)> + '_ {
        (0..self.ends.len() as u32)
            .map(NameId)
            .filter_map(|id| Some((self.resolve(id), self.entity(id)?)))
    }

    /// Row `offset` of `source` holds the string `id` in `attr`. Each
    /// row is noted once, in order.
    pub fn note_name(&mut self, source: SourceId, attr: Symbol, offset: usize, id: NameId) {
        let column = self.column_mut(source, attr);
        match column {
            Column::Dropped => {}
            Column::Names(ids) => {
                ids.resize(offset, NO_NAME);
                ids.push(id);
            }
            Column::Unseen => {
                let mut ids = vec![NO_NAME; offset];
                ids.push(id);
                *column = Column::Names(ids);
            }
        }
    }

    /// A row of `source` holds a non-null value of another kind than a
    /// string in `attr`: the attribute keeps no column from now on.
    pub fn note_other(&mut self, source: SourceId, attr: Symbol) {
        *self.column_mut(source, attr) = Column::Dropped;
    }

    fn column_mut(&mut self, source: SourceId, attr: Symbol) -> &mut Column {
        let s = source.0 as usize;
        if self.sources.len() <= s {
            self.sources.resize_with(s + 1, Vec::new);
        }
        let columns = &mut self.sources[s];
        let i = attr.index();
        if columns.len() <= i {
            columns.resize_with(i + 1, Column::default);
        }
        &mut columns[i]
    }

    /// The view of `source` that semantic atoms over its rows read.
    pub fn source(&self, source: SourceId) -> SourceNames<'_> {
        SourceNames {
            index: self,
            source,
        }
    }
}

/// What a semantic atom over one source reads from a [`NameIndex`].
#[derive(Debug, Clone, Copy)]
pub struct SourceNames<'a> {
    index: &'a NameIndex,
    source: SourceId,
}

impl<'a> SourceNames<'a> {
    /// `attr`'s name column, while every non-null value the attribute
    /// has held is a string.
    pub fn column(&self, attr: Symbol) -> Option<NameColumn<'a>> {
        let index = self.index;
        let source = index.sources.get(self.source.0 as usize)?;
        match source.get(attr.index())? {
            Column::Names(ids) => Some(NameColumn {
                ids,
                entities: &index.entities,
                entity_bound: index.entity_bound,
            }),
            Column::Unseen | Column::Dropped => None,
        }
    }

    /// The entity registered under the normalized name `key`: how an
    /// attribute without a column is read.
    pub fn entity_named(&self, key: &str) -> Option<EntityId> {
        self.index.entity_named(key)
    }
}

/// One attribute's name column, read through its index's entity table.
#[derive(Debug, Clone, Copy)]
pub struct NameColumn<'a> {
    ids: &'a [NameId],
    entities: &'a [u64],
    entity_bound: u64,
}

impl NameColumn<'_> {
    /// The entity row `offset`'s value names: `None` when the row holds
    /// no string, or one no entity is registered under.
    #[inline]
    pub fn entity(&self, offset: usize) -> Option<EntityId> {
        match self.entities[self.name(offset)?.0 as usize] {
            NO_ENTITY => None,
            e => Some(EntityId(e)),
        }
    }

    /// The name row `offset` holds: `None` when it holds no string.
    #[inline]
    pub fn name(&self, offset: usize) -> Option<NameId> {
        self.ids.get(offset).copied().filter(|&id| id != NO_NAME)
    }

    /// Every entity [`NameColumn::entity`] returns is below this id.
    pub fn entity_bound(&self) -> u64 {
        self.entity_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: SourceId = SourceId(0);

    #[test]
    fn interning_is_stable_and_resolves_back() {
        let mut names = NameIndex::new();
        let a = names.intern("warfarin");
        let b = names.intern("aspirin");
        let c = names.intern("");
        assert_ne!(a, b);
        assert_eq!(names.intern("warfarin"), a);
        assert_eq!(names.get("aspirin"), Some(b));
        assert_eq!(names.get("ibuprofen"), None);
        assert_eq!(
            [a, b, c].map(|id| names.resolve(id)),
            ["warfarin", "aspirin", ""]
        );
        assert_eq!(names.entity(a), None);
    }

    /// Names whose hashes collide still intern apart: a taken hash moves
    /// a name to the next free one, and lookups follow it there.
    #[test]
    fn colliding_hashes_keep_names_apart() {
        let mut names = NameIndex::new();
        let a = names.intern("a");
        let h = names.hasher.hash_one("b");
        // Squat on "b"'s hash and the next one, as colliding names would.
        names.slots.insert(h, a);
        names.slots.insert(h.wrapping_add(1), a);
        let b = names.intern("b");
        assert_ne!(a, b);
        assert_eq!(names.slots.get(&h.wrapping_add(2)), Some(&b));
        assert_eq!(names.get("b"), Some(b));
        assert_eq!(names.intern("b"), b);
        assert_eq!(names.get("a"), Some(a));
    }

    /// The first entity to claim a name keeps it; a merge moves every
    /// name of the absorbed entity, and only those.
    #[test]
    fn registration_and_merges() {
        let mut names = NameIndex::new();
        let [w, c, a, i] =
            ["warfarin", "coumadin", "aspirin", "ibuprofen"].map(|k| names.intern(k));
        assert!(names.register(w, EntityId(0)));
        assert!(names.register(c, EntityId(0)));
        assert!(names.register(a, EntityId(3)));
        assert!(!names.register(w, EntityId(3)), "the first claim keeps it");
        assert!(names.register(i, EntityId(5)));
        names.merge(EntityId(3), EntityId(0));
        assert_eq!(names.entity_named("warfarin"), Some(EntityId(3)));
        assert_eq!(names.entity_named("coumadin"), Some(EntityId(3)));
        assert_eq!(names.entity_named("ibuprofen"), Some(EntityId(5)));
        names.merge(EntityId(5), EntityId(3));
        let mut all: Vec<(&str, EntityId)> = names.registered().collect();
        all.sort();
        assert_eq!(
            all,
            ["aspirin", "coumadin", "ibuprofen", "warfarin"].map(|k| (k, EntityId(5)))
        );
        names.merge(EntityId(5), EntityId(3));
        names.merge(EntityId(7), EntityId(9));
        assert_eq!(names.registered().count(), 4);
    }

    /// A column reads each row's entity through the table, so a name
    /// registered or moved after its rows were noted is seen at once;
    /// absent rows, gaps and rows past the end name nothing.
    #[test]
    fn columns_read_the_current_registration() {
        let mut names = NameIndex::new();
        let attr = Symbol(2);
        let w = names.intern("warfarin");
        let a = names.intern("aspirin");
        names.note_name(SRC, attr, 1, w);
        names.note_name(SRC, attr, 3, a);
        let col = names.source(SRC).column(attr).expect("all strings");
        assert_eq!((0..5).map(|i| col.entity(i)).collect::<Vec<_>>(), [None; 5]);
        names.register(w, EntityId(7));
        let col = names.source(SRC).column(attr).unwrap();
        assert_eq!(col.entity(1), Some(EntityId(7)));
        assert_eq!(col.entity(0), None);
        assert_eq!(col.entity(2), None);
        assert_eq!(col.entity_bound(), 8);
        names.merge(EntityId(2), EntityId(7));
        let col = names.source(SRC).column(attr).unwrap();
        assert_eq!(col.entity(1), Some(EntityId(2)));
        assert_eq!(col.entity_bound(), 8);
        assert!(names.source(SourceId(1)).column(attr).is_none());
        assert!(names.source(SRC).column(Symbol(0)).is_none());
    }

    #[test]
    fn another_kind_drops_the_column_for_good() {
        let mut names = NameIndex::new();
        let attr = Symbol(0);
        let w = names.intern("warfarin");
        names.note_name(SRC, attr, 0, w);
        assert!(names.source(SRC).column(attr).is_some());
        names.note_other(SRC, attr);
        assert!(names.source(SRC).column(attr).is_none());
        names.note_name(SRC, attr, 2, w);
        assert!(names.source(SRC).column(attr).is_none());
    }
}
