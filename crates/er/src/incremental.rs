//! The incremental resolver (FS.1) and its batch baseline.
//!
//! The incremental resolver processes one record at a time, as sources
//! stream in: block → probe candidates → score against cluster members →
//! merge when above threshold. Work per record is bounded by
//! `max_candidates`, so the curator keeps up with ingestion — the property
//! the E-T1-FS1 experiment measures against periodic all-pairs
//! re-resolution ([`BatchResolver`]).

use std::collections::HashMap;
use std::time::Instant;

use scdb_types::{EntityId, IdGen, Record, RecordId, SourceId, Symbol, SymbolTable};

use crate::align::{AlignmentMap, SchemaAligner};
use crate::blocking::{Blocker, BlockingStrategy};
use crate::features::{IdentityKey, Probe, StrFeatures};
use crate::similarity::{
    record_similarity, record_similarity_same_schema, record_similarity_weighted,
};

/// Same-schema similarity weighted by a source profile's distinctiveness.
fn scdb_er_weighted(a: &Record, b: &Record, profile: &SchemaAligner) -> f64 {
    // Squared distinctiveness: context attributes (shared genes/diseases)
    // must not be able to outvote a disagreeing identity attribute.
    record_similarity_weighted(a, b, |attr| {
        let d = profile.distinctiveness(attr);
        d * d
    })
}

/// The score of a comparison where both records carry an identity.
/// Identity dominates; context corroborates. A perfect identity match
/// with weak context still clears a high threshold; a weak identity
/// cannot be rescued by context.
fn combine(id_sim: f64, context_sim: f64) -> f64 {
    0.8 * id_sim + 0.2 * context_sim.max(id_sim * id_sim)
}

/// The best score a candidate with identity similarity `id_sim` can
/// reach. [`combine`] is monotone in the context similarity (every
/// float operation in it rounds monotonically) and no context
/// similarity exceeds 1.0, so a candidate whose ceiling is below the
/// threshold cannot match, whatever its context.
fn identity_ceiling(id_sim: f64) -> f64 {
    combine(id_sim, 1.0)
}

/// Resolver tuning knobs.
#[derive(Debug, Clone)]
pub struct ResolverConfig {
    /// Similarity at or above which two records co-refer.
    pub match_threshold: f64,
    /// Candidate generation scheme.
    pub blocking: BlockingStrategy,
    /// Maximum candidates compared per incoming record.
    pub max_candidates: usize,
    /// Attribute alignments are rebuilt after this many new records.
    pub realign_interval: u64,
    /// Alignment pair-score threshold.
    pub align_threshold: f64,
    /// Per-attribute sample cap inside the aligner.
    pub align_sample_cap: usize,
}

impl Default for ResolverConfig {
    fn default() -> Self {
        ResolverConfig {
            // Calibrated on the scaled life-science corpus: 0.88 keeps
            // pairwise recall at 1.0 under moderate name corruption while
            // eliminating chained false merges (see tests/curation_quality).
            match_threshold: 0.88,
            blocking: BlockingStrategy::StandardKeys { prefix_len: 4 },
            max_candidates: 32,
            realign_interval: 256,
            align_threshold: 0.35,
            align_sample_cap: 256,
        }
    }
}

/// What happened when a record was added.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeEvent {
    /// The record just resolved.
    pub record: RecordId,
    /// The entity it now belongs to.
    pub entity: EntityId,
    /// Entities that were fused into `entity` because this record bridged
    /// them (empty for a plain attach or a fresh entity).
    pub absorbed: Vec<EntityId>,
    /// Best similarity that justified the decision (1.0 for fresh).
    pub similarity: f64,
    /// True when a brand-new entity was minted.
    pub fresh: bool,
}

#[derive(Debug)]
struct CachedAlignment {
    map: AlignmentMap,
    built_at: u64,
}

/// A record's identity value as the resolver caches it.
#[derive(Debug)]
enum Identity {
    /// Not derived yet: the record was adopted from a snapshot, or its
    /// source's designation changed.
    Unfilled,
    /// No designated identity attribute, or no non-null value for it.
    Absent,
    /// The value's normalized rendering and numeric reading.
    Key(IdentityKey),
}

/// The streaming entity resolver.
#[derive(Debug)]
pub struct IncrementalResolver {
    config: ResolverConfig,
    blocker: Blocker,
    records: Vec<(RecordId, Record)>,
    handle_of: HashMap<RecordId, u64>,
    parent: Vec<u64>,
    entity_of_root: HashMap<u64, EntityId>,
    idgen: IdGen,
    aligners: HashMap<SourceId, SchemaAligner>,
    alignments: HashMap<(SourceId, SourceId), CachedAlignment>,
    /// Per-source designated identity attribute (the attribute whose
    /// value *names* the record's entity). When both sides of a
    /// comparison have one, identity similarity dominates the score.
    identity_attrs: HashMap<SourceId, Symbol>,
    /// Per handle: its identity value, normalized. Filled when a record
    /// is added, and for adopted records on their first comparison, so
    /// a snapshot reopen derives nothing it does not score.
    identities: Vec<Identity>,
    /// A candidate's identity views, refilled per comparison.
    scratch: StrFeatures,
    comparisons: u64,
    context_evals: u64,
    added: u64,
}

impl IncrementalResolver {
    /// New resolver.
    pub fn new(config: ResolverConfig) -> Self {
        let blocker = Blocker::new(config.blocking);
        IncrementalResolver {
            config,
            blocker,
            records: Vec::new(),
            handle_of: HashMap::new(),
            parent: Vec::new(),
            entity_of_root: HashMap::new(),
            idgen: IdGen::new(),
            aligners: HashMap::new(),
            alignments: HashMap::new(),
            identity_attrs: HashMap::new(),
            identities: Vec::new(),
            scratch: StrFeatures::default(),
            comparisons: 0,
            context_evals: 0,
            added: 0,
        }
    }

    /// Designate `attr` as the identity attribute of `source`: the
    /// attribute whose value names the record's real-world entity
    /// (Figure 2's `Drug Name` for DrugBank, `Gene` for CTD/Uniprot).
    /// When both records in a comparison carry designated identities,
    /// identity agreement dominates the similarity — the record-level
    /// analogue of a declared key, learnable or user-supplied.
    pub fn designate_identity(&mut self, source: SourceId, attr: Symbol) {
        self.identity_attrs.insert(source, attr);
        for ((id, _), identity) in self.records.iter().zip(&mut self.identities) {
            if id.source == source {
                *identity = Identity::Unfilled;
            }
        }
    }

    /// Root of `h` with path compression (mutating fast path for `add`).
    fn find_compress(&mut self, mut h: u64) -> u64 {
        while self.parent[h as usize] != h {
            let gp = self.parent[self.parent[h as usize] as usize];
            self.parent[h as usize] = gp;
            h = gp;
        }
        h
    }

    /// Root of `h` without compression — keeps read-side lookups `&self`
    /// so concurrent readers never need exclusive access. Chains stay
    /// short because `add` compresses on every union.
    fn find(&self, mut h: u64) -> u64 {
        while self.parent[h as usize] != h {
            h = self.parent[h as usize];
        }
        h
    }

    /// Rebuild the alignment between sources `a` and `b` if it is missing
    /// or stale, and return its key — the map is oriented (min, max).
    fn refresh_alignment(
        &mut self,
        a: SourceId,
        b: SourceId,
        symbols: &SymbolTable,
    ) -> (SourceId, SourceId) {
        let key = if a <= b { (a, b) } else { (b, a) };
        let stale = match self.alignments.get(&key) {
            Some(c) => self.added - c.built_at >= self.config.realign_interval,
            None => true,
        };
        if stale {
            let map = match (self.aligners.get(&key.0), self.aligners.get(&key.1)) {
                (Some(pa), Some(pb)) => {
                    let raw = pa.align(pb, symbols, self.config.align_threshold);
                    // Scale each aligned pair by attribute distinctiveness
                    // so ubiquitous context values (shared genes, shared
                    // diseases) cannot fabricate co-reference.
                    let pairs = raw
                        .pairs()
                        .map(|(l, r, w)| {
                            let d = pa.distinctiveness(l) * pb.distinctiveness(r);
                            (l, r, w * d)
                        })
                        .collect();
                    AlignmentMap::from_pairs(pairs)
                }
                _ => AlignmentMap::empty(),
            };
            self.alignments.insert(
                key,
                CachedAlignment {
                    map,
                    built_at: self.added,
                },
            );
        }
        key
    }

    /// The designated, non-null identity value of `record`, cached form.
    fn identity_key(&self, source: SourceId, record: &Record) -> Option<IdentityKey> {
        let attr = self.identity_attrs.get(&source)?;
        IdentityKey::of(record.get(*attr)?)
    }

    /// Score the record being added (`a_idx`, whose identity is `probe`)
    /// against candidate `b_idx`.
    fn similarity_between(
        &mut self,
        probe: Option<&Probe>,
        a_idx: u64,
        b_idx: u64,
        symbols: &SymbolTable,
    ) -> f64 {
        self.comparisons += 1;
        // Identity similarity, when both sides designate an identity
        // attribute and carry a value for it.
        let identity_sim = match probe {
            Some(probe) => {
                let b = b_idx as usize;
                if let Identity::Unfilled = self.identities[b] {
                    let (id, record) = &self.records[b];
                    self.identities[b] = match self.identity_key(id.source, record) {
                        Some(key) => Identity::Key(key),
                        None => Identity::Absent,
                    };
                }
                match &self.identities[b] {
                    Identity::Key(key) => Some(probe.similarity(key, &mut self.scratch)),
                    _ => None,
                }
            }
            None => None,
        };
        let (sa, sb) = (
            self.records[a_idx as usize].0.source,
            self.records[b_idx as usize].0.source,
        );
        // Realign on schedule even when the context is skipped below: when
        // a rebuild happens decides what every later comparison sees.
        let alignment = (sa != sb).then(|| self.refresh_alignment(sa, sb, symbols));
        if let Some(id_sim) = identity_sim {
            let ceiling = identity_ceiling(id_sim);
            if ceiling < self.config.match_threshold {
                return ceiling;
            }
        }
        self.context_evals += 1;
        let (ra, rb) = (
            &self.records[a_idx as usize].1,
            &self.records[b_idx as usize].1,
        );
        let context_sim = match alignment {
            // Weight shared attributes by the source profile's
            // distinctiveness.
            None => match self.aligners.get(&sa) {
                Some(profile) => scdb_er_weighted(ra, rb, profile),
                None => record_similarity_same_schema(ra, rb),
            },
            // The map is oriented (min, max); order the operands to match.
            Some(key) if sa <= sb => record_similarity(ra, rb, &self.alignments[&key].map),
            Some(key) => record_similarity(rb, ra, &self.alignments[&key].map),
        };
        match identity_sim {
            Some(id_sim) => combine(id_sim, context_sim),
            None => context_sim,
        }
    }

    /// Resolve one incoming record.
    pub fn add(&mut self, id: RecordId, record: Record, symbols: &SymbolTable) -> MergeEvent {
        let started = Instant::now();
        self.added += 1;
        let comparisons_before = self.comparisons;
        let context_evals_before = self.context_evals;
        self.aligners
            .entry(id.source)
            .or_insert_with(|| SchemaAligner::new(self.config.align_sample_cap))
            .observe(&record);

        let handle = self.records.len() as u64;
        let mut candidates = self.blocker.insert(handle, &record);
        candidates.truncate(self.config.max_candidates);
        let blocked = Instant::now();

        let probe = self.identity_key(id.source, &record).map(Probe::new);
        self.identities.push(match &probe {
            Some(probe) => Identity::Key(probe.key().clone()),
            None => Identity::Absent,
        });
        self.records.push((id, record));
        self.parent.push(handle);
        self.handle_of.insert(id, handle);

        // Score against candidates; collect distinct matching cluster
        // roots.
        let mut best_sim = 0.0f64;
        let mut matched_roots: Vec<u64> = Vec::new();
        for c in candidates {
            let sim = self.similarity_between(probe.as_ref(), handle, c, symbols);
            if sim >= self.config.match_threshold {
                let root = self.find_compress(c);
                if !matched_roots.contains(&root) {
                    matched_roots.push(root);
                }
                best_sim = best_sim.max(sim);
            }
        }
        let scored = Instant::now();

        let event = if matched_roots.is_empty() {
            self.mint(id, handle)
        } else {
            self.unite(id, handle, &matched_roots, best_sim)
        };
        let united = Instant::now();

        let m = scdb_obs::metrics();
        m.add("er.comparisons", self.comparisons - comparisons_before);
        m.add(
            "er.context_evals",
            self.context_evals - context_evals_before,
        );
        m.observe(
            "er.stage.block_ns",
            blocked.duration_since(started).as_nanos() as u64,
        );
        m.observe(
            "er.stage.score_ns",
            scored.duration_since(blocked).as_nanos() as u64,
        );
        m.observe(
            "er.stage.union_ns",
            united.duration_since(scored).as_nanos() as u64,
        );
        event
    }

    /// `handle` matched nothing: it founds a new entity.
    fn mint(&mut self, id: RecordId, handle: u64) -> MergeEvent {
        let entity = self.idgen.next_entity();
        self.entity_of_root.insert(handle, entity);
        scdb_obs::metrics().inc("er.fresh_entities");
        MergeEvent {
            record: id,
            entity,
            absorbed: Vec::new(),
            similarity: 1.0,
            fresh: true,
        }
    }

    /// Union every matched cluster plus `handle`, keeping the entity with
    /// the smallest id (the oldest) as the survivor. `entity_of_root`
    /// keeps exactly one entry per root: each absorbed root's entry is
    /// removed as it is linked under another.
    fn unite(
        &mut self,
        id: RecordId,
        handle: u64,
        matched_roots: &[u64],
        best_sim: f64,
    ) -> MergeEvent {
        let m = scdb_obs::metrics();
        m.inc("er.matches");
        let mut entities: Vec<EntityId> = matched_roots
            .iter()
            .filter_map(|r| self.entity_of_root.get(r).copied())
            .collect();
        entities.sort();
        let survivor = entities[0];
        let absorbed: Vec<EntityId> = entities[1..].to_vec();

        let mut root = matched_roots[0];
        for &other in &matched_roots[1..] {
            let (ra, rb) = (self.find_compress(root), self.find_compress(other));
            if ra != rb {
                self.parent[rb as usize] = ra;
                self.entity_of_root.remove(&rb);
                root = ra;
            }
        }
        let final_root = self.find_compress(root);
        self.parent[handle as usize] = final_root;
        self.entity_of_root.insert(final_root, survivor);

        m.add("er.entities_absorbed", absorbed.len() as u64);
        if !absorbed.is_empty() {
            // A record bridged previously-distinct entities — rare and
            // curation-critical, so it earns a flight-recorder event.
            scdb_obs::event(
                "er",
                "merge",
                &[
                    ("entity", scdb_obs::FieldValue::U64(survivor.0)),
                    ("absorbed", scdb_obs::FieldValue::U64(absorbed.len() as u64)),
                ],
            );
        }
        MergeEvent {
            record: id,
            entity: survivor,
            absorbed,
            similarity: best_sim,
            fresh: false,
        }
    }

    /// Install already-resolved records without scoring — the snapshot
    /// rehydration fast path. Each row carries the final entity decided
    /// by the original run; the resolver rebuilds its blocker, aligner
    /// profiles and union-find from them with **zero** similarity
    /// comparisons, so recovery from a checkpoint costs I/O, not ER.
    /// Rows must arrive in the original global ingest order (blocker and
    /// aligner state are order-sensitive for *future* ingests). Returns
    /// the number of rows adopted.
    pub fn adopt_batch<I>(&mut self, rows: I) -> usize
    where
        I: IntoIterator<Item = (RecordId, Record, EntityId)>,
    {
        let mut root_of_entity: HashMap<EntityId, u64> =
            self.entity_of_root.iter().map(|(h, e)| (*e, *h)).collect();
        let mut adopted = 0usize;
        for (id, record, entity) in rows {
            self.added += 1;
            adopted += 1;
            self.aligners
                .entry(id.source)
                .or_insert_with(|| SchemaAligner::new(self.config.align_sample_cap))
                .observe(&record);
            let handle = self.records.len() as u64;
            // Register with the blocker so future live ingests still see
            // this record as a candidate. The assignment is already
            // known, so no candidates are gathered.
            self.blocker.register(handle, &record);
            self.records.push((id, record));
            self.identities.push(Identity::Unfilled);
            self.parent.push(handle);
            self.handle_of.insert(id, handle);
            match root_of_entity.get(&entity) {
                Some(&root) => {
                    self.parent[handle as usize] = root;
                }
                None => {
                    self.entity_of_root.insert(handle, entity);
                    root_of_entity.insert(entity, handle);
                }
            }
            self.idgen.advance_past(entity);
        }
        scdb_obs::metrics().add("er.adopted", adopted as u64);
        adopted
    }

    /// Every record added so far, in arrival order, with its id — the
    /// order-preserving feed checkpoint snapshots are built from.
    pub fn history(&self) -> impl Iterator<Item = &(RecordId, Record)> {
        self.records.iter()
    }

    /// The entity a record currently resolves to.
    pub fn entity_of(&self, id: RecordId) -> Option<EntityId> {
        let h = *self.handle_of.get(&id)?;
        let root = self.find(h);
        self.entity_of_root.get(&root).copied()
    }

    /// Current clustering: record → entity.
    pub fn assignments(&self) -> HashMap<RecordId, EntityId> {
        let mut out = HashMap::with_capacity(self.handle_of.len());
        for (id, h) in &self.handle_of {
            let root = self.find(*h);
            if let Some(e) = self.entity_of_root.get(&root) {
                out.insert(*id, *e);
            }
        }
        out
    }

    /// Total pairwise comparisons performed so far — the cost metric of
    /// E-T1-FS1.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Comparisons that evaluated the context similarity. The others
    /// were settled by the identity similarity alone: even a perfect
    /// context could not have lifted them to the threshold.
    pub fn context_evals(&self) -> u64 {
        self.context_evals
    }

    /// Records resolved so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct entities currently.
    pub fn entity_count(&self) -> usize {
        let roots: std::collections::HashSet<u64> = (0..self.records.len() as u64)
            .map(|h| self.find(h))
            .collect();
        roots.len()
    }
}

/// The all-pairs-within-blocks batch baseline: resolves a full snapshot
/// from scratch (the "periodic re-resolution" regime the paper warns
/// about).
#[derive(Debug)]
pub struct BatchResolver {
    config: ResolverConfig,
}

impl BatchResolver {
    /// New batch resolver.
    pub fn new(config: ResolverConfig) -> Self {
        BatchResolver { config }
    }

    /// Resolve all `records` at once, returning (assignments, pairwise
    /// comparisons performed).
    pub fn resolve(
        &self,
        records: &[(RecordId, Record)],
        symbols: &SymbolTable,
    ) -> (HashMap<RecordId, EntityId>, u64) {
        // Feed everything through an incremental resolver with unbounded
        // candidates — within-block all-pairs, because every earlier block
        // member is a candidate for each record.
        let mut cfg = self.config.clone();
        cfg.max_candidates = usize::MAX;
        cfg.realign_interval = (records.len() as u64 / 4).max(1);
        let mut inner = IncrementalResolver::new(cfg);
        for (id, r) in records {
            inner.add(*id, r.clone(), symbols);
        }
        let comparisons = inner.comparisons();
        (inner.assignments(), comparisons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::{attr, cells, edit, record, text, ALPHABET, ATTRS};
    use crate::similarity::value_similarity;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use scdb_types::Value;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whenever the identity ceiling prunes a candidate, the score
        /// the resolver would otherwise have computed — identity and
        /// context through the public functions — is below the
        /// threshold too. Thresholds one and two ulps above the ceiling
        /// are the tightest that prune, so they probe the rounding.
        #[test]
        fn pruned_candidates_could_never_match(
            a in cells(),
            other in cells(),
            twin in proptest::option::of((text(), 0usize..14, 0..ALPHABET.len())),
            weights in vec(0.0f64..2.0, ATTRS..ATTRS + 1),
            threshold in 0.3f64..1.0,
        ) {
            // Mostly a twin of `a` whose identity is a near-duplicate
            // name, so the context is high where the prune is tight.
            let mut a = a;
            let b = match twin {
                Some((name, at, with)) => {
                    a[0] = Some(Value::str(&name));
                    let mut b = a.clone();
                    b[0] = Some(Value::str(edit(&name, at, with)));
                    b
                }
                None => other,
            };
            let (Some(Some(ia)), Some(Some(ib))) = (a.first(), b.first()) else {
                return;
            };
            if ia.is_null() || ib.is_null() {
                return;
            }
            let mut symbols = SymbolTable::new();
            let (ra, rb) = (record(&mut symbols, &a), record(&mut symbols, &b));
            let syms: Vec<Symbol> = (0..ATTRS).map(|i| attr(&mut symbols, i)).collect();
            let aligned = AlignmentMap::from_pairs(
                (0..ATTRS).map(|i| (syms[i], syms[(i + 1) % ATTRS], weights[i])).collect(),
            );
            let weight = |s: Symbol| weights[syms.iter().position(|x| *x == s).unwrap_or(0)];
            let contexts = [
                record_similarity(&ra, &rb, &aligned),
                record_similarity(&ra, &rb, &AlignmentMap::empty()),
                record_similarity_same_schema(&ra, &rb),
                record_similarity_weighted(&ra, &rb, weight),
            ];
            let id_sim = value_similarity(ia, ib);
            let ceiling = identity_ceiling(id_sim);
            for t in [threshold, ceiling.next_up(), ceiling.next_up().next_up()] {
                if ceiling >= t {
                    continue;
                }
                for ctx in contexts {
                    prop_assert!(
                        combine(id_sim, ctx) < t,
                        "pruned at {t} with ceiling {ceiling}, but context {ctx} scores {}",
                        combine(id_sim, ctx)
                    );
                }
            }
        }
    }

    fn rec(syms: &mut SymbolTable, attr: &str, name: &str) -> Record {
        let a = syms.intern(attr);
        Record::from_pairs([(a, Value::str(name))])
    }

    fn rid(src: u32, off: u64) -> RecordId {
        RecordId::new(SourceId(src), off)
    }

    #[test]
    fn duplicates_within_source_merge() {
        let mut syms = SymbolTable::new();
        let mut r = IncrementalResolver::new(ResolverConfig::default());
        let e1 = r.add(rid(0, 0), rec(&mut syms, "name", "Methotrexate"), &syms);
        assert!(e1.fresh);
        let e2 = r.add(rid(0, 1), rec(&mut syms, "name", "methotrexate"), &syms);
        assert!(!e2.fresh);
        assert_eq!(e1.entity, e2.entity);
        let e3 = r.add(rid(0, 2), rec(&mut syms, "name", "Warfarin"), &syms);
        assert!(e3.fresh);
        assert_ne!(e3.entity, e1.entity);
        assert_eq!(r.entity_count(), 2);
    }

    #[test]
    fn cross_source_duplicates_merge_after_alignment_learns() {
        let mut syms = SymbolTable::new();
        let cfg = ResolverConfig {
            realign_interval: 1, // realign eagerly for the test
            ..Default::default()
        };
        let mut r = IncrementalResolver::new(cfg);
        // Warm both sources so the aligner has samples.
        let drugs = ["Warfarin", "Ibuprofen", "Methotrexate", "Acetaminophen"];
        for (i, d) in drugs.iter().enumerate() {
            r.add(rid(0, i as u64), rec(&mut syms, "Drug Name", d), &syms);
        }
        let mut merged = 0;
        for (i, d) in drugs.iter().enumerate() {
            let ev = r.add(rid(1, i as u64), rec(&mut syms, "drug", d), &syms);
            if !ev.fresh {
                merged += 1;
            }
        }
        assert!(merged >= 3, "cross-source merges: {merged}");
    }

    #[test]
    fn bridging_record_fuses_clusters() {
        let mut syms = SymbolTable::new();
        let cfg = ResolverConfig {
            match_threshold: 0.55,
            ..Default::default()
        };
        let mut r = IncrementalResolver::new(cfg);
        let a = r.add(rid(0, 0), rec(&mut syms, "name", "aspirin tablet"), &syms);
        let b = r.add(
            rid(0, 1),
            rec(&mut syms, "name", "aspirin coated pill"),
            &syms,
        );
        // a and b may or may not have merged; force distinct by checking.
        if a.entity != b.entity {
            let bridge = r.add(
                rid(0, 2),
                rec(&mut syms, "name", "aspirin tablet coated pill"),
                &syms,
            );
            assert!(!bridge.fresh);
            assert!(
                !bridge.absorbed.is_empty(),
                "bridge should absorb a cluster"
            );
            assert_eq!(r.entity_of(rid(0, 0)), r.entity_of(rid(0, 1)));
        }
    }

    #[test]
    fn assignments_cover_all_records() {
        let mut syms = SymbolTable::new();
        let mut r = IncrementalResolver::new(ResolverConfig::default());
        for i in 0..10 {
            r.add(
                rid(0, i),
                rec(&mut syms, "name", &format!("entity {i}")),
                &syms,
            );
        }
        let asg = r.assignments();
        assert_eq!(asg.len(), 10);
    }

    #[test]
    fn comparisons_bounded_by_candidates() {
        let mut syms = SymbolTable::new();
        let cfg = ResolverConfig {
            max_candidates: 2,
            blocking: BlockingStrategy::None,
            ..Default::default()
        };
        let mut r = IncrementalResolver::new(cfg);
        for i in 0..50 {
            r.add(rid(0, i), rec(&mut syms, "name", &format!("x{i}")), &syms);
        }
        assert!(r.comparisons() <= 50 * 2);
    }

    #[test]
    fn batch_resolver_agrees_on_easy_duplicates() {
        let mut syms = SymbolTable::new();
        let records: Vec<(RecordId, Record)> = vec![
            (rid(0, 0), rec(&mut syms, "name", "Warfarin")),
            (rid(0, 1), rec(&mut syms, "name", "warfarin")),
            (rid(0, 2), rec(&mut syms, "name", "Ibuprofen")),
        ];
        let batch = BatchResolver::new(ResolverConfig::default());
        let (asg, comparisons) = batch.resolve(&records, &syms);
        assert_eq!(asg[&rid(0, 0)], asg[&rid(0, 1)]);
        assert_ne!(asg[&rid(0, 0)], asg[&rid(0, 2)]);
        assert!(comparisons >= 1);
    }

    #[test]
    fn entity_of_unknown_record_is_none() {
        let r = IncrementalResolver::new(ResolverConfig::default());
        assert_eq!(r.entity_of(rid(5, 5)), None);
    }

    #[test]
    fn late_designation_scores_like_early_designation() {
        // Same name, different gene: only the identity can merge them,
        // so a cached "no identity" from before the designation would
        // show as a fresh entity.
        let mut syms = SymbolTable::new();
        let (name, gene) = (syms.intern("name"), syms.intern("gene"));
        let row =
            |g: &str| Record::from_pairs([(name, Value::str("Warfarin")), (gene, Value::str(g))]);
        let mut early = IncrementalResolver::new(ResolverConfig::default());
        let mut late = IncrementalResolver::new(ResolverConfig::default());
        early.designate_identity(SourceId(0), name);
        early.add(rid(0, 0), row("VKORC1"), &syms);
        late.add(rid(0, 0), row("VKORC1"), &syms);
        late.designate_identity(SourceId(0), name);
        let expected = early.add(rid(0, 1), row("CYP2C9"), &syms);
        assert!(!expected.fresh);
        assert_eq!(late.add(rid(0, 1), row("CYP2C9"), &syms), expected);
    }
}
