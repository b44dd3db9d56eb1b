//! Differential arms (ROADMAP F1): a database must answer exactly like a
//! simpler reference fed the same rows.
//!
//! Reopened ≡ never-closed: a database checkpointed halfway through a
//! load, dropped and reopened from its snapshot, then fed the rest, ends
//! in the state of one that was never closed, and resolves every later
//! row to the same entity. A snapshot reopen adopts its rows without
//! scoring them, so this is what shows that the adopted resolver — its
//! blocker, aligner profiles and union-find — is the live one. The
//! snapshot does not carry the resolver's cross-source alignment cache,
//! so the gated arms realign before every cross-source comparison; the
//! arm at the default interval is ignored until the snapshot carries it.
//!
//! Compiled semantic atoms ≡ a brute-force oracle: every `IS` and
//! `HAS SOME` query over a `scaled` source returns exactly the rows that
//! the multi-pass normalizer and the saturation's fact accessors select,
//! at one scan worker and at four (with equal [`ExecStats`]), and an
//! index-driven scan returns the rows of a forced full scan.
//!
//! Sweep ≡ per-row: the `discover_links` sweep over rows loaded
//! reference-first finds exactly the links that per-row curation finds
//! when the same rows arrive target-first.
//!
//! Numeric columns ≡ records ≡ a brute-force oracle: every comparison and
//! `CLOSE TO` over numeric edge values (NaN, ±0.0, ±2^53 ± 1, nulls,
//! absent attributes, an attribute that turns non-numeric mid-stream)
//! returns the same rows in the same order with the same [`ExecStats`]
//! whether its operand is read from the row store's column or from the
//! records, on one worker, on four, and behind an index scan; and a
//! reopened database answers those scans as the never-closed one does.

use std::collections::HashMap;

use scdb_core::{Db, DurabilityConfig, IngestReport};
use scdb_datagen::life_science::{scaled, ScaledConfig};
use scdb_er::normalize::normalize;
use scdb_er::ResolverConfig;
use scdb_query::exec::{EvalEnv, SemanticEnv};
use scdb_query::{
    Atom, CompareOp, ExecStats, Executor, Literal, LogicalPlan, PlanNode, Query, RowSource,
    StoreSource,
};
use scdb_semantic::{Ontology, Reasoner, Saturation};
use scdb_storage::text::tokenize;
use scdb_storage::{IndexDef, IndexKind, IndexPredicate, IndexSet, NameIndex, RowStore};
use scdb_txn::FailpointLog;
use scdb_types::{Confidence, EntityId, Record, RecordId, SourceId, Symbol, SymbolTable, Value};
use scdb_uncertain::FuzzyPredicate;

/// One generated row, symbol-free so it can be interned into any `Db`.
struct Row {
    source: String,
    attrs: Vec<(String, Value)>,
    text: Option<String>,
}

/// Each source with its identity attribute (its rows' first), and the
/// rows interleaved across sources in arrival order, each carrying a
/// `tag` shared by ten consecutive rows of its source as in the
/// benchmark corpus.
fn corpus() -> (Vec<(String, String)>, Vec<Row>) {
    let mut symbols = SymbolTable::new();
    let generated = scaled(
        &ScaledConfig {
            n_drugs: 120,
            n_genes: 40,
            n_diseases: 24,
            seed: 0xD1FF,
            ..ScaledConfig::default()
        },
        &mut symbols,
    );
    let sources = generated
        .iter()
        .map(|s| {
            let first = s.records[0].record.attrs().next().expect("non-empty rows");
            (s.name.clone(), symbols.resolve(first).to_string())
        })
        .collect();
    let longest = generated.iter().map(|s| s.records.len()).max().unwrap_or(0);
    let rows = (0..longest)
        .flat_map(|i| generated.iter().enumerate().map(move |(k, s)| (i, k, s)))
        .filter_map(|(i, k, s)| {
            let r = s.records.get(i)?;
            let mut attrs: Vec<(String, Value)> = r
                .record
                .iter()
                .map(|(a, v)| (symbols.resolve(a).to_string(), v.clone()))
                .collect();
            attrs.push(("tag".into(), Value::str(format!("{:04x}s{k}", i / 10))));
            Some(Row {
                source: s.name.clone(),
                attrs,
                text: r.text.clone(),
            })
        })
        .collect();
    (sources, rows)
}

/// What one ingest decided — record, entity, fresh, absorbed, links —
/// minus its batch id (a per-handle counter).
type Decision = (u32, u64, u64, bool, Vec<u64>, usize);

fn decision(r: &IngestReport) -> Decision {
    (
        r.record.source.0,
        r.record.offset,
        r.entity.0,
        r.fresh_entity,
        r.absorbed.iter().map(|e| e.0).collect(),
        r.links_discovered,
    )
}

fn load(db: &Db, rows: &[Row]) -> Vec<Decision> {
    rows.iter()
        .map(|row| {
            let record =
                Record::from_pairs(row.attrs.iter().map(|(a, v)| (db.intern(a), v.clone())));
            let report = db
                .ingest(&row.source, record, row.text.as_deref())
                .expect("ingest");
            decision(&report)
        })
        .collect()
}

fn reopened_equals_never_closed(shards: u32, resolver: ResolverConfig) {
    let (sources, rows) = corpus();
    let (first, rest) = rows.split_at(rows.len() / 2);
    let register = |db: &Db| {
        for (name, identity) in &sources {
            db.register_source(name, Some(identity));
        }
    };
    let builder = || {
        Db::builder()
            .write_shards(shards)
            .resolver(resolver.clone())
    };

    let never_closed = builder().build();
    register(&never_closed);
    load(&never_closed, first);
    let expected = load(&never_closed, rest);

    let log = FailpointLog::new();
    let open = || {
        builder()
            .durability_config(DurabilityConfig::store(Box::new(log.clone())))
            .open()
            .expect("open")
    };
    {
        let db = open();
        register(&db);
        load(&db, first);
        db.checkpoint().expect("checkpoint");
    }
    let db = open();
    let report = db.recovery_report().expect("durable open has a report");
    assert_eq!(
        report.records_replayed, 0,
        "the reopen came from the snapshot"
    );
    assert_eq!(report.snapshot_rows, first.len());

    let got = load(&db, rest);
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(g, e, "row {} of the continued load", first.len() + i);
    }
    assert_eq!(db.state_dump(), never_closed.state_dump());
}

/// Realigning before every cross-source comparison: the cross-source
/// alignment cache then decides nothing, so this arm checks everything
/// else the snapshot rebuilds.
fn realign_every_row() -> ResolverConfig {
    ResolverConfig {
        realign_interval: 1,
        ..ResolverConfig::default()
    }
}

#[test]
fn reopened_equals_never_closed_unsharded() {
    reopened_equals_never_closed(1, realign_every_row());
}

#[test]
fn reopened_equals_never_closed_two_shards() {
    reopened_equals_never_closed(2, realign_every_row());
}

/// At the default realign interval a never-closed resolver scores with
/// alignments cached up to 255 rows earlier. The snapshot carries that
/// cache, so a reopened resolver scores with the same maps and rebuilds
/// them at the same rows.
#[test]
fn reopened_equals_never_closed_at_the_default_realign_interval() {
    for shards in [1, 2] {
        reopened_equals_never_closed(shards, ResolverConfig::default());
    }
}

/// A random eight-letter name: no two share enough letters for the
/// resolver to merge them.
fn random_name(state: &mut u64) -> String {
    (0..8)
        .map(|_| {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            char::from(b'a' + ((*state >> 33) % 26) as u8)
        })
        .collect()
}

/// Three tiers of sources whose rows name rows of the tier below:
/// trials name drugs, drugs name genes. Returned target-first (genes,
/// drugs, trials); every row is its own entity.
fn link_corpus() -> Vec<(&'static str, Vec<(String, Value)>)> {
    let mut state = 0x5EED;
    let genes: Vec<String> = (0..24).map(|_| random_name(&mut state)).collect();
    let drugs: Vec<String> = (0..48).map(|_| random_name(&mut state)).collect();
    let mut rows = Vec::new();
    for g in &genes {
        let function = Value::str(format!("{} binding", random_name(&mut state)));
        rows.push((
            "genes",
            vec![
                ("gene".to_string(), Value::str(g)),
                ("function".to_string(), function),
            ],
        ));
    }
    for (i, d) in drugs.iter().enumerate() {
        rows.push((
            "drugs",
            vec![
                ("drug".to_string(), Value::str(d)),
                ("target".to_string(), Value::str(&genes[i % genes.len()])),
                ("dose".to_string(), Value::Int(i as i64)),
            ],
        ));
    }
    for i in 0..36 {
        rows.push((
            "trials",
            vec![
                ("trial".to_string(), Value::str(random_name(&mut state))),
                ("arm".to_string(), Value::str(&drugs[(i * 7) % drugs.len()])),
                (
                    "control".to_string(),
                    Value::str(&drugs[(i * 11 + 3) % drugs.len()]),
                ),
            ],
        ));
    }
    rows
}

/// Every edge of `db`'s graph as `(from name, to name, role)`, names
/// being the identity values of the corpus rows.
fn named_edges(
    db: &Db,
    rows: &[(&str, Vec<(String, Value)>)],
) -> std::collections::BTreeSet<(String, String, String)> {
    let name_of: HashMap<EntityId, String> = rows
        .iter()
        .map(|(_, attrs)| attrs[0].1.render().into_owned())
        .map(|name| (db.entity_named(&name).expect("registered name"), name))
        .collect();
    let graph = db.graph();
    let symbols = db.symbols_ref();
    graph
        .node_ids()
        .flat_map(|v| graph.edges(v).iter().map(move |e| (v, e)))
        .map(|(v, e)| {
            (
                name_of[&v].clone(),
                name_of[&e.to].clone(),
                symbols.resolve(e.role).to_string(),
            )
        })
        .collect()
}

/// The `discover_links` sweep ≡ per-row linking: loading targets before
/// the rows that name them links every reference at ingest; loading the
/// references first links none of them until the sweep, which must then
/// find exactly the same `(from, to, role)` edges and link count. A
/// sweep after the target-first load finds nothing new.
#[test]
fn discover_links_sweep_equals_per_row_linking() {
    let rows = link_corpus();
    let load = |order: &mut dyn Iterator<Item = &(&str, Vec<(String, Value)>)>| {
        let db = Db::new();
        db.register_source("genes", Some("gene"));
        db.register_source("drugs", Some("drug"));
        db.register_source("trials", Some("trial"));
        for (source, attrs) in order {
            let record = Record::from_pairs(attrs.iter().map(|(a, v)| (db.intern(a), v.clone())));
            db.ingest(source, record, None).expect("ingest");
        }
        assert_eq!(db.stats().merges, 0, "every row is its own entity");
        db
    };

    let target_first = load(&mut rows.iter());
    let per_row = named_edges(&target_first, &rows);
    assert_eq!(
        per_row.len(),
        48 + 2 * 36,
        "every reference linked at ingest"
    );
    assert_eq!(target_first.discover_links().expect("sweep"), 0);

    let reference_first = load(&mut rows.iter().rev());
    assert_eq!(reference_first.stats().links, 0, "no target existed yet");
    let swept = reference_first.discover_links().expect("sweep");
    assert_eq!(swept as u64, reference_first.stats().links);
    assert_eq!(named_edges(&reference_first, &rows), per_row);
    assert_eq!(reference_first.stats().links, target_first.stats().links);
}

/// `normalize` as three passes — strip bracketed text, tokenize, join —
/// the way it was written before it became one pass.
fn multi_pass_normalize(s: &str) -> String {
    let mut cleaned = String::new();
    let mut depth = 0i32;
    for ch in s.chars() {
        match ch {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth = (depth - 1).max(0),
            _ if depth == 0 => cleaned.push(ch),
            _ => {}
        }
    }
    tokenize(&cleaned).join(" ")
}

/// One `scaled` source in a row store, an entity per distinct value
/// across all sources, and a saturated taxonomy with `Drug ⊑
/// ∃has_target.Gene` over type and role assertions on a slice of rows.
struct SemanticFixture {
    symbols: SymbolTable,
    store: RowStore,
    indexes: IndexSet,
    ontology: Ontology,
    saturation: Saturation,
    entity_by_name: HashMap<String, EntityId>,
    /// The store's name columns, noted before any name was bound.
    names: NameIndex,
    /// The source's attributes: name, gene, disease.
    attrs: [String; 3],
}

const SOURCE: &str = "drugs";
const CONCEPTS: [&str; 6] = [
    "Drug",
    "ApprovedDrug",
    "Chemical",
    "Gene",
    "Disease",
    "Orphan",
];
const ROLES: [&str; 3] = ["has_target", "treats", "inhibits"];

impl SemanticFixture {
    fn new() -> Self {
        let mut symbols = SymbolTable::new();
        let generated = scaled(
            &ScaledConfig {
                n_drugs: 150,
                n_genes: 30,
                n_diseases: 20,
                seed: 0x5E3A,
                ..ScaledConfig::default()
            },
            &mut symbols,
        );
        let attrs: Vec<Symbol> = generated[0].records[0].record.attrs().collect();
        let [name, gene, disease] = attrs[..] else {
            panic!("a scaled source has three attributes");
        };
        let mut store = RowStore::new(SourceId(0));
        for r in &generated[0].records {
            store.append(r.record.clone());
        }
        // Names that reach every branch of normalization.
        for surface in [
            "İstanbul (x)",
            "STRASSE ß",
            "e\u{301}te",
            "a(b)c",
            "(only a qualifier)",
            "",
        ] {
            store.append(Record::from_pairs([
                (name, Value::str(surface)),
                (gene, Value::str("GEN001")),
            ]));
        }
        let mut entity_by_name = HashMap::new();
        let values = generated
            .iter()
            .flat_map(|s| &s.records)
            .flat_map(|r| r.record.iter().map(|(_, v)| v.clone()))
            .chain(
                store
                    .scan()
                    .flat_map(|(_, r)| r.iter().map(|(_, v)| v.clone())),
            );
        for v in values {
            let key = multi_pass_normalize(&v.render());
            if !key.is_empty() {
                let next = EntityId(entity_by_name.len() as u64);
                entity_by_name.entry(key).or_insert(next);
            }
        }
        let entity = |v: &Value| {
            entity_by_name
                .get(&multi_pass_normalize(&v.render()))
                .copied()
        };

        let mut ontology = Ontology::new();
        ontology.subclass("ApprovedDrug", "Drug");
        ontology.subclass("Drug", "Chemical");
        ontology.subclass_exists("Drug", "has_target", "Gene");
        let c: HashMap<&str, _> = CONCEPTS.iter().map(|n| (*n, ontology.concept(n))).collect();
        let r: HashMap<&str, _> = ROLES.iter().map(|n| (*n, ontology.role(n))).collect();
        let certain = Confidence::CERTAIN;
        for (i, (_, row)) in store.scan().enumerate() {
            let (Some(drug), Some(target)) = (
                row.get(name).and_then(entity),
                row.get(gene).and_then(entity),
            ) else {
                continue;
            };
            if i % 3 == 0 {
                let concept = if i % 2 == 0 { "ApprovedDrug" } else { "Drug" };
                ontology.assert_type(drug, c[concept], certain);
            }
            if i % 4 == 1 {
                ontology.assert_type(target, c["Gene"], certain);
            }
            // Named fillers, also for drugs no assertion types.
            if i % 5 == 2 {
                ontology.assert_role(drug, r["has_target"], target, certain);
            }
            if let Some(cured) = row.get(disease).and_then(entity) {
                if i % 7 == 0 {
                    ontology.assert_role(drug, r["treats"], cured, certain);
                    ontology.assert_type(cured, c["Disease"], certain);
                }
            }
        }
        let saturation = Reasoner::new().saturate(&ontology);
        let mut indexes = IndexSet::new();
        indexes.create(
            IndexDef {
                name: "ix_name".into(),
                source: SOURCE.into(),
                attr: symbols.resolve(name).to_string(),
                kind: IndexKind::Hash,
            },
            &symbols,
            &store,
        );
        let attrs = [name, gene, disease].map(|a| symbols.resolve(a).to_string());
        let mut names = name_columns(&store);
        for (key, &entity) in &entity_by_name {
            let id = names.intern(key);
            names.register(id, entity);
        }
        SemanticFixture {
            symbols,
            store,
            indexes,
            ontology,
            saturation,
            entity_by_name,
            names,
            attrs,
        }
    }

    fn env(&self) -> EvalEnv<'_> {
        EvalEnv {
            semantic: Some(SemanticEnv {
                ontology: &self.ontology,
                saturation: &self.saturation,
                entity_by_name: &self.entity_by_name,
            }),
            ..EvalEnv::default()
        }
    }

    /// The store as a source: with its name columns, or reading every
    /// semantic atom from the records.
    fn source(&self, columns: bool) -> Box<dyn RowSource + Sync + '_> {
        let source = StoreSource::with_indexes(SOURCE, &self.store, &self.symbols, &self.indexes);
        if columns {
            Box::new(source.with_names(&self.names))
        } else {
            Box::new(RecordPath(source))
        }
    }

    /// Does `record` pass `atom`, by the multi-pass normalizer and the
    /// saturation's fact accessors rather than its posting lists?
    fn oracle(&self, atom: &Atom, record: &Record) -> bool {
        let value = |attr: &str| record.get(self.symbols.get(attr)?);
        match atom {
            Atom::Compare { attr, op, value: v } => {
                assert_eq!(*op, CompareOp::Eq);
                value(attr) == Some(&v.to_value())
            }
            Atom::IsConcept { attr, .. } | Atom::HasSome { attr, .. } => {
                let entity = self.entity(value(attr));
                semantic_oracle(&self.ontology, &self.saturation, atom, entity)
            }
            other => panic!("no oracle for {other}"),
        }
    }

    fn entity(&self, value: Option<&Value>) -> Option<EntityId> {
        let key = multi_pass_normalize(&value?.render());
        self.entity_by_name.get(&key).copied()
    }

    fn expected(&self, atoms: &[Atom]) -> Vec<Record> {
        self.store
            .scan()
            .map(|(_, r)| r)
            .filter(|r| atoms.iter().all(|a| self.oracle(a, r)))
            .cloned()
            .collect()
    }

    /// Run `plan` on both paths, which must agree on rows and counters.
    fn run(&self, executor: Executor, plan: &LogicalPlan) -> (Vec<Record>, ExecStats) {
        let [columns, records] = [true, false].map(|columns| {
            executor
                .execute(plan, &*self.source(columns), &self.env())
                .expect("every name resolves")
        });
        assert_eq!(columns, records, "name columns vs records");
        columns
    }
}

/// Does a row whose value names `entity` pass the `IS` or `HAS SOME`
/// `atom`, by the saturation's fact accessors rather than its posting
/// lists?
fn semantic_oracle(
    ontology: &Ontology,
    saturation: &Saturation,
    atom: &Atom,
    entity: Option<EntityId>,
) -> bool {
    let Some(e) = entity else {
        return false;
    };
    match atom {
        Atom::IsConcept { concept, .. } => {
            let c = ontology.find_concept(concept).unwrap();
            saturation.types_of(e).any(|(t, _)| t == c)
        }
        Atom::HasSome { role, .. } => {
            let r = ontology.find_role(role).unwrap();
            !saturation.fillers(r, e).is_empty()
                || saturation
                    .existentials()
                    .iter()
                    .any(|w| w.entity == e && w.role == r)
        }
        other => panic!("no semantic oracle for {other}"),
    }
}

/// The name columns of `store`'s rows, as a database notes them: each
/// string by its normalized form, and any other non-null value drops its
/// attribute's column.
fn name_columns(store: &RowStore) -> NameIndex {
    let mut names = NameIndex::new();
    for (rid, row) in store.scan() {
        for (attr, value) in row.iter() {
            match value {
                Value::Str(s) => {
                    let id = names.intern(&normalize(s));
                    names.note_name(rid.source, attr, rid.offset as usize, id);
                }
                Value::Null => {}
                _ => names.note_other(rid.source, attr),
            }
        }
    }
    names
}

fn scan_plan(atoms: Vec<Atom>) -> LogicalPlan {
    LogicalPlan {
        nodes: vec![
            PlanNode::Scan {
                source: SOURCE.into(),
            },
            PlanNode::Filter { atoms },
        ],
        estimated_rows: None,
        empty: false,
        rewrites: Vec::new(),
    }
}

const PARALLEL: Executor = Executor {
    workers: 4,
    parallel_threshold: 1,
};

#[test]
fn compiled_semantic_atoms_equal_the_brute_force_oracle() {
    let fx = SemanticFixture::new();
    let mut queries: Vec<Vec<Atom>> = Vec::new();
    for attr in &fx.attrs {
        for concept in CONCEPTS {
            queries.push(vec![Atom::IsConcept {
                attr: attr.clone(),
                concept: concept.into(),
            }]);
        }
        for role in ROLES {
            queries.push(vec![Atom::HasSome {
                attr: attr.clone(),
                role: role.into(),
            }]);
        }
    }
    // A conjunction, to cover short-circuiting between semantic atoms.
    queries.push(vec![
        Atom::HasSome {
            attr: fx.attrs[0].clone(),
            role: "has_target".into(),
        },
        Atom::IsConcept {
            attr: fx.attrs[0].clone(),
            concept: "ApprovedDrug".into(),
        },
    ]);
    let mut answered = 0;
    for atoms in queries {
        let expected = fx.expected(&atoms);
        let plan = scan_plan(atoms.clone());
        let (seq, seq_stats) = fx.run(Executor::sequential(), &plan);
        assert_eq!(seq, expected, "sequential: {atoms:?}");
        let (par, par_stats) = fx.run(PARALLEL, &plan);
        assert_eq!(par, expected, "4 workers: {atoms:?}");
        assert_eq!(par_stats, seq_stats, "{atoms:?}");
        assert_eq!(seq_stats.rows_scanned, fx.store.len() as u64);
        answered += usize::from(!expected.is_empty());
    }
    // Not vacuous: every concept with members and every role with
    // subjects answers rows on the name attribute at least.
    assert!(answered >= 7, "{answered} queries answered rows");
}

#[test]
fn index_driven_semantic_scan_equals_a_forced_full_scan() {
    let fx = SemanticFixture::new();
    let name = &fx.attrs[0];
    let sym = fx.symbols.get(name).unwrap();
    let mut matched = 0;
    for (_, row) in fx.store.scan().step_by(4) {
        let Some(Value::Str(surface)) = row.get(sym) else {
            continue;
        };
        let eq = Atom::Compare {
            attr: name.clone(),
            op: CompareOp::Eq,
            value: Literal::Str(surface.to_string()),
        };
        let atoms = vec![
            eq.clone(),
            Atom::IsConcept {
                attr: name.clone(),
                concept: "Drug".into(),
            },
        ];
        let full = scan_plan(atoms.clone());
        let mut indexed = full.clone();
        indexed.nodes[0] = PlanNode::IndexScan {
            source: SOURCE.into(),
            index: "ix_name".into(),
            atom: eq,
        };
        let (want, full_stats) = fx.run(Executor::sequential(), &full);
        assert_eq!(want, fx.expected(&atoms), "{surface}");
        let (got, index_stats) = fx.run(Executor::sequential(), &indexed);
        assert_eq!(got, want, "{surface}");
        assert!(
            index_stats.rows_scanned < full_stats.rows_scanned,
            "the index drove the scan for {surface}"
        );
        matched += usize::from(!got.is_empty());
    }
    assert!(matched > 0, "some probed name is a Drug");
}

/// A source that counts the records the executor fetches.
struct Counting<'a> {
    inner: &'a (dyn RowSource + Sync),
    fetched: std::sync::atomic::AtomicU64,
}

impl RowSource for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn rows(&self) -> &[Record] {
        self.inner.rows()
    }
    fn record(&self, offset: usize) -> &Record {
        self.fetched
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.record(offset)
    }
    fn attr(&self, name: &str) -> Option<Symbol> {
        self.inner.attr(name)
    }
    fn names(&self) -> Option<scdb_storage::SourceNames<'_>> {
        self.inner.names()
    }
}

/// Read from a name column, a semantic scan fetches only the records it
/// returns, on one worker and on four; read from the records, it fetches
/// every row it scans.
#[test]
fn semantic_column_scans_fetch_no_rejected_row() {
    let fx = SemanticFixture::new();
    let mut answered = 0;
    for concept in CONCEPTS {
        let plan = scan_plan(vec![Atom::IsConcept {
            attr: fx.attrs[0].clone(),
            concept: concept.into(),
        }]);
        for executor in [Executor::sequential(), PARALLEL] {
            for columns in [true, false] {
                let source = fx.source(columns);
                let counting = Counting {
                    inner: &*source,
                    fetched: Default::default(),
                };
                let (_, stats) = executor
                    .execute(&plan, &counting, &fx.env())
                    .expect("every name resolves");
                let want = if columns {
                    stats.rows_out
                } else {
                    stats.rows_scanned
                };
                assert_eq!(counting.fetched.into_inner(), want, "{concept} {columns}");
                answered += usize::from(columns && stats.rows_out > 0);
            }
        }
    }
    assert!(answered > 0, "some concept has members");
}

/// Every normalized identity the rows loaded so far claimed, with the
/// row that claimed it first: a name names the entity its first claimant
/// belongs to now, whatever merged since.
#[derive(Default)]
struct Claims(HashMap<String, RecordId>);

impl Claims {
    /// Note `rows`, loaded with `decisions`, whose identity attributes
    /// are `identities` (source → attribute).
    fn note(&mut self, rows: &[Row], decisions: &[Decision], identities: &HashMap<&str, &str>) {
        for (row, d) in rows.iter().zip(decisions) {
            let identity = identities[row.source.as_str()];
            let Some((_, value)) = row.attrs.iter().find(|(a, _)| a == identity) else {
                continue;
            };
            let key = normalize(&value.render());
            if !key.is_empty() {
                let rid = RecordId::new(SourceId(d.0), d.1);
                self.0.entry(key).or_insert(rid);
            }
        }
    }
}

/// Everything a database answers to `atoms` over `source`, through its
/// name columns, equals what the record path answers over the same rows
/// (read back from the database), with the plan the database ran and its
/// names, and what the brute-force oracle selects from the `claims` and
/// the resolver's assignments: rows, order and [`ExecStats`], on one
/// worker and on four. When the plan takes an index (a hash index on
/// `tag`), the record path gets one too. Returns whether any row was
/// answered, and whether through an index.
fn check_database_scan(db: &Db, claims: &Claims, source: &str, atoms: &[Atom]) -> (bool, bool) {
    let saturation = db.reason().expect("reason");
    let assignments = db.assignments();
    let all = db
        .run_query(&Query {
            select: Vec::new(),
            from: source.into(),
            atoms: Vec::new(),
            limit: None,
        })
        .expect("rows")
        .rows;
    let query = Query {
        select: Vec::new(),
        from: source.into(),
        atoms: atoms.to_vec(),
        limit: None,
    };
    let outcomes: Vec<_> = [Executor::sequential(), PARALLEL]
        .into_iter()
        .map(|executor| {
            db.set_executor(executor);
            let out = db.run_query(&query).expect("query");
            (executor, out)
        })
        .collect();
    db.set_executor(Executor::default());
    let entity_by_name: HashMap<String, EntityId> = all
        .iter()
        .flat_map(Record::iter)
        .filter_map(|(_, v)| {
            let entity = db.entity_named(&v.render())?;
            Some((normalize(&v.render()), entity))
        })
        .collect();
    let symbols = db.symbols_ref();
    let ontology = db.ontology();
    let mut store = RowStore::new(SourceId(0));
    for row in &all {
        store.append(row.clone());
    }
    let mut indexes = IndexSet::new();
    let index = outcomes[0].1.plan.index_scan().map(|(ix, _)| ix);
    if let Some(name) = index {
        indexes.create(
            IndexDef {
                name: name.into(),
                source: source.into(),
                attr: "tag".into(),
                kind: IndexKind::Hash,
            },
            &symbols,
            &store,
        );
    }
    let records = RecordPath(StoreSource::with_indexes(
        source, &store, &symbols, &indexes,
    ));
    let env = EvalEnv {
        semantic: Some(SemanticEnv {
            ontology: &ontology,
            saturation: &saturation,
            entity_by_name: &entity_by_name,
        }),
        ..EvalEnv::default()
    };
    let passes = |row: &Record, atom: &Atom| match atom {
        Atom::Compare {
            attr,
            op: CompareOp::Eq,
            value,
        } => row.get(symbols.get(attr).unwrap()) == Some(&value.to_value()),
        Atom::IsConcept { attr, .. } | Atom::HasSome { attr, .. } => {
            let value = symbols.get(attr).and_then(|a| row.get(a));
            let claimant = value.and_then(|v| claims.0.get(&normalize(&v.render())));
            let entity = claimant.map(|rid| assignments[rid]);
            semantic_oracle(&ontology, &saturation, atom, entity)
        }
        other => panic!("no oracle for {other}"),
    };
    let expected: Vec<Record> = all
        .iter()
        .filter(|row| atoms.iter().all(|a| passes(row, a)))
        .cloned()
        .collect();
    for (executor, out) in &outcomes {
        assert_eq!(out.rows, expected, "{query} on {executor:?}");
        let (rows, stats) = executor
            .execute(&out.plan, &records, &env)
            .expect("record path");
        assert_eq!(rows, out.rows, "{query} on {executor:?}: records");
        assert_eq!(stats, out.stats, "{query} on {executor:?}: records");
    }
    (!expected.is_empty(), index.is_some())
}

/// The concepts and roles the database arms type entities with.
const DB_CONCEPTS: [&str; 3] = ["Drug", "Chemical", "Gene"];

/// The database arms' knowledge: `Drug ⊑ Chemical`, `Drug ⊑
/// ∃has_target.Gene`, and a role per attribute, so the links curation
/// finds become role assertions `HAS SOME` reads.
fn declare_knowledge(db: &Db, attrs: &[String]) {
    db.with_ontology(|o| {
        o.subclass("Drug", "Chemical");
        o.subclass_exists("Drug", "has_target", "Gene");
        o.concept("Gene");
        for attr in attrs {
            o.role(attr);
        }
    });
}

/// Type every third row's entity, by its identity value, as a `Drug` or
/// a `Gene`.
fn assert_types(db: &Db, rows: &[Row]) {
    for (i, row) in rows.iter().enumerate().step_by(3) {
        let name = row.attrs[0].1.render();
        let concept = if i % 2 == 0 { "Drug" } else { "Gene" };
        db.assert_entity_type(&name, concept)
            .expect("a curated name");
    }
}

/// Every attribute of `source`'s rows.
fn attrs_of(rows: &[Row], source: &str) -> Vec<String> {
    let mut attrs: Vec<String> = rows
        .iter()
        .filter(|r| r.source == source)
        .flat_map(|r| r.attrs.iter().map(|(a, _)| a.clone()))
        .collect();
    attrs.sort();
    attrs.dedup();
    attrs
}

/// `IS` each concept and `HAS SOME` each role, on `attr`.
fn semantic_atoms(attr: &str, roles: &[String]) -> Vec<Atom> {
    let is = DB_CONCEPTS.iter().map(|c| Atom::IsConcept {
        attr: attr.into(),
        concept: (*c).into(),
    });
    let has = roles
        .iter()
        .map(String::as_str)
        .chain(["has_target"])
        .map(|r| Atom::HasSome {
            attr: attr.into(),
            role: r.into(),
        });
    is.chain(has).collect()
}

/// A database's semantic scans equal the record path and the oracle
/// while curation goes on: after every chunk of rows (whose merges move
/// names between entities) and every round of type assertions, on every
/// attribute of every source, behind an index scan on `tag`, and on a
/// source whose rows mention a name before it is registered, carry
/// non-ASCII names, hold names as numbers, and have an attribute that
/// turns from strings to a number partway through.
#[test]
fn database_semantic_scans_equal_records_and_the_oracle() {
    let (sources, rows) = corpus();
    let db = Db::new();
    for (name, identity) in &sources {
        db.register_source(name, Some(identity));
    }
    let first = &sources[0].0;
    db.create_index("ix_tag", first, "tag", IndexKind::Hash)
        .expect("index");
    let all_attrs: Vec<String> = sources
        .iter()
        .flat_map(|(s, _)| attrs_of(&rows, s))
        .collect();
    declare_knowledge(&db, &all_attrs);
    let mut identities: HashMap<&str, &str> = sources
        .iter()
        .map(|(s, identity)| (s.as_str(), identity.as_str()))
        .collect();
    identities.insert("refs", "name");
    let mut claims = Claims::default();
    let (mut answered, mut absorbed, mut indexed) = (0, 0, 0);
    for chunk in rows.chunks(70) {
        let decisions = load(&db, chunk);
        claims.note(chunk, &decisions, &identities);
        absorbed += decisions.iter().filter(|d| !d.4.is_empty()).count();
        assert_types(&db, chunk);
        for (source, _) in &sources {
            let attrs = attrs_of(&rows, source);
            for attr in &attrs {
                for atom in semantic_atoms(attr, &attrs) {
                    answered += usize::from(check_database_scan(&db, &claims, source, &[atom]).0);
                }
            }
        }
        let tagged = chunk.iter().find(|r| &r.source == first).expect("a row");
        let tag = &tagged.attrs.iter().find(|(a, _)| a == "tag").unwrap().1;
        let eq = Atom::Compare {
            attr: "tag".into(),
            op: CompareOp::Eq,
            value: Literal::Str(tag.render().into_owned()),
        };
        for atom in semantic_atoms(&tagged.attrs[0].0, &[]) {
            let (hit, via_index) = check_database_scan(&db, &claims, first, &[eq.clone(), atom]);
            indexed += usize::from(hit && via_index);
        }
    }
    assert!(absorbed > 0, "some row bridged two entities");
    assert!(answered > 20, "{answered} scans answered rows");
    assert!(indexed > 0, "some index-driven scan answered rows");

    // A row mentions a name before any row registers it; names beyond
    // ASCII; names written as numbers, read from numeric attributes;
    // and `alias`, all strings until a row holds a number.
    db.register_source("refs", Some("name"));
    let refs = |name: &str, more: Vec<(&str, Value)>| {
        let mut attrs = vec![("name".to_string(), Value::str(name))];
        attrs.extend(more.into_iter().map(|(a, v)| (a.to_string(), v)));
        Row {
            source: "refs".into(),
            attrs,
            text: None,
        }
    };
    let early = [
        refs(
            "qqzzyyxx alpha",
            vec![
                ("mentions", Value::str("Vvwwkkjj Later")),
                ("code", Value::Int(7)),
                ("alias", Value::str("İstanbul Äpfel")),
            ],
        ),
        refs("Vvwwkkjj Later", vec![("alias", Value::str("中文药名"))]),
        refs("7", vec![("alias", Value::str("e\u{301}te"))]),
        refs("İSTANBUL äpfel (x)", vec![("code", Value::Float(7.0))]),
        refs("中文药名", vec![("mentions", Value::str("7"))]),
        refs("e\u{301}te", vec![("mentions", Value::Null)]),
    ];
    let late = [refs("bbnnmmpp omega", vec![("alias", Value::Int(7))])];
    let ref_attrs = ["name", "mentions", "code", "alias"].map(String::from);
    declare_knowledge(&db, &ref_attrs);
    let mut answered = 0;
    for (step, batch) in [&early[..], &late[..]].into_iter().enumerate() {
        let decisions = load(&db, batch);
        claims.note(batch, &decisions, &identities);
        for name in ["Vvwwkkjj Later", "7", "İstanbul Äpfel", "e\u{301}te"] {
            db.assert_entity_type(name, "Drug").expect("registered");
        }
        db.assert_entity_type("中文药名", "Gene")
            .expect("registered");
        for attr in &ref_attrs {
            for atom in semantic_atoms(attr, &ref_attrs) {
                let (hit, _) =
                    check_database_scan(&db, &claims, "refs", std::slice::from_ref(&atom));
                answered += usize::from(hit);
                if step == 0
                    && matches!(&atom, Atom::IsConcept { concept, .. } if concept == "Drug")
                {
                    assert!(hit, "{atom} answers a row");
                }
            }
        }
    }
    assert!(answered >= 8, "{answered} scans of refs answered rows");
}

/// A database reopened from a checkpoint and a log tail, or by replaying
/// its raw log, answers every semantic scan, rows, order and counters, as
/// the never-closed one does. The semantic layer is not durable: each
/// side declares the ontology and asserts the types itself, after the
/// reopen.
#[test]
fn reopened_semantic_scans_equal_never_closed() {
    let (sources, rows) = corpus();
    let (first, rest) = rows.split_at(rows.len() / 2);
    let register = |db: &Db| {
        for (name, identity) in &sources {
            db.register_source(name, Some(identity));
        }
    };
    let all_attrs: Vec<String> = sources
        .iter()
        .flat_map(|(s, _)| attrs_of(&rows, s))
        .collect();
    let know = |db: &Db| {
        declare_knowledge(db, &all_attrs);
        assert_types(db, &rows);
    };
    let never_closed = Db::new();
    register(&never_closed);
    load(&never_closed, &rows);
    know(&never_closed);
    for checkpoint in [true, false] {
        let log = FailpointLog::new();
        let open = || {
            Db::builder()
                .durability_config(DurabilityConfig::store(Box::new(log.clone())))
                .open()
                .expect("open")
        };
        {
            let db = open();
            register(&db);
            load(&db, first);
            if checkpoint {
                db.checkpoint().expect("checkpoint");
            }
            load(&db, rest);
        }
        let db = open();
        let report = db.recovery_report().expect("durable open has a report");
        let installed = if checkpoint { first.len() } else { 0 };
        assert_eq!(report.snapshot_rows, installed);
        assert!(report.records_replayed > 0, "a log tail was replayed");
        know(&db);
        let mut answered = 0;
        for (source, _) in &sources {
            let attrs = attrs_of(&rows, source);
            for attr in &attrs {
                for atom in semantic_atoms(attr, &attrs) {
                    let query = Query {
                        select: Vec::new(),
                        from: source.clone(),
                        atoms: vec![atom],
                        limit: None,
                    };
                    let want = never_closed.run_query(&query).expect("query");
                    let got = db.run_query(&query).expect("query");
                    assert_eq!(got.rows, want.rows, "{query} ({checkpoint})");
                    assert_eq!(got.stats, want.stats, "{query} ({checkpoint})");
                    answered += usize::from(!want.rows.is_empty());
                }
            }
        }
        assert!(answered > 10, "{answered} scans answered rows");
    }
}

const EDGE: i64 = 1 << 53;

/// The values the numeric arms cycle through: ints and floats at the
/// edges of the exact range and of the float order, and a null.
fn edge_values() -> Vec<Value> {
    let mut values: Vec<Value> = [0, 1, -1, 7, EDGE, -EDGE, EDGE - 1, 1 - EDGE]
        .into_iter()
        .map(Value::Int)
        .collect();
    values.extend(
        [
            0.0,
            -0.0,
            0.5,
            -2.5,
            7.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            EDGE as f64,
            1e300,
        ]
        .map(Value::Float),
    );
    values.push(Value::Null);
    values
}

/// Row `i` of the numeric arms. `x` and `y` stay numeric (`x` is absent
/// from every eleventh row); `wide` holds an Int beyond 2^53, so it never
/// has a column; `turn` is numeric until row 200, which holds a string.
fn numeric_row(symbols: &mut SymbolTable, values: &[Value], i: usize) -> Record {
    let mut r = Record::from_pairs([
        (symbols.intern("k"), Value::Int(i as i64)),
        (
            symbols.intern("y"),
            values[(i * 13 + 3) % values.len()].clone(),
        ),
        (
            symbols.intern("wide"),
            Value::Int(if i % 17 == 4 { EDGE + 1 } else { i as i64 }),
        ),
        (
            symbols.intern("turn"),
            if i == 200 {
                Value::str("n/a")
            } else {
                Value::Float(i as f64 / 3.0)
            },
        ),
    ]);
    if i % 11 != 5 {
        r.set(symbols.intern("x"), values[(i * 7) % values.len()].clone());
    }
    r
}

/// A store source with its numeric columns hidden: every atom reads the
/// records.
struct RecordPath<'a>(StoreSource<'a>);

impl RowSource for RecordPath<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn rows(&self) -> &[Record] {
        self.0.rows()
    }
    fn attr(&self, name: &str) -> Option<Symbol> {
        self.0.attr(name)
    }
    fn index_candidates(&self, attr: &str, pred: &IndexPredicate) -> Option<Vec<u64>> {
        self.0.index_candidates(attr, pred)
    }
}

/// Does `record` pass `atom`, by `Value::cmp` and the fuzzy predicate
/// read straight off the record?
fn numeric_oracle(atom: &Atom, record: &Record, symbols: &SymbolTable) -> bool {
    let value = |attr: &str| record.get(symbols.get(attr)?);
    match atom {
        Atom::Compare { attr, op, value: v } => {
            let rhs = v.to_value();
            value(attr).is_some_and(|v| {
                let ord = v.cmp(&rhs);
                !v.is_null()
                    && !rhs.is_null()
                    && match op {
                        CompareOp::Eq => ord.is_eq(),
                        CompareOp::Ne => ord.is_ne(),
                        CompareOp::Lt => ord.is_lt(),
                        CompareOp::Le => ord.is_le(),
                        CompareOp::Gt => ord.is_gt(),
                        CompareOp::Ge => ord.is_ge(),
                    }
            })
        }
        Atom::CloseTo {
            attr,
            center,
            width,
        } => value(attr).and_then(Value::as_float).is_some_and(|x| {
            let pred = FuzzyPredicate::CloseTo {
                center: *center,
                width: *width,
            };
            pred.membership(x) >= EvalEnv::default().alpha
        }),
        other => panic!("no oracle for {other}"),
    }
}

/// What a sequential scan of `rows` returns and counts: every atom in
/// order until one fails, stopping once `limit` rows are out.
fn numeric_expected(
    rows: &[Record],
    atoms: &[Atom],
    limit: Option<usize>,
    symbols: &SymbolTable,
) -> (Vec<Record>, ExecStats) {
    let mut stats = ExecStats::default();
    let mut out = Vec::new();
    for r in rows {
        if limit.is_some_and(|l| out.len() >= l) {
            break;
        }
        stats.rows_scanned += 1;
        let mut pass = true;
        for atom in atoms {
            stats.atom_evals += 1;
            if !numeric_oracle(atom, r, symbols) {
                pass = false;
                break;
            }
        }
        if pass {
            out.push(r.clone());
        }
    }
    stats.rows_out = out.len() as u64;
    (out, stats)
}

fn numeric_plan(atoms: Vec<Atom>, limit: Option<usize>) -> LogicalPlan {
    let mut nodes = vec![
        PlanNode::Scan {
            source: SOURCE.into(),
        },
        PlanNode::Filter { atoms },
    ];
    nodes.extend(limit.map(|n| PlanNode::Limit { n }));
    LogicalPlan {
        nodes,
        estimated_rows: None,
        empty: false,
        rewrites: Vec::new(),
    }
}

/// The numeric queries: every operator against Int and Float literals
/// (exact and not) on each attribute, two-attribute ranges, `CLOSE TO`,
/// and limited variants.
fn numeric_queries() -> Vec<(Vec<Atom>, Option<usize>)> {
    let ops = [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ];
    let mut literals: Vec<Literal> = [0, 1, 7, EDGE, -EDGE, EDGE - 1, EDGE + 1, -EDGE - 1]
        .into_iter()
        .map(Literal::Int)
        .collect();
    literals.extend([0.0, -0.0, 0.5, f64::NAN, f64::NEG_INFINITY, 1e300, 66.5].map(Literal::Float));
    let cmp = |attr: &str, op: CompareOp, value: &Literal| Atom::Compare {
        attr: attr.into(),
        op,
        value: value.clone(),
    };
    let close = |attr: &str, center: f64, width: f64| Atom::CloseTo {
        attr: attr.into(),
        center,
        width,
    };
    let mut queries = Vec::new();
    for attr in ["x", "y", "wide", "turn", "absent"] {
        for op in ops {
            for lit in &literals {
                queries.push((vec![cmp(attr, op, lit)], None));
            }
        }
        for (center, width) in [(0.0, 1.0), (7.0, 0.5), (66.0, 3.0), (EDGE as f64, 2.0)] {
            queries.push((vec![close(attr, center, width)], None));
        }
    }
    for (a, b) in [(&literals[0], &literals[2]), (&literals[9], &literals[3])] {
        let range = vec![
            cmp("x", CompareOp::Ge, a),
            cmp("x", CompareOp::Lt, b),
            cmp("y", CompareOp::Ne, a),
        ];
        queries.push((range.clone(), None));
        queries.push((range, Some(5)));
    }
    queries.push((
        vec![
            cmp("turn", CompareOp::Gt, &literals[2]),
            close("x", 0.0, 8.0),
        ],
        Some(3),
    ));
    queries.push((vec![close("y", 1.0, 10.0)], Some(4)));
    queries.push((vec![cmp("k", CompareOp::Ge, &literals[0])], Some(7)));
    queries
}

#[test]
fn numeric_columns_equal_records_and_the_brute_force_oracle() {
    let values = edge_values();
    let mut symbols = SymbolTable::new();
    let mut store = RowStore::new(SourceId(0));
    let ordered = IndexDef {
        name: "ix_k".into(),
        source: SOURCE.into(),
        attr: "k".into(),
        kind: IndexKind::Ordered,
    };
    let queries = numeric_queries();
    let mut answered = 0;
    // Once while `turn` is numeric, once after its string dropped it.
    for (rows, turn_numeric) in [(0..150, true), (150..320, false)] {
        for i in rows {
            let r = numeric_row(&mut symbols, &values, i);
            store.append(r);
        }
        let sym = |a: &str| symbols.get(a).unwrap();
        assert!(store.numeric_column(sym("x")).is_some());
        assert!(store.numeric_column(sym("y")).is_some());
        assert!(store.numeric_column(sym("wide")).is_none());
        assert_eq!(store.numeric_column(sym("turn")).is_some(), turn_numeric);
        let mut indexes = IndexSet::new();
        indexes.create(ordered.clone(), &symbols, &store);
        let columns = StoreSource::with_indexes(SOURCE, &store, &symbols, &indexes);
        let records = RecordPath(StoreSource::with_indexes(
            SOURCE, &store, &symbols, &indexes,
        ));
        let env = EvalEnv::default();
        for (atoms, limit) in &queries {
            let what = format!("{atoms:?} limit {limit:?} at {} rows", store.len());
            let (want, want_stats) = numeric_expected(store.rows(), atoms, *limit, &symbols);
            let plan = numeric_plan(atoms.clone(), *limit);
            for executor in [Executor::sequential(), PARALLEL] {
                let by_column = executor.execute(&plan, &columns, &env).unwrap();
                let by_record = executor.execute(&plan, &records, &env).unwrap();
                assert_eq!(by_column, by_record, "{executor:?} {what}");
                assert_eq!(by_column.0, want, "{executor:?} {what}");
                if limit.is_none() || executor == Executor::sequential() {
                    assert_eq!(by_column.1, want_stats, "{executor:?} {what}");
                }
            }
            // The same atoms as residuals behind an index scan of k >= 40.
            let mut indexed = plan.clone();
            indexed.nodes[0] = PlanNode::IndexScan {
                source: SOURCE.into(),
                index: "ix_k".into(),
                atom: Atom::Compare {
                    attr: "k".into(),
                    op: CompareOp::Ge,
                    value: Literal::Int(40),
                },
            };
            let tail = &store.rows()[40..];
            let (want, want_stats) = numeric_expected(tail, atoms, *limit, &symbols);
            let by_column = Executor::sequential()
                .execute(&indexed, &columns, &env)
                .unwrap();
            let by_record = Executor::sequential()
                .execute(&indexed, &records, &env)
                .unwrap();
            assert_eq!(by_column, by_record, "index scan: {what}");
            assert_eq!(by_column.0, want, "index scan: {what}");
            assert_eq!(by_column.1.rows_scanned, want_stats.rows_scanned, "{what}");
            assert_eq!(by_column.1.rows_out, want_stats.rows_out, "{what}");
            answered += usize::from(!want.is_empty());
        }
    }
    // Not vacuous: most queries answer rows.
    assert!(answered > queries.len(), "{answered} queries answered rows");
}

/// A database reopened from a snapshot and a log tail answers every
/// numeric scan, rows, order and counters, as the never-closed one does:
/// the reopen rebuilds the columns by appending the same rows.
#[test]
fn reopened_numeric_scans_equal_never_closed() {
    let values = edge_values();
    let mut names = SymbolTable::new();
    let rows: Vec<Vec<(String, Value)>> = (0..320)
        .map(|i| {
            numeric_row(&mut names, &values, i)
                .iter()
                .map(|(a, v)| (names.resolve(a).to_string(), v.clone()))
                .collect()
        })
        .collect();
    let load = |db: &Db, rows: &[Vec<(String, Value)>]| {
        for row in rows {
            let record = Record::from_pairs(row.iter().map(|(a, v)| (db.intern(a), v.clone())));
            db.ingest("nums", record, None).expect("ingest");
        }
    };
    let dir = std::env::temp_dir().join(format!("scdb-numeric-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let never_closed = Db::new();
    never_closed.register_source("nums", None);
    load(&never_closed, &rows);
    {
        let db = Db::builder()
            .durability_config(DurabilityConfig::dir(&dir))
            .open()
            .expect("open");
        db.register_source("nums", None);
        load(&db, &rows[..160]);
        db.checkpoint().expect("checkpoint");
        load(&db, &rows[160..]);
    }
    let reopened = Db::builder()
        .durability_config(DurabilityConfig::dir(&dir))
        .open()
        .expect("reopen");
    let mut answered = 0;
    for attr in ["x", "y", "wide", "turn", "k"] {
        for op in ["=", "!=", "<", "<=", ">", ">="] {
            for lit in [
                "0",
                "-0.0",
                "0.5",
                "7",
                "9007199254740992",
                "-9007199254740991",
                "1e300",
            ] {
                let sql = format!("SELECT k, {attr} FROM nums WHERE {attr} {op} {lit} LIMIT 50");
                let want = never_closed.query(&sql).expect(&sql);
                let got = reopened.query(&sql).expect(&sql);
                assert_eq!(got.rows, want.rows, "{sql}");
                assert_eq!(got.stats, want.stats, "{sql}");
                answered += usize::from(!want.rows.is_empty());
            }
        }
        let sql = format!("SELECT * FROM nums WHERE {attr} CLOSE TO 7 WITHIN 2");
        let (want, got) = (
            never_closed.query(&sql).unwrap(),
            reopened.query(&sql).unwrap(),
        );
        assert_eq!((got.rows, got.stats), (want.rows, want.stats), "{sql}");
    }
    assert!(answered > 60, "{answered} queries answered rows");
    let _ = std::fs::remove_dir_all(&dir);
}
