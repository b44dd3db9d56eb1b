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
use scdb_er::ResolverConfig;
use scdb_query::exec::{EvalEnv, SemanticEnv};
use scdb_query::{
    Atom, CompareOp, ExecStats, Executor, Literal, LogicalPlan, PlanNode, RowSource, StoreSource,
};
use scdb_semantic::{Ontology, Reasoner, Saturation};
use scdb_storage::text::tokenize;
use scdb_storage::{IndexDef, IndexKind, IndexPredicate, IndexSet, RowStore};
use scdb_txn::FailpointLog;
use scdb_types::{Confidence, EntityId, Record, SourceId, Symbol, SymbolTable, Value};
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
        SemanticFixture {
            symbols,
            store,
            indexes,
            ontology,
            saturation,
            entity_by_name,
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

    fn source(&self) -> StoreSource<'_> {
        StoreSource::with_indexes(SOURCE, &self.store, &self.symbols, &self.indexes)
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
            Atom::IsConcept { attr, concept } => {
                let c = self.ontology.find_concept(concept).unwrap();
                self.entity(value(attr))
                    .is_some_and(|e| self.saturation.types_of(e).any(|(t, _)| t == c))
            }
            Atom::HasSome { attr, role } => {
                let r = self.ontology.find_role(role).unwrap();
                self.entity(value(attr)).is_some_and(|e| {
                    !self.saturation.fillers(r, e).is_empty()
                        || self
                            .saturation
                            .existentials()
                            .iter()
                            .any(|w| w.entity == e && w.role == r)
                })
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

    fn run(&self, executor: Executor, plan: &LogicalPlan) -> (Vec<Record>, ExecStats) {
        executor
            .execute(plan, &self.source(), &self.env())
            .expect("every name resolves")
    }
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
