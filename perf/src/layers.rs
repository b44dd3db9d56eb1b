//! The traced run's second half: the same generated inputs, replayed
//! through each layer's public functions, standalone, so each layer's
//! cost is timed from outside with nothing else running. The spans hang
//! under one `replay` root.
//!
//! These are a second execution, not a measurement inside the program:
//! `core.glue_ns_per_row` subtracts the replayed layer times from the
//! `Db`'s own time for the same rows and inherits the run-to-run noise
//! of both.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use bytes::BytesMut;
use scdb_er::incremental::{IncrementalResolver, ResolverConfig};
use scdb_er::normalize::normalize;
use scdb_graph::PropertyGraph;
use scdb_placement::{PlacementPolicy, ShardMap};
use scdb_query::exec::{EvalEnv, SemanticEnv};
use scdb_query::optimizer::SemanticContext;
use scdb_query::{parse, Executor, LogicalPlan, Optimizer, OptimizerConfig, StoreSource};
use scdb_semantic::{Ontology, Reasoner, Saturation, Taxonomy};
use scdb_storage::{
    AttrStatistics, IndexDef, IndexKind, IndexPredicate, IndexSet, RowStore, TextStore,
};
use scdb_txn::wal::{decode_record, encode_record};
use scdb_txn::{DurableWal, FsStore, FsyncPolicy, LogRecord};
use scdb_types::{
    Confidence, EntityId, Provenance, Record, RecordId, SourceId, SymbolTable, Value,
};

use crate::corpus::{Corpus, BATCH, ROWS_PER_TAG};
use crate::trace::Recorder;
use crate::workloads::{assertions, concept_name, dir_bytes, median, ms, Template, CONCEPTS};

pub type Metrics = BTreeMap<String, f64>;

fn per(total: Duration, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total.as_nanos() as f64 / n as f64
    }
}

/// One source's instance-layer state, built by the storage replay and
/// read by the query replay.
struct Instance {
    store: RowStore,
    indexes: IndexSet,
    stats: HashMap<String, AttrStatistics>,
}

/// What the resolver replay leaves for the graph, semantic and query
/// replays.
struct Resolved {
    /// The entity each row joined, in ingest order.
    entity_of_row: Vec<EntityId>,
    /// (survivor, absorbed) for every entity merge, in order.
    absorbed: Vec<(EntityId, EntityId)>,
    /// Normalized identity value → final entity, as `Db` keeps it.
    entity_by_name: HashMap<String, EntityId>,
}

struct Replay<'a> {
    corpus: &'a Corpus,
    rows: u64,
    symbols: SymbolTable,
    /// The corpus as records over `symbols`, per source.
    records: Vec<Vec<Record>>,
    rec: &'a mut Recorder,
    m: Metrics,
}

/// Replay `corpus` and the statements `sql` through every layer. `dir`
/// is scratch space for the log.
pub fn replay(
    corpus: &Corpus,
    sql: &[String],
    template: Template,
    dir: &Path,
    rec: &mut Recorder,
) -> Metrics {
    rec.enter("replay");
    let mut symbols = SymbolTable::new();
    let records = corpus
        .sources
        .iter()
        .map(|s| {
            s.rows
                .iter()
                .map(|r| {
                    Record::from_pairs(r.attrs.iter().map(|(a, v)| (symbols.intern(a), v.clone())))
                })
                .collect()
        })
        .collect();
    let mut replay = Replay {
        corpus,
        rows: corpus.rows as u64,
        symbols,
        records,
        rec,
        m: Metrics::new(),
    };
    replay.txn(dir);
    let instances = replay.storage();
    let resolved = replay.er();
    replay.graph(&resolved);
    let (ontology, saturation) = replay.semantic(&resolved);
    replay.query(sql, template, &instances, &resolved, &ontology, &saturation);
    replay.placement();
    replay.rec.exit();
    replay.m
}

impl Replay<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.m.insert(name.into(), value);
    }

    /// The log records an ingest of these rows writes: encoded, decoded,
    /// appended in sealed batches of 64, each batch fsynced.
    fn txn(&mut self, dir: &Path) {
        let log: Vec<LogRecord> = self
            .corpus
            .sources
            .iter()
            .flat_map(|s| s.rows.iter().map(move |r| (s, r)))
            .enumerate()
            .map(|(i, (s, r))| LogRecord::IngestRow {
                txn: i as u64 + 1,
                source: s.name.clone(),
                attrs: r.attrs.clone(),
                text: Some(r.text.clone()),
            })
            .collect();
        let (encoded, took) = self.rec.call("txn.encode_record", 0, self.rows, || {
            log.iter()
                .map(|r| {
                    let mut buf = BytesMut::new();
                    encode_record(&mut buf, r);
                    buf.freeze()
                })
                .collect::<Vec<_>>()
        });
        self.put("txn.encode_ns_per_row", per(took, self.rows));
        let (decoded, took) = self.rec.call("txn.decode_record", 0, self.rows, || {
            encoded
                .iter()
                .filter(|b| decode_record(&mut (*b).clone(), 0).is_ok())
                .count()
        });
        assert_eq!(decoded, log.len(), "every encoded record decodes");
        self.put("txn.decode_ns_per_row", per(took, self.rows));

        let _ = std::fs::remove_dir_all(dir);
        let store = FsStore::open(dir).expect("scratch directory is writable");
        let (mut wal, _) = DurableWal::open(Box::new(store), FsyncPolicy::OnCheckpoint, 1 << 20)
            .expect("fresh log opens");
        let mut append = Duration::ZERO;
        let mut fsyncs = Vec::new();
        for batch in log.chunks(BATCH) {
            let mut sealed = batch.to_vec();
            sealed.push(LogRecord::CommitGroup {
                txns: (0..batch.len() as u64).collect(),
                shards: Vec::new(),
            });
            let n = batch.len() as u64;
            let (appended, took) = self
                .rec
                .call("txn.append_sealed", 0, n, || wal.append_sealed(&sealed));
            appended.expect("append to scratch log");
            append += took;
            let (synced, took) = self.rec.call("txn.sync", 0, 1, || wal.sync());
            synced.expect("fsync scratch log");
            fsyncs.push(took.as_nanos() as f64);
        }
        drop(wal);
        let log_bytes = dir_bytes(dir);
        let _ = std::fs::remove_dir_all(dir);
        self.put("txn.append_ns_per_row", per(append, self.rows));
        self.put("txn.fsync_ns_per_call", median(&mut fsyncs));
        self.put(
            "txn.wal_bytes_per_user_byte",
            log_bytes as f64 / self.corpus.user_bytes as f64,
        );
    }

    /// Row store append, two indexes kept, text indexed, a full scan,
    /// hash and ordered lookups.
    fn storage(&mut self) -> Vec<Instance> {
        let mut instances = Vec::new();
        let mut text = TextStore::new();
        let mut append = Duration::ZERO;
        let (mut maintain, mut text_ns, mut scan) = (append, append, append);
        let (mut hash_ns, mut ordered_ns, mut lookups) = (append, append, 0);
        for (k, (s, recs)) in self.corpus.sources.iter().zip(&self.records).enumerate() {
            let source = SourceId(k as u32);
            let n = recs.len() as u64;
            let mut store = RowStore::new(source);
            let copies = recs.clone();
            let (_, took) = self.rec.call("storage.RowStore::append", 0, n, || {
                for r in copies {
                    store.append(r);
                }
            });
            append += took;

            let mut indexes = IndexSet::new();
            for (attr, kind) in [("tag", IndexKind::Hash), ("batch", IndexKind::Ordered)] {
                let def = IndexDef {
                    name: format!("{}_{attr}", s.name),
                    source: s.name.clone(),
                    attr: attr.into(),
                    kind,
                };
                indexes.create(def, &self.symbols, &RowStore::new(source));
            }
            let symbols = &self.symbols;
            let (_, took) = self.rec.call("storage.IndexSet::note_append", 0, n, || {
                for (i, r) in recs.iter().enumerate() {
                    indexes.note_append(symbols, r, i as u64);
                }
            });
            maintain += took;

            let (_, took) = self.rec.call("storage.TextStore::index", 0, n, || {
                for (i, r) in s.rows.iter().enumerate() {
                    text.index(RecordId::new(source, i as u64), &r.text);
                }
            });
            text_ns += took;

            let (_, took) = self.rec.call("storage.RowStore::scan", 0, n, || {
                black_box(store.scan().map(|(_, r)| r.len()).sum::<usize>())
            });
            scan += took;

            // One lookup per tag, and one range per tag's batch numbers.
            let firsts = s.rows.iter().step_by(ROWS_PER_TAG);
            let tags: Vec<IndexPredicate> = firsts
                .clone()
                .map(|r| IndexPredicate::Eq(r.get("tag").clone()))
                .collect();
            let ranges: Vec<IndexPredicate> = firsts
                .map(|r| {
                    let lo = r.get("batch").as_int().expect("batch is an int");
                    IndexPredicate::Range {
                        lo: Some((Value::Int(lo), true)),
                        hi: Some((Value::Int(lo + ROWS_PER_TAG as i64), false)),
                    }
                })
                .collect();
            let found = |attr: &str, preds: &[IndexPredicate]| {
                preds
                    .iter()
                    .filter_map(|p| indexes.lookup(attr, p))
                    .filter(|hits| !hits.is_empty())
                    .count()
            };
            let n_tags = tags.len() as u64;
            let (hits, took) = self
                .rec
                .call("storage.IndexSet::lookup.hash", 0, n_tags, || {
                    found("tag", &tags)
                });
            assert_eq!(hits, tags.len(), "every tag has index entries");
            hash_ns += took;
            let (hits, took) = self
                .rec
                .call("storage.IndexSet::lookup.ordered", 0, n_tags, || {
                    found("batch", &ranges)
                });
            assert_eq!(hits, ranges.len(), "every batch range has index entries");
            ordered_ns += took;
            lookups += n_tags;

            // What `Db` keeps per attribute for the optimizer. Untimed:
            // the issue's storage metrics stop at the row store and the
            // indexes, so this cost falls into `core.glue_ns_per_row`.
            let mut stats: HashMap<String, AttrStatistics> = HashMap::new();
            for (a, v) in s.rows.iter().flat_map(|r| &r.attrs) {
                stats
                    .entry(a.clone())
                    .or_insert_with(|| AttrStatistics::new(16, 4096))
                    .observe(v);
            }
            instances.push(Instance {
                store,
                indexes,
                stats,
            });
        }
        self.put("storage.append_ns_per_row", per(append, self.rows));
        self.put(
            "storage.index_maintain_ns_per_row",
            per(maintain, self.rows),
        );
        self.put("storage.text_index_ns_per_row", per(text_ns, self.rows));
        self.put("storage.scan_ns_per_row", per(scan, self.rows));
        self.put("storage.index_lookup_hash_ns", per(hash_ns, lookups));
        self.put("storage.index_lookup_ordered_ns", per(ordered_ns, lookups));
        instances
    }

    /// The resolver, fed in ingest order with the identity attributes
    /// designated as `Db::register_source` does.
    fn er(&mut self) -> Resolved {
        let mut resolver = IncrementalResolver::new(ResolverConfig::default());
        let mut took_all = Duration::ZERO;
        let mut merges = 0u64;
        let mut resolved = Resolved {
            entity_of_row: Vec::new(),
            absorbed: Vec::new(),
            entity_by_name: HashMap::new(),
        };
        for (k, (s, recs)) in self.corpus.sources.iter().zip(&self.records).enumerate() {
            let source = SourceId(k as u32);
            resolver.designate_identity(source, self.symbols.intern(&s.name_attr));
            let copies = recs.clone();
            let symbols = &self.symbols;
            let (events, took) =
                self.rec
                    .call("er.IncrementalResolver::add", 0, recs.len() as u64, || {
                        copies
                            .into_iter()
                            .enumerate()
                            .map(|(i, r)| resolver.add(RecordId::new(source, i as u64), r, symbols))
                            .collect::<Vec<_>>()
                    });
            took_all += took;
            for e in events {
                merges += u64::from(!e.fresh);
                resolved
                    .absorbed
                    .extend(e.absorbed.iter().map(|a| (e.entity, *a)));
                resolved.entity_of_row.push(e.entity);
            }
        }
        for (k, s) in self.corpus.sources.iter().enumerate() {
            for (i, r) in s.rows.iter().enumerate() {
                let entity = resolver
                    .entity_of(RecordId::new(SourceId(k as u32), i as u64))
                    .expect("every replayed record resolved");
                resolved
                    .entity_by_name
                    .entry(normalize(&r.get(&s.name_attr).render()))
                    .or_insert(entity);
            }
        }
        let comparisons = resolver.comparisons();
        self.put("er.add_ns_per_row", per(took_all, self.rows));
        self.put(
            "er.comparisons_per_row",
            comparisons as f64 / self.rows as f64,
        );
        self.put(
            "er.merges_per_comparison",
            merges as f64 / comparisons.max(1) as f64,
        );
        resolved
    }

    /// An edge per row to the previous row's entity (the corpus itself
    /// discovers almost no links), then the resolver's merges.
    fn graph(&mut self, resolved: &Resolved) {
        let mut graph = PropertyGraph::new();
        let absorbed = resolved.absorbed.iter().map(|(_, a)| a);
        for e in resolved.entity_of_row.iter().chain(absorbed) {
            graph.ensure_node(*e);
        }
        let role = self.symbols.intern("replayed_link");
        let edges: Vec<(EntityId, EntityId)> = resolved
            .entity_of_row
            .windows(2)
            .filter(|w| w[0] != w[1])
            .map(|w| (w[1], w[0]))
            .collect();
        let n = edges.len() as u64;
        let (added, took) = self.rec.call("graph.add_edge", 0, n, || {
            edges
                .iter()
                .filter(|(from, to)| {
                    let prov = Provenance::inferred(SourceId(0), Confidence::CERTAIN, 0);
                    graph.add_edge(*from, *to, role, prov).is_ok()
                })
                .count()
        });
        assert_eq!(added, edges.len(), "both endpoints exist");
        self.put("graph.add_edge_ns", per(took, n));
        let n = resolved.absorbed.len() as u64;
        let (merged, took) = self.rec.call("graph.merge_nodes", 0, n, || {
            resolved
                .absorbed
                .iter()
                .filter(|(dst, src)| graph.merge_nodes(*dst, *src).is_ok())
                .count()
        });
        self.put("graph.merge_nodes_ns", per(took, merged as u64));
    }

    /// `query.semantic`'s taxonomy and assertions over the replayed
    /// entities, saturated once.
    fn semantic(&mut self, resolved: &Resolved) -> (Ontology, Saturation) {
        let mut ontology = Ontology::new();
        ontology.subclass("Drug", "Chemical");
        ontology.subclass_exists("Drug", "has_target", "Gene");
        for c in 0..CONCEPTS {
            ontology.subclass(&concept_name(c), "Drug");
        }
        for (name, c) in assertions(self.corpus) {
            let concept = ontology.concept(&concept_name(c));
            let entity = resolved.entity_by_name[&normalize(&name.render())];
            ontology.assert_type(entity, concept, Confidence::CERTAIN);
        }
        let (saturation, took) = self.rec.call("semantic.Reasoner::saturate", 0, 1, || {
            Reasoner::new().saturate(&ontology)
        });
        self.put("semantic.saturate_ms", ms(took));
        self.put("semantic.derived_facts", saturation.derived_count() as f64);
        (ontology, saturation)
    }

    /// The workload's own statements, stage by stage, with the product's
    /// default optimizer and executor.
    fn query(
        &mut self,
        sql: &[String],
        template: Template,
        instances: &[Instance],
        resolved: &Resolved,
        ontology: &Ontology,
        saturation: &Saturation,
    ) {
        let taxonomy = Taxonomy::build(ontology);
        let semantic = template == Template::Semantic;
        let context = semantic.then_some(SemanticContext {
            ontology,
            taxonomy: &taxonomy,
            saturation: Some(saturation),
        });
        let optimizer = Optimizer::new(OptimizerConfig::default());
        let executor = Executor::default();
        let mut stage_ns = [Duration::ZERO; 3];
        let (mut scanned, mut returned) = (0u64, 0u64);
        for q in sql {
            let (parsed, took) = self.rec.call("query.parse", 0, 1, || parse(q));
            let parsed = parsed.expect("the workload's statements parse");
            stage_ns[0] += took;
            let k = self
                .corpus
                .sources
                .iter()
                .position(|s| s.name == parsed.from)
                .expect("statements name a corpus source");
            let inst = &instances[k];
            let (plan, took) = self.rec.call("query.optimize", 0, 1, || {
                optimizer.optimize_with_indexes(
                    LogicalPlan::from_query(&parsed),
                    context.as_ref(),
                    Some(&inst.stats),
                    inst.store.len() as u64,
                    &inst.indexes.defs(),
                )
            });
            stage_ns[1] += took;
            let source = StoreSource::with_indexes(
                parsed.from.clone(),
                &inst.store,
                &self.symbols,
                &inst.indexes,
            );
            let mut env = EvalEnv::default();
            if semantic {
                env.semantic = Some(SemanticEnv {
                    ontology,
                    saturation,
                    entity_by_name: &resolved.entity_by_name,
                });
            }
            let (out, took) = self.rec.call("query.execute", 0, 1, || {
                executor.execute(&plan, &source, &env)
            });
            let (_, stats) = out.expect("the workload's statements execute");
            stage_ns[2] += took;
            scanned += stats.rows_scanned;
            returned += stats.rows_out;
        }
        let n = sql.len() as u64;
        self.put("query.parse_ns", per(stage_ns[0], n));
        self.put("query.optimize_ns", per(stage_ns[1], n));
        self.put("query.execute_ns", per(stage_ns[2], n));
        self.put(
            "query.rows_scanned_per_row_out",
            scanned as f64 / returned.max(1) as f64,
        );
    }

    /// What routing one row to one of two write shards costs.
    fn placement(&mut self) {
        let map = ShardMap::build(PlacementPolicy::Range, 2, &[]);
        let names: Vec<&Value> = self
            .corpus
            .sources
            .iter()
            .flat_map(|s| s.rows.iter().map(|r| r.get(&s.name_attr)))
            .collect();
        let (_, took) = self.rec.call("placement.route", 0, self.rows, || {
            black_box(
                names
                    .iter()
                    .map(|v| map.shard_of_key(&normalize(&v.render())))
                    .sum::<u32>(),
            )
        });
        self.put("placement.route_ns_per_key", per(took, self.rows));
    }
}
