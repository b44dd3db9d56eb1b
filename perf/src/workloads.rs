//! The seven workloads. Each is a closed loop from this one process:
//! the next call into `Db` is made when the previous one has returned,
//! from one generator thread (`mixed.rw`: two, a writer and a reader).
//!
//! A run is a sequence of rounds. A round sets the database up from
//! nothing (timed: one `setup_s` sample) and then runs the workload's
//! timed region, so every run has several set-ups to take a median of.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use scdb_core::{CoreError, Db, DurabilityConfig, FsyncPolicy, IndexKind, IngestConfig};
use scdb_er::eval::score_pairs;
use scdb_er::normalize::normalize;
use scdb_placement::{PlacementPolicy, ShardMap};
use scdb_types::{EntityId, Record, Value};

use crate::corpus::{corpus, Corpus, Part, Rng, BATCH};
use crate::trace::Recorder;

/// Concepts under `Drug` in `query.semantic`'s taxonomy.
pub const CONCEPTS: usize = 20;
/// Share of `src1`'s rows whose entity gets a type assertion.
const ASSERTED_SHARE: usize = 5;
/// Distinct range queries `query.scan` cycles through.
const SCAN_QUERIES: usize = 256;
/// Reopens dropped as warm-up at the start of a `recover.reopen` round
/// (query rounds drop their first pass over the statements).
const WARMUP_REOPENS: usize = 3;
/// `mixed.rw`'s reader pauses this long between queries: it probes how
/// long the writer keeps a reader out, without loading the writer.
/// What it sees does not repeat (see `mixed_round`), so it is reported
/// and not gated.
const READER_THINK: Duration = Duration::from_millis(5);
/// Latencies kept per timed region.
const RESERVOIR: usize = 1 << 16;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Template {
    Scan,
    Point,
    Semantic,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    /// Timed region: the whole corpus through `ingest_batch(64)`.
    Ingest,
    /// Timed region: single-row durable writes beside a reader.
    Mixed,
    /// Timed region: queries against the preloaded corpus.
    Query(Template),
    /// Timed region: `Db::open` over a checkpointed directory.
    Recover,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub fsync: FsyncPolicy,
    pub shards: u32,
    /// Created on every source before any row is loaded.
    pub indexes: &'static [(&'static str, IndexKind)],
    /// What `throughput_per_s` counts and `op_p50_ms` times.
    pub work: &'static str,
    pub op: &'static str,
}

impl Spec {
    /// The statements the workload issues; the ones without queries of
    /// their own check their rows with `query.scan`'s, and `mixed.rw`'s
    /// reader asks `query.point`'s.
    pub fn template(&self) -> Template {
        match self.kind {
            Kind::Query(t) => t,
            Kind::Mixed => Template::Point,
            Kind::Ingest | Kind::Recover => Template::Scan,
        }
    }
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "ingest.bulk",
        kind: Kind::Ingest,
        fsync: FsyncPolicy::OnCheckpoint,
        shards: 1,
        indexes: &[],
        work: "rows acked",
        op: "Db::ingest_batch of 64 rows",
    },
    Spec {
        name: "ingest.sharded",
        kind: Kind::Ingest,
        fsync: FsyncPolicy::OnCheckpoint,
        shards: 2,
        indexes: &[],
        work: "rows acked",
        op: "Db::ingest_batch of 64 rows",
    },
    Spec {
        name: "mixed.rw",
        kind: Kind::Mixed,
        fsync: FsyncPolicy::Always,
        shards: 1,
        indexes: &[("tag", IndexKind::Hash), ("batch", IndexKind::Ordered)],
        work: "rows acked",
        op: "Db::ingest of one row with its text, beside a reader",
    },
    Spec {
        name: "query.scan",
        kind: Kind::Query(Template::Scan),
        fsync: FsyncPolicy::OnCheckpoint,
        shards: 1,
        indexes: &[],
        work: "queries answered",
        op: "Db::query, 1 % range over an unindexed attribute",
    },
    Spec {
        name: "query.point",
        kind: Kind::Query(Template::Point),
        fsync: FsyncPolicy::OnCheckpoint,
        shards: 1,
        indexes: &[("tag", IndexKind::Hash)],
        work: "queries answered",
        op: "Db::query, equality on a hash-indexed attribute",
    },
    Spec {
        name: "query.semantic",
        kind: Kind::Query(Template::Semantic),
        fsync: FsyncPolicy::OnCheckpoint,
        shards: 1,
        indexes: &[],
        work: "queries answered",
        op: "Db::query, IS / HAS SOME atom",
    },
    Spec {
        name: "recover.reopen",
        kind: Kind::Recover,
        fsync: FsyncPolicy::OnCheckpoint,
        shards: 1,
        indexes: &[],
        work: "reopens",
        op: "Db::open over a checkpointed directory",
    },
];

pub fn fsync_name(policy: FsyncPolicy) -> String {
    match policy {
        FsyncPolicy::Always => "always".into(),
        FsyncPolicy::EveryN(n) => format!("every{n}"),
        FsyncPolicy::OnCheckpoint => "on_checkpoint".into(),
    }
}

/// Output checks and failed calls, counted against everything attempted.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }

    /// Count a call into the program; a refusal is a failed operation.
    pub fn call<T>(&mut self, what: &str, result: Result<T, CoreError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Order-independent digest of a row set: (rows, sum of row hashes).
pub type Fingerprint = (usize, u64);

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fingerprint<'a, R, V>(rows: R) -> Fingerprint
where
    R: IntoIterator<Item = V>,
    V: IntoIterator<Item = &'a Value>,
{
    let mut n = 0;
    let mut sum = 0u64;
    for row in rows {
        let values = row
            .into_iter()
            .fold(0u64, |h, v| h.wrapping_add(fnv1a(&v.render())));
        // Mixed per row, so values swapped between rows change the sum.
        sum = sum.wrapping_add(Rng::new(values).next());
        n += 1;
    }
    (n, sum)
}

pub struct Query {
    pub sql: String,
    /// What a scan of every generated row, done here, returns.
    pub expect: Fingerprint,
}

fn scan_queries(corpus: &Corpus, seed: u64) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x5CA9);
    (0..SCAN_QUERIES)
        .map(|i| {
            let s = &corpus.sources[i % corpus.sources.len()];
            let lo = format!("{:.3}", rng.below(9_900) as f64 / 1e3);
            let lo_f: f64 = lo.parse().expect("formatted above");
            let hi = format!("{:.3}", lo_f + 0.1);
            let hi_f: f64 = hi.parse().expect("formatted above");
            let hits = s.rows.iter().filter(|r| {
                let d = r.get("dose").as_float().expect("dose is a float");
                d >= lo_f && d < hi_f
            });
            Query {
                sql: format!(
                    "SELECT {}, dose FROM {} WHERE dose >= {lo} AND dose < {hi}",
                    s.name_attr, s.name
                ),
                expect: fingerprint(hits.map(|r| [r.get(&s.name_attr), r.get("dose")])),
            }
        })
        .collect()
}

fn point_queries(corpus: &Corpus, part: Part, seed: u64) -> Vec<Query> {
    let mut queries = Vec::new();
    for s in &corpus.sources {
        let rows = &s.rows[part.range(s.rows.len())];
        let mut by_tag: Vec<(&str, Vec<&Value>)> = Vec::new();
        for r in rows {
            let tag = r.get("tag").as_str().expect("tag is a string");
            match by_tag.last_mut() {
                Some((t, names)) if *t == tag => names.push(r.get(&s.name_attr)),
                _ => by_tag.push((tag, vec![r.get(&s.name_attr)])),
            }
        }
        queries.extend(by_tag.into_iter().map(|(tag, names)| Query {
            sql: format!("SELECT {} FROM {} WHERE tag = '{tag}'", s.name_attr, s.name),
            expect: fingerprint(names.into_iter().map(|n| [n])),
        }));
    }
    // Seeded order, so consecutive queries do not walk one source's
    // tags in insertion order.
    let mut rng = Rng::new(seed ^ 0x7A65);
    for i in (1..queries.len()).rev() {
        queries.swap(i, rng.below(i + 1));
    }
    queries
}

/// The type assertions `query.semantic` makes: every fifth `src1` row's
/// name, cycling through the concepts.
pub fn assertions(corpus: &Corpus) -> impl Iterator<Item = (&Value, usize)> {
    let s = &corpus.sources[1];
    s.rows
        .iter()
        .step_by(ASSERTED_SHARE)
        .enumerate()
        .map(|(i, r)| (r.get(&s.name_attr), i % CONCEPTS))
}

pub fn concept_name(c: usize) -> String {
    format!("C{c:02}")
}

/// `query.semantic` alternates these two atoms over `src1`.
fn semantic_statements(corpus: &Corpus) -> Vec<String> {
    let s = &corpus.sources[1];
    (0..CONCEPTS)
        .flat_map(|c| {
            [
                format!("{0} IS '{1}'", s.name_attr, concept_name(c)),
                format!("{0} HAS SOME has_target", s.name_attr),
            ]
        })
        .map(|atom| format!("SELECT {} FROM {} WHERE {atom}", s.name_attr, s.name))
        .collect()
}

/// The statements a workload of `template` issues, in issue order.
pub fn statements(corpus: &Corpus, template: Template, seed: u64) -> Vec<String> {
    let sql = |queries: Vec<Query>| queries.into_iter().map(|q| q.sql).collect();
    match template {
        Template::Scan => sql(scan_queries(corpus, seed)),
        Template::Point => sql(point_queries(corpus, Part::All, seed)),
        Template::Semantic => semantic_statements(corpus),
    }
}

/// `query.semantic`'s knowledge: a 20-concept taxonomy under
/// `Drug ⊑ Chemical`, `Drug ⊑ ∃has_target.Gene`, the type assertions,
/// one saturation. The expectations come from the assertions made
/// here, not from the reasoner.
fn semantic_setup(db: &Db, corpus: &Corpus, checks: &mut Checks) -> Vec<Query> {
    db.with_ontology(|o| {
        o.subclass("Drug", "Chemical");
        o.subclass_exists("Drug", "has_target", "Gene");
        for c in 0..CONCEPTS {
            o.subclass(&concept_name(c), "Drug");
        }
    });
    let mut typed: HashMap<EntityId, HashSet<usize>> = HashMap::new();
    for (name, c) in assertions(corpus) {
        let name = name.render();
        let asserted = db.assert_entity_type(&name, &concept_name(c));
        if checks.call("assert_entity_type", asserted).is_some() {
            let e = db.entity_named(&name).expect("asserted just above");
            typed.entry(e).or_default().insert(c);
        }
    }
    checks.call("reason", db.reason());
    let s = &corpus.sources[1];
    let concepts_of: Vec<Option<&HashSet<usize>>> = s
        .rows
        .iter()
        .map(|r| {
            db.entity_named(&r.get(&s.name_attr).render())
                .and_then(|e| typed.get(&e))
        })
        .collect();
    // Every asserted concept is under Drug, and every Drug has some
    // target by the existential axiom.
    let matching = |c: Option<usize>| {
        let rows = s.rows.iter().zip(&concepts_of);
        fingerprint(
            rows.filter(|(_, set)| set.is_some_and(|set| c.is_none_or(|c| set.contains(&c))))
                .map(|(r, _)| [r.get(&s.name_attr)]),
        )
    };
    semantic_statements(corpus)
        .into_iter()
        .enumerate()
        .map(|(i, sql)| Query {
            sql,
            expect: matching((i % 2 == 0).then_some(i / 2)),
        })
        .collect()
}

/// Record → entity assignments rebuilt from ingest reports. Entity ids
/// are per write shard, so a cluster is (shard, entity); the shard is
/// recomputed with the routing the `Db` documents (normalized identity
/// value through the default range map).
pub struct Clusters {
    map: Option<ShardMap>,
    parent: HashMap<(u32, u64), (u32, u64)>,
    of_row: Vec<(usize, (u32, u64))>,
}

impl Clusters {
    pub fn new(shards: u32) -> Self {
        Clusters {
            map: (shards > 1).then(|| ShardMap::build(PlacementPolicy::Range, shards, &[])),
            parent: HashMap::new(),
            of_row: Vec::new(),
        }
    }

    fn root(&self, mut k: (u32, u64)) -> (u32, u64) {
        while let Some(&p) = self.parent.get(&k) {
            k = p;
        }
        k
    }

    fn note(&mut self, ordinal: usize, identity: &Value, report: &scdb_core::IngestReport) {
        let shard = self
            .map
            .as_ref()
            .map_or(0, |m| m.shard_of_key(&normalize(&identity.render())));
        let survivor = self.root((shard, report.entity.0));
        for a in &report.absorbed {
            let absorbed = self.root((shard, a.0));
            if absorbed != survivor {
                self.parent.insert(absorbed, survivor);
            }
        }
        self.of_row.push((ordinal, survivor));
    }

    /// Pairwise F1 against the generator's truth.
    pub fn f1(&self, corpus: &Corpus) -> f64 {
        let predicted: HashMap<usize, (u32, u64)> = self
            .of_row
            .iter()
            .map(|&(ordinal, k)| (ordinal, self.root(k)))
            .collect();
        let mut truth: HashMap<usize, &str> = HashMap::new();
        let mut ordinal = 0;
        for s in &corpus.sources {
            for r in &s.rows {
                truth.insert(ordinal, r.truth.as_str());
                ordinal += 1;
            }
        }
        score_pairs(&predicted, &truth).f1()
    }
}

/// Latencies of one timed region. Every one is counted and summed; a
/// fixed-size uniform sample is kept for the percentiles, so that the
/// benchmark's own memory does not grow with the program's speed and
/// show up in `peak_rss_mb`.
#[derive(Clone)]
pub struct Samples {
    warmup: usize,
    pushed: usize,
    pub n: u64,
    pub total: Duration,
    pub kept: Vec<u64>,
    rng: Rng,
}

impl Default for Samples {
    fn default() -> Self {
        Samples::after(0)
    }
}

impl Samples {
    /// Drops the first `warmup` latencies pushed.
    pub fn after(warmup: usize) -> Self {
        Samples {
            warmup,
            pushed: 0,
            n: 0,
            total: Duration::ZERO,
            kept: Vec::new(),
            rng: Rng::new(RESERVOIR as u64),
        }
    }

    pub fn push(&mut self, took: Duration) {
        self.pushed += 1;
        if self.pushed <= self.warmup {
            return;
        }
        self.n += 1;
        self.total += took;
        let ns = took.as_nanos() as u64;
        if self.kept.len() < RESERVOIR {
            self.kept.push(ns);
        } else if let Some(slot) = self.kept.get_mut(self.rng.below(self.n as usize)) {
            *slot = ns;
        }
    }
}

/// What one load of (part of) the corpus cost.
#[derive(Default)]
pub struct Loaded {
    pub rows: u64,
    /// One latency per `Db::ingest*` call; their total is the load's
    /// busy time.
    pub lat: Samples,
    /// `txn.wal.fsyncs` delta across the ingest calls alone.
    pub fsyncs: u64,
    /// Graph work the reports announced: links found, entities merged.
    pub links: u64,
    pub absorbed: u64,
}

fn fsync_count(db: &Db) -> u64 {
    db.metrics_report()
        .counters
        .get("txn.wal.fsyncs")
        .copied()
        .unwrap_or(0)
}

/// Everything a round needs besides the database.
pub struct Ctx<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub smoke: bool,
    pub rec: Recorder,
    pub checks: Checks,
    pub clusters: Option<Clusters>,
    next_op: u64,
}

impl<'a> Ctx<'a> {
    pub fn new(spec: &'a Spec, seed: u64, smoke: bool, rec: Recorder) -> Self {
        Ctx {
            spec,
            seed,
            smoke,
            rec,
            checks: Checks::default(),
            clusters: None,
            next_op: 0,
        }
    }

    fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn open(&mut self, dir: &Path) -> (Option<Db>, Duration) {
        let builder = Db::builder()
            .durability_config(DurabilityConfig::dir(dir).fsync(self.spec.fsync))
            .ingest_config(IngestConfig::direct())
            .write_shards(self.spec.shards);
        let op = self.op();
        let (db, took) = self.rec.call("Db::open", op, 0, || builder.open());
        (self.checks.call("open", db), took)
    }

    /// A fresh database with the workload's sources and indexes.
    fn create(&mut self, corpus: &Corpus, dir: &Path) -> Option<Db> {
        let _ = std::fs::remove_dir_all(dir);
        let db = self.open(dir).0?;
        for s in &corpus.sources {
            db.register_source(&s.name, Some(&s.name_attr));
            for (attr, kind) in self.spec.indexes {
                let name = format!("{}_{attr}", s.name);
                self.checks
                    .call("create_index", db.create_index(&name, &s.name, attr, *kind));
            }
        }
        Some(db)
    }

    /// Load `part` of every source: 64-row batches, or single rows
    /// with their text when `single`.
    fn load(&mut self, db: &Db, corpus: &Corpus, part: Part, single: bool) -> Loaded {
        let mut out = Loaded::default();
        let mut first_ordinal = 0;
        let fsyncs_before = fsync_count(db);
        for s in &corpus.sources {
            let range = part.range(s.rows.len());
            let rows = &s.rows[range.clone()];
            let mut records = rows.iter().map(|r| {
                Record::from_pairs(r.attrs.iter().map(|(a, v)| (db.intern(a), v.clone())))
            });
            let mut at = 0;
            while at < rows.len() {
                let chunk: Vec<Record> = records
                    .by_ref()
                    .take(if single { 1 } else { BATCH })
                    .collect();
                let n = chunk.len();
                let op = self.op();
                let (reports, took) = if single {
                    let record = chunk.into_iter().next().expect("one row");
                    let text = rows[at].text.as_str();
                    self.rec.call("Db::ingest", op, 1, || {
                        db.ingest(&s.name, record, Some(text)).map(|r| vec![r])
                    })
                } else {
                    self.rec.call("Db::ingest_batch", op, n as u64, || {
                        db.ingest_batch(&s.name, chunk)
                    })
                };
                out.lat.push(took);
                if let Some(reports) = self.checks.call("ingest", reports) {
                    out.rows += reports.len() as u64;
                    for (i, report) in reports.iter().enumerate() {
                        out.links += report.links_discovered as u64;
                        out.absorbed += report.absorbed.len() as u64;
                        if let Some(clusters) = &mut self.clusters {
                            let row = &rows[at + i];
                            clusters.note(
                                first_ordinal + range.start + at + i,
                                row.get(&s.name_attr),
                                report,
                            );
                        }
                    }
                }
                at += n;
            }
            first_ordinal += s.rows.len();
        }
        out.fsyncs = fsync_count(db) - fsyncs_before;
        out
    }

    /// Run one query, compare its row set with the expectation.
    fn query(&mut self, db: &Db, q: &Query) -> Duration {
        let op = self.op();
        let (outcome, took) = self.rec.call("Db::query", op, 1, || db.query(&q.sql));
        if let Some(outcome) = self.checks.call("query", outcome) {
            let got = fingerprint(outcome.rows.iter().map(|r| r.iter().map(|(_, v)| v)));
            self.checks.check(got == q.expect, || {
                format!("{}: got {got:?}, a full scan gives {:?}", q.sql, q.expect)
            });
        }
        took
    }

    fn expect_records(&mut self, db: &Db, rows: u64) {
        let records = db.stats().records;
        self.checks.check(records == rows, || {
            format!("stats().records = {records} after {rows} acked rows")
        });
    }
}

/// One round's measurements.
#[derive(Default)]
pub struct Round {
    pub setup: Duration,
    /// Time the generator spent inside calls of the timed region.
    pub busy: Duration,
    /// Units of work done in `busy`.
    pub work: u64,
    /// Latencies of the workload's operation (warm-up removed).
    pub lat: Samples,
    /// The ingest calls the round's rows came in by (the timed ones
    /// where ingest is the timed region, the preload's otherwise).
    pub loaded: Loaded,
    /// Read off the first round only.
    pub facts: Option<Facts>,
    /// Reported, not gated.
    pub diag: Vec<(&'static str, f64)>,
    /// Rows in the generated corpus.
    pub rows: usize,
}

/// Counts that repeat exactly for a seed.
pub struct Facts {
    pub wal_bytes_per_row: f64,
    pub er_f1: f64,
}

pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| e.metadata().map_or(0, |m| m.len()))
        .sum()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One round of `ctx.spec` in `dir`. `slice` bounds the timed region
/// of the query and reopen loops; an ingest region is one pass over its
/// rows whatever it takes. `first` asks for the exact counts.
///
/// Set-up starts from the seed: generating the inputs is part of it.
pub fn round(ctx: &mut Ctx<'_>, dir: &Path, slice: Duration, first: bool) -> Round {
    let started = Instant::now();
    ctx.rec.enter("setup");
    let corpus = corpus(ctx.seed, ctx.smoke);
    ctx.clusters = first.then(|| Clusters::new(ctx.spec.shards));
    let round = match ctx.spec.kind {
        Kind::Ingest => ingest_round(ctx, &corpus, dir, started),
        Kind::Mixed => mixed_round(ctx, &corpus, dir, started),
        Kind::Query(template) => query_round(ctx, &corpus, dir, started, template, slice),
        Kind::Recover => recover_round(ctx, &corpus, dir, started, slice),
    };
    let _ = std::fs::remove_dir_all(dir);
    let mut round = round.unwrap_or_default();
    round.rows = corpus.rows;
    round
}

/// Setup is over: close its span, open the timed region's.
fn start_measuring(ctx: &mut Ctx<'_>, round: &mut Round, started: Instant) {
    round.setup = started.elapsed();
    ctx.rec.exit();
    ctx.rec.enter("measure");
}

/// First-round facts: log bytes per row and F1 against the generator.
fn facts(ctx: &mut Ctx<'_>, corpus: &Corpus, round: &mut Round, dir: &Path) {
    if let Some(clusters) = ctx.clusters.take() {
        round.facts = Some(Facts {
            wal_bytes_per_row: dir_bytes(dir) as f64 / corpus.rows as f64,
            er_f1: clusters.f1(corpus),
        });
    }
}

fn sync_wal(ctx: &mut Ctx<'_>, db: &Db) -> Duration {
    let op = ctx.op();
    let (synced, took) = ctx.rec.call("Db::sync_wal", op, 0, || db.sync_wal());
    ctx.checks.call("sync_wal", synced);
    took
}

fn ingest_round(ctx: &mut Ctx<'_>, corpus: &Corpus, dir: &Path, started: Instant) -> Option<Round> {
    let mut round = Round::default();
    let db = ctx.create(corpus, dir)?;
    // The acked rows must answer queries: one range scan per source.
    let queries = scan_queries(corpus, ctx.seed);
    start_measuring(ctx, &mut round, started);
    let loaded = ctx.load(&db, corpus, Part::All, false);
    round.busy = loaded.lat.total + sync_wal(ctx, &db);
    ctx.rec.exit();
    round.work = loaded.rows;
    round.lat = loaded.lat.clone();
    round.loaded = loaded;
    ctx.expect_records(&db, corpus.rows as u64);
    for q in queries.iter().take(corpus.sources.len()) {
        ctx.query(&db, q);
    }
    facts(ctx, corpus, &mut round, dir);
    Some(round)
}

fn mixed_round(ctx: &mut Ctx<'_>, corpus: &Corpus, dir: &Path, started: Instant) -> Option<Round> {
    let mut round = Round::default();
    let db = ctx.create(corpus, dir)?;
    let preload = ctx.load(&db, corpus, Part::FirstHalf, false);
    ctx.expect_records(&db, preload.rows);
    // Only first-half tags: their row sets hold still while the writer
    // adds the second half.
    let queries = point_queries(corpus, Part::FirstHalf, ctx.seed);
    start_measuring(ctx, &mut round, started);
    let done = AtomicBool::new(false);
    let mut reader = Ctx::new(ctx.spec, ctx.seed, ctx.smoke, ctx.rec.sibling(1));
    reader.next_op = 1 << 32;
    // The writer holds the shard's write lock for nine tenths of every
    // row (pipeline and fsync), and the standard library's lock hands it
    // straight back to a writer that asks again: a reader gets in by
    // luck. Unpaced, it answered anywhere from 5k to 400k queries a
    // round and was shut out for up to 0.4 s at a stretch; which regime
    // a run lands in changes from one process to the next. So the gated
    // operation is the writer's, and the reader is a probe.
    let (written, mut stalls) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            let mut stalls = Vec::new();
            while !done.load(Ordering::Acquire) {
                stalls.push(ms(reader.query(&db, &queries[stalls.len() % queries.len()])));
                std::thread::sleep(READER_THINK);
            }
            stalls
        });
        let written = ctx.load(&db, corpus, Part::SecondHalf, true);
        done.store(true, Ordering::Release);
        (written, reading.join().expect("reader thread panicked"))
    });
    ctx.rec.absorb(reader.rec);
    ctx.rec.exit();
    ctx.checks.merge(reader.checks);
    round.diag.push(("reader_queries", stalls.len() as f64));
    round.diag.push(("reader_p50_ms", median(&mut stalls)));
    round
        .diag
        .push(("reader_max_ms", stalls.last().copied().unwrap_or(0.0)));
    round.busy = written.lat.total;
    round.work = written.rows;
    round.lat = written.lat.clone();
    round.loaded = written;
    ctx.expect_records(&db, corpus.rows as u64);
    facts(ctx, corpus, &mut round, dir);
    Some(round)
}

fn query_round(
    ctx: &mut Ctx<'_>,
    corpus: &Corpus,
    dir: &Path,
    started: Instant,
    template: Template,
    slice: Duration,
) -> Option<Round> {
    let mut round = Round::default();
    let db = ctx.create(corpus, dir)?;
    round.loaded = ctx.load(&db, corpus, Part::All, false);
    sync_wal(ctx, &db);
    ctx.expect_records(&db, corpus.rows as u64);
    let queries = match template {
        Template::Scan => scan_queries(corpus, ctx.seed),
        Template::Point => point_queries(corpus, Part::All, ctx.seed),
        Template::Semantic => semantic_setup(&db, corpus, &mut ctx.checks),
    };
    facts(ctx, corpus, &mut round, dir);
    start_measuring(ctx, &mut round, started);
    let measuring = Instant::now();
    // The first pass over the statements checks every row set once
    // and is the warm-up; two passes at least, so something is timed.
    let mut lat = Samples::after(queries.len());
    while lat.pushed < 2 * queries.len() || measuring.elapsed() < slice {
        lat.push(ctx.query(&db, &queries[lat.pushed % queries.len()]));
    }
    ctx.rec.exit();
    round.busy = lat.total;
    round.work = lat.n;
    round.lat = lat;
    Some(round)
}

fn recover_round(
    ctx: &mut Ctx<'_>,
    corpus: &Corpus,
    dir: &Path,
    started: Instant,
    slice: Duration,
) -> Option<Round> {
    let mut round = Round::default();
    let db = ctx.create(corpus, dir)?;
    round.loaded = ctx.load(&db, corpus, Part::All, false);
    sync_wal(ctx, &db);
    ctx.expect_records(&db, corpus.rows as u64);
    let dump = db.state_dump();
    drop(db);
    // No checkpoint yet: this open replays the raw log and curates
    // every record again.
    let (db, replay) = ctx.open(dir);
    let db = db?;
    round.diag.push(("recovery_replay_ms", ms(replay)));
    ctx.checks.check(db.state_dump() == dump, || {
        "state_dump() after raw replay differs from before the drop".into()
    });
    let mut checkpoints = Vec::new();
    for _ in 0..5 {
        let op = ctx.op();
        let (stats, took) = ctx.rec.call("Db::checkpoint", op, 0, || db.checkpoint());
        ctx.checks.call("checkpoint", stats);
        checkpoints.push(ms(took));
    }
    round.diag.push(("checkpoint_ms", median(&mut checkpoints)));
    facts(ctx, corpus, &mut round, dir);
    drop(db);
    start_measuring(ctx, &mut round, started);
    let measuring = Instant::now();
    let mut lat = Samples::after(WARMUP_REOPENS);
    while lat.pushed < 2 * WARMUP_REOPENS || measuring.elapsed() < slice {
        let (db, took) = ctx.open(dir);
        lat.push(took);
        ctx.checks
            .check(db.is_some_and(|db| db.state_dump() == dump), || {
                "state_dump() after snapshot reopen differs from before the drop".into()
            });
    }
    ctx.rec.exit();
    round.busy = lat.total;
    round.work = lat.n;
    round.lat = lat;
    Some(round)
}

/// Sorts `values`; 0 for none.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Scratch databases and trace files go here (ignored by git).
pub const OUT_DIR: &str = "perf/out";

pub fn scratch_dir(workload: &str) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("scratch-{}-{workload}", std::process::id()))
}
