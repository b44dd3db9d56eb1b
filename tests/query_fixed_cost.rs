//! Fixed costs of a point query, pinned.
//!
//! A 10-row hash-index point query spends most of its time outside its
//! rows: lexing, parsing, planning, optimizing, profiling and metrics.
//! This binary counts the heap allocations one such query makes (a
//! counting global allocator, confined to this test binary, counts per
//! thread) and pins them against the figure measured before the
//! per-query fixed cost was cut. It also pins, with durations masked,
//! what a query reports about itself — the plan, its rewrites and every
//! profile stage — so the cut provably changes no output.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use scdb_core::{Db, DurabilityConfig, IndexKind, QueryOutcome};
use scdb_er::normalize::normalize;
use scdb_query::exec::{EvalEnv, SemanticEnv};
use scdb_query::{Executor, LogicalPlan, RowSource, StoreSource};
use scdb_storage::{NameIndex, RowStore, SourceNames};
use scdb_types::{Record, SourceId, Symbol, Value};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialized thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (allocs and reallocs) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Allocations of one indexed 10-row point query
/// (`SELECT drug FROM src1 WHERE tag = '…'`) before the fixed-cost cut.
const POINT_QUERY_ALLOCS_BEFORE: u64 = 96;

/// The same query's allocations since the cut: any rise fails.
const POINT_QUERY_ALLOCS: u64 = 52;

/// Allocations of the `IS` and `HAS SOME` queries below: 35 and 31 when
/// they read the records, before name columns.
const IS_ALLOCS: u64 = 34;
const HAS_SOME_ALLOCS: u64 = 30;

/// Records the executor fetches for them: only the one row each returns.
/// Reading the records, they fetched all 200.
const IS_FETCHES: usize = 1;
const HAS_SOME_FETCHES: usize = 1;

/// Names far apart in edit space, so identity matching never merges two
/// rows and every tag keeps its 10 rows.
fn row_name(i: usize) -> String {
    let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
    format!("{h:05x}-drug-{i}")
}

/// 200 rows of `src1`: a unique `drug`, a `tag` shared by 10
/// consecutive rows (hash-indexed) and a `dose` in tenths. Row 3 is an
/// `Anticoagulant`, a `Drug` that has some target. No query is ever
/// slow, so a stalled host cannot send a measured query down the
/// slow-query capture path and its allocations.
fn fixture() -> Db {
    let db = Db::builder().slow_query_threshold(Duration::MAX).build();
    load(&db);
    annotate(&db);
    db
}

/// The fixture's rows and index.
fn load(db: &Db) {
    db.register_source("src1", Some("drug"));
    let drug = db.intern("drug");
    let tag = db.intern("tag");
    let dose = db.intern("dose");
    let rows: Vec<Record> = (0..200)
        .map(|i| {
            Record::from_pairs([
                (drug, Value::str(row_name(i))),
                (tag, Value::str(format!("t{:03}", i / 10))),
                (dose, Value::Float(i as f64 / 10.0)),
            ])
        })
        .collect();
    db.ingest_batch("src1", rows).expect("ingest");
    db.create_index("ix_tag", "src1", "tag", IndexKind::Hash)
        .expect("index");
}

/// The fixture's ontology and typed row: the semantic layer, which a
/// reopen does not restore.
fn annotate(db: &Db) {
    db.with_ontology(|o| {
        o.subclass("Anticoagulant", "Drug");
        o.subclass_exists("Drug", "has_target", "Gene");
    });
    db.assert_entity_type(&row_name(3), "Anticoagulant")
        .expect("typed");
}

const POINT: &str = "SELECT drug FROM src1 WHERE tag = 't007'";

#[test]
fn point_query_allocations_are_cut() {
    let db = fixture();
    // Warm up: first-use registrations and lazily built state.
    for _ in 0..3 {
        assert_eq!(db.query(POINT).expect("query").rows.len(), 10);
    }
    let (out, n) = allocations(|| db.query(POINT).expect("query"));
    assert_eq!(out.rows.len(), 10);
    assert!(out.plan.index_scan().is_some(), "{}", out.plan);
    println!("point query: {n} allocation(s), {POINT_QUERY_ALLOCS_BEFORE} before");
    assert_eq!(
        n, POINT_QUERY_ALLOCS,
        "a point query makes {n} allocations, {POINT_QUERY_ALLOCS} when pinned"
    );
}

const IS: &str = "SELECT drug FROM src1 WHERE drug IS 'Anticoagulant'";
const HAS_SOME: &str = "SELECT drug FROM src1 WHERE drug HAS SOME has_target";

/// Allocations of one `IS` and one `HAS SOME` query over the fixture's
/// 200 rows, each answering its one typed row.
#[test]
fn semantic_query_allocations_are_pinned() {
    let db = fixture();
    for (sql, want) in [(IS, IS_ALLOCS), (HAS_SOME, HAS_SOME_ALLOCS)] {
        for _ in 0..3 {
            assert_eq!(db.query(sql).expect("query").rows.len(), 1);
        }
        let (out, n) = allocations(|| db.query(sql).expect("query"));
        assert_eq!(out.rows.len(), 1);
        println!("{sql}: {n} allocation(s)");
        assert_eq!(n, want, "{sql}");
    }
}

/// The first `IS` query after a checkpoint reopen costs what the first
/// one costs on the never-closed database: the same plan and profile,
/// and the same allocations, so it notes no row in a name column and
/// reads no record the never-closed query does not read (reading the
/// records costs one allocation more, see [`IS_ALLOCS`]).
#[test]
fn first_semantic_query_after_a_reopen_costs_what_it_costs_never_closed() {
    // First-use registrations of the query path, paid by neither side.
    assert_eq!(fixture().query(IS).expect("query").rows.len(), 1);
    let never_closed = fixture();
    let dir = std::env::temp_dir().join(format!("scdb-fixed-cost-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        Db::builder()
            .slow_query_threshold(Duration::MAX)
            .durability_config(DurabilityConfig::dir(&dir))
            .open()
            .expect("open")
    };
    {
        let db = open();
        load(&db);
        db.checkpoint().expect("checkpoint");
    }
    let reopened = open();
    assert_eq!(
        reopened
            .recovery_report()
            .expect("durable")
            .records_replayed,
        0,
        "every row comes from the snapshot"
    );
    annotate(&reopened);
    let (want, want_n) = allocations(|| never_closed.query(IS).expect("query"));
    let (got, got_n) = allocations(|| reopened.query(IS).expect("query"));
    assert_eq!(got.rows.len(), 1);
    assert_eq!(explain(&got), explain(&want));
    println!("{IS} first after a reopen: {got_n} allocation(s), {want_n} never closed");
    assert_eq!(got_n, want_n, "{IS} first after a reopen");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A row source that counts the records the executor fetches.
struct Counting<'a> {
    inner: StoreSource<'a>,
    fetched: AtomicUsize,
}

impl RowSource for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn rows(&self) -> &[Record] {
        self.inner.rows()
    }
    fn record(&self, offset: usize) -> &Record {
        self.fetched.fetch_add(1, Ordering::Relaxed);
        self.inner.record(offset)
    }
    fn attr(&self, name: &str) -> Option<Symbol> {
        self.inner.attr(name)
    }
    fn names(&self) -> Option<SourceNames<'_>> {
        self.inner.names()
    }
}

/// Records the executor fetches for one `IS` and one `HAS SOME` query
/// over the fixture's rows, its names and its saturation, with the name
/// columns a database keeps for those rows.
#[test]
fn semantic_query_record_fetches_are_pinned() {
    let db = fixture();
    let rows = db.query("SELECT * FROM src1").expect("rows").rows;
    let symbols = db.symbols_ref();
    let drug = symbols.get("drug").expect("drug");
    let mut store = RowStore::new(SourceId(0));
    let mut entity_by_name = HashMap::new();
    let mut names = NameIndex::new();
    for (offset, row) in rows.into_iter().enumerate() {
        for (attr, value) in row.iter() {
            match value {
                Value::Str(s) => {
                    let id = names.intern(&normalize(s));
                    names.note_name(SourceId(0), attr, offset, id);
                }
                _ => names.note_other(SourceId(0), attr),
            }
        }
        let name = row.get(drug).expect("every row names a drug").render();
        let entity = db.entity_named(&name).expect("every drug is an entity");
        let id = names.intern(&normalize(&name));
        names.register(id, entity);
        entity_by_name.insert(normalize(&name), entity);
        store.append(row);
    }
    let saturation = db.reason().expect("reason");
    let ontology = db.ontology();
    let env = EvalEnv {
        semantic: Some(SemanticEnv {
            ontology: &ontology,
            saturation: &saturation,
            entity_by_name: &entity_by_name,
        }),
        ..EvalEnv::default()
    };
    for (sql, want) in [(IS, IS_FETCHES), (HAS_SOME, HAS_SOME_FETCHES)] {
        let source = Counting {
            inner: StoreSource::new("src1", &store, &symbols).with_names(&names),
            fetched: AtomicUsize::new(0),
        };
        let plan = LogicalPlan::new(scdb_query::parse(sql).expect("parse"));
        let (out, _) = Executor::sequential()
            .execute(&plan, &source, &env)
            .expect("execute");
        assert_eq!(out.len(), 1, "{sql}");
        let fetched = source.fetched.into_inner();
        println!("{sql}: {fetched} record fetch(es)");
        assert_eq!(fetched, want, "{sql}");
    }
}

#[test]
fn point_statement_parses_in_few_allocations() {
    let _ = scdb_query::parse(POINT).expect("parse");
    let (q, n) = allocations(|| scdb_query::parse(POINT).expect("parse"));
    assert_eq!(q.from, "src1");
    println!("parse: {n} allocation(s), 26 before");
    assert!(n <= 10, "parsing the point statement made {n} allocations");
}

/// Everything a query reports about itself except wall time: the plan
/// (with its rewrites), each profile stage's name, depth, rows and
/// notes, and the optimizer decisions.
fn explain(out: &QueryOutcome) -> String {
    let mut s = format!("{}", out.plan);
    for st in &out.profile.stages {
        s.push_str(&format!(
            "stage {} depth={} in={:?} out={:?} notes={:?}\n",
            st.name, st.depth, st.rows_in, st.rows_out, st.notes
        ));
    }
    for d in &out.profile.optimizer_decisions {
        s.push_str(&format!("decision {d}\n"));
    }
    s.push_str(&format!("rows {}\n", out.rows.len()));
    s
}

fn pin(db: &Db, sql: &str, want: &str) {
    let out = db.query(sql).expect("query");
    let got = explain(&out);
    assert_eq!(got, want, "\n{sql}\n--- got ---\n{got}");
}

#[test]
fn explain_is_pinned_for_each_query_shape() {
    let db = fixture();
    pin(
        &db,
        "SELECT drug FROM src1 WHERE tag = 't007'",
        r#"IndexScan src1 via ix_tag [tag = 't007']
  Filter [tag = 't007']
    Project [drug]
estimated rows: 10.0
rewrite: access path: index_scan via 'ix_tag' on tag (estimated 10.0 of 200 rows, selectivity 0.0500)
stage plan depth=0 in=None out=None notes=["1 atom(s), 3 node(s)"]
stage optimize depth=0 in=None out=None notes=[]
stage execute depth=0 in=Some(200) out=Some(10) notes=["estimated 10.0 rows, actual 10"]
stage scan depth=1 in=None out=Some(10) notes=["source=src1", "access=index_scan via 'ix_tag' (10 candidate row(s))"]
stage filter depth=1 in=Some(10) out=Some(10) notes=["1 atom(s), 10 eval(s)"]
stage project depth=1 in=Some(10) out=Some(10) notes=["drug"]
decision access path: index_scan via 'ix_tag' on tag (estimated 10.0 of 200 rows, selectivity 0.0500)
rows 10
"#,
    );
    pin(
        &db,
        "SELECT drug, dose FROM src1 WHERE dose >= 2.5 AND dose < 4.5 AND dose > 1",
        r#"Scan src1
  Filter [dose < 4.5 AND dose >= 2.5]
    Project [drug, dose]
estimated rows: 39.4
rewrite: merged 1 range atom(s)
rewrite: reordered atoms by estimated selectivity
stage plan depth=0 in=None out=None notes=["3 atom(s), 3 node(s)"]
stage optimize depth=0 in=None out=None notes=[]
stage execute depth=0 in=Some(200) out=Some(20) notes=["estimated 39.4 rows, actual 20"]
stage scan depth=1 in=None out=Some(200) notes=["source=src1"]
stage filter depth=1 in=Some(200) out=Some(20) notes=["2 atom(s), 245 eval(s)"]
stage project depth=1 in=Some(20) out=Some(20) notes=["drug, dose"]
decision merged 1 range atom(s)
decision reordered atoms by estimated selectivity
rows 20
"#,
    );
    pin(
        &db,
        "SELECT drug FROM src1 WHERE drug IS 'Drug' AND drug IS 'Anticoagulant'",
        r#"Scan src1
  Filter [drug IS 'Anticoagulant']
    Project [drug]
estimated rows: 200.0
rewrite: collapsed 1 subsumed concept atom(s)
stage semantic_prep depth=0 in=None out=None notes=[]
stage plan depth=0 in=None out=None notes=["2 atom(s), 3 node(s)"]
stage optimize depth=0 in=None out=None notes=[]
stage execute depth=0 in=Some(200) out=Some(1) notes=["estimated 200.0 rows, actual 1"]
stage scan depth=1 in=None out=Some(200) notes=["source=src1"]
stage filter depth=1 in=Some(200) out=Some(1) notes=["1 atom(s), 200 eval(s)"]
stage project depth=1 in=Some(1) out=Some(1) notes=["drug"]
decision collapsed 1 subsumed concept atom(s)
rows 1
"#,
    );
    pin(
        &db,
        "SELECT drug FROM src1 WHERE drug HAS SOME has_target",
        r#"Scan src1
  Filter [drug HAS SOME has_target]
    Project [drug]
estimated rows: 100.0
stage semantic_prep depth=0 in=None out=None notes=[]
stage plan depth=0 in=None out=None notes=["1 atom(s), 3 node(s)"]
stage optimize depth=0 in=None out=None notes=[]
stage execute depth=0 in=Some(200) out=Some(1) notes=["estimated 100.0 rows, actual 1"]
stage scan depth=1 in=None out=Some(200) notes=["source=src1"]
stage filter depth=1 in=Some(200) out=Some(1) notes=["1 atom(s), 200 eval(s)"]
stage project depth=1 in=Some(1) out=Some(1) notes=["drug"]
rows 1
"#,
    );
    pin(
        &db,
        "SELECT * FROM src1 WHERE dose > 3 LIMIT 4",
        r#"Scan src1
  Filter [dose > 3]
    Limit 4
estimated rows: 170.0
stage plan depth=0 in=None out=None notes=["1 atom(s), 3 node(s)"]
stage optimize depth=0 in=None out=None notes=[]
stage execute depth=0 in=Some(200) out=Some(4) notes=["estimated 170.0 rows, actual 4"]
stage scan depth=1 in=None out=Some(35) notes=["source=src1"]
stage filter depth=1 in=Some(35) out=Some(4) notes=["1 atom(s), 35 eval(s)"]
stage limit depth=1 in=None out=Some(4) notes=["limit 4"]
rows 4
"#,
    );
    pin(
        &db,
        "SELECT drug FROM src1 WHERE dose = 1 AND dose = 2",
        r#"EmptyResult (proven unsatisfiable)
Scan src1
  Filter [dose = 1 AND dose = 2]
    Project [drug]
estimated rows: 0.0
rewrite: unsatisfiable: dose = 1 contradicts dose = 2
stage plan depth=0 in=None out=None notes=["2 atom(s), 3 node(s)"]
stage optimize depth=0 in=None out=None notes=[]
stage execute depth=0 in=Some(200) out=Some(0) notes=["plan proven empty: scan skipped", "estimated 0.0 rows, actual 0"]
stage scan depth=1 in=None out=Some(0) notes=["source=src1"]
stage filter depth=1 in=Some(0) out=Some(0) notes=["2 atom(s), 0 eval(s)"]
stage project depth=1 in=Some(0) out=Some(0) notes=["drug"]
decision unsatisfiable: dose = 1 contradicts dose = 2
rows 0
"#,
    );
}

/// `sys.metrics` holds one row per registered metric, and the registry
/// is shared by every test in this binary: the pin takes the row count
/// from the run and fixes everything else.
#[test]
fn explain_is_pinned_for_a_sys_query() {
    let db = fixture();
    // Registers `query.rows_out`.
    db.query(POINT).expect("query");
    let out = db
        .query("SELECT name, kind FROM sys.metrics WHERE name = 'query.rows_out'")
        .expect("query");
    let n = out.profile.stages[0].notes[0]
        .split_once(' ')
        .and_then(|(n, _)| n.parse::<u64>().ok())
        .expect("sys_refresh names its row count");
    let est = n as f64 * 0.1;
    let want = format!(
        r#"Scan sys.metrics
  Filter [name = 'query.rows_out']
    Project [name, kind]
estimated rows: {est:.1}
stage sys_refresh depth=0 in=None out=None notes=["{n} row(s) from sys.metrics"]
stage plan depth=0 in=None out=None notes=["1 atom(s), 3 node(s)"]
stage optimize depth=0 in=None out=None notes=[]
stage execute depth=0 in=Some({n}) out=Some(1) notes=["estimated {est:.1} rows, actual 1"]
stage scan depth=1 in=None out=Some({n}) notes=["source=sys.metrics"]
stage filter depth=1 in=Some({n}) out=Some(1) notes=["1 atom(s), {n} eval(s)"]
stage project depth=1 in=Some(1) out=Some(1) notes=["name, kind"]
rows 1
"#
    );
    assert_eq!(explain(&out), want);
}
