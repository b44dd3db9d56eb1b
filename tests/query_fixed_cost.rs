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
use std::time::Duration;

use scdb_core::{Db, IndexKind, QueryOutcome};
use scdb_types::{Record, Value};

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
    db.with_ontology(|o| {
        o.subclass("Anticoagulant", "Drug");
        o.subclass_exists("Drug", "has_target", "Gene");
    });
    db.assert_entity_type(&row_name(3), "Anticoagulant")
        .expect("typed");
    db
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
    assert!(
        n * 100 <= POINT_QUERY_ALLOCS_BEFORE * 65,
        "a point query makes {n} allocations; the bound is 65 % of \
         {POINT_QUERY_ALLOCS_BEFORE}"
    );
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
