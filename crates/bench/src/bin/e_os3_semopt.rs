//! E-T1-OS3 — semantic query optimization.
//!
//! A query suite with semantically redundant, collapsible, and
//! unsatisfiable predicates runs with the optimizer fully on, fully off,
//! and with each semantic rewrite individually disabled (the ablation
//! DESIGN.md calls out). The cost metric is atom evaluations + rows
//! scanned — deterministic, machine-independent.
//!
//! `--smoke` checks every cell of the table against [`PINNED`]: the rows
//! returned, rows scanned, atom evaluations and rewrites applied for all
//! five queries under all five configs. The counts move only when
//! short-circuit order, unsat pruning or the count-based selectivity
//! estimates move, so the gate needs no clock.

use scdb_bench::{banner, Table};
use scdb_core::Db;
use scdb_query::optimizer::OptimizerConfig;
use scdb_types::{Record, Value};

/// 2000 drug rows with clean attribute names, typed concepts, and a
/// disjointness axiom — everything the rewrite suite needs.
fn build_db() -> Db {
    let db = Db::new();
    db.register_source("drugs", Some("name"));
    let name = db.intern("name");
    let gene = db.intern("gene");
    let dose = db.intern("dose");
    for i in 0..2000i64 {
        let r = Record::from_pairs([
            (name, Value::str(drug_name(i))),
            (gene, Value::str(format!("GEN{:03}", i % 60))),
            (dose, Value::Float(1.0 + (i % 80) as f64 / 10.0)),
        ]);
        db.ingest("drugs", r, None).expect("ingest");
    }
    db.with_ontology(|o| {
        o.subclass("ApprovedDrug", "Drug");
        o.subclass("Drug", "Chemical");
        o.disjoint("Chemical", "Disease");
    });
    // Type a slice of drugs so concept atoms have members.
    for i in 0..200 {
        let concept = if i % 4 == 0 { "ApprovedDrug" } else { "Drug" };
        db.assert_entity_type(&drug_name(i), concept)
            .expect("typed");
    }
    db
}

/// `(rows, scanned, atom_evals, rewrites applied)` per query (outer, in
/// suite order) and config (inner, in config order).
const PINNED: [[(usize, u64, u64, usize); 5]; 5] = [
    // redundant subsumption
    [
        (43, 2000, 2054, 1),
        (43, 2000, 2108, 0),
        (43, 2000, 2054, 1),
        (43, 2000, 2097, 1),
        (43, 2000, 2054, 1),
    ],
    // unsat disjointness
    [
        (0, 0, 0, 1),
        (0, 2000, 2201, 0),
        (0, 2000, 2000, 1),
        (0, 0, 0, 1),
        (0, 0, 0, 1),
    ],
    // contradictory range
    [
        (0, 0, 0, 1),
        (0, 2000, 2725, 0),
        (0, 2000, 2500, 1),
        (0, 0, 0, 1),
        (0, 0, 0, 1),
    ],
    // mergeable ranges
    [
        (725, 2000, 2975, 1),
        (725, 2000, 5675, 0),
        (725, 2000, 4925, 1),
        (725, 2000, 2975, 1),
        (725, 2000, 2975, 1),
    ],
    // selectivity reorder
    [
        (1, 2000, 2001, 1),
        (1, 2000, 4000, 0),
        (1, 2000, 2001, 1),
        (1, 2000, 2001, 1),
        (1, 2000, 4000, 0),
    ],
];

fn main() {
    banner(
        "E-T1-OS3",
        "Table 1 row OS.3 (semantic query optimization)",
        "subsumption collapse, disjointness unsat-pruning, and range merging cut execution cost",
    );
    let db = build_db();

    let reorder_sql = format!(
        "SELECT name FROM drugs WHERE dose >= 1.0 AND name = '{}'",
        drug_name(7)
    );
    let suite = [
        (
            "redundant subsumption",
            "SELECT name FROM drugs WHERE name IS 'ApprovedDrug' AND name IS 'Drug' AND dose > 2.0",
        ),
        (
            "unsat disjointness",
            "SELECT name FROM drugs WHERE name IS 'Drug' AND name IS 'Disease'",
        ),
        (
            "contradictory range",
            "SELECT name FROM drugs WHERE dose > 6.0 AND dose < 3.0",
        ),
        (
            "mergeable ranges",
            "SELECT name FROM drugs WHERE dose > 2.0 AND dose > 5.0 AND dose < 9.0 AND dose < 8.0",
        ),
        ("selectivity reorder", reorder_sql.as_str()),
    ];
    let configs: [(&str, OptimizerConfig); 5] = [
        ("optimized", OptimizerConfig::default()),
        ("naive", OptimizerConfig::disabled()),
        (
            "no-unsat",
            OptimizerConfig {
                detect_unsat: false,
                merge_ranges: false,
                ..OptimizerConfig::default()
            },
        ),
        (
            "no-collapse",
            OptimizerConfig {
                collapse_subsumed: false,
                ..OptimizerConfig::default()
            },
        ),
        (
            "no-reorder",
            OptimizerConfig {
                reorder_by_selectivity: false,
                ..OptimizerConfig::default()
            },
        ),
    ];

    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failures = Vec::new();
    let mut t = Table::new(&[
        "query",
        "config",
        "rows",
        "scanned",
        "atom_evals",
        "rewrites applied",
    ]);
    for ((qname, sql), pinned) in suite.into_iter().zip(PINNED) {
        for ((cname, ocfg), want) in configs.iter().zip(pinned) {
            db.set_optimizer_config(*ocfg);
            let out = db.query(sql).expect(sql);
            let got = (
                out.rows.len(),
                out.stats.rows_scanned,
                out.stats.atom_evals,
                out.plan.rewrites.len(),
            );
            if got != want {
                failures.push(format!("{qname} / {cname}: got {got:?}, pinned {want:?}"));
            }
            t.row(&[
                qname.to_string(),
                cname.to_string(),
                got.0.to_string(),
                got.1.to_string(),
                got.2.to_string(),
                got.3.to_string(),
            ]);
        }
        println!();
    }
    println!("{}", t.render());
    println!("shape check: unsat queries scan 0 rows only when detect_unsat is on; collapse and");
    println!("range-merge cut atom_evals vs naive; reorder puts the selective equality first.");
    if smoke {
        for f in &failures {
            println!("SMOKE FAIL: {f}");
        }
        if !failures.is_empty() {
            std::process::exit(1);
        }
        println!("smoke: all 25 (query, config) counts match the pinned table OK");
    }
}

/// Names for synthetic drugs that are far apart in edit space (hash
/// prefix), so fuzzy identity matching does not merge distinct serials.
fn drug_name(i: i64) -> String {
    let tag = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
    format!("{tag:05x}-drug-{i}")
}
