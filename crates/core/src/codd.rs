//! §5 — the revisited Codd rules as an executable compliance report.
//!
//! The paper closes by revisiting Codd's classical rules and listing how a
//! self-curating database must deviate from or extend each. This module
//! turns that prose into checks over a live [`Db`]: each item
//! inspects actual system state and reports whether the deviation is
//! *exhibited* (the system actually behaves the new way), giving the
//! paper's "comprehensive list of criteria that may serve as a test for
//! self-curating databases".

use crate::db::Db;

/// Status of one checklist item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoddStatus {
    /// The deviation/extension is exhibited by the current instance.
    Exhibited,
    /// The machinery exists but the current instance has no evidence
    /// (e.g. no data loaded yet).
    Supported,
    /// Not satisfied.
    Missing,
}

/// One line of the report.
#[derive(Debug, Clone)]
pub struct CoddItem {
    /// The rule, as named in §5.
    pub rule: &'static str,
    /// Verdict.
    pub status: CoddStatus,
    /// Concrete evidence from the live instance.
    pub evidence: String,
}

impl Db {
    /// Compute the §5 compliance report: one [`CoddItem`] per revisited
    /// Codd rule, with a verdict drawn from the live instance's actual
    /// state (sources, layers, heterogeneity, saturation runs, axioms).
    pub fn codd_report(&self) -> Vec<CoddItem> {
        let mut items = Vec::new();

        // Deviation from the foundation rule: data is not all local/relational.
        let sources = self.source_count();
        let text_docs = self.text().len();
        items.push(CoddItem {
            rule: "foundation rule (deviation): multiple independent, non-relational sources",
            status: if sources > 1 || text_docs > 0 {
                CoddStatus::Exhibited
            } else if sources == 1 {
                CoddStatus::Supported
            } else {
                CoddStatus::Missing
            },
            evidence: format!(
                "{sources} registered source(s), {text_docs} unstructured document(s)"
            ),
        });

        // Deviation from the information rule: hierarchical multi-layer model,
        // meta-data unified with data.
        let records: usize = self
            .source_names()
            .iter()
            .map(|n| self.record_count(n).unwrap_or(0))
            .sum();
        let edges = self.graph().edge_count();
        let axioms = self.ontology().axioms().len();
        items.push(CoddItem {
            rule: "information rule (deviation): hierarchical multi-layered representation",
            status: if records > 0 && edges > 0 && axioms > 0 {
                CoddStatus::Exhibited
            } else if records > 0 {
                CoddStatus::Supported
            } else {
                CoddStatus::Missing
            },
            evidence: format!(
                "instance layer: {records} record(s); relation layer: {edges} link(s); semantic layer: {axioms} axiom(s)"
            ),
        });

        // Extended null treatment: heterogeneous/noisy/fuzzy items.
        let (hetero_columns, nullable_columns) = self.column_profile();
        items.push(CoddItem {
            rule: "null treatment (extension): noisy/fuzzy/uncertain/incomplete items",
            status: if hetero_columns > 0 || nullable_columns > 0 {
                CoddStatus::Exhibited
            } else {
                CoddStatus::Supported
            },
            evidence: format!(
                "{hetero_columns} heterogeneous column(s), {nullable_columns} column(s) with missing values; fuzzy CLOSE TO and evidence intervals available in the query layer"
            ),
        });

        // Comprehensive sublanguage (extension): discovery & refinement
        // operators. Static capability — ScQL always carries them.
        items.push(CoddItem {
            rule: "data sublanguage (extension): discovery and refinement operators",
            status: CoddStatus::Exhibited,
            evidence: "ScQL atoms: CLOSE TO (fuzzy), IS (semantic), HAS SOME (existential), LINKED BY (model); explore() refines queries from context".into(),
        });

        // View updating (deviation): external views lazily updated.
        let stats = self.stats();
        items.push(CoddItem {
            rule: "view updating rule (deviation): lazy, incremental external views",
            status: if stats.reason_runs > 0 {
                CoddStatus::Exhibited
            } else {
                CoddStatus::Supported
            },
            evidence: format!(
                "semantic view recomputed lazily; {} saturation run(s), {} derived fact(s) in the last run",
                stats.reason_runs, stats.inferred_facts
            ),
        });

        // Integrity independence (deviation): constraints live in the
        // relation/semantic layers and are physically linked.
        items.push(CoddItem {
            rule:
                "integrity independence (deviation): constraints modeled in relation & semantic layers",
            status: if axioms > 0 && edges > 0 {
                CoddStatus::Exhibited
            } else if axioms > 0 {
                CoddStatus::Supported
            } else {
                CoddStatus::Missing
            },
            evidence: format!(
                "{axioms} TBox/RBox axiom(s) govern {edges} physically-linked instance edge(s)"
            ),
        });

        items
    }

    /// `(heterogeneous, with missing values)` column counts over every
    /// source. A column is heterogeneous when it has held values of more
    /// than one kind, and has missing values when a row held a null or
    /// lacked the attribute altogether.
    fn column_profile(&self) -> (usize, usize) {
        let mut hetero = 0usize;
        let mut missing = 0usize;
        for name in self.source_names() {
            let _ = self.with_attr_stats(&name, |stats, rows| {
                for attr in stats.values() {
                    if attr.kinds.count_ones() > 1 {
                        hetero += 1;
                    }
                    if attr.nulls > 0 || attr.rows < rows as u64 {
                        missing += 1;
                    }
                }
            });
        }
        (hetero, missing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::{Record, Value};

    #[test]
    fn empty_db_mostly_missing_or_supported() {
        let db = Db::new();
        let report = db.codd_report();
        assert_eq!(report.len(), 6);
        assert!(report
            .iter()
            .any(|i| i.status == CoddStatus::Missing || i.status == CoddStatus::Supported));
    }

    #[test]
    fn curated_db_exhibits_deviations() {
        let db = Db::new();
        db.register_source("drugbank", Some("drug"));
        db.register_source("ctd", Some("gene"));
        let d = db.intern("drug");
        let g = db.intern("gene");
        let r = Record::from_pairs([(g, Value::str("TP53"))]);
        db.ingest("ctd", r, Some("TP53 is a tumor suppressor"))
            .unwrap();
        let r = Record::from_pairs([(d, Value::str("Warfarin")), (g, Value::str("TP53"))]);
        db.ingest("drugbank", r, None).unwrap();
        db.with_ontology(|o| {
            o.subclass("Drug", "Chemical");
        });
        db.reason().unwrap();
        let report = db.codd_report();
        let exhibited = report
            .iter()
            .filter(|i| i.status == CoddStatus::Exhibited)
            .count();
        assert!(exhibited >= 4, "report: {report:#?}");
    }

    #[test]
    fn heterogeneous_column_detection() {
        let db = Db::new();
        db.register_source("mixed", None);
        let a = db.intern("v");
        let r = Record::from_pairs([(a, Value::Int(1))]);
        db.ingest("mixed", r, None).unwrap();
        assert_eq!(db.column_profile(), (0, 0));
        // A null is a missing value, not a second kind.
        db.ingest("mixed", Record::from_pairs([(a, Value::Null)]), None)
            .unwrap();
        assert_eq!(db.column_profile(), (0, 1));
        let r = Record::from_pairs([(a, Value::str("one"))]);
        db.ingest("mixed", r, None).unwrap();
        assert_eq!(db.column_profile(), (1, 1));
    }

    /// An attribute first seen in a source's second row was missing from
    /// its first row, so it counts as a column with missing values.
    #[test]
    fn attribute_first_seen_late_counts_as_missing() {
        let db = Db::new();
        db.register_source("late", None);
        let a = db.intern("a");
        let b = db.intern("b");
        db.ingest("late", Record::from_pairs([(a, Value::Int(1))]), None)
            .unwrap();
        db.ingest(
            "late",
            Record::from_pairs([(a, Value::Int(2)), (b, Value::Int(3))]),
            None,
        )
        .unwrap();
        assert_eq!(db.column_profile(), (0, 1));
        let null_treatment = &db.codd_report()[2];
        assert!(
            null_treatment
                .evidence
                .starts_with("0 heterogeneous column(s), 1 column(s) with missing values"),
            "{null_treatment:?}"
        );
        assert_eq!(null_treatment.status, CoddStatus::Exhibited);
    }
}
