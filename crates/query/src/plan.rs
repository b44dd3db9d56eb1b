//! Logical plans.
//!
//! ScQL queries compile to a linear select–project–limit pipeline (joins
//! happen implicitly through the relation layer's links rather than
//! relational join operators — the paper's "instance-level" integration).
//! The plan carries its estimated cardinality, the rewrite log, and an
//! `empty` flag set when the optimizer *proves* the query unsatisfiable
//! (OS.3: "predicates … can be dropped because they are redundant or
//! unsatisfiable").

use std::fmt;

use crate::ast::{Atom, NameList, Query};

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan a named source.
    Scan {
        /// Source name.
        source: String,
    },
    /// Fetch candidate rows through a secondary index instead of
    /// scanning every row. The driving atom stays in the filter stage
    /// too (residual re-check), so an index that is concurrently
    /// dropped degrades to a full scan without changing results.
    IndexScan {
        /// Source name.
        source: String,
        /// Index name (for EXPLAIN; execution matches on the attribute).
        index: String,
        /// The comparison atom pushed into the index lookup.
        atom: Atom,
    },
    /// Filter by conjunctive atoms, evaluated in order.
    Filter {
        /// Ordered atoms (the optimizer orders them most-selective
        /// first).
        atoms: Vec<Atom>,
    },
    /// Project to named attributes (empty = all).
    Project {
        /// Attributes to keep.
        attrs: Vec<String>,
    },
    /// Stop after `n` rows.
    Limit {
        /// Row cap.
        n: usize,
    },
}

/// A compiled logical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    /// Pipeline stages in execution order.
    pub nodes: Vec<PlanNode>,
    /// Estimated output cardinality (rows), when statistics were
    /// available.
    pub estimated_rows: Option<f64>,
    /// Proven-empty flag: the optimizer established unsatisfiability.
    pub empty: bool,
    /// Human-readable rewrite log (one entry per applied rewrite).
    pub rewrites: Vec<String>,
}

impl LogicalPlan {
    /// Naive plan straight from the AST: scan → filter (atom order as
    /// written) → project → limit. The plan takes the query's names and
    /// atoms over instead of copying them.
    pub fn new(query: Query) -> Self {
        let Query {
            select,
            from,
            atoms,
            limit,
        } = query;
        let mut nodes = Vec::with_capacity(4);
        nodes.push(PlanNode::Scan { source: from });
        if !atoms.is_empty() {
            nodes.push(PlanNode::Filter { atoms });
        }
        if !select.is_empty() {
            nodes.push(PlanNode::Project { attrs: select });
        }
        if let Some(n) = limit {
            nodes.push(PlanNode::Limit { n });
        }
        LogicalPlan {
            nodes,
            estimated_rows: None,
            empty: false,
            rewrites: Vec::new(),
        }
    }

    /// [`LogicalPlan::new`] over a copy of `query`.
    pub fn from_query(query: &Query) -> Self {
        Self::new(query.clone())
    }

    /// The filter atoms, if a filter stage exists.
    pub fn filter_atoms(&self) -> &[Atom] {
        self.nodes
            .iter()
            .find_map(|n| match n {
                PlanNode::Filter { atoms } => Some(atoms.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Move the filter atoms out, leaving the filter stage empty until
    /// [`LogicalPlan::set_filter_atoms`] puts atoms back.
    pub fn take_filter_atoms(&mut self) -> Vec<Atom> {
        self.nodes
            .iter_mut()
            .find_map(|n| match n {
                PlanNode::Filter { atoms } => Some(std::mem::take(atoms)),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// The row limit, if a limit stage exists.
    pub fn limit(&self) -> Option<usize> {
        self.nodes.iter().find_map(|n| match n {
            PlanNode::Limit { n } => Some(*n),
            _ => None,
        })
    }

    /// Replace the filter atoms (inserting a filter stage after the scan
    /// when one did not exist and `atoms` is non-empty; removing it when
    /// `atoms` is empty).
    pub fn set_filter_atoms(&mut self, atoms: Vec<Atom>) {
        let idx = self
            .nodes
            .iter()
            .position(|n| matches!(n, PlanNode::Filter { .. }));
        match (idx, atoms.is_empty()) {
            (Some(i), true) => {
                self.nodes.remove(i);
            }
            (Some(i), false) => self.nodes[i] = PlanNode::Filter { atoms },
            (None, true) => {}
            (None, false) => self.nodes.insert(1, PlanNode::Filter { atoms }),
        }
    }

    /// The scanned source name.
    pub fn source(&self) -> Option<&str> {
        self.nodes.iter().find_map(|n| match n {
            PlanNode::Scan { source } | PlanNode::IndexScan { source, .. } => Some(source.as_str()),
            _ => None,
        })
    }

    /// The index-scan access path, when the optimizer chose one.
    pub fn index_scan(&self) -> Option<(&str, &Atom)> {
        self.nodes.iter().find_map(|n| match n {
            PlanNode::IndexScan { index, atom, .. } => Some((index.as_str(), atom)),
            _ => None,
        })
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.empty {
            writeln!(f, "EmptyResult (proven unsatisfiable)")?;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let indent = "  ".repeat(i);
            match node {
                PlanNode::Scan { source } => writeln!(f, "{indent}Scan {source}")?,
                PlanNode::IndexScan {
                    source,
                    index,
                    atom,
                } => writeln!(f, "{indent}IndexScan {source} via {index} [{atom}]")?,
                PlanNode::Filter { atoms } => {
                    let rendered: Vec<String> = atoms.iter().map(|a| a.to_string()).collect();
                    writeln!(f, "{indent}Filter [{}]", rendered.join(" AND "))?;
                }
                PlanNode::Project { attrs } => {
                    writeln!(f, "{indent}Project [{}]", NameList(attrs))?;
                }
                PlanNode::Limit { n } => writeln!(f, "{indent}Limit {n}")?,
            }
        }
        if let Some(rows) = self.estimated_rows {
            writeln!(f, "estimated rows: {rows:.1}")?;
        }
        for r in &self.rewrites {
            writeln!(f, "rewrite: {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn from_query_shapes_pipeline() {
        let q = parse("SELECT a, b FROM t WHERE a = 1 LIMIT 3").unwrap();
        let p = LogicalPlan::from_query(&q);
        assert_eq!(p.nodes.len(), 4);
        assert!(matches!(&p.nodes[0], PlanNode::Scan { source } if source == "t"));
        assert!(matches!(&p.nodes[3], PlanNode::Limit { n: 3 }));
        assert_eq!(p.filter_atoms().len(), 1);
        assert_eq!(p.source(), Some("t"));
    }

    #[test]
    fn no_filter_no_project() {
        let q = parse("SELECT * FROM t").unwrap();
        let p = LogicalPlan::from_query(&q);
        assert_eq!(p.nodes.len(), 1);
        assert!(p.filter_atoms().is_empty());
    }

    #[test]
    fn set_filter_atoms_inserts_and_removes() {
        let q = parse("SELECT * FROM t").unwrap();
        let mut p = LogicalPlan::from_query(&q);
        p.set_filter_atoms(vec![crate::ast::Atom::Compare {
            attr: "a".into(),
            op: crate::ast::CompareOp::Eq,
            value: crate::ast::Literal::Int(1),
        }]);
        assert_eq!(p.filter_atoms().len(), 1);
        p.set_filter_atoms(vec![]);
        assert!(p.filter_atoms().is_empty());
        assert_eq!(p.nodes.len(), 1);
    }

    #[test]
    fn display_renders_stages() {
        let q = parse("SELECT a FROM t WHERE a > 2 LIMIT 1").unwrap();
        let p = LogicalPlan::from_query(&q);
        let s = p.to_string();
        assert!(s.contains("Scan t"));
        assert!(s.contains("Filter [a > 2]"));
        assert!(s.contains("Limit 1"));
    }

    /// Projected names print as the query spells them: quoted exactly
    /// when they would not lex back as one bare name.
    #[test]
    fn display_quotes_projected_names() {
        let q = parse(r#"SELECT "Drug Name", dose, "select" FROM t"#).unwrap();
        let s = LogicalPlan::from_query(&q).to_string();
        assert!(
            s.contains(r#"Project ["Drug Name", dose, "select"]"#),
            "{s}"
        );
    }
}
