//! OS.3 — rule- and cost-based optimization with semantic rewrites.
//!
//! "How [can we] extend the predominant rule- and cost-based query
//! optimization to leverage the explicit semantics within our data model,
//! so the optimizers are no longer limited to only statistics on data …?
//! Is it possible to exploit the available semantics (e.g., exploiting
//! class and subclass relationships) by inferring the selectivity and
//! rewriting the query to a more efficient query (e.g., by inferring that
//! certain predicates can be collapsed together semantically or can be
//! dropped because they are redundant or unsatisfiable)?"
//!
//! Rewrites (each toggleable for the E-T1-OS3 ablation):
//!
//! 1. **duplicate drop** — identical atoms collapse;
//! 2. **range merge** — `a > 3 AND a > 5` → `a > 5`; contradictions
//!    (`a = 1 AND a = 2`, `a > 5 AND a < 3`) prove the plan empty;
//! 3. **subsumption collapse** — `x IS Neoplasms AND x IS Disease` keeps
//!    only `Neoplasms` when the taxonomy knows `Neoplasms ⊑ Disease`;
//! 4. **disjointness unsat** — `x IS AsianPopulation AND x IS
//!    WhitePopulation` is unsatisfiable when the classes are disjoint;
//! 5. **selectivity reorder** — atoms ordered most-selective-first using
//!    instance statistics *and* semantic selectivity (concept member
//!    counts from the saturation — statistics the raw data cannot give,
//!    "often missing or unavailable for external sources").

use std::collections::HashMap;

use scdb_obs::CounterHandle;
use scdb_semantic::{Ontology, Saturation, Taxonomy};
use scdb_storage::index::{IndexDef, IndexKind};
use scdb_storage::stats::AttrStatistics;

use crate::ast::{Atom, CompareOp, Literal};
use crate::plan::{LogicalPlan, PlanNode};

static REWRITES: CounterHandle = CounterHandle::new("query.rewrites");

/// Semantic knowledge available to the optimizer.
pub struct SemanticContext<'a> {
    /// The ontology (for concept name resolution).
    pub ontology: &'a Ontology,
    /// Precomputed subsumption/disjointness closure.
    pub taxonomy: &'a Taxonomy,
    /// Saturated ABox for instance counts (semantic selectivity); optional.
    pub saturation: Option<&'a Saturation>,
}

/// Which rewrites are enabled.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    /// Drop duplicate atoms.
    pub drop_duplicates: bool,
    /// Merge/contradict comparison ranges.
    pub merge_ranges: bool,
    /// Collapse subsumed concept atoms.
    pub collapse_subsumed: bool,
    /// Prove unsat via disjointness.
    pub detect_unsat: bool,
    /// Reorder atoms by estimated selectivity.
    pub reorder_by_selectivity: bool,
    /// Consider secondary-index access paths (when index metadata is
    /// supplied) instead of always scanning.
    pub use_index_scan: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            drop_duplicates: true,
            merge_ranges: true,
            collapse_subsumed: true,
            detect_unsat: true,
            reorder_by_selectivity: true,
            use_index_scan: true,
        }
    }
}

impl OptimizerConfig {
    /// Everything off — the naive baseline.
    pub fn disabled() -> Self {
        OptimizerConfig {
            drop_duplicates: false,
            merge_ranges: false,
            collapse_subsumed: false,
            detect_unsat: false,
            reorder_by_selectivity: false,
            use_index_scan: false,
        }
    }
}

/// An index-scan only pays off when the predicate keeps at most this
/// fraction of the source: above it, fetching scattered candidates and
/// re-checking them costs more than the (parallel) sequential scan.
pub const INDEX_SELECTIVITY_THRESHOLD: f64 = 0.25;

/// The optimizer.
#[derive(Debug, Default)]
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Optimizer with `config`.
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer { config }
    }

    /// Optimize `plan` using optional semantic knowledge and per-attribute
    /// statistics. `base_rows` is the scanned source's cardinality.
    pub fn optimize(
        &self,
        plan: LogicalPlan,
        semantic: Option<&SemanticContext<'_>>,
        stats: Option<&HashMap<String, AttrStatistics>>,
        base_rows: u64,
    ) -> LogicalPlan {
        self.optimize_with_indexes(plan, semantic, stats, base_rows, &[])
    }

    /// [`Optimizer::optimize`] plus access-path selection: when the
    /// scanned source has secondary indexes (`indexes`), the most
    /// selective indexable comparison atom may replace the full scan
    /// with a [`PlanNode::IndexScan`]. The decision (either way) lands
    /// in the rewrite log for EXPLAIN ANALYZE.
    pub fn optimize_with_indexes(
        &self,
        plan: LogicalPlan,
        semantic: Option<&SemanticContext<'_>>,
        stats: Option<&HashMap<String, AttrStatistics>>,
        base_rows: u64,
        indexes: &[IndexDef],
    ) -> LogicalPlan {
        let rewrites_before = plan.rewrites.len();
        let plan = self.optimize_inner(plan, semantic, stats, base_rows, indexes);
        REWRITES.add((plan.rewrites.len() - rewrites_before) as u64);
        plan
    }

    fn optimize_inner(
        &self,
        mut plan: LogicalPlan,
        semantic: Option<&SemanticContext<'_>>,
        stats: Option<&HashMap<String, AttrStatistics>>,
        base_rows: u64,
        indexes: &[IndexDef],
    ) -> LogicalPlan {
        let mut atoms = plan.take_filter_atoms();

        if self.config.drop_duplicates {
            let before = atoms.len();
            // Keep each atom's first occurrence.
            let mut i = 0;
            while i < atoms.len() {
                if atoms[..i].contains(&atoms[i]) {
                    atoms.remove(i);
                } else {
                    i += 1;
                }
            }
            if atoms.len() < before {
                plan.rewrites.push(format!(
                    "dropped {} duplicate atom(s)",
                    before - atoms.len()
                ));
            }
        }

        if self.config.merge_ranges {
            match merge_ranges(&mut atoms) {
                RangeOutcome::Unsat(reason) => {
                    plan.rewrites.push(format!("unsatisfiable: {reason}"));
                    plan.empty = true;
                    plan.set_filter_atoms(atoms);
                    plan.estimated_rows = Some(0.0);
                    return plan;
                }
                RangeOutcome::Merged(n) if n > 0 => {
                    plan.rewrites.push(format!("merged {n} range atom(s)"));
                }
                _ => {}
            }
        }

        if let Some(ctx) = semantic {
            if self.config.collapse_subsumed {
                let dropped = collapse_subsumed(&mut atoms, ctx);
                if dropped > 0 {
                    plan.rewrites
                        .push(format!("collapsed {dropped} subsumed concept atom(s)"));
                }
            }
            if self.config.detect_unsat {
                if let Some((a, b)) = find_disjoint_pair(&atoms, ctx) {
                    plan.rewrites.push(format!(
                        "unsatisfiable: '{a}' and '{b}' are disjoint classes"
                    ));
                    plan.empty = true;
                    plan.set_filter_atoms(atoms);
                    plan.estimated_rows = Some(0.0);
                    return plan;
                }
            }
        }

        // Selectivity estimation (always computed for the cardinality
        // estimate; ordering applied only when enabled).
        let sels: Vec<f64> = atoms
            .iter()
            .map(|a| estimate_selectivity(a, semantic, stats))
            .collect();
        let combined: f64 = sels.iter().product();
        plan.estimated_rows = Some(combined * base_rows as f64);

        if self.config.use_index_scan && !indexes.is_empty() {
            self.choose_access_path(&mut plan, &atoms, &sels, base_rows, indexes);
        }

        // A stable sort by selectivity moves something exactly when the
        // selectivities are not already in order.
        if self.config.reorder_by_selectivity && !sels.is_sorted_by(|a, b| a.total_cmp(b).is_le()) {
            plan.rewrites
                .push("reordered atoms by estimated selectivity".into());
            let mut keyed: Vec<(f64, Atom)> = sels.into_iter().zip(atoms).collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            atoms = keyed.into_iter().map(|(_, atom)| atom).collect();
        }

        plan.set_filter_atoms(atoms);
        plan
    }

    /// Pick index-scan vs full scan from the statistics: the most
    /// selective comparison atom whose attribute has a usable index
    /// (equality on any kind, ranges on ordered only) becomes an
    /// [`PlanNode::IndexScan`] when its estimated selectivity clears
    /// [`INDEX_SELECTIVITY_THRESHOLD`]; otherwise the scan stays and the
    /// rejection is logged.
    fn choose_access_path(
        &self,
        plan: &mut LogicalPlan,
        atoms: &[Atom],
        sels: &[f64],
        base_rows: u64,
        indexes: &[IndexDef],
    ) {
        let Some((pos, source)) = plan.nodes.iter().enumerate().find_map(|(i, n)| match n {
            PlanNode::Scan { source } | PlanNode::IndexScan { source, .. } => Some((i, source)),
            _ => None,
        }) else {
            return;
        };
        let mut best: Option<(usize, &IndexDef, f64)> = None;
        for (i, atom) in atoms.iter().enumerate() {
            let Atom::Compare { attr, op, .. } = atom else {
                continue;
            };
            for def in indexes {
                if def.source != *source || def.attr != *attr {
                    continue;
                }
                let usable = match op {
                    CompareOp::Eq => true,
                    CompareOp::Ne => false,
                    CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => {
                        def.kind == IndexKind::Ordered
                    }
                };
                if !usable {
                    continue;
                }
                if best.is_none_or(|(_, _, s)| sels[i] < s) {
                    best = Some((i, def, sels[i]));
                }
            }
        }
        let Some((i, def, sel)) = best else {
            return;
        };
        let est = sel * base_rows as f64;
        if sel <= INDEX_SELECTIVITY_THRESHOLD {
            // The scan node's name moves into the index scan replacing it;
            // a plan that already scans through an index keeps it.
            let PlanNode::Scan { source } = &mut plan.nodes[pos] else {
                return;
            };
            plan.nodes[pos] = PlanNode::IndexScan {
                source: std::mem::take(source),
                index: def.name.clone(),
                atom: atoms[i].clone(),
            };
            plan.rewrites.push(format!(
                "access path: index_scan via '{}' on {} \
                 (estimated {est:.1} of {base_rows} rows, selectivity {sel:.4})",
                def.name, def.attr
            ));
        } else {
            plan.rewrites.push(format!(
                "access path: scan (best index '{}' selectivity {sel:.2} \
                 above threshold {INDEX_SELECTIVITY_THRESHOLD})",
                def.name
            ));
        }
    }
}

enum RangeOutcome {
    Merged(usize),
    Unsat(String),
    Nothing,
}

fn literal_num(l: &Literal) -> Option<f64> {
    match l {
        Literal::Int(i) => Some(*i as f64),
        Literal::Float(f) => Some(*f),
        _ => None,
    }
}

/// Merge numeric comparison atoms per attribute; detect contradictions.
fn merge_ranges(atoms: &mut Vec<Atom>) -> RangeOutcome {
    #[derive(Default, Clone)]
    struct Range {
        lo: Option<(f64, bool)>, // (bound, inclusive)
        hi: Option<(f64, bool)>,
        eq: Option<f64>,
    }
    // A merge or a contradiction takes two numeric comparisons.
    let numeric = atoms
        .iter()
        .filter(|a| matches!(a, Atom::Compare { value, .. } if literal_num(value).is_some()))
        .count();
    if numeric < 2 {
        return RangeOutcome::Nothing;
    }
    let mut ranges: HashMap<String, Range> = HashMap::new();
    let mut numeric_compare_count: HashMap<String, usize> = HashMap::new();

    for atom in atoms.iter() {
        if let Atom::Compare { attr, op, value } = atom {
            let Some(v) = literal_num(value) else {
                continue;
            };
            *numeric_compare_count.entry(attr.clone()).or_insert(0) += 1;
            let r = ranges.entry(attr.clone()).or_default();
            match op {
                CompareOp::Eq => {
                    if let Some(prev) = r.eq {
                        if prev != v {
                            return RangeOutcome::Unsat(format!(
                                "{attr} = {prev} contradicts {attr} = {v}"
                            ));
                        }
                    }
                    r.eq = Some(v);
                }
                CompareOp::Gt | CompareOp::Ge => {
                    let inclusive = *op == CompareOp::Ge;
                    let tighter = match r.lo {
                        Some((b, _)) => v > b,
                        None => true,
                    };
                    if tighter {
                        r.lo = Some((v, inclusive));
                    }
                }
                CompareOp::Lt | CompareOp::Le => {
                    let inclusive = *op == CompareOp::Le;
                    let tighter = match r.hi {
                        Some((b, _)) => v < b,
                        None => true,
                    };
                    if tighter {
                        r.hi = Some((v, inclusive));
                    }
                }
                CompareOp::Ne => {}
            }
        }
    }

    // Contradiction checks.
    for (attr, r) in &ranges {
        if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (r.lo, r.hi) {
            if lo > hi || (lo == hi && !(lo_inc && hi_inc)) {
                return RangeOutcome::Unsat(format!("{attr} range [{lo}, {hi}] is empty"));
            }
        }
        if let Some(eq) = r.eq {
            if let Some((lo, inc)) = r.lo {
                if eq < lo || (eq == lo && !inc) {
                    return RangeOutcome::Unsat(format!("{attr} = {eq} below lower bound {lo}"));
                }
            }
            if let Some((hi, inc)) = r.hi {
                if eq > hi || (eq == hi && !inc) {
                    return RangeOutcome::Unsat(format!("{attr} = {eq} above upper bound {hi}"));
                }
            }
        }
    }

    // Rebuild: keep only the tightest atoms for attrs with multiple
    // numeric comparisons.
    let multi: Vec<&String> = numeric_compare_count
        .iter()
        .filter(|(_, c)| **c > 1)
        .map(|(a, _)| a)
        .collect();
    if multi.is_empty() {
        return RangeOutcome::Nothing;
    }
    let before = atoms.len();
    let mut rebuilt: Vec<Atom> = Vec::with_capacity(atoms.len());
    let mut emitted: HashMap<String, bool> = HashMap::new();
    for atom in atoms.iter() {
        match atom {
            Atom::Compare { attr, op, value }
                if literal_num(value).is_some()
                    && multi.contains(&attr)
                    && !matches!(op, CompareOp::Ne) =>
            {
                if emitted.insert(attr.clone(), true).is_none() {
                    let r = &ranges[attr];
                    if let Some(eq) = r.eq {
                        rebuilt.push(Atom::Compare {
                            attr: attr.clone(),
                            op: CompareOp::Eq,
                            value: Literal::Float(eq),
                        });
                    } else {
                        if let Some((lo, inc)) = r.lo {
                            rebuilt.push(Atom::Compare {
                                attr: attr.clone(),
                                op: if inc { CompareOp::Ge } else { CompareOp::Gt },
                                value: Literal::Float(lo),
                            });
                        }
                        if let Some((hi, inc)) = r.hi {
                            rebuilt.push(Atom::Compare {
                                attr: attr.clone(),
                                op: if inc { CompareOp::Le } else { CompareOp::Lt },
                                value: Literal::Float(hi),
                            });
                        }
                    }
                }
            }
            other => rebuilt.push(other.clone()),
        }
    }
    let merged = before.saturating_sub(rebuilt.len());
    *atoms = rebuilt;
    if merged > 0 {
        RangeOutcome::Merged(merged)
    } else {
        RangeOutcome::Nothing
    }
}

/// Drop concept atoms implied by a more specific one on the same attr.
fn collapse_subsumed(atoms: &mut Vec<Atom>, ctx: &SemanticContext<'_>) -> usize {
    let concepts: Vec<(usize, String, String)> = atoms
        .iter()
        .enumerate()
        .filter_map(|(i, a)| match a {
            Atom::IsConcept { attr, concept } => Some((i, attr.clone(), concept.clone())),
            _ => None,
        })
        .collect();
    let mut drop = Vec::new();
    for (i, attr_i, c_i) in &concepts {
        for (j, attr_j, c_j) in &concepts {
            if i == j || attr_i != attr_j || drop.contains(i) || drop.contains(j) {
                continue;
            }
            let (Ok(ci), Ok(cj)) = (
                ctx.ontology.find_concept(c_i),
                ctx.ontology.find_concept(c_j),
            ) else {
                continue;
            };
            // c_i ⊑ c_j and distinct ⇒ the broader c_j is redundant.
            if ci != cj && ctx.taxonomy.subsumes(cj, ci) {
                drop.push(*j);
            }
        }
    }
    drop.sort_unstable();
    drop.dedup();
    for &idx in drop.iter().rev() {
        atoms.remove(idx);
    }
    drop.len()
}

/// Find a pair of disjoint concept atoms on the same attribute.
fn find_disjoint_pair(atoms: &[Atom], ctx: &SemanticContext<'_>) -> Option<(String, String)> {
    let concepts: Vec<(&String, &String)> = atoms
        .iter()
        .filter_map(|a| match a {
            Atom::IsConcept { attr, concept } => Some((attr, concept)),
            _ => None,
        })
        .collect();
    for (i, (attr_i, c_i)) in concepts.iter().enumerate() {
        for (attr_j, c_j) in &concepts[i + 1..] {
            if attr_i != attr_j {
                continue;
            }
            let (Ok(ci), Ok(cj)) = (
                ctx.ontology.find_concept(c_i),
                ctx.ontology.find_concept(c_j),
            ) else {
                continue;
            };
            if ctx.taxonomy.are_disjoint(ci, cj) {
                return Some((c_i.to_string(), c_j.to_string()));
            }
        }
    }
    None
}

/// Estimate an atom's selectivity in `[0, 1]`.
pub fn estimate_selectivity(
    atom: &Atom,
    semantic: Option<&SemanticContext<'_>>,
    stats: Option<&HashMap<String, AttrStatistics>>,
) -> f64 {
    match atom {
        Atom::Compare { attr, op, value } => {
            let s = stats.and_then(|m| m.get(attr));
            match (op, s) {
                (CompareOp::Eq, Some(s)) => s.selectivity_eq(&value.to_value()).clamp(0.0, 1.0),
                (CompareOp::Ne, Some(s)) => {
                    (1.0 - s.selectivity_eq(&value.to_value())).clamp(0.0, 1.0)
                }
                (CompareOp::Lt | CompareOp::Le, Some(s)) => {
                    match (&s.histogram, literal_num(value)) {
                        (Some(h), Some(v)) => h.selectivity_le(v),
                        _ => 0.33,
                    }
                }
                (CompareOp::Gt | CompareOp::Ge, Some(s)) => {
                    match (&s.histogram, literal_num(value)) {
                        (Some(h), Some(v)) => (1.0 - h.selectivity_le(v)).max(0.0),
                        _ => 0.33,
                    }
                }
                (CompareOp::Eq, None) => 0.1,
                (CompareOp::Ne, None) => 0.9,
                _ => 0.33,
            }
        }
        Atom::CloseTo {
            attr,
            center,
            width,
        } => {
            // Treat as the range [center−width, center+width].
            let s = stats.and_then(|m| m.get(attr));
            match s.and_then(|s| s.histogram.as_ref()) {
                Some(h) => h.selectivity_range(center - width, center + width),
                None => 0.2,
            }
        }
        Atom::IsConcept { concept, .. } => {
            // Semantic selectivity: members(C) / members(⊤). This is the
            // OS.3 trick — statistics derived from the TBox+ABox, not the
            // column data.
            match semantic {
                Some(ctx) => match (ctx.saturation, ctx.ontology.find_concept(concept)) {
                    (Some(sat), Ok(c)) => {
                        let members = sat.members(c).len() as f64;
                        let total = (0..ctx.taxonomy.concept_count())
                            .map(|i| sat.members(scdb_types::ConceptId(i as u32)).len())
                            .max()
                            .unwrap_or(0)
                            .max(1) as f64;
                        (members / total).clamp(0.001, 1.0)
                    }
                    _ => 0.25,
                },
                None => 0.25,
            }
        }
        Atom::HasSome { .. } => 0.5,
        Atom::ModelAtom { threshold, .. } => (1.0 - threshold).clamp(0.05, 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::LogicalPlan;
    use scdb_types::{Confidence, EntityId};

    fn semantic_fixture() -> (Ontology, Taxonomy, Saturation) {
        let mut o = Ontology::new();
        o.subclass("Neoplasms", "Disease");
        o.subclass("Osteosarcoma", "Neoplasms");
        o.subclass("JointDisease", "Disease");
        o.disjoint("Neoplasms", "JointDisease");
        let osteo = o.find_concept("Osteosarcoma").unwrap();
        let disease = o.find_concept("Disease").unwrap();
        o.assert_type(EntityId(0), osteo, Confidence::CERTAIN);
        for i in 1..10 {
            o.assert_type(EntityId(i), disease, Confidence::CERTAIN);
        }
        let sat = scdb_semantic::Reasoner::new().saturate(&o);
        let tax = Taxonomy::build(&o);
        (o, tax, sat)
    }

    fn optimize(sql: &str, cfg: OptimizerConfig) -> LogicalPlan {
        let (o, tax, sat) = semantic_fixture();
        let ctx = SemanticContext {
            ontology: &o,
            taxonomy: &tax,
            saturation: Some(&sat),
        };
        let q = parse(sql).unwrap();
        let plan = LogicalPlan::from_query(&q);
        Optimizer::new(cfg).optimize(plan, Some(&ctx), None, 1000)
    }

    #[test]
    fn duplicates_dropped() {
        let p = optimize(
            "SELECT * FROM t WHERE a = 1 AND a = 1",
            OptimizerConfig::default(),
        );
        assert_eq!(p.filter_atoms().len(), 1);
        assert!(p.rewrites.iter().any(|r| r.contains("duplicate")));
    }

    #[test]
    fn ranges_merged() {
        let p = optimize(
            "SELECT * FROM t WHERE a > 3 AND a > 5 AND a < 100",
            OptimizerConfig::default(),
        );
        // a > 5 AND a < 100 remain.
        assert_eq!(p.filter_atoms().len(), 2);
        assert!(!p.empty);
        assert!(p.rewrites.iter().any(|r| r.contains("merged")));
    }

    #[test]
    fn contradictory_equalities_unsat() {
        let p = optimize(
            "SELECT * FROM t WHERE a = 1 AND a = 2",
            OptimizerConfig::default(),
        );
        assert!(p.empty);
        assert_eq!(p.estimated_rows, Some(0.0));
    }

    #[test]
    fn empty_range_unsat() {
        let p = optimize(
            "SELECT * FROM t WHERE a > 5 AND a < 3",
            OptimizerConfig::default(),
        );
        assert!(p.empty);
        let p = optimize(
            "SELECT * FROM t WHERE a >= 5 AND a < 5",
            OptimizerConfig::default(),
        );
        assert!(p.empty);
        // Touching inclusive bounds are satisfiable.
        let p = optimize(
            "SELECT * FROM t WHERE a >= 5 AND a <= 5",
            OptimizerConfig::default(),
        );
        assert!(!p.empty);
    }

    #[test]
    fn eq_outside_range_unsat() {
        let p = optimize(
            "SELECT * FROM t WHERE a = 10 AND a < 5",
            OptimizerConfig::default(),
        );
        assert!(p.empty);
    }

    #[test]
    fn subsumption_collapse() {
        let p = optimize(
            "SELECT * FROM t WHERE x IS 'Osteosarcoma' AND x IS 'Disease'",
            OptimizerConfig::default(),
        );
        let atoms = p.filter_atoms();
        assert_eq!(atoms.len(), 1, "broader Disease atom dropped: {atoms:?}");
        assert!(matches!(
            &atoms[0],
            Atom::IsConcept { concept, .. } if concept == "Osteosarcoma"
        ));
    }

    #[test]
    fn disjointness_unsat() {
        let p = optimize(
            "SELECT * FROM t WHERE x IS 'Neoplasms' AND x IS 'JointDisease'",
            OptimizerConfig::default(),
        );
        assert!(p.empty);
        assert!(p.rewrites.iter().any(|r| r.contains("disjoint")));
    }

    #[test]
    fn disjointness_on_different_attrs_is_fine() {
        let p = optimize(
            "SELECT * FROM t WHERE x IS 'Neoplasms' AND y IS 'JointDisease'",
            OptimizerConfig::default(),
        );
        assert!(!p.empty);
    }

    #[test]
    fn disabled_config_does_nothing() {
        let p = optimize(
            "SELECT * FROM t WHERE a = 1 AND a = 2 AND x IS 'Neoplasms' AND x IS 'JointDisease'",
            OptimizerConfig::disabled(),
        );
        assert!(!p.empty);
        assert_eq!(p.filter_atoms().len(), 4);
        assert!(p.rewrites.is_empty());
    }

    #[test]
    fn semantic_selectivity_orders_specific_concept_first() {
        let p = optimize(
            "SELECT * FROM t WHERE x IS 'Disease' AND x IS 'Osteosarcoma' AND y HAS SOME r",
            OptimizerConfig {
                collapse_subsumed: false, // keep both to observe ordering
                ..OptimizerConfig::default()
            },
        );
        let atoms = p.filter_atoms();
        assert!(
            matches!(
                &atoms[0],
                Atom::IsConcept { concept, .. } if concept == "Osteosarcoma"
            ),
            "most selective first: {atoms:?}"
        );
    }

    #[test]
    fn cardinality_estimate_scales_with_base() {
        let p = optimize("SELECT * FROM t WHERE a = 1", OptimizerConfig::default());
        let rows = p.estimated_rows.unwrap();
        assert!(rows > 0.0 && rows < 1000.0);
    }

    fn index_fixture() -> (HashMap<String, AttrStatistics>, Vec<IndexDef>) {
        let mut stats = HashMap::new();
        // `name`: 1000 distinct values — equality is highly selective.
        let mut name = AttrStatistics::new(16, 4096);
        for i in 0..1000 {
            name.observe(&scdb_types::Value::str(format!("r{i}")));
        }
        stats.insert("name".to_string(), name);
        // `category`: one value covers 60% of rows.
        let mut cat = AttrStatistics::new(16, 4096);
        for i in 0..1000 {
            cat.observe(&scdb_types::Value::str(if i % 5 < 3 {
                "hot"
            } else {
                "cold"
            }));
        }
        stats.insert("category".to_string(), cat);
        // `score`: uniform numeric 0..1000. The incremental histogram
        // seeds its range from the first value, so give it the settled
        // full-range histogram an ANALYZE pass would produce.
        let mut score = AttrStatistics::new(16, 4096);
        for i in 0..1000 {
            score.observe(&scdb_types::Value::Float(i as f64));
        }
        score.histogram =
            scdb_storage::stats::Histogram::from_values((0..1000).map(|i| i as f64), 32);
        stats.insert("score".to_string(), score);
        let indexes = vec![
            IndexDef {
                name: "ix_name".into(),
                source: "t".into(),
                attr: "name".into(),
                kind: IndexKind::Hash,
            },
            IndexDef {
                name: "ix_cat".into(),
                source: "t".into(),
                attr: "category".into(),
                kind: IndexKind::Hash,
            },
            IndexDef {
                name: "ix_score".into(),
                source: "t".into(),
                attr: "score".into(),
                kind: IndexKind::Ordered,
            },
        ];
        (stats, indexes)
    }

    fn optimize_indexed(sql: &str, cfg: OptimizerConfig) -> LogicalPlan {
        let (stats, indexes) = index_fixture();
        let q = parse(sql).unwrap();
        let plan = LogicalPlan::from_query(&q);
        Optimizer::new(cfg).optimize_with_indexes(plan, None, Some(&stats), 1000, &indexes)
    }

    #[test]
    fn selective_equality_chooses_index_scan() {
        let p = optimize_indexed(
            "SELECT * FROM t WHERE name = 'r42'",
            OptimizerConfig::default(),
        );
        assert!(
            matches!(&p.nodes[0], PlanNode::IndexScan { index, .. } if index == "ix_name"),
            "expected index scan: {p}"
        );
        assert!(p.rewrites.iter().any(|r| r.contains("index_scan")));
        // The driving atom stays in the filter (residual re-check).
        assert_eq!(p.filter_atoms().len(), 1);
    }

    #[test]
    fn non_selective_equality_keeps_scan() {
        let p = optimize_indexed(
            "SELECT * FROM t WHERE category = 'hot'",
            OptimizerConfig::default(),
        );
        assert!(
            matches!(&p.nodes[0], PlanNode::Scan { .. }),
            "60% selectivity must not use the index: {p}"
        );
        assert!(
            p.rewrites.iter().any(|r| r.contains("access path: scan")),
            "rejection surfaced in EXPLAIN: {:?}",
            p.rewrites
        );
    }

    #[test]
    fn range_uses_ordered_index_only() {
        let p = optimize_indexed(
            "SELECT * FROM t WHERE score < 100.0",
            OptimizerConfig::default(),
        );
        assert!(
            matches!(&p.nodes[0], PlanNode::IndexScan { index, .. } if index == "ix_score"),
            "selective range rides the ordered index: {p}"
        );
        // A range over the hash-indexed attr cannot use it: no access-path
        // candidate at all, so no decision line either.
        let p = optimize_indexed(
            "SELECT * FROM t WHERE name > 'r5'",
            OptimizerConfig::default(),
        );
        assert!(matches!(&p.nodes[0], PlanNode::Scan { .. }));
        assert!(!p.rewrites.iter().any(|r| r.contains("access path")));
    }

    #[test]
    fn most_selective_indexable_atom_wins() {
        let p = optimize_indexed(
            "SELECT * FROM t WHERE category = 'hot' AND name = 'r42'",
            OptimizerConfig::default(),
        );
        assert!(
            matches!(&p.nodes[0], PlanNode::IndexScan { index, .. } if index == "ix_name"),
            "name (1/1000) beats category (0.6): {p}"
        );
    }

    #[test]
    fn index_scan_disabled_by_config_and_empty_metadata() {
        let p = optimize_indexed(
            "SELECT * FROM t WHERE name = 'r42'",
            OptimizerConfig {
                use_index_scan: false,
                ..OptimizerConfig::default()
            },
        );
        assert!(matches!(&p.nodes[0], PlanNode::Scan { .. }));
        // No index metadata: plain optimize() never switches access path.
        let (stats, _) = index_fixture();
        let q = parse("SELECT * FROM t WHERE name = 'r42'").unwrap();
        let p = Optimizer::new(OptimizerConfig::default()).optimize(
            LogicalPlan::from_query(&q),
            None,
            Some(&stats),
            1000,
        );
        assert!(matches!(&p.nodes[0], PlanNode::Scan { .. }));
    }

    #[test]
    fn foreign_source_indexes_ignored() {
        let (stats, mut indexes) = index_fixture();
        for d in &mut indexes {
            d.source = "other".into();
        }
        let q = parse("SELECT * FROM t WHERE name = 'r42'").unwrap();
        let p = Optimizer::new(OptimizerConfig::default()).optimize_with_indexes(
            LogicalPlan::from_query(&q),
            None,
            Some(&stats),
            1000,
            &indexes,
        );
        assert!(matches!(&p.nodes[0], PlanNode::Scan { .. }));
    }
}
