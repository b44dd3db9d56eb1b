//! Concept-level taxonomy queries over the TBox.
//!
//! The semantic optimizer (OS.3) needs fast subsumption checks ("is
//! `Osteosarcoma ⊑ Disease`?"), ancestor/descendant enumeration for
//! predicate collapse, and concept information content for selectivity
//! inference. This module precomputes the reflexive–transitive closure of
//! told subsumptions between *named* concepts.

use std::collections::{HashMap, HashSet, VecDeque};

use scdb_types::ConceptId;

use crate::ontology::{Axiom, Concept, Ontology};
use crate::reasoner::Saturation;

/// Precomputed subsumption closure over named concepts.
#[derive(Debug)]
pub struct Taxonomy {
    /// concept → all (named) subsumers, including itself.
    ancestors: HashMap<ConceptId, HashSet<ConceptId>>,
    /// concept → all (named) subsumees, including itself.
    descendants: HashMap<ConceptId, HashSet<ConceptId>>,
    /// Disjoint named pairs (symmetric closure, lifted through
    /// descendants).
    disjoint: HashSet<(ConceptId, ConceptId)>,
    concept_count: usize,
}

impl Taxonomy {
    /// Build from an ontology's TBox.
    pub fn build(ontology: &Ontology) -> Self {
        let n = ontology.concept_count();
        // Direct edges sub → sup from named-to-named subsumptions.
        let mut direct: HashMap<ConceptId, Vec<ConceptId>> = HashMap::new();
        for axiom in ontology.axioms() {
            if let Axiom::Subclass(sub, Concept::Named(sup)) = axiom {
                direct.entry(*sub).or_default().push(*sup);
            }
            if let Axiom::Subclass(sub, Concept::And(sups)) = axiom {
                direct.entry(*sub).or_default().extend(sups.iter().copied());
            }
        }
        let mut ancestors: HashMap<ConceptId, HashSet<ConceptId>> = HashMap::new();
        let mut descendants: HashMap<ConceptId, HashSet<ConceptId>> = HashMap::new();
        for i in 0..n {
            let c = ConceptId(i as u32);
            // BFS up.
            let mut up = HashSet::new();
            up.insert(c);
            let mut q = VecDeque::from([c]);
            while let Some(x) = q.pop_front() {
                for sup in direct.get(&x).into_iter().flatten() {
                    if up.insert(*sup) {
                        q.push_back(*sup);
                    }
                }
            }
            for a in &up {
                descendants.entry(*a).or_default().insert(c);
            }
            ancestors.insert(c, up);
        }
        // Disjointness lifted: Disjoint(A,B) makes every (desc(A), desc(B))
        // pair disjoint.
        let mut disjoint = HashSet::new();
        for axiom in ontology.axioms() {
            if let Axiom::Disjoint(a, b) = axiom {
                let da = descendants.get(a).cloned().unwrap_or_default();
                let db = descendants.get(b).cloned().unwrap_or_default();
                for x in &da {
                    for y in &db {
                        disjoint.insert((*x, *y));
                        disjoint.insert((*y, *x));
                    }
                }
            }
        }
        Taxonomy {
            ancestors,
            descendants,
            disjoint,
            concept_count: n,
        }
    }

    /// True when `sub ⊑ sup` (reflexive).
    pub fn subsumes(&self, sup: ConceptId, sub: ConceptId) -> bool {
        self.ancestors.get(&sub).is_some_and(|a| a.contains(&sup))
    }

    /// All subsumers of `c`, including itself, sorted.
    pub fn ancestors(&self, c: ConceptId) -> Vec<ConceptId> {
        let mut v: Vec<ConceptId> = self
            .ancestors
            .get(&c)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        v.sort();
        v
    }

    /// All subsumees of `c`, including itself, sorted.
    pub fn descendants(&self, c: ConceptId) -> Vec<ConceptId> {
        let mut v: Vec<ConceptId> = self
            .descendants
            .get(&c)
            .into_iter()
            .flatten()
            .copied()
            .collect();
        v.sort();
        v
    }

    /// True when the two concepts are declared (or derived) disjoint.
    pub fn are_disjoint(&self, a: ConceptId, b: ConceptId) -> bool {
        self.disjoint.contains(&(a, b))
    }

    /// Least common subsumers: minimal concepts subsuming both `a` and
    /// `b` (there can be several in a DAG).
    pub fn least_common_subsumers(&self, a: ConceptId, b: ConceptId) -> Vec<ConceptId> {
        let ea = self.ancestors.get(&a).cloned().unwrap_or_default();
        let eb = self.ancestors.get(&b).cloned().unwrap_or_default();
        let common: HashSet<ConceptId> = ea.intersection(&eb).copied().collect();
        // Minimal: no other common ancestor strictly below it.
        let mut lcs: Vec<ConceptId> = common
            .iter()
            .filter(|c| !common.iter().any(|d| *d != **c && self.subsumes(**c, *d)))
            .copied()
            .collect();
        lcs.sort();
        lcs
    }

    /// Information content of a concept from instance counts in a
    /// saturation: `−log2(|members(C)| / |members(⊤)|)`. Rarer (more
    /// specific) concepts carry more information — the measure FS.2 names.
    pub fn information_content(&self, c: ConceptId, sat: &Saturation) -> f64 {
        let total: usize = (0..self.concept_count)
            .map(|i| sat.members(ConceptId(i as u32)).len())
            .max()
            .unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        let members = sat.members(c).len();
        if members == 0 {
            return (total as f64 + 1.0).log2(); // maximal: unseen concept
        }
        -(members as f64 / total as f64).log2()
    }

    /// Number of named concepts covered.
    pub fn concept_count(&self) -> usize {
        self.concept_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reasoner::Reasoner;
    use scdb_types::{Confidence, EntityId};

    fn medical() -> Ontology {
        let mut o = Ontology::new();
        o.subclass("Osteosarcoma", "Sarcoma");
        o.subclass("Sarcoma", "Neoplasms");
        o.subclass("Neoplasms", "Disease");
        o.subclass("Arthritis", "JointDisease");
        o.subclass("JointDisease", "Disease");
        o.disjoint("Neoplasms", "JointDisease");
        o
    }

    #[test]
    fn subsumption_closure() {
        let o = medical();
        let t = Taxonomy::build(&o);
        let osteo = o.find_concept("Osteosarcoma").unwrap();
        let disease = o.find_concept("Disease").unwrap();
        let arthritis = o.find_concept("Arthritis").unwrap();
        assert!(t.subsumes(disease, osteo));
        assert!(t.subsumes(osteo, osteo), "reflexive");
        assert!(!t.subsumes(osteo, disease));
        assert!(!t.subsumes(arthritis, osteo));
    }

    #[test]
    fn ancestors_and_descendants() {
        let o = medical();
        let t = Taxonomy::build(&o);
        let sarcoma = o.find_concept("Sarcoma").unwrap();
        let osteo = o.find_concept("Osteosarcoma").unwrap();
        let anc = t.ancestors(osteo);
        assert!(anc.contains(&sarcoma));
        assert_eq!(anc.len(), 4); // osteo, sarcoma, neoplasms, disease
        let desc = t.descendants(sarcoma);
        assert_eq!(
            desc,
            vec![osteo, sarcoma]
                .into_iter()
                .collect::<Vec<_>>()
                .tap_sorted()
        );
    }

    trait TapSorted {
        fn tap_sorted(self) -> Self;
    }
    impl TapSorted for Vec<ConceptId> {
        fn tap_sorted(mut self) -> Self {
            self.sort();
            self
        }
    }

    #[test]
    fn disjointness_lifts_to_subclasses() {
        let o = medical();
        let t = Taxonomy::build(&o);
        let osteo = o.find_concept("Osteosarcoma").unwrap();
        let arthritis = o.find_concept("Arthritis").unwrap();
        let disease = o.find_concept("Disease").unwrap();
        assert!(t.are_disjoint(osteo, arthritis));
        assert!(t.are_disjoint(arthritis, osteo), "symmetric");
        assert!(!t.are_disjoint(osteo, disease));
    }

    #[test]
    fn lcs_in_tree() {
        let o = medical();
        let t = Taxonomy::build(&o);
        let osteo = o.find_concept("Osteosarcoma").unwrap();
        let arthritis = o.find_concept("Arthritis").unwrap();
        let disease = o.find_concept("Disease").unwrap();
        assert_eq!(t.least_common_subsumers(osteo, arthritis), vec![disease]);
        // LCS with itself is itself.
        assert_eq!(t.least_common_subsumers(osteo, osteo), vec![osteo]);
    }

    #[test]
    fn information_content_orders_by_specificity() {
        let mut o = medical();
        let osteo = o.find_concept("Osteosarcoma").unwrap();
        let disease = o.find_concept("Disease").unwrap();
        // 1 osteosarcoma instance, several other diseases.
        o.assert_type(EntityId(0), osteo, Confidence::CERTAIN);
        for i in 1..8 {
            o.assert_type(EntityId(i), disease, Confidence::CERTAIN);
        }
        let sat = Reasoner::new().saturate(&o);
        let t = Taxonomy::build(&o);
        let ic_osteo = t.information_content(osteo, &sat);
        let ic_disease = t.information_content(disease, &sat);
        assert!(
            ic_osteo > ic_disease,
            "specific {ic_osteo} vs general {ic_disease}"
        );
    }

    #[test]
    fn empty_ontology() {
        let o = Ontology::new();
        let t = Taxonomy::build(&o);
        assert_eq!(t.concept_count(), 0);
        assert!(!t.subsumes(ConceptId(0), ConceptId(1)));
    }
}
