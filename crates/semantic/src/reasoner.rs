//! Rule-based saturation over the ontology.
//!
//! The reasoner computes the deductive closure of the ABox under the EL⁺
//! rule set, tracking a confidence for every derived fact (conjunctive
//! derivations multiply confidences — the product t-norm, consistent with
//! [`Confidence::and`]):
//!
//! | rule | reading |
//! |------|---------|
//! | R⊑   | `a:C`, `C ⊑ D` ⇒ `a:D` |
//! | R⊓   | `a:C₁ … a:Cₙ`, `C₁⊓…⊓Cₙ ⊑ D` ⇒ `a:D` |
//! | R∃⁻  | `R(a,b)`, `b:C`, `∃R.C ⊑ D` ⇒ `a:D` |
//! | R∃⁺  | `a:C`, `C ⊑ ∃R.D` ⇒ existential witness `(a, R, D)` |
//! | RH   | `R(a,b)`, `R ⊑ P` ⇒ `P(a,b)` |
//! | RT   | `Trans(R)`, `R(a,b)`, `R(b,c)` ⇒ `R(a,c)` |
//! | RD/RR| domain/range typing |
//! | R⊥   | `a:C`, `a:D`, `Disjoint(C,D)` ⇒ inconsistency |
//!
//! R∃⁺ deliberately does **not** invent anonymous individuals (that is what
//! makes the fragment terminate); instead it records an
//! [`InferredExistential`] — exactly the paper's "a self-curating database
//! could infer that Acetaminophen has a target, even if the specific
//! relation has yet to be discovered" (§3.3).

use std::collections::HashMap;

use scdb_types::{ConceptId, Confidence, EntityId, RoleId};

use crate::ontology::{Axiom, Concept, Ontology};

/// A derived "a has some R-filler of type C" fact with no named witness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InferredExistential {
    /// The individual.
    pub entity: EntityId,
    /// The role.
    pub role: RoleId,
    /// The filler concept.
    pub filler: ConceptId,
}

/// A detected disjointness violation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Inconsistency {
    /// The individual asserted into both classes.
    pub entity: EntityId,
    /// First concept.
    pub a: ConceptId,
    /// Second (disjoint) concept.
    pub b: ConceptId,
}

/// The saturated consequence set.
#[derive(Debug, Default)]
pub struct Saturation {
    /// entity → concept → confidence of the strongest derivation.
    types: HashMap<EntityId, HashMap<ConceptId, Confidence>>,
    /// role → (from, to) → confidence.
    roles: HashMap<RoleId, HashMap<(EntityId, EntityId), Confidence>>,
    /// Existential witnesses.
    existentials: Vec<InferredExistential>,
    /// Disjointness violations.
    inconsistencies: Vec<Inconsistency>,
    /// Facts derived (not counting told assertions).
    derived_count: u64,
    /// Saturation rounds until fixpoint.
    rounds: u32,
    /// Lookup lists built once the fixpoint is reached.
    postings: Postings,
}

/// Sorted entity lists materialized at the end of
/// [`Reasoner::saturate`], so that membership and "has some filler" are a
/// binary search instead of a walk over every typed entity or every
/// role pair.
#[derive(Debug, Default)]
struct Postings {
    /// Concept index → the concept's members, ascending.
    members: Vec<Vec<EntityId>>,
    /// Role index → the entities with a named filler (told or derived
    /// pair) or an existential witness for the role, ascending.
    subjects: Vec<Vec<EntityId>>,
}

impl Postings {
    fn build(sat: &Saturation) -> Postings {
        fn push(lists: &mut Vec<Vec<EntityId>>, i: usize, e: EntityId) {
            if lists.len() <= i {
                lists.resize_with(i + 1, Vec::new);
            }
            lists[i].push(e);
        }
        let mut members = Vec::new();
        for (e, concepts) in &sat.types {
            for c in concepts.keys() {
                push(&mut members, c.index(), *e);
            }
        }
        let mut subjects = Vec::new();
        for (r, pairs) in &sat.roles {
            for (from, _) in pairs.keys() {
                push(&mut subjects, r.index(), *from);
            }
        }
        for w in &sat.existentials {
            push(&mut subjects, w.role.index(), w.entity);
        }
        for list in members.iter_mut().chain(&mut subjects) {
            list.sort_unstable();
            list.dedup();
        }
        Postings { members, subjects }
    }
}

fn posting(lists: &[Vec<EntityId>], i: usize) -> &[EntityId] {
    lists.get(i).map_or(&[], Vec::as_slice)
}

impl Saturation {
    /// Confidence with which `entity : concept` holds (told or derived).
    pub fn type_confidence(&self, entity: EntityId, concept: ConceptId) -> Option<Confidence> {
        self.types.get(&entity)?.get(&concept).copied()
    }

    /// True when `entity : concept` is entailed.
    pub fn has_type(&self, entity: EntityId, concept: ConceptId) -> bool {
        self.members(concept).binary_search(&entity).is_ok()
    }

    /// The entities entailed to be members of `concept`, ascending —
    /// [`Saturation::members_of`] without the confidences, precomputed.
    pub fn members(&self, concept: ConceptId) -> &[EntityId] {
        posting(&self.postings.members, concept.index())
    }

    /// The entities with *some* `role` filler, ascending: a named one
    /// (told or derived pair) or an existential witness.
    pub fn role_subjects(&self, role: RoleId) -> &[EntityId] {
        posting(&self.postings.subjects, role.index())
    }

    /// All concepts of an entity.
    pub fn types_of(&self, entity: EntityId) -> impl Iterator<Item = (ConceptId, Confidence)> + '_ {
        self.types
            .get(&entity)
            .into_iter()
            .flat_map(|m| m.iter().map(|(c, conf)| (*c, *conf)))
    }

    /// All entities entailed to be members of `concept`.
    pub fn members_of(&self, concept: ConceptId) -> Vec<(EntityId, Confidence)> {
        let mut v: Vec<(EntityId, Confidence)> = self
            .types
            .iter()
            .filter_map(|(e, m)| m.get(&concept).map(|c| (*e, *c)))
            .collect();
        v.sort_by_key(|(e, _)| *e);
        v
    }

    /// Confidence of `role(from, to)`.
    pub fn role_confidence(
        &self,
        role: RoleId,
        from: EntityId,
        to: EntityId,
    ) -> Option<Confidence> {
        self.roles.get(&role)?.get(&(from, to)).copied()
    }

    /// All pairs of a role.
    pub fn role_pairs(&self, role: RoleId) -> Vec<((EntityId, EntityId), Confidence)> {
        let mut v: Vec<_> = self
            .roles
            .get(&role)
            .into_iter()
            .flat_map(|m| m.iter().map(|(p, c)| (*p, *c)))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// Objects of `role` from `from`.
    pub fn fillers(&self, role: RoleId, from: EntityId) -> Vec<EntityId> {
        let mut v: Vec<EntityId> = self
            .roles
            .get(&role)
            .into_iter()
            .flat_map(|m| m.keys())
            .filter(|(f, _)| *f == from)
            .map(|(_, t)| *t)
            .collect();
        v.sort();
        v
    }

    /// Existential witnesses (deduplicated).
    pub fn existentials(&self) -> &[InferredExistential] {
        &self.existentials
    }

    /// True when `entity` is entailed to have *some* `role` filler of type
    /// `filler` — either a named one or an existential witness.
    pub fn has_some(&self, entity: EntityId, role: RoleId, filler: ConceptId) -> bool {
        if self.role_subjects(role).binary_search(&entity).is_err() {
            return false;
        }
        // Witnesses are sorted by (entity, role, filler) at the fixpoint.
        self.existentials
            .binary_search_by_key(&(entity, role, filler), |e| (e.entity, e.role, e.filler))
            .is_ok()
            || self
                .fillers(role, entity)
                .iter()
                .any(|t| self.has_type(*t, filler))
    }

    /// Disjointness violations found.
    pub fn inconsistencies(&self) -> &[Inconsistency] {
        &self.inconsistencies
    }

    /// True when no disjointness violation was derived.
    pub fn is_consistent(&self) -> bool {
        self.inconsistencies.is_empty()
    }

    /// Number of derived (non-told) facts.
    pub fn derived_count(&self) -> u64 {
        self.derived_count
    }

    /// Fixpoint rounds.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    fn add_type(&mut self, e: EntityId, c: ConceptId, conf: Confidence, told: bool) -> bool {
        let slot = self.types.entry(e).or_default();
        match slot.get_mut(&c) {
            Some(existing) => {
                if conf > *existing {
                    *existing = conf;
                    true
                } else {
                    false
                }
            }
            None => {
                slot.insert(c, conf);
                if !told {
                    self.derived_count += 1;
                }
                true
            }
        }
    }

    fn add_role(
        &mut self,
        r: RoleId,
        from: EntityId,
        to: EntityId,
        conf: Confidence,
        told: bool,
    ) -> bool {
        let slot = self.roles.entry(r).or_default();
        match slot.get_mut(&(from, to)) {
            Some(existing) => {
                if conf > *existing {
                    *existing = conf;
                    true
                } else {
                    false
                }
            }
            None => {
                slot.insert((from, to), conf);
                if !told {
                    self.derived_count += 1;
                }
                true
            }
        }
    }
}

/// The saturation engine.
#[derive(Debug, Default)]
pub struct Reasoner {
    /// Cap on fixpoint rounds as a runaway guard; the rule set is monotone
    /// over a finite universe so this should never bind in practice.
    pub max_rounds: u32,
}

impl Reasoner {
    /// Reasoner with the default round cap.
    pub fn new() -> Self {
        Reasoner { max_rounds: 10_000 }
    }

    /// Saturate `ontology`'s ABox under its TBox/RBox.
    pub fn saturate(&self, ontology: &Ontology) -> Saturation {
        let mut sat = Saturation::default();
        for t in ontology.type_assertions() {
            sat.add_type(t.entity, t.concept, t.confidence, true);
        }
        for r in ontology.role_assertions() {
            sat.add_role(r.role, r.from, r.to, r.confidence, true);
        }

        let axioms = ontology.axioms();
        let mut changed = true;
        while changed && sat.rounds < self.max_rounds {
            changed = false;
            sat.rounds += 1;

            for axiom in axioms {
                match axiom {
                    Axiom::Subclass(sub, sup) => {
                        let members: Vec<(EntityId, Confidence)> = sat.members_of(*sub);
                        match sup {
                            Concept::Top => {}
                            Concept::Named(d) => {
                                for (e, conf) in members {
                                    changed |= sat.add_type(e, *d, conf, false);
                                }
                            }
                            Concept::And(cs) => {
                                for (e, conf) in members {
                                    for d in cs {
                                        changed |= sat.add_type(e, *d, conf, false);
                                    }
                                }
                            }
                            Concept::Exists(role, filler) => {
                                for (e, _conf) in members {
                                    let wit = InferredExistential {
                                        entity: e,
                                        role: *role,
                                        filler: *filler,
                                    };
                                    if !sat.existentials.contains(&wit) {
                                        sat.existentials.push(wit);
                                        sat.derived_count += 1;
                                        changed = true;
                                    }
                                }
                            }
                        }
                    }
                    Axiom::ConjunctionSubclass(parts, d) => {
                        if parts.is_empty() {
                            continue;
                        }
                        // Entities in all parts; confidence = product.
                        let first = sat.members_of(parts[0]);
                        for (e, mut conf) in first {
                            let mut all = true;
                            for p in &parts[1..] {
                                match sat.type_confidence(e, *p) {
                                    Some(c) => conf = conf.and(c),
                                    None => {
                                        all = false;
                                        break;
                                    }
                                }
                            }
                            if all {
                                changed |= sat.add_type(e, *d, conf, false);
                            }
                        }
                    }
                    Axiom::ExistsSubclass(role, filler, d) => {
                        let pairs = sat.role_pairs(*role);
                        for ((from, to), rconf) in pairs {
                            if let Some(tconf) = sat.type_confidence(to, *filler) {
                                changed |= sat.add_type(from, *d, rconf.and(tconf), false);
                            }
                        }
                    }
                    Axiom::Disjoint(a, b) => {
                        for (e, _) in sat.members_of(*a) {
                            // The postings do not exist before the fixpoint.
                            if sat.type_confidence(e, *b).is_some() {
                                let inc = Inconsistency {
                                    entity: e,
                                    a: *a,
                                    b: *b,
                                };
                                if !sat.inconsistencies.contains(&inc) {
                                    sat.inconsistencies.push(inc);
                                    changed = true;
                                }
                            }
                        }
                    }
                    Axiom::Subrole(sub, sup) => {
                        for ((from, to), conf) in sat.role_pairs(*sub) {
                            changed |= sat.add_role(*sup, from, to, conf, false);
                        }
                    }
                    Axiom::Transitive(role) => {
                        let pairs = sat.role_pairs(*role);
                        let mut by_from: HashMap<EntityId, Vec<(EntityId, Confidence)>> =
                            HashMap::new();
                        for ((from, to), conf) in &pairs {
                            by_from.entry(*from).or_default().push((*to, *conf));
                        }
                        for ((a, b), c1) in &pairs {
                            if let Some(next) = by_from.get(b) {
                                for (c, c2) in next.clone() {
                                    if *a != c {
                                        changed |= sat.add_role(*role, *a, c, c1.and(c2), false);
                                    }
                                }
                            }
                        }
                    }
                    Axiom::Domain(role, c) => {
                        for ((from, _to), conf) in sat.role_pairs(*role) {
                            changed |= sat.add_type(from, *c, conf, false);
                        }
                    }
                    Axiom::Range(role, c) => {
                        for ((_from, to), conf) in sat.role_pairs(*role) {
                            changed |= sat.add_type(to, *c, conf, false);
                        }
                    }
                }
            }
        }
        sat.existentials
            .sort_by_key(|e| (e.entity, e.role, e.filler));
        sat.postings = Postings::build(&sat);
        sat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn fig2_ontology() -> (Ontology, EntityId, EntityId, EntityId) {
        let mut o = Ontology::new();
        // Taxonomy from Figure 2.
        o.subclass("Neoplasms", "Disease");
        o.subclass("Sarcoma", "Neoplasms");
        o.subclass("Osteosarcoma", "Sarcoma");
        o.subclass("ApprovedDrug", "Drug");
        // Drug ⊑ ∃has_target.Gene — the Acetaminophen inference.
        o.subclass_exists("Drug", "has_target", "Gene");
        let acetaminophen = EntityId(1);
        let methotrexate = EntityId(2);
        let dhfr = EntityId(3);
        let drug = o.concept("Drug");
        let approved = o.concept("ApprovedDrug");
        let gene = o.concept("Gene");
        let target = o.find_role("has_target").unwrap();
        o.assert_type(acetaminophen, drug, Confidence::CERTAIN);
        o.assert_type(methotrexate, approved, Confidence::CERTAIN);
        o.assert_type(dhfr, gene, Confidence::CERTAIN);
        o.assert_role(methotrexate, target, dhfr, Confidence::CERTAIN);
        (o, acetaminophen, methotrexate, dhfr)
    }

    #[test]
    fn acetaminophen_has_some_target() {
        let (o, acetaminophen, methotrexate, _dhfr) = fig2_ontology();
        let sat = Reasoner::new().saturate(&o);
        let gene = o.find_concept("Gene").unwrap();
        let target = o.find_role("has_target").unwrap();
        // No named target asserted for acetaminophen, yet ∃ is entailed.
        assert!(sat.fillers(target, acetaminophen).is_empty());
        assert!(sat.has_some(acetaminophen, target, gene));
        // Methotrexate has a *named* filler, so has_some holds too.
        assert!(sat.has_some(methotrexate, target, gene));
    }

    #[test]
    fn subclass_chain_propagates_types() {
        let mut o = Ontology::new();
        o.subclass("Osteosarcoma", "Sarcoma");
        o.subclass("Sarcoma", "Neoplasms");
        o.subclass("Neoplasms", "Disease");
        let osteo = o.find_concept("Osteosarcoma").unwrap();
        let disease = o.find_concept("Disease").unwrap();
        o.assert_type(EntityId(7), osteo, Confidence::CERTAIN);
        let sat = Reasoner::new().saturate(&o);
        assert!(sat.has_type(EntityId(7), disease));
        assert!(sat.derived_count() >= 3);
    }

    #[test]
    fn approved_drug_inherits_existential() {
        let (o, _a, methotrexate, _d) = fig2_ontology();
        let sat = Reasoner::new().saturate(&o);
        let drug = o.find_concept("Drug").unwrap();
        assert!(sat.has_type(methotrexate, drug), "ApprovedDrug ⊑ Drug");
    }

    #[test]
    fn conjunction_rule() {
        let mut o = Ontology::new();
        let a = o.concept("Chemical");
        let b = o.concept("Therapeutic");
        let d = o.concept("Drug");
        o.add_axiom(Axiom::ConjunctionSubclass(vec![a, b], d));
        o.assert_type(EntityId(1), a, Confidence::new(0.9));
        o.assert_type(EntityId(1), b, Confidence::new(0.8));
        o.assert_type(EntityId(2), a, Confidence::CERTAIN);
        let sat = Reasoner::new().saturate(&o);
        let conf = sat.type_confidence(EntityId(1), d).unwrap();
        assert!((conf.value() - 0.72).abs() < 1e-9);
        assert!(!sat.has_type(EntityId(2), d));
    }

    #[test]
    fn exists_on_the_left() {
        let mut o = Ontology::new();
        let gene = o.concept("Gene");
        let agent = o.concept("ActiveAgent");
        let targets = o.role("has_target");
        o.add_axiom(Axiom::ExistsSubclass(targets, gene, agent));
        o.assert_type(EntityId(2), gene, Confidence::CERTAIN);
        o.assert_role(EntityId(1), targets, EntityId(2), Confidence::new(0.5));
        let sat = Reasoner::new().saturate(&o);
        let conf = sat.type_confidence(EntityId(1), agent).unwrap();
        assert!((conf.value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn role_hierarchy_and_transitivity() {
        let mut o = Ontology::new();
        let part = o.role("part_of");
        let located = o.role("located_in");
        o.add_axiom(Axiom::Subrole(part, located));
        o.add_axiom(Axiom::Transitive(part));
        o.assert_role(EntityId(1), part, EntityId(2), Confidence::CERTAIN);
        o.assert_role(EntityId(2), part, EntityId(3), Confidence::new(0.9));
        let sat = Reasoner::new().saturate(&o);
        // Transitivity: part_of(1,3).
        assert!(sat
            .role_confidence(part, EntityId(1), EntityId(3))
            .is_some());
        // Hierarchy: located_in(1,3) too.
        let c = sat
            .role_confidence(located, EntityId(1), EntityId(3))
            .unwrap();
        assert!((c.value() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn domain_and_range_typing() {
        let mut o = Ontology::new();
        let drug = o.concept("Drug");
        let gene = o.concept("Gene");
        let targets = o.role("has_target");
        o.add_axiom(Axiom::Domain(targets, drug));
        o.add_axiom(Axiom::Range(targets, gene));
        o.assert_role(EntityId(1), targets, EntityId(2), Confidence::CERTAIN);
        let sat = Reasoner::new().saturate(&o);
        assert!(sat.has_type(EntityId(1), drug));
        assert!(sat.has_type(EntityId(2), gene));
    }

    #[test]
    fn disjointness_detected_including_derived() {
        let mut o = Ontology::new();
        o.subclass("AsianPopulation", "Population");
        o.subclass("WhitePopulation", "Population");
        o.disjoint("AsianPopulation", "WhitePopulation");
        let asian = o.find_concept("AsianPopulation").unwrap();
        let white = o.find_concept("WhitePopulation").unwrap();
        o.assert_type(EntityId(5), asian, Confidence::CERTAIN);
        o.assert_type(EntityId(5), white, Confidence::CERTAIN);
        let sat = Reasoner::new().saturate(&o);
        assert!(!sat.is_consistent());
        assert_eq!(sat.inconsistencies()[0].entity, EntityId(5));
    }

    #[test]
    fn consistent_abox_reports_consistent() {
        let (o, ..) = fig2_ontology();
        let sat = Reasoner::new().saturate(&o);
        assert!(sat.is_consistent());
    }

    #[test]
    fn transitive_cycle_terminates() {
        let mut o = Ontology::new();
        let r = o.role("r");
        o.add_axiom(Axiom::Transitive(r));
        o.assert_role(EntityId(0), r, EntityId(1), Confidence::CERTAIN);
        o.assert_role(EntityId(1), r, EntityId(0), Confidence::CERTAIN);
        let sat = Reasoner::new().saturate(&o);
        assert!(sat.rounds() < 100);
        // Self-loops are skipped by the rule (a != c guard).
        assert!(sat.role_confidence(r, EntityId(0), EntityId(0)).is_none());
    }

    /// Random TBox/RBox/ABox over 6 concepts, 3 roles and 8 entities:
    /// subclass edges, `C ⊑ ∃R.D`, `∃R.C ⊑ D`, one transitive role,
    /// type and role assertions.
    fn random_ontology(
        subclass: &[(u32, u32)],
        exists: &[(u32, u32, u32)],
        typed: &[(u64, u32)],
        pairs: &[(u64, u32, u64)],
    ) -> Ontology {
        let mut o = Ontology::new();
        let c: Vec<ConceptId> = (0..6).map(|i| o.concept(&format!("C{i}"))).collect();
        let r: Vec<RoleId> = (0..3).map(|i| o.role(&format!("R{i}"))).collect();
        o.add_axiom(Axiom::Transitive(r[2]));
        for &(sub, sup) in subclass {
            o.add_axiom(Axiom::Subclass(
                c[sub as usize],
                Concept::Named(c[sup as usize]),
            ));
        }
        for &(sub, role, filler) in exists {
            let (sub, role, filler) = (c[sub as usize], r[role as usize], c[filler as usize]);
            o.add_axiom(Axiom::Subclass(sub, Concept::Exists(role, filler)));
            o.add_axiom(Axiom::ExistsSubclass(role, filler, sub));
        }
        for &(e, concept) in typed {
            o.assert_type(EntityId(e), c[concept as usize], Confidence::CERTAIN);
        }
        for &(from, role, to) in pairs {
            o.assert_role(
                EntityId(from),
                r[role as usize],
                EntityId(to),
                Confidence::new(0.5),
            );
        }
        o
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The postings answer exactly what the fact maps do: members
        /// are `members_of`, a role's subjects are the entities with a
        /// filler or a witness, and `has_type` / `has_some` agree with
        /// their definitions over the maps.
        #[test]
        fn postings_equal_the_fact_maps(
            subclass in vec((0u32..6, 0u32..6), 0..8),
            exists in vec((0u32..6, 0u32..3, 0u32..6), 0..3),
            typed in vec((0u64..8, 0u32..6), 0..10),
            pairs in vec((0u64..8, 0u32..3, 0u64..8), 0..10),
        ) {
            let o = random_ontology(&subclass, &exists, &typed, &pairs);
            let sat = Reasoner::new().saturate(&o);
            for c in (0..8).map(ConceptId) {
                let members: Vec<EntityId> = sat.members_of(c).into_iter().map(|(e, _)| e).collect();
                prop_assert_eq!(sat.members(c), &members[..]);
                for e in (0..9).map(EntityId) {
                    prop_assert_eq!(sat.has_type(e, c), sat.type_confidence(e, c).is_some());
                }
            }
            for r in (0..4).map(RoleId) {
                let subjects: Vec<EntityId> = (0..9)
                    .map(EntityId)
                    .filter(|&e| {
                        !sat.fillers(r, e).is_empty()
                            || sat.existentials().iter().any(|w| w.entity == e && w.role == r)
                    })
                    .collect();
                prop_assert_eq!(sat.role_subjects(r), &subjects[..]);
                for e in (0..9).map(EntityId) {
                    for c in (0..6).map(ConceptId) {
                        let named = sat
                            .fillers(r, e)
                            .iter()
                            .any(|t| sat.type_confidence(*t, c).is_some());
                        let witness = sat
                            .existentials()
                            .iter()
                            .any(|w| w.entity == e && w.role == r && w.filler == c);
                        prop_assert_eq!(sat.has_some(e, r, c), named || witness);
                    }
                }
            }
        }
    }

    #[test]
    fn postings_of_an_empty_saturation_are_empty() {
        let sat = Saturation::default();
        assert!(sat.members(ConceptId(3)).is_empty());
        assert!(sat.role_subjects(RoleId(1)).is_empty());
        assert!(!sat.has_type(EntityId(0), ConceptId(0)));
    }

    #[test]
    fn confidence_takes_strongest_derivation() {
        let mut o = Ontology::new();
        let a = o.concept("A");
        let b = o.concept("B");
        let d = o.concept("D");
        o.add_axiom(Axiom::Subclass(a, Concept::Named(d)));
        o.add_axiom(Axiom::Subclass(b, Concept::Named(d)));
        o.assert_type(EntityId(1), a, Confidence::new(0.4));
        o.assert_type(EntityId(1), b, Confidence::new(0.9));
        let sat = Reasoner::new().saturate(&o);
        assert!((sat.type_confidence(EntityId(1), d).unwrap().value() - 0.9).abs() < 1e-9);
    }
}
