//! FS.6 — context-aware query refinement as a random walk.
//!
//! "Is it possible to formulate the discovery and refinement process as a
//! random walk problem, where the initial seeds or the probability of each
//! step taken is driven by query predicates and/or query partial results?"
//! (FS.6). Yes: [`discover`] runs a random walk **with restart** whose
//! restart set is the entities matched by the query's predicates; visit
//! frequency ranks discovered entities by contextual relevance. The
//! uniform-seed walk is the FS.6 baseline the experiment compares against.
//!
//! Discovered entities are turned back into executable ScQL — the
//! "automatically refined queries" of §4.1 ("Is Warfarin sensitive to
//! ethnic background?"-style follow-ups become `SELECT … WHERE attr =
//! '<discovered>'`).

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scdb_graph::PropertyGraph;
use scdb_types::EntityId;

use crate::ast::{Atom, CompareOp, Literal, Query};

/// Walk parameters.
#[derive(Debug, Clone)]
pub struct RefineConfig {
    /// Total steps across all walkers.
    pub steps: usize,
    /// Probability of restarting at a seed each step.
    pub restart: f64,
    /// Keep the top-k discoveries.
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            steps: 10_000,
            restart: 0.15,
            top_k: 20,
            seed: 21,
        }
    }
}

/// A discovered entity with its relevance score.
#[derive(Debug, Clone, PartialEq)]
pub struct Discovery {
    /// The entity.
    pub entity: EntityId,
    /// Normalized visit frequency in `[0, 1]`.
    pub score: f64,
}

/// Random walk with restart from `seeds`. Returns the top-k non-seed
/// entities by visit frequency.
pub fn discover(
    graph: &PropertyGraph,
    seeds: &[EntityId],
    config: &RefineConfig,
) -> Vec<Discovery> {
    let seeds: Vec<EntityId> = seeds
        .iter()
        .copied()
        .filter(|e| graph.contains(*e))
        .collect();
    if seeds.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut visits: HashMap<EntityId, u64> = HashMap::new();
    let mut current = seeds[0];
    for _ in 0..config.steps {
        if rng.gen_bool(config.restart.clamp(0.0, 1.0)) {
            current = seeds[rng.gen_range(0..seeds.len())];
        }
        // Step over outgoing edges; fall back to incoming so the walk is
        // not trapped by edge direction; restart at dead ends.
        let out = graph.edges(current);
        if !out.is_empty() {
            current = out[rng.gen_range(0..out.len())].to;
        } else {
            let inc = graph.incoming(current);
            if !inc.is_empty() {
                current = inc[rng.gen_range(0..inc.len())].0;
            } else {
                current = seeds[rng.gen_range(0..seeds.len())];
                continue;
            }
        }
        *visits.entry(current).or_insert(0) += 1;
    }
    rank(visits, &seeds, config.top_k)
}

/// The FS.6 baseline: a walk restarting uniformly over *all* vertices —
/// discovery with no query context.
pub fn discover_uniform(graph: &PropertyGraph, config: &RefineConfig) -> Vec<Discovery> {
    let all: Vec<EntityId> = {
        let mut v: Vec<EntityId> = graph.node_ids().collect();
        v.sort();
        v
    };
    if all.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut visits: HashMap<EntityId, u64> = HashMap::new();
    let mut current = all[0];
    for _ in 0..config.steps {
        if rng.gen_bool(config.restart.clamp(0.0, 1.0)) {
            current = all[rng.gen_range(0..all.len())];
        }
        let out = graph.edges(current);
        if !out.is_empty() {
            current = out[rng.gen_range(0..out.len())].to;
        } else {
            current = all[rng.gen_range(0..all.len())];
            continue;
        }
        *visits.entry(current).or_insert(0) += 1;
    }
    rank(visits, &[], config.top_k)
}

fn rank(visits: HashMap<EntityId, u64>, exclude: &[EntityId], top_k: usize) -> Vec<Discovery> {
    let max = visits.values().copied().max().unwrap_or(1).max(1) as f64;
    let mut out: Vec<Discovery> = visits
        .into_iter()
        .filter(|(e, _)| !exclude.contains(e))
        .map(|(entity, v)| Discovery {
            entity,
            score: v as f64 / max,
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.entity.cmp(&b.entity))
    });
    out.truncate(top_k);
    out
}

/// Generate refined follow-up queries from discoveries: for each
/// discovered entity that `name_of` names, emit a query probing that
/// name through `name_attr` in the original source.
pub fn refine_queries(
    original: &Query,
    discoveries: &[Discovery],
    name_attr: &str,
    name_of: impl Fn(EntityId) -> Option<String>,
) -> Vec<Query> {
    discoveries
        .iter()
        .filter_map(|d| {
            let name = name_of(d.entity)?;
            Some(Query {
                select: original.select.clone(),
                from: original.from.clone(),
                atoms: vec![Atom::Compare {
                    attr: name_attr.to_string(),
                    op: CompareOp::Eq,
                    value: Literal::Str(name),
                }],
                limit: original.limit,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_graph::graph::test_provenance;
    use scdb_types::{Symbol, SymbolTable};

    /// Two clusters bridged by one edge; seeds in cluster A.
    fn two_clusters() -> (PropertyGraph, Symbol) {
        let mut syms = SymbolTable::new();
        let r = syms.intern("r");
        let mut g = PropertyGraph::new();
        for i in 0..20 {
            g.ensure_node(EntityId(i));
        }
        // Cluster A: 0..10 ring; Cluster B: 10..20 ring; bridge 9→10.
        for i in 0..10 {
            g.add_edge(
                EntityId(i),
                EntityId((i + 1) % 10),
                r,
                test_provenance(0, 0),
            )
            .unwrap();
        }
        for i in 10..20 {
            g.add_edge(
                EntityId(i),
                EntityId(10 + (i + 1 - 10) % 10),
                r,
                test_provenance(0, 0),
            )
            .unwrap();
        }
        g.add_edge(EntityId(9), EntityId(10), r, test_provenance(0, 0))
            .unwrap();
        (g, r)
    }

    #[test]
    fn seeded_walk_stays_near_context() {
        let (g, _) = two_clusters();
        let cfg = RefineConfig {
            steps: 20_000,
            ..Default::default()
        };
        let found = discover(&g, &[EntityId(0)], &cfg);
        assert!(!found.is_empty());
        // Mass should concentrate in cluster A (ids < 10).
        let near: f64 = found
            .iter()
            .filter(|d| d.entity.0 < 10)
            .map(|d| d.score)
            .sum();
        let far: f64 = found
            .iter()
            .filter(|d| d.entity.0 >= 10)
            .map(|d| d.score)
            .sum();
        assert!(near > far, "context bias: near {near} vs far {far}");
    }

    #[test]
    fn uniform_walk_spreads() {
        let (g, _) = two_clusters();
        let cfg = RefineConfig {
            steps: 20_000,
            top_k: 20,
            ..Default::default()
        };
        let found = discover_uniform(&g, &cfg);
        let near = found.iter().filter(|d| d.entity.0 < 10).count();
        let far = found.iter().filter(|d| d.entity.0 >= 10).count();
        assert!(near > 0 && far > 0, "uniform covers both clusters");
    }

    #[test]
    fn deterministic_given_seed() {
        let (g, _) = two_clusters();
        let cfg = RefineConfig::default();
        assert_eq!(
            discover(&g, &[EntityId(3)], &cfg),
            discover(&g, &[EntityId(3)], &cfg)
        );
    }

    #[test]
    fn missing_seeds_yield_nothing() {
        let (g, _) = two_clusters();
        assert!(discover(&g, &[EntityId(999)], &RefineConfig::default()).is_empty());
        assert!(discover(&g, &[], &RefineConfig::default()).is_empty());
    }

    #[test]
    fn top_k_respected() {
        let (g, _) = two_clusters();
        let cfg = RefineConfig {
            top_k: 3,
            ..Default::default()
        };
        assert!(discover(&g, &[EntityId(0)], &cfg).len() <= 3);
    }

    #[test]
    fn refined_queries_probe_discovered_names() {
        let name_of = |e: EntityId| (e == EntityId(1)).then(|| "Gene-1".to_string());
        let original =
            crate::parser::parse("SELECT * FROM src WHERE name = 'seed' LIMIT 5").unwrap();
        let discoveries = vec![
            Discovery {
                entity: EntityId(1),
                score: 1.0,
            },
            Discovery {
                entity: EntityId(2), // no name attr → skipped
                score: 0.5,
            },
        ];
        let refined = refine_queries(&original, &discoveries, "name", name_of);
        assert_eq!(refined.len(), 1);
        assert_eq!(refined[0].from, "src");
        assert_eq!(refined[0].limit, Some(5));
        assert!(refined[0].to_string().contains("Gene-1"));
    }
}
