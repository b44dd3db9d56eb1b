//! The mutable property graph over resolved entities.
//!
//! Nodes are [`EntityId`]s carrying the source records they were resolved
//! from (whose values, held by the instance layer, are their attributes);
//! edges are *roles* (named semantic properties, e.g. `has_target`) with
//! [`Provenance`]. The graph is the update-friendly half of the OS.2
//! answer — traversal-heavy workloads compile it into a
//! [`CsrSnapshot`](crate::csr::CsrSnapshot).

use std::collections::HashMap;

use scdb_types::{Confidence, EntityId, Provenance, RecordId, Symbol};

use crate::error::GraphError;

/// A directed, labelled edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Target entity.
    pub to: EntityId,
    /// Role (property) label.
    pub role: Symbol,
    /// Where this link came from (a record, an ER decision, an inference).
    pub provenance: Provenance,
}

/// One node: the records resolved into this entity, and its edges both
/// ways (private, so that an edge is always on both endpoints' lists).
#[derive(Debug, Clone, Default)]
pub struct NodeData {
    /// Source records fused into this entity (FS.1 output); a merge
    /// appends the absorbed node's after the survivor's.
    pub records: Vec<RecordId>,
    out: Vec<Edge>,
    incoming: Vec<(EntityId, Symbol)>,
}

/// A mutable, provenance-carrying property graph.
#[derive(Debug, Default)]
pub struct PropertyGraph {
    nodes: HashMap<EntityId, NodeData>,
    edge_count: usize,
}

impl PropertyGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or get) a node.
    pub fn ensure_node(&mut self, id: EntityId) -> &mut NodeData {
        self.nodes.entry(id).or_default()
    }

    /// True when the node exists.
    pub fn contains(&self, id: EntityId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Node payload.
    pub fn node(&self, id: EntityId) -> Result<&NodeData, GraphError> {
        self.nodes.get(&id).ok_or(GraphError::NoSuchEntity(id))
    }

    /// Add a directed edge. Both endpoints must exist. Duplicate
    /// `(from, to, role)` edges are refreshed (provenance replaced) rather
    /// than duplicated — re-curation must be idempotent.
    pub fn add_edge(
        &mut self,
        from: EntityId,
        to: EntityId,
        role: Symbol,
        provenance: Provenance,
    ) -> Result<bool, GraphError> {
        if !self.nodes.contains_key(&from) {
            return Err(GraphError::MissingEndpoint(from));
        }
        if !self.nodes.contains_key(&to) {
            return Err(GraphError::MissingEndpoint(to));
        }
        let edges = &mut self.nodes.get_mut(&from).expect("checked").out;
        if let Some(e) = edges.iter_mut().find(|e| e.to == to && e.role == role) {
            e.provenance = provenance;
            return Ok(false);
        }
        edges.push(Edge {
            to,
            role,
            provenance,
        });
        let incoming = &mut self.nodes.get_mut(&to).expect("checked").incoming;
        incoming.push((from, role));
        self.edge_count += 1;
        Ok(true)
    }

    /// Remove an edge; returns whether it existed.
    pub fn remove_edge(&mut self, from: EntityId, to: EntityId, role: Symbol) -> bool {
        let Some(node) = self.nodes.get_mut(&from) else {
            return false;
        };
        let before = node.out.len();
        node.out.retain(|e| !(e.to == to && e.role == role));
        let removed = node.out.len() < before;
        if removed {
            self.edge_count -= 1;
            if let Some(target) = self.nodes.get_mut(&to) {
                target.incoming.retain(|(f, r)| !(*f == from && *r == role));
            }
        }
        removed
    }

    /// Outgoing edges of a node (empty slice if absent).
    pub fn edges(&self, id: EntityId) -> &[Edge] {
        self.nodes.get(&id).map_or(&[], |n| n.out.as_slice())
    }

    /// Incoming `(source, role)` pairs of a node.
    pub fn incoming(&self, id: EntityId) -> &[(EntityId, Symbol)] {
        self.nodes.get(&id).map_or(&[], |n| n.incoming.as_slice())
    }

    /// Outgoing neighbors via a specific role.
    pub fn neighbors_via(&self, id: EntityId, role: Symbol) -> impl Iterator<Item = EntityId> + '_ {
        self.edges(id)
            .iter()
            .filter(move |e| e.role == role)
            .map(|e| e.to)
    }

    /// All node ids (arbitrary order).
    pub fn node_ids(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.nodes.keys().copied()
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Out-degree of a node.
    pub fn degree(&self, id: EntityId) -> usize {
        self.edges(id).len()
    }

    /// Merge node `src` into `dst`: records and edges are transferred;
    /// `src` is removed. Used when incremental ER discovers two entities
    /// are the same (FS.1).
    pub fn merge_nodes(&mut self, dst: EntityId, src: EntityId) -> Result<(), GraphError> {
        if dst == src {
            return Ok(());
        }
        if !self.nodes.contains_key(&dst) {
            return Err(GraphError::NoSuchEntity(dst));
        }
        let src_node = self
            .nodes
            .remove(&src)
            .ok_or(GraphError::NoSuchEntity(src))?;
        let mut incoming = src_node.incoming;
        let records = &mut self.nodes.get_mut(&dst).expect("checked").records;
        records.extend(src_node.records);
        // Outgoing edges of src → dst.
        for e in src_node.out {
            self.edge_count -= 1;
            // A self-loop's target is src itself, already out of the map.
            let target = match self.nodes.get_mut(&e.to) {
                Some(node) => &mut node.incoming,
                None => &mut incoming,
            };
            target.retain(|(f, r)| !(*f == src && *r == e.role));
            if e.to != dst {
                let _ = self.add_edge(dst, e.to, e.role, e.provenance);
            }
        }
        // Incoming edges of src: re-point to dst.
        for (from, role) in incoming {
            if let Some(node) = self.nodes.get_mut(&from) {
                let mut prov = None;
                let before = node.out.len();
                node.out.retain(|e| {
                    if e.to == src && e.role == role {
                        prov = Some(e.provenance.clone());
                        false
                    } else {
                        true
                    }
                });
                self.edge_count -= before - node.out.len();
                if let Some(p) = prov {
                    if from != dst {
                        let _ = self.add_edge(from, dst, role, p);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience to build a [`Provenance`] for tests and examples.
pub fn test_provenance(source: u32, tick: u64) -> Provenance {
    Provenance::inferred(scdb_types::SourceId(source), Confidence::CERTAIN, tick)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::SymbolTable;

    fn setup() -> (PropertyGraph, SymbolTable, Symbol) {
        let mut syms = SymbolTable::new();
        let targets = syms.intern("has_target");
        let mut g = PropertyGraph::new();
        for i in 0..5 {
            g.ensure_node(EntityId(i));
        }
        (g, syms, targets)
    }

    #[test]
    fn add_edge_requires_endpoints() {
        let (mut g, _s, role) = setup();
        assert!(g
            .add_edge(EntityId(0), EntityId(99), role, test_provenance(0, 0))
            .is_err());
        assert!(g
            .add_edge(EntityId(99), EntityId(0), role, test_provenance(0, 0))
            .is_err());
        assert!(g
            .add_edge(EntityId(0), EntityId(1), role, test_provenance(0, 0))
            .unwrap());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicate_edge_refreshes_not_duplicates() {
        let (mut g, _s, role) = setup();
        assert!(g
            .add_edge(EntityId(0), EntityId(1), role, test_provenance(0, 1))
            .unwrap());
        assert!(!g
            .add_edge(EntityId(0), EntityId(1), role, test_provenance(0, 2))
            .unwrap());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges(EntityId(0))[0].provenance.tick, 2);
    }

    #[test]
    fn remove_edge_updates_both_sides() {
        let (mut g, _s, role) = setup();
        g.add_edge(EntityId(0), EntityId(1), role, test_provenance(0, 0))
            .unwrap();
        assert!(g.remove_edge(EntityId(0), EntityId(1), role));
        assert!(!g.remove_edge(EntityId(0), EntityId(1), role));
        assert_eq!(g.edge_count(), 0);
        assert!(g.incoming(EntityId(1)).is_empty());
    }

    #[test]
    fn neighbors_via_filters_roles() {
        let (mut g, mut syms, role) = setup();
        let other = syms.intern("treats");
        g.add_edge(EntityId(0), EntityId(1), role, test_provenance(0, 0))
            .unwrap();
        g.add_edge(EntityId(0), EntityId(2), other, test_provenance(0, 0))
            .unwrap();
        let via: Vec<_> = g.neighbors_via(EntityId(0), role).collect();
        assert_eq!(via, vec![EntityId(1)]);
    }

    #[test]
    fn merge_transfers_edges_and_records() {
        let (mut g, _s, role) = setup();
        g.add_edge(EntityId(1), EntityId(2), role, test_provenance(0, 0))
            .unwrap();
        g.add_edge(EntityId(3), EntityId(1), role, test_provenance(0, 0))
            .unwrap();
        g.ensure_node(EntityId(1))
            .records
            .push(RecordId::new(scdb_types::SourceId(0), 7));
        // Merge 1 into 0.
        g.merge_nodes(EntityId(0), EntityId(1)).unwrap();
        assert!(!g.contains(EntityId(1)));
        let out: Vec<_> = g.neighbors_via(EntityId(0), role).collect();
        assert_eq!(out, vec![EntityId(2)]);
        let in3: Vec<_> = g.neighbors_via(EntityId(3), role).collect();
        assert_eq!(in3, vec![EntityId(0)]);
        assert_eq!(g.node(EntityId(0)).unwrap().records.len(), 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn merge_drops_self_loops() {
        let (mut g, _s, role) = setup();
        g.add_edge(EntityId(0), EntityId(1), role, test_provenance(0, 0))
            .unwrap();
        g.merge_nodes(EntityId(0), EntityId(1)).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert!(g.edges(EntityId(0)).is_empty());
    }

    #[test]
    fn merge_same_node_is_noop() {
        let (mut g, _s, _r) = setup();
        g.merge_nodes(EntityId(0), EntityId(0)).unwrap();
        assert!(g.contains(EntityId(0)));
    }
}
