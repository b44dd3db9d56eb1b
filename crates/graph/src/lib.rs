//! Relation layer of the `scdb` self-curating database (paper §3.2).
//!
//! The relation layer is the "horizontal expansion of data to formulate and
//! capture the interconnectedness of data instances within and across data
//! sources". This crate provides:
//!
//! * [`PropertyGraph`] — a mutable, provenance-carrying graph over resolved
//!   entities, whose edges are *roles* (semantic properties) linking
//!   entities, and whose nodes carry the records they were resolved from;
//! * [`csr`] — **OS.2**: immutable CSR snapshots with locality-aware vertex
//!   ordering (BFS / reverse Cuthill–McKee / degree), answering "what is an
//!   optimal representation that provides efficient locality-aware
//!   [multi-hop] traversal … and is update-friendly?" — updates hit the
//!   mutable graph, traversals hit the compiled snapshot;
//! * [`traverse`] — k-hop expansion, shortest paths, and role-filtered path
//!   enumeration, with page-touch accounting mirroring the storage layer;
//! * [`metrics`] — **FS.2**: formalisms to "assess and measure the richness
//!   of each data source based on the connectivity and density":
//!   density, degree entropy, information content, clustering coefficient,
//!   component structure, and a composite richness score.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod error;
pub mod graph;
pub mod metrics;
pub mod order;
pub mod traverse;

pub use csr::CsrSnapshot;
pub use error::GraphError;
pub use graph::{Edge, NodeData, PropertyGraph};
pub use metrics::RichnessReport;
pub use order::VertexOrdering;
