//! Instance layer of the `scdb` self-curating database (paper §3.1).
//!
//! The instance layer stores raw data "spanning both structured and
//! unstructured" forms. This crate provides:
//!
//! * [`RowStore`] — an append-only, schema-flexible record store;
//! * [`mod@column`] — columnar segments with lightweight compression
//!   (dictionary, run-length, delta), because "analytical workloads benefit
//!   greatly from a columnar decomposition" (§3.1);
//! * [`cluster`] — **OS.1**: dynamic, instance-level fine-grained
//!   clustering driven by observed co-access, with a page/line-touch model
//!   standing in for hardware cache-locality counters (see DESIGN.md
//!   substitutions);
//! * [`text`] — a token-indexed text/blob store for the unstructured end of
//!   the spectrum;
//! * [`stats`] — per-attribute statistics (histograms, common values,
//!   value kinds) learned from every appended row: the one profile of a
//!   source's attributes, read by the cost-based side of the query
//!   optimizer (OS.3) and the §5 Codd report;
//! * [`mod@index`] — secondary hash / ordered indexes over attribute
//!   values, the optimizer's alternative access path to a full scan.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod column;
pub mod error;
pub mod index;
pub mod page;
pub mod row;
pub mod stats;
pub mod text;

pub use cluster::{ClusteredLayout, CoAccessTracker};
pub use column::{ColumnSegment, Encoding};
pub use error::StorageError;
pub use index::{IndexDef, IndexKind, IndexPredicate, IndexSet, SecondaryIndex};
pub use page::{PageConfig, PageMap, TouchCounter};
pub use row::RowStore;
pub use stats::{AttrStatistics, Histogram};
pub use text::TextStore;
