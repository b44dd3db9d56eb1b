//! Shared fundamental types for the `scdb` self-curating database.
//!
//! The paper ("Self-Curating Databases", EDBT 2016) calls for a *holistic*
//! data model in which data and meta-data are unified and every data item
//! may be heterogeneous, noisy, or incomplete. This crate provides the
//! vocabulary shared by every layer of the system:
//!
//! * [`Value`] — a heterogeneous, totally ordered, hashable value type that
//!   spans the structured / semi-structured / unstructured spectrum of the
//!   instance layer (§3.1 of the paper);
//! * identifier newtypes ([`EntityId`], [`SourceId`], [`RecordId`], …) used
//!   to address data across layers;
//! * [`Symbol`] / [`SymbolTable`] — cheap interned strings for attribute
//!   names, concept names, and role names;
//! * [`Provenance`] — the source/confidence/time lineage every curated fact
//!   carries (a prerequisite for the parallel-worlds semantics of §4.2);
//! * [`Record`] — schema-flexible records, because a self-curating
//!   database "cannot assume that all data is in a relational model" (§5,
//!   deviation from the foundation rule).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ids;
pub mod json;
pub mod provenance;
pub mod record;
pub mod symbol;
pub mod value;

pub use error::TypeError;
pub use ids::{AttrId, ConceptId, EntityId, IdGen, RecordId, RoleId, SourceId, WorldId};
pub use provenance::{Confidence, Provenance};
pub use record::Record;
pub use symbol::{Symbol, SymbolTable};
pub use value::{Value, ValueKind};
