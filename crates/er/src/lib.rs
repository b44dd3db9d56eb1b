//! Continuous incremental entity resolution — FS.1 of the paper.
//!
//! "A self-curating database must adaptively manage instance relations in
//! light of new information. How does one adapt existing entity resolution
//! techniques so they work across different schemata without requiring
//! prior knowledge about external data sources…?" (FS.1). The paper is
//! explicit that "it is not wise to assume that as each source is added …
//! an all-to-all entity resolution is performed comprehensively across all
//! data sources" (§3.2).
//!
//! This crate answers with:
//!
//! * [`similarity`] — the classic string/record similarity toolbox
//!   (Levenshtein, Jaro–Winkler, token Jaccard, q-grams, TF cosine,
//!   numeric closeness);
//! * [`normalize`] — deterministic normalization shared by all metrics;
//! * [`align`] — *cross-schema attribute alignment without prior
//!   knowledge*: attribute pairs are scored from the data (value overlap,
//!   kind compatibility, name similarity), so `Drug Name` in one source
//!   aligns with `Drug` in another (Figure 2);
//! * [`blocking`] — candidate generation: standard key blocking and
//!   MinHash-LSH, ablated in experiment E-T1-FS1;
//! * [`incremental`] — the incremental resolver (union-find clusters,
//!   per-record candidate probing, exact pruning of candidates whose
//!   identity cannot reach the threshold, cached identity features) and
//!   the batch all-pairs baseline it is measured against;
//! * [`eval`] — pairwise precision/recall/F1 against ground truth.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
#[cfg(test)]
mod arbitrary;
pub mod blocking;
pub mod eval;
mod features;
pub mod incremental;
pub mod normalize;
pub mod similarity;

pub use align::{AlignmentMap, SchemaAligner};
pub use blocking::{Blocker, BlockingStrategy};
pub use eval::{score_pairs, PairScore};
pub use incremental::{BatchResolver, IncrementalResolver, MergeEvent, ResolverConfig};
pub use similarity::record_similarity;
