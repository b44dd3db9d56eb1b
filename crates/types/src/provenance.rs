//! Provenance and confidence — the lineage carried by every curated fact.
//!
//! §4.2 of the paper argues that "sufficient semantics are needed to capture
//! the knowledge about the data premises (beyond today's lineage and
//! provenance information)". Our [`Provenance`] records the originating
//! source/record, a [`Confidence`] score, and the curation timestamp; the
//! parallel-world machinery in `scdb-uncertain` attaches per-source
//! *premises* on top of this.

use crate::ids::{RecordId, SourceId};

/// A confidence score in `[0, 1]`, clamped on construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Confidence(f64);

impl Confidence {
    /// Full certainty.
    pub const CERTAIN: Confidence = Confidence(1.0);

    /// Construct, clamping into `[0, 1]`; NaN maps to 0.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            Confidence(0.0)
        } else {
            Confidence(v.clamp(0.0, 1.0))
        }
    }

    /// The raw score.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Conjunction of independent evidence (product t-norm).
    pub fn and(self, other: Confidence) -> Confidence {
        Confidence(self.0 * other.0)
    }

    /// Disjunction of independent evidence (probabilistic sum).
    pub fn or(self, other: Confidence) -> Confidence {
        Confidence(self.0 + other.0 - self.0 * other.0)
    }

    /// True when at least `threshold`.
    pub fn meets(self, threshold: f64) -> bool {
        self.0 >= threshold
    }
}

impl Default for Confidence {
    fn default() -> Self {
        Confidence::CERTAIN
    }
}

impl Eq for Confidence {}

impl PartialOrd for Confidence {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Confidence {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The lineage of a curated fact: where it came from, how sure we are, and
/// when the curation step produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Source the fact was derived from.
    pub source: SourceId,
    /// The specific record, when the fact is record-derived; `None` for
    /// facts inferred at the semantic layer.
    pub record: Option<RecordId>,
    /// Confidence attached by the deriving step.
    pub confidence: Confidence,
    /// Logical curation timestamp (a monotonically increasing tick, not
    /// wall-clock, so runs are deterministic).
    pub tick: u64,
}

impl Provenance {
    /// Provenance for a fact read directly from a source record.
    pub fn from_record(record: RecordId, tick: u64) -> Self {
        Provenance {
            source: record.source,
            record: Some(record),
            confidence: Confidence::CERTAIN,
            tick,
        }
    }

    /// Provenance for a fact *inferred* (ER match, semantic inference, model
    /// prediction) rather than read.
    pub fn inferred(source: SourceId, confidence: Confidence, tick: u64) -> Self {
        Provenance {
            source,
            record: None,
            confidence,
            tick,
        }
    }

    /// True when the fact was inferred rather than read from a record.
    pub fn is_inferred(&self) -> bool {
        self.record.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_clamps() {
        assert_eq!(Confidence::new(1.5).value(), 1.0);
        assert_eq!(Confidence::new(-0.5).value(), 0.0);
        assert_eq!(Confidence::new(f64::NAN).value(), 0.0);
        assert_eq!(Confidence::new(0.25).value(), 0.25);
    }

    #[test]
    fn and_or_laws() {
        let a = Confidence::new(0.5);
        let b = Confidence::new(0.4);
        assert!((a.and(b).value() - 0.2).abs() < 1e-12);
        assert!((a.or(b).value() - 0.7).abs() < 1e-12);
        // Identity elements.
        assert_eq!(a.and(Confidence::CERTAIN), a);
        assert_eq!(a.or(Confidence::new(0.0)), a);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Confidence::new(0.9),
            Confidence::new(0.1),
            Confidence::new(0.5),
        ];
        v.sort();
        assert_eq!(v[0].value(), 0.1);
        assert_eq!(v[2].value(), 0.9);
    }

    #[test]
    fn provenance_kinds() {
        let rec = RecordId::new(SourceId(2), 7);
        let p = Provenance::from_record(rec, 1);
        assert!(!p.is_inferred());
        assert_eq!(p.source, SourceId(2));
        let q = Provenance::inferred(SourceId(2), Confidence::new(0.8), 2);
        assert!(q.is_inferred());
        assert!(q.confidence.meets(0.8));
        assert!(!q.confidence.meets(0.81));
    }
}
