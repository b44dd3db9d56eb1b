//! Errors for the instance layer.

use std::fmt;

use scdb_types::RecordId;

/// Errors produced by instance-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The addressed record does not exist (never written).
    NoSuchRecord(RecordId),
    /// A record id referenced a different source than the store it was
    /// used against.
    WrongSource {
        /// Source the store manages.
        expected: scdb_types::SourceId,
        /// Source in the offending record id.
        got: scdb_types::SourceId,
    },
    /// Column build requested for an attribute with no observed values.
    EmptyColumn,
    /// A clustered layout was asked to place a record it does not cover.
    UnknownOffset(u64),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NoSuchRecord(id) => write!(f, "no such record: {id}"),
            StorageError::WrongSource { expected, got } => {
                write!(f, "record belongs to {got}, store manages {expected}")
            }
            StorageError::EmptyColumn => write!(f, "cannot build a column with no values"),
            StorageError::UnknownOffset(o) => write!(f, "offset {o} not covered by layout"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_types::SourceId;

    #[test]
    fn display() {
        let e = StorageError::NoSuchRecord(RecordId::new(SourceId(1), 2));
        assert_eq!(e.to_string(), "no such record: src1:2");
        let e = StorageError::WrongSource {
            expected: SourceId(0),
            got: SourceId(3),
        };
        assert!(e.to_string().contains("src3"));
    }
}
