//! Error type for the storage substrate.

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A lookup referenced an epoch that was never ingested.
    UnknownEpoch {
        /// The raw epoch id that was requested.
        epoch_id: u64,
    },
    /// A row id was out of bounds for the table it was used against.
    InvalidRowId {
        /// The offending row id.
        row_id: u64,
        /// Number of rows actually present.
        table_len: u64,
    },
    /// An attempt was made to replace an epoch with a segment of a different
    /// cardinality without explicitly allowing it.
    CardinalityMismatch {
        /// Rows previously stored for the epoch.
        expected: usize,
        /// Rows in the replacement segment.
        got: usize,
    },
    /// Duplicate key inserted into a unique index.
    DuplicateKey,
    /// Rows of several shapes met where one epoch's rows must share one:
    /// an epoch is a table of rows whose columns have the same widths (so
    /// fake rows cannot be told from real ones by length), and a §6
    /// replacement keeps its row's shape.
    RowShape,
    /// An I/O operation against a persistent backend failed.
    Io {
        /// What the store was doing (`"write segment"`, `"sync manifest"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: String,
        /// The underlying OS error, stringified (`std::io::Error` is not
        /// `Clone`/`PartialEq`, which this error type is).
        message: String,
    },
    /// On-disk data failed structural validation on open (a manifest whose
    /// checksum does not match, a segment naming collision, …). A torn
    /// *segment* is not an error — recovery drops its epoch; this variant
    /// covers damage recovery cannot safely interpret.
    Corrupt {
        /// The offending file.
        path: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// A manifest or a committed segment was written in an on-disk format
    /// this build no longer reads. Nothing under the root was changed;
    /// there is no in-place upgrade — re-ingest from the data provider.
    UnsupportedFormat {
        /// The offending file.
        path: String,
        /// The format magic it starts with (`CSG1`, `CMN2`, …).
        found: &'static str,
    },
    /// A write reached a backend opened in replica (read-only) mode. The
    /// writer process owns the store root; replicas only ever `refresh`
    /// from it until promoted.
    ReadOnly {
        /// The store root the replica follows.
        path: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnknownEpoch { epoch_id } => write!(f, "unknown epoch {epoch_id}"),
            StorageError::InvalidRowId { row_id, table_len } => {
                write!(f, "invalid row id {row_id} (table has {table_len} rows)")
            }
            StorageError::CardinalityMismatch { expected, got } => {
                write!(
                    f,
                    "cardinality mismatch: expected {expected} rows, got {got}"
                )
            }
            StorageError::DuplicateKey => write!(f, "duplicate key in unique index"),
            StorageError::RowShape => write!(f, "rows of several shapes in one epoch"),
            StorageError::Io { op, path, message } => {
                write!(f, "storage i/o failure during {op} on {path}: {message}")
            }
            StorageError::Corrupt { path, reason } => {
                write!(f, "corrupt storage file {path}: {reason}")
            }
            StorageError::UnsupportedFormat { path, found } => {
                write!(
                    f,
                    "storage file {path} is in format {found}, which this build does not read; \
                     re-ingest from the data provider"
                )
            }
            StorageError::ReadOnly { path } => {
                write!(
                    f,
                    "store {path} is open as a read-only replica; only the writer may mutate it"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(StorageError::UnknownEpoch { epoch_id: 9 }
            .to_string()
            .contains('9'));
        assert!(StorageError::InvalidRowId {
            row_id: 5,
            table_len: 2
        }
        .to_string()
        .contains('5'));
        assert!(StorageError::CardinalityMismatch {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("mismatch"));
        assert_eq!(
            StorageError::DuplicateKey.to_string(),
            "duplicate key in unique index"
        );
        assert!(StorageError::Io {
            op: "write segment",
            path: "/tmp/x".into(),
            message: "denied".into()
        }
        .to_string()
        .contains("write segment"));
        assert!(StorageError::Corrupt {
            path: "MANIFEST".into(),
            reason: "checksum mismatch"
        }
        .to_string()
        .contains("checksum mismatch"));
        assert!(StorageError::UnsupportedFormat {
            path: "MANIFEST".into(),
            found: "CMN2"
        }
        .to_string()
        .contains("format CMN2"));
        assert!(StorageError::ReadOnly {
            path: "/var/lib/concealer".into()
        }
        .to_string()
        .contains("read-only replica"));
    }
}
