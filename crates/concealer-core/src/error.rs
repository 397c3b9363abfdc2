//! Error type for the Concealer core library.

use std::fmt;

/// Errors raised by the Concealer core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A record's attributes did not match the configured grid shape.
    SchemaMismatch {
        /// What was expected.
        expected: usize,
        /// What the record carried.
        got: usize,
    },
    /// A record's timestamp fell outside its epoch window.
    TimeOutOfEpoch {
        /// The record timestamp.
        time: u64,
        /// Epoch start.
        epoch_start: u64,
        /// Epoch end (exclusive).
        epoch_end: u64,
    },
    /// The query referenced an epoch (time range) for which no data was
    /// ingested.
    NoDataForRange,
    /// Integrity verification failed: the fetched tuples do not match the
    /// data provider's verifiable tags, or the store returned a row none
    /// of the issued trapdoors asked for.
    IntegrityViolation {
        /// Which cell-id failed verification (for an unasked-for row, the
        /// first cell-id of the fetch it came back in).
        cell_id: u32,
    },
    /// The query predicate is incompatible with the aggregate (for example a
    /// top-k over a point predicate).
    InvalidQuery {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Metadata vectors shipped by the data provider could not be decoded.
    CorruptMetadata,
    /// A deployment was configured inconsistently (builder misuse, bad
    /// environment hook value, …).
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// Error from the cryptographic substrate.
    Crypto(concealer_crypto::CryptoError),
    /// Error from the storage substrate.
    Storage(concealer_storage::StorageError),
    /// Error from the enclave (authentication / authorization).
    Enclave(concealer_enclave::EnclaveError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::SchemaMismatch { expected, got } => {
                write!(
                    f,
                    "schema mismatch: expected {expected} grid attributes, got {got}"
                )
            }
            CoreError::TimeOutOfEpoch {
                time,
                epoch_start,
                epoch_end,
            } => write!(
                f,
                "timestamp {time} outside epoch window [{epoch_start}, {epoch_end})"
            ),
            CoreError::NoDataForRange => write!(f, "no ingested epoch overlaps the queried range"),
            CoreError::IntegrityViolation { cell_id } => {
                write!(f, "integrity verification failed for cell-id {cell_id}")
            }
            CoreError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            CoreError::CorruptMetadata => write!(f, "corrupt epoch metadata"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::Crypto(e) => write!(f, "crypto error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
            CoreError::Enclave(e) => write!(f, "enclave error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<concealer_crypto::CryptoError> for CoreError {
    fn from(e: concealer_crypto::CryptoError) -> Self {
        CoreError::Crypto(e)
    }
}

impl From<concealer_storage::StorageError> for CoreError {
    fn from(e: concealer_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<concealer_enclave::EnclaveError> for CoreError {
    fn from(e: concealer_enclave::EnclaveError) -> Self {
        CoreError::Enclave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CoreError::SchemaMismatch {
            expected: 2,
            got: 3
        }
        .to_string()
        .contains('3'));
        assert!(CoreError::NoDataForRange
            .to_string()
            .contains("no ingested epoch"));
        assert!(CoreError::IntegrityViolation { cell_id: 4 }
            .to_string()
            .contains('4'));
        assert!(CoreError::InvalidConfig {
            reason: "bad backend".into()
        }
        .to_string()
        .contains("bad backend"));
        let e: CoreError = concealer_storage::StorageError::DuplicateKey.into();
        assert!(e.to_string().contains("storage error"));
        let e: CoreError = concealer_crypto::CryptoError::AuthenticationFailed.into();
        assert!(e.to_string().contains("crypto error"));
        let e: CoreError = concealer_enclave::EnclaveError::UnknownUser.into();
        assert!(e.to_string().contains("enclave error"));
    }
}
