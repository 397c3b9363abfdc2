//! Wire-facing error mapping.
//!
//! [`concealer_core::CoreError`] carries nested crate error types and
//! `&'static str` reasons that cannot (and should not) cross the wire
//! verbatim — the reply a client sees is a stable `(code, message)` pair
//! instead: the [`ErrorCode`] is machine-matchable and versioned with the
//! protocol, the message is human-readable context. Mapping is lossy by
//! design; nothing enclave-internal (key material, row contents, storage
//! paths) ever appears in a reply.

use concealer_core::CoreError;
use serde::{Deserialize, Serialize};

/// Machine-matchable error category carried by every error reply.
///
/// Declaration order is part of the wire format — append, never reorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// A frame's payload did not decode as a protocol message.
    MalformedFrame,
    /// A frame exceeded the server's size limit (the frame was discarded;
    /// the connection survives).
    FrameTooLarge,
    /// The client's protocol version is not supported.
    UnsupportedVersion,
    /// A request arrived before a successful `Hello`.
    NotAuthenticated,
    /// The message violated the connection state machine (e.g. a second
    /// `Hello`, or a reserved request id).
    ProtocolViolation,
    /// The hello credential did not authenticate.
    AuthFailed,
    /// The authenticated user is not authorized for the requested scope.
    Unauthorized,
    /// An `ExecuteBatch` exceeded the server's batch-size cap.
    BatchTooLarge,
    /// The server is at its connection cap; retry later.
    Busy,
    /// The server is shutting down and no longer serves requests.
    ShuttingDown,
    /// The query was structurally invalid.
    InvalidQuery,
    /// No ingested epoch overlaps the queried range.
    NoDataForRange,
    /// Integrity verification failed — the service provider's storage was
    /// tampered with. Surfaced to the client because detection is the
    /// whole point of the verification protocol.
    IntegrityViolation,
    /// A record's attributes did not match the configured grid.
    SchemaMismatch,
    /// An ingested record's timestamp fell outside its epoch window.
    TimeOutOfEpoch,
    /// Epoch metadata failed to decode (wrong master key or corruption).
    CorruptMetadata,
    /// The deployment is misconfigured for the request.
    InvalidConfig,
    /// A cryptographic operation failed.
    Crypto,
    /// The storage substrate failed.
    Storage,
    /// The enclave refused the operation.
    Enclave,
    /// Anything the mapping does not classify more precisely.
    Internal,
    /// A router could not reach the shard that owns part of the request's
    /// epoch slice (connect/read timeout, refused connection, or the shard
    /// is in reconnect backoff). The request may be retried; other slices
    /// keep serving.
    ShardUnavailable,
    /// An ingest (or §6 rewrite) reached a read-only replica. Only the
    /// replica set's writer mutates the shared store root; retry against
    /// the writer, or promote this member first.
    NotWriter,
    /// The attestation exchange failed: a `Hello` arrived on a
    /// connection that never completed a successful `Attest`, or a router
    /// could not gather a single quote from its upstreams. Clients also
    /// raise this code locally when a received quote fails their trust
    /// policy — in every case the connection is not safe for credentials.
    AttestationFailed,
}

impl ErrorCode {
    /// Stable lower-snake-case name (used in logs and load-test output).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed_frame",
            ErrorCode::FrameTooLarge => "frame_too_large",
            ErrorCode::UnsupportedVersion => "unsupported_version",
            ErrorCode::NotAuthenticated => "not_authenticated",
            ErrorCode::ProtocolViolation => "protocol_violation",
            ErrorCode::AuthFailed => "auth_failed",
            ErrorCode::Unauthorized => "unauthorized",
            ErrorCode::BatchTooLarge => "batch_too_large",
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::InvalidQuery => "invalid_query",
            ErrorCode::NoDataForRange => "no_data_for_range",
            ErrorCode::IntegrityViolation => "integrity_violation",
            ErrorCode::SchemaMismatch => "schema_mismatch",
            ErrorCode::TimeOutOfEpoch => "time_out_of_epoch",
            ErrorCode::CorruptMetadata => "corrupt_metadata",
            ErrorCode::InvalidConfig => "invalid_config",
            ErrorCode::Crypto => "crypto",
            ErrorCode::Storage => "storage",
            ErrorCode::Enclave => "enclave",
            ErrorCode::Internal => "internal",
            ErrorCode::ShardUnavailable => "shard_unavailable",
            ErrorCode::NotWriter => "not_writer",
            ErrorCode::AttestationFailed => "attestation_failed",
        }
    }
}

/// The error payload of a `Response::Error` reply (and of failed entries
/// in a batch reply).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-matchable category.
    pub code: ErrorCode,
    /// Human-readable context.
    pub message: String,
}

impl WireError {
    /// Build an error from a code and message.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<&CoreError> for WireError {
    /// Map an execution error onto its wire category. Authentication and
    /// authorization failures get their own codes (clients handle them
    /// differently from data errors); the remaining enclave/storage/crypto
    /// errors map to coarse substrate codes with the display text as
    /// context.
    fn from(e: &CoreError) -> Self {
        use concealer_core::EnclaveError;
        let code = match e {
            CoreError::SchemaMismatch { .. } => ErrorCode::SchemaMismatch,
            CoreError::TimeOutOfEpoch { .. } => ErrorCode::TimeOutOfEpoch,
            CoreError::NoDataForRange => ErrorCode::NoDataForRange,
            CoreError::IntegrityViolation { .. } => ErrorCode::IntegrityViolation,
            CoreError::InvalidQuery { .. } => ErrorCode::InvalidQuery,
            CoreError::CorruptMetadata => ErrorCode::CorruptMetadata,
            CoreError::InvalidConfig { .. } => ErrorCode::InvalidConfig,
            CoreError::Crypto(_) => ErrorCode::Crypto,
            CoreError::Storage(_) => ErrorCode::Storage,
            CoreError::Enclave(EnclaveError::UnknownUser | EnclaveError::AuthenticationFailed) => {
                ErrorCode::AuthFailed
            }
            CoreError::Enclave(EnclaveError::Unauthorized { .. }) => ErrorCode::Unauthorized,
            CoreError::Enclave(_) => ErrorCode::Enclave,
        };
        WireError::new(code, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_errors_map_to_stable_codes() {
        let cases: Vec<(CoreError, ErrorCode)> = vec![
            (CoreError::NoDataForRange, ErrorCode::NoDataForRange),
            (
                CoreError::IntegrityViolation { cell_id: 3 },
                ErrorCode::IntegrityViolation,
            ),
            (
                CoreError::InvalidQuery { reason: "bad" },
                ErrorCode::InvalidQuery,
            ),
            (CoreError::CorruptMetadata, ErrorCode::CorruptMetadata),
        ];
        for (core, code) in cases {
            let wire = WireError::from(&core);
            assert_eq!(wire.code, code);
            assert_eq!(wire.message, core.to_string());
        }
    }

    #[test]
    fn auth_errors_get_their_own_codes() {
        use concealer_core::EnclaveError;
        let auth: CoreError = EnclaveError::AuthenticationFailed.into();
        assert_eq!(WireError::from(&auth).code, ErrorCode::AuthFailed);
        let unknown: CoreError = EnclaveError::UnknownUser.into();
        assert_eq!(WireError::from(&unknown).code, ErrorCode::AuthFailed);
        let scope: CoreError = EnclaveError::Unauthorized {
            reason: "not your device",
        }
        .into();
        assert_eq!(WireError::from(&scope).code, ErrorCode::Unauthorized);
    }

    #[test]
    fn display_includes_code_name() {
        let e = WireError::new(ErrorCode::Busy, "cap reached");
        assert_eq!(e.to_string(), "busy: cap reached");
        assert_eq!(ErrorCode::Busy.name(), "busy");
    }
}
