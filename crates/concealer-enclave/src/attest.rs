//! Simulated remote attestation: deterministic enclave measurements and
//! signed quotes.
//!
//! Real SGX attestation hashes the enclave's initial memory contents into
//! `MRENCLAVE` and has the quoting enclave sign `(measurement, report
//! data)` under a key that chains up to Intel's attestation service. This
//! simulation preserves the *protocol shape* the trust model depends on —
//! a client can bind "the party answering my handshake" to "an enclave
//! build I accept" before sending credentials or trapdoors — while
//! substituting reproducible software stand-ins:
//!
//! * the **measurement** is a SHA-256 over a domain-separation label
//!   ([`MEASUREMENT_DOMAIN`]), the enclave code version
//!   ([`ENCLAVE_CODE_VERSION`]) and the launch-relevant configuration
//!   (oblivious mode). Two enclaves with the same code
//!   and config measure identically; flipping either changes the
//!   measurement, exactly like `MRENCLAVE`;
//! * the **quote** binds the measurement to a client-chosen nonce and a
//!   wall-clock timestamp under [`ATTESTATION_ROOT_KEY`], the simulation's
//!   stand-in for the attestation service's signing key. The key is a
//!   fixed public constant — the simulation models *protocol* security
//!   (nonce freshness, measurement pinning, quote expiry), not the
//!   unforgeability of Intel's PKI.

use concealer_crypto::hmac::HmacSha256;
use concealer_crypto::sha256::Sha256;

use crate::enclave::{Enclave, EnclaveConfig};

/// Version counter over the enclave's *code identity*. Bump whenever a
/// change to the enclave crate would, on real hardware, change
/// `MRENCLAVE` — the measurement folds it in, so clients pinning a
/// measurement automatically refuse enclaves built from different code.
pub const ENCLAVE_CODE_VERSION: u32 = 1;

/// Domain-separation label folded into every measurement. Documented in
/// PROTOCOL.md §Attestation; `ci/check-docs.sh` guards the two against
/// drifting apart.
pub const MEASUREMENT_DOMAIN: &str = "concealer-measure/v1";

/// The simulated attestation service's signing key. A fixed, *public*
/// constant: quotes it signs prove measurement integrity against
/// accidents and protocol confusion, not against an adversary who can
/// read this source tree (see the module docs for the substitution
/// argument).
pub const ATTESTATION_ROOT_KEY: [u8; 32] = [
    0xC0, 0xCE, 0xA1, 0xE5, 0xA7, 0x7E, 0x57, 0xA7, 0x10, 0x4E, 0x2C, 0x0D, 0xE0, 0x00, 0x00, 0x01,
    0x5E, 0x9C, 0x3B, 0x1D, 0x6A, 0x48, 0x27, 0xF3, 0x91, 0x0B, 0xCD, 0x54, 0x78, 0xE6, 0x32, 0x8F,
];

/// A signed attestation statement: "an enclave measuring `measurement`,
/// running code version `code_version`, answered nonce `nonce` at
/// `timestamp`".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The enclave's deterministic measurement (see [`measure`]).
    pub measurement: [u8; 32],
    /// [`ENCLAVE_CODE_VERSION`] of the quoting enclave.
    pub code_version: u32,
    /// Seconds since the Unix epoch when the quote was produced. Clients
    /// bound quote age through their trust policy.
    pub timestamp: u64,
    /// The challenger's nonce, echoed back to prevent replay.
    pub nonce: [u8; 32],
    /// HMAC-SHA-256 under [`ATTESTATION_ROOT_KEY`] over the fields above.
    pub signature: [u8; 32],
}

/// The deterministic measurement of an enclave built from this crate at
/// [`ENCLAVE_CODE_VERSION`] with configuration `config`.
#[must_use]
pub fn measure(config: &EnclaveConfig) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(MEASUREMENT_DOMAIN.as_bytes());
    h.update(&ENCLAVE_CODE_VERSION.to_le_bytes());
    h.update(&[u8::from(config.oblivious)]);
    h.finalize()
}

/// The signed portion of a quote, in signing order.
fn signing_input(
    measurement: &[u8; 32],
    code_version: u32,
    timestamp: u64,
    nonce: &[u8; 32],
) -> [u8; 32] {
    let mut mac = HmacSha256::new(&ATTESTATION_ROOT_KEY);
    mac.update(measurement);
    mac.update(&code_version.to_le_bytes());
    mac.update(&timestamp.to_le_bytes());
    mac.update(nonce);
    mac.finalize()
}

/// Verify a quote's signature (measurement/version/timestamp/nonce binding
/// under [`ATTESTATION_ROOT_KEY`]). Freshness, nonce-echo and measurement
/// pinning are the *caller's* checks — this only answers "did the
/// attestation service sign exactly these fields".
#[must_use]
pub fn verify_signature(quote: &Quote) -> bool {
    let expected = signing_input(
        &quote.measurement,
        quote.code_version,
        quote.timestamp,
        &quote.nonce,
    );
    concealer_crypto::ct_eq(&quote.signature, &expected)
}

impl Enclave {
    /// This enclave's deterministic measurement.
    #[must_use]
    pub fn measurement(&self) -> [u8; 32] {
        measure(self.config())
    }

    /// Produce a signed quote over this enclave's measurement, the
    /// challenger's `nonce`, and `timestamp` (seconds since the Unix
    /// epoch; the serving layer stamps "now").
    #[must_use]
    pub fn quote(&self, nonce: [u8; 32], timestamp: u64) -> Quote {
        let measurement = self.measurement();
        let signature = signing_input(&measurement, ENCLAVE_CODE_VERSION, timestamp, &nonce);
        Quote {
            measurement,
            code_version: ENCLAVE_CODE_VERSION,
            timestamp,
            nonce,
            signature,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::UserRegistry;
    use concealer_crypto::MasterKey;

    fn enclave(config: EnclaveConfig) -> Enclave {
        Enclave::provision(
            MasterKey::from_bytes([7u8; 32]),
            UserRegistry::new(),
            config,
        )
    }

    #[test]
    fn measurement_depends_on_config_not_master() {
        let plain = enclave(EnclaveConfig::default());
        let oblivious = enclave(EnclaveConfig::oblivious());
        let other_master = Enclave::provision(
            MasterKey::from_bytes([9u8; 32]),
            UserRegistry::new(),
            EnclaveConfig::default(),
        );
        assert_eq!(plain.measurement(), other_master.measurement());
        assert_ne!(plain.measurement(), oblivious.measurement());
    }

    #[test]
    fn quote_verifies_and_echoes_nonce() {
        let e = enclave(EnclaveConfig::default());
        let nonce = [0xAB; 32];
        let q = e.quote(nonce, 1_000);
        assert!(verify_signature(&q));
        assert_eq!(q.nonce, nonce);
        assert_eq!(q.measurement, e.measurement());
        assert_eq!(q.code_version, ENCLAVE_CODE_VERSION);
        assert_eq!(q.timestamp, 1_000);
    }

    #[test]
    fn tampered_quotes_fail_verification() {
        let e = enclave(EnclaveConfig::default());
        let good = e.quote([1; 32], 5);
        let mut wrong_measure = good.clone();
        wrong_measure.measurement[0] ^= 1;
        let mut wrong_nonce = good.clone();
        wrong_nonce.nonce[0] ^= 1;
        let mut wrong_time = good.clone();
        wrong_time.timestamp += 1;
        let mut wrong_version = good.clone();
        wrong_version.code_version += 1;
        let mut wrong_sig = good.clone();
        wrong_sig.signature[31] ^= 1;
        for bad in [
            wrong_measure,
            wrong_nonce,
            wrong_time,
            wrong_version,
            wrong_sig,
        ] {
            assert!(!verify_signature(&bad));
        }
        assert!(verify_signature(&good));
    }
}
