//! Cryptographic substrate for the Concealer system.
//!
//! The Concealer paper (EDBT 2021) relies on a small set of symmetric
//! primitives: AES-256 for tuple encryption (both a *deterministic* mode,
//! used to build the DBMS-indexable `Index` column and the filter columns,
//! and a *non-deterministic* mode used for the metadata vectors), a
//! collision-resistant hash for the per-cell hash chains used for integrity
//! verification, and a keyed PRF for deriving per-epoch keys
//! (`k = PRF(sk, eid)`).
//!
//! None of the offline crates permitted for this reproduction provide these
//! primitives, so they are implemented here from scratch:
//!
//! * [`aes`] — AES-128/AES-256 block cipher (the forward permutation; no
//!   mode here inverts a block).
//! * [`sha256`] — SHA-256 with a streaming [`sha256::Sha256`] hasher.
//! * [`hmac`] — HMAC-SHA-256.
//! * [`cmac`] — AES-CMAC (used as the deterministic PRF / synthetic IV).
//! * [`det`] — deterministic authenticated encryption (SIV-flavoured):
//!   identical plaintexts under the same key produce identical ciphertexts,
//!   which is exactly the property Algorithm 1 of the paper requires for the
//!   searchable `Index` and filter columns.
//! * [`ctr`] — randomized CTR-mode encryption for data that must *not* be
//!   searchable (the `cell_id[]` / `c_tuple[]` vectors, verifiable tags).
//! * [`kdf`] — epoch key derivation `k = HMAC(sk, eid || purpose)`.
//! * [`prf`] — small-domain PRF used by the grid hash `H` that maps
//!   locations / time subintervals to grid rows and columns.
//!
//! The AES rounds and the SHA-256 compression function each exist twice.
//! Where the CPU has the instructions (x86_64 AES-NI / SHA-NI, detected at
//! run time when a key is expanded or a hasher created — nothing is
//! configured) they run in hardware, several independent blocks side by
//! side; that is what the enclave of the paper does, it is what the cold
//! query path's speed rests on, and it has no secret-indexed table load.
//! Everywhere else they are the byte-oriented FIPS-197 / FIPS 180-4
//! reference code, which is also the oracle: the crate's tests run every
//! standard vector on both and compare the two byte for byte on blocks,
//! CTR streams, CMAC tags, DET batches, digests and HMACs. Every line of
//! `unsafe` is in the private `hw` module, behind capability values only
//! successful detection can construct.
//!
//! # Security disclaimer
//!
//! This code is a research reproduction. It has not been audited; the
//! reference path makes no claim of constant-time execution (its S-box is a
//! table indexed by secret state), the hardware path is constant-time only
//! as far as the CPU's instructions are, and neither must be used to
//! protect real data.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod cmac;
pub mod ctr;
pub mod det;
pub mod hmac;
pub mod kdf;
pub mod keys;
pub mod prf;
pub mod sha256;

#[cfg(test)]
mod equivalence;
mod error;
#[allow(unsafe_code)]
mod hw;

pub use det::{DetBuffer, DeterministicCipher};
pub use error::CryptoError;
pub use keys::{EpochId, EpochKey, MasterKey};

/// Convenience alias used across the workspace for fallible crypto calls.
pub type Result<T> = std::result::Result<T, CryptoError>;

/// Constant-time byte-slice equality.
///
/// Compares `a` and `b` without early exit so that the comparison time does
/// not depend on the position of the first mismatching byte. Used when
/// verifying MAC tags and hash-chain digests inside the (simulated) enclave.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_equal_slices() {
        assert!(ct_eq(b"hello world", b"hello world"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_slices() {
        assert!(!ct_eq(b"hello world", b"hello worle"));
        assert!(!ct_eq(b"short", b"longer slice"));
        assert!(!ct_eq(b"a", b""));
    }

    #[test]
    fn ct_eq_differs_only_in_first_byte() {
        assert!(!ct_eq(b"xello", b"hello"));
    }
}
