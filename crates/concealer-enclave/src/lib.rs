//! Simulated SGX enclave for the Concealer system.
//!
//! The paper runs its query-execution logic inside an Intel SGX enclave at
//! the untrusted service provider. This crate substitutes a *software
//! simulation* of that trusted region (see ARCHITECTURE.md for the substitution
//! argument). What the simulation preserves — and what the paper's security
//! argument actually depends on — is:
//!
//! * the **boundary**: the only state the untrusted side can read is what
//!   crosses the boundary explicitly (trapdoors, fetched rows); key material
//!   stays inside [`Enclave`];
//! * **user authentication** against the encrypted registry DP provisions
//!   (requirement R2 of the paper), in [`registry`];
//! * **oblivious in-enclave computation** for Concealer+: the branch-free
//!   [`oblivious::omove`] / [`oblivious::ogreater`] operators of
//!   Ohrimenko et al. that the paper adopts (§4.3, Fig. 2), plus
//!   data-independent [`sort::bitonic_sort_by_key`];
//! * **remote attestation**, simulated in [`attest`]: a deterministic
//!   measurement over the enclave's code version and configuration, and
//!   signed quotes binding it to a client nonce, so the serving layer's
//!   handshake can refuse un-measured enclaves (requirement R1's "the
//!   client talks to genuine SGX" assumption, made checkable);
//! * a [`meter::SideChannelMeter`] that records the *shape* of in-enclave
//!   computation (comparisons, swaps, memory touches) so tests can assert
//!   that two executions over different query predicates are
//!   indistinguishable — the simulation's stand-in for "no cache-line /
//!   branch-shadow leakage".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod enclave;
pub mod meter;
pub mod oblivious;
pub mod registry;
pub mod sort;

mod error;

pub use attest::{Quote, ATTESTATION_ROOT_KEY, ENCLAVE_CODE_VERSION, MEASUREMENT_DOMAIN};
pub use enclave::{Enclave, EnclaveConfig};
pub use error::EnclaveError;
pub use meter::{MeterSnapshot, SideChannelMeter};
pub use registry::{Credential, QueryScope, RegisteredUser, UserId, UserRegistry};

/// Convenience alias for fallible enclave calls.
pub type Result<T> = std::result::Result<T, EnclaveError>;

/// The guard of a `std::sync` lock call, recovered if the lock is
/// poisoned: a thread that panicked while holding it does not take the
/// lock's other users down with it.
fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
