//! Key material shared between the data provider and the (simulated) enclave.
//!
//! The paper's trust model has a single secret `sk` negotiated between DP
//! and SGX; everything else (per-epoch keys, filter keys, grid-hash keys) is
//! derived from it. [`MasterKey`] is that secret; [`EpochKey`] bundles every
//! derived primitive an epoch needs, so both sides construct identical
//! ciphers from `(sk, eid, round_counter)`.

use crate::ctr::RandomizedCipher;
use crate::det::DeterministicCipher;
use crate::kdf::{derive_key, KeyPurpose};
use crate::prf::RangePrf;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Identifier of an epoch (the paper uses the epoch's start timestamp).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EpochId(pub u64);

impl From<u64> for EpochId {
    fn from(v: u64) -> Self {
        EpochId(v)
    }
}

/// The secret shared between the data provider and the enclave.
#[derive(Clone, PartialEq, Eq)]
pub struct MasterKey {
    sk: [u8; 32],
}

impl std::fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MasterKey").finish_non_exhaustive()
    }
}

impl MasterKey {
    /// Wrap an existing 32-byte secret.
    #[must_use]
    pub fn from_bytes(sk: [u8; 32]) -> Self {
        MasterKey { sk }
    }

    /// Generate a fresh random master key.
    #[must_use]
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut sk = [0u8; 32];
        rng.fill_bytes(&mut sk);
        MasterKey { sk }
    }

    /// Derive the full set of per-epoch primitives.
    ///
    /// `round_counter` is 0 for freshly ingested epochs and is bumped by the
    /// dynamic-insertion protocol every time an epoch's bins are re-written
    /// (§6 of the paper), which is what gives forward privacy.
    #[must_use]
    pub fn epoch_key(&self, epoch: EpochId, round_counter: u64) -> EpochKey {
        let det_mac = derive_key(&self.sk, KeyPurpose::DetMac, epoch.0, round_counter);
        let det_enc = derive_key(&self.sk, KeyPurpose::DetEnc, epoch.0, round_counter);
        let rand_enc = derive_key(&self.sk, KeyPurpose::RandEnc, epoch.0, round_counter);
        let rand_mac = derive_key(&self.sk, KeyPurpose::RandMac, epoch.0, round_counter);
        let grid_hash = derive_key(&self.sk, KeyPurpose::GridHash, epoch.0, round_counter);
        let hash_chain = derive_key(&self.sk, KeyPurpose::HashChain, epoch.0, round_counter);
        let permutation = derive_key(&self.sk, KeyPurpose::Permutation, epoch.0, round_counter);
        EpochKey {
            epoch,
            round_counter,
            det: DeterministicCipher::new(&det_mac, &det_enc),
            rand: RandomizedCipher::new(&rand_enc, &rand_mac),
            grid_prf: RangePrf::new(grid_hash),
            hash_chain_key: hash_chain,
            permutation_key: permutation,
        }
    }

    /// The grid-hash PRF is intentionally *round-independent*: the enclave
    /// must map query predicates to grid cells the same way DP did at ingest
    /// time, regardless of how many times the epoch has since been
    /// re-encrypted.
    #[must_use]
    pub fn grid_prf(&self, epoch: EpochId) -> RangePrf {
        RangePrf::new(derive_key(&self.sk, KeyPurpose::GridHash, epoch.0, 0))
    }

    /// The per-epoch *seal secret* recorded (wrapped) in the durable
    /// store's key vault. It is derived from the same master the epoch's
    /// data keys come from, so a vault entry that unwraps to this value
    /// proves the epoch is readable under this master — without ever
    /// exposing the data keys to the rotation machinery.
    #[must_use]
    pub fn epoch_seal_secret(&self, epoch_id: u64) -> [u8; 32] {
        derive_key(&self.sk, KeyPurpose::EpochSeal, epoch_id, 0)
    }

    /// Wrap the epoch's seal secret under the key-encryption key of master
    /// `generation`, producing the 64-byte vault blob (32-byte XOR-pad
    /// ciphertext followed by a 32-byte HMAC tag binding the epoch id).
    #[must_use]
    pub fn wrap_epoch_seal(&self, generation: u64, epoch_id: u64) -> Vec<u8> {
        let kek = derive_key(&self.sk, KeyPurpose::KeyWrap, generation, 0);
        let seal = self.epoch_seal_secret(epoch_id);
        let pad = wrap_block(&kek, b"pad", epoch_id, &[]);
        let mut ct = [0u8; 32];
        for (c, (s, p)) in ct.iter_mut().zip(seal.iter().zip(pad.iter())) {
            *c = s ^ p;
        }
        let tag = wrap_block(&kek, b"tag", epoch_id, &ct);
        let mut blob = Vec::with_capacity(64);
        blob.extend_from_slice(&ct);
        blob.extend_from_slice(&tag);
        blob
    }

    /// Unwrap a vault blob written by [`MasterKey::wrap_epoch_seal`] under
    /// the same `(generation, epoch_id)`. Returns `None` when the blob is
    /// malformed, the tag does not verify, or the recovered secret does not
    /// match this master's [`MasterKey::epoch_seal_secret`] — i.e. exactly
    /// when the vault entry was *not* written under this master at that
    /// generation.
    #[must_use]
    pub fn unwrap_epoch_seal(
        &self,
        generation: u64,
        epoch_id: u64,
        blob: &[u8],
    ) -> Option<[u8; 32]> {
        if blob.len() != 64 {
            return None;
        }
        let (ct, tag) = blob.split_at(32);
        let kek = derive_key(&self.sk, KeyPurpose::KeyWrap, generation, 0);
        let expected_tag = wrap_block(&kek, b"tag", epoch_id, ct);
        if !crate::ct_eq(tag, &expected_tag) {
            return None;
        }
        let pad = wrap_block(&kek, b"pad", epoch_id, &[]);
        let mut seal = [0u8; 32];
        for (s, (c, p)) in seal.iter_mut().zip(ct.iter().zip(pad.iter())) {
            *s = c ^ p;
        }
        if !crate::ct_eq(&seal, &self.epoch_seal_secret(epoch_id)) {
            return None;
        }
        Some(seal)
    }
}

/// One HMAC block of the key-wrap construction: `HMAC(kek, label || epoch || data)`.
fn wrap_block(kek: &[u8; 32], label: &[u8], epoch_id: u64, data: &[u8]) -> [u8; 32] {
    let mut mac = crate::hmac::HmacSha256::new(kek);
    mac.update(label);
    mac.update(&epoch_id.to_le_bytes());
    mac.update(data);
    mac.finalize()
}

/// All primitives derived for one `(epoch, round_counter)` pair.
#[derive(Clone)]
pub struct EpochKey {
    /// Which epoch this key belongs to.
    pub epoch: EpochId,
    /// Re-encryption counter (0 = as ingested).
    pub round_counter: u64,
    /// Deterministic cipher for searchable columns (`E_k`).
    pub det: DeterministicCipher,
    /// Randomized cipher for metadata vectors and tags (`E^nd`).
    pub rand: RandomizedCipher,
    /// Grid-hash PRF (`H`) for cell allocation.
    pub grid_prf: RangePrf,
    /// Key for hash-chain tags.
    pub hash_chain_key: [u8; 32],
    /// Key for the pseudo-random transmission permutation.
    pub permutation_key: [u8; 32],
}

impl std::fmt::Debug for EpochKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochKey")
            .field("epoch", &self.epoch)
            .field("round_counter", &self.round_counter)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn same_inputs_same_epoch_key() {
        let mk = MasterKey::from_bytes([7u8; 32]);
        let a = mk.epoch_key(EpochId(10), 0);
        let b = mk.epoch_key(EpochId(10), 0);
        assert_eq!(a.det.encrypt(b"v"), b.det.encrypt(b"v"));
        assert_eq!(
            a.grid_prf.eval_u64_mod(3, 100),
            b.grid_prf.eval_u64_mod(3, 100)
        );
    }

    #[test]
    fn different_epochs_produce_unlinkable_ciphertexts() {
        let mk = MasterKey::from_bytes([7u8; 32]);
        let a = mk.epoch_key(EpochId(10), 0);
        let b = mk.epoch_key(EpochId(11), 0);
        assert_ne!(a.det.encrypt(b"loc1||t1"), b.det.encrypt(b"loc1||t1"));
    }

    #[test]
    fn round_counter_changes_det_but_not_grid_prf() {
        let mk = MasterKey::from_bytes([7u8; 32]);
        let r0 = mk.epoch_key(EpochId(10), 0);
        let r1 = mk.epoch_key(EpochId(10), 1);
        assert_ne!(r0.det.encrypt(b"v"), r1.det.encrypt(b"v"));
        // grid PRF from MasterKey::grid_prf is round independent
        let g = mk.grid_prf(EpochId(10));
        assert_eq!(g.eval_u64_mod(5, 99), r0.grid_prf.eval_u64_mod(5, 99));
    }

    #[test]
    fn generate_produces_distinct_keys() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = MasterKey::generate(&mut rng);
        let b = MasterKey::generate(&mut rng);
        assert_ne!(
            a.epoch_key(EpochId(1), 0).det.encrypt(b"x"),
            b.epoch_key(EpochId(1), 0).det.encrypt(b"x")
        );
    }

    #[test]
    fn wrap_unwrap_epoch_seal_round_trip() {
        let mk = MasterKey::from_bytes([7u8; 32]);
        let blob = mk.wrap_epoch_seal(2, 3600);
        assert_eq!(blob.len(), 64);
        assert_eq!(
            mk.unwrap_epoch_seal(2, 3600, &blob),
            Some(mk.epoch_seal_secret(3600))
        );
    }

    #[test]
    fn unwrap_rejects_wrong_master_generation_epoch_and_garbage() {
        let mk = MasterKey::from_bytes([7u8; 32]);
        let other = MasterKey::from_bytes([8u8; 32]);
        let blob = mk.wrap_epoch_seal(1, 0);
        assert!(other.unwrap_epoch_seal(1, 0, &blob).is_none());
        assert!(mk.unwrap_epoch_seal(2, 0, &blob).is_none());
        assert!(mk.unwrap_epoch_seal(1, 3600, &blob).is_none());
        assert!(mk.unwrap_epoch_seal(1, 0, &[0u8; 64]).is_none());
        assert!(mk.unwrap_epoch_seal(1, 0, b"short").is_none());
        // Flipping any ciphertext byte breaks the tag.
        let mut torn = blob.clone();
        torn[5] ^= 1;
        assert!(mk.unwrap_epoch_seal(1, 0, &torn).is_none());
    }

    #[test]
    fn generations_produce_distinct_blobs_for_one_epoch() {
        let mk = MasterKey::from_bytes([7u8; 32]);
        assert_ne!(mk.wrap_epoch_seal(0, 42), mk.wrap_epoch_seal(1, 42));
    }

    #[test]
    fn debug_does_not_leak() {
        let mk = MasterKey::from_bytes([0xAB; 32]);
        let s = format!("{mk:?}");
        assert!(!s.contains("171") && !s.to_lowercase().contains("ab, ab"));
    }
}
