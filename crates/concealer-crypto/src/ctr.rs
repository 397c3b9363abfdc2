//! Randomized AES-CTR encryption (the paper's `E^nd`, non-deterministic
//! encryption).
//!
//! The `cell_id[]` and `c_tuple[]` vectors, the verifiable tags, and the
//! fake-tuple payloads are encrypted with a *non-deterministic* scheme so
//! that the adversary cannot correlate them across epochs. This module
//! implements AES-CTR with a random 16-byte nonce prefixed to the
//! ciphertext, plus an HMAC-SHA-256 tag (encrypt-then-MAC) so that tampering
//! with the metadata vectors is detected just like tampering with tuples.

use crate::aes::{Aes, Block, BLOCK_SIZE};
use crate::hmac::HmacSha256;
use crate::{CryptoError, Result};
use rand::RngCore;

/// Length of the random nonce prefixed to each ciphertext.
pub const NONCE_SIZE: usize = 16;
/// Length of the authentication tag appended to each ciphertext.
pub const TAG_SIZE: usize = 32;

/// Which bytes of a CTR-mode IV hold the block counter (big-endian, added
/// to what the IV already has there, wrapping inside the lane).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CounterLane {
    /// Bytes 12..16: this module's nonce-prefixed scheme.
    Low32,
    /// Bytes 8..16: the synthetic-IV scheme of [`crate::det`].
    Low64,
}

impl CounterLane {
    /// The `counter`-th input block of the keystream that starts at `iv`.
    pub(crate) fn block(self, iv: &Block, counter: u64) -> Block {
        let mut block = *iv;
        match self {
            CounterLane::Low32 => {
                let lane: &mut [u8; 4] = block.last_chunk_mut().expect("a block has 16 bytes");
                // Truncating `counter` is wrapping in a 32-bit lane.
                *lane = u32::from_be_bytes(*lane)
                    .wrapping_add(counter as u32)
                    .to_be_bytes();
            }
            CounterLane::Low64 => {
                let lane: &mut [u8; 8] = block.last_chunk_mut().expect("a block has 16 bytes");
                *lane = u64::from_be_bytes(*lane)
                    .wrapping_add(counter)
                    .to_be_bytes();
            }
        }
        block
    }
}

/// XOR `data` with the CTR keystream of `cipher` that starts at `iv`: the
/// one keystream routine of the crate. Counter blocks are built and
/// encrypted up to eight per [`Aes::encrypt_blocks`] call.
pub(crate) fn keystream_xor(cipher: &Aes, iv: &Block, lane: CounterLane, data: &mut [u8]) {
    let mut counter = 0u64;
    for chunk in data.chunks_mut(8 * BLOCK_SIZE) {
        let mut keystream = [[0u8; BLOCK_SIZE]; 8];
        let blocks = &mut keystream[..chunk.len().div_ceil(BLOCK_SIZE)];
        for block in blocks.iter_mut() {
            *block = lane.block(iv, counter);
            counter += 1;
        }
        cipher.encrypt_blocks(blocks);
        xor_into(chunk, blocks.as_flattened());
    }
}

/// `dst[i] ^= src[i]` over the shorter of the two.
fn xor_into(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Randomized authenticated encryption: AES-CTR + HMAC-SHA-256
/// (encrypt-then-MAC).
#[derive(Clone)]
pub struct RandomizedCipher {
    enc: Aes,
    mac: HmacSha256,
}

impl RandomizedCipher {
    /// Build a cipher from independent encryption and MAC keys.
    #[must_use]
    pub fn new(enc_key: &[u8; 32], mac_key: &[u8; 32]) -> Self {
        Self::from_parts(Aes::new_256(enc_key), HmacSha256::new(mac_key))
    }

    /// A cipher over an expanded encryption key and a keyed MAC.
    pub(crate) fn from_parts(enc: Aes, mac: HmacSha256) -> Self {
        RandomizedCipher { enc, mac }
    }

    /// Encrypt `plaintext` with a nonce drawn from `rng`.
    ///
    /// Output layout: `nonce (16) || ciphertext (len) || tag (32)`.
    #[must_use]
    pub fn encrypt<R: RngCore>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_SIZE];
        rng.fill_bytes(&mut nonce);
        self.encrypt_with_nonce(&nonce, plaintext)
    }

    /// Encrypt with an explicit nonce (exposed for tests; production callers
    /// should use [`RandomizedCipher::encrypt`]).
    #[must_use]
    pub fn encrypt_with_nonce(&self, nonce: &[u8; NONCE_SIZE], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(NONCE_SIZE + plaintext.len() + TAG_SIZE);
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        keystream_xor(&self.enc, nonce, CounterLane::Low32, &mut out[NONCE_SIZE..]);
        let tag = self.mac.mac(&out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypt and verify a ciphertext produced by [`RandomizedCipher::encrypt`].
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        if ciphertext.len() < NONCE_SIZE + TAG_SIZE {
            return Err(CryptoError::MalformedCiphertext {
                reason: "shorter than nonce + tag",
            });
        }
        let (body, tag) = ciphertext.split_at(ciphertext.len() - TAG_SIZE);
        let expected = self.mac.mac(body);
        if !crate::ct_eq(&expected, tag) {
            return Err(CryptoError::AuthenticationFailed);
        }
        let nonce: [u8; NONCE_SIZE] = body[..NONCE_SIZE].try_into().expect("checked length");
        let mut plaintext = body[NONCE_SIZE..].to_vec();
        keystream_xor(&self.enc, &nonce, CounterLane::Low32, &mut plaintext);
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cipher() -> RandomizedCipher {
        RandomizedCipher::new(&[11u8; 32], &[22u8; 32])
    }

    #[test]
    fn roundtrip_various_lengths() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(1);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let ct = c.encrypt(&mut rng, &plaintext);
            assert_eq!(ct.len(), NONCE_SIZE + len + TAG_SIZE);
            assert_eq!(c.decrypt(&ct).unwrap(), plaintext, "len {len}");
        }
    }

    #[test]
    fn same_plaintext_different_ciphertexts() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(2);
        let a = c.encrypt(&mut rng, b"identical plaintext");
        let b = c.encrypt(&mut rng, b"identical plaintext");
        assert_ne!(a, b, "randomized encryption must not be deterministic");
    }

    #[test]
    fn tampering_detected() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ct = c.encrypt(&mut rng, b"important metadata");
        // Flip a ciphertext byte.
        let mid = NONCE_SIZE + 3;
        ct[mid] ^= 0x01;
        assert_eq!(c.decrypt(&ct), Err(CryptoError::AuthenticationFailed));
    }

    #[test]
    fn truncation_detected() {
        let c = cipher();
        let mut rng = StdRng::seed_from_u64(4);
        let ct = c.encrypt(&mut rng, b"important metadata");
        assert!(c.decrypt(&ct[..ct.len() - 1]).is_err());
        assert!(matches!(
            c.decrypt(&ct[..10]),
            Err(CryptoError::MalformedCiphertext { .. })
        ));
    }

    #[test]
    fn wrong_key_rejected() {
        let c = cipher();
        let other = RandomizedCipher::new(&[11u8; 32], &[23u8; 32]);
        let mut rng = StdRng::seed_from_u64(5);
        let ct = c.encrypt(&mut rng, b"data");
        assert_eq!(other.decrypt(&ct), Err(CryptoError::AuthenticationFailed));
    }

    /// `nonce ‖ ciphertext ‖ tag` for a fixed key, nonce and plaintext. The
    /// nonce's counter lane starts one below its wrap, so the second and
    /// third keystream blocks pin the wrap-within-the-lane rule.
    #[test]
    fn encrypt_with_nonce_golden_bytes() {
        let mut nonce = [0xA5u8; NONCE_SIZE];
        nonce[12..].copy_from_slice(&0xFFFF_FFFFu32.to_be_bytes());
        let plaintext: Vec<u8> = (0..40u8).collect();
        let blob = cipher().encrypt_with_nonce(&nonce, &plaintext);
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "a5a5a5a5a5a5a5a5a5a5a5a5ffffffff\
             ec57bf5cf92a9b9fafe4c1f23eefb61534e87a6fa734171335a5f6e02c837a18560d1a885b93a3a4\
             ec4e527240afe7cf5f909bc4f98fa1b49071847c661bbe3abb6e0fe46d6b002f",
            "nonce, forty bytes of ciphertext, tag"
        );
    }

    #[test]
    fn explicit_nonce_is_deterministic_for_tests() {
        let c = cipher();
        let nonce = [7u8; NONCE_SIZE];
        let a = c.encrypt_with_nonce(&nonce, b"abc");
        let b = c.encrypt_with_nonce(&nonce, b"abc");
        assert_eq!(a, b);
    }
}
