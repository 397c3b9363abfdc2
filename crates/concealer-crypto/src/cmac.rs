//! AES-CMAC (NIST SP 800-38B / RFC 4493).
//!
//! CMAC is the pseudorandom function used by the deterministic encryption
//! mode in [`crate::det`]: the synthetic IV for a plaintext is
//! `CMAC(k_mac, plaintext)`, which makes the whole construction
//! deterministic (same plaintext ⇒ same ciphertext under a fixed epoch key)
//! while remaining a secure PRF — exactly the property the paper's
//! `E_k(value || timestamp)` columns need.

use crate::aes::{Aes, Block, BLOCK_SIZE};

/// AES-CMAC instance.
#[derive(Clone)]
pub struct Cmac {
    cipher: Aes,
    /// The subkeys, as the words [`word`] reads blocks into.
    k1: u128,
    k2: u128,
}

/// A block as one machine word, so the chain XORs once per block instead
/// of once per byte. Native byte order: only ever XORed and written back.
fn word(block: &[u8]) -> u128 {
    u128::from_ne_bytes(block.try_into().expect("a 16-byte block"))
}

/// Doubling in GF(2^128) (SP 800-38B §6.1), without a branch on the
/// secret top bit.
fn dbl(block: &Block) -> Block {
    let v = u128::from_be_bytes(*block);
    ((v << 1) ^ (0x87 * (v >> 127))).to_be_bytes()
}

impl Cmac {
    /// Build a CMAC instance from an already-expanded AES key.
    #[must_use]
    pub fn new(cipher: Aes) -> Self {
        let l = cipher.encrypt_block_copy(&[0u8; BLOCK_SIZE]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Cmac {
            cipher,
            k1: word(&k1),
            k2: word(&k2),
        }
    }

    /// Compute the CMAC tag over `message`.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> Block {
        let (body, last) = split_last_block(message);
        let mut x = 0u128;
        for block in body.chunks_exact(BLOCK_SIZE) {
            x = self.encrypt(x ^ word(block));
        }
        self.encrypt(x ^ self.last_word(last)).to_ne_bytes()
    }

    /// The tags of messages of at most one block each, side by side:
    /// `tags[i]` becomes `self.mac(&messages[i])`. Such a message is its own
    /// last block, so its tag is one block encryption, and all of them go
    /// through one [`Aes::encrypt_blocks`] call.
    pub(crate) fn mac_each<const N: usize>(&self, messages: &[[u8; N]], tags: &mut [Block]) {
        const { assert!(N <= BLOCK_SIZE, "a message of at most one block") };
        assert_eq!(messages.len(), tags.len(), "one tag per message");
        for (tag, message) in tags.iter_mut().zip(messages) {
            *tag = self.last_word(message).to_ne_bytes();
        }
        self.cipher.encrypt_blocks(tags);
    }

    fn encrypt(&self, x: u128) -> u128 {
        u128::from_ne_bytes(self.cipher.encrypt_block_copy(&x.to_ne_bytes()))
    }

    /// What the chain absorbs for the last block of a message: a complete
    /// block under K1, a shorter (or absent) one padded `10…0` under K2.
    fn last_word(&self, last: &[u8]) -> u128 {
        if last.len() == BLOCK_SIZE {
            return word(last) ^ self.k1;
        }
        let mut padded = [0u8; BLOCK_SIZE];
        padded[..last.len()].copy_from_slice(last);
        padded[last.len()] = 0x80;
        word(&padded) ^ self.k2
    }

    /// Verify a tag in constant time.
    #[must_use]
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        crate::ct_eq(&self.mac(message), tag)
    }
}

/// `message` as the whole blocks before its last block, and the last
/// block: 1 to 16 bytes, or none for the empty message.
fn split_last_block(message: &[u8]) -> (&[u8], &[u8]) {
    message.split_at(message.len().saturating_sub(1) / BLOCK_SIZE * BLOCK_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 4493 test vectors (AES-128 key).
    const KEY: &str = "2b7e151628aed2a6abf7158809cf4f3c";

    /// One RFC 4493 vector, on both implementations of the AES rounds.
    fn check_rfc4493(msg: &[u8], tag: &str) {
        for (path, aes) in crate::equivalence::aes_paths(&hex(KEY)) {
            assert_eq!(Cmac::new(aes).mac(msg).to_vec(), hex(tag), "{path}");
        }
    }

    #[test]
    fn rfc4493_empty_message() {
        check_rfc4493(b"", "bb1d6929e95937287fa37d129b756746");
    }

    #[test]
    fn rfc4493_16_bytes() {
        let msg = hex("6bc1bee22e409f96e93d7e117393172a");
        check_rfc4493(&msg, "070a16b46b4d4144f79bdd9dd04a287c");
    }

    #[test]
    fn rfc4493_40_bytes() {
        let msg =
            hex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411");
        check_rfc4493(&msg, "dfa66747de9ae63030ca32611497c827");
    }

    #[test]
    fn rfc4493_64_bytes() {
        let msg = hex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        check_rfc4493(&msg, "51f0bebf7e3b9d92fc49741779363cfe");
    }

    #[test]
    fn deterministic_and_key_sensitive() {
        let cmac = |key: &[u8; 32]| Cmac::new(Aes::new_256(key)).mac(b"same message");
        let (a, b, c) = (cmac(&[1u8; 32]), cmac(&[1u8; 32]), cmac(&[2u8; 32]));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn verify_roundtrip() {
        let cmac = Cmac::new(Aes::new_256(&[3u8; 32]));
        let tag = cmac.mac(b"payload");
        assert!(cmac.verify(b"payload", &tag));
        assert!(!cmac.verify(b"payloae", &tag));
    }
}
