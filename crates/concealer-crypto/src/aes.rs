//! AES block cipher (FIPS-197), supporting 128-bit and 256-bit keys.
//!
//! Only the forward permutation exists: the deterministic ([`crate::det`])
//! and randomized ([`crate::ctr`]) modes Concealer is built on are CTR and
//! CMAC constructions, which never invert a block.
//!
//! Two implementations of the rounds sit under one [`Aes`] value. Where the
//! CPU has AES instructions (x86_64 AES-NI, detected when the key is
//! expanded) blocks go through `crate::hw`, up to eight side by side per
//! call ([`Aes::encrypt_blocks`]). Everywhere else — and as the oracle the
//! tests hold the hardware path against, byte for byte — the rounds are the
//! byte-oriented version of the specification: SubBytes / ShiftRows /
//! MixColumns / AddRoundKey over a 4×4 column-major state. The key schedule
//! is that byte-oriented code on both paths; it runs once per key.
//!
//! Test vectors from FIPS-197 Appendix C are included in the unit tests.

use crate::hw::{AesNi, RoundKeys};
use crate::{CryptoError, Result};

/// The AES block size in bytes.
pub const BLOCK_SIZE: usize = 16;

/// An AES block.
pub type Block = [u8; BLOCK_SIZE];

/// Forward S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants used by the key schedule.
const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

/// Multiply by `x` (i.e. 0x02) in GF(2^8) with the AES polynomial.
#[inline]
fn xtime(b: u8) -> u8 {
    let hi = b & 0x80;
    let mut r = b << 1;
    if hi != 0 {
        r ^= 0x1b;
    }
    r
}

/// Key size variants supported by [`Aes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// AES-128: 16-byte key, 10 rounds.
    Aes128,
    /// AES-256: 32-byte key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes256 => 14,
        }
    }

    fn key_words(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes256 => 8,
        }
    }
}

/// An expanded AES key ready for block encryption.
#[derive(Clone)]
pub struct Aes {
    round_keys: RoundKeys,
    rounds: usize,
    /// Which implementation of the rounds this value uses, settled once
    /// here rather than per block.
    hw: Option<AesNi>,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Expand `key` (16 or 32 bytes) into round keys.
    pub fn new(key: &[u8]) -> Result<Self> {
        Self::with_hw(key, AesNi::detect())
    }

    /// [`Aes::new`] on a stated implementation of the rounds: `None` is the
    /// byte-oriented reference whatever the CPU has.
    pub(crate) fn with_hw(key: &[u8], hw: Option<AesNi>) -> Result<Self> {
        let size = match key.len() {
            16 => KeySize::Aes128,
            32 => KeySize::Aes256,
            got => {
                return Err(CryptoError::InvalidKeyLength {
                    got,
                    expected: "16 (AES-128) or 32 (AES-256)",
                })
            }
        };
        Ok(Self::with_size(key, size, hw))
    }

    /// Expand an AES-256 key. Panics if `key` is not 32 bytes; preferred
    /// constructor inside the workspace where key lengths are static.
    #[must_use]
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::with_size(key, KeySize::Aes256, AesNi::detect())
    }

    fn with_size(key: &[u8], size: KeySize, hw: Option<AesNi>) -> Self {
        let nk = size.key_words();
        let rounds = size.rounds();
        let total_words = 4 * (rounds + 1);

        // Key schedule over 4-byte words.
        let mut w = [[0u8; 4]; 60];
        let w = &mut w[..total_words];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                // RotWord + SubWord + Rcon
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }

        let mut round_keys = [[0u8; BLOCK_SIZE]; 15];
        for (rk, words) in round_keys.iter_mut().zip(w.chunks_exact(4)) {
            rk.copy_from_slice(words.as_flattened());
        }
        Aes {
            round_keys,
            rounds,
            hw,
        }
    }

    /// Whether this value runs hardware rounds.
    #[cfg(test)]
    pub(crate) fn on_hardware(&self) -> bool {
        self.hw.is_some()
    }

    /// Number of rounds for this key size (10 or 14).
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut Block) {
        self.encrypt_blocks(std::slice::from_mut(block));
    }

    /// Encrypt every block of `blocks` in place, each independently of the
    /// others (ECB — the callers are counter-mode keystreams and MAC
    /// chains run side by side). Hardware rounds take them eight at a
    /// time, which is what fills the pipeline; the result is the same
    /// bytes as [`Aes::encrypt_block`] on each.
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        match self.hw {
            Some(ni) => ni.encrypt_blocks(&self.round_keys, self.rounds, blocks),
            None => {
                for block in blocks {
                    self.encrypt_block_portable(block);
                }
            }
        }
    }

    fn encrypt_block_portable(&self, block: &mut Block) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Encrypt a copy of `block` and return it.
    #[must_use]
    pub fn encrypt_block_copy(&self, block: &Block) -> Block {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }
}

#[inline]
fn add_round_key(state: &mut Block, rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut Block) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State is column-major: state[4*c + r] is row r, column c.
#[inline]
fn shift_rows(state: &mut Block) {
    // Row 1: shift left by 1.
    let t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    // Row 2: shift left by 2.
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift left by 3 (== right by 1).
    let t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
}

#[inline]
fn mix_columns(state: &mut Block) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::aes_paths;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A FIPS-197 Appendix C vector, on both implementations of the rounds.
    fn check_fips197(key: &str, expect: &str) {
        for (path, aes) in aes_paths(&hex(key)) {
            let mut block: Block = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
            aes.encrypt_block(&mut block);
            assert_eq!(block.to_vec(), hex(expect), "{path}");
        }
    }

    #[test]
    fn fips197_aes128_vector() {
        // FIPS-197 Appendix C.1
        check_fips197(
            "000102030405060708090a0b0c0d0e0f",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    #[test]
    fn fips197_aes256_vector() {
        // FIPS-197 Appendix C.3
        check_fips197(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    #[test]
    fn rejects_bad_key_length() {
        assert!(matches!(
            Aes::new(&[0u8; 24]),
            Err(CryptoError::InvalidKeyLength { got: 24, .. })
        ));
        assert!(matches!(
            Aes::new(&[]),
            Err(CryptoError::InvalidKeyLength { got: 0, .. })
        ));
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes::new_256(&[1u8; 32]);
        let b = Aes::new_256(&[2u8; 32]);
        let block = [0x42u8; 16];
        assert_ne!(a.encrypt_block_copy(&block), b.encrypt_block_copy(&block));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new_256(&[9u8; 32]);
        let s = format!("{aes:?}");
        assert!(
            !s.contains('9'),
            "debug output should not include key bytes: {s}"
        );
        assert!(s.contains("rounds"));
    }
}
