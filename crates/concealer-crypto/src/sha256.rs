//! SHA-256 (FIPS 180-4).
//!
//! Used by Concealer for the per-cell hash chains that make the outsourced
//! data verifiable (§3 "Hash-chain creations" and §4.2 Step 4 of the paper),
//! and as the compression function inside [`crate::hmac`].
//!
//! The compression function exists twice under one [`Sha256`] value: on
//! the CPU's SHA extensions where it has them (x86_64 SHA-NI, detected
//! when the hasher is created, in `crate::hw`), and as the scalar FIPS
//! 180-4 code everywhere else — which is also what the tests hold the
//! hardware path against, digest for digest.

use crate::hw::ShaNi;

/// Digest length in bytes.
pub const DIGEST_SIZE: usize = 32;

/// A SHA-256 digest.
pub type Digest = [u8; DIGEST_SIZE];

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    /// Which compression function this hasher uses, settled once here
    /// rather than per block.
    hw: Option<ShaNi>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::with_hw(ShaNi::detect())
    }

    /// [`Sha256::new`] on a stated compression function: `None` is the
    /// scalar reference whatever the CPU has.
    pub(crate) fn with_hw(hw: Option<ShaNi>) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            hw,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            let block = self.buffer;
            self.compress(&block);
            self.buffer_len = 0;
        }

        // Whole blocks are compressed where they lie in the input.
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Whether this hasher compresses on the SHA extensions.
    #[cfg(test)]
    pub(crate) fn on_hardware(&self) -> bool {
        self.hw.is_some()
    }

    /// Finish and return the digest.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to the last 8 bytes of a block, then the
        // 64-bit big-endian message length — written in place, one extra
        // block when fewer than 9 bytes of this one are free.
        let mut block = self.buffer;
        block[self.buffer_len] = 0x80;
        block[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; DIGEST_SIZE];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        match self.hw {
            Some(ni) => ni.compress(&mut self.state, block),
            None => compress_portable(&mut self.state, block),
        }
    }
}

/// The scalar compression function of FIPS 180-4 §6.2.2.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256.
#[must_use]
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hash the concatenation of two byte strings: `SHA-256(a || b)`.
///
/// This is the chaining step used by the paper's per-cell hash chains:
/// `h_i = H(E(l_i) || h_{i-1})`.
#[must_use]
pub fn sha256_concat(a: &[u8], b: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::sha_paths;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `data` hashes to `want` on both compression functions.
    fn check(data: &[u8], want: &str) {
        for (path, mut h) in sha_paths() {
            h.update(data);
            assert_eq!(hex(&h.finalize()), want, "{path}, {} bytes", data.len());
        }
    }

    #[test]
    fn empty_string() {
        check(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        check(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        check(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        for (path, mut h) in sha_paths() {
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{path}"
            );
        }
    }

    /// Lengths on either side of each padding boundary: the last length
    /// whose padding fits its block (55, 119), the first that spills into
    /// an extra block (56), and a full block with and without a byte to
    /// spare (63, 64). Digests from an independent implementation.
    #[test]
    fn padding_edges() {
        for (len, want) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
        ] {
            check(&vec![b'a'; len], want);
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, data.len()] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn concat_helper_matches_manual_concat() {
        let a = b"hello ";
        let b = b"world";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(sha256_concat(a, b), sha256(&joined));
    }
}
