//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used by the key-derivation function ([`crate::kdf`]) that turns the
//! DP↔SGX shared secret `sk` plus an epoch id into the per-epoch key the
//! paper calls `k ← sk || eid`, and by the small-domain PRF behind the grid
//! hash `H`.

use crate::sha256::{Digest, Sha256, DIGEST_SIZE};

const BLOCK_SIZE: usize = 64;

/// Streaming HMAC-SHA-256.
///
/// A keyed instance holds both pads already absorbed — the inner hasher
/// after `key ⊕ ipad`, the outer after `key ⊕ opad` — so a caller that MACs
/// many messages under one key keeps one instance and clones it per
/// message: a short message then costs two compressions, not four.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Create an HMAC instance keyed with `key` (any length).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        Self::keyed(&Sha256::new(), key)
    }

    /// [`HmacSha256::new`] over a stated hasher: every digest of this
    /// instance starts from a clone of `fresh`, which must be unused.
    pub(crate) fn keyed(fresh: &Sha256, key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let mut long = fresh.clone();
            long.update(key);
            key_block[..DIGEST_SIZE].copy_from_slice(&long.finalize());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner = fresh.clone();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = fresh.clone();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> Digest {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// The tag of `message` under this instance's key, leaving the
    /// instance keyed for the next message.
    #[must_use]
    pub(crate) fn mac(&self, message: &[u8]) -> Digest {
        let mut mac = self.clone();
        mac.update(message);
        mac.finalize()
    }
}

/// One-shot HMAC-SHA-256.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacSha256::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One RFC 4231 vector, on both compression functions.
    fn check_rfc4231(key: &[u8], msg: &[u8], tag: &str) {
        for (path, fresh) in crate::equivalence::sha_paths() {
            assert_eq!(hex(&HmacSha256::keyed(&fresh, key).mac(msg)), tag, "{path}");
        }
    }

    #[test]
    fn rfc4231_test_case_1() {
        let key = [0x0b_u8; 20];
        check_rfc4231(
            &key,
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_test_case_2() {
        check_rfc4231(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_test_case_3() {
        let key = [0xaa_u8; 20];
        let msg = [0xdd_u8; 50];
        check_rfc4231(
            &key,
            &msg,
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_long_key() {
        let key = [0xaa_u8; 131];
        check_rfc4231(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"part one ");
        mac.update(b"part two");
        assert_eq!(mac.finalize(), hmac_sha256(b"k", b"part one part two"));
    }
}
