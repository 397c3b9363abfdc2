//! Deterministic authenticated encryption (the paper's `E_k`, DET).
//!
//! Concealer's Algorithm 1 requires an encryption function with two
//! properties:
//!
//! 1. **Determinism within an epoch** — the enclave must be able to
//!    regenerate exactly the same ciphertext as the data provider for a
//!    given `cid || counter` (to form trapdoors) or `location || time`
//!    (to form filters), using only the shared epoch key.
//! 2. **Ciphertext indistinguishability across tuples** — because every
//!    plaintext fed to `E_k` is concatenated with a timestamp (or a running
//!    counter), no two tuples ever encrypt the same plaintext, so the
//!    determinism never exposes equality of the underlying location /
//!    observation values.
//!
//! The construction here is an SIV-style deterministic AEAD:
//!
//! ```text
//! siv = CMAC(k_mac, plaintext)                 // synthetic IV, 16 bytes
//! ct  = CTR(k_enc, iv = siv, plaintext)
//! out = siv || ct
//! ```
//!
//! Decryption recomputes the CMAC over the recovered plaintext and checks it
//! against the transmitted SIV, giving integrity for free.
//!
//! For the *searchable* columns (the `Index` column and the filter columns)
//! the full ciphertext is used as an opaque, fixed-derivation byte string:
//! equality of trapdoor and stored value is what the DBMS index matches on.

use crate::aes::{Aes, BLOCK_SIZE};
use crate::cmac::Cmac;
use crate::ctr::{keystream_xor, CounterLane};
use crate::{CryptoError, Result};

/// Length of the synthetic IV prepended to every DET ciphertext.
pub const SIV_SIZE: usize = BLOCK_SIZE;

/// A reusable arena for batched DET operations over one bin.
///
/// All outputs of an [`DeterministicCipher::encrypt_batch`] /
/// [`DeterministicCipher::decrypt_batch`] call live in one contiguous
/// backing buffer instead of one heap allocation per row; per-item slices
/// are addressed through an index table. Reusing the arena across bins
/// (it is cleared, not shrunk, at the start of every batch call) makes the
/// steady-state fetch path allocation-free.
#[derive(Debug, Default, Clone)]
pub struct DetBuffer {
    data: Vec<u8>,
    /// `(offset, len)` into `data` per item; `None` marks an item whose
    /// decryption failed (authentication failure or malformed ciphertext).
    slots: Vec<Option<(usize, usize)>>,
}

impl DetBuffer {
    /// A fresh, empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An arena pre-sized for `items` outputs of roughly `bytes_per_item`
    /// bytes each.
    #[must_use]
    pub fn with_capacity(items: usize, bytes_per_item: usize) -> Self {
        DetBuffer {
            data: Vec::with_capacity(items * bytes_per_item),
            slots: Vec::with_capacity(items),
        }
    }

    /// Drop all items but keep the backing allocations.
    pub fn clear(&mut self) {
        self.data.clear();
        self.slots.clear();
    }

    /// Number of items (including failed decryptions) in the arena.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The bytes of item `idx`, or `None` if the item failed to decrypt or
    /// `idx` is out of range.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&[u8]> {
        let (off, len) = (*self.slots.get(idx)?)?;
        Some(&self.data[off..off + len])
    }

    /// Iterate over the items in insertion order (`None` for failures).
    pub fn iter(&self) -> impl Iterator<Item = Option<&[u8]>> {
        self.slots
            .iter()
            .map(|slot| slot.map(|(off, len)| &self.data[off..off + len]))
    }
}

/// Deterministic authenticated cipher (AES-CMAC-SIV).
#[derive(Clone)]
pub struct DeterministicCipher {
    cmac: Cmac,
    enc: Aes,
}

impl std::fmt::Debug for DeterministicCipher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeterministicCipher")
            .finish_non_exhaustive()
    }
}

impl DeterministicCipher {
    /// Build a deterministic cipher from independent MAC and encryption keys.
    #[must_use]
    pub fn new(mac_key: &[u8; 32], enc_key: &[u8; 32]) -> Self {
        Self::from_ciphers(Aes::new_256(mac_key), Aes::new_256(enc_key))
    }

    /// A cipher over two already-expanded AES keys.
    pub(crate) fn from_ciphers(mac: Aes, enc: Aes) -> Self {
        DeterministicCipher {
            cmac: Cmac::new(mac),
            enc,
        }
    }

    /// Deterministically encrypt `plaintext`.
    ///
    /// Output layout: `siv (16) || ciphertext (len)`. Calling this twice
    /// with the same key and plaintext yields byte-identical output.
    #[must_use]
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(SIV_SIZE + plaintext.len());
        self.encrypt_into(plaintext, &mut out);
        out
    }

    /// Deterministically encrypt `plaintext`, appending `siv || ciphertext`
    /// to `out` instead of allocating. Byte-identical to [`Self::encrypt`].
    pub fn encrypt_into(&self, plaintext: &[u8], out: &mut Vec<u8>) {
        let siv = self.cmac.mac(plaintext);
        let start = out.len();
        out.extend_from_slice(&siv);
        out.extend_from_slice(plaintext);
        keystream_xor(
            &self.enc,
            &siv,
            CounterLane::Low64,
            &mut out[start + SIV_SIZE..],
        );
    }

    /// [`Self::encrypt`] every plaintext of `plaintexts`, appending the
    /// ciphertexts to `out` in order, for plaintexts of at most one block:
    /// `N ≤ 16` bytes in, `C = 16 + N` bytes out, byte-identical to
    /// [`Self::encrypt`] on each.
    ///
    /// Such a ciphertext is one CMAC block and one CTR block, two
    /// dependent block encryptions. The items go side by side in groups of
    /// eight instead — the group's CMAC blocks in one
    /// [`Aes::encrypt_blocks`] call, then its CTR blocks in another — so
    /// the hardware rounds have eight independent blocks in flight.
    pub fn encrypt_lockstep<const N: usize, const C: usize>(
        &self,
        plaintexts: impl IntoIterator<Item = [u8; N]>,
        out: &mut Vec<[u8; C]>,
    ) {
        const { assert!(N <= BLOCK_SIZE && C == SIV_SIZE + N, "C = 16 + N, N ≤ 16") };
        let mut plaintexts = plaintexts.into_iter().fuse();
        out.reserve(plaintexts.size_hint().0);
        loop {
            let mut group = [[0u8; N]; 8];
            let mut n = 0;
            for (slot, plain) in group.iter_mut().zip(&mut plaintexts) {
                *slot = plain;
                n += 1;
            }
            if n == 0 {
                return;
            }
            let mut sivs = [[0u8; BLOCK_SIZE]; 8];
            self.cmac.mac_each(&group[..n], &mut sivs[..n]);
            let mut pads = sivs.map(|siv| CounterLane::Low64.block(&siv, 0));
            self.enc.encrypt_blocks(&mut pads[..n]);
            for ((plain, siv), pad) in group[..n].iter().zip(&sivs).zip(&pads) {
                let mut ct = [0u8; C];
                let (head, body) = ct.split_at_mut(SIV_SIZE);
                head.copy_from_slice(siv);
                for ((c, p), k) in body.iter_mut().zip(plain).zip(pad) {
                    *c = p ^ k;
                }
                out.push(ct);
            }
        }
    }

    /// Decrypt and authenticate a ciphertext produced by [`Self::encrypt`].
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(ciphertext.len().saturating_sub(SIV_SIZE));
        self.decrypt_into(ciphertext, &mut out)?;
        Ok(out)
    }

    /// Decrypt and authenticate, appending the plaintext to `out` instead of
    /// allocating. On error `out` is left exactly as it was passed in.
    pub fn decrypt_into(&self, ciphertext: &[u8], out: &mut Vec<u8>) -> Result<()> {
        if ciphertext.len() < SIV_SIZE {
            return Err(CryptoError::MalformedCiphertext {
                reason: "shorter than synthetic IV",
            });
        }
        let (siv_bytes, body) = ciphertext.split_at(SIV_SIZE);
        let siv: [u8; SIV_SIZE] = siv_bytes.try_into().expect("checked length");
        let start = out.len();
        out.extend_from_slice(body);
        keystream_xor(&self.enc, &siv, CounterLane::Low64, &mut out[start..]);
        let expected = self.cmac.mac(&out[start..]);
        if !crate::ct_eq(&expected, &siv) {
            out.truncate(start);
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(())
    }

    /// Encrypt a whole bin of plaintexts into one arena: equivalent to
    /// calling [`Self::encrypt`] per item (byte-for-byte, in order) but with
    /// all outputs packed into `out`'s backing buffer. `out` is cleared
    /// first, so an arena can be reused across bins without reallocating.
    pub fn encrypt_batch<'a, I>(&self, plaintexts: I, out: &mut DetBuffer)
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        out.clear();
        for plaintext in plaintexts {
            let start = out.data.len();
            self.encrypt_into(plaintext, &mut out.data);
            out.slots.push(Some((start, out.data.len() - start)));
        }
    }

    /// Decrypt a whole bin of ciphertexts into one arena. Per-item results
    /// match [`Self::decrypt`] exactly: successfully authenticated
    /// plaintexts appear byte-for-byte at their item index, failures (of
    /// either kind) become `None` slots. Returns the number of failures.
    /// `out` is cleared first, so an arena can be reused across bins.
    pub fn decrypt_batch<'a, I>(&self, ciphertexts: I, out: &mut DetBuffer) -> usize
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        out.clear();
        let mut failures = 0usize;
        for ciphertext in ciphertexts {
            let start = out.data.len();
            match self.decrypt_into(ciphertext, &mut out.data) {
                Ok(()) => out.slots.push(Some((start, out.data.len() - start))),
                Err(_) => {
                    failures += 1;
                    out.slots.push(None);
                }
            }
        }
        failures
    }

    /// Produce a *searchable token* for `plaintext`: the deterministic
    /// ciphertext itself. The enclave uses this to generate trapdoors that
    /// match the values the data provider stored in the indexed column.
    #[must_use]
    pub fn token(&self, plaintext: &[u8]) -> Vec<u8> {
        self.encrypt(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cipher() -> DeterministicCipher {
        DeterministicCipher::new(&[1u8; 32], &[2u8; 32])
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let c = cipher();
        assert_eq!(c.encrypt(b"loc-17||t=100"), c.encrypt(b"loc-17||t=100"));
    }

    #[test]
    fn distinct_inputs_give_distinct_ciphertexts() {
        let c = cipher();
        assert_ne!(c.encrypt(b"loc-17||t=100"), c.encrypt(b"loc-17||t=101"));
        assert_ne!(c.encrypt(b"cid-4||1"), c.encrypt(b"cid-4||2"));
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = cipher();
        let b = DeterministicCipher::new(&[1u8; 32], &[3u8; 32]);
        let d = DeterministicCipher::new(&[4u8; 32], &[2u8; 32]);
        assert_ne!(a.encrypt(b"v"), b.encrypt(b"v"));
        assert_ne!(a.encrypt(b"v"), d.encrypt(b"v"));
    }

    #[test]
    fn roundtrip() {
        let c = cipher();
        for msg in [
            &b""[..],
            b"a",
            b"exactly sixteen!",
            b"a longer message spanning multiple aes blocks, yes indeed",
        ] {
            let ct = c.encrypt(msg);
            assert_eq!(c.decrypt(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn tampering_detected() {
        let c = cipher();
        let mut ct = c.encrypt(b"the real tuple payload");
        ct[SIV_SIZE + 2] ^= 0xff;
        assert_eq!(c.decrypt(&ct), Err(CryptoError::AuthenticationFailed));
        let mut ct2 = c.encrypt(b"the real tuple payload");
        ct2[0] ^= 0x01; // corrupt the SIV
        assert_eq!(c.decrypt(&ct2), Err(CryptoError::AuthenticationFailed));
    }

    #[test]
    fn too_short_rejected() {
        let c = cipher();
        assert!(matches!(
            c.decrypt(&[0u8; 5]),
            Err(CryptoError::MalformedCiphertext { .. })
        ));
    }

    #[test]
    fn token_equals_encrypt() {
        let c = cipher();
        assert_eq!(c.token(b"cid7||3"), c.encrypt(b"cid7||3"));
    }

    #[test]
    fn empty_batch_yields_empty_arena() {
        let c = cipher();
        let mut buf = DetBuffer::new();
        c.encrypt_batch(std::iter::empty(), &mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        assert_eq!(c.decrypt_batch(std::iter::empty(), &mut buf), 0);
        assert!(buf.is_empty());
        assert_eq!(buf.get(0), None);
    }

    #[test]
    fn single_row_batch_equals_per_row() {
        let c = cipher();
        let msg = b"one lonely tuple".as_slice();
        let mut buf = DetBuffer::new();
        c.encrypt_batch([msg], &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.get(0).unwrap(), c.encrypt(msg).as_slice());
        let ct = c.encrypt(msg);
        let mut plain = DetBuffer::new();
        assert_eq!(c.decrypt_batch([ct.as_slice()], &mut plain), 0);
        assert_eq!(plain.get(0).unwrap(), msg);
    }

    #[test]
    fn decrypt_batch_marks_failures_without_poisoning_neighbors() {
        let c = cipher();
        let good = c.encrypt(b"survives");
        let mut tampered = c.encrypt(b"tampered row");
        tampered[SIV_SIZE + 1] ^= 0x80;
        let short = vec![0u8; 3];
        let mut buf = DetBuffer::new();
        let failures = c.decrypt_batch(
            [good.as_slice(), tampered.as_slice(), short.as_slice()],
            &mut buf,
        );
        assert_eq!(failures, 2);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.get(0).unwrap(), b"survives");
        assert_eq!(buf.get(1), None);
        assert_eq!(buf.get(2), None);
    }

    #[test]
    fn decrypt_into_failure_leaves_out_untouched() {
        let c = cipher();
        let mut out = b"prefix".to_vec();
        let mut ct = c.encrypt(b"payload");
        ct[0] ^= 1;
        assert_eq!(
            c.decrypt_into(&ct, &mut out),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(out, b"prefix");
        c.decrypt_into(&c.encrypt(b"payload"), &mut out).unwrap();
        assert_eq!(out, b"prefixpayload");
    }

    proptest! {
        #[test]
        fn prop_roundtrip(msg in proptest::collection::vec(any::<u8>(), 0..512)) {
            let c = cipher();
            let ct = c.encrypt(&msg);
            prop_assert_eq!(c.decrypt(&ct).unwrap(), msg);
        }

        #[test]
        fn prop_deterministic(msg in proptest::collection::vec(any::<u8>(), 0..256)) {
            let c = cipher();
            prop_assert_eq!(c.encrypt(&msg), c.encrypt(&msg));
        }

        #[test]
        fn prop_distinct_messages_distinct_ciphertexts(
            a in proptest::collection::vec(any::<u8>(), 0..128),
            b in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            prop_assume!(a != b);
            let c = cipher();
            prop_assert_ne!(c.encrypt(&a), c.encrypt(&b));
        }

        /// Batched encryption over a bin equals the per-row calls
        /// byte-for-byte, including the empty-bin and single-row edges
        /// (the generator's length range covers both).
        #[test]
        fn prop_encrypt_batch_equals_per_row(
            bin in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96), 0..24),
        ) {
            let c = cipher();
            let mut buf = DetBuffer::new();
            c.encrypt_batch(bin.iter().map(Vec::as_slice), &mut buf);
            prop_assert_eq!(buf.len(), bin.len());
            for (i, msg) in bin.iter().enumerate() {
                prop_assert_eq!(buf.get(i).unwrap(), c.encrypt(msg).as_slice());
            }
        }

        /// Batched decryption equals the per-row calls, item by item —
        /// successes byte-for-byte, failures in the same positions — even
        /// with tampered rows mixed in, and across arena reuse.
        #[test]
        fn prop_decrypt_batch_equals_per_row(
            bin in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96), 0..24),
            tamper_mask in any::<u32>(),
        ) {
            let c = cipher();
            let cts: Vec<Vec<u8>> = bin
                .iter()
                .enumerate()
                .map(|(i, msg)| {
                    let mut ct = c.encrypt(msg);
                    if tamper_mask & (1 << (i % 32)) != 0 {
                        let idx = SIV_SIZE % ct.len();
                        ct[idx] ^= 0x55;
                    }
                    ct
                })
                .collect();
            let mut buf = DetBuffer::new();
            // Prime the arena with junk first: a reused arena must not leak
            // bytes from the previous batch into this one.
            c.encrypt_batch([b"junk from a previous bin".as_slice()], &mut buf);
            let failures = c.decrypt_batch(cts.iter().map(Vec::as_slice), &mut buf);
            prop_assert_eq!(buf.len(), cts.len());
            let mut expected_failures = 0usize;
            for (i, ct) in cts.iter().enumerate() {
                match c.decrypt(ct) {
                    Ok(plain) => prop_assert_eq!(buf.get(i).unwrap(), plain.as_slice()),
                    Err(_) => {
                        expected_failures += 1;
                        prop_assert_eq!(buf.get(i), None);
                    }
                }
            }
            prop_assert_eq!(failures, expected_failures);
        }
    }
}
