//! Canonical byte encodings of the plaintexts Concealer encrypts.
//!
//! Both the data provider and the enclave must produce byte-identical
//! plaintexts before applying the deterministic cipher — the `Index` column
//! stored by DP and the trapdoor generated by the enclave match only if the
//! underlying encodings match. This module is that shared convention:
//! tagged, length-unambiguous, fixed-width encodings with no allocation
//! tricks. All integers are big-endian.

use crate::{CoreError, Result};

/// Tag byte distinguishing the kinds of plaintext fed to the deterministic
/// cipher; prevents cross-protocol collisions (a fake-tuple id can never
/// encode to the same bytes as a real index entry).
mod tag {
    pub const INDEX_REAL: u8 = 0x01;
    pub const INDEX_FAKE: u8 = 0x02;
    pub const FILTER_DIMS: u8 = 0x03;
    pub const FILTER_OBS: u8 = 0x04;
    pub const PAYLOAD: u8 = 0x05;
}

/// Split the next `N` bytes off the front of `buf`. Panics on underflow:
/// every caller has checked the remaining length first.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_at(N);
    *buf = rest;
    head.try_into().expect("split_at(N) yields N bytes")
}

/// Length of an `Index` plaintext, real or fake: a tag byte and eight
/// bytes of identity.
pub const INDEX_PLAIN_LEN: usize = 9;

/// `tag` followed by the eight identity bytes `id`.
fn index_plain(tag: u8, id: [u8; 8]) -> [u8; INDEX_PLAIN_LEN] {
    let mut out = [tag; INDEX_PLAIN_LEN];
    out[1..].copy_from_slice(&id);
    out
}

/// Plaintext for the `Index` column of a real tuple: `E_k(cid || counter)`.
#[must_use]
pub fn index_real_plain(cell_id: u32, counter: u32) -> [u8; INDEX_PLAIN_LEN] {
    let id = (u64::from(cell_id) << 32) | u64::from(counter);
    index_plain(tag::INDEX_REAL, id.to_be_bytes())
}

/// Plaintext for the `Index` column of a fake tuple: `E_k(f || j)`.
#[must_use]
pub fn index_fake_plain(fake_id: u64) -> [u8; INDEX_PLAIN_LEN] {
    index_plain(tag::INDEX_FAKE, fake_id.to_be_bytes())
}

/// Plaintext for the dimension filter column: `E_k(l || t)` generalized to
/// all indexed attributes, with the timestamp quantized to the configured
/// granularity.
#[must_use]
pub fn filter_dims_plain(dims: &[u64], time_granule: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 * (dims.len() + 1));
    out.push(tag::FILTER_DIMS);
    out.extend_from_slice(&(dims.len() as u16).to_be_bytes());
    for d in dims {
        out.extend_from_slice(&d.to_be_bytes());
    }
    out.extend_from_slice(&time_granule.to_be_bytes());
    out
}

/// Plaintext for the observation filter column: `E_k(o || t)`.
#[must_use]
pub fn filter_obs_plain(observation: u64, time_granule: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.push(tag::FILTER_OBS);
    out.extend_from_slice(&observation.to_be_bytes());
    out.extend_from_slice(&time_granule.to_be_bytes());
    out
}

/// Plaintext for the payload column: the full tuple
/// `E_k(payload || dims || t)`, decrypted only when the aggregate needs
/// attribute values.
#[must_use]
pub fn payload_plain(dims: &[u64], time: u64, payload: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 + 8 * (dims.len() + payload.len() + 1));
    out.push(tag::PAYLOAD);
    out.extend_from_slice(&(dims.len() as u16).to_be_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    for d in dims {
        out.extend_from_slice(&d.to_be_bytes());
    }
    out.extend_from_slice(&time.to_be_bytes());
    for p in payload {
        out.extend_from_slice(&p.to_be_bytes());
    }
    out
}

/// Decode a payload plaintext back into `(dims, time, payload)`.
pub fn decode_payload_plain(mut buf: &[u8]) -> Result<(Vec<u64>, u64, Vec<u64>)> {
    if buf.len() < 5 || buf[0] != tag::PAYLOAD {
        return Err(CoreError::CorruptMetadata);
    }
    buf = &buf[1..];
    let ndims = u16::from_be_bytes(take(&mut buf)) as usize;
    let npayload = u16::from_be_bytes(take(&mut buf)) as usize;
    if buf.len() != 8 * (ndims + npayload + 1) {
        return Err(CoreError::CorruptMetadata);
    }
    let mut next_u64 = || u64::from_be_bytes(take(&mut buf));
    let dims = (0..ndims).map(|_| next_u64()).collect();
    let time = next_u64();
    let payload = (0..npayload).map(|_| next_u64()).collect();
    Ok((dims, time, payload))
}

/// Encode a `u32` vector (the `cell_id[]` / `c_tuple[]` metadata vectors)
/// for non-deterministic encryption.
#[must_use]
pub fn encode_u32_vector(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 * values.len());
    out.extend_from_slice(&(values.len() as u32).to_be_bytes());
    for v in values {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out
}

/// Decode a `u32` vector encoded by [`encode_u32_vector`].
pub fn decode_u32_vector(mut buf: &[u8]) -> Result<Vec<u32>> {
    if buf.len() < 4 {
        return Err(CoreError::CorruptMetadata);
    }
    let n = u32::from_be_bytes(take(&mut buf)) as usize;
    if buf.len() != 4 * n {
        return Err(CoreError::CorruptMetadata);
    }
    Ok((0..n).map(|_| u32::from_be_bytes(take(&mut buf))).collect())
}

/// Decode a real-index plaintext back into `(cell_id, counter)`; returns
/// `None` for fake-index plaintexts or malformed buffers. Used by the
/// enclave when mapping fetched rows back onto hash-chain positions.
#[must_use]
pub fn decode_index_plain(buf: &[u8]) -> Option<(u32, u32)> {
    if buf.len() == INDEX_PLAIN_LEN && buf[0] == tag::INDEX_REAL {
        let mut b = &buf[1..];
        Some((
            u32::from_be_bytes(take(&mut b)),
            u32::from_be_bytes(take(&mut b)),
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_encodings_distinct() {
        assert_ne!(index_real_plain(1, 1), index_fake_plain(1));
        assert_ne!(index_real_plain(1, 2), index_real_plain(2, 1));
        assert_ne!(index_fake_plain(1), index_fake_plain(2));
    }

    /// Provider and enclave must agree on these bytes exactly: one golden
    /// vector per encoder, pinned independently of how they are written.
    #[test]
    fn index_real_plain_golden_bytes() {
        assert_eq!(
            index_real_plain(0x0102_0304, 0xA0B0_C0D0),
            [0x01, 1, 2, 3, 4, 0xA0, 0xB0, 0xC0, 0xD0]
        );
    }

    #[test]
    fn index_fake_plain_golden_bytes() {
        assert_eq!(
            index_fake_plain(0x0102_0304_0506_0708),
            [0x02, 1, 2, 3, 4, 5, 6, 7, 8]
        );
    }

    #[test]
    fn filter_dims_plain_golden_bytes() {
        assert_eq!(
            filter_dims_plain(&[0x11, 0x2233], 0x0A0B),
            [
                0x03, 0, 2, // tag, ndims
                0, 0, 0, 0, 0, 0, 0, 0x11, // dims[0]
                0, 0, 0, 0, 0, 0, 0x22, 0x33, // dims[1]
                0, 0, 0, 0, 0, 0, 0x0A, 0x0B, // time granule
            ]
        );
    }

    #[test]
    fn filter_obs_plain_golden_bytes() {
        assert_eq!(
            filter_obs_plain(0x03E9, u64::MAX - 1),
            [
                0x04, // tag
                0, 0, 0, 0, 0, 0, 0x03, 0xE9, // observation
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE, // time granule
            ]
        );
    }

    #[test]
    fn payload_plain_golden_bytes() {
        assert_eq!(
            payload_plain(&[7], 0x0100, &[0xAABB, 1]),
            [
                0x05, 0, 1, 0, 2, // tag, ndims, npayload
                0, 0, 0, 0, 0, 0, 0, 7, // dims[0]
                0, 0, 0, 0, 0, 0, 1, 0, // time
                0, 0, 0, 0, 0, 0, 0xAA, 0xBB, // payload[0]
                0, 0, 0, 0, 0, 0, 0, 1, // payload[1]
            ]
        );
    }

    #[test]
    fn encode_u32_vector_golden_bytes() {
        assert_eq!(
            encode_u32_vector(&[1, 0xDEAD_BEEF]),
            [0, 0, 0, 2, 0, 0, 0, 1, 0xDE, 0xAD, 0xBE, 0xEF]
        );
        assert_eq!(encode_u32_vector(&[]), [0, 0, 0, 0]);
    }

    /// The DET ciphertext of one plaintext per encoder under a fixed epoch
    /// key: what the provider stores and the enclave regenerates. Pins key
    /// derivation, CMAC, AES-256 and the CTR layout together, whichever
    /// cipher path produced them.
    #[test]
    fn det_ciphertext_golden_bytes() {
        use concealer_crypto::{EpochId, MasterKey};
        let key = MasterKey::from_bytes([0x42; 32]).epoch_key(EpochId(7), 0);
        let sealed = |plain: &[u8]| -> String {
            let bytes = key.det.encrypt(plain);
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        };
        assert_eq!(
            sealed(&index_real_plain(0x0102_0304, 9)),
            "d745a68ef1aa00a6b14f74a953441c41e2ec0dc1ee0a29cdb7"
        );
        assert_eq!(
            sealed(&index_fake_plain(0x0102_0304_0506_0708)),
            "2949991886eed744c744c2eae07960c71d90f9eb6b6b887382"
        );
        assert_eq!(
            sealed(&filter_dims_plain(&[0x11, 0x2233], 0x0A0B)),
            "2491633f4c70089de3f5e42eba1aaa9450215d18a33a6b320f\
             86823d2b09a1ff8e77febd61868ca8a29442"
        );
        assert_eq!(
            sealed(&filter_obs_plain(0x03E9, u64::MAX - 1)),
            "6cae8ded15cd180d842c936f951ecb79954d36306ba6d770efa91756a3a3936f65"
        );
        assert_eq!(
            sealed(&payload_plain(&[7], 0x0100, &[0xAABB, 1])),
            "4a4eef0cccc6eb6ae55c7b25d5a1fb629705895c63a54ae146\
             27909f19751738b0603fdc3c7b23278a786d09c1235f64683cb9cab9"
        );
    }

    #[test]
    fn index_roundtrip() {
        let p = index_real_plain(42, 1337);
        assert_eq!(decode_index_plain(&p), Some((42, 1337)));
        let f = index_fake_plain(9);
        assert_eq!(decode_index_plain(&f), None);
        assert!(decode_index_plain(b"short").is_none());
    }

    #[test]
    fn filter_encodings_depend_on_all_fields() {
        assert_ne!(filter_dims_plain(&[1], 10), filter_dims_plain(&[1], 11));
        assert_ne!(filter_dims_plain(&[1], 10), filter_dims_plain(&[2], 10));
        assert_ne!(
            filter_dims_plain(&[1, 2], 10),
            filter_dims_plain(&[2, 1], 10)
        );
        assert_ne!(filter_obs_plain(5, 10), filter_dims_plain(&[5], 10));
        assert_ne!(filter_obs_plain(5, 10), filter_obs_plain(5, 11));
    }

    #[test]
    fn payload_roundtrip() {
        let p = payload_plain(&[3, 4], 999, &[7, 8, 9]);
        let (dims, time, payload) = decode_payload_plain(&p).unwrap();
        assert_eq!(dims, vec![3, 4]);
        assert_eq!(time, 999);
        assert_eq!(payload, vec![7, 8, 9]);
    }

    #[test]
    fn payload_empty_fields_roundtrip() {
        let p = payload_plain(&[], 1, &[]);
        let (dims, time, payload) = decode_payload_plain(&p).unwrap();
        assert!(dims.is_empty());
        assert_eq!(time, 1);
        assert!(payload.is_empty());
    }

    #[test]
    fn payload_rejects_garbage() {
        assert!(decode_payload_plain(&[]).is_err());
        assert!(decode_payload_plain(&[0xff, 0, 0, 0, 0]).is_err());
        let mut p = payload_plain(&[1], 2, &[3]);
        p.truncate(p.len() - 1);
        assert!(decode_payload_plain(&p).is_err());
    }

    #[test]
    fn u32_vector_roundtrip() {
        for v in [vec![], vec![1u32], vec![1, 2, 3, u32::MAX]] {
            assert_eq!(decode_u32_vector(&encode_u32_vector(&v)).unwrap(), v);
        }
        assert!(decode_u32_vector(&[1, 2]).is_err());
        let mut enc = encode_u32_vector(&[1, 2, 3]);
        enc.push(0);
        assert!(decode_u32_vector(&enc).is_err());
    }
}
