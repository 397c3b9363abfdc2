//! Small-domain keyed PRF used as the grid hash `H`.
//!
//! Algorithm 1 maps the location domain onto `x` grid columns and the time
//! subintervals onto `y` grid rows "using a simple hash function" `H`. The
//! same `H` must be recomputable by the enclave during query execution
//! (Step 1 of the BPB method), so it is keyed with a sub-key derived from
//! the master secret rather than being a public hash — otherwise the
//! adversarial service provider could evaluate it on the attribute domain
//! and learn the grid layout.

use crate::hmac::HmacSha256;

/// Keyed PRF mapping arbitrary byte strings into `[0, modulus)`.
#[derive(Clone)]
pub struct RangePrf {
    mac: HmacSha256,
}

impl std::fmt::Debug for RangePrf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangePrf").finish_non_exhaustive()
    }
}

impl RangePrf {
    /// Create a PRF instance from a 32-byte key.
    #[must_use]
    pub fn new(key: [u8; 32]) -> Self {
        RangePrf {
            mac: HmacSha256::new(&key),
        }
    }

    /// Evaluate the PRF on `input` and reduce into `[0, modulus)`.
    ///
    /// `modulus` must be non-zero. The reduction uses the top 128 bits of
    /// the HMAC output, so bias is negligible for any modulus that fits in
    /// a `u64` (the paper's grids have at most a few hundred thousand
    /// cells).
    #[must_use]
    pub fn eval_mod(&self, input: &[u8], modulus: u64) -> u64 {
        assert!(modulus > 0, "modulus must be non-zero");
        let tag = self.mac.mac(input);
        let wide = u128::from_be_bytes(tag[..16].try_into().expect("16 bytes"));
        (wide % u128::from(modulus)) as u64
    }

    /// Evaluate the PRF on a `u64`-encoded value.
    #[must_use]
    pub fn eval_u64_mod(&self, value: u64, modulus: u64) -> u64 {
        self.eval_mod(&value.to_be_bytes(), modulus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_in_range() {
        let prf = RangePrf::new([9u8; 32]);
        for v in 0..1000u64 {
            let a = prf.eval_u64_mod(v, 17);
            let b = prf.eval_u64_mod(v, 17);
            assert_eq!(a, b);
            assert!(a < 17);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = RangePrf::new([1u8; 32]);
        let b = RangePrf::new([2u8; 32]);
        let mismatches = (0..256u64)
            .filter(|v| a.eval_u64_mod(*v, 1 << 20) != b.eval_u64_mod(*v, 1 << 20))
            .count();
        assert!(mismatches > 250, "keys should produce different mappings");
    }

    #[test]
    fn roughly_uniform_over_small_range() {
        let prf = RangePrf::new([3u8; 32]);
        let modulus = 10u64;
        let mut counts = [0usize; 10];
        let n = 10_000u64;
        for v in 0..n {
            counts[prf.eval_u64_mod(v, modulus) as usize] += 1;
        }
        let expected = (n / modulus) as f64;
        for (bucket, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "bucket {bucket} count {c} deviates too much");
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be non-zero")]
    fn zero_modulus_panics() {
        let _ = RangePrf::new([0u8; 32]).eval_u64_mod(1, 0);
    }
}
