//! Branch-free ("register-oblivious") primitives.
//!
//! §4.3 of the paper adopts the `ogreater` / `omove` operators of Ohrimenko
//! et al. (USENIX Security 2016): comparisons and conditional moves that
//! compile to `cmp`/`setg`/`cmovz` so that neither the branch predictor nor
//! the cache observes which branch was "taken". In safe Rust we cannot emit
//! specific instructions, but we can express the same computations as
//! straight-line arithmetic over masks — no `if`/`else` on secret data, no
//! secret-dependent indexing — which is the property the rest of the
//! codebase (and the [`crate::meter::SideChannelMeter`] assertions) relies
//! on.

/// Oblivious "greater than" over `u64`: returns 1 if `x > y`, else 0,
/// without branching on the comparison result.
#[inline]
#[must_use]
pub fn ogreater(x: u64, y: u64) -> u64 {
    // (y - x) underflows (wraps) exactly when x > y; bit 63 of the wide
    // difference computed in i128 gives the sign without branching.
    let diff = i128::from(y) - i128::from(x);
    ((diff >> 127) & 1) as u64
}

/// Oblivious equality: 1 if `x == y`, else 0.
#[inline]
#[must_use]
pub fn oeq(x: u64, y: u64) -> u64 {
    let z = x ^ y;
    // z == 0  ⇔  (z | -z) has its top bit clear.
    let nz = (z | z.wrapping_neg()) >> 63;
    1 - nz
}

/// Oblivious move (`cmovz` analogue): returns `x` if `cond != 0`, else `y`.
#[inline]
#[must_use]
pub fn omove(cond: u64, x: u64, y: u64) -> u64 {
    // mask = all-ones when cond != 0, all-zeros otherwise.
    let nz = (cond | cond.wrapping_neg()) >> 63;
    let mask = nz.wrapping_neg();
    (x & mask) | (y & !mask)
}

/// Obliviously select between two equal-length byte slices into `out`:
/// copies `a` when `cond != 0`, `b` otherwise. Both inputs are always read
/// in full, so the memory-access pattern is independent of `cond`.
///
/// # Panics
/// Panics if the three slices do not have identical lengths (lengths are
/// public data in Concealer — every bin entry is padded to a fixed width).
pub fn oselect_bytes(cond: u64, a: &[u8], b: &[u8], out: &mut [u8]) {
    assert_eq!(
        a.len(),
        b.len(),
        "oselect_bytes: inputs must be same length"
    );
    assert_eq!(
        a.len(),
        out.len(),
        "oselect_bytes: output must match input length"
    );
    let nz = (cond | cond.wrapping_neg()) >> 63;
    let mask = (nz as u8).wrapping_neg();
    for i in 0..a.len() {
        out[i] = (a[i] & mask) | (b[i] & !mask);
    }
}

/// Obliviously swap two equal-length byte slices when `cond != 0`. Both
/// slices are always rewritten, so the write pattern is data-independent.
pub fn oswap_bytes(cond: u64, a: &mut [u8], b: &mut [u8]) {
    assert_eq!(a.len(), b.len(), "oswap_bytes: inputs must be same length");
    let nz = (cond | cond.wrapping_neg()) >> 63;
    let mask = (nz as u8).wrapping_neg();
    for i in 0..a.len() {
        let x = a[i];
        let y = b[i];
        let t = (x ^ y) & mask;
        a[i] = x ^ t;
        b[i] = y ^ t;
    }
}

/// Obliviously swap two `u64`s when `cond != 0`.
#[inline]
pub fn oswap_u64(cond: u64, a: &mut u64, b: &mut u64) {
    let nz = (cond | cond.wrapping_neg()) >> 63;
    let mask = nz.wrapping_neg();
    let t = (*a ^ *b) & mask;
    *a ^= t;
    *b ^= t;
}

/// Oblivious accumulation used when filtering a fetched bin (§4.3 Step 4):
/// returns `acc + value` if `matched != 0`, else `acc`, touching both
/// operands unconditionally.
#[inline]
#[must_use]
pub fn oadd_if(matched: u64, acc: u64, value: u64) -> u64 {
    acc.wrapping_add(omove(matched, value, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ogreater_matches_operator() {
        let cases = [
            (0u64, 0u64),
            (1, 0),
            (0, 1),
            (u64::MAX, 0),
            (0, u64::MAX),
            (u64::MAX, u64::MAX),
            (1 << 63, (1 << 63) - 1),
        ];
        for (x, y) in cases {
            assert_eq!(ogreater(x, y), u64::from(x > y), "x={x}, y={y}");
            assert_eq!(oeq(x, y), u64::from(x == y), "x={x}, y={y}");
        }
    }

    #[test]
    fn omove_selects() {
        assert_eq!(omove(1, 10, 20), 10);
        assert_eq!(omove(0, 10, 20), 20);
        assert_eq!(omove(u64::MAX, 10, 20), 10, "any non-zero cond selects x");
        assert_eq!(omove(7, 10, 20), 10);
    }

    #[test]
    fn oselect_bytes_works() {
        let a = [1u8, 2, 3, 4];
        let b = [9u8, 8, 7, 6];
        let mut out = [0u8; 4];
        oselect_bytes(1, &a, &b, &mut out);
        assert_eq!(out, a);
        oselect_bytes(0, &a, &b, &mut out);
        assert_eq!(out, b);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn oselect_bytes_length_mismatch_panics() {
        let mut out = [0u8; 2];
        oselect_bytes(1, &[1, 2, 3], &[1, 2], &mut out);
    }

    #[test]
    fn oswap_bytes_works() {
        let mut a = [1u8, 2, 3];
        let mut b = [7u8, 8, 9];
        oswap_bytes(0, &mut a, &mut b);
        assert_eq!((a, b), ([1, 2, 3], [7, 8, 9]));
        oswap_bytes(1, &mut a, &mut b);
        assert_eq!((a, b), ([7, 8, 9], [1, 2, 3]));
    }

    #[test]
    fn oswap_u64_works() {
        let (mut a, mut b) = (5u64, 11u64);
        oswap_u64(0, &mut a, &mut b);
        assert_eq!((a, b), (5, 11));
        oswap_u64(3, &mut a, &mut b);
        assert_eq!((a, b), (11, 5));
    }

    #[test]
    fn oadd_if_accumulates_conditionally() {
        assert_eq!(oadd_if(1, 10, 5), 15);
        assert_eq!(oadd_if(0, 10, 5), 10);
    }

    proptest! {
        #[test]
        fn prop_comparators_match(x in any::<u64>(), y in any::<u64>()) {
            prop_assert_eq!(ogreater(x, y), u64::from(x > y));
            prop_assert_eq!(oeq(x, y), u64::from(x == y));
        }

        #[test]
        fn prop_omove(cond in any::<u64>(), x in any::<u64>(), y in any::<u64>()) {
            let expect = if cond != 0 { x } else { y };
            prop_assert_eq!(omove(cond, x, y), expect);
        }

        #[test]
        fn prop_oswap_roundtrip(a in any::<u64>(), b in any::<u64>()) {
            let (mut x, mut y) = (a, b);
            oswap_u64(1, &mut x, &mut y);
            oswap_u64(1, &mut x, &mut y);
            prop_assert_eq!((x, y), (a, b));
        }
    }
}
