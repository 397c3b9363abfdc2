//! Data-independent (oblivious) sorting.
//!
//! §4.3 of the paper sorts trapdoor lists and fetched tuples with a
//! *data-independent* sorting algorithm so that the enclave's memory-access
//! pattern does not depend on which tuples matched the query: bitonic sort
//! (Batcher 1968) when everything fits in the enclave, or Leighton's
//! column sort when it does not (footnote 5 of the paper). Every fetch
//! unit here fits, so bitonic sort is the one implemented — over a generic
//! element type with a `u64` sort key extracted up front, reporting every
//! compare-exchange step to the [`SideChannelMeter`] so tests can check
//! the step count depends only on the input *length*, never on the key
//! values.

use crate::meter::SideChannelMeter;
use crate::oblivious::{ogreater, oswap_u64};

/// Tag value marking padding / sentinel entries inside the sorting network.
const SENTINEL_TAG: u64 = u64::MAX;

/// Sort `items` in ascending order of `key(item)` using a bitonic sorting
/// network. The sequence of compare-exchange positions depends only on
/// `items.len()`, never on the key values.
///
/// Inputs whose length is not a power of two are padded with
/// maximal-key sentinels; sentinels are tagged and stripped after the
/// network runs, so duplicate keys (including `u64::MAX`) are handled
/// correctly.
pub fn bitonic_sort_by_key<T, F>(items: &mut [T], meter: &SideChannelMeter, key: F)
where
    F: Fn(&T) -> u64,
{
    let n = items.len();
    if n <= 1 {
        return;
    }
    let mut pairs: Vec<(u64, u64)> = items
        .iter()
        .enumerate()
        .map(|(i, item)| (key(item), i as u64))
        .collect();
    bitonic_network(&mut pairs, meter);
    let perm: Vec<u64> = pairs.iter().map(|p| p.1).collect();
    apply_permutation(items, &perm);
}

/// Run the bitonic network over `(key, tag)` pairs. The network pads the
/// working arrays to a power of two with its own marked padding entries and
/// strips them again afterwards, so on return `pairs` holds exactly the
/// caller's entries in non-decreasing key order — even when caller keys tie
/// with the padding key (`u64::MAX`).
fn bitonic_network(pairs: &mut Vec<(u64, u64)>, meter: &SideChannelMeter) {
    let n = pairs.len();
    if n <= 1 {
        return;
    }
    let padded = n.next_power_of_two();

    let mut keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    let mut tags: Vec<u64> = pairs.iter().map(|p| p.1).collect();
    // 1 for caller entries, 0 for the network's own padding; travels with
    // the entry through every compare-exchange so padding can be stripped
    // without relying on key or tag values.
    let mut real: Vec<u64> = vec![1; n];
    keys.resize(padded, u64::MAX);
    tags.resize(padded, SENTINEL_TAG);
    real.resize(padded, 0);

    let mut steps = 0u64;
    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..padded {
                let l = i ^ j;
                if l > i {
                    let ascending = (i & k) == 0;
                    let out_of_order = if ascending {
                        ogreater(keys[i], keys[l])
                    } else {
                        ogreater(keys[l], keys[i])
                    };
                    {
                        let (lo, hi) = keys.split_at_mut(l);
                        oswap_u64(out_of_order, &mut lo[i], &mut hi[0]);
                    }
                    {
                        let (lo, hi) = tags.split_at_mut(l);
                        oswap_u64(out_of_order, &mut lo[i], &mut hi[0]);
                    }
                    {
                        let (lo, hi) = real.split_at_mut(l);
                        oswap_u64(out_of_order, &mut lo[i], &mut hi[0]);
                    }
                    steps += 1;
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    meter.add_sort_steps(steps);
    meter.add_comparisons(steps);
    meter.add_cmoves(2 * steps);

    pairs.clear();
    pairs.extend(
        (0..padded)
            .filter(|&i| real[i] == 1)
            .map(|i| (keys[i], tags[i])),
    );
    debug_assert_eq!(pairs.len(), n);
}

/// Reorder `items` so that output position `i` receives the input element
/// at `perm[i]`. Runs in place via cycle-following on the inverse
/// permutation, so no `Clone` bound is required.
fn apply_permutation<T>(items: &mut [T], perm: &[u64]) {
    let n = items.len();
    debug_assert_eq!(perm.len(), n);
    // inverse[src] = dest
    let mut inverse = vec![0usize; n];
    for (dest, &src) in perm.iter().enumerate() {
        inverse[src as usize] = dest;
    }
    for start in 0..n {
        while inverse[start] != start {
            let dest = inverse[start];
            items.swap(start, dest);
            inverse.swap(start, dest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn bitonic_sorts_various_lengths() {
        let meter = SideChannelMeter::new();
        for n in [0usize, 1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 100, 255, 256, 1000] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let mut v: Vec<u64> = (0..n as u64).collect();
            v.shuffle(&mut rng);
            bitonic_sort_by_key(&mut v, &meter, |x| *x);
            let expect: Vec<u64> = (0..n as u64).collect();
            assert_eq!(v, expect, "n={n}");
        }
    }

    #[test]
    fn bitonic_handles_extreme_keys() {
        let meter = SideChannelMeter::new();
        let mut v = vec![u64::MAX, 0, u64::MAX, 5, 0, u64::MAX - 1];
        let mut expect = v.clone();
        expect.sort_unstable();
        bitonic_sort_by_key(&mut v, &meter, |x| *x);
        assert_eq!(v, expect);
    }

    #[test]
    fn bitonic_sort_step_count_depends_only_on_length() {
        let meter = SideChannelMeter::new();
        let mut sorted: Vec<u64> = (0..100).collect();
        let (_, d1) = meter.measure(|| bitonic_sort_by_key(&mut sorted, &meter, |x| *x));

        let mut reversed: Vec<u64> = (0..100).rev().collect();
        let (_, d2) = meter.measure(|| bitonic_sort_by_key(&mut reversed, &meter, |x| *x));

        let mut constant: Vec<u64> = vec![7; 100];
        let (_, d3) = meter.measure(|| bitonic_sort_by_key(&mut constant, &meter, |x| *x));

        assert_eq!(d1.sort_steps, d2.sort_steps);
        assert_eq!(d2.sort_steps, d3.sort_steps);
        assert_eq!(d1.cmoves, d2.cmoves);
        assert!(d1.sort_steps > 0);
    }

    #[test]
    fn bitonic_permutes_attached_payloads() {
        let meter = SideChannelMeter::new();
        let mut v = vec![(3u64, "c"), (1, "a"), (2, "b"), (5, "e"), (4, "d")];
        bitonic_sort_by_key(&mut v, &meter, |x| x.0);
        assert_eq!(
            v.iter().map(|x| x.1).collect::<Vec<_>>(),
            vec!["a", "b", "c", "d", "e"]
        );
    }

    #[test]
    fn bitonic_with_duplicate_keys_preserves_multiset() {
        let meter = SideChannelMeter::new();
        let mut v = vec![(3u64, 'a'), (1, 'b'), (3, 'c'), (1, 'd'), (2, 'e')];
        bitonic_sort_by_key(&mut v, &meter, |x| x.0);
        let keys: Vec<u64> = v.iter().map(|x| x.0).collect();
        assert_eq!(keys, vec![1, 1, 2, 3, 3]);
        let mut chars: Vec<char> = v.iter().map(|x| x.1).collect();
        chars.sort_unstable();
        assert_eq!(chars, vec!['a', 'b', 'c', 'd', 'e']);
    }

    #[test]
    fn apply_permutation_identity_and_reverse() {
        let mut v = vec![10, 20, 30, 40];
        apply_permutation(&mut v, &[0, 1, 2, 3]);
        assert_eq!(v, vec![10, 20, 30, 40]);
        apply_permutation(&mut v, &[3, 2, 1, 0]);
        assert_eq!(v, vec![40, 30, 20, 10]);
        let mut v = vec!['a', 'b', 'c'];
        apply_permutation(&mut v, &[2, 0, 1]);
        assert_eq!(v, vec!['c', 'a', 'b']);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_bitonic_matches_std(mut v in proptest::collection::vec(any::<u64>(), 0..300)) {
            let meter = SideChannelMeter::new();
            let mut expect = v.clone();
            expect.sort_unstable();
            bitonic_sort_by_key(&mut v, &meter, |x| *x);
            prop_assert_eq!(v, expect);
        }

        #[test]
        fn prop_apply_permutation_is_bijective(n in 1usize..50) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
            let mut perm: Vec<u64> = (0..n as u64).collect();
            perm.shuffle(&mut rng);
            let mut items: Vec<u64> = (0..n as u64).map(|i| i + 100).collect();
            let original = items.clone();
            apply_permutation(&mut items, &perm);
            for (dest, &src) in perm.iter().enumerate() {
                prop_assert_eq!(items[dest], original[src as usize]);
            }
        }
    }
}
