//! Offline shim for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment for this repository has no access to crates.io, so
//! the workspace vendors a minimal, dependency-free implementation of the
//! subset of the `rand` 0.8 API that Concealer uses: [`RngCore`],
//! [`SeedableRng`], [`Rng`], [`rngs::StdRng`], [`seq::SliceRandom`], and the
//! [`distributions`] module with [`distributions::Open01`].
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — deterministic, fast, and statistically sound for the
//! simulation / test workloads in this repo. It is **not** the ChaCha12
//! stream used by the real `rand` crate, so seeded output differs from
//! upstream; nothing in the workspace depends on upstream byte sequences.

#![forbid(unsafe_code)]

pub mod distributions;
pub mod rngs;
pub mod seq;

/// The core of a random number generator: raw word and byte output.
pub trait RngCore {
    /// Return the next random `u32`.
    fn next_u32(&mut self) -> u32;
    /// Return the next random `u64`.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be instantiated from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Seed type, e.g. `[u8; 32]`.
    type Seed: Default + AsMut<[u8]>;

    /// Build the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build the generator from a `u64`, expanded via SplitMix64.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut x = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

/// High-level sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value of type `T` from the standard distribution.
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    /// Sample uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Return `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        use distributions::Distribution;
        let u: f64 = distributions::Standard.sample(self);
        u < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types that support uniform sampling from a sub-range.
pub trait SampleUniform: Sized {
    /// Uniform sample from `[low, high]` (both ends inclusive).
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "gen_range: low > high");
                let span = (high as $wide).wrapping_sub(low as $wide).wrapping_add(1);
                if span == 0 {
                    // Full domain of the wide type.
                    return rng.next_u64() as $t;
                }
                // Multiply-shift bounded sampling (Lemire); the tiny modulo
                // bias of the plain approach is irrelevant here, but this is
                // just as cheap.
                let x = rng.next_u64() as u128;
                let r = ((x * span as u128) >> 64) as $wide;
                low.wrapping_add(r as $t)
            }
        }
    )*};
}

impl_sample_uniform!(u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
                     i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64);

impl SampleUniform for f64 {
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + u * (high - low)
    }
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draw one sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd + Copy + OneStep> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_inclusive(rng, self.start, self.end.step_down())
    }
}

impl<T: SampleUniform + PartialOrd + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Helper to turn an exclusive upper bound into an inclusive one.
pub trait OneStep {
    /// The predecessor of `self`.
    fn step_down(self) -> Self;
}

macro_rules! impl_one_step_int {
    ($($t:ty),*) => {$(
        impl OneStep for $t {
            fn step_down(self) -> Self { self - 1 }
        }
    )*};
}
impl_one_step_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl OneStep for f64 {
    fn step_down(self) -> Self {
        self
    }
}

/// Commonly used items, mirroring `rand::prelude`.
pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::StdRng;
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_and_seeded() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3u32..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(1u64..=50);
            assert!((1..=50).contains(&w));
            let u = rng.gen_range(0usize..5);
            assert!(u < 5);
        }
        // Hits both endpoints of a small inclusive range.
        let hits: std::collections::BTreeSet<u8> =
            (0..1000).map(|_| rng.gen_range(0u8..=3)).collect();
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left the slice in order (astronomically unlikely)"
        );
    }

    #[test]
    fn open01_is_open() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let u: f64 = crate::distributions::Open01.sample(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
