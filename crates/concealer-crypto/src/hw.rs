//! Hardware rounds: x86_64 AES-NI and SHA-NI under [`crate::aes::Aes`] and
//! [`crate::sha256::Sha256`].
//!
//! Every `unsafe` line of the crate is in this file. What the rest of the
//! crate sees is safe: two zero-sized *capability* values, [`AesNi`] and
//! [`ShaNi`], that only a successful runtime CPU-feature check can produce,
//! with methods that compute exactly what the byte-oriented reference code
//! computes. Holding a capability is the proof the `#[target_feature]`
//! functions below need; nothing else can enter them. On any other
//! architecture the capabilities are uninhabited and detection says `None`.
//!
//! aarch64 (`aes` / `sha2`) is left to the reference code on purpose: the
//! machines this is built and tested on cannot run it, and untested
//! `unsafe` is worse than the portable path those targets keep.

use crate::aes::Block;

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{AesNi, ShaNi};

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use none::{AesNi, ShaNi};

/// Round keys as [`crate::aes::Aes`] holds them: AES-256 uses all fifteen,
/// AES-128 the first eleven.
pub(crate) type RoundKeys = [Block; 15];

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Block, RoundKeys};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_alignr_epi8,
        _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// Proof that this CPU executes `aesenc` / `aesenclast`.
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct AesNi(());

    impl AesNi {
        /// The capability, if the CPU has it.
        pub(crate) fn detect() -> Option<Self> {
            (std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("sse2"))
            .then_some(AesNi(()))
        }

        /// Encrypt every block of `blocks` in place under `keys`, eight at
        /// a time while eight are left (then four, two, one), so
        /// independent blocks fill the `aesenc` pipeline.
        pub(crate) fn encrypt_blocks(self, keys: &RoundKeys, rounds: usize, blocks: &mut [Block]) {
            let mut eights = blocks.chunks_exact_mut(8);
            for group in &mut eights {
                self.encrypt_group::<8>(keys, rounds, group);
            }
            let rest = eights.into_remainder();
            let (four, rest) = rest.split_at_mut(rest.len() & 4);
            let (two, one) = rest.split_at_mut(rest.len() & 2);
            self.encrypt_group::<4>(keys, rounds, four);
            self.encrypt_group::<2>(keys, rounds, two);
            self.encrypt_group::<1>(keys, rounds, one);
        }

        /// `blocks` holds exactly `N` blocks, or none.
        fn encrypt_group<const N: usize>(
            self,
            keys: &RoundKeys,
            rounds: usize,
            blocks: &mut [Block],
        ) {
            if let Ok(group) = <&mut [Block; N]>::try_from(blocks) {
                // SAFETY: `self` exists only because `detect` saw `aes` and
                // `sse2` on this CPU.
                unsafe { encrypt_group(keys, rounds, group) }
            }
        }
    }

    /// `N` independent blocks through the rounds side by side.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes` and `sse2`. Memory is reached only
    /// through the references passed in, sixteen bytes at a time at
    /// sixteen-byte strides, with unaligned loads and stores; `rounds` is
    /// bounds-checked against `keys` like any index.
    // SAFETY: callers hold an `AesNi`; see `# Safety`.
    #[target_feature(enable = "aes,sse2")]
    unsafe fn encrypt_group<const N: usize>(
        keys: &RoundKeys,
        rounds: usize,
        blocks: &mut [Block; N],
    ) {
        let mut state = [_mm_loadu_si128(keys[0].as_ptr().cast()); N];
        for (s, block) in state.iter_mut().zip(blocks.iter()) {
            *s = _mm_xor_si128(*s, _mm_loadu_si128(block.as_ptr().cast()));
        }
        for key in &keys[1..rounds] {
            let k = _mm_loadu_si128(key.as_ptr().cast());
            for s in &mut state {
                *s = _mm_aesenc_si128(*s, k);
            }
        }
        let k = _mm_loadu_si128(keys[rounds].as_ptr().cast());
        for (s, block) in state.iter().zip(blocks.iter_mut()) {
            _mm_storeu_si128(block.as_mut_ptr().cast(), _mm_aesenclast_si128(*s, k));
        }
    }

    /// Proof that this CPU executes the SHA-256 extensions (and the SSE
    /// levels the message loads and state shuffles around them use).
    #[derive(Debug, Clone, Copy)]
    pub(crate) struct ShaNi(());

    impl ShaNi {
        /// The capability, if the CPU has it.
        pub(crate) fn detect() -> Option<Self> {
            (std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("sse2")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1"))
            .then_some(ShaNi(()))
        }

        /// One SHA-256 compression of `block` into `state`.
        pub(crate) fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
            // SAFETY: `self` exists only because `detect` saw `sha`, `sse2`,
            // `ssse3` and `sse4.1` on this CPU.
            unsafe { compress(state, block) }
        }
    }

    /// FIPS 180-4 §6.2.2 on `sha256rnds2` (two rounds per instruction) with
    /// the message schedule on `sha256msg1` / `sha256msg2`.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`. Memory is
    /// reached only through the two references: two unaligned 16-byte
    /// halves of `state`, four unaligned 16-byte quarters of `block`, and
    /// four-word windows of the round-constant table.
    // SAFETY: callers hold a `ShaNi`; see `# Safety`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // The instructions want the state as (A,B,E,F) and (C,D,G,H).
        let state_ptr: *mut __m128i = state.as_mut_ptr().cast();
        let dcba = _mm_loadu_si128(state_ptr);
        let hgfe = _mm_loadu_si128(state_ptr.add(1));
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let abef_in = _mm_alignr_epi8(cdab, efgh, 8);
        let cdgh_in = _mm_blend_epi16(efgh, cdab, 0xF0);
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);

        // Big-endian words, four to a vector.
        let be = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);
        let block_ptr: *const __m128i = block.as_ptr().cast();
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(block_ptr), be),
            _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(1)), be),
            _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(2)), be),
            _mm_shuffle_epi8(_mm_loadu_si128(block_ptr.add(3)), be),
        ];
        for (i, k) in crate::sha256::K.chunks_exact(4).enumerate() {
            // `w` is a ring of the last four word groups; group `i`
            // replaces group `i - 4`.
            if i >= 4 {
                let (w0, w1, w2, w3) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
                w[i % 4] = _mm_sha256msg2_epu32(partial, w3);
            }
            let wk = _mm_add_epi32(w[i % 4], _mm_loadu_si128(k.as_ptr().cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod none {
    use super::{Block, RoundKeys};

    /// No hardware AES on this architecture: the type has no value.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum AesNi {}

    impl AesNi {
        pub(crate) fn detect() -> Option<Self> {
            None
        }

        pub(crate) fn encrypt_blocks(self, _: &RoundKeys, _: usize, _: &mut [Block]) {
            match self {}
        }
    }

    /// No hardware SHA-256 on this architecture: the type has no value.
    #[derive(Debug, Clone, Copy)]
    pub(crate) enum ShaNi {}

    impl ShaNi {
        pub(crate) fn detect() -> Option<Self> {
            None
        }

        pub(crate) fn compress(self, _: &mut [u32; 8], _: &[u8; 64]) {
            match self {}
        }
    }
}
