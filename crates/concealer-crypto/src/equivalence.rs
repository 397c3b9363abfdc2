//! Hardware ≡ portable, byte for byte.
//!
//! Every primitive that sits on [`crate::hw`] is run twice here — once on
//! the reference code (reachable only through the crate-private
//! constructors that take the implementation as an argument) and once as
//! the public constructors build it on this CPU — and the outputs compared.
//! The helpers say on stdout which two paths a test compared, and fail when
//! detection reports hardware but the public constructor did not take it:
//! a comparison of the reference with itself must never pass for the real
//! thing.

use proptest::prelude::*;

use crate::aes::{Aes, Block, BLOCK_SIZE};
use crate::cmac::Cmac;
use crate::ctr::{keystream_xor, CounterLane, RandomizedCipher, NONCE_SIZE};
use crate::det::{DetBuffer, DeterministicCipher, SIV_SIZE};
use crate::hmac::HmacSha256;
use crate::hw::{AesNi, ShaNi};
use crate::sha256::Sha256;

/// `key` expanded on the reference rounds, and as [`Aes::new`] expands it
/// here, each with the name of its path.
pub(crate) fn aes_paths(key: &[u8]) -> [(&'static str, Aes); 2] {
    let public = Aes::new(key).expect("16- or 32-byte key");
    assert_eq!(
        public.on_hardware(),
        AesNi::detect().is_some(),
        "`Aes::new` must take the hardware rounds exactly when detection finds them"
    );
    let name = if public.on_hardware() {
        "aes-ni"
    } else {
        "portable again (no AES-NI on this CPU)"
    };
    println!("aes: comparing portable with {name}");
    let portable = Aes::with_hw(key, None).expect("16- or 32-byte key");
    assert!(!portable.on_hardware());
    [("portable", portable), (name, public)]
}

/// A fresh hasher on the reference compression function, and as
/// [`Sha256::new`] builds it here, each with the name of its path.
pub(crate) fn sha_paths() -> [(&'static str, Sha256); 2] {
    let public = Sha256::new();
    assert_eq!(
        public.on_hardware(),
        ShaNi::detect().is_some(),
        "`Sha256::new` must take the SHA extensions exactly when detection finds them"
    );
    let name = if public.on_hardware() {
        "sha-ni"
    } else {
        "portable again (no SHA-NI on this CPU)"
    };
    println!("sha256: comparing portable with {name}");
    let portable = Sha256::with_hw(None);
    assert!(!portable.on_hardware());
    [("portable", portable), (name, public)]
}

fn det_paths(mac_key: &[u8; 32], enc_key: &[u8; 32]) -> [DeterministicCipher; 2] {
    let [(_, mac_a), (_, mac_b)] = aes_paths(mac_key);
    let [(_, enc_a), (_, enc_b)] = aes_paths(enc_key);
    [
        DeterministicCipher::from_ciphers(mac_a, enc_a),
        DeterministicCipher::from_ciphers(mac_b, enc_b),
    ]
}

fn bytes(max: usize) -> proptest::collection::VecStrategy<proptest::arbitrary::Any<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max + 1)
}

fn key(words: (u128, u128)) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..16].copy_from_slice(&words.0.to_le_bytes());
    key[16..].copy_from_slice(&words.1.to_le_bytes());
    key
}

fn digest_of(mut hasher: Sha256, pieces: &[&[u8]]) -> [u8; 32] {
    for piece in pieces {
        hasher.update(piece);
    }
    hasher.finalize()
}

/// On Linux the kernel's own list of CPU flags is a second opinion on
/// detection: a detector that always said "no" would make every
/// comparison in this file vacuous.
#[test]
fn detection_agrees_with_proc_cpuinfo() {
    let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else {
        println!("no /proc/cpuinfo here: detection is not cross-checked");
        return;
    };
    let Some(flags) = cpuinfo.lines().find(|l| l.starts_with("flags")) else {
        println!("/proc/cpuinfo lists no x86 flags: detection is not cross-checked");
        assert!(AesNi::detect().is_none() && ShaNi::detect().is_none());
        return;
    };
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag);
    println!(
        "/proc/cpuinfo: aes {}, sha_ni {}",
        has("aes"),
        has("sha_ni")
    );
    assert_eq!(AesNi::detect().is_some(), has("aes") && has("sse2"));
    assert_eq!(
        ShaNi::detect().is_some(),
        has("sha_ni") && has("sse2") && has("ssse3") && has("sse4_1")
    );
}

/// Every group size the eight/four/two/one ladder of the hardware path
/// can take, and one past two full groups.
#[test]
fn encrypt_blocks_agrees_for_every_length_0_to_17() {
    for key in [&[0x5Au8; 16][..], &[0xC3u8; 32][..]] {
        let [(_, portable), (_, public)] = aes_paths(key);
        for n in 0..=17usize {
            let blocks: Vec<Block> = (0..n)
                .map(|i| std::array::from_fn(|j| (31 * i + 7 * j + n) as u8))
                .collect();
            let mut together = blocks.clone();
            public.encrypt_blocks(&mut together);
            let one_by_one: Vec<Block> = blocks
                .iter()
                .map(|b| portable.encrypt_block_copy(b))
                .collect();
            assert_eq!(together, one_by_one, "{n} blocks, {}-byte key", key.len());
        }
    }
}

/// `count` distinct `N`-byte plaintexts.
fn short_items<const N: usize>(count: usize, fill: u8) -> Vec<[u8; N]> {
    (0..count)
        .map(|i| std::array::from_fn(|j| fill.wrapping_add((31 * i + 7 * j) as u8)))
        .collect()
}

/// `encrypt_lockstep` on both paths against `encrypt` per item on the
/// reference path, appended after what `out` already held.
fn lockstep_agrees<const N: usize, const C: usize>(
    mac_key: &[u8; 32],
    enc_key: &[u8; 32],
    items: &[[u8; N]],
) {
    let [portable, public] = det_paths(mac_key, enc_key);
    for cipher in [&portable, &public] {
        let mut out = vec![[0xEE; C]];
        cipher.encrypt_lockstep(items.iter().copied(), &mut out);
        assert_eq!(out.len(), 1 + items.len());
        assert_eq!(out[0], [0xEE; C], "what `out` held stays");
        for (i, (sealed, item)) in out[1..].iter().zip(items).enumerate() {
            assert_eq!(
                sealed.as_slice(),
                portable.encrypt(item),
                "item {i} of {}, {N}-byte plaintexts",
                items.len()
            );
        }
    }
}

/// No group, one short group, one item short of a full group, one full
/// group, one past it, and one past two — for index-sized plaintexts, a
/// whole block (the K1 subkey), the empty plaintext and one byte short.
#[test]
fn lockstep_det_agrees_for_group_sizes_0_1_7_8_9_17() {
    for count in [0, 1, 7, 8, 9, 17] {
        lockstep_agrees::<9, 25>(&[7; 32], &[8; 32], &short_items(count, 3));
        lockstep_agrees::<16, 32>(&[7; 32], &[8; 32], &short_items(count, 4));
        lockstep_agrees::<0, 16>(&[7; 32], &[8; 32], &short_items(count, 5));
        lockstep_agrees::<15, 31>(&[7; 32], &[8; 32], &short_items(count, 6));
    }
}

proptest! {
    #[test]
    fn lockstep_det_agrees_at_arbitrary_sizes(
        mac in (any::<u128>(), any::<u128>()),
        enc in (any::<u128>(), any::<u128>()),
        count in 0usize..70,
        fill in any::<u8>(),
    ) {
        lockstep_agrees::<9, 25>(&key(mac), &key(enc), &short_items(count, fill));
        lockstep_agrees::<16, 32>(&key(mac), &key(enc), &short_items(count, fill));
    }

    #[test]
    fn single_blocks_agree_under_random_keys(
        words in (any::<u128>(), any::<u128>()),
        short in any::<bool>(),
        block in any::<u128>(),
    ) {
        let key = key(words);
        let key = if short { &key[..16] } else { &key[..] };
        let [(_, portable), (_, public)] = aes_paths(key);
        let block = block.to_le_bytes();
        prop_assert_eq!(portable.encrypt_block_copy(&block), public.encrypt_block_copy(&block));
    }

    /// Both counter layouts, on both paths, against the definition: block
    /// `i` of the keystream is the IV with `i` added inside its lane. Half
    /// the IVs start within three blocks of their lane's wrap.
    #[test]
    fn ctr_streams_agree_and_wrap_inside_their_lane(
        words in (any::<u128>(), any::<u128>()),
        iv in any::<u128>(),
        near_wrap in any::<bool>(),
        back in 0u8..3,
        data in bytes(200),
    ) {
        let [(_, portable), (_, public)] = aes_paths(&key(words));
        for (lane, width) in [(CounterLane::Low32, 4), (CounterLane::Low64, 8)] {
            let mut iv = iv.to_le_bytes();
            if near_wrap {
                iv[BLOCK_SIZE - width..].fill(0xFF);
                iv[BLOCK_SIZE - 1] -= back;
            }
            let mut expected = data.clone();
            for (i, chunk) in expected.chunks_mut(BLOCK_SIZE).enumerate() {
                let mut input = iv;
                let lane_bytes = &mut input[BLOCK_SIZE - width..];
                let mut carry = i as u64;
                for byte in lane_bytes.iter_mut().rev() {
                    carry += u64::from(*byte);
                    *byte = carry as u8;
                    carry >>= 8;
                }
                let pad = portable.encrypt_block_copy(&input);
                for (d, p) in chunk.iter_mut().zip(pad) {
                    *d ^= p;
                }
            }
            for cipher in [&portable, &public] {
                let mut stream = data.clone();
                keystream_xor(cipher, &iv, lane, &mut stream);
                prop_assert_eq!(&stream, &expected);
            }
        }
    }

    #[test]
    fn cmac_tags_agree(words in (any::<u128>(), any::<u128>()), message in bytes(100)) {
        let [(_, portable), (_, public)] = aes_paths(&key(words));
        prop_assert_eq!(Cmac::new(portable).mac(&message), Cmac::new(public).mac(&message));
    }

    /// Batches of mixed lengths: runs of equal-length items, ragged tails,
    /// and tampered items in the middle of a run. Both paths agree with
    /// each other and with the per-item calls; a tampered item is `None`
    /// in its own slot only, and counted once.
    #[test]
    fn det_batches_agree_item_by_item(
        runs in proptest::collection::vec((0usize..70, 1usize..12), 0..5),
        fill in any::<u8>(),
        tamper_mask in any::<u64>(),
    ) {
        let [portable, public] = det_paths(&[7; 32], &[8; 32]);
        let mut items: Vec<Vec<u8>> = Vec::new();
        for (len, count) in runs {
            for _ in 0..count {
                let n = items.len();
                items.push((0..len).map(|i| fill.wrapping_add((n * 37 + i) as u8)).collect());
            }
        }
        let (mut sealed_a, mut sealed_b) = (DetBuffer::new(), DetBuffer::new());
        portable.encrypt_batch(items.iter().map(Vec::as_slice), &mut sealed_a);
        public.encrypt_batch(items.iter().map(Vec::as_slice), &mut sealed_b);
        prop_assert_eq!(sealed_a.len(), items.len());
        let mut sealed: Vec<Vec<u8>> = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let one = portable.encrypt(item);
            prop_assert_eq!(sealed_a.get(i), Some(one.as_slice()));
            prop_assert_eq!(sealed_b.get(i), Some(one.as_slice()));
            prop_assert_eq!(public.encrypt(item), one.clone());
            sealed.push(one);
        }

        let tampered: Vec<bool> = (0..sealed.len()).map(|i| tamper_mask >> (i % 64) & 1 == 1).collect();
        for (ct, _) in sealed.iter_mut().zip(&tampered).filter(|(_, &t)| t) {
            let at = (SIV_SIZE + 1) % ct.len();
            ct[at] ^= 0x40;
        }
        for cipher in [&portable, &public] {
            // A reused arena must not leak the previous batch.
            let mut opened = sealed_a.clone();
            let failures = cipher.decrypt_batch(sealed.iter().map(Vec::as_slice), &mut opened);
            prop_assert_eq!(opened.len(), items.len());
            prop_assert_eq!(failures, tampered.iter().filter(|&&t| t).count());
            for (i, item) in items.iter().enumerate() {
                let want = (!tampered[i]).then_some(item.as_slice());
                prop_assert_eq!(opened.get(i), want, "item {} of {}", i, items.len());
                prop_assert_eq!(cipher.decrypt(&sealed[i]).ok().as_deref(), want);
            }
        }
    }

    #[test]
    fn sha256_agrees_at_random_split_points(
        data in bytes(300),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        let (a, b) = (cut_a % (data.len() + 1), cut_b % (data.len() + 1));
        let (a, b) = (a.min(b), a.max(b));
        let pieces = [&data[..a], &data[a..b], &data[b..]];
        let [(_, portable), (_, public)] = sha_paths();
        let whole = digest_of(portable.clone(), &[&data]);
        prop_assert_eq!(digest_of(portable, &pieces), whole);
        prop_assert_eq!(digest_of(public, &pieces), whole);
    }

    /// Short, block-sized and longer-than-a-block keys.
    #[test]
    fn hmac_tags_agree(key in bytes(140), message in bytes(200)) {
        let [(_, portable), (_, public)] = sha_paths();
        prop_assert_eq!(
            HmacSha256::keyed(&portable, &key).mac(&message),
            HmacSha256::keyed(&public, &key).mac(&message)
        );
    }

    #[test]
    fn randomized_cipher_agrees(nonce in any::<u128>(), plaintext in bytes(150)) {
        let nonce: [u8; NONCE_SIZE] = nonce.to_le_bytes();
        let [(_, aes_a), (_, aes_b)] = aes_paths(&[11; 32]);
        let [(_, sha_a), (_, sha_b)] = sha_paths();
        let portable = RandomizedCipher::from_parts(aes_a, HmacSha256::keyed(&sha_a, &[22; 32]));
        let public = RandomizedCipher::from_parts(aes_b, HmacSha256::keyed(&sha_b, &[22; 32]));
        let blob = portable.encrypt_with_nonce(&nonce, &plaintext);
        prop_assert_eq!(&public.encrypt_with_nonce(&nonce, &plaintext), &blob);
        prop_assert_eq!(public.decrypt(&blob).as_deref(), Ok(plaintext.as_slice()));
        prop_assert_eq!(portable.decrypt(&blob).as_deref(), Ok(plaintext.as_slice()));
    }
}
