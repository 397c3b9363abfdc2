//! Trapdoor generation (Step 3 of the BPB method, §4.2–§4.3 of the paper).
//!
//! A trapdoor is the deterministic ciphertext `E_k(cid || counter)` (or
//! `E_k(f || j)` for a fake tuple) that the DBMS index matches exactly. The
//! plain generator simply enumerates the needed plaintexts; the *oblivious*
//! generator (Concealer+) produces the same trapdoor set but via a
//! data-independent schedule: it always materializes
//! `#C_max × #max + #f_max` candidates with a validity flag, obliviously
//! sorts so valid candidates come first, and only then truncates — so the
//! enclave's memory/branch behaviour does not depend on which cell-ids the
//! bin actually holds.
//!
//! Every trapdoor is a fixed-width [`Trapdoor`] — an `Index` plaintext is
//! 9 bytes, its ciphertext 25 — and both generators encrypt their
//! plaintexts side by side, eight per AES call
//! ([`concealer_crypto::DeterministicCipher::encrypt_lockstep`]).

use concealer_crypto::det::SIV_SIZE;
use concealer_crypto::EpochKey;
use concealer_enclave::sort::bitonic_sort_by_key;
use concealer_enclave::SideChannelMeter;

use crate::codec;

/// Length of a trapdoor: the synthetic IV, then the encrypted `Index`
/// plaintext.
pub const TRAPDOOR_LEN: usize = SIV_SIZE + codec::INDEX_PLAIN_LEN;

/// One trapdoor, `E_k(cid || counter)` or `E_k(f || j)`.
pub type Trapdoor = [u8; TRAPDOOR_LEN];

/// Work items for trapdoor generation: which cell-ids (with their tuple
/// counts) and which fake-id range one fetch unit needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchSpec {
    /// `(cell_id, tuple_count)` pairs to fetch in full.
    pub cells: Vec<(u32, u32)>,
    /// Fake ids `[start, end)` to fetch.
    pub fake_range: (u64, u64),
}

impl FetchSpec {
    /// Total number of trapdoors this spec expands to.
    #[must_use]
    pub fn total_trapdoors(&self) -> u64 {
        let real: u64 = self.cells.iter().map(|(_, c)| u64::from(*c)).sum();
        real + (self.fake_range.1 - self.fake_range.0)
    }

    /// The cell-ids the spec covers, in its order.
    fn cell_ids(&self) -> Vec<u32> {
        self.cells.iter().map(|&(cid, _)| cid).collect()
    }
}

/// What a trapdoor encrypts: `Some((cell_id, counter))` for a real tuple,
/// `None` for a fake.
pub type TrapdoorLabel = Option<(u32, u32)>;

/// The trapdoors of one fetch, each with the identity it encrypts — what
/// [`crate::verify::verify_fetch`] assigns the returned rows by, without
/// decrypting an `Index` column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelledTrapdoors {
    /// The trapdoors, in issue order: one fixed-width list.
    pub trapdoors: Vec<Trapdoor>,
    /// `labels[i]` is what `trapdoors[i]` encrypts.
    pub labels: Vec<TrapdoorLabel>,
    /// The cell-ids the fetch covers (the spec's, in its order), including
    /// those that hold no tuple and therefore have no trapdoor.
    pub cell_ids: Vec<u32>,
}

/// Generate the trapdoors for a fetch spec the straightforward way
/// (Concealer without side-channel protection): every cell's counters in
/// spec order, then the fakes.
#[must_use]
pub fn generate_plain(
    key: &EpochKey,
    spec: &FetchSpec,
    meter: &SideChannelMeter,
) -> LabelledTrapdoors {
    let reals = spec
        .cells
        .iter()
        .flat_map(|&(cid, count)| (1..=count).map(move |counter| (cid, counter)));
    let fakes = spec.fake_range.0..spec.fake_range.1;
    let total = spec.total_trapdoors() as usize;
    let mut trapdoors = Vec::with_capacity(total);
    key.det.encrypt_lockstep(
        reals
            .clone()
            .map(|(cid, counter)| codec::index_real_plain(cid, counter))
            .chain(fakes.clone().map(codec::index_fake_plain)),
        &mut trapdoors,
    );
    let mut labels = Vec::with_capacity(total);
    labels.extend(reals.map(Some).chain(fakes.map(|_| None)));
    meter.add_trapdoors(trapdoors.len() as u64);
    LabelledTrapdoors {
        trapdoors,
        labels,
        cell_ids: spec.cell_ids(),
    }
}

/// Generate the trapdoors for a fetch spec obliviously (Concealer+,
/// §4.3 Step 3).
///
/// * `max_cells` — `#C_max`, the maximum number of cell-ids any fetch unit
///   may contain.
/// * `max_per_cell` — `#max`, the maximum tuple count of any cell-id.
/// * `max_fakes` — `#f_max`, the maximum fake tuples any fetch unit needs.
///
/// The candidate schedule — and therefore the number of encryptions, the
/// sort network, and every memory touch — depends only on those public
/// maxima, never on the bin's actual content. Each candidate's label is a
/// function of its slot and travels through the sort as part of the
/// element, so labelling adds no data-dependent step.
#[must_use]
pub fn generate_oblivious(
    key: &EpochKey,
    spec: &FetchSpec,
    max_cells: usize,
    max_per_cell: u32,
    max_fakes: u64,
    meter: &SideChannelMeter,
) -> LabelledTrapdoors {
    // Candidate = (validity flag v, trapdoor, label). Real candidates are
    // generated for every (cell slot, counter slot) pair; slots beyond the
    // spec's actual content carry v = 0 and a dummy-but-well-formed
    // trapdoor, so the work per slot is identical.
    let reals = (0..max_cells).flat_map(|cell_slot| {
        let (cid, count) = spec.cells.get(cell_slot).copied().unwrap_or((u32::MAX, 0));
        let real_cell = cell_slot < spec.cells.len();
        (1..=max_per_cell).map(move |counter| (real_cell && counter <= count, (cid, counter)))
    });
    let fake_count = spec.fake_range.1 - spec.fake_range.0;
    let fakes =
        (0..max_fakes).map(|j| (j < fake_count, spec.fake_range.0 + (j % fake_count.max(1))));

    let slots = max_cells * max_per_cell as usize + max_fakes as usize;
    let mut trapdoors = Vec::with_capacity(slots);
    key.det.encrypt_lockstep(
        reals
            .clone()
            .map(|(_, (cid, counter))| codec::index_real_plain(cid, counter))
            .chain(fakes.clone().map(|(_, id)| codec::index_fake_plain(id))),
        &mut trapdoors,
    );
    let mut candidates: Vec<(u64, Trapdoor, TrapdoorLabel)> = reals
        .map(|(valid, slot)| (valid, Some(slot)))
        .chain(fakes.map(|(valid, _)| (valid, None)))
        .zip(trapdoors)
        .map(|((valid, label), trapdoor)| (u64::from(valid), trapdoor, label))
        .collect();

    meter.add_trapdoors(candidates.len() as u64);
    meter.add_element_touches(candidates.len() as u64);

    // Data-independent sort: valid candidates (v = 1) first.
    bitonic_sort_by_key(&mut candidates, meter, |(v, _, _)| 1 - *v);

    candidates.truncate(spec.total_trapdoors() as usize);
    let (trapdoors, labels) = candidates.into_iter().map(|(_, t, l)| (t, l)).unzip();
    LabelledTrapdoors {
        trapdoors,
        labels,
        cell_ids: spec.cell_ids(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_crypto::{EpochId, MasterKey};
    use proptest::prelude::*;

    fn key() -> EpochKey {
        MasterKey::from_bytes([4u8; 32]).epoch_key(EpochId(7), 0)
    }

    /// `key.det.encrypt(plain)` as a trapdoor.
    fn det(key: &EpochKey, plain: &[u8]) -> Trapdoor {
        key.det
            .encrypt(plain)
            .try_into()
            .expect("an Index plaintext")
    }

    fn sorted(mut v: Vec<Trapdoor>) -> Vec<Trapdoor> {
        v.sort();
        v
    }

    #[test]
    fn plain_generates_expected_count() {
        let key = key();
        let meter = SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![(1, 3), (5, 2)],
            fake_range: (10, 14),
        };
        let trapdoors = generate_plain(&key, &spec, &meter).trapdoors;
        assert_eq!(trapdoors.len(), 3 + 2 + 4);
        assert_eq!(spec.total_trapdoors(), 9);
        // All distinct.
        let set: std::collections::BTreeSet<&Trapdoor> = trapdoors.iter().collect();
        assert_eq!(set.len(), 9);
        assert_eq!(meter.snapshot().trapdoors_generated, 9);
    }

    #[test]
    fn oblivious_generates_same_set_as_plain() {
        let key = key();
        let meter = SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![(2, 4), (7, 1)],
            fake_range: (3, 6),
        };
        let plain = generate_plain(&key, &spec, &meter);
        let obliv = generate_oblivious(&key, &spec, 4, 6, 8, &meter);
        assert_eq!(sorted(plain.trapdoors), sorted(obliv.trapdoors));
    }

    /// Every label names what its trapdoor encrypts, and the oblivious
    /// schedule labels the same trapdoors the same way as the plain one.
    #[test]
    fn labels_name_the_plaintext_and_agree_across_generators() {
        let key = key();
        let meter = SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![(2, 4), (9, 0), (7, 1)],
            fake_range: (3, 6),
        };
        let plain = generate_plain(&key, &spec, &meter);
        let obliv = generate_oblivious(&key, &spec, 4, 6, 8, &meter);
        for issued in [&plain, &obliv] {
            assert_eq!(issued.cell_ids, vec![2, 9, 7]);
            assert_eq!(issued.labels.len(), issued.trapdoors.len());
            let mut fakes = Vec::new();
            for (trapdoor, label) in issued.trapdoors.iter().zip(&issued.labels) {
                match *label {
                    Some((cid, counter)) => assert_eq!(
                        trapdoor.as_slice(),
                        key.det.encrypt(&codec::index_real_plain(cid, counter))
                    ),
                    None => fakes.push(*trapdoor),
                }
            }
            let want = (3..6).map(|j| det(&key, &codec::index_fake_plain(j)));
            assert_eq!(sorted(fakes), sorted(want.collect()));
        }
        let pairs = |issued: &LabelledTrapdoors| {
            let mut pairs: Vec<_> = issued.trapdoors.iter().zip(&issued.labels).collect();
            pairs.sort();
            pairs.into_iter().map(|(t, l)| (*t, *l)).collect::<Vec<_>>()
        };
        assert_eq!(pairs(&plain), pairs(&obliv));
        assert_eq!(
            plain.labels[..5],
            [(2, 1), (2, 2), (2, 3), (2, 4), (7, 1)].map(Some),
            "plain issues cells in spec order, counters ascending"
        );
    }

    #[test]
    fn oblivious_work_depends_only_on_maxima() {
        let key = key();
        let meter = SideChannelMeter::new();
        let spec_small = FetchSpec {
            cells: vec![(1, 1)],
            fake_range: (0, 1),
        };
        let spec_large = FetchSpec {
            cells: vec![(1, 5), (2, 5), (3, 5)],
            fake_range: (0, 4),
        };
        let (_, d1) = meter.measure(|| generate_oblivious(&key, &spec_small, 3, 5, 4, &meter));
        let (_, d2) = meter.measure(|| generate_oblivious(&key, &spec_large, 3, 5, 4, &meter));
        assert_eq!(d1.trapdoors_generated, d2.trapdoors_generated);
        assert_eq!(d1.sort_steps, d2.sort_steps);
        assert_eq!(d1.element_touches, d2.element_touches);
    }

    #[test]
    fn empty_spec() {
        let key = key();
        let meter = SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![],
            fake_range: (0, 0),
        };
        assert!(generate_plain(&key, &spec, &meter).trapdoors.is_empty());
        assert!(generate_oblivious(&key, &spec, 2, 3, 2, &meter)
            .trapdoors
            .is_empty());
    }

    #[test]
    fn trapdoors_match_provider_side_index_keys() {
        // The trapdoor for (cid, counter) must equal the Index ciphertext
        // the data provider stored — that is the whole point.
        let key = key();
        let stored = det(&key, &codec::index_real_plain(9, 2));
        let meter = SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![(9, 2)],
            fake_range: (0, 0),
        };
        let trapdoors = generate_plain(&key, &spec, &meter).trapdoors;
        assert!(trapdoors.contains(&stored));
    }

    /// The generators as they were before the lockstep routine, kept here
    /// as the oracle: one `key.det.encrypt(&index_*_plain(..))` per
    /// trapdoor, each its own `Vec`.
    mod per_trapdoor {
        use super::*;

        pub(super) type Issued = Vec<(Vec<u8>, TrapdoorLabel)>;

        pub(super) fn plain(key: &EpochKey, spec: &FetchSpec) -> Issued {
            let mut out = Vec::new();
            for &(cid, count) in &spec.cells {
                for counter in 1..=count {
                    let trapdoor = key.det.encrypt(&codec::index_real_plain(cid, counter));
                    out.push((trapdoor, Some((cid, counter))));
                }
            }
            for fake in spec.fake_range.0..spec.fake_range.1 {
                out.push((key.det.encrypt(&codec::index_fake_plain(fake)), None));
            }
            out
        }

        pub(super) fn oblivious(
            key: &EpochKey,
            spec: &FetchSpec,
            (max_cells, max_per_cell, max_fakes): (usize, u32, u64),
            meter: &SideChannelMeter,
        ) -> Issued {
            let mut candidates: Vec<(u64, Vec<u8>, TrapdoorLabel)> = Vec::new();
            for cell_slot in 0..max_cells {
                let (cid, count) = spec.cells.get(cell_slot).copied().unwrap_or((u32::MAX, 0));
                for counter in 1..=max_per_cell {
                    let valid = u64::from(cell_slot < spec.cells.len() && counter <= count);
                    let trapdoor = key.det.encrypt(&codec::index_real_plain(cid, counter));
                    candidates.push((valid, trapdoor, Some((cid, counter))));
                }
            }
            let fake_count = spec.fake_range.1 - spec.fake_range.0;
            for j in 0..max_fakes {
                let valid = u64::from(j < fake_count);
                let fake_id = spec.fake_range.0 + (j % fake_count.max(1));
                let trapdoor = key.det.encrypt(&codec::index_fake_plain(fake_id));
                candidates.push((valid, trapdoor, None));
            }
            meter.add_trapdoors(candidates.len() as u64);
            meter.add_element_touches(candidates.len() as u64);
            bitonic_sort_by_key(&mut candidates, meter, |(v, _, _)| 1 - *v);
            candidates.truncate(spec.total_trapdoors() as usize);
            candidates.into_iter().map(|(_, t, l)| (t, l)).collect()
        }
    }

    fn issued_pairs(issued: &LabelledTrapdoors) -> per_trapdoor::Issued {
        let pairs = issued.trapdoors.iter().zip(&issued.labels);
        pairs.map(|(t, l)| (t.to_vec(), *l)).collect()
    }

    proptest! {
        /// Both schedules issue the oracle's trapdoors, byte for byte, in
        /// its order and with its labels, for arbitrary specs — and the
        /// oblivious one charges the meter exactly what the oracle does.
        #[test]
        fn generators_equal_per_trapdoor_encryption(
            cells in proptest::collection::btree_map(0u32..5_000, 0u32..7, 0..9),
            fakes in (0u64..1_000, 0u64..12),
            slack in (0usize..3, 0u32..3, 0u64..4),
            seed in any::<u8>(),
        ) {
            let key = MasterKey::from_bytes([seed; 32]).epoch_key(EpochId(u64::from(seed)), 1);
            let spec = FetchSpec {
                cells: cells.into_iter().collect(),
                fake_range: (fakes.0, fakes.0 + fakes.1),
            };
            let cell_ids: Vec<u32> = spec.cells.iter().map(|&(cid, _)| cid).collect();
            let meter = SideChannelMeter::new();
            let plain = generate_plain(&key, &spec, &meter);
            prop_assert_eq!(issued_pairs(&plain), per_trapdoor::plain(&key, &spec));
            prop_assert_eq!(&plain.cell_ids, &cell_ids);

            let most = spec.cells.iter().map(|&(_, count)| count).max().unwrap_or(0);
            let maxima = (
                spec.cells.len() + slack.0,
                most + slack.1,
                fakes.1 + slack.2,
            );
            let (ours, theirs) = (SideChannelMeter::new(), SideChannelMeter::new());
            let obliv = generate_oblivious(&key, &spec, maxima.0, maxima.1, maxima.2, &ours);
            let oracle = per_trapdoor::oblivious(&key, &spec, maxima, &theirs);
            prop_assert_eq!(issued_pairs(&obliv), oracle);
            prop_assert_eq!(&obliv.cell_ids, &cell_ids);
            prop_assert_eq!(ours.snapshot(), theirs.snapshot());
        }
    }

    /// The trapdoors of a fixed key and spec, as the per-trapdoor
    /// generators issued them before the lockstep routine: the oblivious
    /// schedule's order is the sort network's, fakes swapped.
    #[test]
    fn trapdoor_golden_bytes() {
        let key = key();
        let meter = SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![(3, 2), (0, 1)],
            fake_range: (5, 7),
        };
        let hex = |issued: &LabelledTrapdoors| -> Vec<(String, TrapdoorLabel)> {
            let pairs = issued.trapdoors.iter().zip(&issued.labels);
            pairs
                .map(|(t, l)| (t.iter().map(|b| format!("{b:02x}")).collect(), *l))
                .collect()
        };
        let golden = |order: [usize; 5]| -> Vec<(String, TrapdoorLabel)> {
            let issued = [
                (
                    "a08fd78cc9e0d4dfd821e94d0ee4e5343ba9206ec2400f0ff6",
                    Some((3, 1)),
                ),
                (
                    "f715bb7ecbbf164da362a2d4287e8071186b250809c907f814",
                    Some((3, 2)),
                ),
                (
                    "cbc22f34cc12e96ef2fa2cbd89e2351c0eda17a232ba69c4a5",
                    Some((0, 1)),
                ),
                ("d9ba817c13c80699f691831cda4aaf6f4a360e846d5c496755", None),
                ("087e74ea0654ca6a0bd2862382a7e4e20838b95be5ed0ec09e", None),
            ];
            order
                .map(|i| (issued[i].0.to_string(), issued[i].1))
                .to_vec()
        };
        assert_eq!(
            hex(&generate_plain(&key, &spec, &meter)),
            golden([0, 1, 2, 3, 4])
        );
        let obliv = generate_oblivious(&key, &spec, 3, 3, 3, &meter);
        assert_eq!(hex(&obliv), golden([0, 1, 2, 4, 3]));
    }
}
