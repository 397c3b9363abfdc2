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

use concealer_crypto::EpochKey;
use concealer_enclave::sort::bitonic_sort_by_key;
use concealer_enclave::SideChannelMeter;

use crate::codec;

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
}

/// What a trapdoor encrypts: `Some((cell_id, counter))` for a real tuple,
/// `None` for a fake.
pub type TrapdoorLabel = Option<(u32, u32)>;

/// The trapdoors of one fetch, each with the identity it encrypts — what
/// [`crate::verify::verify_fetch`] assigns the returned rows by, without
/// decrypting an `Index` column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelledTrapdoors {
    /// The trapdoors, in issue order.
    pub trapdoors: Vec<Vec<u8>>,
    /// `labels[i]` is what `trapdoors[i]` encrypts.
    pub labels: Vec<TrapdoorLabel>,
    /// The cell-ids the fetch covers (the spec's, in its order), including
    /// those that hold no tuple and therefore have no trapdoor.
    pub cell_ids: Vec<u32>,
}

impl LabelledTrapdoors {
    /// No trapdoors yet, with room for all of `spec`'s.
    fn for_spec(spec: &FetchSpec) -> Self {
        let total = spec.total_trapdoors() as usize;
        LabelledTrapdoors {
            trapdoors: Vec::with_capacity(total),
            labels: Vec::with_capacity(total),
            cell_ids: spec.cells.iter().map(|&(cid, _)| cid).collect(),
        }
    }

    fn push(&mut self, trapdoor: Vec<u8>, label: TrapdoorLabel) {
        self.trapdoors.push(trapdoor);
        self.labels.push(label);
    }
}

/// Generate the trapdoors for a fetch spec the straightforward way
/// (Concealer without side-channel protection).
#[must_use]
pub fn generate_plain(
    key: &EpochKey,
    spec: &FetchSpec,
    meter: &SideChannelMeter,
) -> LabelledTrapdoors {
    let mut out = LabelledTrapdoors::for_spec(spec);
    for &(cid, count) in &spec.cells {
        for counter in 1..=count {
            let trapdoor = key.det.encrypt(&codec::index_real_plain(cid, counter));
            out.push(trapdoor, Some((cid, counter)));
        }
    }
    for fake in spec.fake_range.0..spec.fake_range.1 {
        out.push(key.det.encrypt(&codec::index_fake_plain(fake)), None);
    }
    meter.add_trapdoors(out.trapdoors.len() as u64);
    out
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
    // Candidate = (validity flag v, trapdoor bytes, label). Real candidates
    // are generated for every (cell slot, counter slot) pair; slots beyond
    // the spec's actual content carry v = 0 and a dummy-but-well-formed
    // trapdoor.
    let mut candidates: Vec<(u64, Vec<u8>, TrapdoorLabel)> =
        Vec::with_capacity(max_cells * max_per_cell as usize + max_fakes as usize);

    for cell_slot in 0..max_cells {
        let (cid, count) = spec.cells.get(cell_slot).copied().unwrap_or((u32::MAX, 0));
        for counter in 1..=max_per_cell {
            let valid = u64::from(cell_slot < spec.cells.len() && counter <= count);
            // Dummy slots still encrypt a syntactically valid plaintext so
            // the work per slot is identical.
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

    // Data-independent sort: valid candidates (v = 1) first.
    bitonic_sort_by_key(&mut candidates, meter, |(v, _, _)| 1 - *v);

    candidates.truncate(spec.total_trapdoors() as usize);
    let mut out = LabelledTrapdoors::for_spec(spec);
    for (_, trapdoor, label) in candidates {
        out.push(trapdoor, label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use concealer_crypto::{EpochId, MasterKey};

    fn key() -> EpochKey {
        MasterKey::from_bytes([4u8; 32]).epoch_key(EpochId(7), 0)
    }

    fn sorted(mut v: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
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
        let set: std::collections::BTreeSet<&Vec<u8>> = trapdoors.iter().collect();
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
                        *trapdoor,
                        key.det.encrypt(&codec::index_real_plain(cid, counter))
                    ),
                    None => fakes.push(trapdoor.clone()),
                }
            }
            let want = (3..6).map(|j| key.det.encrypt(&codec::index_fake_plain(j)));
            assert_eq!(sorted(fakes), sorted(want.collect()));
        }
        let pairs = |issued: &LabelledTrapdoors| {
            let mut pairs: Vec<_> = issued.trapdoors.iter().zip(&issued.labels).collect();
            pairs.sort();
            pairs
                .into_iter()
                .map(|(t, l)| (t.clone(), *l))
                .collect::<Vec<_>>()
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
        let stored = key.det.encrypt(&codec::index_real_plain(9, 2));
        let meter = SideChannelMeter::new();
        let spec = FetchSpec {
            cells: vec![(9, 2)],
            fake_range: (0, 0),
        };
        let trapdoors = generate_plain(&key, &spec, &meter).trapdoors;
        assert!(trapdoors.contains(&stored));
    }
}
