//! Tests of the security properties §7 of the paper claims, asserted
//! against the adversary-observable traces (storage access observer and
//! enclave side-channel meter).

use concealer_bench::{build_wifi_system, WifiScale};
use concealer_core::query::AnswerValue;
use concealer_core::{CoreError, ExecOptions, Query, RangeMethod};
use concealer_enclave::MeterSnapshot;
use concealer_examples::{demo_config, demo_system, DEMO_ACCESS_POINTS};
use concealer_workloads::{WifiConfig, WifiGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Output-size / volume hiding: every point query on an epoch fetches the
/// same number of rows, regardless of how many tuples actually match.
#[test]
fn volume_hiding_across_point_queries() {
    let (system, user, records) = demo_system(2, 201);
    system.observer().reset();
    let session = system.session(&user);

    // Mix of dense targets (existing records) and sparse targets (locations
    // and times chosen to likely have few or no matches).
    let mut targets: Vec<(Vec<u64>, u64)> = records
        .iter()
        .step_by(701)
        .map(|r| (r.dims.clone(), r.time))
        .collect();
    targets.push((vec![29], 10));
    targets.push((vec![0], 2 * 3600 - 5));

    let mut counts = BTreeSet::new();
    for (dims, time) in targets {
        let q = Query::count().at_dims(dims).at(time);
        let answer = session.execute(&q).expect("point query");
        counts.insert(answer.rows_fetched);
    }
    assert_eq!(
        counts.len(),
        1,
        "all point queries must fetch identical volumes: {counts:?}"
    );

    // The adversary's own per-query trace agrees.
    let observed: BTreeSet<usize> = system
        .observer()
        .per_query_summaries()
        .iter()
        .map(|s| s.rows_fetched)
        .collect();
    assert_eq!(observed.len(), 1);
}

/// Partial access-pattern hiding: two different predicates that fall in the
/// same bin cause *identical* row-fetch sets — the adversary cannot tell
/// which tuples inside the bin satisfied the query.
#[test]
fn same_bin_queries_produce_identical_fetch_sets() {
    let (system, user, records) = demo_system(2, 202);
    system.observer().reset();
    let session = system.session(&user);

    // Two predicates over the same (location, time-granule) cell — one that
    // matches records and one (different observation) that matches nothing.
    let target = &records[17];
    let q_real = Query::count().at_dims(target.dims.clone()).at(target.time);
    // Same cell, but a count restricted to an absent device: same bin, very
    // different true output size.
    let q_empty = Query::count()
        .at_dims(target.dims.clone())
        .observing(1299) // registered to the demo user, rarely present
        .between(target.time, target.time);
    let a = session.execute(&q_real).unwrap();
    let b = session
        .execute_with(&q_empty, ExecOptions::with_method(RangeMethod::Bpb))
        .unwrap();
    assert_eq!(a.rows_fetched, b.rows_fetched);

    let sets = system.observer().per_query_fetch_sets();
    assert_eq!(sets.len(), 2);
    assert_eq!(
        sets[0], sets[1],
        "fetched row sets must be indistinguishable"
    );
}

/// Ciphertext indistinguishability: no two stored ciphertexts repeat, even
/// though locations and devices repeat heavily in the plaintext.
#[test]
fn ciphertext_uniqueness_in_the_store() {
    let (system, _user, records) = demo_system(1, 203);
    assert!(records.len() > 100);
    let rows = system
        .store()
        .full_scan(0)
        .expect("adversary can read its own disk");
    let mut index_keys = BTreeSet::new();
    let mut filters = BTreeSet::new();
    let mut payloads = BTreeSet::new();
    for row in &rows {
        index_keys.insert(row.index_key.clone());
        filters.insert(row.filters[0].clone());
        payloads.insert(row.payload.clone());
    }
    assert_eq!(index_keys.len(), rows.len());
    assert_eq!(payloads.len(), rows.len());
    // Filter columns may repeat only when two readings share location AND
    // time granule — which is exactly what the paper's E(l||t) leaks to the
    // enclave-side string matcher, never to the adversary in cleartext.
    assert!(filters.len() > rows.len() / 4);
}

/// Forward privacy: the same plaintext value encrypts differently across
/// epochs, and trapdoors from one epoch never match another epoch's rows.
#[test]
fn forward_privacy_across_epochs() {
    let mut rng = StdRng::seed_from_u64(204);
    let mut system = concealer_examples::build_system(demo_config(1), &mut rng);
    let user = system.register_user(1, vec![], true);
    let generator = WifiGenerator::new(WifiConfig::tiny());
    // Identical record sets in two different epochs (shifted by the epoch
    // offset) — the ciphertexts must share nothing.
    let epoch0 = generator.generate_epoch(0, 3600, &mut StdRng::seed_from_u64(1));
    let epoch1: Vec<_> = epoch0
        .iter()
        .map(|r| concealer_core::Record {
            dims: r.dims.clone(),
            time: r.time + 3600,
            payload: r.payload.clone(),
        })
        .collect();
    system.ingest_epoch(0, &epoch0, &mut rng).unwrap();
    system.ingest_epoch(3600, &epoch1, &mut rng).unwrap();

    let rows0: BTreeSet<Vec<u8>> = system
        .store()
        .full_scan(0)
        .unwrap()
        .into_iter()
        .map(|r| r.index_key)
        .collect();
    let rows1: BTreeSet<Vec<u8>> = system
        .store()
        .full_scan(3600)
        .unwrap()
        .into_iter()
        .map(|r| r.index_key)
        .collect();
    assert!(
        rows0.is_disjoint(&rows1),
        "epoch keys must make index columns unlinkable"
    );

    // And queries still work on both epochs.
    let q = Query::count().at_dims([3]).between(0, 7199);
    assert!(system.session(&user).execute(&q).is_ok());
}

/// Integrity: deleting a row (as the malicious service provider) is caught
/// by the hash-chain verification.
#[test]
fn row_deletion_detected() {
    let (system, user, records) = demo_system(1, 205);
    // Replace one stored row with a duplicate of another (net effect: a
    // logical deletion plus an injection, both of which must be caught).
    let rows = system.store().full_scan(0).unwrap();
    let victim = rows[3].clone();
    let mut forged = rows[4].clone();
    forged.index_key = victim.index_key.clone();
    system
        .store()
        .rewrite_bin(0, vec![(victim.index_key.clone(), forged)], Vec::new())
        .unwrap();

    let session = system.session(&user);
    let mut detected = false;
    for r in records.iter().step_by(11) {
        let q = Query::count().at_dims(r.dims.clone()).at(r.time);
        if matches!(
            session.execute(&q),
            Err(CoreError::IntegrityViolation { .. })
        ) {
            detected = true;
            break;
        }
    }
    assert!(detected, "tampering must be detected by some query");
}

/// Concealer+ obliviousness: the enclave's in-enclave work (comparisons,
/// moves, sort steps, decryptions) is identical for different predicates
/// that hit the same bin.
#[test]
fn oblivious_processing_is_predicate_independent() {
    let mut rng = StdRng::seed_from_u64(206);
    let mut config = demo_config(1);
    config.oblivious = true;
    let generator = WifiGenerator::new(WifiConfig::tiny());
    let records = generator.generate_epoch(0, 3600, &mut rng);
    let mut system = concealer_examples::build_system(config, &mut rng);
    let user = system.register_user(1, vec![], true);
    system.ingest_epoch(0, &records, &mut rng).unwrap();

    let target = &records[5];
    let meter = system.meter();
    let session = system.session(&user);

    let q_dense = Query::count().at_dims(target.dims.clone()).at(target.time);
    meter.reset();
    let a = session.execute(&q_dense).unwrap();
    let snap_dense = meter.snapshot();

    // Same cell (same location bucket and time row), different granule
    // position — same bin, different true answer.
    let q_sparse = Query::count()
        .at_dims(target.dims.clone())
        .at(target.time ^ 1);
    meter.reset();
    let b = session.execute(&q_sparse).unwrap();
    let snap_sparse = meter.snapshot();

    assert_eq!(a.rows_fetched, b.rows_fetched);
    assert_eq!(snap_dense.sort_steps, snap_sparse.sort_steps);
    assert_eq!(snap_dense.element_touches, snap_sparse.element_touches);
    assert_eq!(
        snap_dense.trapdoors_generated,
        snap_sparse.trapdoors_generated
    );
    assert_eq!(snap_dense.decryptions, snap_sparse.decryptions);
}

/// Concealer+ obliviousness across bins: a fake row costs what a real row
/// costs, so the side-channel meter of a point query is the same whichever
/// bin it lands in — it does not count the bin's real rows. One point per
/// bin of the demo epoch (bins told apart by their fetch sets), for every
/// aggregate.
#[test]
fn oblivious_meter_is_the_same_for_every_bin() {
    let (system, user, _records) = demo_system(1, 208);
    let session = system.session(&user).with_options(ExecOptions {
        oblivious: Some(true),
        ..ExecOptions::default()
    });
    let mut per_bin: Vec<(u64, u64)> = Vec::new();
    let mut fetch_sets: BTreeSet<Vec<(u64, u64)>> = BTreeSet::new();
    for location in 0..DEMO_ACCESS_POINTS {
        for time in (0..3600).step_by(900) {
            system.observer().reset();
            session
                .execute(&Query::count().at_dims([location]).at(time))
                .unwrap();
            let set = system.observer().per_query_fetch_sets().remove(0);
            if fetch_sets.insert(set) {
                per_bin.push((location, time));
            }
        }
    }
    let bins = system.engine().plan_stats(0).unwrap().num_bins;
    assert!(per_bin.len() > 1, "one bin of {bins} reached");

    let aggregates = [
        Query::count(),
        Query::sum(0),
        Query::min(0),
        Query::max(0),
        Query::average(0),
        Query::top_k_locations(3),
        Query::locations_with_at_least(1),
        Query::collect_rows(),
    ];
    for aggregate in aggregates {
        let meters: Vec<MeterSnapshot> = per_bin
            .iter()
            .map(|&(location, time)| {
                let query = aggregate.clone().at_dims([location]).at(time);
                let (answer, meter) = system.meter().measure(|| session.execute(&query));
                answer.unwrap();
                meter
            })
            .collect();
        assert!(
            meters.iter().all(|meter| *meter == meters[0]),
            "{aggregate:?}: {meters:#?}"
        );
    }
}

/// [`oblivious_meter_is_the_same_for_every_bin`] on a second shape: the
/// tiny WiFi deployment of the benchmark harness (20 access points, 10
/// location buckets, 30 cell-ids), one BPB point per bin, for
/// every aggregate. The plain fold looks its tokens up; the oblivious one
/// still compares every row with every token.
#[test]
fn oblivious_meter_is_the_same_for_every_bin_on_a_wifi_shape() {
    let wifi = build_wifi_system(WifiScale::Tiny, true, 209);
    let system = &wifi.system;
    let session = wifi.session().with_options(ExecOptions {
        oblivious: Some(true),
        ..ExecOptions::with_method(RangeMethod::Bpb)
    });
    // One point per bin, bins told apart by their fetch sets.
    let mut per_bin: Vec<(u64, u64)> = Vec::new();
    let mut fetch_sets: BTreeSet<Vec<(u64, u64)>> = BTreeSet::new();
    let points = (0..wifi.workload.locations).flat_map(|location| {
        (0..wifi.span_seconds)
            .step_by(1800)
            .map(move |t| (location, t))
    });
    for (location, time) in points {
        system.observer().reset();
        session
            .execute(&Query::count().at_dims([location]).at(time))
            .unwrap();
        let set = system.observer().per_query_fetch_sets().remove(0);
        if fetch_sets.insert(set) {
            per_bin.push((location, time));
        }
    }
    assert!(per_bin.len() > 1, "one bin of {:?} reached", wifi.bin_stats);

    let aggregates = [
        Query::count(),
        Query::sum(0),
        Query::min(0),
        Query::max(0),
        Query::average(0),
        Query::top_k_locations(3),
        Query::locations_with_at_least(1),
        Query::collect_rows(),
    ];
    for aggregate in aggregates {
        let meters: Vec<MeterSnapshot> = per_bin
            .iter()
            .map(|&(location, time)| {
                let query = aggregate.clone().at_dims([location]).at(time);
                let (answer, meter) = system.meter().measure(|| session.execute(&query));
                answer.unwrap();
                meter
            })
            .collect();
        assert!(
            meters.iter().all(|meter| *meter == meters[0]),
            "{aggregate:?}: {meters:#?}"
        );
    }
}

/// Workload attack (§8): with super-bins enabled the adversary observes a
/// *coarser* access pattern — different queries collapse onto fewer
/// distinguishable fetch-set signatures, and no query ever fetches fewer
/// rows than without super-bins. (The per-super-bin frequency balancing
/// itself is property-tested in `concealer-core::superbin`.)
#[test]
fn superbins_coarsen_observable_access_patterns() {
    let (system, user, _records) = demo_system(1, 207);

    let run_workload = |use_superbins: bool| -> (Vec<Vec<(u64, u64)>>, Vec<usize>) {
        system.observer().reset();
        let session = system.session(&user).with_options(ExecOptions {
            method: RangeMethod::Bpb,
            use_superbins,
            num_super_bins: 3,
            ..ExecOptions::default()
        });
        for loc in 0..12u64 {
            for window in 0..4u64 {
                let q = Query::count()
                    .at_dims([loc])
                    .between(window * 900, window * 900 + 899);
                session.execute(&q).unwrap();
            }
        }
        let sets = system.observer().per_query_fetch_sets();
        let volumes = sets.iter().map(Vec::len).collect();
        (sets, volumes)
    };

    let (sets_without, vol_without) = run_workload(false);
    let (sets_with, vol_with) = run_workload(true);

    let distinct = |sets: &[Vec<(u64, u64)>]| {
        sets.iter()
            .cloned()
            .collect::<BTreeSet<Vec<(u64, u64)>>>()
            .len()
    };
    assert!(
        distinct(&sets_with) <= distinct(&sets_without),
        "super-bins must not increase the number of distinguishable fetch signatures: {} vs {}",
        distinct(&sets_with),
        distinct(&sets_without)
    );
    // Volumes never shrink: fetching the whole super-bin is a superset of
    // fetching the bin alone.
    for (w, wo) in vol_with.iter().zip(vol_without.iter()) {
        assert!(
            w >= wo,
            "super-bin fetch {w} smaller than plain bin fetch {wo}"
        );
    }

    // AnswerValue sanity so the workload above is not vacuous.
    let q = Query::count().at_dims([0]).between(0, 3599);
    match system.session(&user).execute(&q).unwrap().value {
        AnswerValue::Count(_) => {}
        other => panic!("unexpected {other:?}"),
    }
}

/// Serves every snapshot of epoch 0 with the payload of one stored row —
/// whichever `target` names, if any — changed in its first byte: the
/// malicious provider tampering with one row at a time.
#[derive(Debug, Default)]
struct TamperOneRow {
    inner: concealer_storage::MemoryBackend,
    target: std::sync::Mutex<Option<u64>>,
}

impl concealer_storage::StorageBackend for TamperOneRow {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn put_epoch(
        &self,
        epoch_id: u64,
        epoch: concealer_storage::StoredEpoch,
        seal: Option<(u64, Vec<u8>)>,
    ) -> Result<(), concealer_storage::StorageError> {
        self.inner.put_epoch(epoch_id, epoch, seal)
    }
    fn epoch(
        &self,
        epoch_id: u64,
    ) -> Result<std::sync::Arc<concealer_storage::StoredEpoch>, concealer_storage::StorageError>
    {
        let epoch = self.inner.epoch(epoch_id)?;
        let Some(target) = *self.target.lock().unwrap() else {
            return Ok(epoch);
        };
        let mut rows = epoch.table.rows().to_rows();
        rows[target as usize].payload[0] ^= 1;
        Ok(std::sync::Arc::new(concealer_storage::StoredEpoch {
            table: concealer_storage::EncryptedTable::bulk_load(rows)?,
            ..(*epoch).clone()
        }))
    }
    fn update_epoch(
        &self,
        epoch_id: u64,
        next: &mut concealer_storage::NextEpochFn<'_>,
    ) -> Result<(), concealer_storage::StorageError> {
        self.inner.update_epoch(epoch_id, next)
    }
    fn epoch_ids(&self) -> Vec<u64> {
        self.inner.epoch_ids()
    }
    fn total_rows(&self) -> usize {
        self.inner.total_rows()
    }
}

/// Integrity: a detected tampering tells the host nothing about the row it
/// tampered with. Each row of one bin is tampered with in turn; every
/// query it fails fails with the same error text and the same encoded
/// wire error, so the host cannot learn a row's cell-id from the reply.
#[test]
fn an_integrity_error_names_no_cell_id() {
    use concealer_examples::{demo_config, demo_wifi_config, DEMO_DEVICES};
    use concealer_server::WireError;

    let backend = std::sync::Arc::new(TamperOneRow::default());
    let mut rng = StdRng::seed_from_u64(211);
    let records = WifiGenerator::new(demo_wifi_config()).generate_epoch(0, 3600, &mut rng);
    let mut system = concealer_core::SystemBuilder::new(demo_config(1))
        .with_backend(backend.clone())
        .build(&mut rng)
        .unwrap();
    let user = system.register_user(7, DEMO_DEVICES.collect(), true);
    system.ingest_epoch(0, &records, &mut rng).unwrap();

    let session = system.session(&user);
    let target = &records[0];
    let query = Query::count().at_dims(target.dims.clone()).at(target.time);
    system.observer().reset();
    let honest = session.execute(&query).unwrap();
    let bin = system.observer().per_query_fetch_sets().remove(0);

    let mut replies = BTreeSet::new();
    let mut detected = 0;
    for &(_, row_id) in &bin {
        *backend.target.lock().unwrap() = Some(row_id);
        match session.execute(&query) {
            Ok(answer) => assert_eq!(answer.value, honest.value, "row {row_id}"),
            Err(e) => {
                assert!(
                    matches!(e, CoreError::IntegrityViolation { .. }),
                    "row {row_id}: {e}"
                );
                detected += 1;
                let wire = serde::bin::to_bytes(&WireError::from(&e));
                replies.insert((e.to_string(), wire));
            }
        }
        *backend.target.lock().unwrap() = None;
    }
    assert!(detected > 1, "{detected} of {} rows detected", bin.len());
    assert_eq!(replies.len(), 1, "{replies:?}");
}
