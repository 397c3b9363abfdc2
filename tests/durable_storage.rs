//! Durable storage acceptance tests: a `ConcealerSystem` built on
//! [`DiskEpochStore`] must survive drop-and-reopen — every ingested epoch
//! queryable, hash-chain verification passing — and a randomized
//! point/range/batch workload must return answers *and adversary traces*
//! bit-identical to the default in-memory backend.
//!
//! Also the crash-recovery property: after tearing the last epoch's
//! segment at an arbitrary byte offset, reopening recovers every intact
//! epoch, whose answers still verify and equal the in-memory oracle; the
//! torn epoch is dropped whole (a half-epoch must never serve bins, or
//! fixed-size fetches — the volume-hiding invariant — would break).

use std::path::PathBuf;
use std::sync::Arc;

use concealer_core::query::AnswerValue;
use concealer_core::{
    ConcealerSystem, DiskEpochStore, ExecOptions, MasterKey, Query, QueryAnswer, RangeMethod,
    Record, SystemBuilder, SystemConfig, UserHandle,
};
use concealer_storage::AccessEvent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("concealer-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic per-epoch workload; `salt` decorrelates epochs.
fn epoch_records(epoch_start: u64, n: u64, salt: u64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::spatial(
                (i * 7 + salt) % 8,
                epoch_start + (i * 13 + salt * 5) % 3_600,
                1_000 + (i + salt) % 5,
            )
        })
        .collect()
}

/// Build a system on `backend` (None = in-memory) with a pinned master and
/// ingest `epochs` deterministically — identical RNG streams per epoch, so
/// ciphertexts, trapdoors and therefore adversary traces are comparable
/// across backends.
fn build_ingested(
    master: &MasterKey,
    backend: Option<Arc<DiskEpochStore>>,
    epochs: &[Vec<Record>],
) -> (ConcealerSystem, UserHandle) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut builder = SystemBuilder::new(SystemConfig::small_test())
        .master(master.clone())
        .engine_seed(7);
    if let Some(backend) = backend {
        builder = builder.with_backend(backend);
    }
    let mut system = builder.build(&mut rng).expect("assemble deployment");
    let user = system.register_user(1, vec![1_000, 1_001, 1_002, 1_003, 1_004], true);
    for (i, records) in epochs.iter().enumerate() {
        let start = i as u64 * 3_600;
        let mut ingest_rng = StdRng::seed_from_u64(1_000 + i as u64);
        system
            .ingest_epoch(start, records, &mut ingest_rng)
            .expect("ingest epoch");
    }
    (system, user)
}

/// The mixed workload of the acceptance criterion: point, range (all
/// non-forward-private methods) and batched/parallel-batched queries.
fn run_workload(system: &ConcealerSystem, user: &UserHandle, span: u64) -> Vec<QueryAnswer> {
    let session = system.session(user);
    let mut answers = Vec::new();
    for loc in [0u64, 3, 7] {
        let q = Query::count().at_dims([loc]).at(500 + loc * 60);
        answers.push(session.execute(&q).expect("point query"));
    }
    for method in [
        RangeMethod::Bpb,
        RangeMethod::Ebpb,
        RangeMethod::WinSecRange,
    ] {
        let q = Query::count().at_dims([2]).between(0, span - 1);
        answers.push(
            session
                .execute_with(&q, ExecOptions::with_method(method))
                .expect("range query"),
        );
    }
    let batch: Vec<Query> = (0..8)
        .map(|i| {
            Query::count()
                .at_dims([i % 8])
                .between(i * 300, span - 1 - i * 100)
        })
        .collect();
    let batch_session = session
        .clone()
        .with_options(ExecOptions::with_method(RangeMethod::Bpb));
    for answer in batch_session.execute_batch(&batch) {
        answers.push(answer.expect("batched query"));
    }
    for answer in batch_session.par_execute_batch(&batch) {
        answers.push(answer.expect("parallel batched query"));
    }
    answers
}

#[test]
fn disk_system_answers_and_traces_match_memory_and_survive_reopen() {
    let root = scratch("equivalence");
    let master = MasterKey::from_bytes([21u8; 32]);
    let epochs: Vec<Vec<Record>> = (0..3).map(|i| epoch_records(i * 3_600, 150, i)).collect();
    let span = 3 * 3_600;

    let (mem_system, mem_user) = build_ingested(&master, None, &epochs);
    let (disk_system, disk_user) = build_ingested(
        &master,
        Some(Arc::new(DiskEpochStore::open(&root).expect("open store"))),
        &epochs,
    );
    assert_eq!(disk_system.store().backend_kind(), "disk");

    // Same answers, bit-identical — including fetch metadata and the
    // verified flag (hash chains pass on both backends).
    mem_system.observer().reset();
    disk_system.observer().reset();
    let mem_answers = run_workload(&mem_system, &mem_user, span);
    let disk_answers = run_workload(&disk_system, &disk_user, span);
    assert_eq!(disk_answers, mem_answers);
    assert!(mem_answers.iter().all(|a| a.verified));

    // Same adversary trace, event for event.
    let mem_trace: Vec<AccessEvent> = mem_system.observer().trace();
    let disk_trace: Vec<AccessEvent> = disk_system.observer().trace();
    assert_eq!(disk_trace, mem_trace);

    // Drop the disk deployment and reopen from the same root + master:
    // every epoch is still there and the whole workload replays
    // identically, traces included.
    drop(disk_system);
    let mut rng = StdRng::seed_from_u64(2);
    let mut reopened = SystemBuilder::new(SystemConfig::small_test())
        .master(master)
        .engine_seed(7)
        .with_backend(Arc::new(DiskEpochStore::open(&root).expect("reopen store")))
        .build(&mut rng)
        .expect("reopen deployment");
    assert_eq!(reopened.store().epoch_ids(), vec![0, 3_600, 7_200]);
    assert_eq!(reopened.engine().registered_epochs(), vec![0, 3_600, 7_200]);
    let user = reopened.register_user(1, vec![1_000, 1_001, 1_002, 1_003, 1_004], true);
    reopened.observer().reset();
    let reopened_answers = run_workload(&reopened, &user, span);
    assert_eq!(reopened_answers, mem_answers);
    let reopened_trace: Vec<AccessEvent> = reopened.observer().trace();
    assert_eq!(reopened_trace, mem_trace);

    let _ = std::fs::remove_dir_all(&root);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Crash recovery: write N epochs, truncate the last ("active")
    /// epoch's segment at a random byte offset, reopen — all intact
    /// epochs verify and answer exactly like the in-memory oracle, and
    /// the torn epoch is gone whole.
    #[test]
    fn torn_segment_recovery_matches_in_memory_oracle(
        seed in 0u64..1_000,
        num_epochs in 1usize..4,
        cut_sel in 0u64..100_000,
    ) {
        let root = std::env::temp_dir().join(format!(
            "concealer-durable-crash-{}-{seed}-{num_epochs}-{cut_sel}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);

        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        let master = MasterKey::from_bytes(key);
        let epochs: Vec<Vec<Record>> = (0..num_epochs as u64)
            .map(|i| epoch_records(i * 3_600, 40 + (seed % 30), seed + i))
            .collect();

        // Ingest to disk, then "crash": drop the deployment and tear the
        // last epoch's committed segment at an arbitrary offset.
        let victim_path = {
            let disk = Arc::new(DiskEpochStore::open(&root).expect("open store"));
            let (system, _user) = build_ingested(&master, Some(disk.clone()), &epochs);
            drop(system);
            disk.segment_path((num_epochs as u64 - 1) * 3_600)
                .expect("victim epoch committed")
        };
        let full_len = std::fs::metadata(&victim_path).expect("victim exists").len();
        let cut = cut_sel % full_len; // strictly shorter: the footer is always lost
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&victim_path)
            .expect("open victim segment");
        f.set_len(cut).expect("truncate victim segment");
        drop(f);

        // Reopen: recovery drops the torn victim whole.
        let reopened = Arc::new(DiskEpochStore::open(&root).expect("recovery reopen"));
        let surviving: Vec<u64> = (0..num_epochs as u64 - 1).map(|i| i * 3_600).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut system = SystemBuilder::new(SystemConfig::small_test())
            .master(master.clone())
            .engine_seed(7)
            .with_backend(reopened)
            .build(&mut rng)
            .expect("reopen deployment");
        prop_assert_eq!(system.store().epoch_ids(), surviving.clone());
        let user = system.register_user(1, vec![], true);

        // Oracle: the same surviving epochs on the in-memory backend.
        let (oracle, oracle_user) = build_ingested(
            &master,
            None,
            &epochs[..num_epochs - 1],
        );

        for &epoch_start in &surviving {
            for loc in 0u64..4 {
                let q = Query::count()
                    .at_dims([loc * 2])
                    .between(epoch_start, epoch_start + 3_599);
                let got = system
                    .session(&user)
                    .execute_with(&q, ExecOptions::with_method(RangeMethod::Bpb))
                    .expect("recovered epoch query");
                let want = oracle
                    .session(&oracle_user)
                    .execute_with(&q, ExecOptions::with_method(RangeMethod::Bpb))
                    .expect("oracle query");
                prop_assert_eq!(&got, &want);
                prop_assert!(got.verified, "hash chains must verify after recovery");
                prop_assert!(matches!(got.value, AnswerValue::Count(_)));
            }
        }
        // The torn epoch answers nothing rather than something partial.
        if let Some(&last) = surviving.last() {
            let beyond = Query::count().at_dims([1]).at(last + 3_600 + 10);
            prop_assert!(system.session(&user).execute(&beyond).is_err());
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
