//! Online master-key rotation tests: rotating the master generation
//! re-wraps the durable key vault without touching epochs, enclave keys,
//! or the query path — so answers stay **bit-identical** while a
//! rotation runs, a crash mid-re-wrap resumes on reopen, and vault
//! entries that do not unwrap under the recorded generation refuse the
//! reopen with [`CoreError::CorruptMetadata`] instead of serving
//! garbage.

use std::sync::Arc;

use concealer_core::{
    ConcealerSystem, CoreError, DiskEpochStore, MasterKey, Query, QueryAnswer, Record,
    SystemBuilder, SystemConfig, UserHandle,
};
use concealer_storage::StoredEpoch;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPOCH: u64 = 3_600;

fn wire_bytes(answer: &QueryAnswer) -> Vec<u8> {
    serde::bin::to_bytes(answer)
}

/// A scratch store root under the system temp dir, removed on drop.
struct TempRoot(std::path::PathBuf);

impl TempRoot {
    fn new(tag: &str) -> TempRoot {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "concealer-rotation-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        TempRoot(path)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn demo_records(epoch_start: u64, salt: u64) -> Vec<Record> {
    (0..240)
        .map(|i| {
            Record::spatial(
                (i + salt) % 8,
                epoch_start + (i * 13) % EPOCH,
                1_000 + (i + salt) % 5,
            )
        })
        .collect()
}

/// Build a disk-backed deployment on `root` with `epochs` ingested
/// epochs, under a pinned master.
fn build_disk_system(
    root: &std::path::Path,
    master: &MasterKey,
    epochs: u64,
) -> (ConcealerSystem, UserHandle) {
    let mut rng = StdRng::seed_from_u64(9);
    let mut system = SystemBuilder::new(SystemConfig::small_test())
        .master(master.clone())
        .engine_seed(7)
        .with_backend(Arc::new(DiskEpochStore::open(root).expect("open store")))
        .build(&mut rng)
        .expect("assemble deployment");
    let user = system.register_user(1, vec![1_000, 1_001, 1_002, 1_003, 1_004], true);
    for k in 0..epochs {
        let mut ingest_rng = StdRng::seed_from_u64(500 + k);
        system
            .ingest_epoch(k * EPOCH, &demo_records(k * EPOCH, k), &mut ingest_rng)
            .expect("ingest epoch");
    }
    (system, user)
}

/// Reopen the same root under the same master.
fn reopen(root: &std::path::Path, master: &MasterKey) -> concealer_core::Result<ConcealerSystem> {
    let mut rng = StdRng::seed_from_u64(9);
    SystemBuilder::new(SystemConfig::small_test())
        .master(master.clone())
        .engine_seed(7)
        .with_backend(Arc::new(DiskEpochStore::open(root).expect("reopen store")))
        .build(&mut rng)
}

/// The mixed workload answers used as the bit-identity oracle.
fn workload_answers(system: &ConcealerSystem, user: &UserHandle, epochs: u64) -> Vec<Vec<u8>> {
    let session = system.session(user);
    let mut answers = Vec::new();
    for loc in [0u64, 3, 7] {
        let q = Query::count().at_dims([loc]).at(500 + loc * 60);
        answers.push(wire_bytes(&session.execute(&q).expect("point query")));
    }
    let spanning = Query::count().at_dims([2]).between(0, epochs * EPOCH - 1);
    answers.push(wire_bytes(&session.execute(&spanning).expect("spanning")));
    let top_k = Query::top_k_locations(4).between(0, epochs * EPOCH - 1);
    answers.push(wire_bytes(&session.execute(&top_k).expect("top-k")));
    answers
}

/// The tentpole pin: queries hammering the deployment concurrently with
/// an online rotation (several generations back to back) return answers
/// bit-identical to the pre-rotation oracle, and the rotation completes
/// with nothing left pending.
#[test]
fn queries_stay_bit_identical_while_rotation_runs() {
    const EPOCHS: u64 = 6;
    const QUERY_THREADS: usize = 4;
    const ROTATIONS: u64 = 3;
    let root = TempRoot::new("concurrent");
    let master = MasterKey::from_bytes([21u8; 32]);
    let (system, user) = build_disk_system(&root.0, &master, EPOCHS);
    let baseline = workload_answers(&system, &user, EPOCHS);
    assert_eq!(system.key_generation(), 0);

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..QUERY_THREADS {
            let system = &system;
            let user = &user;
            let baseline = &baseline;
            let done = &done;
            scope.spawn(move || {
                let mut rounds = 0u64;
                while !done.load(std::sync::atomic::Ordering::Acquire) || rounds < 2 {
                    let got = workload_answers(system, user, EPOCHS);
                    assert_eq!(
                        &got, baseline,
                        "answers diverged while a rotation was in flight"
                    );
                    rounds += 1;
                }
            });
        }
        for expected_generation in 1..=ROTATIONS {
            let (generation, rewrapped) = system
                .rotate_master_generation()
                .expect("online rotation under live queries");
            assert_eq!(generation, expected_generation);
            assert_eq!(
                rewrapped, EPOCHS as usize,
                "every vault entry re-wraps each rotation"
            );
        }
        done.store(true, std::sync::atomic::Ordering::Release);
    });

    assert_eq!(system.key_generation(), ROTATIONS);
    assert_eq!(system.rotation_pending(), 0);
    assert_eq!(
        workload_answers(&system, &user, EPOCHS),
        baseline,
        "answers diverged after the rotations settled"
    );
}

/// A crash mid-re-wrap: the generation counter is bumped durably before
/// entries move, so a reopen sees a legal resumable state —
/// `rotation_pending > 0` at the *new* generation — and
/// `resume_key_rotation` finishes the job. Realized by driving the
/// backend's bounded re-wrap directly and dropping the system with
/// entries still behind the counter.
#[test]
fn partial_rewrap_survives_reopen_and_resumes() {
    const EPOCHS: u64 = 5;
    const PARTIAL: usize = 2;
    let root = TempRoot::new("resume");
    let master = MasterKey::from_bytes([22u8; 32]);
    let baseline;
    {
        let (system, user) = build_disk_system(&root.0, &master, EPOCHS);
        baseline = workload_answers(&system, &user, EPOCHS);
        let backend = system.store().backend();
        backend.begin_key_rotation(1).expect("begin rotation");
        // Re-wrap only PARTIAL entries, then "crash" (drop mid-rotation).
        let moved = backend
            .rewrap_keys(
                &mut |epoch_id, generation, _old| Ok(master.wrap_epoch_seal(generation, epoch_id)),
                PARTIAL,
            )
            .expect("bounded re-wrap");
        assert_eq!(moved, PARTIAL);
        assert_eq!(system.rotation_pending(), EPOCHS as usize - PARTIAL);
    }

    // Reopen: the mixed-generation vault is legal (entries lag the
    // counter, never lead it) and the resumable state is visible.
    let mut reopened = reopen(&root.0, &master).expect("mixed-generation vault reopens");
    assert_eq!(reopened.key_generation(), 1);
    assert_eq!(reopened.rotation_pending(), EPOCHS as usize - PARTIAL);
    let user = reopened.register_user(1, vec![1_000, 1_001, 1_002, 1_003, 1_004], true);
    assert_eq!(workload_answers(&reopened, &user, EPOCHS), baseline);

    // Resume finishes exactly the remainder; a second resume is a no-op.
    assert_eq!(
        reopened.resume_key_rotation().expect("resume"),
        EPOCHS as usize - PARTIAL
    );
    assert_eq!(reopened.rotation_pending(), 0);
    assert_eq!(reopened.resume_key_rotation().expect("idempotent"), 0);
    assert_eq!(workload_answers(&reopened, &user, EPOCHS), baseline);
}

/// Vault entries that do not unwrap under their recorded generation —
/// a garbage blob, or a blob wrapped under a different generation than
/// recorded — refuse the reopen with `CorruptMetadata` instead of
/// registering an epoch the master cannot actually read.
#[test]
fn vault_entries_that_do_not_unwrap_refuse_reopen() {
    let master = MasterKey::from_bytes([23u8; 32]);

    // Garbage blob.
    let root = TempRoot::new("garbage");
    {
        let (system, _user) = build_disk_system(&root.0, &master, 2);
        let backend = system.store().backend();
        let epoch = StoredEpoch::clone(&backend.epoch(0).expect("stored epoch"));
        backend
            .put_epoch(0, epoch, Some((system.key_generation(), vec![0xFF; 48])))
            .expect("overwrite vault entry");
    }
    match reopen(&root.0, &master) {
        Err(CoreError::CorruptMetadata) => {}
        other => panic!("expected CorruptMetadata, got {other:?}"),
    }

    // Wrong generation: a blob wrapped under generation 0 but recorded
    // as generation 3 (as if a buggy rotation had tagged entries ahead
    // of the wrap it actually performed).
    let root = TempRoot::new("wrong-gen");
    {
        let (system, _user) = build_disk_system(&root.0, &master, 2);
        let backend = system.store().backend();
        backend.begin_key_rotation(3).expect("bump generation");
        let epoch = StoredEpoch::clone(&backend.epoch(0).expect("stored epoch"));
        backend
            .put_epoch(0, epoch, Some((3, master.wrap_epoch_seal(0, 0))))
            .expect("record mis-wrapped entry");
    }
    match reopen(&root.0, &master) {
        Err(CoreError::CorruptMetadata) => {}
        other => panic!("expected CorruptMetadata, got {other:?}"),
    }
}

/// A read replica keeps serving bit-identical answers across the
/// writer's rotation, absorbs epochs ingested after it, and observes the
/// new generation through its refresh path.
#[test]
fn replica_refresh_across_rotation_stays_bit_identical() {
    const EPOCHS: u64 = 3;
    let root = TempRoot::new("replica");
    let master = MasterKey::from_bytes([24u8; 32]);
    let (writer, user) = build_disk_system(&root.0, &master, EPOCHS);

    // A read replica on the same root (same master, read-only store).
    let mut replica_rng = StdRng::seed_from_u64(9);
    let mut replica = SystemBuilder::new(SystemConfig::small_test())
        .master(master.clone())
        .engine_seed(7)
        .with_backend(Arc::new(
            DiskEpochStore::open_replica(&root.0).expect("open replica"),
        ))
        .build(&mut replica_rng)
        .expect("assemble replica");
    let replica_user = replica.register_user(1, vec![1_000, 1_001, 1_002, 1_003, 1_004], true);
    let baseline = workload_answers(&writer, &user, EPOCHS);
    assert_eq!(workload_answers(&replica, &replica_user, EPOCHS), baseline);

    // Writer rotates; the replica's answers never waver.
    let (generation, rewrapped) = writer.rotate_master_generation().expect("writer rotation");
    assert_eq!(generation, 1);
    assert_eq!(rewrapped, EPOCHS as usize);
    assert_eq!(workload_answers(&replica, &replica_user, EPOCHS), baseline);

    // An epoch ingested after the rotation lands in the vault at the new
    // generation and the replica absorbs it through refresh.
    let mut ingest_rng = StdRng::seed_from_u64(500 + EPOCHS);
    writer
        .ingest_epoch(
            EPOCHS * EPOCH,
            &demo_records(EPOCHS * EPOCH, EPOCHS),
            &mut ingest_rng,
        )
        .expect("post-rotation ingest");
    let (recorded_generation, _blob) = writer
        .store()
        .backend()
        .sealed_key(EPOCHS * EPOCH)
        .expect("post-rotation vault entry");
    assert_eq!(recorded_generation, 1);

    let absorbed = replica
        .refresh_epochs()
        .expect("replica refresh")
        .registered;
    assert!(
        absorbed.contains(&(EPOCHS * EPOCH)),
        "replica absorbed {absorbed:?}"
    );
    assert_eq!(
        replica.key_generation(),
        1,
        "replica sees the new generation"
    );
    assert_eq!(
        workload_answers(&replica, &replica_user, EPOCHS + 1),
        workload_answers(&writer, &user, EPOCHS + 1),
        "replica diverged across the rotation"
    );
}
