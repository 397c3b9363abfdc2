//! Shared helpers for the Concealer examples and the cross-crate
//! integration tests.
//!
//! The runnable examples live in the repository-root `examples/` directory
//! (`cargo run --example quickstart`), and the
//! integration tests in the repository-root `tests/` directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use concealer_core::{
    ConcealerSystem, FakeTupleStrategy, GridShape, MasterKey, Record, SystemBuilder, SystemConfig,
    UserHandle,
};
use concealer_workloads::{QueryWorkload, WifiConfig, WifiGenerator};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Build a deployment honoring the `CONCEALER_TEST_BACKEND` harness hook
/// (see [`concealer_core::BACKEND_ENV_VAR`]): unset or `memory` is the
/// default in-memory store; `disk` places the sealed epochs in a
/// crash-safe on-disk store under a fresh scratch directory, which is how
/// the CI backend matrix reruns the integration suites against
/// [`concealer_core::DiskEpochStore`]. Every test and example that does
/// not need a *specific* backend should construct its system through this
/// (or [`demo_system`]) so it participates in the matrix.
pub fn build_system<R: RngCore>(config: SystemConfig, rng: &mut R) -> ConcealerSystem {
    SystemBuilder::new(config)
        .backend_from_env()
        .expect("CONCEALER_TEST_BACKEND must be unset, \"memory\" or \"disk\"")
        .build(rng)
        .expect("a fresh backend has no epochs that could fail registration")
}

/// [`build_system`] with a pinned master key and engine seed, for tests
/// that compare deployments sharing key material.
pub fn build_system_with_master(
    config: SystemConfig,
    master: MasterKey,
    engine_seed: u64,
) -> ConcealerSystem {
    let mut rng = StdRng::seed_from_u64(engine_seed);
    SystemBuilder::new(config)
        .master(master)
        .engine_seed(engine_seed)
        .backend_from_env()
        .expect("CONCEALER_TEST_BACKEND must be unset, \"memory\" or \"disk\"")
        .build(&mut rng)
        .expect("a fresh backend has no epochs that could fail registration")
}

/// A small but realistic campus deployment used by several examples and
/// integration tests: one day of data, 24 hourly-ish time rows, moderate
/// skew.
pub fn demo_config(hours: u64) -> SystemConfig {
    SystemConfig {
        grid: GridShape {
            dim_buckets: vec![12],
            time_subintervals: (hours * 4).max(4),
            num_cell_ids: 64,
        },
        epoch_duration: hours * 3600,
        time_granularity: 60,
        fake_strategy: FakeTupleStrategy::SimulateBins,
        verify_integrity: true,
        oblivious: false,
        winsec_rows_per_interval: 4,
    }
}

/// Access points (= query-able locations) in the demo deployment.
pub const DEMO_ACCESS_POINTS: u64 = 30;

/// Device ids present in the demo data and authorized for the demo user.
pub const DEMO_DEVICES: std::ops::Range<u64> = 1000..1300;

/// The demo deployment's WiFi generator parameters — the single source of
/// truth shared by [`demo_system`], [`demo_epoch_records`] and (via the
/// constants above) [`demo_workload`], so a serving-layer oracle built
/// from the same `(hours, seed)` pair cannot drift from the server's
/// fixture.
#[must_use]
pub fn demo_wifi_config() -> WifiConfig {
    WifiConfig {
        access_points: DEMO_ACCESS_POINTS,
        devices: DEMO_DEVICES.end - DEMO_DEVICES.start,
        peak_rows_per_hour: 1_500,
        offpeak_rows_per_hour: 200,
        location_skew: 0.8,
    }
}

/// Build a demo deployment with `hours` of synthetic WiFi data already
/// ingested. Returns the system, an all-powers user handle, and the
/// cleartext records (for ground-truth comparison).
pub fn demo_system(hours: u64, seed: u64) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    demo_system_sharded(hours, seed, 0, 1)
}

/// [`demo_system`] for one shard of a multi-node deployment: the same
/// master key, fake-tuple draws, user credential and records as the
/// unsharded fixture, but epoch 0 is only ingested when
/// `shard_of_epoch(0, shard_total) == shard_index`. Returns the records
/// whether or not they were ingested (a router-side oracle still needs
/// them).
///
/// # Panics
///
/// Panics if `shard_index >= shard_total` (a malformed shard spec).
pub fn demo_system_sharded(
    hours: u64,
    seed: u64,
    shard_index: u32,
    shard_total: u32,
) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    demo_fixture(hours, seed, (shard_index, shard_total), true, |rng| {
        build_system(demo_config(hours), rng)
    })
}

/// [`demo_system_sharded`] for one *member* of a replica set sharing the
/// durable store root `root`: every member of the set — and the unsharded
/// oracle — derives the same master key and user credential. The writer
/// opens the root owning it and ingests epoch 0 when its shard owns that
/// epoch; replicas open it read-only with
/// [`concealer_core::DiskEpochStore::open_replica`] and ingest nothing —
/// they absorb the writer's committed epochs at open and on
/// [`ConcealerSystem::refresh_epochs`] ticks. Pass `shard: None` for an
/// unsharded (single-shard) set.
///
/// # Panics
///
/// Panics if the shard spec is malformed, the store root cannot be
/// opened, or the demo ingest fails.
pub fn demo_system_replica(
    hours: u64,
    seed: u64,
    shard: Option<(u32, u32)>,
    root: &std::path::Path,
    writer: bool,
) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    use concealer_core::DiskEpochStore;
    use std::sync::Arc;

    demo_fixture(hours, seed, shard.unwrap_or((0, 1)), writer, |rng| {
        let backend: Arc<dyn concealer_core::StorageBackend> = if writer {
            Arc::new(DiskEpochStore::open(root).expect("open writer store"))
        } else {
            Arc::new(DiskEpochStore::open_replica(root).expect("open replica store"))
        };
        SystemBuilder::new(demo_config(hours))
            .with_backend(backend)
            .build(rng)
            .expect("replica-set demo store must assemble")
    })
}

/// The one body of the demo fixtures. Its RNG draw order — records, then
/// `build` (master key and engine seed), then user 7's registration, then
/// the ingest of epoch 0 — is what lets every fixture built from one
/// `(hours, seed)` hand out the same credential over the same records:
/// backends consume no randomness, and the ingest is the last draw, so
/// skipping it (a shard that does not own epoch 0, a replica) perturbs
/// nothing. `ingest` is whether this member may write at all.
fn demo_fixture(
    hours: u64,
    seed: u64,
    (shard_index, shard_total): (u32, u32),
    ingest: bool,
    build: impl FnOnce(&mut StdRng) -> ConcealerSystem,
) -> (ConcealerSystem, UserHandle, Vec<Record>) {
    assert!(
        shard_index < shard_total,
        "shard index {shard_index} out of range for total {shard_total}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let records = WifiGenerator::new(demo_wifi_config()).generate_epoch(0, hours * 3600, &mut rng);
    let mut system = build(&mut rng);
    let user = system.register_user(7, DEMO_DEVICES.collect(), true);
    if ingest && concealer_core::shard_of_epoch(0, shard_total as usize) == shard_index as usize {
        system
            .ingest_epoch(0, &records, &mut rng)
            .expect("demo ingest");
    }
    (system, user, records)
}

/// The query-workload generator matching [`demo_system`]'s deployment
/// ([`DEMO_ACCESS_POINTS`] locations, [`DEMO_DEVICES`] device ids,
/// `hours` of data) — what every harness generating queries against a
/// demo fixture uses, including the serving-layer load generator and
/// loopback tests (which must agree with the server about the
/// deployment).
#[must_use]
pub fn demo_workload(hours: u64) -> QueryWorkload {
    QueryWorkload {
        locations: DEMO_ACCESS_POINTS,
        devices: DEMO_DEVICES.collect(),
        time_extent: (0, hours * 3600),
    }
}

/// One epoch of demo WiFi records for the epoch starting at `epoch_start`,
/// generated with [`demo_system`]'s generator parameters
/// ([`demo_wifi_config`]). Deterministic in `(hours, seed, epoch_start)`,
/// so a wire client and a local oracle can ingest identical follow-up
/// epochs independently.
#[must_use]
pub fn demo_epoch_records(hours: u64, seed: u64, epoch_start: u64) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(seed ^ epoch_start.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    WifiGenerator::new(demo_wifi_config()).generate_epoch(epoch_start, hours * 3600, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_workload_matches_demo_system_extent() {
        let w = demo_workload(2);
        assert_eq!(w.time_extent, (0, 7200));
        assert_eq!(w.locations, 30);
        assert_eq!(w.devices.len(), 300);
    }

    #[test]
    fn demo_epoch_records_are_deterministic_and_in_window() {
        let a = demo_epoch_records(1, 9, 3600);
        let b = demo_epoch_records(1, 9, 3600);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.iter().all(|r| r.time >= 3600 && r.time < 7200));
    }

    #[test]
    fn demo_system_builds() {
        let (system, _user, records) = demo_system(2, 1);
        assert!(!records.is_empty());
        assert_eq!(system.engine().registered_epochs(), vec![0]);
    }

    #[test]
    fn demo_replica_follows_writer_and_shares_credentials() {
        let root =
            std::env::temp_dir().join(format!("concealer-demo-replica-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        // Replica first: the root is empty, so it assembles with nothing
        // registered and absorbs epoch 0 on a refresh tick after the
        // writer commits it.
        let (replica, replica_user, replica_records) =
            demo_system_replica(1, 5, None, &root, false);
        assert!(replica.store_read_only());
        assert!(replica.engine().registered_epochs().is_empty());

        let (writer, writer_user, writer_records) = demo_system_replica(1, 5, None, &root, true);
        assert!(!writer.store_read_only());
        assert_eq!(writer.engine().registered_epochs(), vec![0]);
        assert_eq!(replica.refresh_epochs().unwrap().registered, vec![0]);
        assert_eq!(replica.engine().registered_epochs(), vec![0]);

        // One draw order for every fixture: both members, the unsharded
        // fixture and a shard of it hand out the same credential over the
        // same records, so a router can authenticate against any of them
        // and an oracle can stand in for all of them.
        let (_, user, records) = demo_system(1, 5);
        let (_, shard_user, shard_records) = demo_system_sharded(1, 5, 1, 2);
        for (member_user, member_records) in [
            (&writer_user, &writer_records),
            (&replica_user, &replica_records),
            (&shard_user, &shard_records),
        ] {
            assert_eq!(member_user.credential, user.credential);
            assert_eq!(member_records, &records);
        }
        drop(writer);
        drop(replica);
        let _ = std::fs::remove_dir_all(&root);
    }
}
