//! # Concealer
//!
//! A reproduction of *"Concealer: SGX-based Secure, Volume Hiding, and
//! Verifiable Processing of Spatial Time-Series Datasets"* (EDBT 2021).
//!
//! Concealer lets a trusted **data provider** outsource encrypted spatial
//! time-series data to an untrusted **service provider** that hosts a
//! trusted-execution enclave, such that:
//!
//! * the data is encrypted with a *deterministic* scheme that an ordinary
//!   DBMS B-tree index can serve (no custom index structures at the server),
//! * every query fetches a **fixed-size bin** of tuples, so the output size
//!   never leaks the data distribution (volume hiding),
//! * the enclave can optionally process fetched tuples **obliviously**
//!   ("Concealer+"), defending against SGX side channels,
//! * the data provider can attach hash-chain tags so the enclave can
//!   **verify** that the service provider did not tamper with the data,
//! * data arrives **dynamically** in epochs, with forward privacy across
//!   epochs.
//!
//! ## Quick start
//!
//! ```
//! use concealer_core::{
//!     ConcealerSystem, SystemConfig, GridShape, Record, Query, FakeTupleStrategy,
//! };
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let config = SystemConfig {
//!     grid: GridShape { dim_buckets: vec![8], time_subintervals: 4, num_cell_ids: 16 },
//!     epoch_duration: 3_600,
//!     time_granularity: 60,
//!     fake_strategy: FakeTupleStrategy::SimulateBins,
//!     verify_integrity: true,
//!     oblivious: false,
//!     winsec_rows_per_interval: 2,
//! };
//! let mut system = ConcealerSystem::new(config, &mut rng);
//! let user = system.register_user(7, vec![1000], true);
//!
//! // One epoch of data: (location, time, device-id) readings.
//! let records: Vec<Record> = (0..100)
//!     .map(|i| Record { dims: vec![i % 8], time: i * 36, payload: vec![1000 + (i % 5)] })
//!     .collect();
//! system.ingest_epoch(0, &records, &mut rng).unwrap();
//!
//! // Open a session and ask: "how many observations at location 3 during
//! // the first half hour?"
//! let session = system.session(&user);
//! let query = Query::count().at_dims([3]).between(0, 1_800);
//! let answer = session.execute(&query).unwrap();
//! println!("count = {:?}", answer.value);
//!
//! // Under the bin-granular BPB method, batches dedupe shared bin
//! // fetches across queries; `par_execute_batch` additionally spreads
//! // the fetch/aggregate stages across all cores with bit-identical
//! // answers and an unchanged adversary-observable trace.
//! use concealer_core::{ExecOptions, RangeMethod};
//! let batch_session = session.with_options(ExecOptions::with_method(RangeMethod::Bpb));
//! let queries = [
//!     Query::count().at_dims([3]).between(0, 1_800),
//!     Query::count().at_dims([5]).between(0, 3_599),
//! ];
//! let answers = batch_session.execute_batch(&queries);
//! assert!(answers.iter().all(Result::is_ok));
//! let parallel = batch_session.par_execute_batch(&queries);
//! assert_eq!(
//!     parallel.iter().flatten().collect::<Vec<_>>(),
//!     answers.iter().flatten().collect::<Vec<_>>(),
//! );
//! ```
//!
//! See `examples/` for complete applications (occupancy heat-maps, contact
//! tracing, TPC-H analytics) and `concealer-bench` for the harness that
//! regenerates every table and figure of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod bin_cache;
pub mod bins;
pub mod codec;
pub mod config;
pub mod dynamic;
pub mod engine;
pub mod grid;
pub mod provider;
pub mod query;
pub mod superbin;
pub mod types;
pub mod verify;

mod error;
mod system;

pub use api::{ExecOptions, IndexStats, SecureIndex, Session, SystemBuilder, BACKEND_ENV_VAR};
pub use bin_cache::BinCacheStats;
pub use bins::{Bin, BinPlan};
pub use config::{FakeTupleStrategy, GridShape, SystemConfig};
pub use engine::{
    merge_partials, ConcealerSystem, EpochPartial, PhaseBreakdown, PlanStats, QueryEngine,
    RangeMethod, UserHandle, WinSecStats,
};
pub use error::CoreError;
pub use grid::{CellCoord, Grid};
pub use provider::{DataProvider, EpochShipment};
pub use query::{Aggregate, Predicate, Query, QueryAnswer, QueryBuilder};
pub use superbin::SuperBinPlan;
pub use types::{EpochWindow, Record};

// Storage backends, re-exported so deployments can pick where sealed
// epochs live without depending on `concealer-storage` directly; the
// master key type, because reopening a durable backend requires passing
// the key the epochs were sealed under to [`SystemBuilder::master`].
pub use concealer_crypto::MasterKey;
pub use concealer_storage::{shard_of_epoch, DiskEpochStore, MemoryBackend, StorageBackend};

// User identity primitives, re-exported for the serving layer: a wire
// handshake presents `(UserId, Credential)` and the server reconstructs the
// [`UserHandle`] the enclave authenticates on every query.
pub use concealer_enclave::{Credential, EnclaveError, QueryScope, UserId};

/// Convenience alias for fallible Concealer calls.
pub type Result<T> = std::result::Result<T, CoreError>;
