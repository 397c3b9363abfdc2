//! Every public item of the repository this harness calls, in one place.
//!
//! The rest of the harness imports repository items only through this
//! module, so a PR that renames or removes one of them sees here — and
//! only here — what its paired benchmark change must touch. Methods the
//! harness calls on these types are named beside them.

// core — deployment construction and the query surface:
// `SystemBuilder::{new, master, engine_seed, with_backend, build}`,
// `ConcealerSystem::{register_user, ingest_epoch, session, store, engine,
// provider}`, `Session::{execute_with, with_options, execute_batch,
// execute_partials}`; the public counters `phase_breakdown`,
// `bin_cache_stats`, `set_bin_cache_capacity`, `observer().{reset,
// summary}`, `engine().{plan_stats, enclave}`; `QueryAnswer::{value,
// rows_fetched, verified}`.
pub use concealer_core::query::trapdoor::{generate_oblivious, generate_plain, FetchSpec};
pub use concealer_core::verify::{verify_cell_chain, HashChainBuilder};
pub use concealer_core::Session as CoreSession;
pub use concealer_core::{
    merge_partials, shard_of_epoch, ConcealerSystem, DataProvider, DiskEpochStore, ExecOptions,
    FakeTupleStrategy, MasterKey, MemoryBackend, PhaseBreakdown, Predicate, Query, QueryAnswer,
    RangeMethod, Record, StorageBackend, SystemBuilder, SystemConfig, UserHandle,
};

// crypto — the primitives the `crypto` probes time.
pub use concealer_crypto::aes::Aes;
pub use concealer_crypto::cmac::Cmac;
pub use concealer_crypto::ctr::RandomizedCipher;
pub use concealer_crypto::sha256::Sha256;
pub use concealer_crypto::{DetBuffer, DeterministicCipher, EpochId};

// enclave — oblivious sort, attestation (`Enclave::{epoch_key, quote}`),
// and the side-channel meter the trapdoor generators charge.
pub use concealer_enclave::attest::verify_signature;
pub use concealer_enclave::sort::bitonic_sort_by_key;
pub use concealer_enclave::SideChannelMeter;

// storage — `EpochStore::{with_backend, ingest_epoch, fetch_batch,
// fetch_batch_matches, full_scan, metadata, total_rows, observer}`,
// `DiskEpochStore::{open, open_scratch}` and the `<root>/segments/` layout.
pub use concealer_storage::{EncryptedRow, EpochStore};

// serving — `Server::{new, with_handler, spawn}`, `ServerHandle::{local_addr,
// shutdown_and_join}`, `ServerMode::parse`, `RouterHandler::probe`,
// `ClientBuilder::{new, user, client_name, connect}`, the wire session's
// `execute`, `execute_with`, `execute_batch_with`, `ingest_epoch`,
// `serve_stats`, `router_stats`, `submit_execute`, `wait_execute`, `close`;
// `ServeStats::{mode, in_flight, backlog}`; and the wire types the codec
// probes encode.
pub use concealer_client::{ClientBuilder, Session as WireSession};
pub use concealer_router::{RouterConfig, RouterHandler};
pub use concealer_server::protocol::ShardLoad;
pub use concealer_server::{
    Request, Response, Server, ServerConfig, ServerHandle, ServerMode, WireResult,
};

// codec — `serde::bin::{to_bytes, from_bytes}` and `serde::frame::{write_frame,
// read_frame, FrameDecoder}` are called by path (the shim exposes modules,
// not items) from `deploy.rs`, `run.rs` and `layers.rs`.

// fixtures shared with the repository's own tests and tools: the WiFi
// shapes, the demo deployment, the request shape and the cleartext ground
// truth.
pub use concealer_baselines::cleartext::{aggregate_records, record_matches};
pub use concealer_bench::{ServerRequest, WifiScale};
pub use concealer_examples::{demo_config, demo_wifi_config, demo_workload, DEMO_DEVICES};
pub use concealer_workloads::{QueryWorkload, WifiConfig, WifiGenerator};
