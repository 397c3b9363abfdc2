//! Workspace facade for the Concealer reproduction.
//!
//! This crate exists so the repository root can host the cross-crate
//! integration tests (`tests/`) and runnable demos (`examples/`); it adds no
//! logic of its own. Each member crate is re-exported under a short alias so
//! downstream experiments can depend on a single crate:
//!
//! * [`core`] — bin packing, grid mapping, query engine ([`concealer_core`])
//! * [`crypto`] — deterministic AES-CMAC encryption, KDF, PRFs
//! * [`enclave`] — simulated SGX enclave: filtering, verification, oblivious ops
//! * [`storage`] — exact-match index, epoch store, access-pattern observer
//! * [`baselines`] — cleartext / det-index / Opaque-style comparison systems
//! * [`workloads`] — WiFi and TPC-H style data and query generators
//! * [`examples`] — shared demo plumbing used by `examples/*.rs`
//! * [`bench`](mod@bench) — experiment harness behind the paper's tables and figures
//! * [`server`] — TCP serving layer: wire protocol + multi-client server
//! * [`client`] — blocking wire-protocol client with pipelined batches
//!
//! Start with the crate-level docs of [`concealer_core`], or run
//! `cargo run --example quickstart` (`wire_quickstart` for the served
//! variant).

pub use concealer_baselines as baselines;
pub use concealer_bench as bench;
pub use concealer_client as client;
pub use concealer_core as core;
pub use concealer_crypto as crypto;
pub use concealer_enclave as enclave;
pub use concealer_examples as examples;
pub use concealer_server as server;
pub use concealer_storage as storage;
pub use concealer_workloads as workloads;
