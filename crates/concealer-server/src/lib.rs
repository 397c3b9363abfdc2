//! Network serving layer for the Concealer reproduction.
//!
//! Turns an in-process [`ConcealerSystem`](concealer_core::ConcealerSystem)
//! into a multi-client TCP service speaking a length-prefixed
//! `serde::bin` frame protocol:
//!
//! * [`protocol`] — the versioned message set (hello/auth handshake,
//!   request-id'd execute/batch/ingest/stats/shutdown, structured error
//!   replies) and the frame limits;
//! * [`error`] — the wire-facing [`ErrorCode`] mapping of
//!   [`concealer_core::CoreError`];
//! * [`server`] — the thread-per-connection serving core (connection
//!   cap, admission backpressure, graceful drain): a transport around one
//!   private connection state machine that owns what a connection means —
//!   the pre-auth matrix, reserved ids, frame errors, limits, the close
//!   and drain rules.
//!
//! The blocking client side lives in the sibling `concealer-client`
//! crate; this crate's `tests/soak.rs` drives the server binary with
//! many clients; `concealer-router` fronts epoch-sharded deployments with
//! the same protocol. The canonical field-by-field wire specification is
//! `PROTOCOL.md` at the repository root; see `ARCHITECTURE.md`
//! § "Serving layer" for the trust-boundary argument (the wire is part
//! of the untrusted zone).
//!
//! ```no_run
//! use std::sync::Arc;
//! use concealer_examples::demo_system;
//! use concealer_server::{Server, ServerConfig};
//!
//! let (system, _user, _records) = demo_system(2, 42);
//! let handle = Server::new(Arc::new(system), ServerConfig::default())
//!     .spawn()
//!     .expect("bind loopback");
//! println!("serving on {}", handle.local_addr());
//! # handle.shutdown_and_join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
pub mod error;
pub mod protocol;
pub mod server;

pub use error::{ErrorCode, WireError};
pub use protocol::{
    Request, Response, ServeStats, ServerInfo, WireResult, WireStats, CONNECTION_LEVEL_ID,
    DEFAULT_MAX_BATCH, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use server::{
    DeploymentFacts, EngineHandler, EngineRequest, ServeHandler, ServeReport, Server, ServerConfig,
    ServerHandle, ServerMode,
};
