//! Storage substrate for the Concealer system.
//!
//! The paper stores the encrypted relation in MySQL and relies on the
//! DBMS's ordinary B-tree index over the `Index(L,T)` column — this is one
//! of Concealer's headline advantages over specialized SSE index structures
//! (PB-tree, IB-tree): *no custom index traversal protocol is needed at the
//! server*. This crate provides the equivalent embedded substrate:
//!
//! * [`table`] — [`table::EncryptedTable`], the encrypted relation: one
//!   epoch's rows in shipment order — one [`table::RowArena`] buffer read
//!   through borrowed [`table::RowRef`] views, with [`table::EncryptedRow`]
//!   as the owned row — plus the index over the `Index` column. The index
//!   (`key_index.rs`, private) plays the role of the MySQL index: built
//!   once per segment from the deterministic `Index` ciphertexts — sorted
//!   key prefixes under a bucket directory — it answers exact-match
//!   lookups, one at a time or a bin's worth together, and that is the
//!   only operation the server needs.
//! * [`epoch_store`] — [`epoch_store::EpochStore`], the service provider's
//!   database: one table segment per epoch/round plus the encrypted
//!   metadata blobs (`Ecell_id[]`, `Ec_tuple[]`, verifiable tags) DP ships
//!   alongside the tuples, with support for atomically replacing an epoch's
//!   rows (needed by the §6 dynamic-insertion re-encryption protocol).
//! * [`backend`] — [`backend::StorageBackend`], the pluggable persistence
//!   seam behind the store: the in-memory [`backend::MemoryBackend`]
//!   (default) and the crash-safe on-disk [`disk::DiskEpochStore`] serve
//!   the same query path with bit-identical answers and traces.
//! * [`disk`] — the durable backend: one segment file per epoch (the
//!   epoch's `RowArena` behind a footer checksum, written whole), a
//!   manifest for atomic epoch commit, and reopen-time recovery that
//!   drops torn epochs whole and refuses older formats untouched.
//! * [`observer`] — [`observer::AccessObserver`]: everything the untrusted
//!   service provider can see (which trapdoors were issued, which rows were
//!   fetched, how many bytes were transferred). The security tests assert
//!   volume-hiding and partial access-pattern-hiding directly against this
//!   trace, which is a stronger evaluation hook than the paper's informal
//!   argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod disk;
pub mod epoch_store;
pub mod observer;
pub mod table;

mod error;
mod key_index;

pub use backend::{shard_of_epoch, MemoryBackend, NextEpochFn, RewrapFn, StorageBackend};
pub use disk::DiskEpochStore;
pub use epoch_store::{EpochMetadata, EpochStore, StoredEpoch};
pub use error::StorageError;
pub use observer::{AccessEvent, AccessObserver, ObserverSummary};
pub use table::{EncryptedRow, EncryptedTable, RowArena, RowId, RowRef, RowWriter};

/// The guard of a `std::sync` lock call, recovered if the lock is
/// poisoned: a thread that panicked while holding it does not take the
/// lock's other users down with it.
fn unpoisoned<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Convenience alias for fallible storage calls.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::unpoisoned;
    use std::sync::{Arc, Mutex, RwLock};

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *unpoisoned(m.lock()) += 1;
        assert_eq!(*unpoisoned(m.lock()), 2);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(unpoisoned(l.read()).len(), 2);
        unpoisoned(l.write()).push(3);
        assert_eq!(*unpoisoned(l.read()), vec![1, 2, 3]);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = unpoisoned(m2.lock());
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        *unpoisoned(m.lock()) += 1;
        assert_eq!(*unpoisoned(m.lock()), 1);
    }
}
