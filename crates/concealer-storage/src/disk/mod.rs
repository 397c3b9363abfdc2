//! Crash-safe on-disk epoch storage: [`DiskEpochStore`].
//!
//! The durable counterpart of [`crate::MemoryBackend`]. Layout under the
//! store root:
//!
//! ```text
//! <root>/
//!   MANIFEST                     committed epochs → segment generation, key vault
//!   segments/ep-<epoch>-g<gen>.seg   one segment per epoch, written whole
//! ```
//!
//! Every write takes four steps: segment fsync; one manifest swap, which
//! on an ingest also commits the epoch's key-vault entry; publish; delete
//! the superseded segment file. So every on-disk state a crash can produce
//! maps to exactly one logical store state, and none holds an ingested
//! epoch without its vault entry. Every manifest change goes through the
//! one commit (`Manifest::commit`), under the manifest lock.
//!
//! The root is read in one pass (`read_root`): `MANIFEST`, then the
//! committed segments the store does not hold yet. It only reads, so an
//! older format ([`StorageError::UnsupportedFormat`]) or a segment under
//! another epoch's name fails it with every file as it was. Then:
//!
//! * the writer — [`DiskEpochStore::open`], [`StorageBackend::promote`] —
//!   repairs the root: a torn or missing committed segment has its epoch
//!   dropped whole, vault entry included (a half-epoch must never serve
//!   bins, or fixed-size fetches would stop hiding volumes), and segment
//!   files the manifest does not name are deleted;
//! * a replica — [`DiskEpochStore::open_replica`],
//!   [`StorageBackend::refresh`] — publishes the complete segments of
//!   epochs it does not hold, skips torn or missing ones (the writer may
//!   be mid-write; the next refresh retries), and writes nothing. Once a
//!   pass absorbed all the manifest names, its fingerprint lets an
//!   unchanged manifest cost a tick one `read`. An epoch already held is
//!   not re-read: §6 rewrites do not replicate, and the replica serves
//!   the snapshot it absorbed. Promotion is the writer's open over the
//!   root, re-reading only epochs whose generation changed; it moves no
//!   key material.
//!
//! Committed epochs stay resident in the epoch map the memory backend
//! keeps, so answers and adversary-observable traces are bit-identical
//! across backends; a write publishes only after its fsync and manifest
//! swap, under the manifest lock, so no reader waits on an fsync.
//!
//! Trust argument: the files are the *untrusted service provider's* disk.
//! Checksums here detect crashes and rot, not attacks — an adversary who
//! rewrites a segment consistently is caught by the enclave's hash-chain
//! verification at query time, exactly as with the in-memory store.

mod manifest;
mod segment;

use crate::backend::{EpochMap, NextEpochFn, RewrapFn, StorageBackend};
use crate::epoch_store::StoredEpoch;
use crate::{unpoisoned, Result, StorageError};
use manifest::{io_err, sync_dir, unsupported, Manifest};
use segment::DecodeOutcome;
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const SEGMENT_DIR: &str = "segments";

/// Durable, crash-safe storage of sealed epoch segments: open with
/// [`DiskEpochStore::open`] and hand to [`crate::EpochStore::with_backend`]
/// (or `concealer_core::SystemBuilder::with_backend`). See the module docs
/// for the recovery rules.
#[derive(Debug)]
pub struct DiskEpochStore {
    root: PathBuf,
    /// The resident snapshot of every loaded epoch.
    cache: EpochMap,
    /// What the cache currently holds: epoch → the generation it was
    /// loaded from. On the writer this mirrors the on-disk manifest; on a
    /// replica it may lag it (and keeps the *loaded* generation when the
    /// writer has since rewritten an epoch — rewrites do not replicate).
    manifest: Mutex<Manifest>,
    next_gen: AtomicU64,
    /// Scratch stores delete their root when the last handle drops.
    remove_root_on_drop: bool,
    /// Replica mode: refuse writes until promoted.
    read_only: AtomicBool,
    /// fnv1a of the `MANIFEST` bytes last fully absorbed by `refresh`;
    /// lets an idle replica's refresh tick return after one file read.
    manifest_fingerprint: AtomicU64,
}

impl Drop for DiskEpochStore {
    fn drop(&mut self) {
        if self.remove_root_on_drop {
            let _ = fs::remove_dir_all(&self.root);
        }
    }
}

impl DiskEpochStore {
    /// Open (or initialize) a store rooted at `root` as its writer,
    /// running crash recovery (see the module docs).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let store = Self::unopened(root.into());
        store.promote()?;
        Ok(store)
    }

    /// Open the store rooted at `root` as a *read-only replica* of another
    /// process's writer: a first [`StorageBackend::refresh`], which writes
    /// nothing on disk. Writes are refused with [`StorageError::ReadOnly`]
    /// until [`StorageBackend::promote`]. A root the writer has not
    /// initialized yet opens as an empty replica and fills in on refresh.
    pub fn open_replica(root: impl Into<PathBuf>) -> Result<Self> {
        let store = Self::unopened(root.into());
        store.refresh()?;
        Ok(store)
    }

    /// A read-only store over `root` that holds nothing yet: the writer's
    /// open promotes it, a replica's open refreshes it.
    fn unopened(root: PathBuf) -> Self {
        DiskEpochStore {
            root,
            cache: EpochMap::default(),
            manifest: Mutex::new(Manifest::default()),
            next_gen: AtomicU64::new(1),
            remove_root_on_drop: false,
            read_only: AtomicBool::new(true),
            manifest_fingerprint: AtomicU64::new(0),
        }
    }

    /// Open a *scratch* store: identical to [`DiskEpochStore::open`],
    /// except the root directory is deleted when the last handle drops.
    /// For harness-created throwaway stores (the `CONCEALER_TEST_BACKEND`
    /// hook), so backend-matrix runs do not accumulate segment data in
    /// the temp dir; durable deployments use [`DiskEpochStore::open`].
    pub fn open_scratch(root: impl Into<PathBuf>) -> Result<Self> {
        let mut store = Self::open(root)?;
        store.remove_root_on_drop = true;
        Ok(store)
    }

    /// The directory this store persists into.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The committed segment file currently backing an epoch, if the epoch
    /// is stored. (Primarily for tests and tooling — e.g. the crash
    /// recovery property test truncates this file.)
    #[must_use]
    pub fn segment_path(&self, epoch_id: u64) -> Option<PathBuf> {
        let generation = *unpoisoned(self.manifest.lock()).entries.get(&epoch_id)?;
        Some(segment_file(&self.root, epoch_id, generation))
    }

    /// Make `epoch` the committed state of `epoch_id`, with its key-vault
    /// entry `seal` when one is given, in the commit order of the module
    /// docs; the map advances only once the manifest swap succeeded. The
    /// caller holds the epoch's writer lock.
    fn persist(
        &self,
        epoch_id: u64,
        epoch: StoredEpoch,
        seal: Option<(u64, Vec<u8>)>,
    ) -> Result<()> {
        let generation = self.next_gen.fetch_add(1, Ordering::Relaxed);
        let path = segment_file(&self.root, epoch_id, generation);
        let mut f = fs::File::create(&path).map_err(|e| io_err("create segment", &path, &e))?;
        f.write_all(&segment::encode(epoch_id, &epoch))
            .map_err(|e| io_err("write segment", &path, &e))?;
        f.sync_all()
            .map_err(|e| io_err("sync segment", &path, &e))?;
        sync_dir(&self.root.join(SEGMENT_DIR))?;
        let superseded = {
            let mut m = unpoisoned(self.manifest.lock());
            let superseded = m.entries.get(&epoch_id).copied();
            m.commit(&self.root, |next| {
                next.entries.insert(epoch_id, generation);
                if let Some(seal) = seal {
                    next.wrapped_keys.insert(epoch_id, seal);
                }
            })?;
            self.cache.publish(epoch_id, epoch);
            superseded
        };
        if let Some(generation) = superseded {
            // Best effort: a leftover is harmless (reopen deletes it).
            let _ = fs::remove_file(segment_file(&self.root, epoch_id, generation));
        }
        Ok(())
    }

    /// The writer's repair of what a read pass found, shared by
    /// [`DiskEpochStore::open`] and [`StorageBackend::promote`]: publish
    /// the complete epochs, drop torn or missing ones from the committed
    /// set (and the map, where a promoting replica may hold an older
    /// generation), then delete the files the manifest does not name.
    /// Returns the repaired manifest and the highest generation on disk.
    fn repair(&self, read: RootRead) -> Result<(Manifest, u64)> {
        let mut manifest = read.manifest;
        // Vault invariant: `begin_key_rotation` durably bumps the generation
        // counter *before* any entry is re-wrapped, so no crash can leave an
        // entry wrapped under a generation the store never began. An entry
        // ahead of the counter is damage outside the crash model.
        if manifest
            .wrapped_keys
            .values()
            .any(|(generation, _)| *generation > manifest.key_generation)
        {
            return Err(StorageError::Corrupt {
                path: Manifest::path(&self.root).display().to_string(),
                reason: "key vault entry wrapped under a generation the store never began",
            });
        }
        let seg_dir = self.root.join(SEGMENT_DIR);
        fs::create_dir_all(&seg_dir).map_err(|e| io_err("create segment dir", &seg_dir, &e))?;
        // Files the manifest does not name are uncommitted (a crash before
        // the manifest swap) or superseded (a crash before the cleanup):
        // the write they belonged to was never acknowledged.
        let mut doomed = Vec::new();
        let mut max_gen = 0u64;
        let entries =
            fs::read_dir(&seg_dir).map_err(|e| io_err("scan segment dir", &seg_dir, &e))?;
        for entry in entries {
            let path = entry
                .map_err(|e| io_err("scan segment dir", &seg_dir, &e))?
                .path();
            let Some((epoch_id, generation)) = parse_segment_name(&path) else {
                continue; // not ours; leave unknown files alone
            };
            max_gen = max_gen.max(generation);
            if manifest.entries.get(&epoch_id) != Some(&generation) {
                doomed.push(path);
            }
        }
        let mut dropped = Vec::new();
        for (epoch_id, generation, epoch) in read.segments {
            match epoch {
                Some(epoch) => self.cache.publish(epoch_id, epoch),
                None => {
                    self.cache.remove(epoch_id);
                    dropped.push(epoch_id);
                    doomed.push(segment_file(&self.root, epoch_id, generation));
                }
            }
        }
        if !dropped.is_empty() {
            manifest.commit(&self.root, |next| {
                for epoch_id in &dropped {
                    next.entries.remove(epoch_id);
                    next.wrapped_keys.remove(epoch_id);
                }
            })?;
        }
        // Files last, as on every commit path: a crash before this line
        // leaves files the manifest does not name, which the next open
        // removes; removing first could leave a manifest naming a file that
        // is gone.
        for path in &doomed {
            match fs::remove_file(path) {
                Err(e) if e.kind() != ErrorKind::NotFound => {
                    return Err(io_err("remove stale segment", path, &e))
                }
                _ => {}
            }
        }
        Ok((manifest, max_gen))
    }

    fn check_writable(&self) -> Result<()> {
        if self.read_only.load(Ordering::Acquire) {
            return Err(StorageError::ReadOnly {
                path: self.root.display().to_string(),
            });
        }
        Ok(())
    }
}

fn segment_file(root: &Path, epoch_id: u64, generation: u64) -> PathBuf {
    root.join(SEGMENT_DIR)
        .join(format!("ep-{epoch_id}-g{generation}.seg"))
}

/// Parse `ep-<epoch>-g<gen>.seg`.
fn parse_segment_name(path: &Path) -> Option<(u64, u64)> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_prefix("ep-")?.strip_suffix(".seg")?;
    let (epoch, generation) = stem.split_once("-g")?;
    Some((epoch.parse().ok()?, generation.parse().ok()?))
}

/// What one read pass found: the manifest (empty for a root without one),
/// its bytes' fnv1a, and each committed epoch read with its generation and
/// its decoded segment, `None` when the file is torn or missing.
struct RootRead {
    manifest: Manifest,
    fingerprint: u64,
    segments: Vec<(u64, u64, Option<StoredEpoch>)>,
}

/// The one read pass over `root`: `MANIFEST`, then each committed segment
/// it names for which `resident(epoch, generation)` is false, decoded.
/// It only reads. `None`, having decoded nothing, when the manifest's
/// bytes fingerprint to `unchanged`.
fn read_root(
    root: &Path,
    unchanged: Option<u64>,
    resident: impl Fn(u64, u64) -> bool,
) -> Result<Option<RootRead>> {
    let path = Manifest::path(root);
    let bytes = match fs::read(&path) {
        Ok(bytes) => Some(bytes),
        Err(e) if e.kind() == ErrorKind::NotFound => None,
        Err(e) => return Err(io_err("read manifest", &path, &e)),
    };
    let fingerprint = segment::fnv1a(bytes.as_deref().unwrap_or_default());
    if unchanged == Some(fingerprint) {
        return Ok(None);
    }
    let manifest = bytes.map_or(Ok(Manifest::default()), |b| Manifest::decode(&b, &path))?;
    let mut segments = Vec::new();
    for (&epoch_id, &generation) in &manifest.entries {
        if resident(epoch_id, generation) {
            continue;
        }
        let path = segment_file(root, epoch_id, generation);
        let epoch = match fs::read(&path) {
            Err(e) if e.kind() == ErrorKind::NotFound => None,
            Err(e) => return Err(io_err("read segment", &path, &e)),
            Ok(bytes) => match segment::decode(&bytes) {
                DecodeOutcome::Complete {
                    epoch_id: stored,
                    epoch,
                } if stored == epoch_id => Some(epoch),
                DecodeOutcome::Complete { .. } => {
                    return Err(StorageError::Corrupt {
                        path: path.display().to_string(),
                        reason: "segment header epoch does not match its file name",
                    });
                }
                DecodeOutcome::Torn => None,
                DecodeOutcome::Unsupported { found } => return Err(unsupported(&path, found)),
            },
        };
        segments.push((epoch_id, generation, epoch));
    }
    Ok(Some(RootRead {
        manifest,
        fingerprint,
        segments,
    }))
}

impl StorageBackend for DiskEpochStore {
    fn kind(&self) -> &'static str {
        "disk"
    }

    fn put_epoch(
        &self,
        epoch_id: u64,
        epoch: StoredEpoch,
        seal: Option<(u64, Vec<u8>)>,
    ) -> Result<()> {
        self.check_writable()?;
        self.cache
            .write(epoch_id, || self.persist(epoch_id, epoch, seal))
    }

    fn epoch(&self, epoch_id: u64) -> Result<Arc<StoredEpoch>> {
        self.cache.get(epoch_id)
    }

    fn update_epoch(&self, epoch_id: u64, next: &mut NextEpochFn<'_>) -> Result<()> {
        self.check_writable()?;
        self.cache.write(epoch_id, || {
            let current = self.cache.get(epoch_id)?;
            self.persist(epoch_id, next(&current)?, None)
        })
    }

    fn epoch_ids(&self) -> Vec<u64> {
        self.cache.epoch_ids()
    }

    fn total_rows(&self) -> usize {
        self.cache.total_rows()
    }

    fn read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    fn refresh(&self) -> Result<Vec<u64>> {
        if !self.read_only.load(Ordering::Acquire) {
            // The writer's own commits are already resident; nothing else
            // may legally write this root.
            return Ok(Vec::new());
        }
        let mut held = unpoisoned(self.manifest.lock());
        let seen = self.manifest_fingerprint.load(Ordering::Acquire);
        // A resident epoch is not read again at any generation: generation
        // changes to resident epochs are §6 rewrites, and they do not
        // replicate (the enclave likewise refuses to register an epoch
        // rewritten by another process).
        let Some(read) = read_root(&self.root, Some(seen), |epoch_id, _| {
            held.entries.contains_key(&epoch_id)
        })?
        else {
            return Ok(Vec::new()); // unchanged since the last full pass
        };
        let mut absorbed = Vec::new();
        let mut complete = true;
        for (epoch_id, generation, epoch) in read.segments {
            // Torn or missing: the writer is mid-write or mid-delete. Leave
            // the fingerprint stale so the next tick retries.
            let Some(epoch) = epoch else {
                complete = false;
                continue;
            };
            self.cache.publish(epoch_id, epoch);
            held.entries.insert(epoch_id, generation);
            absorbed.push(epoch_id);
        }
        // Master-key lifecycle state replicates unconditionally: a
        // rotation only rewrites the vault, adds no epochs, and the
        // replica's own master validates entries at registration time —
        // so a refresh across a rotation boundary just adopts the
        // writer's counter and blobs.
        held.key_generation = read.manifest.key_generation;
        held.wrapped_keys = read.manifest.wrapped_keys;
        if complete {
            self.manifest_fingerprint
                .store(read.fingerprint, Ordering::Release);
        }
        Ok(absorbed)
    }

    fn promote(&self) -> Result<()> {
        if !self.read_only.load(Ordering::Acquire) {
            return Ok(()); // already the writer
        }
        // Serialized against refresh by the manifest lock. Epochs held at
        // the manifest's generation are trusted resident; changed or
        // missing ones are (re)read.
        let mut held = unpoisoned(self.manifest.lock());
        let read = read_root(&self.root, None, |epoch_id, generation| {
            held.entries.get(&epoch_id) == Some(&generation)
        })?
        .expect("a pass with no fingerprint to match reads the root");
        let (manifest, max_gen) = self.repair(read)?;
        *held = manifest;
        self.next_gen.store(max_gen + 1, Ordering::Release);
        self.read_only.store(false, Ordering::Release);
        Ok(())
    }

    fn store_generation(&self) -> u64 {
        unpoisoned(self.manifest.lock())
            .entries
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn sealed_key(&self, epoch_id: u64) -> Option<(u64, Vec<u8>)> {
        unpoisoned(self.manifest.lock())
            .wrapped_keys
            .get(&epoch_id)
            .cloned()
    }

    fn key_generation(&self) -> u64 {
        unpoisoned(self.manifest.lock()).key_generation
    }

    fn begin_key_rotation(&self, new_generation: u64) -> Result<()> {
        self.check_writable()?;
        let mut m = unpoisoned(self.manifest.lock());
        if new_generation <= m.key_generation {
            return Ok(()); // idempotent resume / stale request
        }
        m.commit(&self.root, |next| next.key_generation = new_generation)
    }

    fn rewrap_keys(&self, rewrap: &mut RewrapFn<'_>, limit: usize) -> Result<usize> {
        self.check_writable()?;
        let mut done = 0;
        while done < limit {
            // One entry per lock hold: each re-wrap is its own durable
            // manifest commit, so ingest never waits behind a long batch
            // and a crash between entries loses at most nothing (entries
            // already committed stay committed; the rest stay resumable).
            let mut m = unpoisoned(self.manifest.lock());
            let target_generation = m.key_generation;
            let Some((&epoch_id, (_, old_blob))) = m
                .wrapped_keys
                .iter()
                .find(|(_, (generation, _))| *generation < target_generation)
            else {
                return Ok(done);
            };
            let new_blob = rewrap(epoch_id, target_generation, old_blob)?;
            m.commit(&self.root, |next| {
                next.wrapped_keys
                    .insert(epoch_id, (target_generation, new_blob));
            })?;
            done += 1;
        }
        Ok(done)
    }

    fn rotation_pending(&self) -> usize {
        let m = unpoisoned(self.manifest.lock());
        m.wrapped_keys
            .values()
            .filter(|(generation, _)| *generation < m.key_generation)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch_store::{EpochMetadata, EpochStore};
    use crate::table::EncryptedRow;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A unique scratch root; removed on drop.
    struct ScratchRoot(PathBuf);

    impl ScratchRoot {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "concealer-disk-{tag}-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&dir);
            ScratchRoot(dir)
        }
    }

    impl Drop for ScratchRoot {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn row(key: &[u8], tag: u8) -> EncryptedRow {
        EncryptedRow {
            index_key: key.to_vec(),
            filters: vec![vec![tag; 16]],
            payload: vec![tag; 48],
        }
    }

    fn sample_rows(n: u64, salt: u8) -> Vec<EncryptedRow> {
        (0..n)
            .map(|i| row(&[salt, (i >> 8) as u8, i as u8], (i % 251) as u8))
            .collect()
    }

    fn sample_meta(salt: u8) -> EpochMetadata {
        EpochMetadata {
            enc_cell_id: vec![salt, 1, 2],
            enc_c_tuple: vec![salt, 3],
            enc_tags: vec![vec![salt], vec![salt, salt]],
            advertised_rows: 40,
        }
    }

    /// An empty epoch, for tests that exercise the key vault alone.
    fn sample_epoch() -> StoredEpoch {
        StoredEpoch {
            table: crate::EncryptedTable::new(),
            metadata: sample_meta(0),
            rewrite_count: 0,
        }
    }

    fn disk_store(root: &Path) -> EpochStore {
        EpochStore::with_backend(Arc::new(DiskEpochStore::open(root).unwrap()))
    }

    #[test]
    fn survives_drop_and_reopen() {
        let scratch = ScratchRoot::new("reopen");
        {
            let store = disk_store(&scratch.0);
            assert_eq!(store.backend_kind(), "disk");
            store
                .ingest_epoch(0, sample_rows(40, 1), sample_meta(1))
                .unwrap();
            store
                .ingest_epoch(3600, sample_rows(25, 2), sample_meta(2))
                .unwrap();
        }
        let store = disk_store(&scratch.0);
        assert_eq!(store.epoch_ids(), vec![0, 3600]);
        assert_eq!(store.total_rows(), 65);
        assert_eq!(store.metadata(3600).unwrap(), sample_meta(2));
        // Row ids (and thus the adversary trace) survive the reload.
        let hit = store.fetch_by_trapdoor(0, &[1, 0, 5]).unwrap();
        assert!(hit.is_some());
        let summary = store.observer().summary();
        assert_eq!(summary.fetch_frequency.keys().next(), Some(&(0, 5)));
    }

    #[test]
    fn rewrites_persist_across_reopen() {
        let scratch = ScratchRoot::new("rewrite");
        {
            let store = disk_store(&scratch.0);
            store
                .ingest_epoch(7, sample_rows(10, 3), sample_meta(3))
                .unwrap();
            // A §6 bin rewrite: the row and its refreshed tag in one commit.
            store
                .rewrite_bin(
                    7,
                    vec![(vec![3, 0, 4], row(&[9, 9, 9], 0xEE))],
                    vec![(0, vec![0xAB])],
                )
                .unwrap();
        }
        let store = disk_store(&scratch.0);
        assert_eq!(store.rewrite_count(7).unwrap(), 1);
        assert!(store.fetch_by_trapdoor(7, &[9, 9, 9]).unwrap().is_some());
        assert!(store.fetch_by_trapdoor(7, &[3, 0, 4]).unwrap().is_none());
        assert_eq!(store.metadata(7).unwrap().enc_tags[0], vec![0xAB]);
        // Exactly one live segment file per epoch (superseded gens removed).
        let live: Vec<_> = fs::read_dir(scratch.0.join(SEGMENT_DIR)).unwrap().collect();
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn failed_update_leaves_store_unchanged() {
        let scratch = ScratchRoot::new("failedupdate");
        let store = disk_store(&scratch.0);
        store
            .ingest_epoch(1, sample_rows(10, 1), sample_meta(1))
            .unwrap();
        // One replacement names an old key the segment does not hold: the
        // whole rewrite is refused, the valid half included.
        let err = store.rewrite_bin(
            1,
            vec![
                (vec![1, 0, 1], row(&[9, 9, 9], 0xEE)),
                (vec![7, 7, 7], row(&[8, 8, 8], 0xEE)),
            ],
            Vec::new(),
        );
        assert!(matches!(err, Err(StorageError::CardinalityMismatch { .. })));
        assert_eq!(store.rewrite_count(1).unwrap(), 0);
        assert!(store.fetch_by_trapdoor(1, &[1, 0, 1]).unwrap().is_some());
        assert!(store.fetch_by_trapdoor(1, &[9, 9, 9]).unwrap().is_none());
    }

    #[test]
    fn torn_committed_segment_is_truncated_and_dropped() {
        // The id is from format 1, which truncated the file and left it
        // for the next open to delete; it is now removed in the pass that
        // drops its epoch.
        let scratch = ScratchRoot::new("torn");
        let seg_path;
        {
            let disk = Arc::new(DiskEpochStore::open(&scratch.0).unwrap());
            seg_path = {
                let store = EpochStore::with_backend(disk.clone());
                let seal = Some((0, vec![7; 64]));
                store
                    .ingest_sealed_epoch(0, sample_rows(30, 1), sample_meta(1), seal.clone())
                    .unwrap();
                store
                    .ingest_sealed_epoch(3600, sample_rows(30, 2), sample_meta(2), seal)
                    .unwrap();
                disk.segment_path(3600).unwrap()
            };
        }
        // Tear the committed segment mid-file, as a crash or disk fault
        // would.
        let full = fs::read(&seg_path).unwrap();
        let cut = full.len() * 2 / 3;
        let f = fs::OpenOptions::new().write(true).open(&seg_path).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let disk = DiskEpochStore::open(&scratch.0).unwrap();
        let store = EpochStore::with_backend(Arc::new(disk));
        assert_eq!(
            store.epoch_ids(),
            vec![0],
            "the torn epoch must be dropped, the intact one recovered"
        );
        // Dropped whole, in that one pass: no entry, no vault blob, no file.
        assert_eq!(store.backend().sealed_key(3600), None);
        assert_eq!(store.backend().sealed_key(0), Some((0, vec![7; 64])));
        assert!(!seg_path.exists(), "a torn segment's file is removed");
        let after_first = snapshot(&scratch.0);
        // Reopening again is stable: same surviving epochs, same files.
        drop(store);
        let store = disk_store(&scratch.0);
        assert_eq!(store.epoch_ids(), vec![0]);
        assert!(store.fetch_by_trapdoor(0, &[1, 0, 1]).unwrap().is_some());
        assert_eq!(snapshot(&scratch.0), after_first);
    }

    /// Every file under `root`, by path.
    fn snapshot(root: &Path) -> std::collections::BTreeMap<PathBuf, Vec<u8>> {
        let mut files = std::collections::BTreeMap::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    files.insert(path.clone(), fs::read(&path).unwrap());
                }
            }
        }
        files
    }

    /// An empty epoch 3600 as format 1 wrote it: magic, then tag · length ·
    /// payload frames for header, metadata and footer.
    fn format_1_segment() -> Vec<u8> {
        let mut bytes = b"CSG1\x01\x04\x90\x1c\x00\x00\x02\x04\x00\x00\x00\x00".to_vec();
        let checksum = serde::bin::to_bytes(&segment::fnv1a(&bytes));
        bytes.extend_from_slice(&[0x7f, 1 + checksum.len() as u8, 0]);
        bytes.extend_from_slice(&checksum);
        bytes
    }

    #[test]
    fn a_format_2_manifest_is_refused_and_the_root_left_as_it_was() {
        let scratch = ScratchRoot::new("old-manifest");
        fs::create_dir_all(&scratch.0).unwrap();
        // entries {3600 → 1}, key generation 0, an empty vault.
        let mut manifest = b"CMN2\x01\x90\x1c\x01\x00\x00".to_vec();
        let checksum = segment::fnv1a(&manifest);
        manifest.extend_from_slice(&checksum.to_le_bytes());
        fs::write(Manifest::path(&scratch.0), &manifest).unwrap();
        let before = snapshot(&scratch.0);

        let refused = Err(StorageError::UnsupportedFormat {
            path: Manifest::path(&scratch.0).display().to_string(),
            found: "CMN2",
        });
        assert_eq!(DiskEpochStore::open(&scratch.0).map(drop), refused);
        assert_eq!(DiskEpochStore::open_replica(&scratch.0).map(drop), refused);
        assert_eq!(snapshot(&scratch.0), before);
        assert!(!scratch.0.join(SEGMENT_DIR).exists());
    }

    /// Epoch 3600 as format 2 wrote it: format 3's bytes under the older
    /// magic (the layout did not change, the hash-chain tags inside did),
    /// checksummed as format 2 sealed them.
    fn format_2_segment(current: &[u8]) -> Vec<u8> {
        let (body, footer) = current.split_at(current.len() - 16);
        let mut bytes = [&b"CSG2"[..], &body[4..]].concat();
        let checksum = segment::fnv1a(&bytes);
        bytes.extend_from_slice(&footer[..8]);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn a_committed_format_1_segment_is_refused_and_the_root_left_as_it_was() {
        committed_segment_is_refused("old-segment", |_| format_1_segment(), "CSG1");
    }

    #[test]
    fn a_committed_format_2_segment_is_refused_and_the_root_left_as_it_was() {
        committed_segment_is_refused("format-2-segment", format_2_segment, "CSG2");
    }

    /// Commit epoch 3600, then replace its segment with `older(segment)`, in
    /// the format whose magic is `found`: opening the root as writer or
    /// replica, and refreshing or promoting a live replica, is refused, and
    /// the root is left byte for byte as it was.
    fn committed_segment_is_refused(
        name: &str,
        older: impl FnOnce(&[u8]) -> Vec<u8>,
        found: &'static str,
    ) {
        let scratch = ScratchRoot::new(name);
        let writer = Arc::new(DiskEpochStore::open(&scratch.0).unwrap());
        let store = EpochStore::with_backend(writer.clone());
        store
            .ingest_epoch(0, sample_rows(10, 1), sample_meta(1))
            .unwrap();
        let replica = DiskEpochStore::open_replica(&scratch.0).unwrap();
        store.ingest_epoch(3600, vec![], sample_meta(2)).unwrap();
        let seg_path = writer.segment_path(3600).unwrap();
        drop((store, writer));
        // The committed segment in the older format, and beside it a
        // leftover any successful recovery would delete.
        let current = fs::read(&seg_path).unwrap();
        fs::write(&seg_path, older(&current)).unwrap();
        let stray = scratch.0.join(SEGMENT_DIR).join("ep-9999-g77.seg");
        fs::write(&stray, b"never committed").unwrap();
        let before = snapshot(&scratch.0);

        let refused = Err(StorageError::UnsupportedFormat {
            path: seg_path.display().to_string(),
            found,
        });
        assert_eq!(DiskEpochStore::open(&scratch.0).map(drop), refused);
        assert_eq!(DiskEpochStore::open_replica(&scratch.0).map(drop), refused);
        // A live replica is refused the same way and keeps what it had.
        assert_eq!(replica.refresh().map(drop), refused);
        assert_eq!(replica.promote(), refused);
        assert!(StorageBackend::read_only(&replica));
        assert_eq!(replica.epoch_ids(), vec![0]);
        assert_eq!(snapshot(&scratch.0), before);
    }

    #[test]
    fn uncommitted_segment_file_is_removed_on_open() {
        let scratch = ScratchRoot::new("uncommitted");
        {
            let store = disk_store(&scratch.0);
            store
                .ingest_epoch(0, sample_rows(5, 1), sample_meta(1))
                .unwrap();
        }
        // Simulate a crash between segment write and manifest swap: a
        // complete segment file for an epoch the manifest never committed.
        let stray = scratch.0.join(SEGMENT_DIR).join("ep-9999-g77.seg");
        fs::write(&stray, b"CSG1 not really a segment").unwrap();
        let store = disk_store(&scratch.0);
        assert_eq!(store.epoch_ids(), vec![0]);
        assert!(!stray.exists(), "stray uncommitted segment must be removed");
    }

    #[test]
    fn replica_follows_writer_commits_and_refuses_writes() {
        let scratch = ScratchRoot::new("replica");
        let writer = disk_store(&scratch.0);
        writer
            .ingest_epoch(0, sample_rows(20, 1), sample_meta(1))
            .unwrap();

        let replica = DiskEpochStore::open_replica(&scratch.0).unwrap();
        assert!(StorageBackend::read_only(&replica));
        assert_eq!(
            replica.epoch_ids(),
            vec![0],
            "open_replica loads committed epochs"
        );
        assert_eq!(
            replica.store_generation(),
            writer.backend().store_generation()
        );

        // The writer commits another epoch; one refresh absorbs it.
        writer
            .ingest_epoch(3600, sample_rows(25, 2), sample_meta(2))
            .unwrap();
        assert_eq!(replica.refresh().unwrap(), vec![3600]);
        assert_eq!(replica.epoch_ids(), vec![0, 3600]);
        // Nothing changed: the fingerprint fast path reports nothing new.
        assert_eq!(replica.refresh().unwrap(), Vec::<u64>::new());
        // The replica serves the same bytes the writer does.
        assert_eq!(
            replica.epoch(3600).unwrap().table.len(),
            writer.backend().epoch(3600).unwrap().table.len()
        );

        // Writes are refused until promotion, and a refused ingest is not
        // an ingest the adversary saw.
        let replica = EpochStore::with_backend(Arc::new(replica));
        let err = replica.ingest_epoch(7200, sample_rows(5, 3), sample_meta(3));
        assert!(matches!(err, Err(StorageError::ReadOnly { .. })));
        assert_eq!(replica.observer().trace(), vec![]);
        // The writer is never read-only and its refresh is a no-op.
        assert!(!writer.backend().read_only());
        assert_eq!(writer.backend().refresh().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn rewrites_do_not_replicate_to_a_live_replica() {
        let scratch = ScratchRoot::new("replica-rewrite");
        let writer = disk_store(&scratch.0);
        writer
            .ingest_epoch(7, sample_rows(10, 3), sample_meta(3))
            .unwrap();
        let replica = DiskEpochStore::open_replica(&scratch.0).unwrap();
        assert!(replica.epoch(7).is_ok());

        // A §6 rewrite bumps the epoch's generation on disk; the replica
        // keeps serving the generation it absorbed.
        writer
            .rewrite_bin(7, vec![(vec![3, 0, 4], row(&[9, 9, 9], 0xEE))], Vec::new())
            .unwrap();
        assert_eq!(replica.refresh().unwrap(), Vec::<u64>::new());
        assert_eq!(
            replica.epoch(7).unwrap().rewrite_count,
            0,
            "rewrites must not replicate"
        );
        assert!(replica.store_generation() < writer.backend().store_generation());
    }

    #[test]
    fn promote_takes_ownership_and_enables_writes() {
        let scratch = ScratchRoot::new("promote");
        {
            let writer = disk_store(&scratch.0);
            writer
                .ingest_epoch(0, sample_rows(20, 1), sample_meta(1))
                .unwrap();
            writer
                .ingest_epoch(3600, sample_rows(25, 2), sample_meta(2))
                .unwrap();
        }
        // Simulate the dead writer's crash leftover: a complete-looking
        // segment file the manifest never committed.
        let stray = scratch.0.join(SEGMENT_DIR).join("ep-9999-g77.seg");
        fs::write(&stray, b"CSG1 not really a segment").unwrap();

        let replica = Arc::new(DiskEpochStore::open_replica(&scratch.0).unwrap());
        assert_eq!(replica.epoch_ids(), vec![0, 3600]);
        assert!(stray.exists(), "replicas never delete the writer's files");

        replica.promote().unwrap();
        assert!(!StorageBackend::read_only(&*replica));
        assert!(!stray.exists(), "promotion runs the writer's recovery pass");
        // Promotion is idempotent and the store now accepts writes whose
        // generations continue past everything already on disk.
        replica.promote().unwrap();
        let pre_gen = replica.store_generation();
        let store = EpochStore::with_backend(replica);
        store
            .ingest_epoch(7200, sample_rows(5, 3), sample_meta(3))
            .unwrap();
        assert_eq!(store.epoch_ids(), vec![0, 3600, 7200]);
        assert!(store.backend().store_generation() > pre_gen);
        // The promoted store is a valid writer root: reopen recovers all.
        drop(store);
        let store = disk_store(&scratch.0);
        assert_eq!(store.epoch_ids(), vec![0, 3600, 7200]);
    }

    #[test]
    fn refresh_skips_inflight_segments_and_retries() {
        let scratch = ScratchRoot::new("inflight");
        let disk = Arc::new(DiskEpochStore::open(&scratch.0).unwrap());
        let writer = EpochStore::with_backend(disk.clone());
        writer
            .ingest_epoch(0, sample_rows(10, 1), sample_meta(1))
            .unwrap();
        let replica = DiskEpochStore::open_replica(&scratch.0).unwrap();

        // Commit an epoch, then hide its segment file: to the replica this
        // looks like racing the writer mid-publish.
        writer
            .ingest_epoch(3600, sample_rows(10, 2), sample_meta(2))
            .unwrap();
        let seg = disk.segment_path(3600).unwrap();
        let hidden = seg.with_extension("seg.hidden");
        fs::rename(&seg, &hidden).unwrap();
        assert_eq!(replica.refresh().unwrap(), Vec::<u64>::new());
        assert_eq!(
            replica.epoch_ids(),
            vec![0],
            "half-published epochs must not serve"
        );

        // Once the segment is visible, the next tick absorbs it even though
        // the manifest bytes have not changed since the skipped look.
        fs::rename(&hidden, &seg).unwrap();
        assert_eq!(replica.refresh().unwrap(), vec![3600]);
        assert_eq!(replica.epoch_ids(), vec![0, 3600]);
    }

    #[test]
    fn key_vault_rotation_is_resumable_across_reopen() {
        let scratch = ScratchRoot::new("vault");
        let disk = DiskEpochStore::open(&scratch.0).unwrap();
        for epoch in [0u64, 3600, 7200] {
            let seal = Some((0, vec![epoch as u8; 64]));
            disk.put_epoch(epoch, sample_epoch(), seal).unwrap();
        }
        assert_eq!(disk.key_generation(), 0);
        assert_eq!(disk.rotation_pending(), 0);
        assert_eq!(disk.sealed_key(3600), Some((0, vec![3600u64 as u8; 64])));

        disk.begin_key_rotation(1).unwrap();
        assert_eq!(disk.key_generation(), 1);
        assert_eq!(disk.rotation_pending(), 3);
        // Bounded batch: two entries re-wrapped, one left behind.
        let n = disk
            .rewrap_keys(
                &mut |_e, generation, old| {
                    assert_eq!(generation, 1);
                    Ok(old.iter().map(|b| b ^ 0xFF).collect())
                },
                2,
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(disk.rotation_pending(), 1);
        drop(disk);

        // Crash mid-rotation: reopen resumes exactly where it stopped.
        let disk = DiskEpochStore::open(&scratch.0).unwrap();
        assert_eq!(disk.key_generation(), 1);
        assert_eq!(disk.rotation_pending(), 1);
        assert_eq!(
            disk.rewrap_keys(&mut |_e, _g, old| Ok(old.to_vec()), 8)
                .unwrap(),
            1
        );
        assert_eq!(disk.rotation_pending(), 0);
        // Re-beginning a finished (or older) generation is a no-op.
        disk.begin_key_rotation(1).unwrap();
        disk.begin_key_rotation(0).unwrap();
        assert_eq!(disk.key_generation(), 1);
    }

    #[test]
    fn vault_entry_ahead_of_the_counter_is_corruption_on_reopen() {
        let scratch = ScratchRoot::new("vault-torn");
        {
            let disk = DiskEpochStore::open(&scratch.0).unwrap();
            // A generation the store never began: impossible under the
            // crash model, so reopen must refuse rather than "resume".
            disk.put_epoch(0, sample_epoch(), Some((7, vec![0u8; 64])))
                .unwrap();
        }
        assert!(matches!(
            DiskEpochStore::open(&scratch.0),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn replica_refresh_adopts_rotation_state() {
        let scratch = ScratchRoot::new("vault-replica");
        let writer = disk_store(&scratch.0);
        let seal = Some((0, vec![1u8; 64]));
        writer
            .ingest_sealed_epoch(0, sample_rows(10, 1), sample_meta(1), seal)
            .unwrap();

        let replica = DiskEpochStore::open_replica(&scratch.0).unwrap();
        assert_eq!(StorageBackend::key_generation(&replica), 0);

        writer.backend().begin_key_rotation(1).unwrap();
        writer
            .backend()
            .rewrap_keys(&mut |_e, _g, _old| Ok(vec![2u8; 64]), 8)
            .unwrap();
        // A rotation adds no epochs — the refresh returns nothing new but
        // still adopts the writer's lifecycle state.
        assert_eq!(replica.refresh().unwrap(), Vec::<u64>::new());
        assert_eq!(StorageBackend::key_generation(&replica), 1);
        assert_eq!(replica.sealed_key(0), Some((1, vec![2u8; 64])));
        // Epochs committed after the rotation still absorb normally.
        writer
            .ingest_epoch(3600, sample_rows(10, 2), sample_meta(2))
            .unwrap();
        assert_eq!(replica.refresh().unwrap(), vec![3600]);
    }

    #[test]
    fn segment_name_parsing() {
        assert_eq!(
            parse_segment_name(Path::new("/x/ep-3600-g12.seg")),
            Some((3600, 12))
        );
        assert_eq!(parse_segment_name(Path::new("/x/ep-3600.seg")), None);
        assert_eq!(parse_segment_name(Path::new("/x/MANIFEST")), None);
    }
}
