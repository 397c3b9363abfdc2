//! Crash-safe on-disk epoch storage: [`DiskEpochStore`].
//!
//! The durable counterpart of [`crate::MemoryBackend`]. Layout under the
//! store root:
//!
//! ```text
//! <root>/
//!   MANIFEST                     committed epochs → segment generation
//!   segments/ep-<epoch>-g<gen>.seg   one segment per epoch, written whole
//! ```
//!
//! Writes follow write-ahead discipline — segment first (fsync), manifest
//! swap second (temp + rename + dir fsync), superseded files deleted last —
//! so every on-disk state a crash can produce maps to exactly one logical
//! store state. Recovery on [`DiskEpochStore::open`]:
//!
//! * a committed segment that parses completely serves queries again;
//! * a committed segment that is torn (crash, external truncation, rot)
//!   has its epoch dropped from the manifest and its file removed — a
//!   half-epoch must never serve bins, or the fixed-size-fetch
//!   volume-hiding invariant would break;
//! * segment files the manifest does not reference (crash between segment
//!   write and manifest swap, or a superseded generation) are deleted;
//! * a manifest or committed segment in an older on-disk format fails the
//!   open with [`StorageError::UnsupportedFormat`] before anything under
//!   the root is written or removed.
//!
//! All committed epochs stay resident in a 16-way sharded in-memory cache
//! (the same shard discipline as the memory backend), so the fetch path —
//! and therefore every answer and every adversary-observable trace — is
//! bit-identical across backends; the disk is only ever touched by ingest,
//! rewrite and recovery.
//!
//! Trust argument: the files are the *untrusted service provider's* disk.
//! Checksums here detect crashes and rot, not attacks — an adversary who
//! rewrites a segment consistently (valid tables, matching footer) is
//! caught by the enclave's hash-chain verification at query time, exactly
//! as with the in-memory store. Durability adds no new trust assumptions.
//!
//! # Replica mode
//!
//! [`DiskEpochStore::open_replica`] opens the same root *read-only* and
//! non-destructively: it loads committed segments that parse completely,
//! skips anything torn or in-flight (the writer may be mid-write; the next
//! refresh retries), and never deletes files or saves the manifest — the
//! writer owns the root. [`StorageBackend::refresh`]
//! re-reads `MANIFEST` (with a byte-fingerprint fast path, so an idle
//! store costs one `read` per tick) and pulls in epochs committed since
//! the last look; generation changes to epochs already resident — §6
//! forward-private rewrites — do **not** replicate, matching the enclave's
//! refusal to re-register rewritten epochs after a restart.
//! [`StorageBackend::promote`] turns a replica into the writer by running
//! the destructive recovery pass above over the root, after which writes
//! are accepted; promotion moves no key material — it is exactly a store
//! reopen.

mod manifest;
mod segment;

use crate::backend::{RewrapFn, ShardedEpochs, StorageBackend};
use crate::epoch_store::StoredEpoch;
use crate::{Result, StorageError};
use manifest::{io_err, sync_dir, unsupported, Manifest};
use parking_lot::Mutex;
use segment::DecodeOutcome;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const SEGMENT_DIR: &str = "segments";

/// Durable, crash-safe storage of sealed epoch segments.
///
/// Create with [`DiskEpochStore::open`] and hand to
/// [`crate::EpochStore::with_backend`] (or
/// `concealer_core::SystemBuilder::with_backend`). Opening an existing
/// root recovers every committed epoch; see the module docs for the
/// recovery rules.
#[derive(Debug)]
pub struct DiskEpochStore {
    root: PathBuf,
    /// What the cache currently holds: epoch → the generation it was
    /// loaded from. On the writer this mirrors the on-disk manifest; on a
    /// replica it may lag it (and keeps the *loaded* generation when the
    /// writer has since rewritten an epoch — rewrites do not replicate).
    cache: ShardedEpochs,
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
    /// Open (or initialize) a store rooted at `root`, running crash
    /// recovery: committed epochs are loaded and verified, torn segments
    /// are dropped, uncommitted and superseded segment files are removed.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        let cache = ShardedEpochs::default();
        let (manifest, max_gen) = recover(&root, &cache, &Manifest::default())?;
        Ok(DiskEpochStore {
            root,
            cache,
            manifest: Mutex::new(manifest),
            next_gen: AtomicU64::new(max_gen + 1),
            remove_root_on_drop: false,
            read_only: AtomicBool::new(false),
            manifest_fingerprint: AtomicU64::new(0),
        })
    }

    /// Open the store rooted at `root` as a *read-only replica* of another
    /// process's writer. Non-destructive: committed segments that parse
    /// completely are loaded, anything torn or in-flight is skipped (the
    /// writer may be mid-write; the next [`StorageBackend::refresh`]
    /// retries), and nothing on disk is created, deleted or rewritten.
    /// Writes are refused with [`StorageError::ReadOnly`] until
    /// [`StorageBackend::promote`] is called. A root the writer has not
    /// initialized yet opens as an empty replica and fills in on refresh.
    pub fn open_replica(root: impl Into<PathBuf>) -> Result<Self> {
        let store = DiskEpochStore {
            root: root.into(),
            cache: ShardedEpochs::default(),
            manifest: Mutex::new(Manifest::default()),
            next_gen: AtomicU64::new(1),
            remove_root_on_drop: false,
            read_only: AtomicBool::new(true),
            manifest_fingerprint: AtomicU64::new(0),
        };
        store.refresh()?;
        Ok(store)
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
        let generation = *self.manifest.lock().entries.get(&epoch_id)?;
        Some(self.segment_file(epoch_id, generation))
    }

    fn segment_file(&self, epoch_id: u64, generation: u64) -> PathBuf {
        self.root
            .join(SEGMENT_DIR)
            .join(format!("ep-{epoch_id}-g{generation}.seg"))
    }

    /// Write + fsync a new segment generation for `epoch_id`; returns the
    /// generation. Not yet committed — that is the manifest swap.
    fn write_segment(&self, epoch_id: u64, epoch: &StoredEpoch) -> Result<u64> {
        let generation = self.next_gen.fetch_add(1, Ordering::Relaxed);
        let path = self.segment_file(epoch_id, generation);
        let bytes = segment::encode(epoch_id, epoch);
        let mut f = fs::File::create(&path).map_err(|e| io_err("create segment", &path, &e))?;
        f.write_all(&bytes)
            .map_err(|e| io_err("write segment", &path, &e))?;
        f.sync_all()
            .map_err(|e| io_err("sync segment", &path, &e))?;
        sync_dir(&self.root.join(SEGMENT_DIR))?;
        Ok(generation)
    }

    /// Swap the manifest to point `epoch_id` at `generation`; returns the
    /// superseded generation. The in-memory manifest only advances when the
    /// on-disk swap succeeded.
    fn commit(&self, epoch_id: u64, generation: u64) -> Result<Option<u64>> {
        let mut m = self.manifest.lock();
        let mut next = m.clone();
        let old = next.entries.insert(epoch_id, generation);
        next.save(&self.root)?;
        *m = next;
        Ok(old)
    }

    fn remove_superseded(&self, epoch_id: u64, old_gen: Option<u64>) {
        if let Some(generation) = old_gen {
            // Best effort: a leftover is harmless (reopen deletes it).
            let _ = fs::remove_file(self.segment_file(epoch_id, generation));
        }
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

/// Parse `ep-<epoch>-g<gen>.seg`.
fn parse_segment_name(path: &Path) -> Option<(u64, u64)> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_prefix("ep-")?.strip_suffix(".seg")?;
    let (epoch, generation) = stem.split_once("-g")?;
    Some((epoch.parse().ok()?, generation.parse().ok()?))
}

/// The writer's destructive recovery pass, shared by [`DiskEpochStore::open`]
/// and [`StorageBackend::promote`]: load committed epochs into `cache`,
/// drop torn ones from the committed set and remove their files, delete
/// uncommitted and superseded segment files, prune manifest entries whose
/// segment vanished, and persist the manifest if it changed.
///
/// `loaded` names the epochs (and the generations) already resident in
/// `cache` — empty on a fresh open; a promoting replica passes what it has
/// absorbed so only changed or missing epochs are re-read. Returns the
/// recovered manifest and the highest generation seen on disk.
fn recover(root: &Path, cache: &ShardedEpochs, loaded: &Manifest) -> Result<(Manifest, u64)> {
    // The manifest before the directory: a root this build refuses is not
    // even given a `segments/`.
    let mut manifest = Manifest::load(root)?;
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
            path: Manifest::path(root).display().to_string(),
            reason: "key vault entry wrapped under a generation the store never began",
        });
    }
    let seg_dir = root.join(SEGMENT_DIR);
    fs::create_dir_all(&seg_dir).map_err(|e| io_err("create segment dir", &seg_dir, &e))?;

    // First pass, reading only: what this pass refuses — an older format,
    // a segment under another epoch's name — it refuses with every file
    // as it was.
    let mut max_gen = 0u64;
    let mut stale: Vec<PathBuf> = Vec::new();
    let mut committed: Vec<(u64, PathBuf, Option<StoredEpoch>)> = Vec::new();
    let entries = fs::read_dir(&seg_dir).map_err(|e| io_err("scan segment dir", &seg_dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("scan segment dir", &seg_dir, &e))?;
        let path = entry.path();
        let Some((epoch_id, generation)) = parse_segment_name(&path) else {
            continue; // not ours; leave unknown files alone
        };
        max_gen = max_gen.max(generation);
        if manifest.entries.get(&epoch_id) != Some(&generation) {
            // Uncommitted leftover (crash before manifest swap) or a
            // superseded generation (crash before cleanup): the ingest
            // or rewrite it belonged to was never acknowledged.
            stale.push(path);
            continue;
        }
        if loaded.entries.get(&epoch_id) == Some(&generation) {
            continue; // already resident at exactly this generation
        }
        let bytes = fs::read(&path).map_err(|e| io_err("read segment", &path, &e))?;
        match segment::decode(&bytes) {
            DecodeOutcome::Complete {
                epoch_id: stored,
                epoch,
            } if stored == epoch_id => committed.push((epoch_id, path, Some(epoch))),
            DecodeOutcome::Complete { .. } => {
                return Err(StorageError::Corrupt {
                    path: path.display().to_string(),
                    reason: "segment header epoch does not match its file name",
                });
            }
            DecodeOutcome::Torn => committed.push((epoch_id, path, None)),
            DecodeOutcome::Unsupported { found } => return Err(unsupported(&path, found)),
        }
    }

    // Second pass: the store is this build's to repair.
    let mut torn: Vec<PathBuf> = Vec::new();
    for (epoch_id, path, epoch) in committed {
        let mut shard = cache.shard(epoch_id).write();
        if let Some(epoch) = epoch {
            shard.insert(epoch_id, epoch);
            continue;
        }
        // Without a footer that vouches for it the epoch is not servable
        // and leaves the committed set — and the cache, where a promoting
        // replica may hold a copy from an older generation: a half-epoch
        // must never serve bins.
        shard.remove(&epoch_id);
        manifest.entries.remove(&epoch_id);
        manifest.wrapped_keys.remove(&epoch_id);
        torn.push(path);
    }
    // Committed epochs whose segment file vanished entirely cannot be
    // served either.
    let missing: Vec<u64> = manifest
        .entries
        .keys()
        .filter(|epoch_id| cache.with_epoch(**epoch_id, &mut |_| {}).is_err())
        .copied()
        .collect();
    for epoch_id in &missing {
        manifest.entries.remove(epoch_id);
        manifest.wrapped_keys.remove(epoch_id);
    }
    if !(torn.is_empty() && missing.is_empty()) {
        manifest.save(root)?;
    }
    // Files last, as on every commit path: a crash before this line leaves
    // files the manifest does not name, which the next open removes here;
    // removing first could leave a manifest naming a file that is gone.
    for path in stale.iter().chain(&torn) {
        fs::remove_file(path).map_err(|e| io_err("remove stale segment", path, &e))?;
    }
    Ok((manifest, max_gen))
}

impl StorageBackend for DiskEpochStore {
    fn kind(&self) -> &'static str {
        "disk"
    }

    fn put_epoch(&self, epoch_id: u64, epoch: StoredEpoch) -> Result<()> {
        self.check_writable()?;
        // Segment first; commit + cache insert under the shard lock so a
        // concurrent reader never sees a committed-but-uncached epoch.
        let generation = self.write_segment(epoch_id, &epoch)?;
        let shard = self.cache.shard(epoch_id);
        let mut guard = shard.write();
        let old = self.commit(epoch_id, generation)?;
        guard.insert(epoch_id, epoch);
        drop(guard);
        self.remove_superseded(epoch_id, old);
        Ok(())
    }

    fn with_epoch(&self, epoch_id: u64, f: &mut dyn FnMut(&StoredEpoch)) -> Result<()> {
        self.cache.with_epoch(epoch_id, f)
    }

    fn update_epoch(
        &self,
        epoch_id: u64,
        f: &mut dyn FnMut(&mut StoredEpoch) -> Result<()>,
    ) -> Result<()> {
        self.check_writable()?;
        let shard = self.cache.shard(epoch_id);
        let mut guard = shard.write();
        let current = guard
            .get_mut(&epoch_id)
            .ok_or(StorageError::UnknownEpoch { epoch_id })?;
        // Mutate a copy so cache and disk advance together or not at all —
        // a failed persist must not leave the cache ahead of the disk.
        let mut updated = current.clone();
        f(&mut updated)?;
        let generation = self.write_segment(epoch_id, &updated)?;
        let old = self.commit(epoch_id, generation)?;
        *current = updated;
        drop(guard);
        self.remove_superseded(epoch_id, old);
        Ok(())
    }

    fn epoch_ids(&self) -> Vec<u64> {
        self.cache.epoch_ids()
    }

    fn epoch_count(&self) -> usize {
        self.cache.epoch_count()
    }

    fn total_rows(&self) -> usize {
        self.cache.total_rows()
    }

    fn shard_count(&self) -> usize {
        self.cache.shard_count()
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
        let path = Manifest::path(&self.root);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            // Writer has not initialized the root yet; nothing to absorb.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err("read manifest", &path, &e)),
        };
        let fingerprint = segment::fnv1a(&bytes);
        if fingerprint == self.manifest_fingerprint.load(Ordering::Acquire) {
            return Ok(Vec::new()); // unchanged since last fully absorbed look
        }
        let disk_manifest = Manifest::decode(&bytes, &path)?;

        let mut loaded = self.manifest.lock();
        // Decoded first, absorbed after: a refused format fails the tick
        // with the replica exactly as it was.
        let mut absorbed = Vec::new();
        let mut fully_absorbed = true;
        for (&epoch_id, &generation) in &disk_manifest.entries {
            if loaded.entries.contains_key(&epoch_id) {
                // Generation changes to resident epochs are §6 rewrites;
                // they do not replicate (the enclave likewise refuses to
                // re-register rewritten epochs after a restart).
                continue;
            }
            let seg = self.segment_file(epoch_id, generation);
            let Ok(seg_bytes) = fs::read(&seg) else {
                // Racing the writer (supersede-delete or slow publish):
                // leave the fingerprint stale so the next tick retries.
                fully_absorbed = false;
                continue;
            };
            match segment::decode(&seg_bytes) {
                DecodeOutcome::Complete {
                    epoch_id: stored,
                    epoch,
                } if stored == epoch_id => absorbed.push((epoch_id, generation, epoch)),
                DecodeOutcome::Unsupported { found } => return Err(unsupported(&seg, found)),
                // Torn or mislabeled mid-write state: skip, retry next tick.
                _ => fully_absorbed = false,
            }
        }
        let mut new_epochs = Vec::new();
        for (epoch_id, generation, epoch) in absorbed {
            self.cache.shard(epoch_id).write().insert(epoch_id, epoch);
            loaded.entries.insert(epoch_id, generation);
            new_epochs.push(epoch_id);
        }
        // Master-key lifecycle state replicates unconditionally: a
        // rotation only rewrites the vault, adds no epochs, and the
        // replica's own master validates entries at registration time —
        // so a refresh across a rotation boundary just adopts the
        // writer's counter and blobs.
        loaded.key_generation = disk_manifest.key_generation;
        loaded.wrapped_keys = disk_manifest.wrapped_keys;
        if fully_absorbed {
            self.manifest_fingerprint
                .store(fingerprint, Ordering::Release);
        }
        Ok(new_epochs)
    }

    fn promote(&self) -> Result<()> {
        if !self.read_only.load(Ordering::Acquire) {
            return Ok(()); // already the writer
        }
        // Serialize against refresh, then take ownership of the root by
        // running the writer's destructive recovery pass over it. Epochs
        // the replica already absorbed at the manifest's generation are
        // trusted resident; changed or missing ones are (re)read.
        let mut loaded = self.manifest.lock();
        let (recovered, max_gen) = recover(&self.root, &self.cache, &loaded)?;
        *loaded = recovered;
        self.next_gen.store(max_gen + 1, Ordering::Release);
        self.read_only.store(false, Ordering::Release);
        Ok(())
    }

    fn store_generation(&self) -> u64 {
        self.manifest
            .lock()
            .entries
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn seal_key(&self, epoch_id: u64, generation: u64, wrapped: Vec<u8>) -> Result<()> {
        // The generation is recorded as given — `recover` enforces the
        // never-ahead-of-the-counter invariant on reopen, which is also
        // what lets torn-state tests plant an impossible entry.
        self.check_writable()?;
        let mut m = self.manifest.lock();
        let mut next = m.clone();
        next.wrapped_keys.insert(epoch_id, (generation, wrapped));
        next.save(&self.root)?;
        *m = next;
        Ok(())
    }

    fn sealed_key(&self, epoch_id: u64) -> Option<(u64, Vec<u8>)> {
        self.manifest.lock().wrapped_keys.get(&epoch_id).cloned()
    }

    fn key_generation(&self) -> u64 {
        self.manifest.lock().key_generation
    }

    fn begin_key_rotation(&self, new_generation: u64) -> Result<()> {
        self.check_writable()?;
        let mut m = self.manifest.lock();
        if new_generation <= m.key_generation {
            return Ok(()); // idempotent resume / stale request
        }
        let mut next = m.clone();
        next.key_generation = new_generation;
        next.save(&self.root)?;
        *m = next;
        Ok(())
    }

    fn rewrap_keys(&self, rewrap: &mut RewrapFn<'_>, limit: usize) -> Result<usize> {
        self.check_writable()?;
        let mut done = 0;
        while done < limit {
            // One entry per lock hold: each re-wrap is its own durable
            // manifest commit, so ingest never waits behind a long batch
            // and a crash between entries loses at most nothing (entries
            // already committed stay committed; the rest stay resumable).
            let mut m = self.manifest.lock();
            let target_generation = m.key_generation;
            let Some((&epoch_id, (_, old_blob))) = m
                .wrapped_keys
                .iter()
                .find(|(_, (generation, _))| *generation < target_generation)
            else {
                return Ok(done);
            };
            let new_blob = rewrap(epoch_id, target_generation, old_blob)?;
            let mut next = m.clone();
            next.wrapped_keys
                .insert(epoch_id, (target_generation, new_blob));
            next.save(&self.root)?;
            *m = next;
            done += 1;
        }
        Ok(done)
    }

    fn rotation_pending(&self) -> usize {
        let m = self.manifest.lock();
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
        let err = store.rewrite_rows(
            1,
            vec![
                (vec![1, 0, 1], row(&[9, 9, 9], 0xEE)),
                (vec![7, 7, 7], row(&[8, 8, 8], 0xEE)),
            ],
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
                store
                    .ingest_epoch(0, sample_rows(30, 1), sample_meta(1))
                    .unwrap();
                store
                    .ingest_epoch(3600, sample_rows(30, 2), sample_meta(2))
                    .unwrap();
                for epoch in [0, 3600] {
                    disk.seal_key(epoch, 0, vec![7; 64]).unwrap();
                }
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

    #[test]
    fn a_committed_format_1_segment_is_refused_and_the_root_left_as_it_was() {
        let scratch = ScratchRoot::new("old-segment");
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
        fs::write(&seg_path, format_1_segment()).unwrap();
        let stray = scratch.0.join(SEGMENT_DIR).join("ep-9999-g77.seg");
        fs::write(&stray, b"never committed").unwrap();
        let before = snapshot(&scratch.0);

        let refused = Err(StorageError::UnsupportedFormat {
            path: seg_path.display().to_string(),
            found: "CSG1",
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
        let mut rows = (0, 0);
        replica
            .with_epoch(3600, &mut |e| rows.0 = e.table.len())
            .unwrap();
        writer
            .backend()
            .with_epoch(3600, &mut |e| rows.1 = e.table.len())
            .unwrap();
        assert_eq!(rows.0, rows.1);

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
        assert!(replica.with_epoch(7, &mut |_| {}).is_ok());

        // A §6 rewrite bumps the epoch's generation on disk; the replica
        // keeps serving the generation it absorbed.
        writer
            .rewrite_rows(7, vec![(vec![3, 0, 4], row(&[9, 9, 9], 0xEE))])
            .unwrap();
        assert_eq!(replica.refresh().unwrap(), Vec::<u64>::new());
        let mut count = u64::MAX;
        replica
            .with_epoch(7, &mut |e| count = e.rewrite_count)
            .unwrap();
        assert_eq!(count, 0, "rewrites must not replicate");
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
            disk.seal_key(epoch, 0, vec![epoch as u8; 64]).unwrap();
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
            disk.seal_key(0, 7, vec![0u8; 64]).unwrap();
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
        writer
            .ingest_epoch(0, sample_rows(10, 1), sample_meta(1))
            .unwrap();
        writer.backend().seal_key(0, 0, vec![1u8; 64]).unwrap();

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
