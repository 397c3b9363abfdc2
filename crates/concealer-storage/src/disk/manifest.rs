//! The manifest: the store-level atomic commit point.
//!
//! `MANIFEST` maps each *committed* epoch to the generation of the segment
//! file holding it. Epoch commit order is therefore:
//!
//! 1. write + fsync the new segment file (`segments/ep-<epoch>-g<gen>.seg`),
//! 2. atomically replace `MANIFEST` (write temp, fsync, rename, fsync dir)
//!    with the entry pointing at the new generation,
//! 3. only then delete any superseded generation.
//!
//! A crash anywhere in that sequence leaves either the old manifest (the
//! new segment is an uncommitted leftover, removed on reopen) or the new
//! manifest (the old segment is a superseded leftover, removed on reopen)
//! — never a state that mixes the two.
//!
//! The manifest itself carries a checksum; because it is only ever replaced
//! via rename, a checksum failure means damage outside the crash model and
//! surfaces as [`StorageError::Corrupt`] rather than being silently
//! "recovered" into an empty store. A manifest written in an older format
//! is not damage either: it is refused by name
//! ([`StorageError::UnsupportedFormat`]) and left as it is.

use super::segment::fnv1a;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Manifest file name within the store root.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";
/// The one format: entries + master-key generation + wrapped-key vault,
/// the vault's blobs as `serde::bin` byte strings.
const MAGIC: [u8; 4] = *b"CMN3";
/// Magics of the formats before this one. They are refused, not read; each
/// format bump adds its predecessor here.
const REFUSED_MAGICS: [&str; 2] = ["CMN1", "CMN2"];

/// Committed epochs plus the master-key lifecycle state: the current key
/// generation and the per-epoch wrapped seal secrets (the "key vault").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) entries: BTreeMap<u64, u64>,
    /// The master-key generation rotation has most recently *begun*.
    /// Bumped (durably) before any vault entry is re-wrapped, so a crash
    /// can leave entries *behind* this counter but never ahead of it.
    pub(crate) key_generation: u64,
    /// Per-epoch key vault: epoch id → (generation the blob was wrapped
    /// under, 64-byte wrapped seal secret). Epochs ingested before the
    /// vault existed have no entry and are skipped by validation.
    pub(crate) wrapped_keys: BTreeMap<u64, (u64, Vec<u8>)>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&serde::bin::to_bytes(&self.entries));
        buf.extend_from_slice(&serde::bin::to_bytes(&self.key_generation));
        buf.extend_from_slice(&serde::bin::to_bytes(&self.wrapped_keys));
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Parse the bytes of the manifest file at `path`: an older format is
    /// refused by name, anything else that is not a whole, checksummed
    /// manifest is corruption.
    pub(crate) fn decode(bytes: &[u8], path: &Path) -> Result<Manifest> {
        if let Some(found) = refused_magic(bytes, &REFUSED_MAGICS) {
            return Err(unsupported(path, found));
        }
        Self::parse(bytes).ok_or_else(|| StorageError::Corrupt {
            path: path.display().to_string(),
            reason: "manifest checksum or framing mismatch",
        })
    }

    fn parse(bytes: &[u8]) -> Option<Manifest> {
        let (body, tail) = bytes.split_at(bytes.len().checked_sub(8)?);
        if fnv1a(body) != u64::from_le_bytes(tail.try_into().ok()?) {
            return None;
        }
        let mut cursor = serde::bin::BinDeserializer::new(body.strip_prefix(&MAGIC)?);
        let manifest = Manifest {
            entries: serde::Deserialize::deserialize(&mut cursor).ok()?,
            key_generation: serde::Deserialize::deserialize(&mut cursor).ok()?,
            wrapped_keys: serde::Deserialize::deserialize(&mut cursor).ok()?,
        };
        (cursor.remaining() == 0).then_some(manifest)
    }

    pub(crate) fn path(root: &Path) -> PathBuf {
        root.join(MANIFEST_FILE)
    }

    /// Load the manifest from `root`. A missing file is an empty (fresh)
    /// store; a present file is held to [`Manifest::decode`].
    pub(crate) fn load(root: &Path) -> Result<Manifest> {
        let path = Self::path(root);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Manifest::default()),
            Err(e) => return Err(io_err("read manifest", &path, &e)),
        };
        Manifest::decode(&bytes, &path)
    }

    /// Durably replace the manifest on disk: temp file, fsync, rename over
    /// the live name, fsync the directory.
    pub(crate) fn save(&self, root: &Path) -> Result<()> {
        let path = Self::path(root);
        let tmp = root.join(format!("{MANIFEST_FILE}.tmp"));
        {
            let mut f =
                fs::File::create(&tmp).map_err(|e| io_err("create manifest temp", &tmp, &e))?;
            f.write_all(&self.encode())
                .map_err(|e| io_err("write manifest temp", &tmp, &e))?;
            f.sync_all()
                .map_err(|e| io_err("sync manifest temp", &tmp, &e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| io_err("rename manifest", &path, &e))?;
        sync_dir(root)
    }
}

/// fsync a directory so a just-renamed file inside it survives a crash.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    let f = fs::File::open(dir).map_err(|e| io_err("open dir for sync", dir, &e))?;
    f.sync_all().map_err(|e| io_err("sync dir", dir, &e))
}

/// The magic `bytes` start with, when it is one of `refused`.
pub(crate) fn refused_magic(bytes: &[u8], refused: &[&'static str]) -> Option<&'static str> {
    let starts = |magic: &&str| bytes.starts_with(magic.as_bytes());
    refused.iter().copied().find(starts)
}

/// The refusal of a file that starts with the magic of an older format.
pub(crate) fn unsupported(path: &Path, found: &'static str) -> StorageError {
    StorageError::UnsupportedFormat {
        path: path.display().to_string(),
        found,
    }
}

/// Wrap an `std::io::Error` (not `Clone`, so stringified) for `op` on `path`.
pub(crate) fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::Io {
        op,
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("concealer-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let root = temp_root("roundtrip");
        assert_eq!(Manifest::load(&root).unwrap(), Manifest::default());

        let mut m = Manifest::default();
        m.entries.insert(0, 3);
        m.entries.insert(3600, 1);
        m.save(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), m);

        // Replacing is atomic-by-rename: saving again leaves no temp file.
        m.entries.insert(7200, 9);
        m.save(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), m);
        assert!(!root.join("MANIFEST.tmp").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn vault_state_round_trips() {
        let root = temp_root("vault");
        let mut m = Manifest::default();
        m.entries.insert(0, 1);
        m.key_generation = 3;
        m.wrapped_keys.insert(0, (3, vec![0xAB; 64]));
        m.wrapped_keys.insert(3600, (2, vec![0xCD; 64]));
        m.save(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), m);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_magic_is_corruption() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"CMN9");
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            Manifest::decode(&bytes, Path::new("MANIFEST")),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn older_formats_are_refused_by_name() {
        // Whole, checksummed manifests of formats 1 (entries only) and 2
        // (entries, generation, vault), and a bare magic.
        let entries = serde::bin::to_bytes(&BTreeMap::from([(7u64, 2u64)]));
        let vault = serde::bin::to_bytes(&(0u64, BTreeMap::<u64, (u64, Vec<u64>)>::new()));
        for (magic, payload) in [
            ("CMN1", entries.clone()),
            ("CMN2", [entries, vault].concat()),
            ("CMN2", vec![]),
        ] {
            let mut bytes = [magic.as_bytes(), &payload].concat();
            let checksum = fnv1a(&bytes);
            bytes.extend_from_slice(&checksum.to_le_bytes());
            assert_eq!(
                Manifest::decode(&bytes, Path::new("/r/MANIFEST")),
                Err(StorageError::UnsupportedFormat {
                    path: "/r/MANIFEST".into(),
                    found: magic,
                })
            );
        }
    }

    proptest::proptest! {
        /// Whatever the bytes — bare, and behind the magic with a checksum
        /// that vouches for them — the decoder returns.
        #[test]
        fn prop_arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let _ = Manifest::decode(&bytes, Path::new("MANIFEST"));
            let mut sealed = [&MAGIC[..], &bytes].concat();
            let checksum = fnv1a(&sealed);
            sealed.extend_from_slice(&checksum.to_le_bytes());
            let _ = Manifest::decode(&sealed, Path::new("MANIFEST"));
        }
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_an_empty_store() {
        let root = temp_root("corrupt");
        let mut m = Manifest::default();
        m.entries.insert(1, 1);
        m.save(&root).unwrap();

        let path = Manifest::path(&root);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Manifest::load(&root),
            Err(StorageError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&root);
    }
}
