//! File-backed checkpoint durability (DESIGN.md §10, ROADMAP "durable
//! checkpoints").
//!
//! The in-memory retry slot ([`service`](crate::service)) survives a
//! worker panic but not a process death. [`FileCheckpointSink`] extends
//! the same blobs to disk: each write goes to a temp file in the target
//! directory and is renamed into place (`atomic_write`, shared with
//! the admission journal), so a reader never observes a half-written
//! checkpoint. At startup [`recover_checkpoints`] scans the
//! directory once; submissions carrying a matching
//! [`SubmitRequest::durable`](crate::service::SubmitRequest::durable)
//! key are seeded with the recovered blob and replay the remaining
//! iterations bit-identically (the checkpoint/resume contract of
//! DESIGN.md §10).
//!
//! Checkpoint blobs self-validate on decode
//! ([`RunCheckpoint::decode`]), so a corrupt, truncated, or foreign
//! file degrades to a fresh run — the scan deletes it and moves on,
//! never surfacing an error.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pgs_core::checkpoint::{CheckpointError, RunCheckpoint};

/// FNV-1a over `bytes`: the hash suffix of every durable file name and
/// the journal record checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The file name a durable key persists under: the key with every
/// character outside `[A-Za-z0-9_-]` replaced by `_`, an FNV-1a hash
/// suffix (so distinct keys never collide after sanitization), and the
/// extension `ext`.
pub(crate) fn key_filename(key: &str, ext: &str) -> String {
    let hash = fnv1a(key.as_bytes());
    let safe: String = key
        .chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}-{hash:016x}.{ext}")
}

/// The checkpoint file name of a durable key (`key_filename` with a
/// `.ckpt` extension).
pub fn ckpt_filename(key: &str) -> String {
    key_filename(key, "ckpt")
}

/// Replaces `path` with `bytes` atomically: creates the parent
/// directory, writes `<path>.tmp`, `sync_all`s it and renames it over
/// `path`. On any failure the previous file at `path` is untouched.
/// I/O errors map to [`CheckpointError::WriteFailed`].
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let io = |e: std::io::Error| CheckpointError::WriteFailed(e.to_string());
    let dir = path
        .parent()
        .ok_or_else(|| CheckpointError::WriteFailed(format!("{} has no parent", path.display())))?;
    fs::create_dir_all(dir).map_err(io)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(bytes).map_err(io)?;
        f.sync_all().map_err(io)?;
    }
    fs::rename(&tmp, path).map_err(io)
}

/// Writes checkpoint blobs for one durable key atomically into a
/// directory (`atomic_write`) — on any failure the previous good
/// checkpoint file is untouched.
#[derive(Clone, Debug)]
pub struct FileCheckpointSink {
    path: PathBuf,
}

impl FileCheckpointSink {
    /// A sink persisting under `dir/`[`ckpt_filename`]`(key)`. Creates
    /// `dir` (and parents) on first use, not here — construction never
    /// touches the filesystem.
    pub fn new(dir: &Path, key: &str) -> Self {
        FileCheckpointSink {
            path: dir.join(ckpt_filename(key)),
        }
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Persists one blob atomically. Failures map to
    /// [`CheckpointError::WriteFailed`], which the engines absorb (the
    /// run continues; `checkpoint_failures` is bumped).
    pub fn write(&self, blob: &[u8]) -> Result<(), CheckpointError> {
        atomic_write(&self.path, blob)
    }

    /// Removes the checkpoint file (the run finished; nothing to
    /// resume). Missing files are fine — a run may complete before its
    /// first checkpoint.
    pub fn remove(&self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Scans `dir` once for `.ckpt` files and returns the decodable blobs
/// keyed by file name. Files that fail [`RunCheckpoint::decode`]'s
/// structural validation are deleted (a resumed service must not trip
/// over the same corrupt file forever) and skipped — the affected run
/// simply starts fresh. A missing or unreadable directory yields an
/// empty map.
///
/// The scan is hardened against anything else living in the directory:
/// subdirectories (even ones named `*.ckpt`), non-UTF-8 filenames, and
/// files that cannot be *read* (permissions, dangling symlinks) are each
/// skipped without aborting the scan — and without deleting anything,
/// since a transient read error is not evidence of corruption.
pub fn recover_checkpoints(dir: &Path) -> BTreeMap<String, Arc<Vec<u8>>> {
    let mut recovered = BTreeMap::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return recovered;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("ckpt") {
            continue;
        }
        if path.is_dir() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        if let Ok(bytes) = fs::read(&path) {
            if RunCheckpoint::decode(&bytes).is_ok() {
                recovered.insert(name, Arc::new(bytes));
            } else {
                // Structurally corrupt: delete so a restart loop does
                // not trip over the same file forever.
                let _ = fs::remove_file(&path);
            }
        }
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgs-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn filenames_are_sanitized_and_collision_free() {
        let a = ckpt_filename("tenant/alpha:job 1");
        assert!(a.ends_with(".ckpt"));
        assert!(a.starts_with("tenant_alpha_job_1-"));
        // Keys that sanitize identically stay distinct via the hash.
        assert_ne!(ckpt_filename("a/b"), ckpt_filename("a:b"));
        assert_eq!(ckpt_filename("same"), ckpt_filename("same"));
    }

    #[test]
    fn write_then_recover_roundtrip() {
        let dir = temp_dir("roundtrip");
        let blob = sample_blob();
        let sink = FileCheckpointSink::new(&dir, "job-a");
        sink.write(&blob).unwrap();
        let recovered = recover_checkpoints(&dir);
        assert_eq!(recovered.len(), 1);
        assert_eq!(&**recovered.get(&ckpt_filename("job-a")).unwrap(), &blob);
        // Overwrites replace, not accumulate.
        sink.write(&blob).unwrap();
        assert_eq!(recover_checkpoints(&dir).len(), 1);
        sink.remove();
        assert!(recover_checkpoints(&dir).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_deleted_and_skipped() {
        let dir = temp_dir("corrupt");
        fs::create_dir_all(&dir).unwrap();
        let good = dir.join(ckpt_filename("good"));
        fs::write(&good, sample_blob()).unwrap();
        let bad = dir.join(ckpt_filename("bad"));
        fs::write(&bad, b"not a checkpoint").unwrap();
        let ignored = dir.join("notes.txt");
        fs::write(&ignored, b"unrelated").unwrap();
        let recovered = recover_checkpoints(&dir);
        assert_eq!(recovered.len(), 1);
        assert!(recovered.contains_key(&ckpt_filename("good")));
        assert!(!bad.exists(), "corrupt file must be deleted");
        assert!(ignored.exists(), "non-.ckpt files are left alone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_yields_empty_map() {
        assert!(recover_checkpoints(Path::new("/nonexistent/pgs-ckpts")).is_empty());
    }

    #[test]
    fn subdirectory_named_like_a_checkpoint_is_skipped() {
        let dir = temp_dir("subdir");
        fs::create_dir_all(dir.join("nested.ckpt")).unwrap();
        fs::write(dir.join(ckpt_filename("good")), sample_blob()).unwrap();
        let recovered = recover_checkpoints(&dir);
        assert_eq!(recovered.len(), 1, "the good file must still be found");
        assert!(
            dir.join("nested.ckpt").is_dir(),
            "the subdirectory must be left alone"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_filename_is_skipped() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;
        let dir = temp_dir("nonutf8");
        fs::create_dir_all(&dir).unwrap();
        let weird = dir.join(OsStr::from_bytes(b"bad\xff\xfename.ckpt"));
        fs::write(&weird, b"whatever").unwrap();
        fs::write(dir.join(ckpt_filename("good")), sample_blob()).unwrap();
        let recovered = recover_checkpoints(&dir);
        assert_eq!(recovered.len(), 1, "the good file must still be found");
        assert!(weird.exists(), "the unnameable file must be left alone");
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn unreadable_file_is_skipped_without_deletion() {
        // A dangling symlink stands in for an unreadable file (chmod is
        // useless under root): read fails, the scan must neither abort
        // nor delete the entry — a transient read error is not
        // corruption.
        let dir = temp_dir("unreadable");
        fs::create_dir_all(&dir).unwrap();
        let dangling = dir.join("gone.ckpt");
        std::os::unix::fs::symlink(dir.join("no-such-target"), &dangling).unwrap();
        fs::write(dir.join(ckpt_filename("good")), sample_blob()).unwrap();
        let recovered = recover_checkpoints(&dir);
        assert_eq!(recovered.len(), 1, "the good file must still be found");
        assert!(
            dangling.symlink_metadata().is_ok(),
            "the unreadable entry must not be deleted"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    fn sample_blob() -> Vec<u8> {
        use pgs_core::checkpoint::ALGO_PEGASUS;
        use pgs_core::cost::CostModel;
        use pgs_core::pegasus::RunStats;
        use pgs_core::weights::NodeWeights;
        use pgs_core::working::WorkingSummary;
        let g = pgs_graph::gen::barabasi_albert(30, 3, 1);
        let w = NodeWeights::uniform(g.num_nodes());
        let ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        RunCheckpoint::capture(
            ALGO_PEGASUS,
            2,
            0.5,
            f64::INFINITY,
            RunStats::default(),
            &ws,
            &vec![0.0; g.num_nodes()],
        )
        .encode()
    }
}
