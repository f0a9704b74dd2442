//! The write-ahead admission journal (DESIGN.md §12).
//!
//! Durable checkpoints (`crate::durable`) preserve the *progress* of a
//! durable job across a process death, but only once the run has written
//! its first blob — a job that dies while still queued (or mid-first
//! iteration) vanishes. The journal closes that gap: every admitted
//! submission carrying a durable key appends one versioned, checksummed
//! [`JobRecord`] holding the request's wire form (tenant, budget,
//! personalization, priority, deadline) *before* it enters the queues.
//! Completion retires the record; a new service instance replays the
//! survivors at startup, re-admitting every admitted-but-unfinished job
//! — seeded from a recovered checkpoint when one exists — so a crash at
//! any point loses no durable job.
//!
//! Records are written with the same tmp-write + rename discipline as
//! checkpoint blobs (`atomic_write`, one file per key), and decode is
//! fully self-validating (magic, version, FNV-1a checksum, field
//! plausibility): a torn or corrupt record is detected and discarded at
//! replay, never replayed as garbage.
//!
//! The journal also hosts the **quarantine**: a job whose persisted
//! attempt count shows it dying over and over — across restarts, not
//! just within one process — has its record *moved* (not deleted) to a
//! sibling `quarantine/` directory and is never re-admitted
//! automatically. The record survives for forensics and for an explicit
//! operator release.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use pgs_core::api::{Budget, Personalization};
use pgs_core::checkpoint::{CheckpointError, Reader};
use pgs_core::weights::NodeWeights;
use pgs_graph::NodeId;

use crate::durable::{atomic_write, fnv1a, key_filename, scan};

const MAGIC: &[u8; 4] = b"PGSJ";
const VERSION: u16 = 1;

/// The file name a durable key journals under (`key_filename` with a
/// `.job` extension; the checkpoint of the same key differs only in
/// its extension).
pub fn job_filename(key: &str) -> String {
    key_filename(key, "job")
}

/// The wire form of one admitted durable job — everything a restarted
/// service needs to re-admit it faithfully. Run-control attachments
/// (observers, fault plans, caller checkpoint sinks) are process-local
/// and deliberately not persisted.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Tenant the job was admitted for.
    pub tenant: String,
    /// The durable key (also determines the file name).
    pub key: String,
    /// Cross-tenant scheduling priority.
    pub priority: u8,
    /// Admission sequence number (replay re-admits in this order).
    pub seq: u64,
    /// Worker pickups so far, across restarts *and* in-process retries.
    /// Bumped and re-persisted at every pickup; the replay path
    /// quarantines a record whose count shows the job dying repeatedly.
    pub attempts: u32,
    /// The requested budget (float payloads round-trip bit-exactly).
    pub budget: Budget,
    /// The requested personalization in its *original* form (targets,
    /// not cache-resolved weights — resolution is deterministic, so the
    /// replayed run is bitwise identical either way, and targets are
    /// |T| integers instead of |V| floats).
    pub personalization: Personalization,
    /// The caller's own run deadline, if any (the service-level tenant
    /// deadline is re-imposed by the replaying service's config).
    pub deadline: Option<Duration>,
}

impl JobRecord {
    /// Serializes the record: header, fixed fields, length-prefixed
    /// strings, tagged budget/personalization/deadline, trailing FNV-1a
    /// checksum over everything before it.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(self.priority);
        buf.push(0); // reserved
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.attempts.to_le_bytes());
        for s in [&self.tenant, &self.key] {
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        match self.budget {
            Budget::Bits(b) => {
                buf.push(0);
                buf.extend_from_slice(&b.to_bits().to_le_bytes());
            }
            Budget::Ratio(r) => {
                buf.push(1);
                buf.extend_from_slice(&r.to_bits().to_le_bytes());
            }
            Budget::Supernodes(k) => {
                buf.push(2);
                buf.extend_from_slice(&(k as u64).to_le_bytes());
            }
        }
        match &self.personalization {
            Personalization::Uniform => buf.push(0),
            Personalization::Targets(targets) => {
                buf.push(1);
                buf.extend_from_slice(&(targets.len() as u32).to_le_bytes());
                for &t in targets {
                    buf.extend_from_slice(&t.to_le_bytes());
                }
            }
            Personalization::Weights(w) => {
                buf.push(2);
                buf.extend_from_slice(&(w.len() as u32).to_le_bytes());
                for &x in w.as_slice() {
                    buf.extend_from_slice(&x.to_bits().to_le_bytes());
                }
                buf.extend_from_slice(&w.alpha().to_bits().to_le_bytes());
                buf.extend_from_slice(&w.z().to_bits().to_le_bytes());
            }
        }
        match self.deadline {
            None => buf.push(0),
            Some(d) => {
                buf.push(1);
                let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
                buf.extend_from_slice(&nanos.to_le_bytes());
            }
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Decodes and validates one record. Any structural damage — bad
    /// magic, unknown version, checksum mismatch, implausible lengths,
    /// trailing bytes — is [`CheckpointError::Corrupt`]; decoding never
    /// panics and never allocates more than the input's length.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let corrupt = |m: &str| CheckpointError::Corrupt(m.into());
        let Some(body_len) = bytes.len().checked_sub(8) else {
            return Err(corrupt("record shorter than its checksum"));
        };
        let (body, tail) = bytes.split_at(body_len);
        if fnv1a(body) != Reader::new(tail).u64()? {
            return Err(corrupt("checksum mismatch"));
        }
        let mut r = Reader::new(body);
        if r.take(4)? != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = r.u16()?;
        if version == 0 || version > VERSION {
            return Err(corrupt(&format!("unsupported journal version {version}")));
        }
        let priority = r.u8()?;
        let _reserved = r.u8()?;
        let seq = r.u64()?;
        let attempts = r.u32()?;
        let tenant = r.string()?;
        let key = r.string()?;
        if key.is_empty() {
            return Err(corrupt("empty durable key"));
        }
        let budget = match r.u8()? {
            0 => Budget::Bits(f64::from_bits(r.u64()?)),
            1 => Budget::Ratio(f64::from_bits(r.u64()?)),
            2 => Budget::Supernodes(r.u64()? as usize),
            tag => return Err(corrupt(&format!("unknown budget tag {tag}"))),
        };
        let personalization = match r.u8()? {
            0 => Personalization::Uniform,
            1 => {
                let count = r.u32()? as usize;
                if count > r.remaining() / 4 {
                    return Err(corrupt("implausible target count"));
                }
                let mut targets: Vec<NodeId> = Vec::with_capacity(count);
                for _ in 0..count {
                    targets.push(r.u32()?);
                }
                Personalization::Targets(targets)
            }
            2 => {
                let count = r.u32()? as usize;
                if count > r.remaining() / 8 {
                    return Err(corrupt("implausible weight count"));
                }
                let mut w = Vec::with_capacity(count);
                for _ in 0..count {
                    w.push(f64::from_bits(r.u64()?));
                }
                let alpha = f64::from_bits(r.u64()?);
                let z = f64::from_bits(r.u64()?);
                Personalization::Weights(NodeWeights::from_parts(w, alpha, z))
            }
            tag => return Err(corrupt(&format!("unknown personalization tag {tag}"))),
        };
        let deadline = match r.u8()? {
            0 => None,
            1 => Some(Duration::from_nanos(r.u64()?)),
            tag => return Err(corrupt(&format!("unknown deadline tag {tag}"))),
        };
        if r.remaining() != 0 {
            return Err(corrupt(&format!("{} trailing bytes", r.remaining())));
        }
        Ok(JobRecord {
            tenant,
            key,
            priority,
            seq,
            attempts,
            budget,
            personalization,
            deadline,
        })
    }
}

/// The on-disk journal: one `.job` record per in-flight durable key
/// under `<checkpoint_dir>/journal/`, quarantined records under
/// `<checkpoint_dir>/quarantine/`. All operations are filesystem I/O.
/// The serving layer refuses a durable submission whose write-ahead
/// [`Journal::append`] fails (`PgsError::JournalWriteFailed`) and treats
/// every other journal failure as degraded durability, never as a
/// request failure.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    quarantine_dir: PathBuf,
}

impl Journal {
    /// A journal rooted next to the checkpoint directory. Touches the
    /// filesystem lazily (first append / first scan), not here.
    pub fn new(checkpoint_dir: &Path) -> Self {
        Journal {
            dir: checkpoint_dir.join("journal"),
            quarantine_dir: checkpoint_dir.join("quarantine"),
        }
    }

    /// The journal file for `key`.
    pub fn record_path(&self, key: &str) -> PathBuf {
        self.dir.join(job_filename(key))
    }

    /// The quarantine file for `key`.
    pub fn quarantine_path(&self, key: &str) -> PathBuf {
        self.quarantine_dir.join(job_filename(key))
    }

    /// Appends (or replaces) the record for its key: tmp-write +
    /// rename, so a reader never sees a half-written record. With
    /// `torn` set (fault injection), a deliberately truncated record is
    /// written *directly to the final path* instead — simulating a
    /// crash mid-write on a filesystem without atomic rename, which the
    /// replay scan must absorb.
    pub fn append(&self, rec: &JobRecord, torn: bool) -> Result<(), CheckpointError> {
        let path = self.record_path(&rec.key);
        let bytes = rec.encode();
        if !torn {
            return atomic_write(&path, &bytes);
        }
        let io = |e: std::io::Error| CheckpointError::WriteFailed(e.to_string());
        fs::create_dir_all(&self.dir).map_err(io)?;
        fs::write(&path, &bytes[..bytes.len() / 2]).map_err(io)
    }

    /// Retires the record for `key` — the job published a result (or
    /// was rejected after its record was written). Missing files are
    /// fine: retirement is idempotent.
    pub fn retire(&self, key: &str) {
        let _ = fs::remove_file(self.record_path(key));
    }

    /// Quarantines `rec`: writes it under `quarantine/` with the same
    /// atomic write as [`Journal::append`] and, only once that
    /// succeeded, removes the live record. A crash between the two
    /// leaves the record visible in *both* places — replay skips
    /// quarantined keys, so the job is still never re-admitted. A
    /// failed write leaves the live record where it was, so the next
    /// start finds it poisoned and quarantines it again.
    pub fn quarantine(&self, rec: &JobRecord) -> Result<(), CheckpointError> {
        atomic_write(&self.quarantine_path(&rec.key), &rec.encode())?;
        self.retire(&rec.key);
        Ok(())
    }

    /// Releases a quarantined key so an operator can resubmit it.
    /// Returns whether a quarantine record existed.
    pub fn release(&self, key: &str) -> bool {
        fs::remove_file(self.quarantine_path(key)).is_ok()
    }

    /// Scans the live journal and returns every decodable record,
    /// sorted by admission sequence (replay order). Corrupt or torn
    /// records are deleted — a record damaged on disk cannot be
    /// replayed and must not wedge every future restart. The scan is
    /// the one checkpoints use (`durable::scan`): subdirectories,
    /// non-UTF-8 names, and unreadable files are skipped.
    pub fn replay(&self) -> Vec<JobRecord> {
        records(&self.dir, true)
    }

    /// Every record currently quarantined (sorted by sequence). This
    /// scan never deletes: a quarantine record is kept for forensics.
    pub fn quarantined(&self) -> Vec<JobRecord> {
        records(&self.quarantine_dir, false)
    }
}

/// The decodable records under `dir`, sorted by admission sequence.
fn records(dir: &Path, delete_corrupt: bool) -> Vec<JobRecord> {
    let mut records: Vec<JobRecord> = scan(dir, "job", delete_corrupt, |bytes| {
        JobRecord::decode(&bytes).ok()
    })
    .into_values()
    .collect();
    records.sort_by_key(|r| r.seq);
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pgs-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(key: &str, seq: u64) -> JobRecord {
        JobRecord {
            tenant: "tenant-a".into(),
            key: key.into(),
            priority: 3,
            seq,
            attempts: 1,
            budget: Budget::Ratio(0.4),
            personalization: Personalization::Targets(vec![0, 7, 19]),
            deadline: Some(Duration::from_millis(1500)),
        }
    }

    #[test]
    fn record_roundtrips_bit_exactly() {
        for rec in [
            sample("k1", 5),
            JobRecord {
                budget: Budget::Bits(f64::NAN),
                personalization: Personalization::Uniform,
                deadline: None,
                ..sample("k2", 6)
            },
            JobRecord {
                budget: Budget::Supernodes(17),
                personalization: Personalization::Weights(NodeWeights::uniform(4)),
                ..sample("k3", 7)
            },
        ] {
            let decoded = JobRecord::decode(&rec.encode()).expect("roundtrip");
            assert_eq!(decoded.tenant, rec.tenant);
            assert_eq!(decoded.key, rec.key);
            assert_eq!(decoded.priority, rec.priority);
            assert_eq!(decoded.seq, rec.seq);
            assert_eq!(decoded.attempts, rec.attempts);
            assert_eq!(decoded.deadline, rec.deadline);
            match (decoded.budget, rec.budget) {
                (Budget::Bits(a), Budget::Bits(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (Budget::Ratio(a), Budget::Ratio(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (Budget::Supernodes(a), Budget::Supernodes(b)) => assert_eq!(a, b),
                other => panic!("budget variant changed: {other:?}"),
            }
            match (&decoded.personalization, &rec.personalization) {
                (Personalization::Uniform, Personalization::Uniform) => {}
                (Personalization::Targets(a), Personalization::Targets(b)) => assert_eq!(a, b),
                (Personalization::Weights(a), Personalization::Weights(b)) => {
                    let bits = |w: &NodeWeights| {
                        w.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(a), bits(b));
                    assert_eq!(a.alpha().to_bits(), b.alpha().to_bits());
                    assert_eq!(a.z().to_bits(), b.z().to_bits());
                }
                other => panic!("personalization variant changed: {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected_or_valid() {
        let blob = sample("fuzz", 1).encode();
        for cut in 0..blob.len() {
            assert!(
                JobRecord::decode(&blob[..cut]).is_err(),
                "prefix {cut} must not decode"
            );
        }
        for pos in 0..blob.len() {
            for bit in 0..8u8 {
                let mut mutated = blob.clone();
                mutated[pos] ^= 1 << bit;
                // The checksum covers every body byte and itself sits in
                // the tail, so any single-bit flip must be rejected.
                assert!(
                    JobRecord::decode(&mutated).is_err(),
                    "flip at byte {pos} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn append_replay_retire_lifecycle() {
        let root = temp_dir("lifecycle");
        let j = Journal::new(&root);
        assert!(j.replay().is_empty(), "fresh journal is empty");
        j.append(&sample("b", 2), false).unwrap();
        j.append(&sample("a", 1), false).unwrap();
        let replayed = j.replay();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].key, "a", "replay is seq-ordered");
        assert_eq!(replayed[1].key, "b");
        // Re-append replaces (attempt bump), never duplicates.
        j.append(
            &JobRecord {
                attempts: 2,
                ..sample("a", 1)
            },
            false,
        )
        .unwrap();
        let replayed = j.replay();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].attempts, 2);
        j.retire("a");
        j.retire("a"); // idempotent
        assert_eq!(j.replay().len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_record_is_discarded_at_replay() {
        let root = temp_dir("torn");
        let j = Journal::new(&root);
        j.append(&sample("good", 1), false).unwrap();
        j.append(&sample("torn", 2), true).unwrap();
        let torn_path = j.record_path("torn");
        assert!(torn_path.exists(), "torn write lands on the final path");
        let replayed = j.replay();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key, "good");
        assert!(!torn_path.exists(), "replay deletes the torn record");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantine_moves_and_release_clears() {
        let root = temp_dir("quarantine");
        let j = Journal::new(&root);
        let rec = sample("poison", 1);
        j.append(&rec, false).unwrap();
        j.quarantine(&rec).unwrap();
        assert!(
            j.replay().is_empty(),
            "quarantined record leaves the journal"
        );
        let q = j.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].key, "poison");
        assert!(j.release("poison"));
        assert!(!j.release("poison"), "second release finds nothing");
        assert!(j.quarantined().is_empty());
        let _ = fs::remove_dir_all(&root);
    }
}
