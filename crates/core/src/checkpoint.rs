//! Iteration-boundary run checkpoints (DESIGN.md §10).
//!
//! The engine loop commits one iteration's merge logs as one batch and
//! only then mutates shared state again, so the top of an iteration is
//! the one point where the whole run is describable by plain data: the
//! [`crate::working::WorkingSummary`] partition, the adaptive-threshold
//! scalar, the stall cap, and the iteration counter. [`RunCheckpoint`]
//! captures exactly that state and [`RunCheckpoint::encode`] freezes it
//! into a compact, versioned binary blob a serving layer can stash
//! per-job and replay after a worker death.
//!
//! # Byte-identical resume
//!
//! A resumed run must finish bitwise equal to the uninterrupted one, so
//! the checkpoint preserves everything the remaining iterations read:
//!
//! * **`wsum`/`sqsum` verbatim** — they were built by incremental `+=`
//!   during merges, and f64 addition order affects rounding, so they are
//!   stored as raw bits rather than recomputed from members.
//! * **Member order** — [`accumulate_edge_weights_view`'s] per-span
//!   accumulation order follows the stored member list, so lists are
//!   serialized in their in-memory order, not sorted.
//! * **Superedges as a set** — adjacency is only ever queried for
//!   membership, and [`crate::summary::Summary::new`] canonicalizes
//!   superedge order on freeze, so the sorted pair list loses nothing.
//! * **Per-iteration randomness** — [`iteration_seed`] makes iteration
//!   `t`'s RNG stream a pure function of `(seed, t)`; no generator state
//!   crosses the checkpoint.
//!
//! [`accumulate_edge_weights_view`'s]: crate::working::eval_merge_view

use crate::cost::CostModel;
use crate::pegasus::RunStats;
use crate::summary::{Summary, SuperId};
use crate::weights::NodeWeights;
use crate::working::WorkingSummary;
use pgs_graph::{Graph, NodeId};

/// Algorithm tag of a PeGaSus checkpoint.
pub const ALGO_PEGASUS: u8 = 1;
/// Algorithm tag of an SSumM checkpoint.
pub const ALGO_SSUMM: u8 = 2;

const MAGIC: [u8; 4] = *b"PGSC";
/// Format version. Only this version decodes; a blob carrying any other
/// tag is [`CheckpointError::Corrupt`]. (Versions 1 and 2 were prefixes
/// of this layout, without the gain EMAs and the later phase words.)
const VERSION: u16 = 3;

/// Deterministic per-iteration seed derivation: iteration `t` of a run
/// seeded with `seed` draws every random decision (shingle hashes,
/// group seeds, pair samples) from a fresh generator seeded with
/// `iteration_seed(seed, t)`. Randomness is thereby a pure function of
/// `(seed, t)` — a run resumed at iteration `k` replays iterations
/// `k..` bit-for-bit without serializing generator state.
pub fn iteration_seed(seed: u64, t: u64) -> u64 {
    splitmix64(seed ^ splitmix64(t.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// SplitMix64 finalizer — the standard 64-bit avalanche mix.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Why a checkpoint could not be decoded, validated, or persisted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob is not a well-formed checkpoint (bad magic, truncated,
    /// internally inconsistent partition or superedge list).
    Corrupt(String),
    /// A structurally valid checkpoint that does not belong to this run
    /// (wrong algorithm or graph size).
    Mismatch(String),
    /// The sink failed to persist the blob (I/O error or injected
    /// fault); the run continues from the previous good checkpoint.
    WriteFailed(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
            CheckpointError::WriteFailed(why) => write!(f, "checkpoint write failed: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One live supernode's serialized state.
#[derive(Clone, Debug, PartialEq)]
pub struct SuperRecord {
    /// The supernode id (a surviving original singleton id).
    pub id: SuperId,
    /// `Σ ŵ_u` as raw bits (incremental-sum rounding preserved).
    pub wsum_bits: u64,
    /// `Σ ŵ_u²` as raw bits.
    pub sqsum_bits: u64,
    /// Member nodes in their in-memory (merge-history) order.
    pub members: Vec<NodeId>,
}

/// A run snapshot at an iteration-commit boundary.
#[derive(Clone, Debug)]
pub struct RunCheckpoint {
    /// [`ALGO_PEGASUS`] or [`ALGO_SSUMM`].
    pub algorithm: u8,
    /// `|V|` of the graph the run is summarizing.
    pub num_nodes: u32,
    /// The iteration the resumed loop starts at (the first one whose
    /// effects are *not* in this snapshot).
    pub next_iteration: u64,
    /// Adaptive threshold θ after the last committed iteration (raw
    /// bits; SSumM's fixed schedule ignores it).
    pub theta_bits: u64,
    /// Stall-guard cap after the last committed iteration (raw bits).
    pub stall_cap_bits: u64,
    /// Cumulative run statistics at the boundary (wall-clock fields keep
    /// accumulating across resumes; counts replay exactly).
    pub stats: RunStats,
    /// Live supernodes, ascending by id.
    pub supers: Vec<SuperRecord>,
    /// Superedges as sorted `(min, max)` pairs, self-loops as `(s, s)`.
    pub superedges: Vec<(SuperId, SuperId)>,
    /// Per-supernode gain EMAs of the candidate scheduler, as raw f64
    /// bits aligned with `supers` (exactly one per supernode). The
    /// signature bank itself is *not* stored: it is a pure function of
    /// `(graph, seed, partition)` and is rebuilt on resume
    /// (composition under union, DESIGN.md §11).
    pub gains: Vec<u64>,
}

impl RunCheckpoint {
    /// Snapshots a live [`WorkingSummary`] plus the driver scalars.
    /// `gains` carries the candidate scheduler's per-supernode EMAs,
    /// indexed by supernode id.
    pub fn capture(
        algorithm: u8,
        next_iteration: u64,
        theta: f64,
        stall_cap: f64,
        stats: RunStats,
        ws: &WorkingSummary<'_>,
        gains: &[f64],
    ) -> Self {
        let mut supers = Vec::with_capacity(ws.num_supernodes());
        let mut superedges = Vec::with_capacity(ws.num_superedges());
        let mut gain_bits = Vec::with_capacity(ws.num_supernodes());
        for s in ws.live_iter() {
            supers.push(SuperRecord {
                id: s,
                wsum_bits: ws.wsum_raw(s).to_bits(),
                sqsum_bits: ws.sqsum_raw(s).to_bits(),
                members: ws.members(s).to_vec(),
            });
            for x in ws.superedge_neighbors(s) {
                if s <= x {
                    superedges.push((s, x));
                }
            }
            gain_bits.push(gains[s as usize].to_bits());
        }
        superedges.sort_unstable();
        RunCheckpoint {
            algorithm,
            num_nodes: ws.graph().num_nodes() as u32,
            next_iteration,
            theta_bits: theta.to_bits(),
            stall_cap_bits: stall_cap.to_bits(),
            stats,
            supers,
            superedges,
            gains: gain_bits,
        }
    }

    /// Expands the stored gain EMAs back to the id-indexed vector the
    /// driver maintains. Slots of dead supernodes are zero — they are
    /// never read, since candidate groups only contain live supernodes,
    /// so a resumed run's schedule is bit-identical to the uninterrupted
    /// one.
    pub fn restore_gains(&self, num_nodes: usize) -> Vec<f64> {
        let mut gains = vec![0.0; num_nodes];
        for (rec, &bits) in self.supers.iter().zip(&self.gains) {
            gains[rec.id as usize] = f64::from_bits(bits);
        }
        gains
    }

    /// Rebuilds the [`WorkingSummary`] this checkpoint describes, after
    /// [`RunCheckpoint::decode`]'s structural checks and a
    /// [`RunCheckpoint::validate_for`] pass against the run.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when a superedge joins two supernodes
    /// with no edge between them in `g` — a check only the graph allows
    /// ([`WorkingSummary::from_checkpoint`]).
    pub fn restore_working<'a>(
        &self,
        g: &'a Graph,
        w: &'a NodeWeights,
        model: CostModel,
    ) -> Result<WorkingSummary<'a>, CheckpointError> {
        WorkingSummary::from_checkpoint(
            g,
            w,
            model,
            self.supers.iter().map(|r| {
                (
                    r.id,
                    f64::from_bits(r.wsum_bits),
                    f64::from_bits(r.sqsum_bits),
                    r.members.as_slice(),
                )
            }),
            &self.superedges,
        )
    }

    /// The snapshot frozen into an immutable [`Summary`] — the valid
    /// partial result a serving layer degrades to when its retry budget
    /// runs out mid-run.
    pub fn partial_summary(&self) -> Summary {
        let n = self.num_nodes as usize;
        let mut assignment = vec![0u32; n];
        for rec in &self.supers {
            for &u in &rec.members {
                assignment[u as usize] = rec.id;
            }
        }
        let superedges: Vec<(SuperId, SuperId, f32)> =
            self.superedges.iter().map(|&(a, b)| (a, b, 1.0)).collect();
        Summary::new(n, assignment, &superedges)
    }

    /// Checks that this checkpoint belongs to a run of `algorithm` over
    /// a graph with `num_nodes` nodes.
    pub fn validate_for(&self, algorithm: u8, num_nodes: usize) -> Result<(), CheckpointError> {
        if self.algorithm != algorithm {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint is for algorithm tag {}, run uses {}",
                self.algorithm, algorithm
            )));
        }
        if self.num_nodes as usize != num_nodes {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint covers {} nodes, graph has {}",
                self.num_nodes, num_nodes
            )));
        }
        Ok(())
    }

    /// Serializes to the compact versioned binary form.
    pub fn encode(&self) -> Vec<u8> {
        let member_total: usize = self.supers.iter().map(|r| r.members.len()).sum();
        let mut buf = Vec::with_capacity(
            64 + self.supers.len() * 24 + member_total * 4 + self.superedges.len() * 8,
        );
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(self.algorithm);
        buf.push(0); // reserved
        buf.extend_from_slice(&self.num_nodes.to_le_bytes());
        buf.extend_from_slice(&self.next_iteration.to_le_bytes());
        buf.extend_from_slice(&self.theta_bits.to_le_bytes());
        buf.extend_from_slice(&self.stall_cap_bits.to_le_bytes());
        buf.extend_from_slice(&(self.stats.iterations as u64).to_le_bytes());
        buf.extend_from_slice(&(self.stats.merges as u64).to_le_bytes());
        buf.extend_from_slice(&self.stats.final_theta.to_bits().to_le_bytes());
        buf.push(self.stats.sparsified as u8);
        buf.extend_from_slice(&self.stats.evals.to_le_bytes());
        buf.extend_from_slice(&self.stats.phases.evaluate.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.stats.checkpoints.to_le_bytes());
        buf.extend_from_slice(&self.stats.checkpoint_failures.to_le_bytes());
        buf.extend_from_slice(&(self.supers.len() as u32).to_le_bytes());
        for rec in &self.supers {
            buf.extend_from_slice(&rec.id.to_le_bytes());
            buf.extend_from_slice(&rec.wsum_bits.to_le_bytes());
            buf.extend_from_slice(&rec.sqsum_bits.to_le_bytes());
            buf.extend_from_slice(&(rec.members.len() as u32).to_le_bytes());
            for &u in &rec.members {
                buf.extend_from_slice(&u.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(self.superedges.len() as u64).to_le_bytes());
        for &(a, b) in &self.superedges {
            buf.extend_from_slice(&a.to_le_bytes());
            buf.extend_from_slice(&b.to_le_bytes());
        }
        // Candidate-generation stats and the scheduler's gain EMAs.
        buf.extend_from_slice(&self.stats.phases.candidates.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.stats.groups.to_le_bytes());
        buf.extend_from_slice(&self.stats.grouped_supernodes.to_le_bytes());
        buf.extend_from_slice(&(self.gains.len() as u32).to_le_bytes());
        for &bits in &self.gains {
            buf.extend_from_slice(&bits.to_le_bytes());
        }
        // The remaining per-phase wall words of the profiling taxonomy
        // (DESIGN.md §14).
        buf.extend_from_slice(&self.stats.phases.commit.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.stats.phases.sparsify.to_bits().to_le_bytes());
        buf
    }

    /// Parses and structurally validates a blob produced by
    /// [`RunCheckpoint::encode`]: the version tag must be the current
    /// one, the member lists must partition `0..num_nodes`, supernode ids
    /// must be unique members of themselves, superedges must be sorted
    /// unique `(min, max)` pairs between live supernodes, and there must
    /// be one finite gain EMA per supernode.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(4)?;
        if magic != MAGIC {
            return Err(CheckpointError::Corrupt("bad magic".into()));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(CheckpointError::Corrupt(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let algorithm = r.u8()?;
        if algorithm != ALGO_PEGASUS && algorithm != ALGO_SSUMM {
            return Err(CheckpointError::Corrupt(format!(
                "unknown algorithm tag {algorithm}"
            )));
        }
        let _reserved = r.u8()?;
        let num_nodes = r.u32()?;
        if num_nodes == 0 {
            return Err(CheckpointError::Corrupt("zero-node checkpoint".into()));
        }
        // Plausibility bound before any |V|-sized allocation: a valid
        // blob lists every node once as a supernode member (≥ 4 bytes
        // per node), so a header claiming more nodes than bytes/4 is
        // corrupt — reject it instead of allocating gigabytes on a
        // flipped length field.
        if num_nodes as usize > bytes.len() / 4 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible node count {num_nodes} for a {}-byte blob",
                bytes.len()
            )));
        }
        let next_iteration = r.u64()?;
        let theta_bits = r.u64()?;
        let stall_cap_bits = r.u64()?;
        let mut stats = RunStats {
            iterations: r.u64()? as usize,
            merges: r.u64()? as usize,
            final_theta: f64::from_bits(r.u64()?),
            sparsified: r.u8()? != 0,
            evals: r.u64()?,
            ..RunStats::default()
        };
        stats.phases.evaluate = f64::from_bits(r.u64()?);
        stats.checkpoints = r.u64()?;
        stats.checkpoint_failures = r.u64()?;
        let num_supers = r.u32()? as usize;
        if num_supers == 0 || num_supers > num_nodes as usize {
            return Err(CheckpointError::Corrupt(format!(
                "implausible supernode count {num_supers} for {num_nodes} nodes"
            )));
        }
        let mut seen = vec![false; num_nodes as usize];
        let mut supers = Vec::with_capacity(num_supers);
        let mut prev_id: Option<SuperId> = None;
        for _ in 0..num_supers {
            let id = r.u32()?;
            if id >= num_nodes {
                return Err(CheckpointError::Corrupt(format!(
                    "supernode id {id} out of range"
                )));
            }
            if prev_id.is_some_and(|p| p >= id) {
                return Err(CheckpointError::Corrupt(
                    "supernode ids not strictly ascending".into(),
                ));
            }
            prev_id = Some(id);
            let wsum_bits = r.u64()?;
            let sqsum_bits = r.u64()?;
            let count = r.u32()? as usize;
            if count == 0 || count > num_nodes as usize {
                return Err(CheckpointError::Corrupt(format!(
                    "implausible member count {count}"
                )));
            }
            let mut members = Vec::with_capacity(count);
            let mut contains_id = false;
            for _ in 0..count {
                let u = r.u32()?;
                if u >= num_nodes {
                    return Err(CheckpointError::Corrupt(format!(
                        "member node {u} out of range"
                    )));
                }
                if seen[u as usize] {
                    return Err(CheckpointError::Corrupt(format!(
                        "node {u} appears in two supernodes"
                    )));
                }
                seen[u as usize] = true;
                contains_id |= u == id;
                members.push(u);
            }
            if !contains_id {
                return Err(CheckpointError::Corrupt(format!(
                    "supernode {id} does not contain its own id"
                )));
            }
            supers.push(SuperRecord {
                id,
                wsum_bits,
                sqsum_bits,
                members,
            });
        }
        if seen.iter().any(|&s| !s) {
            return Err(CheckpointError::Corrupt(
                "member lists do not cover every node".into(),
            ));
        }
        let num_superedges = r.u64()? as usize;
        let mut superedges = Vec::with_capacity(num_superedges.min(1 << 20));
        let mut prev_edge: Option<(SuperId, SuperId)> = None;
        let live = |s: SuperId| supers.binary_search_by_key(&s, |rec| rec.id).is_ok();
        for _ in 0..num_superedges {
            let a = r.u32()?;
            let b = r.u32()?;
            if a > b || !live(a) || !live(b) {
                return Err(CheckpointError::Corrupt(format!(
                    "superedge ({a}, {b}) is not a (min, max) pair of live supernodes"
                )));
            }
            if prev_edge.is_some_and(|p| p >= (a, b)) {
                return Err(CheckpointError::Corrupt(
                    "superedges not strictly ascending".into(),
                ));
            }
            prev_edge = Some((a, b));
            superedges.push((a, b));
        }
        stats.phases.candidates = f64::from_bits(r.u64()?);
        stats.groups = r.u64()?;
        stats.grouped_supernodes = r.u64()?;
        let gain_count = r.u32()? as usize;
        if gain_count != supers.len() {
            return Err(CheckpointError::Corrupt(format!(
                "gain count {gain_count} does not match {} supernodes",
                supers.len()
            )));
        }
        let mut gains = Vec::with_capacity(gain_count);
        for _ in 0..gain_count {
            let bits = r.u64()?;
            if !f64::from_bits(bits).is_finite() {
                return Err(CheckpointError::Corrupt("non-finite gain EMA".into()));
            }
            gains.push(bits);
        }
        stats.phases.commit = f64::from_bits(r.u64()?);
        stats.phases.sparsify = f64::from_bits(r.u64()?);
        if r.pos != r.bytes.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes",
                r.bytes.len() - r.pos
            )));
        }
        Ok(RunCheckpoint {
            algorithm,
            num_nodes,
            next_iteration,
            theta_bits,
            stall_cap_bits,
            stats,
            supers,
            superedges,
            gains,
        })
    }
}

struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.pos + n > self.bytes.len() {
            return Err(CheckpointError::Corrupt("truncated checkpoint".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(Self::array(self.take(2)?)?))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(Self::array(self.take(4)?)?))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(Self::array(self.take(8)?)?))
    }

    /// `take(N)` always returns exactly `N` bytes, so the conversion
    /// cannot fail — but a typed error beats a panic if that invariant
    /// ever breaks.
    fn array<const N: usize>(bytes: &[u8]) -> Result<[u8; N], CheckpointError> {
        bytes
            .try_into()
            .map_err(|_| CheckpointError::Corrupt("truncated integer field".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Budget, Pegasus, PgsError, SummarizeRequest, Summarizer};
    use pgs_graph::gen::barabasi_albert;

    fn sample_checkpoint() -> (Graph, NodeWeights, RunCheckpoint) {
        let g = barabasi_albert(60, 3, 5);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        ws.merge(0, 1);
        ws.merge(4, 5);
        let stats = RunStats {
            iterations: 3,
            merges: 2,
            evals: 17,
            phases: crate::pegasus::PhaseTimings {
                candidates: 0.5,
                evaluate: 1.25,
                commit: 0.25,
                sparsify: 0.125,
            },
            ..Default::default()
        };
        let mut gains = vec![0.0; g.num_nodes()];
        gains[0] = 0.75;
        gains[4] = 1.5;
        let ck = RunCheckpoint::capture(ALGO_PEGASUS, 4, 0.25, f64::INFINITY, stats, &ws, &gains);
        (g, w, ck)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_, _, ck) = sample_checkpoint();
        let decoded = RunCheckpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded.algorithm, ck.algorithm);
        assert_eq!(decoded.num_nodes, ck.num_nodes);
        assert_eq!(decoded.next_iteration, ck.next_iteration);
        assert_eq!(decoded.theta_bits, ck.theta_bits);
        assert_eq!(decoded.stall_cap_bits, ck.stall_cap_bits);
        assert_eq!(decoded.stats.iterations, 3);
        assert_eq!(decoded.stats.evals, 17);
        assert_eq!(decoded.stats.phases, ck.stats.phases);
        assert_eq!(decoded.supers, ck.supers);
        assert_eq!(decoded.superedges, ck.superedges);
        assert_eq!(decoded.gains, ck.gains);
    }

    #[test]
    fn gains_roundtrip_through_restore() {
        let (g, _, ck) = sample_checkpoint();
        let decoded = RunCheckpoint::decode(&ck.encode()).unwrap();
        let gains = decoded.restore_gains(g.num_nodes());
        assert_eq!(gains[0], 0.75);
        assert_eq!(gains[4], 1.5);
        // Dead slots (merged-away ids) come back zero.
        assert_eq!(gains[1], 0.0);
        assert_eq!(gains[5], 0.0);
    }

    /// Bytes of the v3 trailing section (commit + sparsify bits).
    const V3_TRAIL: usize = 8 + 8;

    #[test]
    fn other_version_tags_are_corrupt() {
        // Versions 1 and 2 were prefixes of this layout; neither they
        // nor any later tag decode, whether or not the bytes would fit.
        let (_, _, ck) = sample_checkpoint();
        let v3 = ck.encode();
        let v2_len = v3.len() - V3_TRAIL;
        let v1_len = v2_len - (8 + 8 + 8 + 4 + 8 * ck.gains.len());
        for (tag, len) in [
            (0u16, v3.len()),
            (1, v1_len),
            (1, v3.len()),
            (2, v2_len),
            (2, v3.len()),
            (4, v3.len()),
        ] {
            let mut blob = v3[..len].to_vec();
            blob[4..6].copy_from_slice(&tag.to_le_bytes());
            assert!(
                matches!(
                    RunCheckpoint::decode(&blob),
                    Err(CheckpointError::Corrupt(_))
                ),
                "version tag {tag}, {len} bytes"
            );
        }
    }

    #[test]
    fn mismatched_gain_count_is_corrupt() {
        let (_, _, ck) = sample_checkpoint();
        // The gain count lives V3_TRAIL + 4 + 8·|gains| bytes from
        // the end; one gain per supernode is the only valid count.
        let good = ck.encode();
        let pos = good.len() - V3_TRAIL - 4 - 8 * ck.gains.len();
        for count in [0, ck.gains.len() as u32 - 1] {
            let mut blob = good.clone();
            blob[pos..pos + 4].copy_from_slice(&count.to_le_bytes());
            assert!(matches!(
                RunCheckpoint::decode(&blob),
                Err(CheckpointError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn superedge_between_unconnected_supernodes_is_corrupt() {
        // No run puts a superedge between two supernodes without an
        // input edge between them. The decoder cannot see the graph, so
        // the restore must reject such a pair, directly and on a run's
        // resume path.
        let (g, w, mut ck) = sample_checkpoint();
        let touches = |a: &SuperRecord, b: &SuperRecord| {
            a.members
                .iter()
                .any(|&u| g.neighbors(u).iter().any(|v| b.members.contains(v)))
        };
        let (a, b) = ck
            .supers
            .iter()
            .flat_map(|a| ck.supers.iter().map(move |b| (a, b)))
            .find(|(a, b)| a.id < b.id && !touches(a, b))
            .map(|(a, b)| (a.id, b.id))
            .unwrap();
        ck.superedges.push((a, b));
        ck.superedges.sort_unstable();
        let blob = ck.encode();
        let decoded = RunCheckpoint::decode(&blob).unwrap();
        assert!(matches!(
            decoded.restore_working(&g, &w, CostModel::ErrorCorrection),
            Err(CheckpointError::Corrupt(_))
        ));
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).resume_from(std::sync::Arc::new(blob));
        assert!(matches!(
            Pegasus::default().run(&g, &req),
            Err(PgsError::CheckpointInvalid { .. })
        ));
    }

    #[test]
    fn restore_matches_captured_state() {
        let (g, w, ck) = sample_checkpoint();
        let decoded = RunCheckpoint::decode(&ck.encode()).unwrap();
        let ws = decoded
            .restore_working(&g, &w, CostModel::ErrorCorrection)
            .unwrap();
        assert_eq!(ws.num_supernodes(), 58);
        assert_eq!(ws.num_superedges(), ck.superedges.len());
        for rec in &decoded.supers {
            assert_eq!(ws.members(rec.id), &rec.members[..]);
            assert_eq!(ws.wsum_raw(rec.id).to_bits(), rec.wsum_bits);
            assert_eq!(ws.sqsum_raw(rec.id).to_bits(), rec.sqsum_bits);
        }
        for &(a, b) in &decoded.superedges {
            assert!(ws.has_superedge(a, b) && ws.has_superedge(b, a));
        }
    }

    #[test]
    fn partial_summary_is_valid() {
        let (g, _, ck) = sample_checkpoint();
        let s = ck.partial_summary();
        assert_eq!(s.num_nodes(), g.num_nodes());
        assert_eq!(s.num_supernodes(), 58);
        assert_eq!(s.supernode_of(0), s.supernode_of(1));
        assert_eq!(s.supernode_of(4), s.supernode_of(5));
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let (_, _, ck) = sample_checkpoint();
        let good = ck.encode();
        assert!(matches!(
            RunCheckpoint::decode(&[]),
            Err(CheckpointError::Corrupt(_))
        ));
        assert!(matches!(
            RunCheckpoint::decode(&good[..good.len() - 3]),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            RunCheckpoint::decode(&bad_magic),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            RunCheckpoint::decode(&trailing),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn validate_for_rejects_mismatches() {
        let (g, _, ck) = sample_checkpoint();
        assert!(ck.validate_for(ALGO_PEGASUS, g.num_nodes()).is_ok());
        assert!(matches!(
            ck.validate_for(ALGO_SSUMM, g.num_nodes()),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            ck.validate_for(ALGO_PEGASUS, g.num_nodes() + 1),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn iteration_seed_is_stable_and_spread() {
        assert_eq!(iteration_seed(7, 3), iteration_seed(7, 3));
        assert_ne!(iteration_seed(7, 3), iteration_seed(7, 4));
        assert_ne!(iteration_seed(7, 3), iteration_seed(8, 3));
        // Adjacent (seed, t) pairs must not collide pairwise.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16u64 {
            for t in 1..=32u64 {
                assert!(
                    seen.insert(iteration_seed(seed, t)),
                    "collision at ({seed}, {t})"
                );
            }
        }
    }
}
