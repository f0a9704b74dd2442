//! Candidate generation by min-hash shingles (Sect. III-C).
//!
//! Two supernodes are merge candidates only if they land in the same
//! group. Groups are formed by the shingle
//!
//! ```text
//! F(U) = min_{u∈U} min_{v∈N(u)∪{u}} f(v)           (Eq. 12)
//! ```
//!
//! for a random hash `f : V → u64`; the probability that two supernodes
//! share a shingle equals the Jaccard similarity of their (closed)
//! neighbor sets, so groups collect supernodes with similar
//! connectivity. Oversized groups are re-split recursively by further
//! hashes (at most [`ShingleParams::depth`] rounds, paper constant 10)
//! and finally split randomly to at most [`ShingleParams::max_group`]
//! members (paper constant 500).
//!
//! # Persistent lanes, parallelism and determinism
//!
//! The paper draws `f` as a random permutation; the engine uses a keyed
//! 64-bit mix (`hash_node`) instead, which has the same collision
//! semantics (64-bit keys make ties vanishingly rare, and any tie breaks
//! identically everywhere) but is a *pure function* of `(seed, v)`. A
//! run hashes a fixed bank of such functions once
//! ([`attach_signatures`], parallel over node ranges and bit-identical
//! at any thread count) and the commit phase keeps every supernode's
//! shingles current in O(lanes) per merge, because `min` composes under
//! union (DESIGN.md §11). Each iteration then groups by a rotating lane
//! of that bank ([`candidate_groups_incremental`]). All residual
//! randomness (the starting lane, the final random division of
//! structurally identical supernodes) is drawn serially from the
//! driver's RNG.

use pgs_graph::{FxHashMap, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::RngCore;

use crate::exec::Exec;
use crate::summary::SuperId;
use crate::working::WorkingSummary;

/// Grouping parameters (paper constants in Sect. III-C).
#[derive(Clone, Copy, Debug)]
pub struct ShingleParams {
    /// Maximum group size (paper: 500).
    pub max_group: usize,
    /// Maximum recursive re-splitting depth (paper: 10).
    pub depth: usize,
}

impl Default for ShingleParams {
    fn default() -> Self {
        ShingleParams {
            max_group: 500,
            depth: 10,
        }
    }
}

/// The per-iteration random hash `f(v)`: a SplitMix64-style finalizer
/// keyed by the round seed. Pure, so any node range can be hashed on any
/// worker with an identical result.
#[inline]
fn hash_node(seed: u64, v: NodeId) -> u64 {
    let mut z = seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-node closed-neighborhood min-hash under the round hash:
/// `g(u) = min_{v ∈ N(u) ∪ {u}} f(v)`. `O(|V| + |E|)`, parallel over
/// contiguous node ranges.
fn node_minhash(ws: &WorkingSummary<'_>, seed: u64, exec: &Exec) -> Vec<u64> {
    let g = ws.graph();
    let n = g.num_nodes();
    let mut mh = vec![u64::MAX; n];
    exec.fill_chunks(&mut mh, |start, chunk| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            let u = (start + k) as NodeId;
            let mut best = hash_node(seed, u);
            for &v in g.neighbors(u) {
                best = best.min(hash_node(seed, v));
            }
            *slot = best;
        }
    });
    mh
}

/// Number of persistent hash lanes for a given shingle depth: at least
/// 8 (so the rotation schedule still varies early iterations) and at
/// most 32 (bounding the O(K) commit repair and the bank footprint at
/// `32·8 = 256` bytes per graph node).
pub(crate) fn lane_count(depth: usize) -> usize {
    depth.clamp(8, 32)
}

/// Seed of lane `k` in the persistent bank, derived from the run seed by
/// a double SplitMix64 so lanes are mutually independent and disjoint
/// from the per-iteration [`crate::checkpoint::iteration_seed`] stream.
fn lane_seed(bank_seed: u64, lane: usize) -> u64 {
    crate::checkpoint::splitmix64(
        bank_seed
            ^ crate::checkpoint::splitmix64((lane as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
    )
}

/// Builds the persistent signature bank: `lanes` independent closed-
/// neighborhood min-hash lanes over graph nodes, folded into
/// per-supernode minima and attached to `ws`. One-time
/// `O(K·(|V|+|E|))` cost per run; afterwards every
/// [`WorkingSummary::commit`] repairs each survivor's signature as the
/// lane-wise min of its sides, O(K) per merge. Because each lane value
/// is a min over *original graph nodes* (which never change during a
/// run) and `u64::min` is associative and commutative, the maintained
/// signatures stay bitwise equal to rerunning this from-scratch
/// computation after any merge sequence — min-hash composes under union
/// (DESIGN.md §11).
///
/// The node-level hash passes are embarrassingly parallel (`hash_node`
/// is pure in `(seed, v)`), so the bank is bit-identical at any thread
/// count.
pub fn attach_signatures(ws: &mut WorkingSummary<'_>, bank_seed: u64, lanes: usize, exec: &Exec) {
    let n = ws.graph().num_nodes();
    let mut data = vec![u64::MAX; n * lanes];
    for lane in 0..lanes {
        let mh = node_minhash(ws, lane_seed(bank_seed, lane), exec);
        for s in ws.live_iter() {
            let mut best = u64::MAX;
            for &u in ws.members(s) {
                best = best.min(mh[u as usize]);
            }
            data[s as usize * lanes + lane] = best;
        }
    }
    ws.set_signature_bank(lanes, data);
}

/// Buckets `ids` by their persisted signature in `lane`, in O(|ids|)
/// (each signature is a single array read). Groups come back sorted by
/// signature key with members in `ids` iteration order — an ordering
/// independent of both hash-map iteration order and thread count, which
/// the deterministic commit phase relies on.
fn bucket_by_lane(
    ws: &WorkingSummary<'_>,
    ids: impl Iterator<Item = SuperId>,
    lane: usize,
) -> Vec<Vec<SuperId>> {
    let mut buckets: FxHashMap<u64, Vec<SuperId>> = FxHashMap::default();
    for s in ids {
        buckets.entry(ws.signature(s, lane)).or_default().push(s);
    }
    let mut groups: Vec<(u64, Vec<SuperId>)> = buckets.into_iter().collect();
    groups.sort_unstable_by_key(|(key, _)| *key);
    groups.into_iter().map(|(_, grp)| grp).collect()
}

/// Orders `groups` by expected gain, descending: the sum of the
/// members' accepted-merge EMAs (maintained by the driver, decayed by
/// [`crate::threshold::GAIN_DECAY`]) plus a per-pair cold-start prior
/// ([`crate::threshold::GAIN_COLD_PRIOR`]`·(|group|-1)`) so that, with
/// no history yet, larger signature-collision mass goes first. The sort
/// is stable, so ties keep the canonical signature-key order — the
/// schedule is a pure function of (summary state, gains), independent
/// of thread count.
fn schedule_by_gain(groups: &mut Vec<Vec<SuperId>>, gains: &[f64]) {
    let mut keyed: Vec<(f64, Vec<SuperId>)> = std::mem::take(groups)
        .into_iter()
        .map(|grp| {
            let observed: f64 = grp.iter().map(|&s| gains[s as usize]).sum();
            let prior = crate::threshold::GAIN_COLD_PRIOR * (grp.len() - 1) as f64;
            (observed + prior, grp)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
    *groups = keyed.into_iter().map(|(_, grp)| grp).collect();
}

/// Generates this iteration's candidate groups (Alg. 1 line 4) from the
/// persistent signature lanes attached via [`attach_signatures`].
/// Iteration-to-iteration variety comes from rotating the starting lane
/// (drawn from the driver RNG, preserving the fixed-seed determinism
/// contract); recursive re-splitting of oversized groups consumes
/// successive lanes. Groups of size 1 are dropped (no pairs to merge),
/// so every live supernode appears in at most one group. Finally groups
/// are ordered by expected gain (`schedule_by_gain`) so high-yield
/// groups evaluate first and deadline/cancel cutoffs land after the
/// most valuable work.
///
/// Serial and `O(live)` per round — no `Exec` involved, so the output
/// is thread-count independent by construction.
///
/// # Panics
/// Panics unless a signature bank is attached.
pub fn candidate_groups_incremental(
    ws: &WorkingSummary<'_>,
    rng: &mut StdRng,
    params: &ShingleParams,
    gains: &[f64],
) -> Vec<Vec<SuperId>> {
    let lanes = ws.signature_lanes();
    assert!(
        lanes > 0,
        "attach_signatures must run before the incremental path"
    );
    if ws.num_supernodes() < 2 {
        return Vec::new();
    }
    let start = (rng.next_u64() % lanes as u64) as usize;
    let mut groups = bucket_by_lane(ws, ws.live_iter(), start);

    for r in 1..params.depth.min(lanes) {
        if groups.iter().all(|g| g.len() <= params.max_group) {
            break;
        }
        let lane = (start + r) % lanes;
        let mut next = Vec::with_capacity(groups.len());
        for group in groups {
            if group.len() <= params.max_group {
                next.push(group);
            } else {
                next.extend(bucket_by_lane(ws, group.into_iter(), lane));
            }
        }
        groups = next;
    }

    // Random division of any still-oversized group (supernodes
    // colliding on every lane can never be separated by signatures).
    let mut result = Vec::with_capacity(groups.len());
    for mut group in groups {
        if group.len() > params.max_group {
            group.shuffle(rng);
            for chunk in group.chunks(params.max_group) {
                if chunk.len() > 1 {
                    result.push(chunk.to_vec());
                }
            }
        } else if group.len() > 1 {
            result.push(group);
        }
    }
    schedule_by_gain(&mut result, gains);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::weights::NodeWeights;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;
    use rand::SeedableRng;

    fn incremental_groups_for(
        g: &pgs_graph::Graph,
        params: &ShingleParams,
        seed: u64,
        threads: usize,
    ) -> Vec<Vec<SuperId>> {
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(g, &w, CostModel::ErrorCorrection);
        let exec = if threads == 1 {
            Exec::serial()
        } else {
            Exec::new(threads)
        };
        attach_signatures(&mut ws, seed, lane_count(params.depth), &exec);
        let mut rng = StdRng::seed_from_u64(seed);
        let gains = vec![0.0; g.num_nodes()];
        candidate_groups_incremental(&ws, &mut rng, params, &gains)
    }

    #[test]
    fn twins_usually_land_in_same_group() {
        // Nodes 0 and 1 share the open neighborhood {2,3}; their closed
        // neighborhoods overlap with Jaccard 0.5, so they share a shingle
        // with probability 1/2 per hash lane. Over 40 seeds they must
        // be grouped together far more often than never.
        let g = graph_from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let mut together = 0;
        for seed in 0..40 {
            let groups = incremental_groups_for(&g, &ShingleParams::default(), seed, 1);
            if groups
                .iter()
                .any(|grp| grp.contains(&0) && grp.contains(&1))
            {
                together += 1;
            }
        }
        assert!(
            (10..=35).contains(&together),
            "twins together {together}/40 times; expected near 20"
        );
    }

    #[test]
    fn different_seeds_give_different_groups() {
        let g = barabasi_albert(150, 3, 2);
        let g1 = incremental_groups_for(&g, &ShingleParams::default(), 1, 1);
        let g2 = incremental_groups_for(&g, &ShingleParams::default(), 2, 1);
        // Compare the multiset of sorted groups; different permutations
        // should produce different clusterings on a random graph.
        let norm = |mut gs: Vec<Vec<SuperId>>| {
            for g in &mut gs {
                g.sort_unstable();
            }
            gs.sort();
            gs
        };
        assert_ne!(norm(g1), norm(g2));
    }

    #[test]
    fn tiny_graphs_yield_no_groups() {
        let g = graph_from_edges(1, &[]);
        let groups = incremental_groups_for(&g, &ShingleParams::default(), 0, 1);
        assert!(groups.is_empty());
    }

    #[test]
    fn isolated_nodes_group_by_own_hash() {
        // Isolated nodes have closed neighborhood = {self}: shingles are
        // all distinct, so they form only singletons (dropped).
        let g = pgs_graph::Graph::empty(5);
        let groups = incremental_groups_for(&g, &ShingleParams::default(), 0, 1);
        assert!(groups.is_empty());
    }

    #[test]
    fn incremental_groups_identical_at_any_thread_count() {
        let g = barabasi_albert(300, 4, 6);
        let reference = incremental_groups_for(&g, &ShingleParams::default(), 9, 1);
        assert!(!reference.is_empty());
        for threads in [2, 3, 8] {
            let got = incremental_groups_for(&g, &ShingleParams::default(), 9, threads);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn incremental_groups_are_disjoint_and_within_live() {
        let g = barabasi_albert(200, 3, 7);
        let groups = incremental_groups_for(&g, &ShingleParams::default(), 3, 1);
        let mut seen = std::collections::HashSet::new();
        for grp in &groups {
            assert!(grp.len() >= 2, "singleton group leaked");
            for &s in grp {
                assert!(seen.insert(s), "supernode {s} in two groups");
                assert!((s as usize) < 200);
            }
        }
    }

    #[test]
    fn incremental_enforces_max_group() {
        // The star graph collapses all leaves onto the hub's hash in
        // every lane, forcing the random-division path.
        let n = 60;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0u32, v)).collect();
        let g = graph_from_edges(n as usize, &edges);
        let params = ShingleParams {
            max_group: 10,
            depth: 3,
        };
        let groups = incremental_groups_for(&g, &params, 1, 1);
        assert!(!groups.is_empty(), "the shared-hub leaves must form groups");
        for grp in &groups {
            assert!(grp.len() <= 10, "group of size {} exceeds cap", grp.len());
        }
    }

    #[test]
    fn gain_ordering_puts_hot_groups_first() {
        let g = barabasi_albert(300, 4, 5);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        attach_signatures(&mut ws, 5, 8, &Exec::serial());
        let mut rng = StdRng::seed_from_u64(5);
        let cold =
            candidate_groups_incremental(&ws, &mut rng, &ShingleParams::default(), &vec![0.0; 300]);
        assert!(cold.len() >= 2, "need at least two groups for the test");
        // Heat up every member of what is currently the *last* group;
        // with observed gain dominating the prior it must come first.
        let mut gains = vec![0.0; 300];
        for &s in cold.last().unwrap() {
            gains[s as usize] = 10.0;
        }
        let mut rng = StdRng::seed_from_u64(5);
        let hot = candidate_groups_incremental(&ws, &mut rng, &ShingleParams::default(), &gains);
        assert_eq!(hot[0], *cold.last().unwrap());
        // Same multiset of groups either way — scheduling only reorders.
        let norm = |mut gs: Vec<Vec<SuperId>>| {
            gs.sort();
            gs
        };
        assert_eq!(norm(hot), norm(cold));
    }

    #[test]
    fn maintained_signatures_match_recompute_after_merges() {
        // The composition-under-union invariant on a concrete case: merge
        // a few pairs with maintained signatures, then rebuild the bank
        // from scratch and compare lane-wise bitwise.
        let g = barabasi_albert(120, 3, 11);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let lanes = 8;
        attach_signatures(&mut ws, 42, lanes, &Exec::serial());
        for &(a, b) in &[(0u32, 1u32), (2, 3), (0, 2), (10, 50), (10, 51)] {
            ws.merge(a, b);
        }
        let maintained: Vec<(SuperId, Vec<u64>)> = ws
            .live_iter()
            .map(|s| (s, (0..lanes).map(|k| ws.signature(s, k)).collect()))
            .collect();
        attach_signatures(&mut ws, 42, lanes, &Exec::serial());
        for (s, sig) in maintained {
            let fresh: Vec<u64> = (0..lanes).map(|k| ws.signature(s, k)).collect();
            assert_eq!(sig, fresh, "supernode {s}");
        }
    }
}
