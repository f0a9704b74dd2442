//! S2L — "Graph Summarization with Quality Guarantees" (Riondato,
//! García-Soriano, Bonchi; DMKD 2017), configured per Sect. V-A: L1
//! reconstruction error, no dimensionality reduction.
//!
//! S2L casts summarization as geometric clustering: each node is its
//! adjacency-matrix row, rows are clustered into `k` groups under the L1
//! metric, and each cluster becomes a supernode whose blocks reconstruct
//! at their average density. We implement the practical Lloyd-style
//! variant over sparse rows: centers are sparse mean vectors, node-to-
//! center L1 distances are computed in `O(deg + |supp(center)∩N(u)|)`.
//!
//! The per-iteration cost is `Θ(k · |E| / |V| · |V|) = Θ(k|E|)`-ish and
//! memory grows with center support, which is why the original runs out
//! of time/memory on the paper's large datasets (Fig. 8) — behavior this
//! implementation reproduces naturally.

use pgs_core::api::{RunControl, StopReason};
use pgs_core::pegasus::RunStats;
use pgs_core::Summary;
use pgs_graph::{FxHashMap, Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::common::{partition_to_summary, BlockWeight};

/// Configuration for S2L.
#[derive(Clone, Debug)]
pub struct S2lConfig {
    /// Lloyd iterations (small values suffice; the original uses few
    /// passes of k-median refinement).
    pub iterations: usize,
    /// RNG seed for center initialization.
    pub seed: u64,
}

impl Default for S2lConfig {
    fn default() -> Self {
        S2lConfig {
            iterations: 5,
            seed: 0,
        }
    }
}

/// Sparse center: node id → coordinate, plus cached L1 mass.
struct Center {
    coords: FxHashMap<NodeId, f64>,
    mass: f64,
}

impl Center {
    fn from_row(g: &Graph, u: NodeId) -> Self {
        let coords: FxHashMap<NodeId, f64> = g.neighbors(u).iter().map(|&v| (v, 1.0)).collect();
        let mass = coords.len() as f64;
        Center { coords, mass }
    }

    /// L1 distance from the binary row of `u` to this center:
    /// `deg(u) + ‖c‖₁ − 2·Σ_{v∈N(u)} c_v` (coordinates are in [0,1]).
    fn l1_to_row(&self, g: &Graph, u: NodeId) -> f64 {
        let mut overlap = 0.0;
        for &v in g.neighbors(u) {
            if let Some(&c) = self.coords.get(&v) {
                overlap += c;
            }
        }
        g.degree(u) as f64 + self.mass - 2.0 * overlap
    }
}

/// Summarizes `g` into at most `k_supernodes` supernodes via S2L
/// clustering. Thin wrapper over [`s2l_loop`], pinned bitwise equal to
/// it under default run control.
///
/// # Panics
/// Panics if `k_supernodes == 0`.
pub fn s2l_summarize(g: &Graph, k_supernodes: usize, cfg: &S2lConfig) -> Summary {
    assert!(k_supernodes >= 1, "need at least one supernode");
    s2l_loop(g, k_supernodes, cfg, &RunControl::default()).0
}

/// The S2L Lloyd loop with run control threaded in: cancel/deadline
/// checks at the top of each Lloyd iteration (the assignment vector is
/// a valid partition at every boundary), stats counting node-to-center
/// distance evaluations. The engine behind [`crate::S2l`].
pub(crate) fn s2l_loop(
    g: &Graph,
    k_supernodes: usize,
    cfg: &S2lConfig,
    control: &RunControl,
) -> (Summary, RunStats, StopReason) {
    let started = std::time::Instant::now();
    let n = g.num_nodes();
    let k = k_supernodes.min(n.max(1));
    let mut stats = RunStats::default();
    if n == 0 {
        return (
            Summary::new(0, Vec::new(), &[]),
            stats,
            StopReason::BudgetMet,
        );
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Initialize centers from k distinct random rows.
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    ids.shuffle(&mut rng);
    let mut centers: Vec<Center> = ids[..k].iter().map(|&u| Center::from_row(g, u)).collect();

    // Start from the identity assignment: a run interrupted before its
    // first Lloyd iteration returns the conservative singleton
    // partition, like the other engines — not one all-swallowing
    // cluster. Every completed iteration rewrites the vector in full,
    // so uninterrupted output is unchanged.
    let mut assignment: Vec<u32> = (0..n as u32).collect();
    let mut stop = StopReason::BudgetMet;
    for _ in 0..cfg.iterations.max(1) {
        if let Some(reason) = control.interrupted(started) {
            stop = reason;
            break;
        }
        // Assignment step.
        for u in 0..n as NodeId {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (ci, c) in centers.iter().enumerate() {
                let d = c.l1_to_row(g, u);
                if d < best_d {
                    best_d = d;
                    best = ci;
                }
            }
            assignment[u as usize] = best as u32;
        }
        stats.evals += (n * centers.len()) as u64;
        // Update step: center = mean of member rows (sparse).
        let mut counts = vec![0u64; k];
        for &a in &assignment {
            counts[a as usize] += 1;
        }
        let mut sums: Vec<FxHashMap<NodeId, f64>> = (0..k).map(|_| FxHashMap::default()).collect();
        for u in 0..n as NodeId {
            let a = assignment[u as usize] as usize;
            for &v in g.neighbors(u) {
                *sums[a].entry(v).or_insert(0.0) += 1.0;
            }
        }
        for (ci, sum) in sums.into_iter().enumerate() {
            if counts[ci] == 0 {
                // Empty cluster: reseed from a random row.
                let u = rng.random_range(0..n) as NodeId;
                centers[ci] = Center::from_row(g, u);
                continue;
            }
            let inv = 1.0 / counts[ci] as f64;
            let coords: FxHashMap<NodeId, f64> =
                sum.into_iter().map(|(v, s)| (v, s * inv)).collect();
            // `Iterator::sum` over f64 starts from -0.0; so does this loop.
            let mut mass = -0.0;
            #[expect(
                clippy::iter_over_hash_type,
                reason = "FxHashMap order is insertion-deterministic; sum replays identically"
            )]
            for &c in coords.values() {
                mass += c;
            }
            centers[ci] = Center { coords, mass };
        }
        stats.iterations += 1;
        control.notify(&stats);
    }

    let summary = partition_to_summary(g, &assignment, BlockWeight::Density);
    stats.merges = n - summary.num_supernodes();
    (summary, stats, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::{barabasi_albert, planted_partition};

    #[test]
    fn respects_supernode_budget() {
        let g = barabasi_albert(100, 3, 4);
        let s = s2l_summarize(&g, 15, &S2lConfig::default());
        assert!(s.num_supernodes() <= 15);
        assert_eq!(s.num_nodes(), 100);
    }

    #[test]
    fn clusters_twins_together() {
        // Two pairs of twins with disjoint neighborhoods: with k=4 and
        // enough iterations, each twin pair lands in one cluster (their
        // rows are identical, hence distance 0 to the same center).
        let g = graph_from_edges(
            8,
            &[
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (4, 6),
                (4, 7),
                (5, 6),
                (5, 7),
            ],
        );
        let s = s2l_summarize(
            &g,
            6,
            &S2lConfig {
                iterations: 10,
                seed: 3,
            },
        );
        assert_eq!(s.supernode_of(0), s.supernode_of(1), "twins 0,1 split");
        assert_eq!(s.supernode_of(4), s.supernode_of(5), "twins 4,5 split");
    }

    #[test]
    fn recovers_planted_blocks_roughly() {
        // Strong planted partition: clustering should place most of each
        // block in one cluster, yielding substantially fewer cross-块
        // splits than random.
        let g = planted_partition(200, 4, 1800, 40, 1);
        let s = s2l_summarize(
            &g,
            4,
            &S2lConfig {
                iterations: 8,
                seed: 2,
            },
        );
        // Count the majority cluster per planted block.
        let block = 50;
        let mut agree = 0usize;
        for b in 0..4 {
            let mut counts = FxHashMap::default();
            for u in (b * block)..((b + 1) * block) {
                *counts.entry(s.supernode_of(u as u32)).or_insert(0usize) += 1;
            }
            agree += counts.values().copied().max().unwrap_or(0);
        }
        assert!(agree >= 120, "only {agree}/200 nodes in majority clusters");
    }

    #[test]
    fn weights_are_densities() {
        let g = barabasi_albert(60, 2, 7);
        let s = s2l_summarize(&g, 8, &S2lConfig::default());
        for (_, _, w) in s.superedges() {
            assert!(w > 0.0 && w <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn k_one_collapses_everything() {
        let g = barabasi_albert(30, 2, 5);
        let s = s2l_summarize(&g, 1, &S2lConfig::default());
        assert_eq!(s.num_supernodes(), 1);
        assert!(s.num_superedges() <= 1); // at most the self-loop block
    }
}
