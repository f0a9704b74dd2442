//! k-GraSS — GraSS (LeFevre & Terzi, SDM 2010) with the `SamplePairs`
//! search strategy, as configured in Sect. V-A (`c = 1.0`).
//!
//! GraSS summarizes into exactly `k` supernodes by greedy agglomerative
//! merging: at every step it samples `⌈c · |S|⌉` candidate supernode
//! pairs and merges the pair whose merge increases the L1 error of the
//! expected-adjacency reconstruction the least. The output reconstructs
//! each block at its optimal density, so the summary carries one
//! density-weighted superedge per non-empty block (dense, unselective —
//! see Fig. 8).

use pgs_core::api::{RunControl, StopReason};
use pgs_core::pegasus::RunStats;
use pgs_core::Summary;
use pgs_graph::{FxHashMap, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{block_l1_error, BlockWeight, Partition};

/// Configuration for k-GraSS.
#[derive(Clone, Debug)]
pub struct KGrassConfig {
    /// Pair-sampling multiplier `c` (paper setting: 1.0).
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KGrassConfig {
    fn default() -> Self {
        KGrassConfig { c: 1.0, seed: 0 }
    }
}

/// L1-error increase caused by merging groups `a` and `b` (blocks not
/// incident to either group are unaffected).
fn merge_error_increase(
    p: &Partition<'_>,
    a: u32,
    b: u32,
    map_a: &mut FxHashMap<u32, f64>,
    map_b: &mut FxHashMap<u32, f64>,
) -> f64 {
    map_a.clear();
    map_b.clear();
    p.edge_counts(a, map_a);
    p.edge_counts(b, map_b);
    let size = |g: u32| p.members(g).len() as f64;
    let (sa, sb) = (size(a), size(b));
    let tot = |x: f64, y: f64| x * y;
    let tot_self = |x: f64| x * (x - 1.0) / 2.0;

    // Error of the blocks incident to a or b, before the merge.
    let mut before = 0.0;
    #[expect(
        clippy::iter_over_hash_type,
        reason = "FxHashMap order is insertion-deterministic; sequential accumulation replays identically"
    )]
    for (&x, &e) in map_a.iter() {
        if x == a {
            before += block_l1_error(e / 2.0, tot_self(sa));
        } else {
            before += block_l1_error(e, tot(sa, size(x)));
        }
    }
    #[expect(
        clippy::iter_over_hash_type,
        reason = "FxHashMap order is insertion-deterministic; sequential accumulation replays identically"
    )]
    for (&x, &e) in map_b.iter() {
        if x == b {
            before += block_l1_error(e / 2.0, tot_self(sb));
        } else if x != a {
            // the (a,b) block was already counted from a's side
            before += block_l1_error(e, tot(sb, size(x)));
        }
    }

    // Error after the merge: combined blocks.
    let sc = sa + sb;
    let e_ab = map_a.get(&b).copied().unwrap_or(0.0);
    let e_cc = map_a.get(&a).copied().unwrap_or(0.0) / 2.0
        + map_b.get(&b).copied().unwrap_or(0.0) / 2.0
        + e_ab;
    let mut after = block_l1_error(e_cc, tot_self(sc));
    #[expect(
        clippy::iter_over_hash_type,
        reason = "FxHashMap order is insertion-deterministic; sequential accumulation replays identically"
    )]
    for (&x, &e) in map_a.iter() {
        if x == a || x == b {
            continue;
        }
        let e_total = e + map_b.get(&x).copied().unwrap_or(0.0);
        after += block_l1_error(e_total, tot(sc, size(x)));
    }
    #[expect(
        clippy::iter_over_hash_type,
        reason = "FxHashMap order is insertion-deterministic; sequential accumulation replays identically"
    )]
    for (&x, &e) in map_b.iter() {
        if x == a || x == b || map_a.contains_key(&x) {
            continue;
        }
        after += block_l1_error(e, tot(sc, size(x)));
    }
    after - before
}

/// The GraSS merge loop with run control threaded in: cancel/deadline
/// checks at the top of each merge step (a commit boundary — the
/// partition is always a valid summary state), stats counting every
/// sampled pair evaluation. The engine behind [`crate::KGrass`].
pub(crate) fn kgrass_loop(
    g: &Graph,
    k_supernodes: usize,
    cfg: &KGrassConfig,
    control: &RunControl,
) -> (Summary, RunStats, StopReason) {
    let started = std::time::Instant::now();
    let mut p = Partition::singletons(g);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut map_a = FxHashMap::default();
    let mut map_b = FxHashMap::default();
    let mut live = p.live_ids();
    let mut stats = RunStats::default();

    let stop = loop {
        if p.num_groups() <= k_supernodes || live.len() <= 1 {
            break StopReason::BudgetMet;
        }
        if let Some(reason) = control.interrupted(started) {
            break reason;
        }
        let samples = ((cfg.c * live.len() as f64).ceil() as usize).max(1);
        let mut best: Option<(u32, u32, f64)> = None;
        for _ in 0..samples {
            let i = rng.random_range(0..live.len());
            let j = rng.random_range(0..live.len());
            if i == j {
                continue;
            }
            let (a, b) = (live[i], live[j]);
            let inc = merge_error_increase(&p, a, b, &mut map_a, &mut map_b);
            stats.evals += 1;
            if best.is_none_or(|(_, _, bi)| inc < bi) {
                best = Some((a, b, inc));
            }
        }
        stats.iterations += 1;
        control.notify(&stats);
        let Some((a, b, _)) = best else { continue };
        let keep = p.merge(a, b);
        let dead = if keep == a { b } else { a };
        live.retain(|&x| x != dead);
        stats.merges += 1;
    };
    (p.into_summary(BlockWeight::Density), stats, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KGrass;
    use pgs_core::api::{Budget, SummarizeRequest, Summarizer};
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::{barabasi_albert, planted_partition};

    #[test]
    fn reaches_requested_supernode_count() {
        let g = barabasi_albert(100, 3, 1);
        let s = KGrass(KGrassConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(20)))
            .unwrap()
            .summary;
        assert_eq!(s.num_supernodes(), 20);
        assert_eq!(s.num_nodes(), 100);
    }

    #[test]
    fn k_equals_n_is_identity_partition() {
        let g = barabasi_albert(50, 2, 2);
        let s = KGrass(KGrassConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(50)))
            .unwrap()
            .summary;
        assert_eq!(s.num_supernodes(), 50);
        assert_eq!(s.num_superedges(), g.num_edges());
    }

    #[test]
    fn merging_twins_costs_nothing() {
        // Both {0,1} and {2,3} are twin pairs whose merge increases the
        // L1 error by exactly 0; any cross merge increases it. GraSS must
        // pick one of the two zero-cost twin merges.
        let g = graph_from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]);
        let s = KGrass(KGrassConfig { c: 5.0, seed: 1 })
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(3)))
            .unwrap()
            .summary;
        let merged_01 = s.supernode_of(0) == s.supernode_of(1);
        let merged_23 = s.supernode_of(2) == s.supernode_of(3);
        assert!(merged_01 || merged_23, "a twin pair should merge first");
    }

    #[test]
    fn produces_dense_weighted_superedges() {
        let g = planted_partition(120, 4, 500, 60, 3);
        let s = KGrass(KGrassConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(12)))
            .unwrap()
            .summary;
        // Every edge's block is covered.
        for (u, v) in g.edges() {
            let (a, b) = (s.supernode_of(u), s.supernode_of(v));
            assert!(s.has_superedge(a.min(b), a.max(b)));
        }
        // Density weights are in (0, 1].
        for (_, _, w) in s.superedges() {
            assert!(w > 0.0 && w <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = barabasi_albert(80, 2, 9);
        let s1 = KGrass(KGrassConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(10)))
            .unwrap()
            .summary;
        let s2 = KGrass(KGrassConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(10)))
            .unwrap()
            .summary;
        for u in g.nodes() {
            assert_eq!(s1.supernode_of(u), s2.supernode_of(u));
        }
    }
}
