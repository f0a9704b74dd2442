//! SAAGs — "Scalable Approximation Algorithm for Graph Summarization"
//! (Beg, Ahmad, Zaman, Khan; PAKDD 2018), configured per Sect. V-A:
//! `log n` sampled pairs per step and count-min sketches with `w = 50`,
//! `d = 2`.
//!
//! SAAGs is an agglomerative summarizer that avoids exact neighborhood
//! comparisons: each supernode keeps a small count-min sketch (CMS) of
//! its members' neighbor multiset, sketches merge by element-wise
//! addition, and candidate pairs are scored by the (over-)estimated
//! neighborhood overlap the sketches yield. It produces *weighted*
//! summary graphs with one superedge per non-empty block (count
//! weights) — the dense summaries Fig. 8 attributes to it.

use pgs_core::api::{RunControl, StopReason};
use pgs_core::pegasus::RunStats;
use pgs_core::Summary;
use pgs_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{BlockWeight, Partition};

/// Count-min sketch width (paper setting: 50).
pub const CMS_WIDTH: usize = 50;
/// Count-min sketch depth (paper setting: 2).
pub const CMS_DEPTH: usize = 2;

/// Configuration for SAAGs.
#[derive(Clone, Debug, Default)]
pub struct SaagsConfig {
    /// RNG seed (pair sampling and sketch hashing).
    pub seed: u64,
}

/// A fixed-shape count-min sketch over node ids, mergeable by addition.
#[derive(Clone, Debug)]
struct Cms {
    rows: [[u32; CMS_WIDTH]; CMS_DEPTH],
    total: u64,
}

impl Cms {
    fn new() -> Self {
        Cms {
            rows: [[0; CMS_WIDTH]; CMS_DEPTH],
            total: 0,
        }
    }

    #[inline]
    fn bucket(seed: u64, depth: usize, item: NodeId) -> usize {
        // Cheap universal-style mix; depth picks an independent stream.
        let mut x = (item as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seed ^ (depth as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x ^= x >> 31;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 29;
        (x % CMS_WIDTH as u64) as usize
    }

    fn insert(&mut self, seed: u64, item: NodeId) {
        for d in 0..CMS_DEPTH {
            self.rows[d][Self::bucket(seed, d, item)] += 1;
        }
        self.total += 1;
    }

    fn merge_from(&mut self, other: &Cms) {
        for d in 0..CMS_DEPTH {
            for wdt in 0..CMS_WIDTH {
                self.rows[d][wdt] += other.rows[d][wdt];
            }
        }
        self.total += other.total;
    }

    /// Estimated inner product of the sketched multisets (min over
    /// depths) — an upper-bias estimate of `Σ_v count_A(v)·count_B(v)`,
    /// i.e. of the neighborhood overlap between two supernodes.
    fn inner_product(&self, other: &Cms) -> u64 {
        (0..CMS_DEPTH)
            .map(|d| {
                self.rows[d]
                    .iter()
                    .zip(other.rows[d].iter())
                    .map(|(&a, &b)| a as u64 * b as u64)
                    .sum::<u64>()
            })
            .min()
            .unwrap_or(0)
    }
}

/// The SAAGs merge loop with run control threaded in: cancel/deadline
/// checks at the top of each merge step (a commit boundary), stats
/// counting sketch inner-product evaluations. The engine behind
/// [`crate::Saags`].
pub(crate) fn saags_loop(
    g: &Graph,
    k_supernodes: usize,
    cfg: &SaagsConfig,
    control: &RunControl,
) -> (Summary, RunStats, StopReason) {
    let started = std::time::Instant::now();
    let n = g.num_nodes();
    let mut p = Partition::singletons(g);
    let mut stats = RunStats::default();
    if n == 0 {
        return (
            p.into_summary(BlockWeight::Count),
            stats,
            StopReason::BudgetMet,
        );
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let hash_seed = cfg.seed ^ 0xA5A5_5A5A_DEAD_BEEF;

    // One sketch per (initially singleton) supernode.
    let mut sketches: Vec<Option<Cms>> = (0..n as NodeId)
        .map(|u| {
            let mut c = Cms::new();
            for &v in g.neighbors(u) {
                c.insert(hash_seed, v);
            }
            Some(c)
        })
        .collect();
    let mut live = p.live_ids();

    let stop = loop {
        if p.num_groups() <= k_supernodes || live.len() <= 1 {
            break StopReason::BudgetMet;
        }
        if let Some(reason) = control.interrupted(started) {
            break reason;
        }
        let samples = ((live.len() as f64).log2().ceil() as usize).max(1);
        let mut best: Option<(u32, u32, f64)> = None;
        for _ in 0..samples {
            let i = rng.random_range(0..live.len());
            let j = rng.random_range(0..live.len());
            if i == j {
                continue;
            }
            let (a, b) = (live[i], live[j]);
            let (ca, cb) = (
                sketches[a as usize].as_ref().unwrap(),
                sketches[b as usize].as_ref().unwrap(),
            );
            // Normalized overlap estimate: high when the supernodes'
            // neighbor multisets align relative to their sizes.
            let denom = (ca.total * cb.total).max(1) as f64;
            let score = ca.inner_product(cb) as f64 / denom;
            stats.evals += 1;
            if best.is_none_or(|(_, _, bs)| score > bs) {
                best = Some((a, b, score));
            }
        }
        stats.iterations += 1;
        control.notify(&stats);
        let Some((a, b, _)) = best else {
            // Both samples collided (i == j every time); extremely
            // unlikely but guard against a livelock by merging head/tail.
            let (a, b) = (live[0], live[live.len() - 1]);
            let keep = p.merge(a, b);
            let dead = if keep == a { b } else { a };
            let dead_sketch = sketches[dead as usize].take().unwrap();
            sketches[keep as usize]
                .as_mut()
                .unwrap()
                .merge_from(&dead_sketch);
            live.retain(|&x| x != dead);
            stats.merges += 1;
            continue;
        };
        let keep = p.merge(a, b);
        let dead = if keep == a { b } else { a };
        let dead_sketch = sketches[dead as usize].take().unwrap();
        sketches[keep as usize]
            .as_mut()
            .unwrap()
            .merge_from(&dead_sketch);
        live.retain(|&x| x != dead);
        stats.merges += 1;
    };
    (p.into_summary(BlockWeight::Count), stats, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Saags;
    use pgs_core::api::{Budget, SummarizeRequest, Summarizer};
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;

    #[test]
    fn reaches_supernode_budget() {
        let g = barabasi_albert(120, 3, 2);
        let s = Saags(SaagsConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(30)))
            .unwrap()
            .summary;
        assert_eq!(s.num_supernodes(), 30);
    }

    #[test]
    fn produces_count_weighted_superedges() {
        let g = barabasi_albert(80, 3, 6);
        let s = Saags(SaagsConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(10)))
            .unwrap()
            .summary;
        let mut total_weight = 0.0f64;
        for (_, _, w) in s.superedges() {
            assert!(w >= 1.0, "count weights are at least 1, got {w}");
            total_weight += w as f64;
        }
        // Block edge counts partition the edge set.
        assert!((total_weight - g.num_edges() as f64).abs() < 1e-3);
    }

    #[test]
    fn sketch_inner_product_reflects_overlap() {
        let seed = 42;
        let mut a = Cms::new();
        let mut b = Cms::new();
        let mut c = Cms::new();
        for v in 0..20u32 {
            a.insert(seed, v);
            b.insert(seed, v); // same items as a
            c.insert(seed, v + 1000); // disjoint items
        }
        let same = a.inner_product(&b);
        let diff = a.inner_product(&c);
        assert!(
            same > diff,
            "overlapping sketches must score higher: {same} vs {diff}"
        );
    }

    #[test]
    fn sketch_merge_adds_totals() {
        let seed = 7;
        let mut a = Cms::new();
        let mut b = Cms::new();
        a.insert(seed, 1);
        b.insert(seed, 2);
        b.insert(seed, 3);
        a.merge_from(&b);
        assert_eq!(a.total, 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = barabasi_albert(60, 2, 8);
        let s1 = Saags(SaagsConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(12)))
            .unwrap()
            .summary;
        let s2 = Saags(SaagsConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(12)))
            .unwrap()
            .summary;
        for u in g.nodes() {
            assert_eq!(s1.supernode_of(u), s2.supernode_of(u));
        }
    }

    #[test]
    fn tiny_graph() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let s = Saags(SaagsConfig::default())
            .run(&g, &SummarizeRequest::new(Budget::Supernodes(2)))
            .unwrap()
            .summary;
        assert_eq!(s.num_supernodes(), 2);
    }
}
