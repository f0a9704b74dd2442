//! # pgs-partition — graph partitioning for distributed query answering
//!
//! Sect. IV uses the Louvain method to split the node set into `m`
//! subsets (one per machine), and Sect. V-F compares the resulting
//! personalized summaries against *subgraphs* produced by five
//! partitioners: Louvain \[28\], BLP (balanced label propagation) \[41\],
//! and the SHP family (SHPI, SHPII, SHPKL) \[42\].
//!
//! This crate implements all five:
//!
//! * [`louvain::louvain`] — classic two-phase modularity optimization,
//!   post-balanced into exactly `m` parts.
//! * [`blp::blp_partition`] — balanced label propagation: nodes adopt
//!   the plurality label among neighbors, subject to per-part capacity.
//! * [`shp::shp_partition`] — social-hash-style local search in three
//!   variants: probabilistic greedy moves (SHPI), fanout-driven moves
//!   (SHPII), and Kernighan–Lin pairwise swap refinement (SHPKL).
//!
//! All partitioners return one label in `0..m` per node and guarantee
//! every part is non-empty (required by Alg. 3, which personalizes one
//! summary per part).

pub mod blp;
pub mod louvain;
pub mod shp;

pub use blp::blp_partition;
pub use louvain::{louvain, louvain_partition};
pub use shp::{shp_partition, ShpVariant};

use pgs_graph::Graph;

/// The five partitioning methods of Fig. 12, behind one dispatch point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Louvain modularity communities, balanced into `m` parts.
    Louvain,
    /// Balanced label propagation.
    Blp,
    /// Social hash partitioner, probabilistic greedy variant.
    ShpI,
    /// Social hash partitioner, fanout-gain variant.
    ShpII,
    /// Social hash partitioner with Kernighan–Lin refinement.
    ShpKL,
}

impl Method {
    /// All methods, in the order the paper's legend lists them.
    pub const ALL: [Method; 5] = [
        Method::Louvain,
        Method::Blp,
        Method::ShpI,
        Method::ShpII,
        Method::ShpKL,
    ];

    /// Human-readable name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Louvain => "Louvain",
            Method::Blp => "BLP",
            Method::ShpI => "SHPI",
            Method::ShpII => "SHPII",
            Method::ShpKL => "SHPKL",
        }
    }

    /// Partitions `g` into `m` non-empty parts.
    pub fn partition(&self, g: &Graph, m: usize, seed: u64) -> Vec<u32> {
        match self {
            Method::Louvain => louvain_partition(g, m, seed),
            Method::Blp => blp_partition(g, m, 10, seed),
            Method::ShpI => shp_partition(g, m, ShpVariant::I, 10, seed),
            Method::ShpII => shp_partition(g, m, ShpVariant::II, 10, seed),
            Method::ShpKL => shp_partition(g, m, ShpVariant::KL, 10, seed),
        }
    }
}

/// Validates a partition vector: every label in `0..m`, every part
/// non-empty. Used by tests and debug assertions.
pub fn is_valid_partition(labels: &[u32], m: usize) -> bool {
    if labels.is_empty() {
        return m == 0;
    }
    let mut seen = vec![false; m];
    for &l in labels {
        if (l as usize) >= m {
            return false;
        }
        seen[l as usize] = true;
    }
    seen.into_iter().all(|x| x)
}

/// Fraction of edges crossing parts (lower = better locality).
pub fn edge_cut_fraction(g: &Graph, labels: &[u32]) -> f64 {
    if g.num_edges() == 0 {
        return 0.0;
    }
    let cut = g
        .edges()
        .filter(|&(u, v)| labels[u as usize] != labels[v as usize])
        .count();
    cut as f64 / g.num_edges() as f64
}

/// Rebalances arbitrary group labels into exactly `m` non-empty bins by
/// greedy size-balanced bin packing (largest groups first), keeping each
/// original group intact when possible. Falls back to splitting the
/// largest bins when fewer than `m` groups exist.
pub fn balance_into(labels: &[u32], m: usize) -> Vec<u32> {
    assert!(m >= 1, "need at least one part");
    let n = labels.len();
    assert!(n >= m, "cannot build {m} non-empty parts from {n} nodes");

    // Group nodes by incoming label.
    let max_label = labels.iter().copied().max().map_or(0, |x| x as usize + 1);
    let mut groups: Vec<Vec<u32>> = vec![Vec::new(); max_label];
    for (u, &l) in labels.iter().enumerate() {
        groups[l as usize].push(u as u32);
    }
    groups.retain(|g| !g.is_empty());
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));

    // Greedy assignment to the currently-smallest bin.
    let mut bins: Vec<Vec<u32>> = vec![Vec::new(); m];
    for group in groups {
        let target = (0..m).min_by_key(|&b| bins[b].len()).unwrap();
        bins[target].extend_from_slice(&group);
    }
    // Ensure non-empty bins by stealing from the largest.
    while let Some(empty) = bins.iter().position(|b| b.is_empty()) {
        let largest = (0..m).max_by_key(|&b| bins[b].len()).unwrap();
        assert!(
            bins[largest].len() > 1,
            "not enough nodes to fill all parts"
        );
        let steal = (bins[largest].len() / 2).max(1);
        let split_at = bins[largest].len() - steal;
        let moved: Vec<u32> = bins[largest].split_off(split_at);
        bins[empty] = moved;
    }
    let mut out = vec![0u32; n];
    for (b, bin) in bins.iter().enumerate() {
        for &u in bin {
            out[u as usize] = b as u32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::gen::{barabasi_albert, planted_partition};

    #[test]
    fn all_methods_produce_valid_partitions() {
        let g = planted_partition(160, 8, 600, 100, 3);
        for method in Method::ALL {
            let labels = method.partition(&g, 8, 7);
            assert!(
                is_valid_partition(&labels, 8),
                "{} produced an invalid partition",
                method.name()
            );
        }
    }

    #[test]
    fn balance_into_produces_m_nonempty_parts() {
        let labels = vec![0, 0, 0, 0, 0, 1, 1, 2, 3, 4];
        let out = balance_into(&labels, 3);
        assert!(is_valid_partition(&out, 3));
    }

    #[test]
    fn balance_into_splits_single_group() {
        let labels = vec![0; 20];
        let out = balance_into(&labels, 4);
        assert!(is_valid_partition(&out, 4));
    }

    #[test]
    #[should_panic(expected = "cannot build")]
    fn balance_into_rejects_too_few_nodes() {
        let _ = balance_into(&[0, 0], 3);
    }

    #[test]
    fn edge_cut_bounds() {
        let g = barabasi_albert(100, 3, 1);
        let all_same = vec![0u32; 100];
        assert_eq!(edge_cut_fraction(&g, &all_same), 0.0);
        let labels: Vec<u32> = (0..100).map(|u| u % 2).collect();
        let cut = edge_cut_fraction(&g, &labels);
        assert!(cut > 0.0 && cut <= 1.0);
    }

    #[test]
    fn partitioners_beat_random_cut_on_community_graph() {
        let g = planted_partition(240, 8, 1400, 120, 9);
        let random: Vec<u32> = (0..240).map(|u| u % 8).collect();
        let random_cut = edge_cut_fraction(&g, &random);
        for method in [Method::Louvain, Method::Blp] {
            let labels = method.partition(&g, 8, 1);
            let cut = edge_cut_fraction(&g, &labels);
            assert!(
                cut < random_cut,
                "{} cut {cut} not better than random {random_cut}",
                method.name()
            );
        }
    }
}
