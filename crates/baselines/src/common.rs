//! Shared machinery for the baseline summarizers: a mutable partition
//! with count-based block statistics and density/count superedge
//! finalization.

use pgs_core::Summary;
use pgs_graph::{FxHashMap, Graph, NodeId};

/// A mutable partition of `V` used by the agglomerative baselines
/// (k-GraSS, SAAGs). Tracks members per group and supports weighted-union
/// merging; block edge counts are computed on demand by scanning member
/// adjacency (as in the originals).
pub struct Partition<'g> {
    g: &'g Graph,
    node_group: Vec<u32>,
    members: Vec<Option<Vec<NodeId>>>,
    live: usize,
}

impl<'g> Partition<'g> {
    /// All-singletons partition.
    pub fn singletons(g: &'g Graph) -> Self {
        let n = g.num_nodes();
        Partition {
            g,
            node_group: (0..n as u32).collect(),
            members: (0..n).map(|u| Some(vec![u as NodeId])).collect(),
            live: n,
        }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        self.g
    }

    /// Number of live groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.live
    }

    /// Group of node `u`.
    #[inline]
    pub fn group_of(&self, u: NodeId) -> u32 {
        self.node_group[u as usize]
    }

    /// True if `gid` names a live group.
    #[inline]
    pub fn is_live(&self, gid: u32) -> bool {
        self.members.get(gid as usize).is_some_and(|m| m.is_some())
    }

    /// Members of a live group.
    ///
    /// # Panics
    /// Panics if the group is dead.
    pub fn members(&self, gid: u32) -> &[NodeId] {
        self.members[gid as usize].as_ref().expect("dead group")
    }

    /// Ids of all live groups.
    pub fn live_ids(&self) -> Vec<u32> {
        self.members
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|_| i as u32))
            .collect()
    }

    /// Edge counts from group `gid` to every adjacent group, accumulated
    /// into `out`. Intra-group edges are counted twice (once from each
    /// endpoint); halve before use.
    pub fn edge_counts(&self, gid: u32, out: &mut FxHashMap<u32, f64>) {
        for &u in self.members(gid) {
            for &v in self.g.neighbors(u) {
                *out.entry(self.node_group[v as usize]).or_insert(0.0) += 1.0;
            }
        }
    }

    /// Merges groups `a != b` (weighted union); returns the surviving id.
    pub fn merge(&mut self, a: u32, b: u32) -> u32 {
        assert!(
            a != b && self.is_live(a) && self.is_live(b),
            "need two live groups"
        );
        let la = self.members[a as usize].as_ref().unwrap().len();
        let lb = self.members[b as usize].as_ref().unwrap().len();
        let (keep, dead) = if la >= lb { (a, b) } else { (b, a) };
        let dead_members = self.members[dead as usize].take().unwrap();
        for &u in &dead_members {
            self.node_group[u as usize] = keep;
        }
        self.members[keep as usize]
            .as_mut()
            .unwrap()
            .extend_from_slice(&dead_members);
        self.live -= 1;
        keep
    }

    /// Freezes into a [`Summary`], adding one superedge per block that
    /// contains at least one edge (dense, unselective superedge sets —
    /// the baseline behavior noted in Fig. 8).
    ///
    /// `weighting` chooses the superedge weights.
    pub fn into_summary(self, weighting: BlockWeight) -> Summary {
        partition_to_summary(self.g, &self.node_group, weighting)
    }
}

/// How finalized superedges are weighted.
#[derive(Clone, Copy, Debug)]
pub enum BlockWeight {
    /// Density of the block `e / tot` (GraSS/S2L expected adjacency).
    Density,
    /// Raw edge count of the block (SAAGs weighted summaries).
    Count,
}

/// Builds a dense-superedge summary from any node→group assignment.
pub fn partition_to_summary(g: &Graph, node_group: &[u32], weighting: BlockWeight) -> Summary {
    assert_eq!(g.num_nodes(), node_group.len());
    // Block edge counts over each unordered group pair.
    let mut counts: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    for (u, v) in g.edges() {
        let (a, b) = (node_group[u as usize], node_group[v as usize]);
        *counts.entry((a.min(b), a.max(b))).or_insert(0) += 1;
    }
    // Group sizes for density computation.
    let max_label = node_group
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut size = vec![0u64; max_label];
    for &gid in node_group {
        size[gid as usize] += 1;
    }
    let mut superedges: Vec<(u32, u32, f32)> = Vec::with_capacity(counts.len());
    #[expect(
        clippy::iter_over_hash_type,
        reason = "Summary::new sorts superedges canonically"
    )]
    for ((a, b), e) in counts {
        let tot = if a == b {
            size[a as usize] * (size[a as usize] - 1) / 2
        } else {
            size[a as usize] * size[b as usize]
        };
        let w = match weighting {
            BlockWeight::Density => (e as f64 / tot.max(1) as f64) as f32,
            BlockWeight::Count => e as f32,
        };
        superedges.push((a, b, w.max(f32::MIN_POSITIVE)));
    }
    Summary::new(g.num_nodes(), node_group.to_vec(), &superedges)
}

/// L1 reconstruction error of a block with `e` edges out of `tot` pairs
/// under its optimal density `p = e/tot`: `Σ|A_uv − p| = 2e(tot−e)/tot`.
#[inline]
pub fn block_l1_error(e: f64, tot: f64) -> f64 {
    if tot <= 0.0 {
        return 0.0;
    }
    2.0 * e * (tot - e).max(0.0) / tot
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;

    #[test]
    fn singletons_cover_all_nodes() {
        let g = barabasi_albert(40, 2, 1);
        let p = Partition::singletons(&g);
        assert_eq!(p.num_groups(), 40);
        assert_eq!(p.live_ids().len(), 40);
    }

    #[test]
    fn merge_updates_membership() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let mut p = Partition::singletons(&g);
        let k = p.merge(0, 1);
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.group_of(0), k);
        assert_eq!(p.group_of(1), k);
        let mut m = p.members(k).to_vec();
        m.sort_unstable();
        assert_eq!(m, vec![0, 1]);
    }

    #[test]
    fn edge_counts_double_count_intra() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut p = Partition::singletons(&g);
        let k = p.merge(0, 1);
        let mut out = FxHashMap::default();
        p.edge_counts(k, &mut out);
        assert_eq!(out[&k], 2.0); // edge (0,1) seen from both sides
        assert_eq!(out[&2], 1.0);
    }

    #[test]
    fn block_l1_error_properties() {
        assert_eq!(block_l1_error(0.0, 10.0), 0.0); // empty block
        assert_eq!(block_l1_error(10.0, 10.0), 0.0); // full block
        assert!((block_l1_error(5.0, 10.0) - 5.0).abs() < 1e-12); // half full
        assert_eq!(block_l1_error(1.0, 0.0), 0.0); // degenerate
    }

    #[test]
    fn partition_to_summary_density_weights() {
        // Groups {0,1} and {2}; edges 0-2 only: cross block density 1/2.
        let g = graph_from_edges(3, &[(0, 2)]);
        let s = partition_to_summary(&g, &[0, 0, 1], BlockWeight::Density);
        assert_eq!(s.num_superedges(), 1);
        let (_, _, w) = s.superedges().next().unwrap();
        assert!((w - 0.5).abs() < 1e-6);
    }

    #[test]
    fn partition_to_summary_count_weights() {
        let g = graph_from_edges(4, &[(0, 2), (0, 3), (1, 2)]);
        let s = partition_to_summary(&g, &[0, 0, 1, 1], BlockWeight::Count);
        assert_eq!(s.num_superedges(), 1);
        let (_, _, w) = s.superedges().next().unwrap();
        assert_eq!(w, 3.0);
    }

    #[test]
    fn dense_superedges_cover_every_nonempty_block() {
        let g = barabasi_albert(60, 3, 9);
        let assignment: Vec<u32> = (0..60).map(|u| u % 10).collect();
        let s = partition_to_summary(&g, &assignment, BlockWeight::Density);
        // Every input edge's block must be a superedge.
        for (u, v) in g.edges() {
            let (a, b) = (s.supernode_of(u), s.supernode_of(v));
            assert!(s.has_superedge(a.min(b), a.max(b)));
        }
    }

    #[test]
    #[should_panic(expected = "need two live groups")]
    fn merging_dead_group_panics() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let mut p = Partition::singletons(&g);
        let k = p.merge(0, 1);
        let dead = if k == 0 { 1 } else { 0 };
        p.merge(dead, 2);
    }
}
