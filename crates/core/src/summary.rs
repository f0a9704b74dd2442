//! The summary graph `G̅ = (S, P)` (Sect. II-A) in a frozen, query-ready
//! form, plus the bit-size accounting of Eq. (3).

use pgs_graph::{Graph, GraphBuilder, NodeId};

/// Dense supernode identifier `0..|S|`.
pub type SuperId = u32;

/// An immutable summary graph: a partition of `V` into supernodes plus a
/// set of (optionally weighted) superedges, self-loops allowed.
///
/// Produced by every [`crate::Summarizer`] (PeGaSus, SSumM and the
/// baselines); consumed by the query-answering crate.
/// Superedge weights are 1 for PeGaSus/SSumM summaries; the SAAGs baseline
/// produces weighted summaries, and the size formula then follows the
/// weighted-variant accounting of Sect. V-A.
///
/// # Example
/// ```
/// use pgs_core::Summary;
/// // Partition {0,1} | {2}, superedge between them plus a self-loop on {0,1}.
/// let s = Summary::new(3, vec![0, 0, 1], &[(0, 1, 1.0), (0, 0, 1.0)]);
/// assert_eq!(s.num_supernodes(), 2);
/// assert_eq!(s.num_superedges(), 2);
/// assert!(s.has_self_loop(0));
/// assert_eq!(s.members(0), &[0, 1]);
/// ```
#[derive(Clone, Debug)]
pub struct Summary {
    /// Supernode of each node; length `|V|`.
    node_super: Vec<SuperId>,
    /// CSR offsets into `members`; length `|S| + 1`.
    member_offsets: Vec<u32>,
    /// Members of each supernode, grouped by supernode; length `|V|`.
    members: Vec<NodeId>,
    /// CSR offsets into `sadj`; length `|S| + 1`.
    sadj_offsets: Vec<u32>,
    /// Superedge adjacency: for each supernode, sorted `(neighbor, weight)`
    /// pairs. A self-loop appears as the supernode's own id.
    sadj: Vec<(SuperId, f32)>,
    /// Number of distinct superedges `|P|` (self-loops count once).
    num_superedges: usize,
    /// Maximum superedge weight (1.0 for unweighted summaries).
    max_weight: f32,
}

impl Summary {
    /// Builds a summary from a per-node supernode assignment and a
    /// superedge list.
    ///
    /// `assignment[u]` may use arbitrary (sparse) supernode labels; they
    /// are compacted to `0..|S|` preserving first-appearance order.
    /// Superedge endpoints refer to the *compacted* ids when
    /// `assignment` is already dense `0..|S|`, which is the common case;
    /// duplicate superedges collapse to one, keeping an arbitrary one of
    /// their weights.
    ///
    /// # Panics
    /// Panics if `assignment.len() != num_nodes`, a superedge endpoint is
    /// out of range, or a weight is not finite/positive.
    pub fn new(num_nodes: usize, assignment: Vec<u32>, superedges: &[(u32, u32, f32)]) -> Self {
        assert_eq!(
            assignment.len(),
            num_nodes,
            "assignment must cover all nodes"
        );
        // Compact labels to dense 0..|S| in first-appearance order.
        let mut remap: Vec<u32> = Vec::new();
        let max_label = assignment
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut seen: Vec<u32> = vec![u32::MAX; max_label];
        let mut node_super = Vec::with_capacity(num_nodes);
        for &label in &assignment {
            let slot = &mut seen[label as usize];
            if *slot == u32::MAX {
                *slot = remap.len() as u32;
                remap.push(label);
            }
            node_super.push(*slot);
        }
        let s_count = remap.len();

        // Member CSR.
        let mut sizes = vec![0u32; s_count];
        for &s in &node_super {
            sizes[s as usize] += 1;
        }
        let mut member_offsets = Vec::with_capacity(s_count + 1);
        member_offsets.push(0u32);
        let mut acc = 0u32;
        for &c in &sizes {
            acc += c;
            member_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = member_offsets[..s_count].to_vec();
        let mut members = vec![0 as NodeId; num_nodes];
        for (u, &s) in node_super.iter().enumerate() {
            members[cursor[s as usize] as usize] = u as NodeId;
            cursor[s as usize] += 1;
        }

        // Superedge adjacency. Labels in the superedge list are the dense
        // ids after compaction if the caller already passed dense labels;
        // otherwise remap through `seen`.
        let lookup = |raw: u32| -> u32 {
            assert!(
                (raw as usize) < max_label && seen[raw as usize] != u32::MAX,
                "superedge endpoint {raw} does not match any supernode"
            );
            seen[raw as usize]
        };
        let mut pairs: Vec<(u32, u32, f32)> = superedges
            .iter()
            .map(|&(a, b, w)| {
                assert!(
                    w.is_finite() && w > 0.0,
                    "superedge weight must be positive"
                );
                let (a, b) = (lookup(a), lookup(b));
                (a.min(b), a.max(b), w)
            })
            .collect();
        pairs.sort_unstable_by_key(|x| (x.0, x.1));
        pairs.dedup_by_key(|p| (p.0, p.1));
        let num_superedges = pairs.len();

        let mut deg = vec![0u32; s_count];
        for &(a, b, _) in &pairs {
            deg[a as usize] += 1;
            if a != b {
                deg[b as usize] += 1;
            }
        }
        let mut sadj_offsets = Vec::with_capacity(s_count + 1);
        sadj_offsets.push(0u32);
        let mut acc = 0u32;
        for &d in &deg {
            acc += d;
            sadj_offsets.push(acc);
        }
        let mut cursor: Vec<u32> = sadj_offsets[..s_count].to_vec();
        let mut sadj = vec![(0 as SuperId, 0.0f32); acc as usize];
        let mut max_weight: f32 = 1.0;
        for &(a, b, w) in &pairs {
            max_weight = max_weight.max(w);
            sadj[cursor[a as usize] as usize] = (b, w);
            cursor[a as usize] += 1;
            if a != b {
                sadj[cursor[b as usize] as usize] = (a, w);
                cursor[b as usize] += 1;
            }
        }
        for s in 0..s_count {
            let lo = sadj_offsets[s] as usize;
            let hi = sadj_offsets[s + 1] as usize;
            sadj[lo..hi].sort_unstable_by_key(|&(x, _)| x);
        }

        Summary {
            node_super,
            member_offsets,
            members,
            sadj_offsets,
            sadj,
            num_superedges,
            max_weight,
        }
    }

    /// Number of nodes `|V|` of the underlying graph.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_super.len()
    }

    /// Number of supernodes `|S|`.
    #[inline]
    pub fn num_supernodes(&self) -> usize {
        self.member_offsets.len() - 1
    }

    /// Number of superedges `|P|` (self-loops count once).
    #[inline]
    pub fn num_superedges(&self) -> usize {
        self.num_superedges
    }

    /// The supernode containing node `u`.
    #[inline]
    pub fn supernode_of(&self, u: NodeId) -> SuperId {
        self.node_super[u as usize]
    }

    /// The full node→supernode assignment column (length `|V|`).
    ///
    /// Exposed so query planners can borrow the column instead of
    /// re-deriving it with `|V|` calls to [`Summary::supernode_of`].
    #[inline]
    pub fn node_supers(&self) -> &[SuperId] {
        &self.node_super
    }

    /// CSR offsets into [`Summary::members_flat`] (length `|S| + 1`).
    #[inline]
    pub fn member_offsets(&self) -> &[u32] {
        &self.member_offsets
    }

    /// All member nodes grouped by supernode (length `|V|`); slice
    /// `member_offsets()[s]..member_offsets()[s+1]` is [`Summary::members`]`(s)`.
    #[inline]
    pub fn members_flat(&self) -> &[NodeId] {
        &self.members
    }

    /// CSR offsets of the superedge adjacency (length `|S| + 1`); slice
    /// `sadj_offsets()[s]..sadj_offsets()[s+1]` of the adjacency array is
    /// [`Summary::neighbor_supers`]`(s)`.
    #[inline]
    pub fn sadj_offsets(&self) -> &[u32] {
        &self.sadj_offsets
    }

    /// Sorted member nodes of supernode `s`.
    #[inline]
    pub fn members(&self, s: SuperId) -> &[NodeId] {
        let lo = self.member_offsets[s as usize] as usize;
        let hi = self.member_offsets[s as usize + 1] as usize;
        &self.members[lo..hi]
    }

    /// Size of supernode `s` (member count).
    #[inline]
    pub fn supernode_size(&self, s: SuperId) -> usize {
        (self.member_offsets[s as usize + 1] - self.member_offsets[s as usize]) as usize
    }

    /// Sorted `(neighbor supernode, weight)` superedge adjacency of `s`;
    /// includes `s` itself if there is a self-loop.
    #[inline]
    pub fn neighbor_supers(&self, s: SuperId) -> &[(SuperId, f32)] {
        let lo = self.sadj_offsets[s as usize] as usize;
        let hi = self.sadj_offsets[s as usize + 1] as usize;
        &self.sadj[lo..hi]
    }

    /// True if supernode `s` carries a self-loop (its members form a dense
    /// block).
    pub fn has_self_loop(&self, s: SuperId) -> bool {
        self.neighbor_supers(s)
            .binary_search_by_key(&s, |&(x, _)| x)
            .is_ok()
    }

    /// True if the superedge `{a, b}` is present.
    pub fn has_superedge(&self, a: SuperId, b: SuperId) -> bool {
        self.neighbor_supers(a)
            .binary_search_by_key(&b, |&(x, _)| x)
            .is_ok()
    }

    /// Iterator over each superedge once as `(a, b, weight)` with `a <= b`.
    pub fn superedges(&self) -> impl Iterator<Item = (SuperId, SuperId, f32)> + '_ {
        (0..self.num_supernodes() as SuperId).flat_map(move |a| {
            self.neighbor_supers(a)
                .iter()
                .copied()
                .filter(move |&(b, _)| a <= b)
                .map(move |(b, w)| (a, b, w))
        })
    }

    /// Size in bits per Eq. (3): `2|P| log2|S| + |V| log2|S|`.
    ///
    /// For weighted summaries (`max_weight > 1`), uses the weighted
    /// variant from Sect. V-A:
    /// `|P| (2 log2|S| + log2 ω_max) + |V| log2|S|`.
    pub fn size_bits(&self) -> f64 {
        let s = self.num_supernodes() as f64;
        if s <= 1.0 {
            // log2(1) = 0: a single supernode encodes in 0 bits under the
            // paper's model.
            return 0.0;
        }
        let log_s = s.log2();
        let base = self.num_nodes() as f64 * log_s;
        if self.max_weight > 1.0 {
            let log_w = (self.max_weight as f64).log2().max(1.0);
            self.num_superedges as f64 * (2.0 * log_s + log_w) + base
        } else {
            2.0 * self.num_superedges as f64 * log_s + base
        }
    }

    /// Degree of node `u` in the reconstructed graph `Ĝ` — computable in
    /// `O(deg_summary)` without materializing `Ĝ` (used by summary-side
    /// RWR, Alg. 6).
    pub fn reconstructed_degree(&self, u: NodeId) -> usize {
        let su = self.supernode_of(u);
        let mut d = 0usize;
        for &(x, _) in self.neighbor_supers(su) {
            d += self.supernode_size(x);
        }
        if self.has_self_loop(su) {
            d -= 1; // u itself is not its own neighbor
        }
        d
    }

    /// Materializes the reconstructed graph `Ĝ` (Sect. II-A). Quadratic in
    /// supernode sizes — intended for tests and small graphs only.
    pub fn reconstruct(&self) -> Graph {
        let mut b = GraphBuilder::new(self.num_nodes());
        for (a, bb, _) in self.superedges() {
            if a == bb {
                let mem = self.members(a);
                for i in 0..mem.len() {
                    for j in (i + 1)..mem.len() {
                        b.add_edge(mem[i], mem[j]);
                    }
                }
            } else {
                for &u in self.members(a) {
                    for &v in self.members(bb) {
                        b.add_edge(u, v);
                    }
                }
            }
        }
        b.ensure_nodes(self.num_nodes());
        b.build()
    }

    /// The identity summary of a graph: every node is a singleton
    /// supernode and every edge a superedge (PeGaSus's initialization,
    /// Alg. 1 line 1). Reconstructs the input exactly.
    pub fn identity(g: &Graph) -> Self {
        let n = g.num_nodes();
        let assignment: Vec<u32> = (0..n as u32).collect();
        let superedges: Vec<(u32, u32, f32)> = g.edges().map(|(u, v)| (u, v, 1.0)).collect();
        Summary::new(n, assignment, &superedges)
    }

    /// Maximum superedge weight `ω_max` (1.0 for unweighted summaries).
    #[inline]
    pub fn max_weight(&self) -> f32 {
        self.max_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::builder::graph_from_edges;

    /// The Fig. 3(a) example: a, b both adjacent to c, d; e adjacent to d.
    /// Merging A={a,b}, B={c,d} yields an exact reconstruction.
    fn fig3a_graph() -> Graph {
        // a=0 b=1 c=2 d=3 e=4
        graph_from_edges(5, &[(0, 2), (0, 3), (1, 2), (1, 3), (3, 4)])
    }

    #[test]
    fn identity_summary_roundtrips() {
        let g = fig3a_graph();
        let s = Summary::identity(&g);
        assert_eq!(s.num_supernodes(), 5);
        assert_eq!(s.num_superedges(), g.num_edges());
        assert_eq!(s.reconstruct(), g);
    }

    #[test]
    fn fig3a_exact_reconstruction() {
        let _g = fig3a_graph();
        // S = {a,b}, {c,d}, {e}; P = {AB-CD, CD-E}
        let s = Summary::new(5, vec![0, 0, 1, 1, 2], &[(0, 1, 1.0), (1, 2, 1.0)]);
        // Wait: superedge {CD, E} reconstructs edges c-e AND d-e, but only
        // d-e exists. The exact summary instead keeps e's edge precise:
        // reconstruct and compare errors directly.
        let recon = s.reconstruct();
        // a-c, a-d, b-c, b-d from AB-CD; c-e, d-e from CD-E.
        assert!(recon.has_edge(0, 2));
        assert!(recon.has_edge(1, 3));
        assert!(recon.has_edge(2, 4)); // the one incorrect edge
        assert_eq!(recon.num_edges(), 6);
    }

    #[test]
    fn self_loop_reconstructs_clique() {
        let s = Summary::new(4, vec![0, 0, 0, 1], &[(0, 0, 1.0)]);
        let recon = s.reconstruct();
        assert_eq!(recon.num_edges(), 3); // triangle on {0,1,2}
        assert!(recon.has_edge(0, 1));
        assert!(recon.has_edge(1, 2));
        assert!(!recon.has_edge(0, 3));
    }

    #[test]
    fn compacts_sparse_labels() {
        let s = Summary::new(3, vec![7, 7, 42], &[(7, 42, 1.0)]);
        assert_eq!(s.num_supernodes(), 2);
        assert_eq!(s.supernode_of(0), 0);
        assert_eq!(s.supernode_of(2), 1);
        assert!(s.has_superedge(0, 1));
    }

    #[test]
    fn members_partition_v() {
        let s = Summary::new(6, vec![0, 1, 0, 2, 1, 0], &[]);
        let mut seen = [false; 6];
        for sn in 0..s.num_supernodes() as SuperId {
            for &u in s.members(sn) {
                assert!(!seen[u as usize], "node {u} in two supernodes");
                seen[u as usize] = true;
                assert_eq!(s.supernode_of(u), sn);
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn duplicate_superedges_ignored() {
        let s = Summary::new(2, vec![0, 1], &[(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0)]);
        assert_eq!(s.num_superedges(), 1);
    }

    #[test]
    fn size_bits_matches_eq3() {
        // 4 supernodes, 3 superedges, 8 nodes: (2*3 + 8) * log2(4) = 28.
        let s = Summary::new(
            8,
            vec![0, 0, 1, 1, 2, 2, 3, 3],
            &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
        );
        assert!((s.size_bits() - 28.0).abs() < 1e-12);
    }

    #[test]
    fn size_bits_weighted_variant() {
        // max weight 4.0 => log2(4)=2 extra bits per superedge.
        let s = Summary::new(4, vec![0, 0, 1, 1], &[(0, 1, 4.0)]);
        let log_s = 2.0f64.log2();
        let expect = 1.0 * (2.0 * log_s + 2.0) + 4.0 * log_s;
        assert!((s.size_bits() - expect).abs() < 1e-12);
    }

    #[test]
    fn single_supernode_sizes_zero_bits() {
        let s = Summary::new(3, vec![0, 0, 0], &[(0, 0, 1.0)]);
        assert_eq!(s.size_bits(), 0.0);
    }

    #[test]
    fn reconstructed_degree_matches_reconstruction() {
        let g = fig3a_graph();
        let s = Summary::new(
            5,
            vec![0, 0, 1, 1, 2],
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 0, 1.0)],
        );
        let recon = s.reconstruct();
        for u in g.nodes() {
            assert_eq!(
                s.reconstructed_degree(u),
                recon.degree(u),
                "degree mismatch at node {u}"
            );
        }
    }

    #[test]
    fn superedges_iterator_unique() {
        let s = Summary::new(
            4,
            vec![0, 1, 2, 3],
            &[(0, 1, 1.0), (1, 2, 1.0), (3, 3, 1.0)],
        );
        let edges: Vec<_> = s.superedges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&(3, 3, 1.0)));
    }

    #[test]
    fn plan_accessors_agree_with_per_item_views() {
        let s = Summary::new(
            6,
            vec![0, 1, 0, 2, 1, 0],
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 0, 1.0)],
        );
        for u in 0..6u32 {
            assert_eq!(s.node_supers()[u as usize], s.supernode_of(u));
        }
        for sn in 0..s.num_supernodes() {
            let lo = s.member_offsets()[sn] as usize;
            let hi = s.member_offsets()[sn + 1] as usize;
            assert_eq!(&s.members_flat()[lo..hi], s.members(sn as SuperId));
            assert_eq!(
                (s.sadj_offsets()[sn + 1] - s.sadj_offsets()[sn]) as usize,
                s.neighbor_supers(sn as SuperId).len()
            );
        }
        assert_eq!(*s.member_offsets().last().unwrap() as usize, s.num_nodes());
    }

    #[test]
    fn has_self_loop_detection() {
        let s = Summary::new(3, vec![0, 0, 1], &[(0, 0, 1.0), (0, 1, 1.0)]);
        assert!(s.has_self_loop(0));
        assert!(!s.has_self_loop(1));
    }

    #[test]
    #[should_panic(expected = "assignment must cover all nodes")]
    fn wrong_assignment_length_panics() {
        let _ = Summary::new(3, vec![0, 0], &[]);
    }

    #[test]
    #[should_panic(expected = "superedge weight must be positive")]
    fn bad_weight_panics() {
        let _ = Summary::new(2, vec![0, 1], &[(0, 1, 0.0)]);
    }
}
