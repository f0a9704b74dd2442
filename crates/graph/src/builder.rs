//! Incremental graph construction with the paper's preprocessing rules.

use crate::graph::{Graph, NodeId};

/// Builds a [`Graph`] from an edge stream.
///
/// Matches the preprocessing described in Sect. V-A of the paper: edge
/// directions are discarded (every pair is stored undirected), self-loops
/// are dropped, and parallel edges are de-duplicated. Node count may grow
/// automatically as edges mention larger ids.
///
/// # Example
/// ```
/// use pgs_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(0);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate (reverse direction) — ignored
/// b.add_edge(2, 2); // self-loop — ignored
/// let g = b.build();
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Edge list as (min, max) pairs; deduplicated at build time.
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with at least `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with edge capacity pre-reserved (use when the
    /// edge count is known, per the allocation guidance in the perf book).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds an undirected edge `{u, v}`. Self-loops are silently dropped;
    /// duplicates are removed at [`build`](Self::build) time.
    #[inline]
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        let hi = u.max(v);
        if (hi as usize) >= self.num_nodes {
            self.num_nodes = hi as usize + 1;
        }
        if u == v {
            // Self-loop: dropped, but the node itself is registered.
            return;
        }
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Ensures the graph has at least `n` nodes even if no edge mentions
    /// the trailing ids.
    pub fn ensure_nodes(&mut self, n: usize) {
        self.num_nodes = self.num_nodes.max(n);
    }

    /// Finalizes into an immutable CSR [`Graph`]: sorts, de-duplicates,
    /// and lays out sorted adjacency rows. `O(|E| log |E|)`.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let n = self.num_nodes;

        let mut degree = vec![0u64; n];
        for &(u, v) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut acc = 0u64;
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }

        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as NodeId; acc as usize];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Each row receives neighbors in globally sorted (u, v) order:
        // row u receives v's ascending (edges sorted by (min,max)), but the
        // reverse direction entries interleave, so sort each row.
        for u in 0..n {
            let lo = offsets[u] as usize;
            let hi = offsets[u + 1] as usize;
            neighbors[lo..hi].sort_unstable();
        }
        Graph::from_csr(offsets, neighbors)
    }
}

/// Convenience constructor: builds a graph on `n` nodes from an edge list.
pub fn graph_from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.ensure_nodes(n);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_direction_removal() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0);
        b.add_edge(1, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn node_count_grows_with_edges() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 9);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn ensure_nodes_extends_isolated() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.ensure_nodes(10);
        let g = b.build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rows_are_sorted() {
        let g = graph_from_edges(6, &[(3, 1), (3, 5), (3, 0), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4, 5]);
    }

    #[test]
    fn graph_from_edges_respects_n() {
        let g = graph_from_edges(8, &[(0, 1)]);
        assert_eq!(g.num_nodes(), 8);
    }

    #[test]
    fn build_empty_builder() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
