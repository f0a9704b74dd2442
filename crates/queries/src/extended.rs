//! Extended summary-answerable queries beyond the three used in the
//! evaluation: node degrees, PageRank, and clustering coefficients.
//!
//! Appendix A notes that "a wide range of graph algorithms (e.g., BFS,
//! DFS, Dijkstra's, and PageRank) access graphs only through
//! neighborhood queries, and thus also can be executed directly on G̅";
//! the related-work section cites degree and clustering-coefficient
//! estimation from summaries \[10\] and eigenvector centrality \[11\].
//! The summary-side answers are [`QueryEngine`](crate::QueryEngine)'s
//! `degrees`, `pagerank`, `clustering_coefficient` and
//! `eigenvector_centrality`: they exploit the same per-supernode
//! aggregation as the core queries, so they run in `O(|V| + |P|)` per
//! pass instead of touching reconstructed edges. This module holds their
//! exact counterparts on the input graph.

use pgs_graph::{Graph, NodeId};

use crate::{MAX_ITERS, TOLERANCE};

/// Exact PageRank on the input graph (reference for
/// [`QueryEngine::pagerank`](crate::QueryEngine::pagerank)).
pub fn pagerank_exact(g: &Graph, damping: f64) -> Vec<f64> {
    assert!((0.0..1.0).contains(&damping), "damping must be in [0, 1)");
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut pr = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..MAX_ITERS {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling = 0.0;
        for u in 0..n as NodeId {
            let deg = g.degree(u);
            if deg == 0 {
                dangling += pr[u as usize];
                continue;
            }
            let share = pr[u as usize] / deg as f64;
            for &v in g.neighbors(u) {
                next[v as usize] += share;
            }
        }
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        let mut diff = 0.0f64;
        for u in 0..n {
            let val = base + damping * next[u];
            diff = diff.max((val - pr[u]).abs());
            next[u] = val;
        }
        std::mem::swap(&mut pr, &mut next);
        if diff < TOLERANCE {
            break;
        }
    }
    pr
}

/// Exact clustering coefficient on the input graph.
pub fn clustering_coefficient_exact(g: &Graph, u: NodeId) -> f64 {
    let neighbors = g.neighbors(u);
    let deg = neighbors.len();
    if deg < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for (i, &v) in neighbors.iter().enumerate() {
        for &w in &neighbors[i + 1..] {
            if g.has_edge(v, w) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (deg * (deg - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
    use pgs_core::Summary;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;

    #[test]
    fn degrees_identity_match() {
        let g = barabasi_albert(100, 3, 1);
        let s = Summary::identity(&g);
        let deg = QueryEngine::new(&s).degrees();
        for u in g.nodes() {
            assert_eq!(deg[u as usize], g.degree(u));
        }
    }

    #[test]
    fn degrees_merged_match_reconstruction() {
        let s = Summary::new(5, vec![0, 0, 1, 1, 2], &[(0, 1, 1.0), (0, 0, 1.0)]);
        let recon = s.reconstruct();
        let deg = QueryEngine::new(&s).degrees();
        for u in 0..5u32 {
            assert_eq!(deg[u as usize], recon.degree(u), "node {u}");
        }
    }

    #[test]
    fn pagerank_identity_matches_exact() {
        let g = barabasi_albert(80, 3, 2);
        let s = Summary::identity(&g);
        let exact = pagerank_exact(&g, 0.85);
        let approx = QueryEngine::new(&s).pagerank(0.85);
        for (u, (a, b)) in exact.iter().zip(approx.iter()).enumerate() {
            assert!((a - b).abs() < 1e-8, "pagerank mismatch at {u}: {a} vs {b}");
        }
    }

    #[test]
    fn pagerank_is_distribution() {
        let g = barabasi_albert(100, 3, 3);
        let req = SummarizeRequest::new(Budget::Bits(0.5 * g.size_bits())).targets(&[0]);
        let s = Pegasus::default().run(&g, &req).unwrap().summary;
        let pr = QueryEngine::new(&s).pagerank(0.85);
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(pr.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn pagerank_hub_ranks_high() {
        // Star: center should have the top PageRank.
        let edges: Vec<(u32, u32)> = (1..20).map(|v| (0u32, v)).collect();
        let g = graph_from_edges(20, &edges);
        let pr = pagerank_exact(&g, 0.85);
        let top = pr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(top, 0);
    }

    #[test]
    fn clustering_identity_matches_exact() {
        let g = barabasi_albert(60, 4, 5);
        let s = Summary::identity(&g);
        let engine = QueryEngine::new(&s);
        for u in g.nodes() {
            let e = clustering_coefficient_exact(&g, u);
            let a = engine.clustering_coefficient(u);
            assert!((e - a).abs() < 1e-12, "cc mismatch at {u}: {e} vs {a}");
        }
    }

    #[test]
    fn clustering_merged_matches_reconstruction() {
        let s = Summary::new(
            6,
            vec![0, 0, 0, 1, 1, 2],
            &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)],
        );
        let recon = s.reconstruct();
        let engine = QueryEngine::new(&s);
        for u in 0..6u32 {
            let e = clustering_coefficient_exact(&recon, u);
            let a = engine.clustering_coefficient(u);
            assert!((e - a).abs() < 1e-12, "cc mismatch at {u}: {e} vs {a}");
        }
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(clustering_coefficient_exact(&g, 0), 1.0);
        let s = Summary::identity(&g);
        assert_eq!(QueryEngine::new(&s).clustering_coefficient(0), 1.0);
    }

    #[test]
    fn clustering_degree_below_two_is_zero() {
        let g = graph_from_edges(3, &[(0, 1)]);
        assert_eq!(clustering_coefficient_exact(&g, 0), 0.0);
        let s = Summary::identity(&g);
        assert_eq!(QueryEngine::new(&s).clustering_coefficient(2), 0.0);
    }
}

/// Exact eigenvector centrality on the input graph (reference for
/// [`QueryEngine::eigenvector_centrality`](crate::QueryEngine::eigenvector_centrality)).
pub fn eigenvector_centrality_exact(g: &Graph, iters: usize) -> Vec<f64> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut v = vec![1.0 / (n as f64).sqrt(); n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iters {
        next.iter_mut().for_each(|x| *x = 0.0);
        for u in 0..n as NodeId {
            for &w in g.neighbors(u) {
                next[w as usize] += v[u as usize];
            }
        }
        let norm: f64 = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm <= 0.0 {
            return vec![0.0; n];
        }
        next.iter_mut().for_each(|x| *x /= norm);
        std::mem::swap(&mut v, &mut next);
    }
    v
}

#[cfg(test)]
mod eig_tests {
    use super::*;
    use crate::engine::QueryEngine;
    use pgs_core::Summary;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;

    #[test]
    fn eigenvector_identity_matches_exact() {
        let g = barabasi_albert(60, 3, 1);
        let s = Summary::identity(&g);
        let e = eigenvector_centrality_exact(&g, 50);
        let a = QueryEngine::new(&s).eigenvector_centrality(50);
        for (u, (x, y)) in e.iter().zip(a.iter()).enumerate() {
            assert!((x - y).abs() < 1e-6, "mismatch at {u}: {x} vs {y}");
        }
    }

    #[test]
    fn eigenvector_hub_dominates() {
        let edges: Vec<(u32, u32)> = (1..15).map(|v| (0u32, v)).collect();
        let g = graph_from_edges(15, &edges);
        let e = eigenvector_centrality_exact(&g, 50);
        let top = e
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(top, 0);
    }

    #[test]
    fn eigenvector_edgeless_graph_is_zero() {
        let g = pgs_graph::Graph::empty(5);
        let e = eigenvector_centrality_exact(&g, 10);
        assert!(e.iter().all(|&x| x == 0.0));
        let s = Summary::identity(&g);
        let a = QueryEngine::new(&s).eigenvector_centrality(10);
        assert!(a.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn eigenvector_merged_matches_reconstruction() {
        let s = Summary::new(
            5,
            vec![0, 0, 1, 1, 2],
            &[(0, 1, 1.0), (1, 2, 1.0), (0, 0, 1.0)],
        );
        let recon = s.reconstruct();
        let e = eigenvector_centrality_exact(&recon, 60);
        let a = QueryEngine::new(&s).eigenvector_centrality(60);
        for (u, (x, y)) in e.iter().zip(a.iter()).enumerate() {
            assert!((x - y).abs() < 1e-5, "mismatch at {u}: {x} vs {y}");
        }
    }
}
