//! Approximate query answering directly on a summary graph (Appendix
//! A, Alg. 4–6), checked end to end: `QueryEngine` answers on the
//! identity summary equal the exact answers on the input graph, and
//! answers on a merged summary equal the exact answers on its
//! reconstruction `Ĝ` (self-loops and superedge weights included).

mod tests {
    use crate::engine::QueryEngine;
    use crate::exact::{hops_exact, php_exact, rwr_exact};
    use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
    use pgs_core::Summary;
    use pgs_graph::builder::graph_from_edges;
    use pgs_graph::gen::barabasi_albert;

    /// On the identity summary, every approximate answer must equal the
    /// exact answer on the input graph.
    #[test]
    fn identity_summary_neighbors_match() {
        let g = barabasi_albert(60, 3, 1);
        let s = Summary::identity(&g);
        for u in g.nodes() {
            let mut approx = QueryEngine::new(&s).neighbors(u);
            approx.sort_unstable();
            assert_eq!(approx, g.neighbors(u));
        }
    }

    #[test]
    fn identity_summary_hops_match() {
        let g = barabasi_albert(80, 2, 5);
        let s = Summary::identity(&g);
        for q in [0u32, 10, 41] {
            assert_eq!(QueryEngine::new(&s).hops(q), hops_exact(&g, q));
        }
    }

    #[test]
    fn identity_summary_rwr_matches() {
        let g = barabasi_albert(60, 3, 7);
        let s = Summary::identity(&g);
        let exact = rwr_exact(&g, 3, 0.05);
        let approx = QueryEngine::new(&s).rwr(3, 0.05);
        for (u, (a, b)) in exact.iter().zip(approx.iter()).enumerate() {
            assert!((a - b).abs() < 1e-8, "rwr mismatch at {u}: {a} vs {b}");
        }
    }

    #[test]
    fn identity_summary_php_matches() {
        let g = barabasi_albert(60, 3, 9);
        let s = Summary::identity(&g);
        let exact = php_exact(&g, 11, 0.95);
        let approx = QueryEngine::new(&s).php(11, 0.95);
        for (u, (a, b)) in exact.iter().zip(approx.iter()).enumerate() {
            assert!((a - b).abs() < 1e-8, "php mismatch at {u}: {a} vs {b}");
        }
    }

    /// On a merged summary, answers must equal the exact answers on the
    /// *reconstructed* graph (that is the semantics of Alg. 4–6).
    #[test]
    fn merged_summary_equals_reconstruction_semantics() {
        let _g = graph_from_edges(6, &[(0, 2), (0, 3), (1, 2), (1, 3), (3, 4), (4, 5)]);
        // Merge {0,1} (twins) and keep the rest singleton; superedges
        // {01}-2, {01}-3, 3-4, 4-5.
        let s = Summary::new(
            6,
            vec![0, 0, 1, 2, 3, 4],
            &[(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)],
        );
        let recon = s.reconstruct();
        let e = QueryEngine::new(&s);

        for q in 0..6u32 {
            // Neighbors.
            let mut nb = e.neighbors(q);
            nb.sort_unstable();
            assert_eq!(nb, recon.neighbors(q), "neighbors differ at {q}");
            // Hops.
            assert_eq!(e.hops(q), hops_exact(&recon, q), "hops at {q}");
            // RWR.
            let r1 = e.rwr(q, 0.05);
            let r2 = rwr_exact(&recon, q, 0.05);
            for (u, (a, b)) in r1.iter().zip(r2.iter()).enumerate() {
                assert!((a - b).abs() < 1e-7, "rwr {q}->{u}: {a} vs {b}");
            }
            // PHP.
            let p1 = e.php(q, 0.95);
            let p2 = php_exact(&recon, q, 0.95);
            for (u, (a, b)) in p1.iter().zip(p2.iter()).enumerate() {
                assert!((a - b).abs() < 1e-7, "php {q}->{u}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn self_loop_semantics() {
        // Supernode {0,1,2} with self-loop = clique; node 3 attached.
        let s = Summary::new(4, vec![0, 0, 0, 1], &[(0, 0, 1.0), (0, 1, 1.0)]);
        let recon = s.reconstruct();
        let e = QueryEngine::new(&s);
        for q in 0..4u32 {
            let mut nb = e.neighbors(q);
            nb.sort_unstable();
            assert_eq!(nb, recon.neighbors(q));
            assert_eq!(e.hops(q), hops_exact(&recon, q));
            let r1 = e.rwr(q, 0.05);
            let r2 = rwr_exact(&recon, q, 0.05);
            for (a, b) in r1.iter().zip(r2.iter()) {
                assert!((a - b).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn disconnected_summary_hops() {
        let s = Summary::new(4, vec![0, 0, 1, 2], &[(0, 0, 1.0), (1, 2, 1.0)]);
        let hops = QueryEngine::new(&s).hops(0);
        assert_eq!(hops[0], 0);
        assert_eq!(hops[1], 1); // via self-loop
        assert_eq!(hops[2], u32::MAX);
        assert_eq!(hops[3], u32::MAX);
    }

    #[test]
    fn rwr_summary_is_distribution() {
        let g = barabasi_albert(120, 3, 4);
        let req = SummarizeRequest::new(Budget::Bits(0.5 * g.size_bits())).targets(&[0]);
        let s = Pegasus::default().run(&g, &req).unwrap().summary;
        let r = QueryEngine::new(&s).rwr(0, 0.05);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn weighted_summary_changes_scores() {
        // Two superedges with different weights from {0}: walker prefers
        // the heavier edge.
        let s = Summary::new(3, vec![0, 1, 2], &[(0, 1, 3.0), (0, 2, 1.0)]);
        let r = QueryEngine::new(&s).rwr(0, 0.05);
        assert!(
            r[1] > r[2],
            "heavier superedge should attract more probability: {r:?}"
        );
    }
}
