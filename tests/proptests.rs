//! Property-based tests over the core invariants, using random graphs
//! and random summaries.

use proptest::prelude::*;

use pegasus_summary::prelude::*;
use pgs_core::error::{personalized_error, personalized_error_exact};

/// Strategy: a random simple graph with up to `max_n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (8usize..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let m = (n * 2).min(n * (n - 1) / 2);
        erdos_renyi(n, m, seed)
    })
}

/// Strategy: a graph plus a random partition of its nodes.
fn arb_graph_and_partition(max_n: usize) -> impl Strategy<Value = (Graph, Vec<u32>)> {
    (arb_graph(max_n), any::<u64>()).prop_map(|(g, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let groups = (g.num_nodes() / 3).max(1);
        let labels: Vec<u32> = (0..g.num_nodes())
            .map(|_| rng.random_range(0..groups) as u32)
            .collect();
        (g, labels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PeGaSus always satisfies the budget (when feasible) and returns a
    /// partition of V.
    #[test]
    fn pegasus_budget_and_partition((g, _) in arb_graph_and_partition(60), ratio in 0.3f64..0.9) {
        let budget = ratio * g.size_bits();
        let req = SummarizeRequest::new(Budget::Bits(budget)).targets(&[0]);
        let s = Pegasus::default().run(&g, &req).unwrap().summary;
        // Feasibility: the membership floor |V|·log2|S| can exceed tiny
        // budgets; in that case the algorithm has done all it can.
        let floor = g.num_nodes() as f64 * (s.num_supernodes().max(2) as f64).log2();
        prop_assert!(s.size_bits() <= budget.max(floor) + 1e-6);
        let mut seen = vec![false; g.num_nodes()];
        for sn in 0..s.num_supernodes() as u32 {
            for &u in s.members(sn) {
                prop_assert!(!seen[u as usize]);
                seen[u as usize] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }

    /// The O(|E|) error evaluator agrees with the O(|V|²) oracle.
    #[test]
    fn fast_error_matches_oracle((g, labels) in arb_graph_and_partition(40), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Random subset of blocks as superedges.
        let mut pairs = std::collections::BTreeSet::new();
        for (u, v) in g.edges() {
            let (a, b) = (labels[u as usize], labels[v as usize]);
            if rng.random_range(0.0..1.0) < 0.5 {
                pairs.insert((a.min(b), a.max(b)));
            }
        }
        let superedges: Vec<(u32, u32, f32)> =
            pairs.into_iter().map(|(a, b)| (a, b, 1.0)).collect();
        let s = Summary::new(g.num_nodes(), labels, &superedges);
        let w = NodeWeights::personalized(&g, &[0], 1.5);
        let fast = personalized_error(&g, &s, &w).unwrap();
        let exact = personalized_error_exact(&g, &s, &w);
        prop_assert!((fast - exact).abs() < 1e-6 * exact.max(1.0),
            "fast {} vs exact {}", fast, exact);
    }

    /// Queries on a summary equal queries on its reconstruction.
    #[test]
    fn summary_queries_match_reconstruction((g, labels) in arb_graph_and_partition(30)) {
        let s = pgs_baselines::common::partition_to_summary(
            &g, &labels, pgs_baselines::common::BlockWeight::Density);
        let recon = s.reconstruct();
        let engine = QueryEngine::new(&s);
        let q = 0u32;
        // Neighborhood query (weights do not affect the edge set).
        let mut nb = engine.neighbors(q);
        nb.sort_unstable();
        prop_assert_eq!(nb, recon.neighbors(q).to_vec());
        // HOP query.
        prop_assert_eq!(engine.hops(q), hops_exact(&recon, q));
    }

    /// Eq. (3): the size formula matches its definition.
    #[test]
    fn size_bits_formula((g, labels) in arb_graph_and_partition(50)) {
        let s = pgs_baselines::common::partition_to_summary(
            &g, &labels, pgs_baselines::common::BlockWeight::Density);
        let s_count = s.num_supernodes() as f64;
        if s_count > 1.0 {
            // Density weights stay <= 1, so the unweighted formula applies.
            let expect = (2.0 * s.num_superedges() as f64 + s.num_nodes() as f64)
                * s_count.log2();
            prop_assert!((s.size_bits() - expect).abs() < 1e-9);
        } else {
            prop_assert_eq!(s.size_bits(), 0.0);
        }
    }

    /// Weight normalization: the average pair weight is 1 (footnote 2).
    #[test]
    fn weights_normalize_to_unit_mean(g in arb_graph(40), alpha in 1.0f64..2.5) {
        let w = NodeWeights::personalized(&g, &[0], alpha);
        let n = g.num_nodes();
        let mut sum = 0.0;
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u != v { sum += w.pair(u, v); }
            }
        }
        let avg = sum / (n as f64 * (n as f64 - 1.0));
        prop_assert!((avg - 1.0).abs() < 1e-6, "avg weight {}", avg);
    }

    /// SMAPE is bounded and zero exactly on equal vectors.
    #[test]
    fn smape_bounds(x in prop::collection::vec(0.0f64..10.0, 2..40)) {
        prop_assert_eq!(smape(&x, &x), 0.0);
        let y: Vec<f64> = x.iter().rev().copied().collect();
        let v = smape(&x, &y);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    /// Spearman is symmetric, bounded, and 1 on identical vectors with
    /// at least two distinct values.
    #[test]
    fn spearman_properties(x in prop::collection::vec(0.0f64..10.0, 3..40)) {
        let distinct = x.iter().any(|&v| (v - x[0]).abs() > 1e-12);
        if distinct {
            prop_assert!((spearman(&x, &x) - 1.0).abs() < 1e-9);
        }
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + 1.0).collect();
        let s1 = spearman(&x, &y);
        let s2 = spearman(&y, &x);
        prop_assert!((s1 - s2).abs() < 1e-9);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s1));
    }

    /// Every partitioner yields a valid m-way partition on random graphs.
    #[test]
    fn partitioners_always_valid(g in arb_graph(60), m in 2usize..6, seed in any::<u64>()) {
        for method in Method::ALL {
            let labels = method.partition(&g, m, seed);
            prop_assert!(pgs_partition::is_valid_partition(&labels, m),
                "{} invalid", method.name());
        }
    }

    /// Multi-source BFS lower-bounds every single-source BFS.
    #[test]
    fn multi_source_bfs_is_min(g in arb_graph(40), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes();
        let sources: Vec<u32> = (0..3).map(|_| rng.random_range(0..n) as u32).collect();
        let multi = pgs_graph::traverse::multi_source_bfs(&g, &sources);
        for &s in &sources {
            let single = pgs_graph::traverse::bfs(&g, s);
            for u in 0..n {
                prop_assert!(multi[u] <= single[u]);
            }
        }
    }

    /// The identity summary reconstructs the input exactly, so queries
    /// from it are exact (zero SMAPE).
    #[test]
    fn identity_summary_is_lossless(g in arb_graph(40)) {
        let s = Summary::identity(&g);
        let truth = rwr_exact(&g, 0, 0.05);
        let approx = QueryEngine::new(&s).rwr(0, 0.05);
        prop_assert!(smape(&truth, &approx) < 1e-6);
    }
}
