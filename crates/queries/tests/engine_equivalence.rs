//! Property suite: on random summaries, every [`QueryEngine`] query —
//! serial and batched at 1/2/8 threads — agrees with the independent
//! per-node reference implementations in `support/reference.rs`.
//!
//! Two tiers of agreement:
//!
//! * **Bitwise** for everything whose computation the engine performs
//!   with the identical operation sequence: HOP, neighbors, degrees,
//!   clustering coefficients (against the exact coefficient on the
//!   reconstruction) — and for *every* query type, batched results vs
//!   the serial loop and a fresh plan vs a reused one (each query is a
//!   pure function of the plan, so neither fan-out order nor recycled
//!   scratch can change a bit).
//! * **`≤ 1e-8` per element** for the iterative float solvers (RWR,
//!   PHP, PageRank, eigenvector centrality) against the per-node
//!   reference: the engine collapses per-node state to per-supernode
//!   state, which reorders floating-point summations; the trajectories
//!   are mathematically identical, so only rounding (plus at most one
//!   extra/fewer iteration at the convergence boundary) can differ.

use proptest::prelude::*;

use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
use pgs_core::exec::Exec;
use pgs_core::Summary;
use pgs_graph::gen::barabasi_albert;
use pgs_queries::{clustering_coefficient_exact, QueryEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "support/reference.rs"]
mod reference;

/// Builds a random summary: a random partition of `n` nodes into at
/// most `k` supernodes with a random (possibly weighted, self-loops
/// allowed) superedge set. Deterministic in the seed.
fn random_summary(n: usize, k: usize, weighted: bool, seed: u64) -> Summary {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = k.clamp(1, n);
    let assignment: Vec<u32> = (0..n).map(|_| rng.random_range(0..k as u32)).collect();
    let mut present: Vec<u32> = assignment.clone();
    present.sort_unstable();
    present.dedup();
    let max_edges = present.len() * (present.len() + 1) / 2;
    let target = rng.random_range(0..=max_edges.min(3 * present.len()));
    let superedges: Vec<(u32, u32, f32)> = (0..target)
        .map(|_| {
            let a = present[rng.random_range(0..present.len())];
            let b = present[rng.random_range(0..present.len())];
            let w = if weighted {
                rng.random_range(1..=8) as f32 * 0.5
            } else {
                1.0
            };
            (a, b, w)
        })
        .collect();
    Summary::new(n, assignment, &superedges)
}

/// A handful of distinct query nodes spread across the id space.
fn query_nodes(n: usize) -> Vec<u32> {
    let mut qs: Vec<u32> = [0, n / 3, n / 2, 2 * n / 3, n - 1]
        .iter()
        .map(|&v| v as u32)
        .collect();
    qs.sort_unstable();
    qs.dedup();
    qs
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() < tol,
            "{what} mismatch at {i}: {x} vs {y} (|Δ| = {})",
            (x - y).abs()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engine_matches_reference_on_random_summaries(
        n in 1usize..48,
        k in 1usize..24,
        weighted in proptest::arbitrary::any::<bool>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let s = random_summary(n, k, weighted, seed);
        let e = QueryEngine::new(&s);
        let qs = query_nodes(n);
        let recon = s.reconstruct();

        // Integer / combinatorial queries: bitwise against the reference.
        for &q in &qs {
            prop_assert_eq!(e.hops(q), reference::hops_summary(&s, q));
            prop_assert_eq!(e.neighbors(q), reference::get_neighbors(&s, q));
            let cc = e.clustering_coefficient(q);
            let cc_ref = clustering_coefficient_exact(&recon, q);
            prop_assert_eq!(cc.to_bits(), cc_ref.to_bits());
        }
        prop_assert_eq!(e.degrees(), reference::degrees_summary(&s));

        // Iterative float solvers: collapsed state vs per-node state.
        for &q in &qs {
            assert_close(&e.rwr(q, 0.05), &reference::rwr_summary(&s, q, 0.05), 1e-8, "rwr");
            assert_close(&e.php(q, 0.95), &reference::php_summary(&s, q, 0.95), 1e-8, "php");
        }
        assert_close(&e.pagerank(0.85), &reference::pagerank_summary(&s, 0.85), 1e-8, "pagerank");
        assert_close(
            &e.eigenvector_centrality(40),
            &reference::eigenvector_centrality_summary(&s, 40),
            1e-6,
            "eigenvector",
        );
    }

    #[test]
    fn batched_bitwise_identical_to_serial_at_any_thread_count(
        n in 2usize..48,
        k in 1usize..16,
        weighted in proptest::arbitrary::any::<bool>(),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let s = random_summary(n, k, weighted, seed);
        let e = QueryEngine::new(&s);
        let qs = query_nodes(n);

        let serial_hops: Vec<Vec<u32>> = qs.iter().map(|&q| e.hops(q)).collect();
        let serial_rwr: Vec<Vec<u64>> = qs.iter().map(|&q| bits(&e.rwr(q, 0.05))).collect();
        let serial_php: Vec<Vec<u64>> = qs.iter().map(|&q| bits(&e.php(q, 0.95))).collect();
        let serial_nbrs: Vec<Vec<u32>> = qs.iter().map(|&q| e.neighbors(q)).collect();

        for threads in [1usize, 2, 8] {
            let exec = Exec::new(threads);
            prop_assert_eq!(&e.hops_batch(&qs, &exec), &serial_hops);
            let batch_rwr: Vec<Vec<u64>> = e
                .rwr_batch(&qs, 0.05, &exec)
                .iter()
                .map(|v| bits(v))
                .collect();
            prop_assert_eq!(&batch_rwr, &serial_rwr);
            let batch_php: Vec<Vec<u64>> = e
                .php_batch(&qs, 0.95, &exec)
                .iter()
                .map(|v| bits(v))
                .collect();
            prop_assert_eq!(&batch_php, &serial_php);
            prop_assert_eq!(&e.neighbors_batch(&qs, &exec), &serial_nbrs);
        }
    }

    /// A throwaway plan (a fresh engine per query, with fresh scratch)
    /// answers exactly like a long-lived, scratch-recycling one.
    #[test]
    fn free_functions_bitwise_match_plan_reuse(
        n in 1usize..40,
        k in 1usize..12,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let s = random_summary(n, k, false, seed);
        let e = QueryEngine::new(&s);
        let fresh = || QueryEngine::new(&s);
        for &q in &query_nodes(n) {
            prop_assert_eq!(bits(&e.rwr(q, 0.05)), bits(&fresh().rwr(q, 0.05)));
            prop_assert_eq!(e.hops(q), fresh().hops(q));
            prop_assert_eq!(bits(&e.php(q, 0.95)), bits(&fresh().php(q, 0.95)));
            prop_assert_eq!(
                e.clustering_coefficient(q).to_bits(),
                fresh().clustering_coefficient(q).to_bits()
            );
        }
        prop_assert_eq!(bits(&e.pagerank(0.85)), bits(&fresh().pagerank(0.85)));
        prop_assert_eq!(e.degrees(), fresh().degrees());
    }
}

/// A PeGaSus summary of a small BA graph: the engine answers every
/// query type like the per-node reference path.
#[test]
fn engine_agrees_with_reference_path() {
    let g = barabasi_albert(120, 3, 4);
    let req = SummarizeRequest::new(Budget::Bits(0.5 * g.size_bits())).targets(&[0]);
    let s = Pegasus::default().run(&g, &req).unwrap().summary;
    let e = QueryEngine::new(&s);
    for q in [0u32, 17, 63] {
        assert_close(
            &e.rwr(q, 0.05),
            &reference::rwr_summary(&s, q, 0.05),
            1e-8,
            "rwr vs reference",
        );
        assert_close(
            &e.php(q, 0.95),
            &reference::php_summary(&s, q, 0.95),
            1e-8,
            "php vs reference",
        );
        assert_eq!(e.hops(q), reference::hops_summary(&s, q));
    }
    assert_close(
        &e.pagerank(0.85),
        &reference::pagerank_summary(&s, 0.85),
        1e-8,
        "pagerank vs reference",
    );
    assert_close(
        &e.eigenvector_centrality(50),
        &reference::eigenvector_centrality_summary(&s, 50),
        1e-6,
        "eigen vs reference",
    );
    assert_eq!(e.degrees(), reference::degrees_summary(&s));
}
