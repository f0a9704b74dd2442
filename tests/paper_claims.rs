//! The paper's qualitative claims as assertions on small stand-ins.
//! Each check reads deterministic counts rather than wall time, so it
//! holds at any thread count and on any host.

use pegasus_summary::prelude::*;

/// Fig. 6 (linear scalability): PeGaSus's work grows linearly in |E|.
/// Merge evaluations and committed merges are the work; per edge, each
/// stays within a 1.25× band across a 4× range of BA graph sizes.
#[test]
fn fig6_evals_and_merges_per_edge_stay_flat_across_sizes() {
    let targets: Vec<NodeId> = (0..100).collect();
    let alg = Pegasus(PegasusConfig {
        num_threads: 1,
        ..Default::default()
    });
    let mut evals_per_edge = Vec::new();
    let mut merges_per_edge = Vec::new();
    for n in [2_000, 4_000, 8_000] {
        let g = barabasi_albert(n, 5, 1);
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&targets);
        let out = alg.run(&g, &req).expect("valid request");
        assert_eq!(out.stop, StopReason::BudgetMet, "n = {n}");
        let edges = g.num_edges() as f64;
        evals_per_edge.push(out.stats.evals as f64 / edges);
        merges_per_edge.push(out.stats.merges as f64 / edges);
    }
    for (what, per_edge) in [("evals", &evals_per_edge), ("merges", &merges_per_edge)] {
        let max = per_edge.iter().copied().fold(f64::MIN, f64::max);
        let min = per_edge.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max / min <= 1.25,
            "{what}/|E| = {per_edge:?} spreads {:.3}x",
            max / min
        );
    }
}
