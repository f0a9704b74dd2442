//! Fig. 10 — the best-performing α vs the effective diameter.
//!
//! Watts–Strogatz graphs with 1,000 nodes / 10,000 edges and rewiring
//! probability p ∈ {0, 1e-4, 1e-3, 1e-2, 1e-1} span effective diameters
//! from ≈ 45 down to ≈ 4 (paper: 44.95 → 3.71). Target/query nodes are
//! 100 BFS-adjacent nodes from a random start (the paper's localized
//! sets). For each graph, sweep α and report the α with the best SMAPE
//! and the best Spearman per query type at compression ratio 0.3.
//!
//! Expected shape (paper): the best α *decreases* as the effective
//! diameter *increases*.
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig10_diameter
//! ```

use pgs_bench::{GroundTruth, QueryType};
use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
use pgs_core::pegasus::PegasusConfig;
use pgs_graph::gen::watts_strogatz;
use pgs_graph::sample::bfs_local_nodes;
use pgs_graph::traverse::effective_diameter;

fn main() {
    let rewiring = [0.0, 1e-4, 1e-3, 1e-2, 1e-1];
    let alphas = [1.05, 1.25, 1.5, 1.75, 2.0];

    println!("Watts-Strogatz n=1000, k=20 (10,000 edges), ratio 0.3, |T|=100 BFS-local");
    println!(
        "{:>8} {:>9} | {:>11} {:>11} | {:>11} {:>11} | {:>11} {:>11}",
        "rewire",
        "eff.diam",
        "RWR best-sm",
        "RWR best-sc",
        "HOP best-sm",
        "HOP best-sc",
        "PHP best-sm",
        "PHP best-sc"
    );

    for &p in &rewiring {
        let g = watts_strogatz(1_000, 20, p, 33);
        let diam = effective_diameter(&g, 100, 5);
        let targets = bfs_local_nodes(&g, 100, 9);
        let truths: Vec<GroundTruth> = QueryType::ALL
            .iter()
            .map(|&qt| GroundTruth::compute(&g, &targets, qt))
            .collect();
        let req = SummarizeRequest::new(Budget::Bits(0.3 * g.size_bits())).targets(&targets);

        // scores[qi] = (best alpha by SMAPE, best alpha by Spearman)
        let mut best_sm = [(f64::INFINITY, 0.0f64); 3];
        let mut best_sc = [(f64::NEG_INFINITY, 0.0f64); 3];
        for &alpha in &alphas {
            let cfg = PegasusConfig {
                num_threads: pgs_bench::num_threads(),
                alpha,
                ..Default::default()
            };
            let s = Pegasus(cfg).run(&g, &req).expect("valid request").summary;
            for (qi, gt) in truths.iter().enumerate() {
                let (sm, sc) = gt.score_summary(&s);
                if sm < best_sm[qi].0 {
                    best_sm[qi] = (sm, alpha);
                }
                if sc > best_sc[qi].0 {
                    best_sc[qi] = (sc, alpha);
                }
            }
        }
        println!(
            "{:>8} {:>9.2} | {:>11.2} {:>11.2} | {:>11.2} {:>11.2} | {:>11.2} {:>11.2}",
            p,
            diam,
            best_sm[0].1,
            best_sc[0].1,
            best_sm[1].1,
            best_sc[1].1,
            best_sm[2].1,
            best_sc[2].1
        );
    }
    println!("\n(the paper's Fig. 10: best alpha falls from ~1.8 to ~1.2 as the");
    println!(" effective diameter rises from ~4 to ~45)");
}
