//! Fig. 7 (+ the PHP results of the online appendix) — query accuracy
//! vs compression ratio, PeGaSus against the four non-personalized
//! baselines.
//!
//! Per dataset: sample |T| = `PGS_QUERIES` query nodes (paper: 100),
//! personalize PeGaSus to them (α = 1.25), and at each compression
//! ratio measure SMAPE and Spearman of RWR / HOP / PHP answers from each
//! method's summary. Supernode-budgeted baselines (SAAGs, S2L, k-GraSS)
//! sweep |S| instead of bits, as in Sect. V-A, and run only on datasets
//! small enough to finish (the paper's o.o.t./o.o.m. entries).
//!
//! Expected shape (paper): PeGaSus lowest SMAPE / highest Spearman at
//! every ratio; SSumM second; the supernode-budget baselines behind.
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig7_query_accuracy
//! ```

use pgs_baselines::{KGrass, S2l, Saags};
use pgs_bench::{baseline_feasible, dataset, num_queries, sample_queries, GroundTruth, QueryType};
use pgs_core::api::{Budget, Pegasus, Ssumm, SummarizeRequest, Summarizer};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::{SsummConfig, Summary};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if names.is_empty() {
        vec!["LA", "CA", "DB", "A6"]
    } else {
        names.iter().map(|s| s.as_str()).collect()
    };
    let ratios = [0.1, 0.3, 0.5, 0.7, 0.9];

    for name in names {
        let d = dataset(name);
        let g = &d.graph;
        let queries = sample_queries(g, num_queries(), 11);
        println!(
            "\n=== Fig. 7: {} ({} nodes, {} edges, |T|={}) ===",
            d.name,
            g.num_nodes(),
            g.num_edges(),
            queries.len()
        );
        let truths: Vec<GroundTruth> = QueryType::ALL
            .iter()
            .map(|&qt| GroundTruth::compute(g, &queries, qt))
            .collect();

        println!(
            "{:<8} {:>6} {:>8} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8}",
            "method",
            "ratio",
            "realratio",
            "RWR sm",
            "RWR sc",
            "HOP sm",
            "HOP sc",
            "PHP sm",
            "PHP sc"
        );
        let run = |alg: &dyn Summarizer, req: &SummarizeRequest| {
            alg.run(g, req).expect("valid request").summary
        };
        let report = |method: &str, ratio: f64, s: &Summary| {
            let real = s.size_bits() / g.size_bits();
            let mut row = format!("{method:<8} {ratio:>6.1} {real:>8.2} |");
            for gt in &truths {
                let (sm, sc) = gt.score_summary(s);
                row += &format!(" {sm:>8.3} {sc:>8.3} |");
            }
            println!("{}", row.trim_end_matches(" |"));
        };

        for &ratio in &ratios {
            let bits_req = SummarizeRequest::new(Budget::Bits(ratio * g.size_bits()));
            let cfg = PegasusConfig {
                num_threads: pgs_bench::num_threads(),
                ..Default::default()
            }; // α = 1.25
            let p = run(&Pegasus(cfg), &bits_req.clone().targets(&queries));
            report("PeGaSus", ratio, &p);
            let ssumm = Ssumm(SsummConfig {
                num_threads: pgs_bench::num_threads(),
                ..Default::default()
            });
            report("SSumM", ratio, &run(&ssumm, &bits_req));

            if baseline_feasible(g) {
                // Supernode budgets 10%..90% of |V| (Sect. V-A); map the
                // bit-ratio onto the supernode-count ratio for alignment.
                let k = ((g.num_nodes() as f64 * ratio) as usize).max(2);
                let count_req = SummarizeRequest::new(Budget::Supernodes(k));
                report("SAAGs", ratio, &run(&Saags::default(), &count_req));
                report("S2L", ratio, &run(&S2l::default(), &count_req));
                report("k-GraSS", ratio, &run(&KGrass::default(), &count_req));
            }
        }
        if !baseline_feasible(g) {
            println!(
                "SAAGs/S2L/k-GraSS: o.o.t. (skipped above the size threshold, as in the paper)"
            );
        }
    }
}
