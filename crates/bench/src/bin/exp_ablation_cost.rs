//! Ablation (online-appendix experiment referenced in Sect. III-B):
//! relative cost reduction (Eq. 11) vs absolute cost reduction (Eq. 10)
//! as the merge-selection criterion.
//!
//! Expected shape (paper): the relative criterion yields summaries from
//! which queries are answered more accurately — the absolute criterion
//! "myopically" merges far-from-target pairs with dissimilar
//! connectivity.
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_ablation_cost
//! ```

use pgs_bench::{dataset, num_queries, sample_queries, GroundTruth, QueryType};
use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
use pgs_core::error::personalized_error;
use pgs_core::pegasus::PegasusConfig;
use pgs_core::weights::NodeWeights;

fn main() {
    let names = ["LA", "CA", "DB"];
    let ratio = 0.5;

    println!("=== Eq. (11) relative vs Eq. (10) absolute cost reduction (ratio {ratio}) ===");
    println!(
        "{:<8} {:<10} {:>12} | {:>8} {:>8} | {:>8} {:>8}",
        "dataset", "criterion", "pers. error", "RWR sm", "RWR sc", "HOP sm", "HOP sc"
    );
    for name in names {
        let d = dataset(name);
        let g = &d.graph;
        let queries = sample_queries(g, num_queries(), 41);
        let truths: Vec<GroundTruth> = [QueryType::Rwr, QueryType::Hop]
            .iter()
            .map(|&qt| GroundTruth::compute(g, &queries, qt))
            .collect();
        let w_eval = NodeWeights::personalized(g, &queries, 1.25);
        let req = SummarizeRequest::new(Budget::Bits(ratio * g.size_bits())).targets(&queries);

        for (label, use_absolute) in [("relative", false), ("absolute", true)] {
            let cfg = PegasusConfig {
                num_threads: pgs_bench::num_threads(),
                use_absolute_cost: use_absolute,
                ..Default::default()
            };
            let s = Pegasus(cfg).run(g, &req).expect("valid request").summary;
            let err = personalized_error(g, &s, &w_eval).expect("matching node counts");
            let mut row = format!("{:<8} {:<10} {:>12.1} |", d.name, label, err);
            for gt in &truths {
                let (sm, sc) = gt.score_summary(&s);
                row += &format!(" {sm:>8.3} {sc:>8.3} |");
            }
            println!("{}", row.trim_end_matches(" |"));
        }
    }
}
