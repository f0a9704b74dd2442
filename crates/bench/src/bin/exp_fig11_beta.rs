//! Fig. 11 — effect of the adaptive-thresholding parameter β.
//!
//! β ∈ {≈0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9} at compression ratios
//! 0.3 and 0.5, averaged over datasets (α fixed at 1.25, |T| = queries).
//!
//! Expected shape (paper): β = 0.1 best in the majority of cases;
//! accuracy insensitive to β unless it is very close to 0 or 1.
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig11_beta
//! ```

use pgs_bench::{dataset, num_queries, sample_queries, GroundTruth, QueryType};
use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
use pgs_core::pegasus::PegasusConfig;

fn main() {
    let names = ["LA", "CA", "DB"];
    let betas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9];

    for ratio in [0.3, 0.5] {
        println!("\n=== Fig. 11: compression ratio {ratio}, averaged over {names:?} ===");
        println!(
            "{:<12} {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8}",
            "config", "RWR sm", "RWR sc", "HOP sm", "HOP sc", "PHP sm", "PHP sc"
        );
        let mut acc = vec![[0.0f64; 6]; betas.len()];
        for name in names {
            let d = dataset(name);
            let g = &d.graph;
            let queries = sample_queries(g, num_queries(), 23);
            let truths: Vec<GroundTruth> = QueryType::ALL
                .iter()
                .map(|&qt| GroundTruth::compute(g, &queries, qt))
                .collect();
            let req = SummarizeRequest::new(Budget::Bits(ratio * g.size_bits())).targets(&queries);
            for (bi, &beta) in betas.iter().enumerate() {
                let cfg = PegasusConfig {
                    num_threads: pgs_bench::num_threads(),
                    beta,
                    ..Default::default()
                };
                let s = Pegasus(cfg).run(g, &req).expect("valid request").summary;
                for (qi, gt) in truths.iter().enumerate() {
                    let (sm, sc) = gt.score_summary(&s);
                    acc[bi][2 * qi] += sm;
                    acc[bi][2 * qi + 1] += sc;
                }
            }
        }
        let dn = names.len() as f64;
        for (bi, &beta) in betas.iter().enumerate() {
            let label = if beta == 0.0 {
                "beta~0".to_string()
            } else {
                format!("beta={beta}")
            };
            println!(
                "{:<12} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} | {:>8.3} {:>8.3}",
                label,
                acc[bi][0] / dn,
                acc[bi][1] / dn,
                acc[bi][2] / dn,
                acc[bi][3] / dn,
                acc[bi][4] / dn,
                acc[bi][5] / dn
            );
        }
    }
}
