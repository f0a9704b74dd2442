//! Fig. 9 — effect of the degree of personalization α.
//!
//! α ∈ {1, 1.05, 1.25, 1.5, 1.75, 2} at compression ratios 0.3 and 0.5;
//! SMAPE and Spearman for RWR / HOP / PHP averaged over the datasets,
//! with SSumM as the external reference row. |T| = query set, sampled
//! uniformly.
//!
//! Expected shape (paper): accuracy best at moderate α (1.25–1.5),
//! degrading at α = 2 where "more global information is lost"; every
//! α ≥ 1 row beats SSumM.
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig9_alpha
//! ```

use pgs_bench::{dataset, num_queries, sample_queries, GroundTruth, QueryType};
use pgs_core::api::{Budget, Pegasus, Ssumm, SummarizeRequest, Summarizer};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::SsummConfig;

fn main() {
    let names = ["LA", "CA", "DB"];
    let alphas = [1.0, 1.05, 1.25, 1.5, 1.75, 2.0];

    for ratio in [0.3, 0.5] {
        println!("\n=== Fig. 9: compression ratio {ratio}, averaged over {names:?} ===");
        println!(
            "{:<14} {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8}",
            "config", "RWR sm", "RWR sc", "HOP sm", "HOP sc", "PHP sm", "PHP sc"
        );

        // Accumulate per-alpha scores across datasets.
        let mut acc = vec![[0.0f64; 6]; alphas.len()];
        let mut ssumm_acc = [0.0f64; 6];
        for name in names {
            let d = dataset(name);
            let g = &d.graph;
            let queries = sample_queries(g, num_queries(), 17);
            let truths: Vec<GroundTruth> = QueryType::ALL
                .iter()
                .map(|&qt| GroundTruth::compute(g, &queries, qt))
                .collect();
            let bits_req = SummarizeRequest::new(Budget::Bits(ratio * g.size_bits()));

            for (ai, &alpha) in alphas.iter().enumerate() {
                let cfg = PegasusConfig {
                    num_threads: pgs_bench::num_threads(),
                    alpha,
                    ..Default::default()
                };
                let s = Pegasus(cfg)
                    .run(g, &bits_req.clone().targets(&queries))
                    .expect("valid request")
                    .summary;
                for (qi, gt) in truths.iter().enumerate() {
                    let (sm, sc) = gt.score_summary(&s);
                    acc[ai][2 * qi] += sm;
                    acc[ai][2 * qi + 1] += sc;
                }
            }
            let s = Ssumm(SsummConfig {
                num_threads: pgs_bench::num_threads(),
                ..Default::default()
            })
            .run(g, &bits_req)
            .expect("valid request")
            .summary;
            for (qi, gt) in truths.iter().enumerate() {
                let (sm, sc) = gt.score_summary(&s);
                ssumm_acc[2 * qi] += sm;
                ssumm_acc[2 * qi + 1] += sc;
            }
        }

        let dn = names.len() as f64;
        for (ai, &alpha) in alphas.iter().enumerate() {
            println!(
                "alpha={:<8} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} | {:>8.3} {:>8.3}",
                alpha,
                acc[ai][0] / dn,
                acc[ai][1] / dn,
                acc[ai][2] / dn,
                acc[ai][3] / dn,
                acc[ai][4] / dn,
                acc[ai][5] / dn
            );
        }
        println!(
            "{:<14} {:>8.3} {:>8.3} | {:>8.3} {:>8.3} | {:>8.3} {:>8.3}",
            "SSumM",
            ssumm_acc[0] / dn,
            ssumm_acc[1] / dn,
            ssumm_acc[2] / dn,
            ssumm_acc[3] / dn,
            ssumm_acc[4] / dn,
            ssumm_acc[5] / dn
        );
    }
}
