//! Fig. 2(a) + Fig. 5 — effectiveness of personalization.
//!
//! For each dataset, target-set size |T| ∈ {1, 0.01|V|, 0.1|V|, 0.3|V|,
//! 0.5|V|, |V|} and α ∈ {1.25, 1.5, 1.75}, summarize at compression
//! ratio 0.5 and measure the personalized error at a test node `u`
//! (Eq. 1 with T = {u}, u ∈ T) **relative to the non-personalized case**
//! (T = V). Averaged over 3 test nodes, as in the paper. SSumM is the
//! non-personalized external reference.
//!
//! Expected shape (paper): relative error < 1 everywhere, decreasing as
//! |T| shrinks and as α grows; SSumM sits above PeGaSus(T=V).
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig5_effectiveness
//! ```

use pgs_bench::{dataset, sample_queries};
use pgs_core::api::{Budget, Pegasus, Ssumm, SummarizeRequest, Summarizer};
use pgs_core::error::personalized_error;
use pgs_core::pegasus::PegasusConfig;
use pgs_core::weights::NodeWeights;
use pgs_core::SsummConfig;

fn main() {
    // The smaller datasets keep the sweep quick; the remaining stand-ins
    // behave the same way (run with all names to verify).
    let names = ["LA", "CA", "DB"];
    let alphas = [1.25, 1.5, 1.75];
    let fractions: [(&str, f64); 6] = [
        ("|T|=1", 0.0),
        ("0.01|V|", 0.01),
        ("0.1|V|", 0.1),
        ("0.3|V|", 0.3),
        ("0.5|V|", 0.5),
        ("|V|", 1.0),
    ];

    for alpha in alphas {
        println!("\n=== Fig. 5, alpha = {alpha} (compression ratio 0.5) ===");
        println!(
            "{:<8} {}",
            "dataset",
            fractions
                .iter()
                .map(|(l, _)| format!("{l:>10}"))
                .collect::<String>()
                + &format!("{:>10}", "SSumM")
        );
        for name in names {
            let d = dataset(name);
            let g = &d.graph;
            let n = g.num_nodes();
            let bits_req = SummarizeRequest::new(Budget::Bits(0.5 * g.size_bits()));

            // Three test nodes; for each |T|, T contains the test node
            // plus uniform samples (the paper samples T uniformly and
            // tests at members of T).
            let test_nodes = sample_queries(g, 3, 500);

            // Reference: non-personalized summary (T = V), measured with
            // each test node's single-target weights.
            let uniform = Pegasus(PegasusConfig {
                num_threads: pgs_bench::num_threads(),
                ..Default::default()
            })
            .run(g, &bits_req)
            .expect("valid request")
            .summary;
            let ssumm = Ssumm(SsummConfig {
                num_threads: pgs_bench::num_threads(),
                ..Default::default()
            })
            .run(g, &bits_req)
            .expect("valid request")
            .summary;

            let mut row = format!("{:<8}", d.name);
            for &(_, frac) in &fractions {
                let mut rel_sum = 0.0;
                for (i, &u) in test_nodes.iter().enumerate() {
                    let mut targets = vec![u];
                    if frac > 0.0 {
                        let extra = ((n as f64 * frac) as usize).saturating_sub(1);
                        targets.extend(sample_queries(g, extra, 600 + i as u64));
                        targets.dedup();
                    }
                    let cfg = PegasusConfig {
                        num_threads: pgs_bench::num_threads(),
                        alpha,
                        ..Default::default()
                    };
                    let s = Pegasus(cfg)
                        .run(g, &bits_req.clone().targets(&targets))
                        .expect("valid request")
                        .summary;
                    let w_u = NodeWeights::personalized(g, &[u], alpha);
                    let err = personalized_error(g, &s, &w_u).expect("matching node counts");
                    let base = personalized_error(g, &uniform, &w_u)
                        .expect("matching node counts")
                        .max(1e-12);
                    rel_sum += err / base;
                }
                row += &format!("{:>10.3}", rel_sum / test_nodes.len() as f64);
            }
            // SSumM reference (relative to PeGaSus T=V), averaged the
            // same way.
            let mut ssumm_rel = 0.0;
            for &u in &test_nodes {
                let w_u = NodeWeights::personalized(g, &[u], alpha);
                let err = personalized_error(g, &ssumm, &w_u).expect("matching node counts");
                let base = personalized_error(g, &uniform, &w_u)
                    .expect("matching node counts")
                    .max(1e-12);
                ssumm_rel += err / base;
            }
            row += &format!("{:>10.3}", ssumm_rel / test_nodes.len() as f64);
            println!("{row}");
        }
    }
    println!("\n(values are personalized error at a test node relative to the");
    println!(" non-personalized PeGaSus summary; < 1 means personalization helps,");
    println!(" and the paper's Fig. 5 shows the same left-to-right increase)");
}
