//! Fig. 2(b) + Fig. 6 — linear scalability.
//!
//! Measures PeGaSus wall time on node-sampled induced subgraphs (10%..
//! 100%) of (a) the Skitter stand-in with |T| = 100 and |T| = |V|/2 and
//! (b) a Barabási–Albert synthetic graph with |T| = 100, then fits the
//! log-log slope (paper: slope ≈ 1, scaling to one billion edges on
//! their hardware; scale up with PGS_SYNTH_NODES/PGS_SYNTH_DEG).
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig6_scalability
//! ```

use pgs_bench::{dataset, loglog_slope, sample_queries, timed};
use pgs_core::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
use pgs_core::pegasus::PegasusConfig;
use pgs_graph::sample::node_sampled_subgraph;
use pgs_graph::Graph;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn sweep(label: &str, g: &Graph, target_count: Option<usize>) {
    println!("\n--- {label} ---");
    println!(
        "{:>10} {:>12} {:>12} {:>12}",
        "fraction", "|V|", "|E|", "time (s)"
    );
    let mut points = Vec::new();
    for step in 1..=10 {
        let frac = step as f64 / 10.0;
        let sub = node_sampled_subgraph(g, frac, 42 + step as u64);
        if sub.num_edges() == 0 {
            continue;
        }
        let budget = 0.5 * sub.size_bits();
        let targets = match target_count {
            Some(k) => sample_queries(&sub, k.min(sub.num_nodes()), 7),
            None => sample_queries(&sub, sub.num_nodes() / 2, 7),
        };
        let pegasus = Pegasus(PegasusConfig {
            num_threads: pgs_bench::num_threads(),
            ..Default::default()
        });
        let req = SummarizeRequest::new(Budget::Bits(budget)).targets(&targets);
        let (_, secs) = timed(|| pegasus.run(&sub, &req).expect("valid request"));
        println!(
            "{:>10.1} {:>12} {:>12} {:>12.3}",
            frac,
            sub.num_nodes(),
            sub.num_edges(),
            secs
        );
        points.push((sub.num_edges() as f64, secs));
    }
    println!(
        "log-log slope (1.0 = linear in |E|): {:.3}",
        loglog_slope(&points)
    );
}

fn main() {
    // (a)/(b): Skitter stand-in, |T| = 100 and |T| = |V|/2.
    let sk = dataset("SK");
    sweep("Skitter stand-in, |T| = 100", &sk.graph, Some(100));
    sweep("Skitter stand-in, |T| = |V|/2", &sk.graph, None);

    // (c): BA synthetic (paper: 10M nodes, 1B edges; default here is
    // laptop-sized — raise PGS_SYNTH_NODES / PGS_SYNTH_DEG to approach
    // the paper's scale, runtime grows linearly).
    let n = env_usize("PGS_SYNTH_NODES", 100_000);
    let m = env_usize("PGS_SYNTH_DEG", 10);
    println!("\ngenerating BA synthetic: {n} nodes, attachment {m}...");
    let ba = pgs_graph::gen::barabasi_albert(n, m, 9);
    sweep(
        &format!("BA synthetic ({} edges), |T| = 100", ba.num_edges()),
        &ba,
        Some(100),
    );
}
