//! Fig. 2(c) + Fig. 12 — "communication-free" distributed multi-query
//! answering: personalized summaries vs a replicated non-personalized
//! summary vs partitioned subgraphs, on 8 simulated machines.
//!
//! For each dataset and per-machine compression ratio: build the
//! cluster with each backend, route each query to its machine (Alg. 3),
//! and score RWR/HOP answers against the exact answers on the full
//! graph.
//!
//! Expected shape (paper): PeGaSus most accurate in almost all
//! settings; SSumM (one summary for everyone) clearly behind; the five
//! partitioned-subgraph baselines in between, strong at small distances
//! but blind outside their partition.
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig12_distributed
//! ```

use pgs_bench::{dataset, num_queries, sample_queries, GroundTruth, QueryType};
use pgs_core::{PegasusConfig, SsummConfig};
use pgs_distributed::{Backend, Cluster};
use pgs_partition::Method;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if names.is_empty() {
        vec!["LA", "CA", "DB"]
    } else {
        names.iter().map(|s| s.as_str()).collect()
    };
    let machines = 8;
    let ratios = [0.2, 0.4, 0.6, 0.8];

    for name in names {
        let d = dataset(name);
        let g = &d.graph;
        let queries = sample_queries(g, num_queries(), 29);
        println!(
            "\n=== Fig. 12: {} ({} nodes, {} edges, {machines} machines, |Q|={}) ===",
            d.name,
            g.num_nodes(),
            g.num_edges(),
            queries.len()
        );
        let truths: Vec<GroundTruth> = [QueryType::Rwr, QueryType::Hop]
            .iter()
            .map(|&qt| GroundTruth::compute(g, &queries, qt))
            .collect();

        println!(
            "{:<10} {:>6} | {:>8} {:>8} | {:>8} {:>8}",
            "backend", "ratio", "RWR sm", "RWR sc", "HOP sm", "HOP sc"
        );
        for &ratio in &ratios {
            let budget = ratio * g.size_bits();
            let backends: Vec<(&str, Backend)> = vec![
                (
                    "PeGaSus",
                    Backend::Pegasus(PegasusConfig {
                        num_threads: pgs_bench::num_threads(),
                        ..Default::default()
                    }),
                ),
                (
                    "SSumM",
                    Backend::Ssumm(SsummConfig {
                        num_threads: pgs_bench::num_threads(),
                        ..Default::default()
                    }),
                ),
                ("Louvain", Backend::Subgraph(Method::Louvain)),
                ("BLP", Backend::Subgraph(Method::Blp)),
                ("SHPI", Backend::Subgraph(Method::ShpI)),
                ("SHPII", Backend::Subgraph(Method::ShpII)),
                ("SHPKL", Backend::Subgraph(Method::ShpKL)),
            ];
            for (label, backend) in backends {
                let cluster = Cluster::try_build(g, machines, budget, &backend, 31)
                    .expect("valid per-machine budget");
                let mut row = format!("{label:<10} {ratio:>6.1} |");
                for gt in &truths {
                    let (sm, sc) = gt.score_cluster(&cluster);
                    row += &format!(" {sm:>8.3} {sc:>8.3} |");
                }
                println!("{}", row.trim_end_matches(" |"));
            }
        }
    }
}
