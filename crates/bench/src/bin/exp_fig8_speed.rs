//! Fig. 8 — summarization time and query time per method at
//! compression ratio 0.5.
//!
//! (a) wall time to summarize; (b) BFS (HOP) query time on each output;
//! (c) RWR query time on each output; with the uncompressed input graph
//! as the query-time reference. Expected shape (paper): PeGaSus/SSumM
//! among the fastest summarizers; queries on k-GraSS/S2L/SAAGs outputs
//! much slower because their summaries are dense.
//!
//! ```text
//! cargo run --release -p pgs-bench --bin exp_fig8_speed
//! ```

use pgs_baselines::{KGrass, S2l, Saags};
use pgs_bench::{baseline_feasible, dataset, sample_queries, timed};
use pgs_core::api::{Budget, Pegasus, Ssumm, SummarizeRequest, Summarizer};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::{SsummConfig, Summary};
use pgs_queries::{hops_exact, rwr_exact, QueryEngine};

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if names.is_empty() {
        vec!["LA", "CA", "DB", "A6", "SK"]
    } else {
        names.iter().map(|s| s.as_str()).collect()
    };

    for name in names {
        let d = dataset(name);
        let g = &d.graph;
        let budget = 0.5 * g.size_bits();
        let k = g.num_nodes() / 2;
        let queries = sample_queries(g, 5, 13);
        println!(
            "\n=== Fig. 8: {} ({} nodes, {} edges, ratio 0.5) ===",
            d.name,
            g.num_nodes(),
            g.num_edges()
        );
        println!(
            "{:<14} {:>12} {:>10} {:>12} {:>12}",
            "method", "build (ms)", "|P|", "BFS (ms)", "RWR (ms)"
        );

        // Reference: uncompressed queries on the input graph.
        let (_, bfs_ref) = timed(|| {
            for &q in &queries {
                std::hint::black_box(hops_exact(g, q));
            }
        });
        let (_, rwr_ref) = timed(|| {
            for &q in &queries {
                std::hint::black_box(rwr_exact(g, q, 0.05));
            }
        });
        println!(
            "{:<14} {:>12} {:>10} {:>12.1} {:>12.1}",
            "Uncompressed",
            "-",
            g.num_edges(),
            bfs_ref * 1e3 / queries.len() as f64,
            rwr_ref * 1e3 / queries.len() as f64
        );

        // Each summary-side query compiles its own plan inside the timed
        // loop: Fig. 8 times single queries, plan build included.
        let report = |method: &str, s: Summary, build_secs: f64| {
            let (_, bfs) = timed(|| {
                for &q in &queries {
                    std::hint::black_box(QueryEngine::new(&s).hops(q));
                }
            });
            let (_, rwr) = timed(|| {
                for &q in &queries {
                    std::hint::black_box(QueryEngine::new(&s).rwr(q, 0.05));
                }
            });
            println!(
                "{:<14} {:>12.0} {:>10} {:>12.1} {:>12.1}",
                method,
                build_secs * 1e3,
                s.num_superedges(),
                bfs * 1e3 / queries.len() as f64,
                rwr * 1e3 / queries.len() as f64
            );
        };

        // Every contender runs through the same request path: one
        // budget-normalizing `SummarizeRequest` per family, dispatched
        // over `dyn Summarizer`.
        let bits_req = SummarizeRequest::new(Budget::Bits(budget)).targets(&queries);
        let uniform_bits_req = SummarizeRequest::new(Budget::Bits(budget));
        let count_req = SummarizeRequest::new(Budget::Supernodes(k));
        let run = |alg: &dyn Summarizer, req: &SummarizeRequest| {
            timed(|| alg.run(g, req).expect("valid request").summary)
        };

        let (p, t) = run(
            &Pegasus(PegasusConfig {
                num_threads: pgs_bench::num_threads(),
                ..Default::default()
            }),
            &bits_req,
        );
        report("PeGaSus", p, t);
        let (s, t) = run(
            &Ssumm(SsummConfig {
                num_threads: pgs_bench::num_threads(),
                ..Default::default()
            }),
            &uniform_bits_req,
        );
        report("SSumM", s, t);
        if baseline_feasible(g) {
            let baselines: [(&str, &dyn Summarizer); 3] = [
                ("SAAGs", &Saags::default()),
                ("S2L", &S2l::default()),
                ("k-GraSS", &KGrass::default()),
            ];
            for (label, alg) in baselines {
                let (x, t) = run(alg, &count_req);
                report(label, x, t);
            }
        } else {
            println!(
                "{:<14} o.o.t. (size threshold, as in the paper)",
                "SAAGs/S2L/k-GraSS"
            );
        }
    }
}
