//! Quickstart: summarize a graph personalized to a handful of nodes and
//! answer queries from the summary.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pegasus_summary::prelude::*;

fn main() {
    // 1. A community-structured input graph (stand-in for an online
    //    social network; real edge lists load via pgs_graph::io).
    let g = planted_partition(5_000, 50, 40_000, 5_000, 42);
    println!(
        "input graph: {} nodes, {} edges, {:.0} bits",
        g.num_nodes(),
        g.num_edges(),
        g.size_bits()
    );

    // 2. Personalize to three "users of interest" and compress to half
    //    the original bit size, through the unified request API: the
    //    request is fallible (typed errors instead of panics) and
    //    reports why the run stopped.
    let targets = [0, 1234, 4321];
    let cfg = PegasusConfig::default(); // α = 1.25, β = 0.1, t_max = 20
    let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&targets);
    let run = Pegasus(cfg.clone()).run(&g, &req).expect("valid request");
    let summary = run.summary;
    println!(
        "summary: {} supernodes, {} superedges, {:.0} bits (ratio {:.2}); \
         {} iterations, stop: {}",
        summary.num_supernodes(),
        summary.num_superedges(),
        summary.size_bits(),
        summary.size_bits() / g.size_bits(),
        run.stats.iterations,
        run.stop
    );

    // 3. Answer node-similarity queries directly from the summary and
    //    compare against the ground truth on the full graph. The summary
    //    is compiled once into a query plan that serves every query.
    let engine = QueryEngine::new(&summary);
    for &q in &targets {
        let exact = rwr_exact(&g, q, 0.05);
        let approx = engine.rwr(q, 0.05);
        println!(
            "RWR from node {q}: SMAPE {:.3}, Spearman {:.3}",
            smape(&exact, &approx),
            spearman(&exact, &approx)
        );
    }

    // 4. The same queries from a NON-personalized summary of equal size
    //    are noticeably less accurate at the targets — the paper's core
    //    claim (Fig. 5 / Fig. 7). Shown here with hop-distance queries.
    let uniform = Pegasus(cfg)
        .run(&g, &SummarizeRequest::new(Budget::Ratio(0.5)))
        .expect("valid request")
        .summary;
    let uniform_engine = QueryEngine::new(&uniform);
    let mut pers = 0.0;
    let mut nonp = 0.0;
    for &q in &targets {
        let truth = hops_to_f64(&hops_exact(&g, q));
        pers += smape(&truth, &hops_to_f64(&engine.hops(q)));
        nonp += smape(&truth, &hops_to_f64(&uniform_engine.hops(q)));
    }
    println!(
        "HOP SMAPE at targets: personalized {:.3} vs non-personalized {:.3}",
        pers / targets.len() as f64,
        nonp / targets.len() as f64
    );

    // 5. The neighborhood query (Alg. 4) is the primitive everything
    //    else builds on.
    let q = targets[0];
    let n0 = engine.neighbors(q);
    println!(
        "node {q}: {} true neighbors, {} reconstructed neighbors",
        g.degree(q),
        n0.len()
    );
}
