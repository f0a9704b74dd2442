//! Road-network scenario from the paper's introduction: "travelers
//! navigating a road network are more interested in the roads near them
//! than in those far from them."
//!
//! A city grid (plus a few highways) is summarized personalized to a
//! traveler's current position; hop-distance queries (Alg. 5) — the
//! primitive behind reachability and ETA estimates — stay sharp near the
//! traveler and coarsen far away.
//!
//! ```text
//! cargo run --release --example road_navigation
//! ```

use pegasus_summary::prelude::*;

fn main() {
    // A 60×60 street grid with 200 random "highway" shortcuts.
    let rows = 60;
    let cols = 60;
    let base = grid(rows, cols);
    let mut b = GraphBuilder::with_capacity(base.num_nodes(), base.num_edges() + 200);
    for (u, v) in base.edges() {
        b.add_edge(u, v);
    }
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for _ in 0..200 {
        let u = rng.random_range(0..base.num_nodes()) as NodeId;
        let v = rng.random_range(0..base.num_nodes()) as NodeId;
        b.add_edge(u, v);
    }
    let g = b.build();
    println!(
        "road network: {} intersections, {} road segments",
        g.num_nodes(),
        g.num_edges()
    );

    // The traveler sits at the grid center. Both summaries go through
    // the unified request API at the same bit budget.
    let traveler = ((rows / 2) * cols + cols / 2) as NodeId;
    let budget = 0.35 * g.size_bits();
    let cfg = PegasusConfig {
        alpha: 1.25, // Fig. 10: moderate α suits large-diameter graphs
        ..Default::default()
    };
    let local = Pegasus(cfg)
        .run(
            &g,
            &SummarizeRequest::new(Budget::Bits(budget)).targets(&[traveler]),
        )
        .expect("valid request")
        .summary;
    let global = Pegasus::default()
        .run(&g, &SummarizeRequest::new(Budget::Bits(budget)))
        .expect("valid request")
        .summary;
    println!(
        "summaries: local |S|={}, global |S|={} ({} bits budget)",
        local.num_supernodes(),
        global.num_supernodes(),
        budget as u64
    );

    // Compare hop-distance accuracy in rings around the traveler.
    let truth = hops_exact(&g, traveler);
    let local_hops = QueryEngine::new(&local).hops(traveler);
    let global_hops = QueryEngine::new(&global).hops(traveler);
    let t = hops_to_f64(&truth);
    let l = hops_to_f64(&local_hops);
    let gl = hops_to_f64(&global_hops);

    println!("\nhop-count error by distance ring (SMAPE, lower = better):");
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "ring", "personalized", "global", "nodes"
    );
    for (lo, hi) in [(1, 5), (6, 10), (11, 20), (21, 40), (41, 200)] {
        let ids: Vec<usize> = truth
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != u32::MAX && d >= lo && d <= hi)
            .map(|(i, _)| i)
            .collect();
        if ids.is_empty() {
            continue;
        }
        let pick = |x: &[f64]| ids.iter().map(|&i| x[i]).collect::<Vec<_>>();
        let (tt, ll, gg) = (pick(&t), pick(&l), pick(&gl));
        println!(
            "{:>4}..{:<4} {:>12.3} {:>12.3} {:>8}",
            lo,
            hi,
            smape(&tt, &ll),
            smape(&tt, &gg),
            ids.len()
        );
    }
    println!("\nThe personalized summary keeps the traveler's vicinity nearly");
    println!("exact; the uniform summary spends its (identical) budget evenly");
    println!("and, on a structure-poor grid, retains very little anywhere.");
}
