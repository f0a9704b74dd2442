//! Social-network scenario from the paper's introduction: "users in
//! online social networks are more interested in connections of their
//! close friends than in those of strangers."
//!
//! A community-structured network is summarized once per *user cohort*
//! (e.g. the users currently online in one region). Friend
//! recommendation uses Random Walk with Restart from each user; we show
//! the personalized summary ranks candidate friends (two-hop neighbors)
//! far more faithfully than a one-size-fits-all summary of equal size.
//!
//! ```text
//! cargo run --release --example social_recommendation
//! ```

use pegasus_summary::prelude::*;

/// Top-k indices by score, excluding the query node and its current
/// friends (a classic friend-recommendation candidate filter).
fn top_candidates(g: &Graph, q: NodeId, scores: &[f64], k: usize) -> Vec<NodeId> {
    let friends: std::collections::HashSet<NodeId> = g.neighbors(q).iter().copied().collect();
    let mut idx: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&u| u != q && !friends.contains(&u))
        .collect();
    idx.sort_by(|&a, &b| scores[b as usize].partial_cmp(&scores[a as usize]).unwrap());
    idx.truncate(k);
    idx
}

fn overlap(a: &[NodeId], b: &[NodeId]) -> usize {
    let set: std::collections::HashSet<_> = a.iter().collect();
    b.iter().filter(|x| set.contains(x)).count()
}

fn main() {
    // A 4,000-user network with 40 communities (planted partition).
    let g = planted_partition(4_000, 40, 36_000, 4_000, 7);
    println!(
        "social network: {} users, {} friendships",
        g.num_nodes(),
        g.num_edges()
    );

    // The cohort we serve: 50 users from communities 0 and 1. Both
    // summaries are requests against the unified API — same budget,
    // different personalization.
    let cohort: Vec<NodeId> = (0..50).collect();
    let budget = Budget::Ratio(0.4);
    let cfg = PegasusConfig {
        alpha: 1.5,
        ..Default::default()
    };
    let personalized = Pegasus(cfg)
        .run(&g, &SummarizeRequest::new(budget).targets(&cohort))
        .expect("valid request")
        .summary;
    let generic = Pegasus::default()
        .run(&g, &SummarizeRequest::new(budget))
        .expect("valid request")
        .summary;
    println!(
        "summaries built: personalized |S|={} |P|={}, generic |S|={} |P|={}",
        personalized.num_supernodes(),
        personalized.num_superedges(),
        generic.num_supernodes(),
        generic.num_superedges()
    );

    // Recommend friends for 10 cohort members; measure how well each
    // summary preserves the true top-10 recommendation list.
    let k = 10;
    let mut pers_hits = 0usize;
    let mut gen_hits = 0usize;
    let mut pers_sc = 0.0f64;
    let mut gen_sc = 0.0f64;
    let users: Vec<NodeId> = (0..10).collect();
    let (p_engine, g_engine) = (QueryEngine::new(&personalized), QueryEngine::new(&generic));
    for &q in &users {
        let truth = rwr_exact(&g, q, 0.05);
        let ideal = top_candidates(&g, q, &truth, k);

        let p_scores = p_engine.rwr(q, 0.05);
        let g_scores = g_engine.rwr(q, 0.05);
        pers_hits += overlap(&ideal, &top_candidates(&g, q, &p_scores, k));
        gen_hits += overlap(&ideal, &top_candidates(&g, q, &g_scores, k));
        pers_sc += spearman(&truth, &p_scores);
        gen_sc += spearman(&truth, &g_scores);
    }
    let denom = (users.len() * k) as f64;
    println!(
        "top-{k} recommendation recall: personalized {:.2}, generic {:.2}",
        pers_hits as f64 / denom,
        gen_hits as f64 / denom
    );
    println!(
        "mean RWR Spearman:            personalized {:.3}, generic {:.3}",
        pers_sc / users.len() as f64,
        gen_sc / users.len() as f64
    );
    println!("(higher is better; the cohort's summary should win on both)");
}
