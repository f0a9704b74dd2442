//! Cross-crate integration tests: the full PeGaSus pipeline from graph
//! generation through summarization, query answering, and the
//! distributed application.

use pegasus_summary::prelude::*;
use pgs_core::error::personalized_error;

fn social_graph(seed: u64) -> Graph {
    planted_partition(1_000, 10, 7_000, 1_000, seed)
}

/// A bit-budget request personalized to `targets` (`T = V` when empty).
fn bits(budget: f64, targets: &[NodeId]) -> SummarizeRequest {
    SummarizeRequest::new(Budget::Bits(budget)).targets(targets)
}

/// A supernode-count request for the baselines.
fn supernodes(k: usize) -> SummarizeRequest {
    SummarizeRequest::new(Budget::Supernodes(k))
}

#[test]
fn every_summarizer_meets_its_budget_contract() {
    let g = social_graph(1);
    for &ratio in &[0.2, 0.5, 0.8] {
        let budget = ratio * g.size_bits();
        let p = Pegasus::default().run(&g, &bits(budget, &[0, 1])).unwrap();
        assert!(
            p.summary.size_bits() <= budget + 1e-9,
            "pegasus ratio {ratio}"
        );
        let s = Ssumm::default().run(&g, &bits(budget, &[])).unwrap();
        assert!(
            s.summary.size_bits() <= budget + 1e-9,
            "ssumm ratio {ratio}"
        );
    }
    // Supernode-count budgeted baselines.
    for &k in &[50usize, 200, 500] {
        let supernodes_of = |alg: &dyn Summarizer| {
            alg.run(&g, &supernodes(k))
                .unwrap()
                .summary
                .num_supernodes()
        };
        assert_eq!(supernodes_of(&KGrass::default()), k);
        assert!(supernodes_of(&S2l::default()) <= k);
        assert_eq!(supernodes_of(&Saags::default()), k);
    }
}

#[test]
fn all_summarizers_produce_valid_partitions() {
    let g = social_graph(2);
    let budget = 0.5 * g.size_bits();
    let runs: [(&str, Box<dyn Summarizer>, SummarizeRequest); 5] = [
        ("pegasus", Box::new(Pegasus::default()), bits(budget, &[5])),
        ("ssumm", Box::new(Ssumm::default()), bits(budget, &[])),
        ("kgrass", Box::new(KGrass::default()), supernodes(100)),
        ("s2l", Box::new(S2l::default()), supernodes(100)),
        ("saags", Box::new(Saags::default()), supernodes(100)),
    ];
    for (name, alg, req) in &runs {
        let s = alg.run(&g, req).unwrap().summary;
        assert_eq!(s.num_nodes(), g.num_nodes(), "{name}: node count");
        // The supernodes partition V.
        let mut seen = vec![false; g.num_nodes()];
        for sn in 0..s.num_supernodes() as u32 {
            for &u in s.members(sn) {
                assert!(!seen[u as usize], "{name}: node {u} in two supernodes");
                seen[u as usize] = true;
                assert_eq!(s.supernode_of(u), sn, "{name}: inconsistent mapping");
            }
        }
        assert!(
            seen.iter().all(|&x| x),
            "{name}: nodes missing from partition"
        );
    }
}

/// The Fig. 5 personalization claim: with the summary personalized to a
/// single node, the personalized error measured at that node is smaller
/// (relative to a non-personalized summary of the same size).
#[test]
fn personalized_error_improves_at_single_target() {
    let g = social_graph(3);
    let budget = 0.5 * g.size_bits();
    let target = [17u32];
    let cfg = PegasusConfig {
        alpha: 1.5,
        ..Default::default()
    };
    let focused = Pegasus(cfg).run(&g, &bits(budget, &target)).unwrap();
    let uniform = Pegasus::default().run(&g, &bits(budget, &[])).unwrap();
    let w = NodeWeights::personalized(&g, &target, 1.5);
    let err_focused = personalized_error(&g, &focused.summary, &w).unwrap();
    let err_uniform = personalized_error(&g, &uniform.summary, &w).unwrap();
    assert!(
        err_focused < err_uniform,
        "personalized {err_focused} should beat uniform {err_uniform}"
    );
}

/// Fig. 7's headline: queries at target nodes are more accurate from
/// PeGaSus summaries than from the non-personalized competitors at a
/// comparable size.
#[test]
fn target_queries_beat_ssumm() {
    let g = social_graph(4);
    let budget = 0.5 * g.size_bits();
    let targets: Vec<NodeId> = (0..50).map(|i| i * 17 % 1000).collect();
    let p = Pegasus::default()
        .run(&g, &bits(budget, &targets))
        .unwrap()
        .summary;
    let s = Ssumm::default()
        .run(&g, &bits(budget, &[]))
        .unwrap()
        .summary;
    let (p_engine, s_engine) = (QueryEngine::new(&p), QueryEngine::new(&s));

    let mut p_err = 0.0;
    let mut s_err = 0.0;
    for &q in targets.iter().take(10) {
        let truth = hops_to_f64(&hops_exact(&g, q));
        p_err += smape(&truth, &hops_to_f64(&p_engine.hops(q)));
        s_err += smape(&truth, &hops_to_f64(&s_engine.hops(q)));
    }
    assert!(
        p_err < s_err,
        "HOP error: pegasus {p_err} should beat ssumm {s_err}"
    );
}

#[test]
fn queries_work_on_every_summarizer_output() {
    let g = social_graph(5);
    let budget = 0.6 * g.size_bits();
    let runs: [(Box<dyn Summarizer>, SummarizeRequest); 5] = [
        (Box::new(Pegasus::default()), bits(budget, &[3])),
        (Box::new(Ssumm::default()), bits(budget, &[])),
        (Box::new(KGrass::default()), supernodes(200)),
        (Box::new(S2l::default()), supernodes(200)),
        (Box::new(Saags::default()), supernodes(200)),
    ];
    for (alg, req) in &runs {
        let s = alg.run(&g, req).unwrap().summary;
        let engine = QueryEngine::new(&s);
        let r = engine.rwr(3, 0.05);
        assert_eq!(r.len(), 1000);
        assert!(r.iter().all(|&x| x.is_finite() && x >= -1e-12));
        let h = engine.hops(3);
        assert_eq!(h.len(), 1000);
        let p = engine.php(3, 0.95);
        assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
        assert_eq!(p[3], 1.0);
    }
}

#[test]
fn distributed_pipeline_runs_all_backends() {
    let g = social_graph(6);
    let budget = 0.5 * g.size_bits();
    let backends = [
        Backend::Pegasus(PegasusConfig::default()),
        Backend::Ssumm(SsummConfig::default()),
        Backend::Subgraph(Method::Louvain),
        Backend::Subgraph(Method::Blp),
        Backend::Subgraph(Method::ShpI),
        Backend::Subgraph(Method::ShpII),
        Backend::Subgraph(Method::ShpKL),
    ];
    for backend in backends {
        let cluster = Cluster::try_build(&g, 4, budget, &backend, 9).unwrap();
        let r = cluster.rwr(42, 0.05);
        assert_eq!(r.len(), 1000);
        assert!(r.iter().all(|x| x.is_finite()));
    }
}

/// Fig. 12's headline on a small instance: distributed personalized
/// summaries answer HOP queries more accurately than the replicated
/// non-personalized summary.
#[test]
fn distributed_personalization_beats_replicated_ssumm() {
    let g = planted_partition(2_000, 20, 14_000, 2_000, 7);
    let budget = 0.4 * g.size_bits();
    let pegasus = Cluster::try_build(
        &g,
        4,
        budget,
        &Backend::Pegasus(PegasusConfig::default()),
        1,
    )
    .unwrap();
    let ssumm =
        Cluster::try_build(&g, 4, budget, &Backend::Ssumm(SsummConfig::default()), 1).unwrap();
    let queries: Vec<NodeId> = (0..20).map(|i| i * 97 % 2000).collect();
    let mut p_err = 0.0;
    let mut s_err = 0.0;
    for &q in &queries {
        let truth = rwr_exact(&g, q, 0.05);
        p_err += smape(&truth, &pegasus.rwr(q, 0.05));
        s_err += smape(&truth, &ssumm.rwr(q, 0.05));
    }
    assert!(
        p_err < s_err,
        "distributed RWR error: pegasus {p_err} vs ssumm {s_err}"
    );
}

/// Alpha monotonicity at the *near* region (Fig. 5 trend): growing alpha
/// concentrates accuracy near the target set.
#[test]
fn larger_alpha_lowers_relative_personalized_error() {
    let g = social_graph(8);
    let budget = 0.5 * g.size_bits();
    let target = [123u32];
    let mut previous = f64::INFINITY;
    let mut oks = 0;
    for &alpha in &[1.0, 1.5, 2.0] {
        let cfg = PegasusConfig {
            alpha,
            ..Default::default()
        };
        let s = Pegasus(cfg)
            .run(&g, &bits(budget, &target))
            .unwrap()
            .summary;
        // Relative personalized error: error at target / error of the
        // non-personalized summary under the same target weights.
        let w = NodeWeights::personalized(&g, &target, 2.0);
        let err = personalized_error(&g, &s, &w).unwrap();
        if err <= previous * 1.1 {
            oks += 1; // allow mild non-monotonic noise, require trend
        }
        previous = err;
    }
    assert!(oks >= 2, "personalized error should trend down with alpha");
}

#[test]
fn loaders_round_trip_through_summarization() {
    // Write a generated graph to disk, reload it, summarize the reload.
    let g = social_graph(9);
    let dir = std::env::temp_dir().join("pgs_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.txt");
    pgs_graph::io::write_edge_list(&g, &path).unwrap();
    let (g2, _) = pgs_graph::io::read_edge_list(&path).unwrap();
    assert_eq!(g.num_edges(), g2.num_edges());
    let s = Pegasus::default()
        .run(&g2, &bits(0.5 * g2.size_bits(), &[0]))
        .unwrap()
        .summary;
    assert!(s.size_bits() <= 0.5 * g2.size_bits());
    std::fs::remove_file(path).ok();
}
