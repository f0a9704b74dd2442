//! Workspace-level contract of the unified request API: every one of
//! the five algorithms runs through `Summarizer::run` and reports
//! uniform run stats, the baselines cancel at commit boundaries, and
//! every invalid-request axis is a typed error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pegasus_summary::prelude::*;

fn social_graph(seed: u64) -> Graph {
    planted_partition(500, 10, 3_000, 400, seed)
}

#[test]
fn every_algorithm_reports_uniform_run_stats() {
    let g = social_graph(2);
    let algs: [(&str, Box<dyn Summarizer>, Budget); 5] = [
        ("pegasus", Box::new(Pegasus::default()), Budget::Ratio(0.5)),
        ("ssumm", Box::new(Ssumm::default()), Budget::Ratio(0.5)),
        (
            "kgrass",
            Box::new(KGrass::default()),
            Budget::Supernodes(100),
        ),
        ("s2l", Box::new(S2l::default()), Budget::Supernodes(100)),
        ("saags", Box::new(Saags::default()), Budget::Supernodes(100)),
    ];
    for (name, alg, budget) in &algs {
        assert_eq!(alg.name(), *name);
        let out = alg.run(&g, &SummarizeRequest::new(*budget)).unwrap();
        assert!(out.stats.iterations > 0, "{name}: iterations");
        assert!(out.stats.evals > 0, "{name}: evals");
        assert_eq!(out.stop, StopReason::BudgetMet, "{name}: stop");
    }
}

#[test]
fn baseline_cancellation_yields_valid_partial_summaries() {
    // A pre-set cancel flag trips at the very first commit boundary:
    // k-GraSS and SAAGs return the untouched singleton partition, S2L
    // the all-in-cluster-zero assignment — all structurally valid.
    let g = social_graph(3);
    let cancelled = || {
        let flag = Arc::new(AtomicBool::new(true));
        SummarizeRequest::new(Budget::Supernodes(50)).cancel_flag(flag)
    };
    let algs: [Box<dyn Summarizer>; 3] = [
        Box::new(KGrass::default()),
        Box::new(S2l::default()),
        Box::new(Saags::default()),
    ];
    for alg in &algs {
        let out = alg.run(&g, &cancelled()).unwrap();
        assert_eq!(out.stop, StopReason::Cancelled, "{}", alg.name());
        let s = &out.summary;
        assert_eq!(s.num_nodes(), g.num_nodes(), "{}", alg.name());
        let mut seen = vec![false; g.num_nodes()];
        for sn in 0..s.num_supernodes() as u32 {
            for &u in s.members(sn) {
                assert!(!seen[u as usize], "{}: node {u} twice", alg.name());
                seen[u as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x), "{}: partition", alg.name());
    }
}

#[test]
fn mid_run_cancellation_stops_kgrass_between_merges() {
    let g = social_graph(4);
    let flag = Arc::new(AtomicBool::new(false));
    let setter = Arc::clone(&flag);
    // Stop after ~25 merge steps (observer fires once per step).
    let req = SummarizeRequest::new(Budget::Supernodes(10))
        .cancel_flag(Arc::clone(&flag))
        .observer(move |stats| {
            if stats.iterations >= 25 {
                setter.store(true, Ordering::Relaxed);
            }
        });
    let out = KGrass::default().run(&g, &req).unwrap();
    assert_eq!(out.stop, StopReason::Cancelled);
    // Far from the requested 10 supernodes, but some merging happened.
    assert!(out.summary.num_supernodes() > 10);
    assert!(out.summary.num_supernodes() < g.num_nodes());
}

#[test]
fn invalid_requests_error_on_every_algorithm() {
    let g = social_graph(5);
    let algs: [Box<dyn Summarizer>; 5] = [
        Box::new(Pegasus::default()),
        Box::new(Ssumm::default()),
        Box::new(KGrass::default()),
        Box::new(S2l::default()),
        Box::new(Saags::default()),
    ];
    let empty = Graph::empty(0);
    for alg in &algs {
        let req = SummarizeRequest::new(Budget::Ratio(0.5));
        assert_eq!(
            alg.run(&empty, &req).unwrap_err(),
            PgsError::EmptyGraph,
            "{}",
            alg.name()
        );
        for bad in [
            Budget::Bits(f64::NAN),
            Budget::Bits(-1.0),
            Budget::Ratio(0.0),
            Budget::Ratio(f64::INFINITY),
        ] {
            assert!(
                alg.run(&g, &SummarizeRequest::new(bad)).is_err(),
                "{}: {bad:?}",
                alg.name()
            );
        }
    }
    // Personalization: only PeGaSus accepts it.
    let personalized = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[0]);
    assert!(Pegasus::default().run(&g, &personalized).is_ok());
    for alg in &algs[1..] {
        let budget = if alg.name() == "ssumm" {
            Budget::Ratio(0.5)
        } else {
            Budget::Supernodes(50)
        };
        let req = SummarizeRequest::new(budget).targets(&[0]);
        assert!(
            matches!(alg.run(&g, &req), Err(PgsError::Unsupported { .. })),
            "{}",
            alg.name()
        );
    }
}
