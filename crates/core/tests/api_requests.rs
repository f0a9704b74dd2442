//! The request-API contract for the two bit-budgeted engines: cancel
//! and deadline stop a run at a commit boundary with a valid partial
//! summary, run control that never fires changes nothing, the observer
//! sees every iteration, and invalid requests are always typed errors —
//! never panics (proptest).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;

use pgs_core::api::{
    Budget, Pegasus, Personalization, RunControl, Ssumm, StopReason, SummarizeRequest, Summarizer,
};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::{NodeWeights, Summary};
use pgs_graph::gen::{barabasi_albert, planted_partition};
use pgs_graph::Graph;

/// Byte-level identity: same partition, same superedge set, same
/// superedge weight bits.
fn assert_identical(a: &Summary, b: &Summary, context: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{context}: |V|");
    assert_eq!(a.num_supernodes(), b.num_supernodes(), "{context}: |S|");
    for u in 0..a.num_nodes() as u32 {
        assert_eq!(
            a.supernode_of(u),
            b.supernode_of(u),
            "{context}: node {u} assignment"
        );
    }
    let edges = |s: &Summary| {
        let mut e: Vec<(u32, u32, u32)> = s
            .superedges()
            .map(|(x, y, w)| (x, y, w.to_bits()))
            .collect();
        e.sort_unstable();
        e
    };
    assert_eq!(edges(a), edges(b), "{context}: superedges");
}

/// A structurally valid summary: the supernodes partition `V`.
fn assert_valid_partition(g: &Graph, s: &Summary) {
    assert_eq!(s.num_nodes(), g.num_nodes());
    let mut seen = vec![false; g.num_nodes()];
    for sn in 0..s.num_supernodes() as u32 {
        for &u in s.members(sn) {
            assert!(!seen[u as usize], "node {u} in two supernodes");
            seen[u as usize] = true;
            assert_eq!(s.supernode_of(u), sn);
        }
    }
    assert!(seen.into_iter().all(|x| x), "nodes missing from partition");
}

#[test]
fn cancel_after_iteration_one_returns_valid_partial_summary() {
    // The observer fires at the end of each committed iteration; setting
    // the flag there stops the run at the next commit boundary.
    let g = planted_partition(600, 10, 3000, 350, 7);
    let flag = Arc::new(AtomicBool::new(false));
    let setter = Arc::clone(&flag);
    // Iteration 1 runs at the θ = 0.5 starting threshold and may commit
    // nothing; cancelling after iteration 2 (the first adaptively
    // thresholded one) demonstrates a genuinely partial summary.
    let req = SummarizeRequest::new(Budget::Ratio(0.2))
        .cancel_flag(Arc::clone(&flag))
        .observer(move |stats| {
            if stats.iterations >= 2 {
                setter.store(true, Ordering::Relaxed);
            }
        });
    let out = Pegasus::default().run(&g, &req).unwrap();
    assert_eq!(out.stop, StopReason::Cancelled);
    assert_eq!(out.stats.iterations, 2, "cancelled after iteration 2");
    assert!(
        !out.stats.sparsified,
        "interrupted runs skip sparsification"
    );
    assert!(out.stats.merges > 0, "iteration 2 committed real merges");
    assert_valid_partition(&g, &out.summary);

    // An uninterrupted run at the same seed needs more iterations at
    // this budget, so the cancel genuinely cut it short.
    let full = Pegasus::default()
        .run(&g, &SummarizeRequest::new(Budget::Ratio(0.2)))
        .unwrap();
    assert!(full.stats.iterations > 2);
}

#[test]
fn ssumm_cancel_stops_at_commit_boundary() {
    let g = planted_partition(600, 10, 3000, 350, 2);
    let flag = Arc::new(AtomicBool::new(false));
    let setter = Arc::clone(&flag);
    let req = SummarizeRequest::new(Budget::Ratio(0.2))
        .cancel_flag(flag)
        .observer(move |stats| {
            if stats.iterations >= 1 {
                setter.store(true, Ordering::Relaxed);
            }
        });
    let out = Ssumm::default().run(&g, &req).unwrap();
    assert_eq!(out.stop, StopReason::Cancelled);
    assert_eq!(out.stats.iterations, 1);
    assert_valid_partition(&g, &out.summary);
}

#[test]
fn zero_deadline_returns_identity_summary() {
    let g = barabasi_albert(200, 3, 4);
    let req = SummarizeRequest::new(Budget::Ratio(0.3)).deadline(Duration::ZERO);
    let out = Pegasus::default().run(&g, &req).unwrap();
    assert_eq!(out.stop, StopReason::DeadlineExceeded);
    assert_eq!(out.stats.iterations, 0, "deadline tripped before work");
    assert_eq!(out.summary.num_supernodes(), g.num_nodes());
    assert_valid_partition(&g, &out.summary);
}

#[test]
fn generous_deadline_changes_nothing() {
    let g = barabasi_albert(300, 4, 9);
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);
    let plain = Pegasus::default().run(&g, &req).unwrap();
    let out = Pegasus::default()
        .run(&g, &req.deadline(Duration::from_secs(3600)))
        .unwrap();
    assert_eq!(out.stop, StopReason::BudgetMet);
    assert_identical(&plain.summary, &out.summary, "deadline no-op");
}

#[test]
fn observer_sees_every_iteration_in_order() {
    let g = planted_partition(400, 8, 1800, 250, 4);
    let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let req = SummarizeRequest::new(Budget::Ratio(0.3)).observer(move |stats| {
        sink.lock().unwrap().push(stats.iterations);
    });
    let out = Pegasus::default().run(&g, &req).unwrap();
    let seen = seen.lock().unwrap();
    let expected: Vec<usize> = (1..=out.stats.iterations).collect();
    assert_eq!(*seen, expected, "one callback per iteration, in order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invalid requests always come back as `Err`, never a panic: the
    /// run is wrapped in nothing — a panic would fail the test.
    #[test]
    fn invalid_requests_error_instead_of_panicking(
        bad_value in -1e9f64..0.0,
        bad_kind in 0usize..4,
        bad_target in 100u32..1_000_000,
        alpha in -2.0f64..0.99,
        beta_excess in 0.001f64..5.0,
        which in 0usize..5,
    ) {
        let g = barabasi_albert(50, 2, 1);
        // Non-positive, NaN, or ±∞ — all invalid for bit budgets and
        // ratios alike.
        let bad_number = match bad_kind {
            0 => bad_value,
            1 => f64::NAN,
            2 => f64::INFINITY,
            _ => 0.0,
        };
        let valid_budget = Budget::Ratio(0.5);
        let (alg, req) = match which {
            0 => (
                Pegasus::default(),
                SummarizeRequest::new(Budget::Bits(bad_number)),
            ),
            1 => (
                Pegasus::default(),
                SummarizeRequest::new(Budget::Ratio(bad_number)),
            ),
            // Supernode budgets are Unsupported on the bit-budgeted engine.
            2 => (
                Pegasus::default(),
                SummarizeRequest::new(Budget::Supernodes(10)),
            ),
            3 => (
                Pegasus::default(),
                SummarizeRequest::new(valid_budget).targets(&[bad_target]),
            ),
            _ => (
                Pegasus(PegasusConfig {
                    alpha,
                    beta: 1.0 + beta_excess,
                    ..Default::default()
                }),
                SummarizeRequest::new(valid_budget),
            ),
        };
        prop_assert!(alg.run(&g, &req).is_err());
    }

    /// The empty-targets and wrong-length-weights personalization axes
    /// are typed errors on every engine that accepts personalization.
    #[test]
    fn invalid_personalization_errors(len in 0usize..20) {
        let g = barabasi_albert(30, 2, 2);
        prop_assume!(len != 30);
        let req = SummarizeRequest::new(Budget::Ratio(0.5))
            .personalization(Personalization::Weights(NodeWeights::uniform(len)));
        prop_assert!(Pegasus::default().run(&g, &req).is_err());
        let req = SummarizeRequest::new(Budget::Ratio(0.5))
            .personalization(Personalization::Targets(Vec::new()));
        prop_assert!(Pegasus::default().run(&g, &req).is_err());
    }
}

#[test]
fn run_control_default_is_inert() {
    // A request with an explicitly attached (never-fired) cancel flag
    // and deadline matches the same request without them.
    let g = barabasi_albert(200, 3, 6);
    let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[1]);
    let plain = Pegasus::default().run(&g, &req).unwrap();
    let controlled = req.control(RunControl {
        cancel: Some(Arc::new(AtomicBool::new(false))),
        deadline: Some(Duration::from_secs(3600)),
        ..Default::default()
    });
    let out = Pegasus::default().run(&g, &controlled).unwrap();
    assert_identical(&plain.summary, &out.summary, "inert control");
}
