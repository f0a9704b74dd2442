//! The DESIGN.md §7 equivalence guarantees, pinned from outside the
//! crate:
//!
//! 1. **Bitwise evaluator equivalence.** On any snapshot state, the
//!    group-local cached evaluator ([`GroupView::eval_merge_cached`])
//!    and the scan evaluator ([`eval_merge_view`] via
//!    [`WorkingSummary::eval_merge`]) return bit-for-bit identical
//!    [`DeltaEval`]s — both accumulate per-neighbor sums in member-edge
//!    visit order and price in ascending-`SuperId` order, through the
//!    same pricing routine. Property-tested over random weighted graphs,
//!    random committed merge prefixes, and random candidate groups.
//!
//!    Covered on neighbor tables refreshed after a commit, and across
//!    intra-group merges, where the cached evaluator's memoized side
//!    costs must price exactly like a view that never evaluated before.
//!
//! 2. **Group-round agreement.** A whole Alg.-2 group round lands on
//!    the same merge log under either evaluator.
//!
//! End-to-end byte identity of full runs (cached vs scan, at 1, 2 and
//! 8 worker threads) is pinned by the unit tests in `pegasus.rs`: the
//! evaluator is not a public configuration option, so only the crate
//! can drive a whole run on the scan evaluator.

use proptest::prelude::*;

use pgs_core::cost::CostModel;
use pgs_core::exec::Exec;
use pgs_core::weights::NodeWeights;
use pgs_core::working::{
    eval_merge_view, evaluate_group_with, GroupView, MergeEvaluator, Scratch, WorkingSummary,
};
use pgs_core::SuperId;
use pgs_graph::gen::erdos_renyi;
use pgs_graph::Graph;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (8usize..60, any::<u64>()).prop_map(|(n, seed)| {
        let m = (3 * n).min(n * (n - 1) / 2);
        erdos_renyi(n, m, seed)
    })
}

/// Random personalization: weights vary node to node, so per-key sums
/// actually exercise the accumulation order.
fn weights_for(g: &Graph, seed: u64) -> NodeWeights {
    let target = (seed % g.num_nodes() as u64) as u32;
    let alpha = 1.0 + (seed % 97) as f64 / 64.0;
    NodeWeights::personalized(g, &[target], alpha)
}

/// Commits a deterministic pseudo-random merge prefix so supernodes
/// carry several members and non-trivial spans.
fn commit_random_merges(ws: &mut WorkingSummary<'_>, seed: u64, merges: usize) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut live = ws.live_ids();
    for _ in 0..merges.min(live.len().saturating_sub(2)) {
        let i = rng.random_range(0..live.len());
        let j = rng.random_range(0..live.len());
        if i == j {
            continue;
        }
        let (a, b) = (live[i], live[j]);
        let kept = ws.merge(a, b);
        let dead = if kept == a { b } else { a };
        live.retain(|&s| s != dead);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: cached == scan, bit for bit, over every candidate
    /// pair of a random group on a randomly pre-merged summary.
    #[test]
    fn cached_evaluator_is_bitwise_identical_to_scan(
        g in arb_graph(),
        wseed in any::<u64>(),
        mseed in any::<u64>(),
        merges in 0usize..12,
    ) {
        let w = weights_for(&g, wseed);
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        commit_random_merges(&mut ws, mseed, merges);
        ws.refresh_stale(&Exec::serial());
        let mut scratch = Scratch::default();
        let group: Vec<SuperId> = ws.live_ids().into_iter().take(12).collect();
        prop_assume!(group.len() >= 2);
        let mut view = GroupView::with_cache(&ws, &group);
        for i in 0..group.len() {
            for j in (i + 1)..group.len() {
                let scan = ws.eval_merge(group[i], group[j], &mut scratch);
                let cached = view.eval_merge_cached(group[i], group[j], &mut scratch);
                prop_assert!(
                    scan.delta.to_bits() == cached.delta.to_bits(),
                    "delta diverged on pair ({}, {}): scan {} cached {}",
                    group[i], group[j], scan.delta, cached.delta
                );
                prop_assert!(
                    scan.relative.to_bits() == cached.relative.to_bits(),
                    "relative diverged on pair ({}, {}): scan {} cached {}",
                    group[i], group[j], scan.relative, cached.relative
                );
            }
        }
    }

    /// Post-merge group states, where memo hits occur: two cached views
    /// replay the same intra-group merges and, between merges, price
    /// every ordered pair — one in forward order, the other in reverse,
    /// so each side cost is a memo hit in one view where the other
    /// computes it. Between two merges a view's spans refresh to the
    /// same contents whichever pair triggers the refresh, so every price
    /// must agree bit for bit; a repeat pass (all memo hits) must too.
    /// Against a scan view replaying the same merges, prices agree up to
    /// the §7 scoped exception's final-ulp drift — a memo served at the
    /// wrong `log2|S|` would be off by orders of magnitude more.
    #[test]
    fn memoized_side_costs_price_like_fresh_ones(
        g in arb_graph(),
        wseed in any::<u64>(),
        mseed in any::<u64>(),
        local in 1usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let w = weights_for(&g, wseed);
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        commit_random_merges(&mut ws, mseed, 4);
        ws.refresh_stale(&Exec::serial());
        let mut scratch = Scratch::default();
        let mut group: Vec<SuperId> = ws.live_ids().into_iter().take(10).collect();
        prop_assume!(group.len() >= 3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(mseed ^ 0x5EED);
        let mut fwd = GroupView::with_cache(&ws, &group);
        let mut rev = GroupView::with_cache(&ws, &group);
        let mut scan = GroupView::new(&ws);
        for step in 0..=local.min(group.len() - 2) {
            let pairs: Vec<(SuperId, SuperId)> = group
                .iter()
                .flat_map(|&a| group.iter().filter(move |&&b| b != a).map(move |&b| (a, b)))
                .collect();
            let first: Vec<_> = pairs
                .iter()
                .map(|&(a, b)| fwd.eval_merge_cached(a, b, &mut scratch))
                .collect();
            let mut second: Vec<_> = pairs
                .iter()
                .rev()
                .map(|&(a, b)| rev.eval_merge_cached(a, b, &mut scratch))
                .collect();
            second.reverse();
            for (k, &(a, b)) in pairs.iter().enumerate() {
                let s = eval_merge_view(&scan, a, b, &mut scratch);
                for (c, x) in [(first[k].delta, s.delta), (first[k].relative, s.relative)] {
                    prop_assert!(
                        (c - x).abs() <= 1e-9 * x.abs().max(1.0),
                        "pair ({}, {}) after {} local merges: cached {} scan {}",
                        a, b, step, c, x
                    );
                }
                let repeat = fwd.eval_merge_cached(a, b, &mut scratch);
                for other in [second[k], repeat] {
                    prop_assert!(
                        first[k].delta.to_bits() == other.delta.to_bits()
                            && first[k].relative.to_bits() == other.relative.to_bits(),
                        "pair ({}, {}) after {} local merges: {:?} vs {:?}",
                        a, b, step, first[k], other
                    );
                }
            }
            let i = rng.random_range(0..group.len());
            let j = (i + 1 + rng.random_range(0..group.len() - 1)) % group.len();
            let (a, b) = (group[i], group[j]);
            let kept = fwd.merge_local(a, b, &mut scratch);
            prop_assert_eq!(rev.merge_local(a, b, &mut scratch), kept);
            prop_assert_eq!(scan.merge_local(a, b, &mut scratch), kept);
            group.retain(|&s| s == kept || (s != a && s != b));
        }
    }
}

/// The full group round (sampling, intra-group merges, threshold
/// decisions) lands on the same merge log under either evaluator.
/// Merge decisions and eval counts are exactly equal; rejected *scores*
/// are compared with a tiny tolerance, because once a group has merged
/// locally the cached evaluator combines member spans hierarchically
/// while the scan evaluator re-walks the concatenated member list — the
/// same per-pair sums grouped differently, which can differ in the last
/// ulp (the default pipeline always runs exactly one evaluator, so
/// thread-count byte-identity is untouched; see DESIGN.md §7).
///
/// Deliberately a fixed battery rather than a proptest: on a
/// freshly-generated adversarial instance the documented ulp divergence
/// could in principle flip a near-tied `key > best` comparison and make
/// the merge logs legitimately diverge, which would read as a flaky
/// failure. Fixed seeds keep the check broad (64 graph/seed/θ
/// combinations) and deterministic.
#[test]
fn group_rounds_agree_across_evaluators() {
    for case in 0u64..64 {
        let n = 8 + (case as usize * 7) % 52;
        let m = (3 * n).min(n * (n - 1) / 2);
        let g = erdos_renyi(n, m, case.wrapping_mul(0x9E37_79B9));
        let w = weights_for(&g, case.wrapping_mul(31));
        let ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let group: Vec<SuperId> = ws.live_ids();
        let theta = (case % 8) as f64 / 16.0;
        let gseed = case.wrapping_mul(0xDEAD_BEEF);
        let cached = evaluate_group_with(&ws, &group, theta, gseed, false, MergeEvaluator::Cached);
        let scan = evaluate_group_with(&ws, &group, theta, gseed, false, MergeEvaluator::Scan);
        assert_eq!(cached.merges, scan.merges, "case {case}");
        assert_eq!(cached.evals, scan.evals, "case {case}");
        assert_eq!(cached.rejected.len(), scan.rejected.len(), "case {case}");
        for (c, s) in cached.rejected.iter().zip(&scan.rejected) {
            assert!(
                (c - s).abs() <= 1e-12 * s.abs().max(1.0),
                "case {case}: rejected score diverged beyond ulp noise: cached {c} scan {s}"
            );
        }
    }
}
