//! Further sparsification (Sect. III-F).
//!
//! If the summary still exceeds the budget after `t_max` iterations,
//! superedges are dropped in increasing order of their pair cost
//! `Cost_AB` (Eq. 6) until the size constraint is met.

use crate::cost::cost_with_superedge;
use crate::exec::Exec;
use crate::summary::SuperId;
use crate::working::WorkingSummary;

/// Drops superedges in ascending `Cost_AB` order until
/// `Size(G̅) ≤ budget_bits` (Alg. 1 lines 11–13).
///
/// Dropping superedges does not change `|S|`, so each drop removes
/// exactly `2·log2|S|` bits; the number of drops needed is known up
/// front. Pricing reads the persistent neighbor tables (DESIGN.md §7),
/// whose every value is the flat member-edge sum: each
/// superedge `{a, b}` is priced once, from its smaller endpoint's table
/// entry. Pricing fans out over contiguous ranges of the supernode *id
/// space*, and every price is a pure function of one table entry, so
/// chunk boundaries and thread counts cannot perturb it. Prices sort
/// under the total order `(cost, a, b)`, so equal-cost superedges drop
/// in the same order at any thread count.
pub fn sparsify(ws: &mut WorkingSummary<'_>, budget_bits: f64, exec: &Exec) {
    let log_s = ws.log_s();
    if log_s == 0.0 || ws.size_bits() <= budget_bits {
        return;
    }

    let params = *ws.params();
    let n = ws.graph().num_nodes();
    let ranges: Vec<(u32, u32)> = {
        let chunk = n.div_ceil(exec.threads().max(1)).max(1);
        (0..n)
            .step_by(chunk)
            .map(|lo| (lo as u32, (lo + chunk).min(n) as u32))
            .collect()
    };
    let ws_ref = &*ws;
    let priced_parts = exec.map_indexed(&ranges, |_, &(lo, hi)| {
        let mut priced: Vec<(f64, SuperId, SuperId)> = Vec::new();
        for a in lo..hi {
            if !ws_ref.is_live(a) {
                continue;
            }
            for (b, e_raw, superedge) in ws_ref.neighbor_table(a) {
                if !superedge || b < a {
                    continue;
                }
                // Intra-supernode weight is summed from both endpoints;
                // halve it for the self-loop.
                let e = if b == a { e_raw / 2.0 } else { e_raw };
                let tot = ws_ref.pair_tot(a, b);
                priced.push((cost_with_superedge(tot, e, log_s, &params), a, b));
            }
        }
        priced
    });
    let mut priced: Vec<(f64, SuperId, SuperId)> = priced_parts.into_iter().flatten().collect();
    #[expect(
        clippy::expect_used,
        reason = "merge costs are finite sums of finite terms; NaN cannot reach the sort"
    )]
    priced.sort_unstable_by(|x, y| {
        x.0.partial_cmp(&y.0)
            .expect("finite costs")
            .then(x.1.cmp(&y.1))
            .then(x.2.cmp(&y.2))
    });

    for (_, a, b) in priced {
        if ws.size_bits() <= budget_bits {
            break;
        }
        ws.remove_superedge(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::weights::NodeWeights;
    use pgs_graph::gen::barabasi_albert;

    #[test]
    fn meets_budget_exactly_when_possible() {
        let g = barabasi_albert(100, 3, 1);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let budget = 0.4 * g.size_bits();
        sparsify(&mut ws, budget, &Exec::serial());
        assert!(ws.size_bits() <= budget, "{} > {budget}", ws.size_bits());
    }

    #[test]
    fn no_op_when_already_within_budget() {
        let g = barabasi_albert(50, 2, 1);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let before = ws.num_superedges();
        let generous = ws.size_bits() + 1.0;
        sparsify(&mut ws, generous, &Exec::serial());
        assert_eq!(ws.num_superedges(), before);
    }

    #[test]
    fn drops_cheapest_superedges_first() {
        // After merging the twin pair {0,1} of a 4-node graph, the
        // remaining superedges have different costs; dropping one should
        // remove the cheaper one (lower edge weight / sparser block).
        let g = pgs_graph::builder::graph_from_edges(5, &[(0, 2), (0, 3), (1, 2), (1, 3), (3, 4)]);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let c = ws.merge(0, 1); // twins: superedges {C,2},{C,3},{3,4}
        assert_eq!(ws.num_superedges(), 3);
        // Budget forcing exactly one drop: each superedge is 2*log2(4)=4 bits.
        let budget = ws.size_bits() - 1.0;
        sparsify(&mut ws, budget, &Exec::serial());
        assert_eq!(ws.num_superedges(), 2);
        // The {C,2} and {C,3} blocks cover 2 node pairs with 2 edges each
        // (cost = superedge bits only); {3,4} covers 1 pair with 1 edge.
        // All are exact, so cost ranking is by superedge bits (equal) —
        // any drop is acceptable; the important invariant is the budget.
        assert!(ws.size_bits() <= budget);
        let _ = c;
    }

    #[test]
    fn empty_budget_drops_everything() {
        let g = barabasi_albert(30, 2, 2);
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        // |V| log2|S| bits remain even with zero superedges; ask for that.
        let floor = 30.0 * (30f64).log2();
        sparsify(&mut ws, floor, &Exec::serial());
        assert_eq!(ws.num_superedges(), 0);
        assert!(ws.size_bits() <= floor + 1e-9);
    }

    #[test]
    fn parallel_pricing_matches_serial() {
        // Same drops at any thread count / chunking of the id space.
        let g = barabasi_albert(200, 4, 17);
        let w = NodeWeights::uniform(g.num_nodes());
        let budget = 0.35 * g.size_bits();
        let fingerprint = |threads: usize| {
            let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
            for s in 0..40u32 {
                ws.merge(ws.supernode_of(2 * s), ws.supernode_of(2 * s + 1));
            }
            sparsify(&mut ws, budget, &Exec::new(threads));
            let mut edges: Vec<(SuperId, SuperId)> = Vec::new();
            for s in ws.live_iter() {
                for x in ws.superedge_neighbors(s) {
                    if s <= x {
                        edges.push((s, x));
                    }
                }
            }
            edges.sort_unstable();
            edges
        };
        let serial = fingerprint(1);
        for threads in [2, 3, 8] {
            assert_eq!(fingerprint(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn inexact_blocks_cost_more_and_survive() {
        // Twins {0,1} with shared neighbors {2,3} merge exactly (block
        // cost = superedge bits only), while merging the non-twins {4,5}
        // (neighbors {6} and {6,7}) produces an inexact block with a
        // correction cost on top. Under the paper's ascending-Cost_AB
        // order, the exact (cheaper) superedges drop before the inexact
        // (more expensive) one.
        let g = pgs_graph::builder::graph_from_edges(
            8,
            &[(0, 2), (0, 3), (1, 2), (1, 3), (4, 6), (5, 6), (5, 7)],
        );
        let w = NodeWeights::uniform(g.num_nodes());
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let c_twins = ws.merge(0, 1);
        let c_mixed = ws.merge(4, 5);
        // Mixed block {45}-{6}: exact (both 4-6 and 5-6 exist). The
        // {45}-{7} block: tot 2, e 1 -> superedge only if worth it.
        assert!(ws.has_superedge(c_twins, 2));
        let budget = ws.size_bits() - 1.0; // force exactly one drop
        let before = ws.num_superedges();
        sparsify(&mut ws, budget, &Exec::serial());
        assert_eq!(ws.num_superedges(), before - 1);
        assert!(ws.size_bits() <= budget);
        let _ = c_mixed;
    }
}
