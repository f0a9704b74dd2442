//! Property tests for pgs-core internals: the evolving summary's
//! bookkeeping must stay consistent under arbitrary merge sequences, and
//! the greedy engine's incremental quantities must agree with
//! from-scratch recomputation.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pgs_core::checkpoint::{RunCheckpoint, ALGO_PEGASUS};
use pgs_core::cost::{best_pair_cost, pair_cost, CostModel};
use pgs_core::error::{personalized_error, reconstruction_error};
use pgs_core::exec::Exec;
use pgs_core::pegasus::RunStats;
use pgs_core::shingle::attach_signatures;
use pgs_core::sparsify::sparsify;
use pgs_core::weights::NodeWeights;
use pgs_core::working::{Scratch, WorkingSummary};
use pgs_core::{Budget, Pegasus, SummarizeRequest, Summarizer, Summary, SuperId};
use pgs_graph::gen::erdos_renyi;
use pgs_graph::Graph;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (6usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let m = (2 * n).min(n * (n - 1) / 2);
        erdos_renyi(n, m, seed)
    })
}

/// `s`'s neighbor weights from a fresh member-edge scan, each sum
/// accumulated in visit order (members in list order, neighbors in
/// adjacency order) — the flat order the tables must reproduce.
fn rescan(ws: &WorkingSummary<'_>, s: SuperId) -> BTreeMap<SuperId, f64> {
    let (g, w) = (ws.graph(), ws.weights());
    let mut sums = BTreeMap::new();
    for &u in ws.members(s) {
        for &v in g.neighbors(u) {
            *sums.entry(ws.supernode_of(v)).or_insert(0.0) += w.node(u) * w.node(v);
        }
    }
    sums
}

/// Independent superedge model of Alg. 2's merge: drop every pair
/// incident to either side, then re-add the survivor's cost-reducing
/// pairs, priced from a fresh scan.
fn model_merge(
    ws: &WorkingSummary<'_>,
    model: &mut BTreeSet<(SuperId, SuperId)>,
    kept: SuperId,
    dead: SuperId,
) {
    model.retain(|&(a, b)| ![a, b].iter().any(|&x| x == kept || x == dead));
    for (x, e_raw) in rescan(ws, kept) {
        let e = if x == kept { e_raw / 2.0 } else { e_raw };
        if best_pair_cost(ws.pair_tot(kept, x), e, ws.log_s(), ws.params()).1 {
            model.insert((kept.min(x), kept.max(x)));
        }
    }
}

/// Every table against the fresh scan and the superedge model: exact
/// keys and bits always, values bit for bit unless marked stale;
/// `has_superedge` symmetric; `|P|` equal to the model's.
fn check_tables(
    ws: &WorkingSummary<'_>,
    model: &BTreeSet<(SuperId, SuperId)>,
) -> Result<(), TestCaseError> {
    for s in ws.live_iter() {
        let fresh = rescan(ws, s);
        let table: Vec<(SuperId, f64, bool)> = ws.neighbor_table(s).collect();
        let keys: Vec<SuperId> = table.iter().map(|t| t.0).collect();
        prop_assert!(keys.iter().eq(fresh.keys()), "keys of {}: {:?}", s, keys);
        for (&(x, v, bit), (_, &f)) in table.iter().zip(&fresh) {
            if !ws.is_table_stale(s) {
                prop_assert!(v.to_bits() == f.to_bits(), "value of {} in {}", x, s);
            }
            prop_assert!(
                bit == model.contains(&(s.min(x), s.max(x))),
                "bit of {} in {}",
                x,
                s
            );
            prop_assert_eq!(ws.has_superedge(s, x), ws.has_superedge(x, s));
        }
    }
    prop_assert_eq!(ws.num_superedges(), model.len());
    for &(a, b) in model {
        prop_assert!(ws.is_live(a) && ws.is_live(b) && ws.has_superedge(a, b));
    }
    Ok(())
}

/// Signature lanes the batched-commit test attaches.
const LANES: usize = 3;

/// `ws` after the same pre-merges the batched-commit test starts from,
/// with a signature bank attached.
fn premerged<'a>(
    g: &'a Graph,
    w: &'a NodeWeights,
    pre: &[(SuperId, SuperId)],
    mut model: Option<&mut BTreeSet<(SuperId, SuperId)>>,
) -> Result<WorkingSummary<'a>, TestCaseError> {
    let mut ws = WorkingSummary::new(g, w, CostModel::ErrorCorrection);
    attach_signatures(&mut ws, 7, LANES, &Exec::serial());
    for &(a, b) in pre {
        let kept = ws.merge(a, b);
        if let Some(model) = model.as_deref_mut() {
            model_merge(&ws, model, kept, if kept == a { b } else { a });
            check_tables(&ws, model)?;
        }
    }
    Ok(ws)
}

/// Random disjoint groups over `ws`'s live supernodes, each with a
/// random merge log whose keep/dead choices are simulated by member
/// count. The first group (when it has four members) opens with a chain
/// of three merges into its largest member, so one survivor absorbs
/// several merges; groups are drawn from the whole id range, so their
/// members neighbor other groups.
fn draw_logs(ws: &WorkingSummary<'_>, rng: &mut impl rand::Rng) -> Vec<Vec<(SuperId, SuperId)>> {
    use rand::seq::SliceRandom;
    /// Logs `(a, b)` and returns its survivor, the larger side (`a` on a
    /// tie), as the commit decides it.
    fn merge(
        a: SuperId,
        b: SuperId,
        size: &mut BTreeMap<SuperId, usize>,
        alive: &mut Vec<SuperId>,
        log: &mut Vec<(SuperId, SuperId)>,
    ) -> SuperId {
        let (keep, dead) = if size[&a] >= size[&b] { (a, b) } else { (b, a) };
        let absorbed = size[&dead];
        *size.entry(keep).or_default() += absorbed;
        alive.retain(|&s| s != dead);
        log.push((a, b));
        keep
    }
    let mut ids = ws.live_ids();
    ids.shuffle(rng);
    let mut size: BTreeMap<SuperId, usize> =
        ids.iter().map(|&s| (s, ws.members(s).len())).collect();
    let mut logs = Vec::new();
    let mut rest = ids.as_slice();
    while rest.len() >= 2 && logs.len() < 8 {
        let take = rng.random_range(2..=rest.len().min(16));
        let (group, tail) = rest.split_at(take);
        rest = tail;
        if rng.random_range(0..4) == 0 {
            logs.push(Vec::new()); // a group that merged nothing
            continue;
        }
        let mut alive = group.to_vec();
        let mut log = Vec::new();
        if logs.is_empty() && alive.len() >= 4 {
            let mut hub = *alive.iter().max_by_key(|&&s| (size[&s], s)).unwrap();
            for _ in 0..3 {
                let others: Vec<SuperId> = alive.iter().copied().filter(|&s| s != hub).collect();
                let other = others[rng.random_range(0..others.len())];
                hub = merge(hub, other, &mut size, &mut alive, &mut log);
            }
        }
        for _ in 0..rng.random_range(0..alive.len()) {
            let i = rng.random_range(0..alive.len());
            let j = rng.random_range(0..alive.len());
            if i != j {
                merge(alive[i], alive[j], &mut size, &mut alive, &mut log);
            }
        }
        logs.push(log);
    }
    logs
}

/// Everything a commit must agree on, bit for bit: per node its
/// supernode; per live supernode its members in order, weight-sum bits,
/// signature lanes and table keys and bits (and, once `values`, the
/// table values); `|S|` and `|P|`.
type Fingerprint = (
    Vec<SuperId>,
    Vec<(
        SuperId,
        Vec<u32>,
        u64,
        u64,
        Vec<u64>,
        Vec<(SuperId, bool, Option<u64>)>,
    )>,
    usize,
    usize,
);

fn fingerprint(ws: &WorkingSummary<'_>, values: bool) -> Fingerprint {
    let nodes = ws.graph().nodes().map(|u| ws.supernode_of(u)).collect();
    let supers = ws
        .live_iter()
        .map(|s| {
            (
                s,
                ws.members(s).to_vec(),
                ws.wsum_raw(s).to_bits(),
                ws.sqsum_raw(s).to_bits(),
                (0..LANES).map(|k| ws.signature(s, k)).collect(),
                ws.neighbor_table(s)
                    .map(|(x, v, bit)| (x, bit, values.then(|| v.to_bits())))
                    .collect(),
            )
        })
        .collect();
    (nodes, supers, ws.num_supernodes(), ws.num_superedges())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A batch of merge logs committed at once, at 1, 2 and 8 threads,
    /// leaves exactly the state of applying the same merges one at a
    /// time in global order — which `check_tables` holds against the
    /// independent superedge model after every single merge.
    #[test]
    fn batched_commit_equals_one_merge_at_a_time(
        n in 16usize..80,
        graph_seed in any::<u64>(),
        seed in any::<u64>(),
        pre in 0usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let g = erdos_renyi(n, 3 * n, graph_seed);
        let w = NodeWeights::personalized(&g, &[0], 1.5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // A few committed merges first: multi-member supernodes and
        // stale tables going into the batch.
        let mut pre_merges = Vec::new();
        let mut live = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection).live_ids();
        for _ in 0..pre {
            let i = rng.random_range(0..live.len());
            let j = rng.random_range(0..live.len());
            if i != j {
                pre_merges.push((live[i], live[j]));
                live.remove(i.max(j));
                live.remove(i.min(j));
            }
        }
        let mut model: BTreeSet<(SuperId, SuperId)> = g.edges().collect();
        let mut one_by_one = premerged(&g, &w, &pre_merges, Some(&mut model))?;
        let logs = draw_logs(&one_by_one, &mut rng);
        for &(a, b) in logs.iter().flatten() {
            let kept = one_by_one.merge(a, b);
            model_merge(&one_by_one, &mut model, kept, if kept == a { b } else { a });
            check_tables(&one_by_one, &model)?;
        }
        let expect = fingerprint(&one_by_one, false);
        one_by_one.refresh_stale(&Exec::serial());
        let expect_values = fingerprint(&one_by_one, true);

        for threads in [1usize, 2, 8] {
            let mut batched = premerged(&g, &w, &pre_merges, None)?;
            let beats = std::sync::atomic::AtomicUsize::new(0);
            batched.commit(logs.iter().map(Vec::as_slice), &Exec::new(threads), || {
                beats.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            prop_assert!(beats.into_inner() >= logs.len(), "one beat per log");
            check_tables(&batched, &model)?;
            prop_assert!(fingerprint(&batched, false) == expect, "state at {} threads", threads);
            batched.refresh_stale(&Exec::new(threads));
            prop_assert!(
                fingerprint(&batched, true) == expect_values,
                "refreshed values at {} threads",
                threads
            );
        }
    }

    /// After any random merge sequence: membership maps stay mutually
    /// consistent, weight sums match recomputation, and the superedge
    /// count matches the neighbor tables.
    #[test]
    fn working_summary_invariants_hold_under_merges(
        g in arb_graph(),
        seed in any::<u64>(),
        merges in 1usize..20,
    ) {
        use rand::{Rng, SeedableRng};
        let w = NodeWeights::personalized(&g, &[0], 1.5);
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut live = ws.live_ids();
        for _ in 0..merges.min(live.len() - 1) {
            let i = rng.random_range(0..live.len());
            let j = rng.random_range(0..live.len());
            if i == j { continue; }
            let (a, b) = (live[i], live[j]);
            let kept = ws.merge(a, b);
            let dead = if kept == a { b } else { a };
            live.retain(|&s| s != dead);
        }
        // Membership consistency.
        for &s in &live {
            for &u in ws.members(s) {
                prop_assert_eq!(ws.supernode_of(u), s);
            }
        }
        let member_total: usize = live.iter().map(|&s| ws.members(s).len()).sum();
        prop_assert_eq!(member_total, g.num_nodes());
        prop_assert_eq!(ws.num_supernodes(), live.len());
        // Superedge count vs the neighbor tables.
        let mut count = 0usize;
        for &s in &live {
            for x in ws.superedge_neighbors(s) {
                prop_assert!(ws.is_live(x), "superedge to dead supernode");
                prop_assert!(ws.has_superedge(x, s), "asymmetric superedge");
                if s <= x { count += 1; }
            }
        }
        prop_assert_eq!(count, ws.num_superedges());
    }

    /// The persistent neighbor tables stay exact through random merge
    /// sequences, superedge removals, a checkpoint round trip and
    /// sparsification (DESIGN.md §7).
    #[test]
    fn neighbor_tables_stay_exact(
        g in arb_graph(),
        seed in any::<u64>(),
        merges in 1usize..30,
        drops in 0usize..6,
    ) {
        use rand::{Rng, SeedableRng};
        let w = NodeWeights::personalized(&g, &[0], 1.5);
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut model: BTreeSet<(SuperId, SuperId)> = g.edges().collect();
        check_tables(&ws, &model)?;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut live = ws.live_ids();
        for _ in 0..merges.min(live.len() - 1) {
            let i = rng.random_range(0..live.len());
            let j = rng.random_range(0..live.len());
            if i == j { continue; }
            let (a, b) = (live[i], live[j]);
            let kept = ws.merge(a, b);
            let dead = if kept == a { b } else { a };
            live.retain(|&s| s != dead);
            model_merge(&ws, &mut model, kept, dead);
            check_tables(&ws, &model)?;
        }
        for _ in 0..drops {
            let Some(&(a, b)) = model.iter().nth(rng.random_range(0..model.len().max(1))) else {
                break;
            };
            prop_assert!(ws.remove_superedge(b, a));
            prop_assert!(!ws.remove_superedge(a, b));
            model.remove(&(a, b));
            check_tables(&ws, &model)?;
        }

        // A checkpoint round trip rebuilds every table fresh.
        let ck = RunCheckpoint::capture(ALGO_PEGASUS, 2, 0.5, f64::INFINITY, RunStats::default(), &ws, &vec![0.0; g.num_nodes()]);
        let ck = RunCheckpoint::decode(&ck.encode()).unwrap();
        let restored = ck.restore_working(&g, &w, CostModel::ErrorCorrection).unwrap();
        check_tables(&restored, &model)?;
        prop_assert!(restored.live_iter().all(|s| !restored.is_table_stale(s)));

        // Sparsification prices from refreshed tables and keeps them
        // consistent with what it drops.
        let budget = ws.size_bits() - 2.0 * ws.log_s() * (model.len() / 2) as f64;
        let pressed = ws.size_bits() > budget && ws.log_s() > 0.0;
        sparsify(&mut ws, budget, &Exec::new(2));
        model.retain(|&(a, b)| ws.has_superedge(a, b));
        check_tables(&ws, &model)?;
        prop_assert!(!pressed || ws.live_iter().all(|s| !ws.is_table_stale(s)));
    }

    /// eval_merge's delta equals the actual change in the global
    /// pair-cost sum restricted to pairs incident to the merged pair
    /// (non-incident pairs are unaffected except for log2|S| repricing,
    /// which Sect. III-D deliberately fixes).
    #[test]
    fn eval_merge_matches_global_recomputation(g in arb_graph(), seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let w = NodeWeights::personalized(&g, &[1], 1.25);
        let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
        let mut scratch = Scratch::default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = g.num_nodes() as u32;
        let a = rng.random_range(0..n);
        let b = (a + 1 + rng.random_range(0..n - 1)) % n;
        prop_assume!(a != b);

        let block_e = |ws: &WorkingSummary<'_>, x: u32, y: u32| -> f64 {
            let mut e = 0.0;
            for &u in ws.members(x) {
                for &v in ws.members(y) {
                    if x == y && u >= v { continue; }
                    if g.has_edge(u, v) { e += w.pair(u, v); }
                }
            }
            e
        };
        // "Before": every pair {x, y} with x or y in {a, b}, counted once.
        let live = ws.live_ids();
        let log_s = ws.log_s();
        let mut before = 0.0;
        for &x in &live {
            for y in [a, b] {
                if x == a && y == b { continue; } // (a,b) counted from (b,a) side
                let (lo, hi) = (x.min(y), x.max(y));
                if x == y && x == b && a == b { continue; }
                // Count (x,a) pairs once and (x,b) pairs once; the pair
                // (a,b) arrives exactly once via x == b, y == a? No:
                // y only ranges over {a,b}; (a,b) arrives via x == b,
                // y == a being skipped... keep it simple: accumulate all
                // and correct below.
                before += pair_cost(ws.has_superedge(lo, hi), ws.pair_tot(lo, hi),
                    block_e(&ws, lo, hi), log_s, ws.params());
            }
        }
        // The double loop counted: (x,a) for all x (incl. a,b) plus
        // (x,b) for all x except the skipped (a,b). Self pairs (a,a)
        // and (b,b) appear once each; the cross pair (a,b) appears once
        // via x == b, y == a and once via x == a... recompute precisely:
        // entries were (x,a) ∀x and (x,b) ∀x≠a. Pair {a,b} appeared as
        // (b,a) and... (a,b) skipped, (b,a) kept → once. Pair {a,a}:
        // (a,a) once. {b,b}: (b,b) once. Other x: (x,a) and (x,b) once
        // each. Exactly the incident-pair set, each once.

        let eval = ws.eval_merge(a, b, &mut scratch);
        let kept = ws.merge(a, b);

        // "After": every pair {kept, x} for live x, counted once
        // (x == kept gives the self pair).
        let log_s2 = ws.log_s();
        let mut after = 0.0;
        for &x in &ws.live_ids() {
            let (lo, hi) = (x.min(kept), x.max(kept));
            let e = block_e(&ws, lo, hi);
            if e == 0.0 && !ws.has_superedge(lo, hi) && x != kept {
                continue; // zero-cost pair
            }
            after += pair_cost(ws.has_superedge(lo, hi), ws.pair_tot(lo, hi),
                e, log_s2, ws.params());
        }
        prop_assert!((eval.delta - (before - after)).abs() < 1e-6 * before.abs().max(1.0),
            "delta {} vs brute {}", eval.delta, before - after);
    }

    /// Personalized error of a PeGaSus output never exceeds the trivial
    /// empty-summary error (2 × total pair weight of E).
    #[test]
    fn error_bounded_by_trivial_summary(g in arb_graph(), ratio in 0.3f64..0.9) {
        let req = SummarizeRequest::new(Budget::Bits(ratio * g.size_bits())).targets(&[0]);
        let s = Pegasus::default().run(&g, &req).unwrap().summary;
        let err = reconstruction_error(&g, &s).unwrap();
        prop_assert!(err <= 2.0 * g.num_edges() as f64 + 1e-9);
    }

    /// Identity summaries have zero error under any personalization.
    #[test]
    fn identity_error_zero(g in arb_graph(), alpha in 1.0f64..2.0) {
        let s = Summary::identity(&g);
        let w = NodeWeights::personalized(&g, &[0], alpha);
        prop_assert!(personalized_error(&g, &s, &w).unwrap().abs() < 1e-9);
    }
}
