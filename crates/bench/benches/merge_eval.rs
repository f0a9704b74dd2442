//! Criterion micro-benchmarks for the merge-evaluation hot loop
//! (DESIGN.md §7): the group-local span cache vs the member-edge-rescan
//! evaluator, on single evaluations and on whole Alg.-2 group rounds.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pgs_core::cost::CostModel;
use pgs_core::exec::Exec;
use pgs_core::weights::NodeWeights;
use pgs_core::working::{evaluate_group_with, GroupView, MergeEvaluator, Scratch, WorkingSummary};
use pgs_core::SuperId;
use pgs_graph::gen::barabasi_albert;
use pgs_graph::Graph;

/// A summary state mid-run: every even singleton merged with its odd
/// neighbor id, so supernodes carry multiple members and non-trivial
/// neighbor spans — the regime the cache is built for. Stale tables are
/// refreshed, as the engine does before every evaluate phase.
fn premerged<'a>(g: &'a Graph, w: &'a NodeWeights, pairs: u32) -> WorkingSummary<'a> {
    let mut ws = WorkingSummary::new(g, w, CostModel::ErrorCorrection);
    let mut scratch = Scratch::default();
    for i in 0..pairs {
        ws.merge(
            ws.supernode_of(2 * i),
            ws.supernode_of(2 * i + 1),
            &mut scratch,
        );
    }
    ws.refresh_stale(&Exec::serial());
    ws
}

fn bench_merge_eval(c: &mut Criterion) {
    let g = barabasi_albert(10_000, 5, 1);
    let w = NodeWeights::personalized(&g, &[0, 1, 2], 1.25);
    let ws = premerged(&g, &w, 2_000);
    let group: Vec<SuperId> = ws.live_ids().into_iter().take(400).collect();

    c.bench_function("merge_eval/pair_scan", |b| {
        let view = GroupView::new(&ws);
        let mut scratch = Scratch::default();
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 2) % (group.len() - 1);
            black_box(pgs_core::working::eval_merge_view(
                &view,
                group[i],
                group[i + 1],
                &mut scratch,
            ))
        })
    });

    c.bench_function("merge_eval/pair_cached", |b| {
        let mut scratch = Scratch::default();
        let mut view = GroupView::with_cache(&ws, &group);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 2) % (group.len() - 1);
            black_box(view.eval_merge_cached(group[i], group[i + 1], &mut scratch))
        })
    });

    c.bench_function("merge_eval/group_round_scan", |b| {
        b.iter(|| {
            black_box(evaluate_group_with(
                &ws,
                &group,
                0.2,
                7,
                false,
                MergeEvaluator::Scan,
            ))
        })
    });

    c.bench_function("merge_eval/group_round_cached", |b| {
        b.iter(|| {
            black_box(evaluate_group_with(
                &ws,
                &group,
                0.2,
                7,
                false,
                MergeEvaluator::Cached,
            ))
        })
    });
}

criterion_group!(benches, bench_merge_eval);
criterion_main!(benches);
