//! Criterion benchmark for the parallel evaluate/commit engine:
//! end-to-end `summarize` at 1, 2, and `available_parallelism` worker
//! threads.
//! On a multi-core box the N-thread rows should show the speedup; on a
//! single core they bound the engine's coordination overhead (the rows
//! should be within a few percent of each other).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pgs_core::pegasus::{summarize, PegasusConfig};
use pgs_graph::gen::barabasi_albert;

fn thread_counts() -> Vec<usize> {
    let hw = rayon::current_num_threads();
    let mut counts = vec![1, 2, hw];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn bench_parallel(c: &mut Criterion) {
    let g = barabasi_albert(10_000, 5, 1);
    let budget = 0.4 * g.size_bits();

    let mut group = c.benchmark_group("parallel_summarize_10k");
    group.sample_size(10);
    for threads in thread_counts() {
        let cfg = PegasusConfig {
            num_threads: threads,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(threads), &cfg, |b, cfg| {
            b.iter(|| black_box(summarize(&g, &[0, 1], budget, cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
