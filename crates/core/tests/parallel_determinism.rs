//! The parallel engine's headline guarantee: for a fixed seed the
//! summary is **byte-identical at any thread count** — same supernode
//! assignment for every node, same superedge set, same size. All
//! randomness is drawn serially by the driver and workers are pure
//! functions of their inputs (see DESIGN.md §2), so 1, 2, and 8 workers
//! must walk the exact same merge sequence.

use proptest::prelude::*;

use pgs_core::api::{Budget, Pegasus, Ssumm, SummarizeRequest, Summarizer};
use pgs_core::{PegasusConfig, SsummConfig, Summary};
use pgs_graph::gen::{barabasi_albert, erdos_renyi, planted_partition};
use pgs_graph::Graph;

/// Full structural fingerprint of a summary: per-node assignment plus
/// the sorted superedge list.
fn fingerprint(s: &Summary) -> (Vec<u32>, Vec<(u32, u32)>) {
    let assignment: Vec<u32> = (0..s.num_nodes() as u32)
        .map(|u| s.supernode_of(u))
        .collect();
    let mut superedges: Vec<(u32, u32)> = s.superedges().map(|(a, b, _)| (a, b)).collect();
    superedges.sort_unstable();
    (assignment, superedges)
}

fn pegasus_at(g: &Graph, targets: &[u32], budget: f64, threads: usize, seed: u64) -> Summary {
    let cfg = PegasusConfig {
        num_threads: threads,
        seed,
        ..Default::default()
    };
    let req = SummarizeRequest::new(Budget::Bits(budget)).targets(targets);
    Pegasus(cfg).run(g, &req).unwrap().summary
}

#[test]
fn pegasus_identical_for_threads_1_2_8() {
    let graphs = [
        barabasi_albert(600, 4, 7),
        planted_partition(500, 10, 2_500, 400, 3),
    ];
    for (gi, g) in graphs.iter().enumerate() {
        let budget = 0.4 * g.size_bits();
        let reference = fingerprint(&pegasus_at(g, &[0, 1], budget, 1, 42));
        for threads in [2, 8] {
            let got = fingerprint(&pegasus_at(g, &[0, 1], budget, threads, 42));
            assert_eq!(
                got, reference,
                "graph #{gi}: {threads}-thread run diverged from 1-thread"
            );
        }
    }
}

#[test]
fn pegasus_auto_threads_matches_serial() {
    // num_threads = 0 (hardware default) must land on the same summary
    // as an explicit single worker, whatever this machine has.
    let g = barabasi_albert(400, 3, 11);
    let budget = 0.5 * g.size_bits();
    let serial = fingerprint(&pegasus_at(&g, &[5], budget, 1, 9));
    let auto = fingerprint(&pegasus_at(&g, &[5], budget, 0, 9));
    assert_eq!(auto, serial);
}

#[test]
fn ssumm_identical_for_threads_1_2_8() {
    let g = planted_partition(400, 8, 1_800, 300, 5);
    let budget = 0.45 * g.size_bits();
    let at = |threads: usize| {
        let cfg = SsummConfig {
            num_threads: threads,
            ..Default::default()
        };
        let req = SummarizeRequest::new(Budget::Bits(budget));
        fingerprint(&Ssumm(cfg).run(&g, &req).unwrap().summary)
    };
    let reference = at(1);
    for threads in [2, 8] {
        assert_eq!(at(threads), reference, "{threads}-thread SSumM diverged");
    }
}

#[test]
fn run_stats_are_thread_count_independent() {
    let g = barabasi_albert(500, 4, 2);
    let budget = 0.35 * g.size_bits();
    let at = |threads: usize| {
        let cfg = PegasusConfig {
            num_threads: threads,
            ..Default::default()
        };
        let req = SummarizeRequest::new(Budget::Bits(budget)).targets(&[0]);
        Pegasus(cfg).run(&g, &req).unwrap().stats
    };
    let r1 = at(1);
    for threads in [2, 8] {
        let rt = at(threads);
        assert_eq!(rt.iterations, r1.iterations);
        assert_eq!(rt.merges, r1.merges);
        assert_eq!(rt.sparsified, r1.sparsified);
        assert!((rt.final_theta - r1.final_theta).abs() < 1e-15);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel and serial runs meet the same budget on random graphs —
    /// and, stronger, produce the same summary.
    #[test]
    fn parallel_and_serial_meet_same_budget(
        n in 30usize..120,
        seed in any::<u64>(),
        ratio in 0.3f64..0.8,
    ) {
        let m = (3 * n).min(n * (n - 1) / 2);
        let g = erdos_renyi(n, m, seed);
        let budget = ratio * g.size_bits();
        let serial = pegasus_at(&g, &[0], budget, 1, seed);
        let parallel = pegasus_at(&g, &[0], budget, 8, seed);
        // The membership floor |V|·log2|S| can exceed tiny budgets; both
        // engines must then have done all they can, identically.
        let floor = g.num_nodes() as f64
            * (serial.num_supernodes().max(2) as f64).log2();
        prop_assert!(serial.size_bits() <= budget.max(floor) + 1e-6);
        prop_assert!(parallel.size_bits() <= budget.max(floor) + 1e-6);
        prop_assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    }
}
