//! Pins the engine's exact output in tier-1: PeGaSus (10 targets,
//! ratio 0.25) and SSumM on a seeded 3k-node Barabási–Albert graph, at
//! 1 and 2 threads. Every count (evals, merges, iterations, groups) and
//! a digest of the node→supernode assignment plus the sorted superedge
//! list must match the recorded constants exactly, so any change to
//! the evaluate/commit path that is not bit-for-bit neutral fails here
//! rather than only under `--workspace`.

use pegasus_summary::prelude::*;

const NODES: usize = 3_000;
const ATTACH: usize = 5;
const GRAPH_SEED: u64 = 2022;
const RATIO: f64 = 0.25;

/// The recorded run: `(evals, merges, iterations, groups, digest)`.
type Pin = (u64, usize, usize, u64, u64);

const PEGASUS_PIN: Pin = (154_801, 2_069, 15, 6_414, 1_894_519_322_043_739_539);
const SSUMM_PIN: Pin = (203_441, 2_010, 20, 9_032, 10_173_737_986_059_882_172);

/// Ten targets spread over the id space by a fixed multiplicative walk.
fn targets() -> Vec<u32> {
    (0..10u64)
        .map(|i| ((i * 2_654_435_761 + 17) % NODES as u64) as u32)
        .collect()
}

/// FNV-1a over the assignment and the sorted superedge list.
fn digest(s: &Summary) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for u in 0..s.num_nodes() as u32 {
        feed(s.supernode_of(u));
    }
    let mut edges: Vec<(u32, u32)> = s.superedges().map(|(a, b, _)| (a, b)).collect();
    edges.sort_unstable();
    for (a, b) in edges {
        feed(a);
        feed(b);
    }
    h
}

fn pin_of(out: &RunOutput) -> Pin {
    (
        out.stats.evals,
        out.stats.merges,
        out.stats.iterations,
        out.stats.groups,
        digest(&out.summary),
    )
}

#[test]
fn pegasus_output_is_pinned_at_1_and_2_threads() {
    let g = barabasi_albert(NODES, ATTACH, GRAPH_SEED);
    let t = targets();
    let req = SummarizeRequest::new(Budget::Ratio(RATIO)).targets(&t);
    for threads in [1usize, 2] {
        let out = Pegasus(PegasusConfig {
            num_threads: threads,
            ..Default::default()
        })
        .run(&g, &req)
        .unwrap();
        assert!(out.summary.size_bits() <= RATIO * g.size_bits() + 1e-9);
        assert_eq!(pin_of(&out), PEGASUS_PIN, "pegasus at {threads} threads");
    }
}

#[test]
fn ssumm_output_is_pinned_at_1_and_2_threads() {
    let g = barabasi_albert(NODES, ATTACH, GRAPH_SEED);
    let req = SummarizeRequest::new(Budget::Ratio(RATIO));
    for threads in [1usize, 2] {
        let out = Ssumm(SsummConfig {
            num_threads: threads,
            ..Default::default()
        })
        .run(&g, &req)
        .unwrap();
        assert!(out.summary.size_bits() <= RATIO * g.size_bits() + 1e-9);
        assert_eq!(pin_of(&out), SSUMM_PIN, "ssumm at {threads} threads");
    }
}
