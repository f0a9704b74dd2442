//! Pins the engine's exact output in tier-1: PeGaSus (10 targets,
//! ratio 0.25) and SSumM on a seeded 3k-node Barabási–Albert graph, at
//! 1, 2 and 8 threads. Every count (evals, merges, iterations, groups)
//! and a digest of the node→supernode assignment plus the sorted
//! superedge list must match the recorded constants exactly, so any
//! change to the evaluate/commit path that is not bit-for-bit neutral,
//! or that makes the output depend on the thread count, fails here.
//! The same runs' final θ, `sparsified` flag and the checkpoint written
//! after iteration 5 are pinned too (at 1, 2 and 8 threads), so a change
//! to the threshold rule or to what a checkpoint carries fails as well.
//! S2L's output is pinned on a 600-node graph of the same family: its
//! centers' L1 masses are sums over hash maps in insertion order, and
//! the pin fails if that order or the sum's rounding changes.

use std::sync::{Arc, Mutex};

use pegasus_summary::core::{CheckpointSink, RunCheckpoint};
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
fn pegasus_output_is_pinned_at_1_2_and_8_threads() {
    let g = barabasi_albert(NODES, ATTACH, GRAPH_SEED);
    let t = targets();
    let req = SummarizeRequest::new(Budget::Ratio(RATIO)).targets(&t);
    for threads in [1usize, 2, 8] {
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
fn ssumm_output_is_pinned_at_1_2_and_8_threads() {
    let g = barabasi_albert(NODES, ATTACH, GRAPH_SEED);
    let req = SummarizeRequest::new(Budget::Ratio(RATIO));
    for threads in [1usize, 2, 8] {
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

/// S2L's Lloyd loop costs Θ(k·|E|) per iteration, so its pin runs on a
/// smaller graph of the same family.
const S2L_NODES: usize = 600;
const S2L_SUPERNODES: usize = 150;
const S2L_PIN: Pin = (450_000, 456, 5, 0, 17_079_265_871_366_026_206);

#[test]
fn s2l_output_is_pinned() {
    let g = barabasi_albert(S2L_NODES, ATTACH, GRAPH_SEED);
    let req = SummarizeRequest::new(Budget::Supernodes(S2L_SUPERNODES));
    let out = S2l::default().run(&g, &req).unwrap();
    assert!(out.summary.num_supernodes() <= S2L_SUPERNODES);
    assert_eq!(pin_of(&out), S2L_PIN);
}

/// The checkpoint written after this iteration is pinned; both runs go
/// past it.
const PIN_ITERATION: u64 = 5;

/// The recorded threshold and checkpoint state of the same runs:
/// `(final_theta bits, sparsified, checkpoint digest)`.
type StatePin = (u64, bool, u64);

const PEGASUS_STATE_PIN: StatePin = (13_812_565_424_427_408_589, false, 8_579_096_623_644_660_349);
const SSUMM_STATE_PIN: StatePin = (0, true, 699_008_437_346_487_190);

/// FNV-1a over every deterministic field of the checkpoint decoded at
/// [`PIN_ITERATION`]: the iteration, θ and stall-cap words, the counts,
/// the supernodes (bit-exact weight sums, members in stored order), the
/// superedges and the gain EMAs. The wall-clock phase words are left
/// out.
fn checkpoint_digest(blob: &[u8]) -> u64 {
    let ck = RunCheckpoint::decode(blob).expect("the engine's own blob decodes");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let st = &ck.stats;
    for word in [
        u64::from(ck.algorithm),
        u64::from(ck.num_nodes),
        ck.next_iteration,
        ck.theta_bits,
        ck.stall_cap_bits,
        st.iterations as u64,
        st.merges as u64,
        st.final_theta.to_bits(),
        u64::from(st.sparsified),
        st.evals,
        st.checkpoints,
        st.checkpoint_failures,
        st.groups,
        st.grouped_supernodes,
    ] {
        feed(word);
    }
    for rec in &ck.supers {
        feed(u64::from(rec.id));
        feed(rec.wsum_bits);
        feed(rec.sqsum_bits);
        feed(rec.members.len() as u64);
        for &u in &rec.members {
            feed(u64::from(u));
        }
    }
    for &(a, b) in &ck.superedges {
        feed(u64::from(a));
        feed(u64::from(b));
    }
    for &bits in &ck.gains {
        feed(bits);
    }
    h
}

/// Runs `algo` with a checkpoint every [`PIN_ITERATION`] iterations and
/// returns its output with the first blob written.
fn run_checkpointed(
    algo: &dyn Summarizer,
    g: &Graph,
    req: &SummarizeRequest,
) -> (RunOutput, Vec<u8>) {
    let first: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&first);
    let sink: CheckpointSink = Arc::new(move |_, blob| {
        slot.lock().unwrap().get_or_insert(blob);
        Ok(())
    });
    let out = algo
        .run(g, &req.clone().checkpoint(PIN_ITERATION, sink))
        .unwrap();
    let blob = first
        .lock()
        .unwrap()
        .take()
        .expect("the run passed the pinned iteration");
    (out, blob)
}

fn state_pin_of(out: &RunOutput, blob: &[u8]) -> StatePin {
    (
        out.stats.final_theta.to_bits(),
        out.stats.sparsified,
        checkpoint_digest(blob),
    )
}

#[test]
fn pegasus_threshold_and_checkpoint_are_pinned_at_1_2_and_8_threads() {
    let g = barabasi_albert(NODES, ATTACH, GRAPH_SEED);
    let t = targets();
    let req = SummarizeRequest::new(Budget::Ratio(RATIO)).targets(&t);
    for threads in [1usize, 2, 8] {
        let algo = Pegasus(PegasusConfig {
            num_threads: threads,
            ..Default::default()
        });
        let (out, blob) = run_checkpointed(&algo, &g, &req);
        assert_eq!(
            pin_of(&out),
            PEGASUS_PIN,
            "checkpointing moved pegasus at {threads} threads"
        );
        assert_eq!(
            state_pin_of(&out, &blob),
            PEGASUS_STATE_PIN,
            "pegasus at {threads} threads"
        );
    }
}

#[test]
fn ssumm_threshold_and_checkpoint_are_pinned_at_1_2_and_8_threads() {
    let g = barabasi_albert(NODES, ATTACH, GRAPH_SEED);
    let req = SummarizeRequest::new(Budget::Ratio(RATIO));
    for threads in [1usize, 2, 8] {
        let algo = Ssumm(SsummConfig {
            num_threads: threads,
            ..Default::default()
        });
        let (out, blob) = run_checkpointed(&algo, &g, &req);
        assert_eq!(
            pin_of(&out),
            SSUMM_PIN,
            "checkpointing moved ssumm at {threads} threads"
        );
        assert_eq!(
            state_pin_of(&out, &blob),
            SSUMM_STATE_PIN,
            "ssumm at {threads} threads"
        );
    }
}
