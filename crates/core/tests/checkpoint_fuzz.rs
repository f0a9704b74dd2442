//! Checkpoint decoder robustness: no input — truncated, bit-flipped, or
//! random — may panic the decoder. Corruption must surface as a typed
//! error ([`CheckpointError`] at the decode layer,
//! [`PgsError::CheckpointInvalid`] through [`RunControl::decode_resume`])
//! or, when the damage lands in don't-care bits (float payloads, stats),
//! as a structurally valid decode.
//!
//! The exhaustive sweeps (every prefix length, every single-bit flip of
//! every byte) run on a current-version blob; proptest layers random
//! multi-byte mutations on top.

use proptest::prelude::*;

use pgs_core::api::{PgsError, RunControl};
use pgs_core::checkpoint::{RunCheckpoint, ALGO_PEGASUS};
use pgs_core::cost::CostModel;
use pgs_core::pegasus::RunStats;
use pgs_core::weights::NodeWeights;
use pgs_core::working::WorkingSummary;
use std::sync::Arc;

const NUM_NODES: usize = 40;

/// A valid current-version (v3) blob with a non-trivial partition,
/// gains section, and phase-timing trail.
fn v3_blob() -> Vec<u8> {
    let g = pgs_graph::gen::barabasi_albert(NUM_NODES, 3, 7);
    let w = NodeWeights::uniform(g.num_nodes());
    let mut ws = WorkingSummary::new(&g, &w, CostModel::ErrorCorrection);
    ws.merge(0, 1);
    ws.merge(4, 5);
    let mut gains = vec![0.0; g.num_nodes()];
    gains[0] = 0.5;
    let ck = RunCheckpoint::capture(
        ALGO_PEGASUS,
        3,
        0.25,
        f64::INFINITY,
        RunStats {
            iterations: 2,
            merges: 2,
            ..Default::default()
        },
        &ws,
        &gains,
    );
    ck.encode()
}

/// Decoding must never panic; an `Ok` must be structurally sane.
fn assert_no_panic_decode(bytes: &[u8]) {
    if let Ok(ck) = RunCheckpoint::decode(bytes) {
        assert!(ck.num_nodes > 0);
        assert!(!ck.supers.is_empty());
        assert!(ck.supers.len() <= ck.num_nodes as usize);
    }
}

#[test]
fn every_prefix_truncation_is_a_typed_error() {
    let blob = v3_blob();
    assert!(RunCheckpoint::decode(&blob).is_ok(), "sanity: full blob");
    for cut in 0..blob.len() {
        let prefix = &blob[..cut];
        assert!(
            RunCheckpoint::decode(prefix).is_err(),
            "prefix of length {cut}/{} must not decode",
            blob.len()
        );
    }
}

#[test]
fn every_single_bit_flip_errors_or_decodes_validly() {
    let blob = v3_blob();
    for pos in 0..blob.len() {
        for bit in 0..8u8 {
            let mut mutated = blob.clone();
            mutated[pos] ^= 1 << bit;
            assert_no_panic_decode(&mutated);
        }
    }
}

#[test]
fn corrupt_resume_blob_is_checkpoint_invalid_through_run_control() {
    // The serving-layer surface of the same property: a damaged resume
    // blob reaches callers as PgsError::CheckpointInvalid, not a panic.
    let mut blob = v3_blob();
    let mid = blob.len() / 2;
    blob.truncate(mid);
    let control = RunControl {
        resume: Some(Arc::new(blob)),
        ..Default::default()
    };
    assert!(matches!(
        control.decode_resume(ALGO_PEGASUS, NUM_NODES),
        Err(PgsError::CheckpointInvalid { .. })
    ));
}

proptest! {
    /// Random multi-byte corruption (positions and replacement values
    /// both arbitrary) never panics the decoder.
    #[test]
    fn random_byte_mutations_never_panic(
        edits in proptest::collection::vec((0usize..4096, any::<u8>()), 1..16),
    ) {
        let mut blob = v3_blob();
        for (pos, val) in edits {
            let idx = pos % blob.len();
            blob[idx] = val;
        }
        assert_no_panic_decode(&blob);
    }

    /// Entirely random byte strings never panic the decoder (they may
    /// accidentally decode only by passing every structural check).
    #[test]
    fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        assert_no_panic_decode(&bytes);
    }
}
