//! SSumM (Lee et al., KDD 2020) — the state-of-the-art non-personalized
//! summarizer PeGaSus is built on, re-implemented per Sect. III-G as the
//! primary baseline.
//!
//! Differences from PeGaSus, exactly as the paper lists them:
//!
//! * **No personalization** — uniform pair weights (plain reconstruction
//!   error).
//! * **Fixed threshold schedule** — `θ(t) = (1 + t)^{-1}` for `t < t_max`
//!   and 0 afterwards, instead of adaptive thresholding.
//! * **Encoding** — per-pair cost is the better of entropy coding and
//!   error correction ([`crate::cost::CostModel::SsummMin`]), while
//!   PeGaSus assumes error correction only.
//!
//! Those differences are all of the crate-private `SsummConfig::spec`
//! (plus the uniform weights [`crate::api::Ssumm`] passes): the
//! iteration loop itself is the PeGaSus driver's ([`crate::pegasus`]).

use crate::checkpoint::ALGO_SSUMM;
use crate::cost::CostModel;
use crate::pegasus::LoopSpec;
use crate::working::MergeEvaluator;

/// Configuration of the SSumM baseline (paper defaults from Sect. V-A).
#[derive(Clone, Debug)]
pub struct SsummConfig {
    /// Maximum number of iterations (default 20).
    pub t_max: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the parallel phases (same engine as PeGaSus;
    /// `0` = all hardware threads; output identical at any setting).
    pub num_threads: usize,
}

impl Default for SsummConfig {
    fn default() -> Self {
        SsummConfig {
            t_max: 20,
            seed: 0,
            num_threads: 0,
        }
    }
}

impl SsummConfig {
    /// This configuration as the shared PeGaSus driver
    /// ([`crate::pegasus`]) reads it, run over uniform node weights.
    pub(crate) fn spec(&self) -> LoopSpec {
        LoopSpec {
            algorithm: ALGO_SSUMM,
            model: CostModel::SsummMin,
            adaptive_beta: None,
            use_absolute_cost: false,
            t_max: self.t_max,
            seed: self.seed,
            num_threads: self.num_threads,
            evaluator: MergeEvaluator::Cached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Budget, Ssumm, SummarizeRequest, Summarizer};
    use crate::error::reconstruction_error;
    use crate::summary::Summary;
    use pgs_graph::gen::{barabasi_albert, planted_partition};
    use pgs_graph::Graph;

    /// An SSumM run with default settings on a bit budget.
    fn ssumm(g: &Graph, budget_bits: f64) -> Summary {
        Ssumm::default()
            .run(g, &SummarizeRequest::new(Budget::Bits(budget_bits)))
            .unwrap()
            .summary
    }

    #[test]
    fn meets_budget() {
        let g = barabasi_albert(300, 4, 13);
        for &ratio in &[0.3, 0.6] {
            let budget = ratio * g.size_bits();
            let s = ssumm(&g, budget);
            assert!(s.size_bits() <= budget + 1e-9);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = barabasi_albert(200, 3, 1);
        let s1 = ssumm(&g, 0.5 * g.size_bits());
        let s2 = ssumm(&g, 0.5 * g.size_bits());
        assert_eq!(s1.num_supernodes(), s2.num_supernodes());
        for u in g.nodes() {
            assert_eq!(s1.supernode_of(u), s2.supernode_of(u));
        }
    }

    #[test]
    fn community_graph_summarizes_with_moderate_error() {
        // Dense planted blocks are the friendly case for summarization:
        // the error at ratio 0.5 should be well below the trivial
        // all-singleton-after-sparsify bound (2|E| = dropping all edges).
        let g = planted_partition(300, 6, 1800, 150, 5);
        let s = ssumm(&g, 0.5 * g.size_bits());
        let err = reconstruction_error(&g, &s).unwrap();
        // Strictly better than the trivial summary that drops every edge
        // (error 2|E|): the summary must retain real structure.
        assert!(err < 2.0 * g.num_edges() as f64, "error {err} too high");
    }

    #[test]
    fn resume_ignores_the_checkpoint_threshold_words() {
        // SSumM's θ is a pure function of the iteration, so a resume
        // blob whose θ and stall-cap words are overwritten still
        // finishes exactly like the uninterrupted run.
        use crate::api::CheckpointSink;
        use crate::checkpoint::RunCheckpoint;
        use std::sync::{Arc, Mutex};

        let g = barabasi_albert(400, 3, 8);
        let algo = Ssumm(SsummConfig::default());
        let req = SummarizeRequest::new(Budget::Ratio(0.3));
        let blobs: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let store = Arc::clone(&blobs);
        let sink: CheckpointSink = Arc::new(move |_, blob| {
            store.lock().unwrap().push(blob);
            Ok(())
        });
        let full = algo.run(&g, &req.clone().checkpoint(2, sink)).unwrap();
        let blob = blobs.lock().unwrap().first().cloned().unwrap();
        let mut ck = RunCheckpoint::decode(&blob).unwrap();
        ck.theta_bits = 0.9f64.to_bits();
        ck.stall_cap_bits = 0.0f64.to_bits();
        let resumed = algo
            .run(&g, &req.resume_from(Arc::new(ck.encode())))
            .unwrap();
        for u in g.nodes() {
            assert_eq!(
                full.summary.supernode_of(u),
                resumed.summary.supernode_of(u)
            );
        }
        assert_eq!(
            full.summary.num_superedges(),
            resumed.summary.num_superedges()
        );
        assert_eq!(full.stats.evals, resumed.stats.evals);
        assert_eq!(
            full.stats.final_theta.to_bits(),
            resumed.stats.final_theta.to_bits()
        );
    }

    #[test]
    fn merges_happen_under_pressure() {
        let g = barabasi_albert(400, 3, 3);
        let stats = Ssumm::default()
            .run(
                &g,
                &SummarizeRequest::new(Budget::Bits(0.2 * g.size_bits())),
            )
            .unwrap()
            .stats;
        assert!(stats.merges > 0, "SSumM should merge under a tight budget");
    }
}
