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

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::api::{RunControl, StopReason};
use crate::checkpoint::{iteration_seed, CheckpointError, RunCheckpoint, ALGO_SSUMM};
use crate::cost::CostModel;
use crate::exec::Exec;
use crate::pegasus::RunStats;
use crate::shingle::{
    attach_signatures, candidate_groups, candidate_groups_incremental, lane_count, CandidateGen,
    ShingleParams,
};
use crate::sparsify::sparsify;
use crate::summary::Summary;
use crate::threshold::ssumm_schedule;
use crate::weights::NodeWeights;
use crate::working::{evaluate_group_with, MergeEvaluator, Scratch, WorkingSummary};
use pgs_graph::Graph;

/// Configuration of the SSumM baseline (paper defaults from Sect. V-A).
#[derive(Clone, Debug)]
pub struct SsummConfig {
    /// Maximum number of iterations (default 20).
    pub t_max: usize,
    /// RNG seed.
    pub seed: u64,
    /// Maximum candidate-group size (500, as for PeGaSus).
    pub max_group: usize,
    /// Maximum recursive shingle-splitting depth (10).
    pub shingle_depth: usize,
    /// Worker threads for the evaluate phases (same engine as PeGaSus;
    /// `0` = all hardware threads; output identical at any setting).
    pub num_threads: usize,
    /// Merge evaluator (same engine as PeGaSus; cached by default).
    pub evaluator: MergeEvaluator,
    /// Candidate generator (same engine as PeGaSus; incremental by
    /// default).
    pub candidate_gen: CandidateGen,
}

impl Default for SsummConfig {
    fn default() -> Self {
        SsummConfig {
            t_max: 20,
            seed: 0,
            max_group: 500,
            shingle_depth: 10,
            num_threads: 0,
            evaluator: MergeEvaluator::default(),
            candidate_gen: CandidateGen::default(),
        }
    }
}

/// Summarizes `g` within `budget_bits` using SSumM.
pub fn ssumm_summarize(g: &Graph, budget_bits: f64, cfg: &SsummConfig) -> Summary {
    ssumm_summarize_with_stats(g, budget_bits, cfg).0
}

/// [`ssumm_summarize`] returning run statistics.
pub fn ssumm_summarize_with_stats(
    g: &Graph,
    budget_bits: f64,
    cfg: &SsummConfig,
) -> (Summary, RunStats) {
    match ssumm_loop(g, budget_bits, cfg, &RunControl::default(), None) {
        Ok((summary, stats, _)) => (summary, stats),
        // pgs-allow: PGS004 the loop fails only on a resume checkpoint, and none is passed
        Err(e) => unreachable!("fresh run: {e}"),
    }
}

/// The SSumM merge loop with run control threaded in, mirroring
/// [`crate::pegasus::pegasus_loop`]: cancel/deadline checks at the top
/// of each iteration (a commit boundary), interrupted runs skip final
/// sparsification, per-iteration RNG derivation so a `resume` checkpoint
/// replays the remaining iterations bit-identically.
/// A resume checkpoint that does not fit the graph is the loop's only
/// error.
pub(crate) fn ssumm_loop(
    g: &Graph,
    budget_bits: f64,
    cfg: &SsummConfig,
    control: &RunControl,
    resume: Option<&RunCheckpoint>,
) -> Result<(Summary, RunStats, StopReason), CheckpointError> {
    let started = std::time::Instant::now();
    let weights = NodeWeights::uniform(g.num_nodes());
    let mut scratch = Scratch::default();
    let exec = Exec::new(cfg.num_threads);
    let shingle_params = ShingleParams {
        max_group: cfg.max_group,
        depth: cfg.shingle_depth,
    };
    // SSumM's threshold is a pure function of `t`, so the checkpoint's
    // theta/stall_cap words are ignored on restore.
    let (mut ws, mut stats, mut t) = match resume {
        Some(ck) => (
            ck.restore_working(g, &weights, CostModel::SsummMin)?,
            ck.stats,
            ck.next_iteration as usize,
        ),
        None => (
            WorkingSummary::new(g, &weights, CostModel::SsummMin),
            RunStats::default(),
            1,
        ),
    };
    // Same incremental candidate engine as PeGaSus (see
    // `pegasus_loop`): persistent lane bank + gain EMAs.
    let incremental = cfg.candidate_gen == CandidateGen::Incremental;
    let mut gains: Vec<f64> = Vec::new();
    if incremental {
        attach_signatures(&mut ws, cfg.seed, lane_count(cfg.shingle_depth), &exec);
        gains = match resume {
            Some(ck) => ck.restore_gains(g.num_nodes()),
            None => vec![0.0; g.num_nodes()],
        };
    }

    let stop = loop {
        if ws.size_bits() <= budget_bits {
            break StopReason::BudgetMet;
        }
        if t > cfg.t_max {
            break StopReason::MaxIters;
        }
        if let Some(reason) = control.interrupted(started) {
            break reason;
        }
        control.beat();
        control.fault_point(t as u64);
        let mut rng = StdRng::seed_from_u64(iteration_seed(cfg.seed, t as u64));
        let theta = ssumm_schedule(t, cfg.t_max);
        let before = ws.num_supernodes();
        // Same evaluate/commit engine as PeGaSus (SSumM just discards
        // the rejection samples — its schedule is fixed).
        let cand_start = std::time::Instant::now();
        let groups = if incremental {
            candidate_groups_incremental(&ws, &mut rng, &shingle_params, &gains)
        } else {
            candidate_groups(&ws, &mut rng, &shingle_params, &exec)
        };
        stats.phases.candidates += cand_start.elapsed().as_secs_f64();
        stats.groups += groups.len() as u64;
        stats.grouped_supernodes += groups.iter().map(|grp| grp.len() as u64).sum::<u64>();
        let seeded: Vec<(Vec<crate::summary::SuperId>, u64)> = groups
            .into_iter()
            .map(|grp| (grp, rng.next_u64()))
            .collect();
        let eval_start = std::time::Instant::now();
        ws.refresh_stale(&exec);
        let outcomes = exec.map_indexed(&seeded, |_, (group, seed)| {
            control.beat();
            evaluate_group_with(&ws, group, theta, *seed, false, cfg.evaluator)
        });
        stats.phases.evaluate += eval_start.elapsed().as_secs_f64();
        stats.evals += outcomes.iter().map(|o| o.evals).sum::<u64>();
        let commit_start = std::time::Instant::now();
        for ((group, _), outcome) in seeded.iter().zip(&outcomes) {
            for &(a, b) in &outcome.merges {
                ws.merge(a, b, &mut scratch);
            }
            if incremental {
                let share = outcome.accepted_delta / group.len() as f64;
                for &s in group {
                    gains[s as usize] = crate::threshold::GAIN_DECAY * gains[s as usize] + share;
                }
            }
        }
        stats.phases.commit += commit_start.elapsed().as_secs_f64();
        stats.merges += before - ws.num_supernodes();
        stats.final_theta = theta;
        stats.iterations = t;
        control.notify(&stats);
        let snapshot = stats;
        control.maybe_checkpoint(t as u64, &mut stats, || {
            RunCheckpoint::capture(
                ALGO_SSUMM,
                (t + 1) as u64,
                theta,
                f64::INFINITY,
                snapshot,
                &ws,
                incremental.then_some(gains.as_slice()),
            )
        });
        t += 1;
    };

    if matches!(stop, StopReason::BudgetMet | StopReason::MaxIters) && ws.size_bits() > budget_bits
    {
        stats.sparsified = true;
        let sparsify_start = std::time::Instant::now();
        sparsify(&mut ws, budget_bits, &exec);
        stats.phases.sparsify += sparsify_start.elapsed().as_secs_f64();
    }
    Ok((ws.into_summary(), stats, stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::reconstruction_error;
    use pgs_graph::gen::{barabasi_albert, planted_partition};

    #[test]
    fn meets_budget() {
        let g = barabasi_albert(300, 4, 13);
        for &ratio in &[0.3, 0.6] {
            let budget = ratio * g.size_bits();
            let s = ssumm_summarize(&g, budget, &SsummConfig::default());
            assert!(s.size_bits() <= budget + 1e-9);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = barabasi_albert(200, 3, 1);
        let s1 = ssumm_summarize(&g, 0.5 * g.size_bits(), &SsummConfig::default());
        let s2 = ssumm_summarize(&g, 0.5 * g.size_bits(), &SsummConfig::default());
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
        let s = ssumm_summarize(&g, 0.5 * g.size_bits(), &SsummConfig::default());
        let err = reconstruction_error(&g, &s).unwrap();
        // Strictly better than the trivial summary that drops every edge
        // (error 2|E|): the summary must retain real structure.
        assert!(err < 2.0 * g.num_edges() as f64, "error {err} too high");
    }

    #[test]
    fn merges_happen_under_pressure() {
        let g = barabasi_albert(400, 3, 3);
        let (_, stats) =
            ssumm_summarize_with_stats(&g, 0.2 * g.size_bits(), &SsummConfig::default());
        assert!(stats.merges > 0, "SSumM should merge under a tight budget");
    }
}
