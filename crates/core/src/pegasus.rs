//! The PeGaSus driver (Alg. 1), parallel evaluate/commit edition.
//!
//! Repeats candidate generation (Sect. III-C) and within-group greedy
//! merging (Sect. III-D) with an adaptively decaying threshold
//! (Sect. III-E) until the summary fits the bit budget or `t_max`
//! iterations elapse, then sparsifies (Sect. III-F) if needed.
//!
//! The same loop drives SSumM ([`crate::ssumm`]): Sect. III-G defines
//! PeGaSus as SSumM plus personalized weights, adaptive thresholding and
//! the error-correction-only cost model, so the driver takes those
//! differences as data (a crate-private `LoopSpec` plus the node
//! weights) rather than as a second copy of the loop.
//!
//! Each iteration fans out across [`PegasusConfig::num_threads`] workers:
//! candidate groups are disjoint supernode sets, so their Alg.-2 rounds
//! are *evaluated* concurrently against the frozen iteration-start
//! summary ([`crate::working::evaluate_group`]), and the resulting merge
//! logs are *committed* as one batch
//! ([`crate::working::WorkingSummary::commit`]) whose parallel passes
//! reproduce, bit for bit, a serial replay in canonical group order. All
//! randomness is drawn serially (per-round hash seeds, per-group RNG
//! seeds), which makes the output a pure function of the seed — the same
//! summary comes back at any thread count (see DESIGN.md §2).

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::api::{RunControl, StopReason};
use crate::checkpoint::{iteration_seed, CheckpointError, RunCheckpoint, ALGO_PEGASUS};
use crate::cost::CostModel;
use crate::exec::Exec;
use crate::shingle::{attach_signatures, candidate_groups_incremental, lane_count, ShingleParams};
use crate::sparsify::sparsify;
use crate::summary::{Summary, SuperId};
use crate::threshold::{ssumm_schedule, AdaptiveThreshold, GAIN_DECAY};
use crate::weights::NodeWeights;
use crate::working::{evaluate_group_with, MergeEvaluator, WorkingSummary};
use pgs_graph::Graph;

/// Configuration of PeGaSus (paper defaults from Sect. V-A).
#[derive(Clone, Debug)]
pub struct PegasusConfig {
    /// Degree of personalization `α ≥ 1` (default 1.25).
    pub alpha: f64,
    /// Adaptive-thresholding quantile `β ∈ [0, 1]` (default 0.1).
    pub beta: f64,
    /// Maximum number of iterations `t_max` (default 20).
    pub t_max: usize,
    /// RNG seed (shingle hashes and pair sampling).
    pub seed: u64,
    /// Ablation switch: rank merges by the absolute reduction Eq. (10)
    /// instead of the relative reduction Eq. (11).
    pub use_absolute_cost: bool,
    /// Worker threads for the parallel phases (candidate generation,
    /// group evaluation and commit). `0` means one per available hardware
    /// thread. The output is identical at any setting; only wall-clock
    /// changes.
    pub num_threads: usize,
}

impl Default for PegasusConfig {
    fn default() -> Self {
        PegasusConfig {
            alpha: 1.25,
            beta: 0.1,
            t_max: 20,
            seed: 0,
            use_absolute_cost: false,
            num_threads: 0,
        }
    }
}

impl PegasusConfig {
    /// This configuration as the shared driver reads it.
    pub(crate) fn spec(&self) -> LoopSpec {
        LoopSpec {
            algorithm: ALGO_PEGASUS,
            model: CostModel::ErrorCorrection,
            adaptive_beta: Some(self.beta),
            use_absolute_cost: self.use_absolute_cost,
            t_max: self.t_max,
            seed: self.seed,
            num_threads: self.num_threads,
            evaluator: MergeEvaluator::Cached,
        }
    }
}

/// Wall-clock seconds per engine phase — the coherent profiling
/// taxonomy of DESIGN.md §14, replacing the ad-hoc per-phase fields
/// that used to live directly on [`RunStats`].
///
/// Every iteration of the driver decomposes into candidate
/// generation (Sect. III-C), parallel group evaluation (Sect. III-D),
/// and the batched commit of the merge logs; sparsification
/// (Sect. III-F) runs once at the end when the budget is still unmet.
/// All four accumulate across checkpoint/resume like the other
/// wall-clock stats, and all four live *outside* the byte-identity
/// contract: they are measured around the phases, never read by them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Candidate-group generation (Sect. III-C) — the denominator of
    /// the candidate-throughput metric.
    pub candidates: f64,
    /// Parallel merge evaluation (Sect. III-D) — the denominator of
    /// the merge-evals/sec throughput metric.
    pub evaluate: f64,
    /// Batched commit of the merge logs — its three parallel passes plus
    /// the serial threshold folds and gain-EMA updates (everything
    /// between evaluate and the iteration boundary).
    pub commit: f64,
    /// Final sparsification (Sect. III-F), zero when the budget was
    /// met by merging alone.
    pub sparsify: f64,
}

impl PhaseTimings {
    /// Sum over all phases — the engine-attributed share of a run's
    /// wall clock.
    pub fn total(&self) -> f64 {
        self.candidates + self.evaluate + self.commit + self.sparsify
    }
}

impl std::ops::AddAssign for PhaseTimings {
    /// Field-wise accumulation (serving layers total phases per tenant).
    fn add_assign(&mut self, other: PhaseTimings) {
        self.candidates += other.candidates;
        self.evaluate += other.evaluate;
        self.commit += other.commit;
        self.sparsify += other.sparsify;
    }
}

/// Summary statistics of a PeGaSus run (for experiments and logging).
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Total successful merges.
    pub merges: usize,
    /// Final threshold value.
    pub final_theta: f64,
    /// Whether sparsification was needed to meet the budget.
    pub sparsified: bool,
    /// Candidate-pair merge evaluations performed (thread-count
    /// independent, like every other count here).
    pub evals: u64,
    /// Checkpoints written successfully (cumulative across resume).
    pub checkpoints: u64,
    /// Checkpoint writes that failed (real or injected); the run keeps
    /// going on the previous good checkpoint.
    pub checkpoint_failures: u64,
    /// Per-phase wall-clock breakdown (candidate-gen / evaluate /
    /// commit / sparsify), cumulative across resume.
    pub phases: PhaseTimings,
    /// Candidate groups formed across the run (thread-count independent).
    pub groups: u64,
    /// Supernodes placed into candidate groups across the run (each live
    /// supernode counts at most once per iteration) — the numerator of
    /// the candidate-throughput metric.
    pub grouped_supernodes: u64,
}

/// Everything the shared driver [`run_loop`] reads from a configuration.
/// Beside the node weights, PeGaSus and SSumM differ only in the first
/// four fields (Sect. III-G); the rest are the common engine settings.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LoopSpec {
    /// Checkpoint algorithm tag ([`ALGO_PEGASUS`] or
    /// [`crate::checkpoint::ALGO_SSUMM`]).
    pub(crate) algorithm: u8,
    /// Per-pair encoding model.
    pub(crate) model: CostModel,
    /// `Some(β)`: adaptive thresholding (Sect. III-E) under the stall
    /// guard. `None`: SSumM's fixed schedule `θ(t) = (1+t)^{-1}`.
    pub(crate) adaptive_beta: Option<f64>,
    /// Rank merges by the absolute reduction Eq. (10) instead of the
    /// relative reduction Eq. (11).
    pub(crate) use_absolute_cost: bool,
    /// Maximum number of iterations.
    pub(crate) t_max: usize,
    /// Run seed.
    pub(crate) seed: u64,
    /// Worker threads (`0` = all hardware threads).
    pub(crate) num_threads: usize,
    /// Merge evaluator: always [`MergeEvaluator::Cached`] outside the
    /// tests below, which compare it against [`MergeEvaluator::Scan`].
    pub(crate) evaluator: MergeEvaluator,
}

/// The Alg.-1 driver of both PeGaSus and SSumM, with run control
/// threaded in — the engine behind [`crate::api::Pegasus`] and
/// [`crate::api::Ssumm`].
///
/// Cancel/deadline checks sit at the top of each iteration — a commit
/// boundary: the previous iteration's merge log is fully committed, so
/// an interrupted run returns a structurally valid partial summary.
/// Interrupted runs skip final sparsification (they return promptly and
/// report [`StopReason::Cancelled`] / [`StopReason::DeadlineExceeded`]
/// instead of a met budget).
///
/// Each iteration draws its randomness from a fresh RNG seeded with
/// [`iteration_seed`]`(spec.seed, t)` rather than one sequential stream,
/// so a run resumed from a `resume` checkpoint at iteration `k` replays
/// iterations `k..` bit-identically to the uninterrupted run — the
/// checkpoint/resume correctness contract of DESIGN.md §10. A resume
/// checkpoint that does not fit the graph is the loop's only error.
pub(crate) fn run_loop(
    g: &Graph,
    weights: &NodeWeights,
    budget_bits: f64,
    spec: &LoopSpec,
    control: &RunControl,
    resume: Option<&RunCheckpoint>,
) -> Result<(Summary, RunStats, StopReason), CheckpointError> {
    let started = std::time::Instant::now();
    let exec = Exec::new(spec.num_threads);
    // PeGaSus's adaptive θ and its stall-guard cap; `None` for SSumM,
    // whose θ is a pure function of `t` (so it ignores the checkpoint's
    // θ and stall-cap words).
    let mut adaptive = spec.adaptive_beta.map(|beta| match resume {
        Some(ck) => (
            AdaptiveThreshold::restore(beta, f64::from_bits(ck.theta_bits)),
            f64::from_bits(ck.stall_cap_bits),
        ),
        None => (AdaptiveThreshold::new(beta), f64::INFINITY),
    });
    let (mut ws, mut stats, mut t, mut gains) = match resume {
        Some(ck) => (
            ck.restore_working(g, weights, spec.model)?,
            ck.stats,
            ck.next_iteration as usize,
            ck.restore_gains(g.num_nodes()),
        ),
        None => (
            WorkingSummary::new(g, weights, spec.model),
            RunStats::default(),
            1,
            vec![0.0; g.num_nodes()],
        ),
    };
    let shingle = ShingleParams::default();
    // Attach the persistent lane bank once (bit-identical at any thread
    // count). The bank is a pure function of (graph, seed, current
    // partition), so attaching after a checkpoint restore reproduces
    // exactly the signatures the uninterrupted run maintained
    // (composition under union, DESIGN.md §11).
    attach_signatures(&mut ws, spec.seed, lane_count(shingle.depth), &exec);

    let stop = loop {
        if ws.size_bits() <= budget_bits {
            break StopReason::BudgetMet;
        }
        if t > spec.t_max {
            break StopReason::MaxIters;
        }
        if let Some(reason) = control.interrupted(started) {
            break reason;
        }
        control.beat();
        control.fault_point(t as u64);
        let mut rng = StdRng::seed_from_u64(iteration_seed(spec.seed, t as u64));
        let cand_start = std::time::Instant::now();
        let groups = candidate_groups_incremental(&ws, &mut rng, &shingle, &gains);
        stats.phases.candidates += cand_start.elapsed().as_secs_f64();
        stats.groups += groups.len() as u64;
        stats.grouped_supernodes += groups.iter().map(|grp| grp.len() as u64).sum::<u64>();
        let before = ws.num_supernodes();
        let theta = match &adaptive {
            Some((threshold, stall_cap)) => threshold.theta().min(*stall_cap),
            None => ssumm_schedule(t, spec.t_max),
        };

        // Evaluate phase (parallel, read-only): every group gets a seed
        // drawn serially here, then workers run the Alg.-2 sampling loop
        // against the frozen summary, producing merge logs.
        let seeded: Vec<(Vec<SuperId>, u64)> = groups
            .into_iter()
            .map(|grp| (grp, rng.next_u64()))
            .collect();
        let eval_start = std::time::Instant::now();
        let outcomes = exec.map_indexed(&seeded, |_, (group, seed)| {
            control.beat();
            evaluate_group_with(
                &ws,
                group,
                theta,
                *seed,
                spec.use_absolute_cost,
                spec.evaluator,
            )
        });
        stats.phases.evaluate += eval_start.elapsed().as_secs_f64();
        stats.evals += outcomes.iter().map(|o| o.evals).sum::<u64>();

        // Commit phase: apply every group's merge log to the shared
        // summary in one batch (parallel passes, bit for bit the serial
        // replay in canonical group order; DESIGN.md §7). Then, serially
        // and in group order, fold each group's rejection samples into
        // the adaptive threshold (SSumM discards them) and update the
        // members' gain EMAs with the group's accepted savings.
        let commit_start = std::time::Instant::now();
        ws.commit(outcomes.iter().map(|o| o.merges.as_slice()), &exec, || {
            control.beat()
        });
        for ((group, _), outcome) in seeded.iter().zip(&outcomes) {
            if let Some((threshold, _)) = &mut adaptive {
                threshold.fold_rejections(&outcome.rejected);
            }
            let share = outcome.accepted_delta / group.len() as f64;
            for &s in group {
                gains[s as usize] = GAIN_DECAY * gains[s as usize] + share;
            }
        }
        stats.phases.commit += commit_start.elapsed().as_secs_f64();
        let merged = before - ws.num_supernodes();
        stats.merges += merged;
        match &mut adaptive {
            Some((threshold, stall_cap)) => {
                threshold.end_iteration();
                // Stall guard (DESIGN.md §1): on graphs whose relative
                // reductions cluster at discrete values, the
                // ⌊β|L|⌋-th-largest update can plateau just above the
                // cluster and merging stops while the summary is still
                // over budget. When an iteration merges less than 0.5% of
                // the supernodes under budget pressure, fall back to
                // SSumM's guaranteed-decay schedule as a cap.
                if merged * 200 < before && ws.size_bits() > budget_bits {
                    *stall_cap = ssumm_schedule(t, spec.t_max).min(*stall_cap);
                }
            }
            None => stats.final_theta = theta,
        }
        stats.iterations = t;
        control.notify(&stats);
        // Snapshot after the commit + threshold/stall updates: this is
        // the consistency point a resumed run restarts from (at t + 1).
        let snapshot = stats;
        let (theta_word, stall_cap) = adaptive
            .as_ref()
            .map_or((theta, f64::INFINITY), |(threshold, stall_cap)| {
                (threshold.theta(), *stall_cap)
            });
        control.maybe_checkpoint(t as u64, &mut stats, || {
            RunCheckpoint::capture(
                spec.algorithm,
                (t + 1) as u64,
                theta_word,
                stall_cap,
                snapshot,
                &ws,
                &gains,
            )
        });
        t += 1;
    };
    // SSumM reported each iteration's θ as it went.
    if let Some((threshold, _)) = &adaptive {
        stats.final_theta = threshold.theta();
    }

    // Only uninterrupted runs sparsify down to the budget; a cancelled
    // or deadline-stopped run hands back its partial summary promptly.
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
    use crate::api::{Budget, Pegasus, SummarizeRequest, Summarizer};
    use crate::error::{personalized_error, reconstruction_error};
    use crate::ssumm::SsummConfig;
    use pgs_graph::gen::{barabasi_albert, planted_partition};
    use pgs_graph::NodeId;

    /// A bit-budget request personalized to `targets` (`T = V` when
    /// empty).
    fn request(budget_bits: f64, targets: &[NodeId]) -> SummarizeRequest {
        SummarizeRequest::new(Budget::Bits(budget_bits)).targets(targets)
    }

    #[test]
    fn meets_budget_at_various_ratios() {
        let g = barabasi_albert(300, 4, 11);
        for &ratio in &[0.2, 0.5, 0.8] {
            let budget = ratio * g.size_bits();
            let s = Pegasus::default()
                .run(&g, &request(budget, &[0]))
                .unwrap()
                .summary;
            assert!(
                s.size_bits() <= budget + 1e-9,
                "ratio {ratio}: {} > {budget}",
                s.size_bits()
            );
            assert_eq!(s.num_nodes(), 300);
        }
    }

    #[test]
    fn generous_budget_keeps_graph_nearly_intact() {
        let g = barabasi_albert(200, 3, 5);
        let budget = 2.0 * g.size_bits(); // no compression pressure
        let out = Pegasus::default().run(&g, &request(budget, &[0])).unwrap();
        assert!(!out.stats.sparsified);
        // Only strictly cost-reducing merges happen; error should be small
        // relative to total possible error.
        let err = reconstruction_error(&g, &out.summary).unwrap();
        assert!(err < 2.0 * g.num_edges() as f64);
    }

    #[test]
    fn empty_targets_means_whole_v() {
        let g = barabasi_albert(150, 3, 2);
        let budget = 0.5 * g.size_bits();
        let s1 = Pegasus::default()
            .run(&g, &request(budget, &[]))
            .unwrap()
            .summary;
        let all: Vec<u32> = g.nodes().collect();
        let s2 = Pegasus::default()
            .run(&g, &request(budget, &all))
            .unwrap()
            .summary;
        // Same uniform weights and same seed → identical output.
        assert_eq!(s1.num_supernodes(), s2.num_supernodes());
        assert_eq!(s1.num_superedges(), s2.num_superedges());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = planted_partition(200, 4, 600, 100, 3);
        let req = request(0.4 * g.size_bits(), &[0]);
        let s1 = Pegasus::default().run(&g, &req).unwrap().summary;
        let s2 = Pegasus::default().run(&g, &req).unwrap().summary;
        assert_eq!(s1.num_supernodes(), s2.num_supernodes());
        assert_eq!(s1.num_superedges(), s2.num_superedges());
        for u in g.nodes() {
            assert_eq!(s1.supernode_of(u), s2.supernode_of(u));
        }
    }

    #[test]
    fn personalization_reduces_error_near_targets() {
        // The core claim (Fig. 5): summarizing with weights focused on a
        // target yields lower personalized error *at that target* than a
        // non-personalized summary of the same size.
        let g = planted_partition(400, 8, 1600, 200, 7);
        let budget = 0.3 * g.size_bits();
        let target = [0u32];
        let personalized = Pegasus(PegasusConfig {
            alpha: 1.5,
            ..Default::default()
        })
        .run(&g, &request(budget, &target))
        .unwrap()
        .summary;
        let uniform = Pegasus::default()
            .run(&g, &request(budget, &[]))
            .unwrap()
            .summary;
        let w_eval = NodeWeights::personalized(&g, &target, 1.5);
        let err_p = personalized_error(&g, &personalized, &w_eval).unwrap();
        let err_u = personalized_error(&g, &uniform, &w_eval).unwrap();
        assert!(
            err_p < err_u,
            "personalized error {err_p} should beat non-personalized {err_u}"
        );
    }

    #[test]
    fn absolute_cost_ablation_runs() {
        let g = barabasi_albert(200, 3, 4);
        let cfg = PegasusConfig {
            use_absolute_cost: true,
            ..Default::default()
        };
        let s = Pegasus(cfg)
            .run(&g, &request(0.5 * g.size_bits(), &[0]))
            .unwrap()
            .summary;
        assert!(s.size_bits() <= 0.5 * g.size_bits());
    }

    #[test]
    fn stats_are_populated() {
        let g = barabasi_albert(300, 4, 9);
        let stats = Pegasus::default()
            .run(&g, &request(0.3 * g.size_bits(), &[0]))
            .unwrap()
            .stats;
        assert!(stats.iterations >= 1);
        assert!(stats.merges > 0);
    }

    #[test]
    fn stall_guard_merges_low_redundancy_graphs() {
        // A sparse hub-and-leaf graph under uniform weights produces
        // discrete relative reductions that stall the adaptive
        // threshold; the guard must still deliver the budget mostly via
        // merging, not by dropping nearly all superedges.
        let g = pgs_graph::gen::barabasi_albert_mixed(3000, 0.55, 7);
        let budget = 0.4 * g.size_bits();
        let out = Pegasus::default().run(&g, &request(budget, &[])).unwrap();
        let (s, stats) = (out.summary, out.stats);
        assert!(s.size_bits() <= budget + 1e-9);
        assert!(
            stats.merges > g.num_nodes() / 2,
            "only {} merges — threshold stalled",
            stats.merges
        );
        // The summary must retain a meaningful superedge set.
        assert!(
            s.num_superedges() * 10 > s.num_supernodes(),
            "superedges nearly annihilated: |P|={} |S|={}",
            s.num_superedges(),
            s.num_supernodes()
        );
    }

    #[test]
    fn tiny_graph_edge_cases() {
        let g = pgs_graph::builder::graph_from_edges(2, &[(0, 1)]);
        // Note the |V|·log2|S| membership term is a floor that
        // sparsification alone cannot undercut: with |S|=2 the floor is
        // 2 bits, so that is the tightest meetable budget here.
        let s = Pegasus::default()
            .run(&g, &request(2.0, &[0]))
            .unwrap()
            .summary;
        assert_eq!(s.num_nodes(), 2);
        assert!(s.size_bits() <= 2.0);
    }

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

    fn assert_stats_match(cached: &RunStats, scan: &RunStats, ctx: &str) {
        assert_eq!(cached.iterations, scan.iterations, "{ctx}: iterations");
        assert_eq!(cached.merges, scan.merges, "{ctx}: merges");
        assert_eq!(cached.evals, scan.evals, "{ctx}: evals");
        assert_eq!(cached.sparsified, scan.sparsified, "{ctx}: sparsified");
        // final_theta is a selected rejection quantile; per the §7 scoped
        // exception, post-local-merge cached evaluations may differ from a
        // rescan in the final ulp, so across *evaluators* theta is pinned to
        // near-equality, not bit-equality (same-evaluator runs stay
        // byte-identical — that contract is pinned elsewhere).
        let (a, b) = (cached.final_theta, scan.final_theta);
        assert!(
            (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
            "{ctx}: final_theta {a} vs {b}"
        );
    }

    /// End-to-end byte identity for PeGaSus (DESIGN.md §7): summaries are
    /// byte-identical between the cached and the legacy scan evaluator,
    /// at every thread count.
    #[test]
    fn pegasus_summaries_byte_identical_cached_vs_scan() {
        let graphs = [
            ("ba", barabasi_albert(600, 4, 7)),
            ("pp", planted_partition(500, 10, 2_500, 400, 3)),
        ];
        for (name, g) in &graphs {
            let budget = 0.4 * g.size_bits();
            for threads in [1usize, 2, 8] {
                let cfg = PegasusConfig {
                    num_threads: threads,
                    seed: 42,
                    ..Default::default()
                };
                let weights = NodeWeights::personalized(g, &[0, 1], cfg.alpha);
                let spec = cfg.spec();
                let control = RunControl::default();
                let at = |evaluator| {
                    run_loop(
                        g,
                        &weights,
                        budget,
                        &LoopSpec { evaluator, ..spec },
                        &control,
                        None,
                    )
                    .unwrap()
                };
                let (s_cached, st_cached, _) = at(MergeEvaluator::Cached);
                let (s_scan, st_scan, _) = at(MergeEvaluator::Scan);
                assert_eq!(
                    fingerprint(&s_cached),
                    fingerprint(&s_scan),
                    "{name}: cached vs scan summaries diverged at {threads} threads"
                );
                assert_stats_match(&st_cached, &st_scan, &format!("{name}@{threads}"));
            }
        }
    }

    /// The same for SSumM (same engine, SsummMin cost model).
    #[test]
    fn ssumm_summaries_byte_identical_cached_vs_scan() {
        let g = planted_partition(400, 8, 1_800, 300, 5);
        let budget = 0.45 * g.size_bits();
        let weights = NodeWeights::uniform(g.num_nodes());
        for threads in [1usize, 2, 8] {
            let cfg = SsummConfig {
                num_threads: threads,
                ..Default::default()
            };
            let spec = cfg.spec();
            let control = RunControl::default();
            let at = |evaluator| {
                run_loop(
                    &g,
                    &weights,
                    budget,
                    &LoopSpec { evaluator, ..spec },
                    &control,
                    None,
                )
                .unwrap()
            };
            let (s_cached, st_cached, _) = at(MergeEvaluator::Cached);
            let (s_scan, st_scan, _) = at(MergeEvaluator::Scan);
            assert_eq!(
                fingerprint(&s_cached),
                fingerprint(&s_scan),
                "SSumM cached vs scan diverged at {threads} threads"
            );
            assert_stats_match(&st_cached, &st_scan, &format!("ssumm@{threads}"));
        }
    }

    /// Personalized weights and the absolute-cost ablation go through the
    /// same evaluator plumbing — cover them end to end as well.
    #[test]
    fn personalized_and_ablation_runs_byte_identical_cached_vs_scan() {
        let g = barabasi_albert(400, 3, 11);
        let budget = 0.5 * g.size_bits();
        for use_absolute_cost in [false, true] {
            let cfg = PegasusConfig {
                alpha: 1.5,
                use_absolute_cost,
                ..Default::default()
            };
            let weights = NodeWeights::personalized(&g, &[3, 17, 95], cfg.alpha);
            let spec = cfg.spec();
            let control = RunControl::default();
            let at = |evaluator| {
                run_loop(
                    &g,
                    &weights,
                    budget,
                    &LoopSpec { evaluator, ..spec },
                    &control,
                    None,
                )
                .unwrap()
            };
            let (s_cached, st_cached, _) = at(MergeEvaluator::Cached);
            let (s_scan, st_scan, _) = at(MergeEvaluator::Scan);
            assert_eq!(
                fingerprint(&s_cached),
                fingerprint(&s_scan),
                "absolute_cost={use_absolute_cost}: summaries diverged"
            );
            assert_stats_match(&st_cached, &st_scan, "personalized");
        }
    }
}
