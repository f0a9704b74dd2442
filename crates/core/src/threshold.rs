//! Adaptive thresholding (Sect. III-E).
//!
//! The threshold `θ` balances exploitation and exploration: pairs whose
//! relative cost reduction clears `θ` are merged now; others wait for the
//! (different) candidate groups of future iterations. PeGaSus starts at
//! `θ = 0.5` and, after each iteration, resets `θ` to the `⌊β·|L|⌋`-th
//! largest rejected reduction, where `L` collects the best-of-attempt
//! reductions that failed the current threshold. SSumM instead follows
//! the fixed schedule `θ(t) = (1+t)^{-1}` (0 in the final iteration).

/// Decay factor of the per-supernode gain EMA that orders candidate
/// groups in the incremental generator: after each committed group,
/// `gain[s] ← GAIN_DECAY·gain[s] + accepted_delta/|group|` for every
/// member `s`. A half-life of one iteration keeps the schedule reactive
/// to the shrinking summary while still rewarding consistently
/// productive regions.
pub const GAIN_DECAY: f64 = 0.5;

/// Cold-start prior weight per candidate pair: a group with no gain
/// history is ranked by its signature-collision mass (`|group| - 1`)
/// scaled by this constant, small enough that any observed gain
/// dominates the prior.
pub const GAIN_COLD_PRIOR: f64 = 1e-3;

/// The adaptive threshold state of PeGaSus.
#[derive(Clone, Debug)]
pub struct AdaptiveThreshold {
    theta: f64,
    beta: f64,
    /// The list `L` of rejected relative reductions.
    rejected: Vec<f64>,
}

impl AdaptiveThreshold {
    /// Initializes with `θ = 0.5` (Alg. 1 line 2).
    ///
    /// # Panics
    /// Panics unless `0 <= beta <= 1`.
    pub fn new(beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must lie in [0, 1]");
        AdaptiveThreshold {
            theta: 0.5,
            beta,
            rejected: Vec::new(),
        }
    }

    /// Rebuilds the state at an iteration boundary from a checkpointed
    /// `θ`. The rejection list `L` is always empty at boundaries
    /// ([`Self::end_iteration`] clears it), so `θ` is the entire state.
    ///
    /// # Panics
    /// Panics unless `0 <= beta <= 1`.
    pub fn restore(beta: f64, theta: f64) -> Self {
        let mut thr = AdaptiveThreshold::new(beta);
        thr.theta = theta;
        thr
    }

    /// The current threshold `θ`.
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Mutable access to the rejection list `L` for the merge phase.
    #[inline]
    pub fn rejected_mut(&mut self) -> &mut Vec<f64> {
        &mut self.rejected
    }

    /// Folds one worker's rejection samples into `L` (commit phase of the
    /// parallel engine). Call in deterministic group order: the selection
    /// in [`Self::end_iteration`] is order-insensitive, but keeping the
    /// whole pipeline order-stable makes replay debugging exact.
    #[inline]
    pub fn fold_rejections(&mut self, samples: &[f64]) {
        self.rejected.extend_from_slice(samples);
    }

    /// Number of rejections recorded this iteration.
    #[inline]
    pub fn rejection_count(&self) -> usize {
        self.rejected.len()
    }

    /// Ends an iteration (Alg. 1 lines 8–9): sets `θ` to the
    /// `⌊β·|L|⌋`-th largest entry of `L` (the largest when the index
    /// floors to zero, matching the paper's `β ≈ 0` configuration), then
    /// clears `L`. Keeps `θ` unchanged when nothing was rejected.
    ///
    /// Selection runs in `O(|L|)` via `select_nth_unstable` (the paper
    /// cites median-of-medians; Rust's introselect has the same average
    /// behavior and suffices for the complexity argument in practice).
    pub fn end_iteration(&mut self) {
        if self.rejected.is_empty() {
            return;
        }
        let len = self.rejected.len();
        let kth = ((self.beta * len as f64).floor() as usize).clamp(1, len);
        // k-th largest = element at index (k-1) under descending order.
        let idx = kth - 1;
        #[expect(
            clippy::expect_used,
            reason = "rejected reductions are finite by construction; NaN cannot reach the select"
        )]
        self.rejected
            .select_nth_unstable_by(idx, |a, b| b.partial_cmp(a).expect("finite reductions"));
        self.theta = self.rejected[idx];
        self.rejected.clear();
    }
}

/// SSumM's fixed threshold schedule: `θ(t) = (1+t)^{-1}` for `t < t_max`,
/// 0 in the final iteration (Sect. III-G).
#[inline]
pub fn ssumm_schedule(t: usize, t_max: usize) -> f64 {
    if t < t_max {
        1.0 / (1.0 + t as f64)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_half() {
        let thr = AdaptiveThreshold::new(0.1);
        assert_eq!(thr.theta(), 0.5);
    }

    #[test]
    fn picks_kth_largest() {
        let mut thr = AdaptiveThreshold::new(0.5);
        thr.rejected_mut().extend([0.1, 0.4, 0.3, 0.2]);
        // β|L| = 2 → 2nd largest = 0.3.
        thr.end_iteration();
        assert!((thr.theta() - 0.3).abs() < 1e-12);
        assert_eq!(thr.rejection_count(), 0, "L must be cleared");
    }

    #[test]
    fn beta_near_zero_picks_largest() {
        let mut thr = AdaptiveThreshold::new(0.0);
        thr.rejected_mut().extend([0.05, 0.45, 0.25]);
        thr.end_iteration();
        assert!((thr.theta() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn beta_one_picks_smallest() {
        let mut thr = AdaptiveThreshold::new(1.0);
        thr.rejected_mut().extend([0.05, 0.45, 0.25]);
        thr.end_iteration();
        assert!((thr.theta() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn empty_list_keeps_theta() {
        let mut thr = AdaptiveThreshold::new(0.1);
        thr.end_iteration();
        assert_eq!(thr.theta(), 0.5);
    }

    #[test]
    fn theta_decreases_over_iterations() {
        // Rejections are always below the current θ, so θ is monotone
        // non-increasing across iterations (Sect. III-E).
        let mut thr = AdaptiveThreshold::new(0.1);
        let mut last = thr.theta();
        for round in 0..5 {
            let base = 0.4 / (round + 1) as f64;
            for i in 0..10 {
                let r = base * (1.0 - i as f64 / 20.0);
                assert!(r < last);
                thr.rejected_mut().push(r);
            }
            thr.end_iteration();
            assert!(thr.theta() <= last);
            last = thr.theta();
        }
    }

    #[test]
    fn single_rejection() {
        let mut thr = AdaptiveThreshold::new(0.1);
        thr.rejected_mut().push(0.2);
        thr.end_iteration();
        assert!((thr.theta() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ssumm_schedule_values() {
        assert!((ssumm_schedule(1, 20) - 0.5).abs() < 1e-12);
        assert!((ssumm_schedule(2, 20) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(ssumm_schedule(20, 20), 0.0);
        assert_eq!(ssumm_schedule(25, 20), 0.0);
    }

    #[test]
    #[should_panic(expected = "beta must lie in [0, 1]")]
    fn invalid_beta_panics() {
        let _ = AdaptiveThreshold::new(1.5);
    }
}
