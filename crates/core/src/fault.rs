//! Deterministic fault injection for resilience tests (DESIGN.md §10).
//!
//! A [`FaultPlan`] is a list of step-indexed faults consulted by the
//! engine loops at exact iteration boundaries: the evaluator can be made
//! to panic, a checkpoint write to fail, or the run to stall for a fixed
//! pause — always at the same iteration for the same plan, so every
//! recovery path is exercised by reproducible tests instead of luck.
//!
//! # Determinism contract
//!
//! * Faults are keyed by the iteration counter `t`, which replays
//!   identically at any thread count (it is part of the run's
//!   deterministic state, not wall-clock).
//! * Each fault **fires once**: a plan shared across retry attempts (the
//!   serving layer holds it in an `Arc`) does not re-kill the resumed
//!   run at the same iteration. Multi-death scenarios list one fault per
//!   intended death.
//! * [`FaultPlan::seeded_panic`] derives the target iteration from a seed with
//!   the same SplitMix64 mix the engines use, so a seed matrix in CI
//!   covers a spread of death points without hand-picking them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::checkpoint::splitmix64;

/// The kinds of fault a plan can schedule. Public so serving layers can
/// document which kinds they exercise; construction goes through the
/// [`FaultPlan`] builders.
#[derive(Debug)]
pub enum FaultKind {
    /// Panic at the fault point — simulates an evaluator crash mid-run.
    Panic,
    /// Make the next checkpoint write at this iteration report failure.
    FailCheckpoint,
    /// Sleep for the given pause at the fault point — simulates a stall
    /// (e.g. a descheduled worker) without corrupting any state.
    Stall(Duration),
    /// Stall indefinitely at the fault point: sleep in short ticks until
    /// a cooperative cancel flag is raised — simulates a wedged worker
    /// (deadlocked downstream call, livelocked evaluator) that only an
    /// external watchdog can reclaim. A safety cap (~30 s) bounds the
    /// block when no watchdog exists, so a buggy test cannot hang CI
    /// forever.
    StallForever,
    /// Make the serving layer's next admission-journal append for this
    /// fault's step index write a torn (truncated) record straight to the
    /// final path, bypassing tmp+rename — simulates a crash mid-write on
    /// a filesystem without atomic rename.
    TornJournalWrite,
}

#[derive(Debug)]
struct Fault {
    iteration: u64,
    kind: FaultKind,
    armed: AtomicBool,
}

/// A seeded, step-indexed fault schedule threaded through
/// [`crate::api::RunControl`]. See the module docs for the determinism
/// contract.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an evaluator panic at iteration `t` (builder-style).
    pub fn panic_at(mut self, t: u64) -> Self {
        self.faults.push(Fault {
            iteration: t,
            kind: FaultKind::Panic,
            armed: AtomicBool::new(true),
        });
        self
    }

    /// Adds a checkpoint-write failure at iteration `t`.
    pub fn fail_checkpoint_at(mut self, t: u64) -> Self {
        self.faults.push(Fault {
            iteration: t,
            kind: FaultKind::FailCheckpoint,
            armed: AtomicBool::new(true),
        });
        self
    }

    /// Adds an artificial stall of `pause` at iteration `t`.
    pub fn stall_at(mut self, t: u64, pause: Duration) -> Self {
        self.faults.push(Fault {
            iteration: t,
            kind: FaultKind::Stall(pause),
            armed: AtomicBool::new(true),
        });
        self
    }

    /// Adds an indefinite stall at iteration `t`: the run blocks at the
    /// fault point until its cancel flag is raised (or a ~30 s safety cap
    /// elapses). Exercises watchdog escalation.
    pub fn stall_forever_at(mut self, t: u64) -> Self {
        self.faults.push(Fault {
            iteration: t,
            kind: FaultKind::StallForever,
            armed: AtomicBool::new(true),
        });
        self
    }

    /// Adds a torn admission-journal write at journal step `t` (consumed
    /// by the serving layer via [`FaultPlan::journal_write_torn`]).
    pub fn torn_journal_write_at(mut self, t: u64) -> Self {
        self.faults.push(Fault {
            iteration: t,
            kind: FaultKind::TornJournalWrite,
            armed: AtomicBool::new(true),
        });
        self
    }

    /// One indefinite stall at a seed-derived iteration in
    /// `1..=max_iteration` — the CI stall-sweep's per-seed plan (same mix
    /// as [`FaultPlan::seeded_panic`], so the two sweeps cover the same
    /// spread of death points).
    pub fn seeded_stall_forever(seed: u64, max_iteration: u64) -> Self {
        let t = 1 + splitmix64(seed) % max_iteration.max(1);
        FaultPlan::new().stall_forever_at(t)
    }

    /// One evaluator panic at a seed-derived iteration in
    /// `1..=max_iteration` — the CI chaos matrix's per-seed plan.
    pub fn seeded_panic(seed: u64, max_iteration: u64) -> Self {
        let t = 1 + splitmix64(seed) % max_iteration.max(1);
        FaultPlan::new().panic_at(t)
    }

    /// The engine's per-iteration fault point: fires (and disarms) every
    /// armed panic or stall scheduled for iteration `t`. The run's
    /// cooperative cancel flag keeps an indefinite stall interruptible:
    /// a watchdog raising `cancel` unblocks the fault within one tick.
    /// Without a flag (or with no watchdog watching it) a ~30 s safety
    /// cap bounds the block.
    ///
    /// # Panics
    /// Panics when an armed [`FaultPlan::panic_at`] fault matches `t` —
    /// that is the injected failure.
    pub fn fire_ctl(&self, t: u64, cancel: Option<&AtomicBool>) {
        const STALL_SAFETY_CAP: Duration = Duration::from_secs(30);
        for f in &self.faults {
            if f.iteration != t {
                continue;
            }
            match f.kind {
                #[expect(
                    clippy::panic,
                    reason = "deliberate injected panic — the fault being simulated"
                )]
                FaultKind::Panic => {
                    if f.armed.swap(false, Ordering::SeqCst) {
                        panic!("injected fault: evaluator panic at iteration {t}");
                    }
                }
                FaultKind::Stall(pause) => {
                    if f.armed.swap(false, Ordering::SeqCst) {
                        std::thread::sleep(pause);
                    }
                }
                FaultKind::StallForever => {
                    if f.armed.swap(false, Ordering::SeqCst) {
                        let started = Instant::now();
                        loop {
                            if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                                break;
                            }
                            if started.elapsed() >= STALL_SAFETY_CAP {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                FaultKind::FailCheckpoint | FaultKind::TornJournalWrite => {}
            }
        }
    }

    /// Consumes an armed checkpoint-write failure scheduled for
    /// iteration `t`, if any. Called by the checkpoint save path.
    pub fn checkpoint_write_fails(&self, t: u64) -> bool {
        self.faults.iter().any(|f| {
            f.iteration == t
                && matches!(f.kind, FaultKind::FailCheckpoint)
                && f.armed.swap(false, Ordering::SeqCst)
        })
    }

    /// Consumes an armed torn-journal-write fault scheduled for journal
    /// step `t`, if any. Called by the serving layer's admission-journal
    /// append path.
    pub fn journal_write_torn(&self, t: u64) -> bool {
        self.faults.iter().any(|f| {
            f.iteration == t
                && matches!(f.kind, FaultKind::TornJournalWrite)
                && f.armed.swap(false, Ordering::SeqCst)
        })
    }

    /// Number of faults still armed (not yet fired).
    pub fn armed(&self) -> usize {
        self.faults
            .iter()
            .filter(|f| f.armed.load(Ordering::SeqCst))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_fires_once_at_its_iteration() {
        let plan = FaultPlan::new().panic_at(3);
        plan.fire_ctl(1, None);
        plan.fire_ctl(2, None);
        assert_eq!(plan.armed(), 1);
        let caught = std::panic::catch_unwind(|| plan.fire_ctl(3, None));
        assert!(caught.is_err(), "iteration 3 must panic");
        assert_eq!(plan.armed(), 0);
        plan.fire_ctl(3, None); // disarmed: a resumed run passes the same boundary
    }

    #[test]
    fn checkpoint_failure_consumes_once() {
        let plan = FaultPlan::new().fail_checkpoint_at(2);
        assert!(!plan.checkpoint_write_fails(1));
        assert!(plan.checkpoint_write_fails(2));
        assert!(!plan.checkpoint_write_fails(2), "fires once");
    }

    #[test]
    fn stall_does_not_panic_and_disarms() {
        let plan = FaultPlan::new().stall_at(1, Duration::from_millis(1));
        plan.fire_ctl(1, None);
        assert_eq!(plan.armed(), 0);
    }

    #[test]
    fn seeded_panic_lands_in_range_and_is_deterministic() {
        for seed in 0..32u64 {
            let a = FaultPlan::seeded_panic(seed, 8);
            let b = FaultPlan::seeded_panic(seed, 8);
            assert_eq!(a.faults[0].iteration, b.faults[0].iteration);
            assert!((1..=8).contains(&a.faults[0].iteration), "seed {seed}");
        }
    }

    #[test]
    fn stall_forever_unblocks_on_cancel() {
        let plan = FaultPlan::new().stall_forever_at(1);
        let cancel = AtomicBool::new(false);
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                cancel.store(true, Ordering::Relaxed);
            });
            plan.fire_ctl(1, Some(&cancel));
        });
        let blocked = started.elapsed();
        assert!(
            blocked >= Duration::from_millis(15) && blocked < Duration::from_secs(5),
            "stall must hold until cancel, then release promptly (blocked {blocked:?})"
        );
        assert_eq!(plan.armed(), 0, "fires once");
        plan.fire_ctl(1, Some(&cancel)); // disarmed: no further block
    }

    #[test]
    fn seeded_stall_matches_seeded_panic_iteration() {
        for seed in 0..16u64 {
            let stall = FaultPlan::seeded_stall_forever(seed, 8);
            let panic = FaultPlan::seeded_panic(seed, 8);
            assert_eq!(stall.faults[0].iteration, panic.faults[0].iteration);
        }
    }

    #[test]
    fn torn_journal_write_consumes_once() {
        let plan = FaultPlan::new().torn_journal_write_at(1);
        plan.fire_ctl(1, None); // engine fault point ignores journal faults
        assert_eq!(plan.armed(), 1);
        assert!(!plan.journal_write_torn(0));
        assert!(plan.journal_write_torn(1));
        assert!(!plan.journal_write_torn(1), "fires once");
    }
}
