//! The unified request/response API: the one fallible, cancellable,
//! observable entry point for every summarizer in the workspace
//! (DESIGN.md §8). It consists of:
//!
//! * [`SummarizeRequest`] — a builder bundling a [`Budget`] (bits, a
//!   compression ratio, or a supernode count), a [`Personalization`]
//!   (uniform, target nodes, or prebuilt [`NodeWeights`]), and a
//!   [`RunControl`] (cooperative cancel flag, wall-clock deadline,
//!   per-iteration progress observer).
//! * [`Summarizer`] — the object-safe trait every algorithm implements:
//!   `run(&self, g, &req) -> Result<RunOutput, PgsError>`. [`Pegasus`]
//!   and [`Ssumm`] live here; the `pgs-baselines` crate implements it
//!   for k-GraSS, S2L, and SAAGs.
//! * [`PgsError`] — typed validation errors (empty graph, non-finite or
//!   non-positive budget, out-of-range target, `α < 1`, `β ∉ [0, 1]`,
//!   weight-length mismatch, unsupported request axes) instead of
//!   panics: the request path never panics on bad input.
//! * [`RunOutput`] — the summary plus final [`RunStats`] plus the
//!   [`StopReason`] the run ended with.
//!
//! # Budget normalization
//!
//! PeGaSus and SSumM are bit-budgeted (Eq. 3): [`Budget::Bits`] passes
//! through, [`Budget::Ratio`] multiplies by `Size(G)`, and
//! [`Budget::Supernodes`] is rejected as [`PgsError::Unsupported`] — a
//! summary's bit size depends on its superedge set, so no faithful
//! count→bits mapping exists. The baselines are supernode-count
//! budgeted: [`Budget::Supernodes`] clamps to at most `|V|`, and
//! [`Budget::Ratio`]/[`Budget::Bits`] map to
//! `clamp(⌈ratio · |V|⌉, 1, |V|)` (bits first convert to a ratio of
//! `Size(G)`).
//!
//! # Example
//!
//! ```
//! use pgs_core::api::{Budget, Pegasus, StopReason, SummarizeRequest, Summarizer};
//! use pgs_graph::gen::barabasi_albert;
//!
//! let g = barabasi_albert(300, 3, 7);
//! let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[0, 1]);
//! let out = Pegasus::default().run(&g, &req).unwrap();
//! assert_eq!(out.stop, StopReason::BudgetMet);
//! assert!(out.summary.size_bits() <= 0.5 * g.size_bits());
//!
//! // Invalid requests are typed errors, never panics.
//! let bad = SummarizeRequest::new(Budget::Bits(f64::NAN));
//! assert!(Pegasus::default().run(&g, &bad).is_err());
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::checkpoint::{CheckpointError, RunCheckpoint};
use crate::fault::FaultPlan;
use crate::pegasus::{run_loop, PegasusConfig, RunStats};
use crate::ssumm::SsummConfig;
use crate::summary::Summary;
use crate::weights::NodeWeights;
use pgs_graph::{Graph, NodeId};

/// A shareable per-iteration progress observer (see
/// [`RunControl::observer`]).
pub type ProgressObserver = Arc<dyn Fn(&RunStats) + Send + Sync>;

/// A checkpoint sink: receives `(iteration, encoded blob)` at commit
/// boundaries and persists it somewhere a retry can read it back.
/// Returning `Err` counts as a failed write — the run continues and the
/// previous good checkpoint stays in force.
pub type CheckpointSink = Arc<dyn Fn(u64, Vec<u8>) -> Result<(), CheckpointError> + Send + Sync>;

/// Checkpointing policy attached to a run: where snapshots go and how
/// often they are taken.
#[derive(Clone)]
pub struct Checkpointing {
    /// Receives each encoded [`RunCheckpoint`].
    pub sink: CheckpointSink,
    /// Snapshot after every `every`-th committed iteration (≥ 1;
    /// 0 behaves as 1). Each snapshot is a full serialized
    /// [`crate::working::WorkingSummary`], so per-iteration
    /// checkpointing costs `O(|V| + |P|)` per iteration.
    pub every: u64,
}

/// Typed failure of a summarization request (or of the error
/// evaluators or the serving layer), returned at the public boundary
/// instead of a panic.
#[derive(Clone, Debug, PartialEq)]
pub enum PgsError {
    /// The input graph has no nodes.
    EmptyGraph,
    /// A bit budget that is not a finite, positive number.
    InvalidBudgetBits(f64),
    /// A compression ratio that is not a finite, positive number.
    InvalidBudgetRatio(f64),
    /// A supernode budget of zero.
    ZeroSupernodeBudget,
    /// A personalization target outside `0..|V|`.
    TargetOutOfRange {
        /// The offending node id.
        target: NodeId,
        /// `|V|` of the graph the request ran against.
        num_nodes: usize,
    },
    /// An explicitly empty target set (use [`Personalization::Uniform`]
    /// for `T = V`).
    EmptyTargets,
    /// A degree of personalization `α` that is not finite and `≥ 1`.
    InvalidAlpha(f64),
    /// A threshold quantile `β` outside `[0, 1]`.
    InvalidBeta(f64),
    /// A prebuilt weight vector whose length differs from `|V|`.
    WeightLengthMismatch {
        /// Nodes the weight vector covers.
        weights: usize,
        /// Nodes the graph has.
        nodes: usize,
    },
    /// Graph and summary disagree on `|V|` (error evaluation).
    NodeCountMismatch {
        /// `|V|` of the graph.
        graph: usize,
        /// `|V|` the summary was built over.
        summary: usize,
    },
    /// The algorithm cannot honor one axis of the request.
    Unsupported {
        /// Which summarizer rejected the request.
        algorithm: &'static str,
        /// The request axis it cannot honor.
        feature: &'static str,
    },
    /// The run panicked (a bug in an algorithm implementation or a
    /// user-supplied observer). Reported by serving layers that isolate
    /// panics so one bad request cannot take down the worker pool.
    RunPanicked,
    /// The serving layer refused (or shed) the request because its
    /// admission bounds are full. The request never ran; resubmitting
    /// after roughly `retry_after_hint` is expected to be admitted.
    Overloaded {
        /// Rough wait before a resubmit is likely to be admitted,
        /// estimated from queue depth and observed service times.
        retry_after_hint: Duration,
    },
    /// A resume blob that could not be decoded or does not belong to
    /// this run (wrong algorithm or graph).
    CheckpointInvalid {
        /// The underlying [`CheckpointError`], rendered.
        reason: String,
    },
    /// The serving layer quarantined this durable key: the job exhausted
    /// its retry allowance across process restarts (its persisted
    /// attempt count in the admission journal ran out), so it is never
    /// re-admitted automatically. An operator must release it.
    Quarantined {
        /// The durable key that is quarantined.
        key: String,
    },
    /// The serving layer could not persist a durable submission's
    /// admission-journal record, so it refused the job rather than admit
    /// work a restart could lose.
    JournalWriteFailed {
        /// The underlying I/O failure, rendered.
        reason: String,
    },
}

impl std::fmt::Display for PgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PgsError::EmptyGraph => write!(f, "empty graph: summarization needs at least one node"),
            PgsError::InvalidBudgetBits(b) => {
                write!(f, "bit budget must be finite and positive, got {b}")
            }
            PgsError::InvalidBudgetRatio(r) => {
                write!(f, "budget ratio must be finite and positive, got {r}")
            }
            PgsError::ZeroSupernodeBudget => write!(f, "supernode budget must be at least 1"),
            PgsError::TargetOutOfRange { target, num_nodes } => {
                write!(f, "target {target} out of range (|V| = {num_nodes})")
            }
            PgsError::EmptyTargets => write!(
                f,
                "target node set must be non-empty (use Personalization::Uniform for T = V)"
            ),
            PgsError::InvalidAlpha(a) => write!(
                f,
                "degree of personalization alpha must be finite and >= 1, got {a}"
            ),
            PgsError::InvalidBeta(b) => {
                write!(f, "threshold quantile beta must lie in [0, 1], got {b}")
            }
            PgsError::WeightLengthMismatch { weights, nodes } => write!(
                f,
                "weight vector covers {weights} nodes but the graph has {nodes}"
            ),
            PgsError::NodeCountMismatch { graph, summary } => write!(
                f,
                "summary/graph node count mismatch: graph has {graph}, summary covers {summary}"
            ),
            PgsError::Unsupported { algorithm, feature } => {
                write!(f, "{algorithm} does not support {feature}")
            }
            PgsError::RunPanicked => write!(
                f,
                "summarization run panicked (algorithm or observer bug); the worker recovered"
            ),
            PgsError::Overloaded { retry_after_hint } => write!(
                f,
                "service overloaded; retry after ~{} ms",
                retry_after_hint.as_millis()
            ),
            PgsError::CheckpointInvalid { reason } => {
                write!(f, "invalid resume checkpoint: {reason}")
            }
            PgsError::Quarantined { key } => write!(
                f,
                "durable key {key:?} is quarantined (retry allowance exhausted across restarts); \
                 release it explicitly to resubmit"
            ),
            PgsError::JournalWriteFailed { reason } => {
                write!(f, "admission journal write failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PgsError {}

/// How large the summary may be. See the module docs for how each
/// variant normalizes per algorithm family.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Absolute bit budget `k` (Eq. 3 accounting).
    Bits(f64),
    /// Compression ratio `Size(G̅) / Size(G)` (bit-budgeted algorithms)
    /// or `|S| / |V|` (supernode-budgeted baselines).
    Ratio(f64),
    /// Exact supernode count `|S|` (the baselines' native budget).
    Supernodes(usize),
}

impl Budget {
    /// Normalizes to a bit budget for the bit-budgeted algorithms
    /// (PeGaSus, SSumM). `algorithm` names the caller in errors.
    pub fn to_bits(self, g: &Graph, algorithm: &'static str) -> Result<f64, PgsError> {
        match self {
            Budget::Bits(b) if b.is_finite() && b > 0.0 => Ok(b),
            Budget::Bits(b) => Err(PgsError::InvalidBudgetBits(b)),
            Budget::Ratio(r) if r.is_finite() && r > 0.0 => Ok(r * g.size_bits()),
            Budget::Ratio(r) => Err(PgsError::InvalidBudgetRatio(r)),
            Budget::Supernodes(_) => Err(PgsError::Unsupported {
                algorithm,
                feature: "supernode-count budgets (use Budget::Bits or Budget::Ratio)",
            }),
        }
    }

    /// Normalizes to a supernode count for the count-budgeted baselines:
    /// ratios (and bit budgets, via `bits / Size(G)`) map to
    /// `clamp(⌈ratio · |V|⌉, 1, |V|)`. Explicit supernode counts clamp
    /// to `|V|` too, so every variant expresses the same ceiling.
    pub fn to_supernodes(self, g: &Graph) -> Result<usize, PgsError> {
        let n = g.num_nodes();
        let from_ratio = |r: f64| ((r * n as f64).ceil() as usize).clamp(1, n.max(1));
        match self {
            Budget::Supernodes(0) => Err(PgsError::ZeroSupernodeBudget),
            Budget::Supernodes(k) => Ok(k.min(n.max(1))),
            Budget::Ratio(r) if r.is_finite() && r > 0.0 => Ok(from_ratio(r)),
            Budget::Ratio(r) => Err(PgsError::InvalidBudgetRatio(r)),
            Budget::Bits(b) if b.is_finite() && b > 0.0 => {
                Ok(from_ratio(b / g.size_bits().max(f64::MIN_POSITIVE)))
            }
            Budget::Bits(b) => Err(PgsError::InvalidBudgetBits(b)),
        }
    }
}

/// Whose reconstruction error the summary optimizes (Eq. 1–2).
#[derive(Clone, Debug, Default)]
pub enum Personalization {
    /// Uniform pair weights — the non-personalized setting (`T = V`).
    #[default]
    Uniform,
    /// Personalize to these target nodes (Eq. 2 weights at the
    /// algorithm's `α`).
    Targets(Vec<NodeId>),
    /// Prebuilt node weights — reuse one BFS across many runs.
    Weights(NodeWeights),
}

impl Personalization {
    /// Canonical form of the targets axis for keying shared-BFS weight
    /// caches: the target ids sorted and deduplicated. Two `Targets`
    /// requests with the same canonical key resolve (at equal `α`) to
    /// bitwise-identical [`NodeWeights`] — Eq.-2 weights depend only on
    /// the target *set*, and the multi-source BFS is order-insensitive —
    /// so a serving layer may compute the BFS once and replay it as
    /// [`Personalization::Weights`].
    ///
    /// `None` when there is nothing to cache: uniform weights need no
    /// BFS, prebuilt weights are already materialized, and an empty
    /// target list is invalid (it errors in [`SummarizeRequest::resolve_weights`]).
    pub fn target_key(&self) -> Option<Vec<NodeId>> {
        match self {
            Personalization::Targets(targets) if !targets.is_empty() => {
                let mut key = targets.clone();
                key.sort_unstable();
                key.dedup();
                Some(key)
            }
            _ => None,
        }
    }
}

/// Cooperative run control: cancel flag, wall-clock deadline, progress
/// observer. All fields optional; the default imposes nothing and costs
/// nothing on the hot path.
///
/// Checks sit at *commit boundaries* (the top of each PeGaSus/SSumM
/// iteration, each baseline merge step), so an interrupted run always
/// returns a structurally valid summary — merely a less compressed one —
/// and an uninterrupted run is bitwise identical to one launched without
/// any control.
#[derive(Clone, Default)]
pub struct RunControl {
    /// Cooperative cancellation: set to `true` (any ordering) to stop
    /// the run at the next commit boundary with [`StopReason::Cancelled`].
    pub cancel: Option<Arc<AtomicBool>>,
    /// Wall-clock budget measured from run start; exceeded ⇒
    /// [`StopReason::DeadlineExceeded`] at the next commit boundary.
    pub deadline: Option<Duration>,
    /// Called with the running [`RunStats`] after every committed
    /// iteration.
    pub observer: Option<ProgressObserver>,
    /// Checkpoint snapshots at iteration-commit boundaries (DESIGN.md
    /// §10). `None` costs nothing on the hot path.
    pub checkpoint: Option<Checkpointing>,
    /// Injected faults for resilience tests ([`FaultPlan`]); `None` in
    /// production.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// An encoded [`RunCheckpoint`] to resume from instead of starting
    /// fresh. Validated against the run's algorithm and graph before the
    /// loop starts; a mismatch is [`PgsError::CheckpointInvalid`].
    pub resume: Option<Arc<Vec<u8>>>,
    /// Liveness heartbeat for an external watchdog: engines bump this
    /// counter at *group* granularity — once per iteration, once per
    /// candidate group evaluated, once per group committed, and once per
    /// run of survivors or neighbor tables in the commit's table passes —
    /// so a watchdog observing a stuck value for longer than its stall
    /// timeout may conclude the run is wedged and escalate to `cancel`.
    /// `None` costs nothing on the hot path.
    pub heartbeat: Option<Arc<AtomicU64>>,
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field(
                "cancel",
                &self.cancel.as_ref().map(|c| c.load(Ordering::Relaxed)),
            )
            .field("deadline", &self.deadline)
            .field("observer", &self.observer.is_some())
            .field(
                "checkpoint_every",
                &self.checkpoint.as_ref().map(|c| c.every),
            )
            .field("fault_plan", &self.fault_plan.is_some())
            .field("resume", &self.resume.as_ref().map(|b| b.len()))
            .field("heartbeat", &self.heartbeat.is_some())
            .finish()
    }
}

impl RunControl {
    /// The stop reason in force at a commit boundary, if any. Cancel
    /// wins over the deadline when both have tripped.
    #[inline]
    pub fn interrupted(&self, started: Instant) -> Option<StopReason> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if started.elapsed() >= deadline {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Notifies the observer (if any) of one committed iteration.
    #[inline]
    pub fn notify(&self, stats: &RunStats) {
        if let Some(obs) = &self.observer {
            obs(stats);
        }
    }

    /// The engines' per-iteration fault point: fires any injected fault
    /// scheduled for iteration `t` (no-op without a plan). The cancel
    /// flag is threaded through so blocking faults
    /// ([`crate::fault::FaultKind::StallForever`]) stay interruptible by
    /// a watchdog.
    #[inline]
    pub fn fault_point(&self, t: u64) {
        if let Some(plan) = &self.fault_plan {
            plan.fire_ctl(t, self.cancel.as_deref());
        }
    }

    /// Stamps the liveness heartbeat (no-op without one). Engines call
    /// this at group granularity in evaluate and commit; see
    /// [`RunControl::heartbeat`].
    #[inline]
    pub fn beat(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes a checkpoint after committed iteration `t` when the policy
    /// says so: builds the snapshot lazily, encodes it, and hands it to
    /// the sink. Write failures (real or injected) bump
    /// `stats.checkpoint_failures` and the run carries on — the previous
    /// good checkpoint stays in force.
    pub fn maybe_checkpoint(
        &self,
        t: u64,
        stats: &mut RunStats,
        build: impl FnOnce() -> RunCheckpoint,
    ) {
        let Some(cp) = &self.checkpoint else {
            return;
        };
        if !t.is_multiple_of(cp.every.max(1)) {
            return;
        }
        let injected_failure = self
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.checkpoint_write_fails(t));
        let result = if injected_failure {
            Err(CheckpointError::WriteFailed(
                "injected fault: checkpoint write failure".into(),
            ))
        } else {
            (cp.sink)(t, build().encode())
        };
        match result {
            Ok(()) => stats.checkpoints += 1,
            Err(_) => stats.checkpoint_failures += 1,
        }
    }

    /// Decodes and validates the resume blob for a run of `algorithm`
    /// over `num_nodes` nodes, or `Ok(None)` when starting fresh.
    pub fn decode_resume(
        &self,
        algorithm: u8,
        num_nodes: usize,
    ) -> Result<Option<RunCheckpoint>, PgsError> {
        match &self.resume {
            None => Ok(None),
            Some(bytes) => {
                let ck = RunCheckpoint::decode(bytes).map_err(checkpoint_invalid)?;
                ck.validate_for(algorithm, num_nodes)
                    .map_err(checkpoint_invalid)?;
                Ok(Some(ck))
            }
        }
    }
}

/// Why a run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The summary reached the requested budget.
    BudgetMet,
    /// The iteration cap elapsed first (bit-budgeted runs then sparsify
    /// down to the budget; `RunStats::sparsified` records that).
    MaxIters,
    /// The cooperative cancel flag was set.
    Cancelled,
    /// The wall-clock deadline elapsed.
    DeadlineExceeded,
    /// The serving layer exhausted its retry budget recovering a crashed
    /// run; the summary is the last good checkpoint (or identity).
    RetriesExhausted,
    /// A supervising watchdog saw the run's heartbeat frozen past its
    /// stall timeout and cancelled it; the summary is whatever had
    /// committed by then (or the last good checkpoint, or identity).
    Stalled,
}

impl StopReason {
    /// Stable lowercase token for CLIs and benchmark JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::BudgetMet => "budget-met",
            StopReason::MaxIters => "max-iters",
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExceeded => "deadline-exceeded",
            StopReason::RetriesExhausted => "retries-exhausted",
            StopReason::Stalled => "stalled",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Everything a finished run hands back.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The (possibly partial, always structurally valid) summary.
    pub summary: Summary,
    /// Final run statistics.
    pub stats: RunStats,
    /// Why the run stopped.
    pub stop: StopReason,
}

/// One summarization request: budget + personalization + run control,
/// assembled builder-style. Algorithm-specific knobs (α, β, seeds,
/// thread counts, …) live on the [`Summarizer`] implementations, so one
/// request can be replayed against any algorithm.
#[derive(Clone, Debug, Default)]
pub struct SummarizeRequest {
    budget: Option<Budget>,
    personalization: Personalization,
    control: RunControl,
}

impl SummarizeRequest {
    /// A request for the given budget, uniform personalization, no run
    /// control.
    pub fn new(budget: Budget) -> Self {
        SummarizeRequest {
            budget: Some(budget),
            personalization: Personalization::Uniform,
            control: RunControl::default(),
        }
    }

    /// Sets the personalization axis wholesale.
    pub fn personalization(mut self, p: Personalization) -> Self {
        self.personalization = p;
        self
    }

    /// Personalizes to these target nodes (an empty slice means `T = V`,
    /// the uniform personalization).
    pub fn targets(mut self, targets: &[NodeId]) -> Self {
        self.personalization = if targets.is_empty() {
            Personalization::Uniform
        } else {
            Personalization::Targets(targets.to_vec())
        };
        self
    }

    /// Personalizes with prebuilt node weights.
    pub fn weights(mut self, w: NodeWeights) -> Self {
        self.personalization = Personalization::Weights(w);
        self
    }

    /// Attaches a cooperative cancel flag.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.control.cancel = Some(flag);
        self
    }

    /// Attaches a wall-clock deadline (measured from run start).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.control.deadline = Some(deadline);
        self
    }

    /// Attaches a per-iteration progress observer.
    pub fn observer(mut self, f: impl Fn(&RunStats) + Send + Sync + 'static) -> Self {
        self.control.observer = Some(Arc::new(f));
        self
    }

    /// Attaches a checkpoint sink invoked every `every` committed
    /// iterations with `(iteration, encoded RunCheckpoint)`.
    pub fn checkpoint(mut self, every: u64, sink: CheckpointSink) -> Self {
        self.control.checkpoint = Some(Checkpointing { sink, every });
        self
    }

    /// Attaches a deterministic fault-injection plan (tests only).
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.control.fault_plan = Some(plan);
        self
    }

    /// Attaches a liveness heartbeat counter for an external watchdog
    /// (see [`RunControl::heartbeat`]).
    pub fn heartbeat(mut self, hb: Arc<AtomicU64>) -> Self {
        self.control.heartbeat = Some(hb);
        self
    }

    /// Resumes the run from an encoded [`RunCheckpoint`] instead of
    /// starting fresh.
    pub fn resume_from(mut self, bytes: Arc<Vec<u8>>) -> Self {
        self.control.resume = Some(bytes);
        self
    }

    /// Replaces the whole [`RunControl`].
    pub fn control(mut self, control: RunControl) -> Self {
        self.control = control;
        self
    }

    /// The requested budget.
    ///
    /// A default-constructed request carries none; [`Summarizer::run`]
    /// reports that as [`PgsError::InvalidBudgetBits`]`(NaN)`.
    pub fn budget(&self) -> Budget {
        self.budget.unwrap_or(Budget::Bits(f64::NAN))
    }

    /// The requested personalization.
    pub fn personalization_ref(&self) -> &Personalization {
        &self.personalization
    }

    /// The run control in force.
    pub fn control_ref(&self) -> &RunControl {
        &self.control
    }

    /// Validates the personalization axis against `g` and resolves it to
    /// node weights at degree `alpha` — the shared PeGaSus-family path.
    /// `alpha` itself is validated too (`Targets` needs it): callers
    /// that resolve *before* the algorithm's own config checks — e.g. a
    /// serving layer's submit-side weight cache — still get a typed
    /// [`PgsError::InvalidAlpha`], never a panic.
    pub fn resolve_weights(&self, g: &Graph, alpha: f64) -> Result<NodeWeights, PgsError> {
        match &self.personalization {
            Personalization::Uniform => Ok(NodeWeights::uniform(g.num_nodes())),
            Personalization::Targets(targets) => {
                if !alpha.is_finite() || alpha < 1.0 {
                    return Err(PgsError::InvalidAlpha(alpha));
                }
                if targets.is_empty() {
                    return Err(PgsError::EmptyTargets);
                }
                for &t in targets {
                    if (t as usize) >= g.num_nodes() {
                        return Err(PgsError::TargetOutOfRange {
                            target: t,
                            num_nodes: g.num_nodes(),
                        });
                    }
                }
                Ok(NodeWeights::personalized(g, targets, alpha))
            }
            Personalization::Weights(w) => {
                if w.len() != g.num_nodes() {
                    return Err(PgsError::WeightLengthMismatch {
                        weights: w.len(),
                        nodes: g.num_nodes(),
                    });
                }
                Ok(w.clone())
            }
        }
    }

    /// `Err(Unsupported)` unless the personalization is uniform — the
    /// validation every non-personalized algorithm shares.
    pub fn require_uniform(&self, algorithm: &'static str) -> Result<(), PgsError> {
        match self.personalization {
            Personalization::Uniform => Ok(()),
            _ => Err(PgsError::Unsupported {
                algorithm,
                feature: "personalization (it optimizes the uniform reconstruction error)",
            }),
        }
    }
}

/// The one interface every summarizer serves: a fallible, cancellable,
/// observable run against a shared request shape. Object-safe — servers
/// dispatch through `dyn Summarizer`.
pub trait Summarizer {
    /// Stable lowercase algorithm name (CLI `--algorithm` tokens).
    fn name(&self) -> &'static str;

    /// Validates the request, runs the algorithm, and returns the
    /// summary with stats and stop reason. Never panics on invalid
    /// requests — every validation failure is a typed [`PgsError`].
    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError>;

    /// The degree of personalization `α` at which this summarizer
    /// resolves [`Personalization::Targets`] into Eq.-2 weights, or
    /// `None` if it rejects non-uniform personalization. Serving layers
    /// key shared-BFS weight caches on
    /// `(`[`Personalization::target_key`]`, α)` — equal keys at equal
    /// `α` mean bitwise-identical weights.
    fn personalization_alpha(&self) -> Option<f64> {
        None
    }
}

/// PeGaSus (Alg. 1) behind the [`Summarizer`] interface.
#[derive(Clone, Debug, Default)]
pub struct Pegasus(pub PegasusConfig);

impl Summarizer for Pegasus {
    fn name(&self) -> &'static str {
        "pegasus"
    }

    fn personalization_alpha(&self) -> Option<f64> {
        Some(self.0.alpha)
    }

    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        let cfg = &self.0;
        if g.num_nodes() == 0 {
            return Err(PgsError::EmptyGraph);
        }
        if !cfg.alpha.is_finite() || cfg.alpha < 1.0 {
            return Err(PgsError::InvalidAlpha(cfg.alpha));
        }
        if !cfg.beta.is_finite() || !(0.0..=1.0).contains(&cfg.beta) {
            return Err(PgsError::InvalidBeta(cfg.beta));
        }
        let budget_bits = req.budget().to_bits(g, self.name())?;
        let weights = req.resolve_weights(g, cfg.alpha)?;
        let spec = cfg.spec();
        let control = req.control_ref();
        let resume = control.decode_resume(spec.algorithm, g.num_nodes())?;
        let (summary, stats, stop) =
            run_loop(g, &weights, budget_bits, &spec, control, resume.as_ref())
                .map_err(checkpoint_invalid)?;
        Ok(finish_run(g, summary, stats, stop))
    }
}

/// SSumM (Sect. III-G) behind the [`Summarizer`] interface. Uniform
/// personalization only — it optimizes the non-personalized error.
#[derive(Clone, Debug, Default)]
pub struct Ssumm(pub SsummConfig);

impl Summarizer for Ssumm {
    fn name(&self) -> &'static str {
        "ssumm"
    }

    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        if g.num_nodes() == 0 {
            return Err(PgsError::EmptyGraph);
        }
        req.require_uniform(self.name())?;
        let budget_bits = req.budget().to_bits(g, self.name())?;
        let spec = self.0.spec();
        let control = req.control_ref();
        let resume = control.decode_resume(spec.algorithm, g.num_nodes())?;
        let weights = NodeWeights::uniform(g.num_nodes());
        let (summary, stats, stop) =
            run_loop(g, &weights, budget_bits, &spec, control, resume.as_ref())
                .map_err(checkpoint_invalid)?;
        Ok(finish_run(g, summary, stats, stop))
    }
}

/// A resume blob that fails to decode, validate or restore.
fn checkpoint_invalid(e: CheckpointError) -> PgsError {
    PgsError::CheckpointInvalid {
        reason: e.to_string(),
    }
}

/// Shared run finalization: caps this thread's reusable evaluation
/// scratch to the active graph (the ROADMAP "thread-local scratch
/// lifetime" hook — a long-lived server thread stops pinning dense
/// lanes sized to the largest graph it ever summarized) and assembles
/// the [`RunOutput`].
pub fn finish_run(g: &Graph, summary: Summary, stats: RunStats, stop: StopReason) -> RunOutput {
    crate::working::shrink_thread_scratch(g.num_nodes());
    RunOutput {
        summary,
        stats,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_graph::gen::barabasi_albert;
    use pgs_graph::Graph;

    #[test]
    fn budget_normalization_rules() {
        let g = barabasi_albert(100, 3, 1);
        assert_eq!(Budget::Bits(512.0).to_bits(&g, "x").unwrap(), 512.0);
        let half = Budget::Ratio(0.5).to_bits(&g, "x").unwrap();
        assert!((half - 0.5 * g.size_bits()).abs() < 1e-9);
        assert!(matches!(
            Budget::Supernodes(10).to_bits(&g, "x"),
            Err(PgsError::Unsupported { .. })
        ));

        assert_eq!(Budget::Supernodes(17).to_supernodes(&g).unwrap(), 17);
        assert_eq!(Budget::Ratio(0.25).to_supernodes(&g).unwrap(), 25);
        assert_eq!(Budget::Ratio(5.0).to_supernodes(&g).unwrap(), 100);
        let via_bits = Budget::Bits(0.25 * g.size_bits())
            .to_supernodes(&g)
            .unwrap();
        assert_eq!(via_bits, 25);
    }

    #[test]
    fn invalid_budgets_are_typed_errors() {
        let g = barabasi_albert(50, 2, 2);
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            assert!(Budget::Bits(bad).to_bits(&g, "x").is_err(), "{bad}");
            assert!(Budget::Ratio(bad).to_bits(&g, "x").is_err(), "{bad}");
            assert!(Budget::Bits(bad).to_supernodes(&g).is_err(), "{bad}");
            assert!(Budget::Ratio(bad).to_supernodes(&g).is_err(), "{bad}");
        }
        assert_eq!(
            Budget::Supernodes(0).to_supernodes(&g),
            Err(PgsError::ZeroSupernodeBudget)
        );
    }

    #[test]
    fn request_validation_errors() {
        let g = barabasi_albert(40, 2, 3);
        let alg = Pegasus::default();

        let empty = Graph::empty(0);
        let req = SummarizeRequest::new(Budget::Ratio(0.5));
        assert_eq!(alg.run(&empty, &req).unwrap_err(), PgsError::EmptyGraph);

        let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[1000]);
        assert_eq!(
            alg.run(&g, &req).unwrap_err(),
            PgsError::TargetOutOfRange {
                target: 1000,
                num_nodes: 40
            }
        );

        let req = SummarizeRequest::new(Budget::Ratio(0.5))
            .personalization(Personalization::Targets(Vec::new()));
        assert_eq!(alg.run(&g, &req).unwrap_err(), PgsError::EmptyTargets);

        let bad_alpha = Pegasus(PegasusConfig {
            alpha: 0.5,
            ..Default::default()
        });
        let req = SummarizeRequest::new(Budget::Ratio(0.5));
        assert_eq!(
            bad_alpha.run(&g, &req).unwrap_err(),
            PgsError::InvalidAlpha(0.5)
        );

        let bad_beta = Pegasus(PegasusConfig {
            beta: 1.5,
            ..Default::default()
        });
        assert_eq!(
            bad_beta.run(&g, &req).unwrap_err(),
            PgsError::InvalidBeta(1.5)
        );

        // resolve_weights validates alpha itself (the serving layer
        // resolves before the algorithm's config checks run).
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[0]);
        for bad_alpha in [0.5, f64::NAN, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    req.resolve_weights(&g, bad_alpha),
                    Err(PgsError::InvalidAlpha(_))
                ),
                "{bad_alpha}"
            );
        }

        let req = SummarizeRequest::new(Budget::Ratio(0.5)).weights(NodeWeights::uniform(3));
        assert_eq!(
            alg.run(&g, &req).unwrap_err(),
            PgsError::WeightLengthMismatch {
                weights: 3,
                nodes: 40
            }
        );

        // A default request carries no budget; that too is a typed error.
        assert!(matches!(
            alg.run(&g, &SummarizeRequest::default()),
            Err(PgsError::InvalidBudgetBits(_))
        ));
    }

    #[test]
    fn ssumm_rejects_personalization() {
        let g = barabasi_albert(40, 2, 4);
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[0]);
        assert!(matches!(
            Ssumm::default().run(&g, &req),
            Err(PgsError::Unsupported {
                algorithm: "ssumm",
                ..
            })
        ));
    }

    #[test]
    fn errors_display_without_panicking() {
        let samples = [
            PgsError::EmptyGraph,
            PgsError::InvalidBudgetBits(f64::NAN),
            PgsError::TargetOutOfRange {
                target: 9,
                num_nodes: 3,
            },
            PgsError::Unsupported {
                algorithm: "s2l",
                feature: "personalization",
            },
        ];
        for e in samples {
            assert!(!e.to_string().is_empty());
        }
        assert!(PgsError::TargetOutOfRange {
            target: 9,
            num_nodes: 3
        }
        .to_string()
        .contains("out of range"));
    }

    #[test]
    fn stop_reason_tokens_are_stable() {
        assert_eq!(StopReason::BudgetMet.as_str(), "budget-met");
        assert_eq!(StopReason::MaxIters.as_str(), "max-iters");
        assert_eq!(StopReason::Cancelled.as_str(), "cancelled");
        assert_eq!(StopReason::DeadlineExceeded.as_str(), "deadline-exceeded");
        assert_eq!(StopReason::RetriesExhausted.as_str(), "retries-exhausted");
        assert_eq!(StopReason::Stalled.as_str(), "stalled");
    }

    #[test]
    fn heartbeat_stamps_through_run_control() {
        let hb = Arc::new(AtomicU64::new(0));
        let control = RunControl {
            heartbeat: Some(Arc::clone(&hb)),
            ..Default::default()
        };
        control.beat();
        control.beat();
        assert_eq!(hb.load(Ordering::Relaxed), 2);
        RunControl::default().beat(); // no-op, must not panic

        let g = barabasi_albert(120, 3, 9);
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).heartbeat(Arc::clone(&hb));
        let out = Pegasus::default().run(&g, &req).unwrap();
        assert_eq!(out.stop, StopReason::BudgetMet);
        // Group granularity: one beat per iteration, one per group
        // evaluated and one per group committed, plus the commit's table
        // passes (at least one run each in an iteration that merged).
        let beats = hb.load(Ordering::Relaxed) - 2;
        let (iterations, groups) = (out.stats.iterations as u64, out.stats.groups);
        assert!(out.stats.merges > 0);
        assert!(
            beats >= 2 + iterations + 2 * groups,
            "{beats} beats over {iterations} iterations and {groups} groups"
        );
    }

    #[test]
    fn target_key_is_canonical() {
        let scrambled = Personalization::Targets(vec![9, 3, 9, 0, 3]);
        let sorted = Personalization::Targets(vec![0, 3, 9]);
        assert_eq!(scrambled.target_key(), Some(vec![0, 3, 9]));
        assert_eq!(scrambled.target_key(), sorted.target_key());
        assert_eq!(Personalization::Uniform.target_key(), None);
        assert_eq!(Personalization::Targets(Vec::new()).target_key(), None);
        assert_eq!(
            Personalization::Weights(NodeWeights::uniform(5)).target_key(),
            None
        );
    }

    #[test]
    fn equal_target_keys_resolve_to_identical_weights() {
        // The contract serving-layer weight caches rely on: same
        // canonical key + same alpha => bitwise-identical weights.
        let g = barabasi_albert(120, 3, 5);
        let a = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[7, 2, 7, 40]);
        let b = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[40, 2, 7]);
        assert_eq!(
            a.personalization_ref().target_key(),
            b.personalization_ref().target_key()
        );
        let wa = a.resolve_weights(&g, 1.5).unwrap();
        let wb = b.resolve_weights(&g, 1.5).unwrap();
        let bits = |w: &NodeWeights| w.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&wa), bits(&wb));
    }

    #[test]
    fn personalization_alpha_reflects_support() {
        assert_eq!(Pegasus::default().personalization_alpha(), Some(1.25));
        let custom = Pegasus(PegasusConfig {
            alpha: 2.0,
            ..Default::default()
        });
        assert_eq!(custom.personalization_alpha(), Some(2.0));
        assert_eq!(Ssumm::default().personalization_alpha(), None);
    }

    #[test]
    fn run_control_interrupt_priority() {
        let started = Instant::now();
        let control = RunControl {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        // Cancel wins when both have tripped.
        assert_eq!(control.interrupted(started), Some(StopReason::Cancelled));
        let deadline_only = RunControl {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        assert_eq!(
            deadline_only.interrupted(started),
            Some(StopReason::DeadlineExceeded)
        );
        assert_eq!(RunControl::default().interrupted(started), None);
    }
}
