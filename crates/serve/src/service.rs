//! The multi-tenant summary service (DESIGN.md §9).
//!
//! [`SummaryService`] multiplexes many tenants over one
//! [`Summarizer`]: callers [`submit`](SummaryService::submit) a
//! [`SubmitRequest`] (tenant id + [`SummarizeRequest`] + priority) and
//! get back a [`SummaryHandle`] they can `poll`, `wait` on, or
//! `cancel`. Requests run on a bounded pool of dedicated worker
//! threads, sized by [`pgs_core::exec::Exec`]'s thread policy (the
//! same knob the summarizers' evaluate phases use), with:
//!
//! * **Fair scheduling** — one FIFO queue per tenant, at most
//!   [`ServiceConfig::per_tenant_inflight`] of a tenant's requests
//!   running at once. A free worker picks among the *head* request of
//!   each under-cap tenant, highest [`SubmitRequest::priority`] first,
//!   submission order breaking ties — so priorities act across tenants
//!   while order within a tenant is always preserved.
//! * **Per-tenant deadlines** — [`ServiceConfig::tenant_deadline`]
//!   bounds each request's wall clock *from submission*: queue wait is
//!   charged against it, and the remainder becomes the run's
//!   cooperative deadline (combined with any deadline already on the
//!   request), so an expired request surfaces
//!   [`StopReason::DeadlineExceeded`] with a valid partial summary.
//! * **A shared-BFS weight cache** — the first run for a
//!   `(tenant, targets, α)` key resolves Eq.-2 weights once; later
//!   runs (a budget sweep, say) replay them as
//!   [`Personalization::Weights`](pgs_core::Personalization::Weights),
//!   bitwise-identical to resolving fresh (see [`crate::cache`]).
//!
//! The resilience layer (DESIGN.md §10) sits on top:
//!
//! * **Admission control** — [`ServiceConfig::tenant_queue_depth`] and
//!   [`ServiceConfig::global_queue_depth`] bound the queues;
//!   [`submit`](SummaryService::submit) is fallible and an over-limit
//!   request is rejected with [`PgsError::Overloaded`] carrying a
//!   load-derived retry hint. Under global pressure a *strictly
//!   higher*-priority submission sheds the lowest-priority **queued**
//!   job instead (running jobs are never shed); the shed handle
//!   resolves with the same typed error — no handle ever hangs.
//! * **Checkpoint/resume + retry** — with
//!   [`ServiceConfig::retry_budget`] > 0, runs checkpoint at
//!   iteration-commit boundaries and a worker panic re-enqueues the job
//!   at the *front* of its tenant queue (FIFO preserved) with
//!   exponential backoff plus deterministic jitter, resuming from the
//!   last good checkpoint — byte-identical to a run that never died.
//!   A job that exhausts the budget degrades gracefully: its last
//!   checkpoint becomes a valid partial summary with
//!   [`StopReason::RetriesExhausted`].
//! * **Per-tenant graphs** — [`SummaryService::swap_tenant_graph`]
//!   scopes a swap (and its cache invalidation) to one tenant;
//!   [`SummaryService::swap_graph`] retains cache entries of tenants
//!   pinned to their own graph.
//!
//! The supervision layer (DESIGN.md §12) extends both:
//!
//! * **Write-ahead admission journal** — a durable submission is
//!   journaled (see [`crate::journal`]) *before* it is admitted and
//!   retired when its result publishes, so a process crash at any
//!   point loses no durable job: a rebuilt service replays
//!   admitted-but-unfinished records at startup (in submission order,
//!   seeding recovered checkpoints) and
//!   [`SummaryService::recovered_handles`] exposes their handles.
//!   Worker pickups bump a persisted attempt count; a record whose
//!   attempts exhaust the retry allowance across restarts is
//!   **quarantined** — rejected with [`PgsError::Quarantined`] until
//!   [`SummaryService::release_quarantined`] clears it.
//! * **Stall watchdog** — with [`ServiceConfig::stall_timeout`] set,
//!   every run gets a heartbeat stamped at group granularity and one
//!   more service thread, scanning the set of running jobs, cancels
//!   runs whose heartbeat freezes past the timeout; the worker
//!   publishes the partial result as [`StopReason::Stalled`] and moves
//!   on — a wedged evaluator can never hold a worker forever.
//! * **Per-tenant circuit breakers** — with
//!   [`ServiceConfig::breaker_window`] > 0, a tenant whose recent
//!   completions keep failing (errors, stalls, exhausted retries) is
//!   fast-rejected at submit ([`PgsError::Overloaded`] carrying the
//!   remaining cooldown) until a half-open probe succeeds.
//!
//! Every lifecycle step of a job is accounted by one function,
//! `Ledger::transition`, the only code that records an event, bumps a
//! `serve.jobs.*` or `serve.cache.*` counter or updates [`TenantStats`]:
//! the three cannot disagree (DESIGN.md §14).
//!
//! Because every summarizer in the workspace is deterministic and
//! thread-count independent, a request's result is byte-identical to
//! running the same `SummarizeRequest` directly through the same
//! `Summarizer` — whatever the worker count, scheduling interleaving,
//! or cache state. The stress suite in `tests/service_stress.rs` pins
//! that at 1/2/8 workers; `tests/resilience.rs` pins the fault paths.
//!
//! Dropping the service drains it: queued and running requests finish
//! (cancelled ones short-circuit, backoff delays are honored), then
//! the pool joins, then the watchdog.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pgs_core::api::{
    CheckpointSink, PgsError, RunControl, RunOutput, StopReason, SummarizeRequest, Summarizer,
};
use pgs_core::checkpoint::iteration_seed;
use pgs_core::exec::Exec;
use pgs_core::pegasus::{PhaseTimings, RunStats};
use pgs_core::{RunCheckpoint, Summary};
use pgs_graph::Graph;
use pgs_observe::{
    push_json_string, Counter, Event, EventJournal, EventKind, Gauge, Histogram, MetricsValues,
    Registry, LATENCY_BOUNDS_US,
};

use crate::cache::{CacheStats, WeightCache, WeightKey};
use crate::durable::{ckpt_filename, recover_checkpoints, FileCheckpointSink};
use crate::journal::{JobRecord, Journal};
use crate::supervise::Breaker;

/// The shareable algorithm a service dispatches to.
pub type SharedSummarizer = Arc<dyn Summarizer + Send + Sync>;

/// Service-level policy knobs.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (`0` = one per hardware thread, via
    /// [`Exec`]'s policy). Each worker runs one request at a time; the
    /// summarizer's own `num_threads` governs parallelism *inside* a
    /// run, so total parallelism is `workers × inner threads`.
    pub workers: usize,
    /// How many of one tenant's requests may run concurrently
    /// (minimum 1). The rest of that tenant's queue waits, keeping one
    /// tenant from monopolizing the pool.
    pub per_tenant_inflight: usize,
    /// Wall-clock budget per request measured **from submission**
    /// (queue wait included). `None` imposes nothing.
    pub tenant_deadline: Option<Duration>,
    /// Weight-cache entries kept service-wide (`0` disables caching).
    pub cache_capacity: usize,
    /// Most requests one tenant may have *queued* (not running) at
    /// once; the next submission is rejected with
    /// [`PgsError::Overloaded`]. `0` = unbounded.
    pub tenant_queue_depth: usize,
    /// Most requests queued service-wide. A submission past this bound
    /// sheds the lowest-priority queued job if the newcomer outranks
    /// it, and is rejected otherwise. `0` = unbounded.
    pub global_queue_depth: usize,
    /// How many times a run killed by a worker panic is retried (from
    /// its last checkpoint when one exists). `0` disables retry —
    /// panics surface as [`PgsError::RunPanicked`], the pre-resilience
    /// behavior.
    pub retry_budget: u32,
    /// Base delay before retry attempt `n` (grows as
    /// `retry_backoff · 2ⁿ` plus deterministic jitter).
    pub retry_backoff: Duration,
    /// Checkpoint cadence in iterations for retryable runs (minimum 1;
    /// consulted when [`ServiceConfig::retry_budget`] > 0 or the
    /// request carries a [`SubmitRequest::durable`] key under a
    /// configured [`ServiceConfig::checkpoint_dir`]).
    pub checkpoint_every: u64,
    /// Directory for file-backed checkpoints (see [`crate::durable`]).
    /// `None` disables durability. When set, requests submitted with a
    /// [`SubmitRequest::durable`] key persist their checkpoints here
    /// (atomic temp-file + rename) and a new service instance scans the
    /// directory at startup: a matching resubmission resumes from the
    /// recovered blob, byte-identical to the uninterrupted run. Corrupt
    /// files are deleted at scan and degrade to a fresh run.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Longest a running request's heartbeat may stay *frozen* before
    /// the stall watchdog cancels it (published as
    /// [`StopReason::Stalled`] with a valid partial summary). `None`
    /// (the default) disables supervision. Distinct from deadlines: a
    /// deadline bounds total time, this bounds *time without progress*
    /// — a slow run that keeps ticking is never flagged.
    pub stall_timeout: Option<Duration>,
    /// Completion-outcome window per tenant for the circuit breaker
    /// (`0`, the default, disables breakers). Once a tenant's last
    /// `breaker_window` completions are at least
    /// [`ServiceConfig::breaker_threshold`] failures, its submissions
    /// fast-reject with [`PgsError::Overloaded`] until a half-open
    /// probe succeeds.
    pub breaker_window: usize,
    /// Failure fraction over a full window that trips the breaker.
    pub breaker_threshold: f64,
    /// How long a tripped breaker fast-rejects before admitting one
    /// half-open probe.
    pub breaker_cooldown: Duration,
    /// Lifecycle events retained in the in-memory ring (for
    /// [`SummaryService::events_tail`] and the stall-forensics
    /// captures). `0` disables retention; recording then costs one
    /// relaxed atomic per event.
    pub event_capacity: usize,
    /// NDJSON sink for lifecycle events (one JSON object per line,
    /// flushed per record). `None` (the default) keeps events in the
    /// ring only. An unopenable path degrades to ring-only with a
    /// stderr note — observability never fails the serving path it
    /// observes.
    pub events_path: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            per_tenant_inflight: 1,
            tenant_deadline: None,
            cache_capacity: 256,
            tenant_queue_depth: 0,
            global_queue_depth: 0,
            retry_budget: 0,
            retry_backoff: Duration::from_millis(10),
            checkpoint_every: 1,
            checkpoint_dir: None,
            stall_timeout: None,
            breaker_window: 0,
            breaker_threshold: 0.5,
            breaker_cooldown: Duration::from_secs(1),
            event_capacity: 256,
            events_path: None,
        }
    }
}

/// One unit of work: who is asking, what they want, how urgently.
#[derive(Clone, Debug)]
pub struct SubmitRequest {
    /// Tenant identifier (scopes scheduling fairness, stats, and the
    /// weight cache).
    pub tenant: String,
    /// The summarization request to run.
    pub request: SummarizeRequest,
    /// Scheduling priority across tenants: higher runs first. Within a
    /// tenant, submission order always wins (FIFO).
    pub priority: u8,
    /// Durable-checkpoint key (see [`ServiceConfig::checkpoint_dir`]):
    /// a caller-chosen stable identity for this piece of work. `None`
    /// (the default) keeps checkpoints in memory only.
    pub durable_key: Option<String>,
}

impl SubmitRequest {
    /// A normal-priority request for `tenant`.
    pub fn new(tenant: impl Into<String>, request: SummarizeRequest) -> Self {
        SubmitRequest {
            tenant: tenant.into(),
            request,
            priority: 0,
            durable_key: None,
        }
    }

    /// Sets the scheduling priority (higher = more urgent).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Persists this request's checkpoints under `key` in the service's
    /// [`ServiceConfig::checkpoint_dir`] and resumes from a recovered
    /// blob for the same key if the service found one at startup.
    /// No-op when no checkpoint directory is configured.
    pub fn durable(mut self, key: impl Into<String>) -> Self {
        self.durable_key = Some(key.into());
        self
    }
}

/// Where a submitted request currently is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker (or for the tenant's in-flight cap).
    Queued,
    /// A worker is running it.
    Running,
    /// Finished; the result is available.
    Done,
}

/// Latency breakdown of a finished request.
///
/// `wait_secs`/`run_secs` describe the **final attempt** only; the
/// `total_*` fields accumulate over every attempt of a retried job,
/// with backoff sleeps split out on their own — queue wait is never
/// silently inflated by time the job spent deliberately parked
/// between attempts, or by attempts that already happened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobTimings {
    /// Seconds the final attempt spent runnable-but-waiting: from
    /// submission (or backoff expiry, for a retry) to worker pickup.
    pub wait_secs: f64,
    /// Seconds the final attempt's worker spent on it (validation +
    /// run).
    pub run_secs: f64,
    /// Queue-wait seconds summed over all attempts.
    pub total_wait_secs: f64,
    /// Worker seconds summed over all attempts (failed ones included).
    pub total_run_secs: f64,
    /// Seconds spent parked in retry backoff between attempts.
    pub backoff_secs: f64,
    /// Worker pickups this job went through (1 for an untroubled run;
    /// 0 for a job resolved without ever running, e.g. shed).
    pub attempts: u32,
    /// Position in the service-wide completion order (0 = first
    /// request to finish), for scheduling assertions and logs.
    pub completed_seq: u64,
}

impl JobTimings {
    /// Total submit-to-done latency in seconds (all attempts, backoff
    /// included).
    pub fn total_secs(&self) -> f64 {
        self.total_wait_secs + self.total_run_secs + self.backoff_secs
    }
}

/// Per-tenant serving counters (see [`SummaryService::tenant_stats`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant these counters belong to.
    pub tenant: String,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests finished with a summary (any [`StopReason`]).
    pub completed: u64,
    /// ... of which stopped at [`StopReason::BudgetMet`].
    pub budget_met: u64,
    /// ... of which stopped at [`StopReason::MaxIters`].
    pub max_iters: u64,
    /// ... of which stopped at [`StopReason::Cancelled`].
    pub cancelled: u64,
    /// ... of which stopped at [`StopReason::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// ... of which stopped at [`StopReason::RetriesExhausted`] (a
    /// partial summary from the last checkpoint, or identity).
    pub retries_exhausted: u64,
    /// ... of which stopped at [`StopReason::Stalled`] (cancelled by
    /// the watchdog after a frozen heartbeat).
    pub stalled: u64,
    /// Requests that failed validation (typed [`PgsError`]s).
    pub errors: u64,
    /// Queued requests shed to admit a higher-priority submission.
    pub shed: u64,
    /// Submissions rejected at the door ([`PgsError::Overloaded`] or
    /// [`PgsError::Quarantined`]).
    pub rejected: u64,
    /// ... of which were fast-rejected by a tripped circuit breaker.
    pub breaker_rejected: u64,
    /// Times this tenant's circuit breaker has tripped open.
    pub breaker_trips: u64,
    /// Durable jobs quarantined after exhausting their retry allowance
    /// across restarts (see [`SummaryService::quarantined_keys`]).
    pub quarantined: u64,
    /// Retry attempts after a worker panic (re-runs, not requests).
    pub retries: u64,
    /// Weight-cache hits attributed to this tenant's submissions.
    pub cache_hits: u64,
    /// Weight-cache misses (BFS resolutions) for this tenant.
    pub cache_misses: u64,
    /// Total seconds this tenant's finished requests spent queued,
    /// summed over every attempt (backoff sleeps are excluded — see
    /// [`TenantStats::backoff_secs`]).
    pub wait_secs: f64,
    /// Total seconds workers spent on this tenant's finished requests,
    /// summed over every attempt (failed ones included).
    pub run_secs: f64,
    /// Total seconds this tenant's retried jobs spent parked in
    /// backoff between attempts.
    pub backoff_secs: f64,
    /// Engine phase-time totals over this tenant's completed runs.
    pub phases: PhaseTimings,
    /// Merge evaluations performed by this tenant's completed runs.
    pub evals: u64,
    /// Merges committed by this tenant's completed runs.
    pub merges: u64,
}

struct Finished {
    result: Result<RunOutput, PgsError>,
    timings: JobTimings,
}

enum JobState {
    Queued(Box<SummarizeRequest>),
    Running,
    Done(Box<Finished>),
}

/// Wall-clock bookkeeping for a job's attempts. `ready_at` marks when
/// the job last became runnable — submission, or backoff expiry for a
/// retry — so per-attempt queue wait is measured against it rather
/// than against the original submission instant (which would silently
/// fold prior attempts and backoff sleeps into "queue wait"; the
/// tenant-deadline budget still charges from submission, by design).
/// The `prior_*` fields accumulate the already-finished attempts of a
/// retried job.
struct AttemptClock {
    ready_at: Instant,
    prior_wait_secs: f64,
    prior_run_secs: f64,
    backoff_secs: f64,
}

struct Job {
    id: u64,
    tenant: String,
    priority: u8,
    /// Global submission sequence — the FIFO/priority tiebreaker.
    seq: u64,
    submitted: Instant,
    /// The graph this request was submitted against (pinned here so a
    /// later [`SummaryService::swap_graph`] cannot retarget it).
    graph: Arc<Graph>,
    /// Cooperative cancel flag shared with the run's `RunControl`.
    cancel: Arc<AtomicBool>,
    /// Set by the stall watchdog when it cancels this job for a frozen
    /// heartbeat — the worker rewrites the resulting `Cancelled` stop
    /// into [`StopReason::Stalled`].
    stalled: AtomicBool,
    /// Pickups of earlier processes, none of which finished: the
    /// replayed journal record's attempt count (0 for a fresh
    /// submission).
    prior_attempts: u32,
    /// Worker pickups in this process, the final, surviving one
    /// included.
    runs: AtomicU32,
    /// Per-attempt wall-clock bookkeeping (see [`AttemptClock`]).
    clock: Mutex<AttemptClock>,
    /// The write-ahead journal record backing this job (`None` unless
    /// durable under a journaling service). Re-appended at every worker
    /// pickup with a bumped attempt count; retired or quarantined when
    /// the result publishes.
    journal_rec: Mutex<Option<JobRecord>>,
    /// Latest successfully written checkpoint blob.
    last_checkpoint: Mutex<Option<Arc<Vec<u8>>>>,
    /// File sink for durable checkpoints (`None` unless the submission
    /// carried a durable key and the service has a checkpoint
    /// directory). Written alongside the in-memory slot; removed when
    /// the job publishes its result.
    durable: Option<FileCheckpointSink>,
    state: Mutex<JobState>,
    done_cv: Condvar,
}

impl Job {
    /// This attempt's timings on top of the job's earlier attempts.
    fn timings(&self, wait_secs: f64, run_secs: f64, completed_seq: u64) -> JobTimings {
        let clock = self.clock.lock().unwrap();
        JobTimings {
            wait_secs,
            run_secs,
            total_wait_secs: clock.prior_wait_secs + wait_secs,
            total_run_secs: clock.prior_run_secs + run_secs,
            backoff_secs: clock.backoff_secs,
            attempts: self.runs.load(Ordering::Relaxed),
            completed_seq,
        }
    }

    /// Turns the handle `Done` and wakes its waiters.
    fn publish(&self, result: Result<RunOutput, PgsError>, timings: JobTimings) {
        *self.state.lock().unwrap() = JobState::Done(Box::new(Finished { result, timings }));
        self.done_cv.notify_all();
    }
}

/// A queue slot: the job plus an optional earliest-start instant
/// (retry backoff). A head entry whose `not_before` is in the future
/// blocks its tenant's queue — FIFO is preserved even across retries.
struct QueuedEntry {
    job: Arc<Job>,
    not_before: Option<Instant>,
}

/// A job a worker holds, plus the stall watchdog's window on it while
/// its engine call runs under a [`ServiceConfig::stall_timeout`].
struct RunningJob {
    job: Arc<Job>,
    watch: Option<Watch>,
}

/// One attempt's stall window: its heartbeat, the value the watchdog
/// saw last, and when that value last changed.
struct Watch {
    heartbeat: Arc<AtomicU64>,
    last_value: u64,
    last_change: Instant,
}

#[derive(Default)]
struct TenantSched {
    queue: VecDeque<QueuedEntry>,
    inflight: usize,
    /// Circuit breaker, created lazily when
    /// [`ServiceConfig::breaker_window`] > 0.
    breaker: Option<Breaker>,
}

struct Sched {
    /// `BTreeMap` so worker scans are deterministic in tenant order.
    tenants: BTreeMap<String, TenantSched>,
    /// Jobs queued across all tenants (workers exit when this hits 0
    /// under shutdown).
    queued: usize,
    /// Per-attempt worker seconds + attempt count, service-wide — the
    /// basis of the [`PgsError::Overloaded`] retry hint. Attempts, not
    /// completions: a retried job's failed runs held a worker just the
    /// same, so they belong in the mean the hint scales from (feeding
    /// it conflated completion totals was the bug — one retried job
    /// inflated the "average run" by its whole backoff-laden history).
    total_attempt_secs: f64,
    total_attempts: u64,
    shutdown: bool,
}

/// The graphs submissions resolve against: one default plus per-tenant
/// overrides, each stamped with a globally unique epoch (every swap —
/// default or tenant-scoped — takes the next epoch, so no two graph
/// versions ever share a cache stamp).
struct GraphTable {
    default: (Arc<Graph>, u64),
    overrides: BTreeMap<String, (Arc<Graph>, u64)>,
    next_epoch: u64,
}

impl GraphTable {
    fn effective(&self, tenant: &str) -> (Arc<Graph>, u64) {
        self.overrides
            .get(tenant)
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }
}

/// The job id a transition carries when no job exists: a submission
/// refused before it got one, or a record quarantined at startup.
const NO_JOB: u64 = u64::MAX;

/// Why admission refused a submission.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rejection {
    /// The durable key is quarantined ([`PgsError::Quarantined`]).
    Quarantined,
    /// A queue bound said no ([`PgsError::Overloaded`]).
    Overloaded,
    /// The tenant's circuit breaker is open ([`PgsError::Overloaded`]).
    Breaker,
}

/// One step of a job's lifecycle, as [`Ledger::transition`] accounts
/// it. An `Option<bool>` is the submission's weight-cache lookup: hit,
/// miss, or `None` when the cache was not consulted.
enum Transition<'a> {
    /// Refused at the door, after any cache lookup.
    Rejected(Rejection, Option<bool>),
    /// Entered its tenant queue as a fresh submission ...
    Admitted(Option<bool>),
    /// ... or as a journal record replayed at startup.
    Replayed(Option<bool>),
    /// Removed from its queue to admit a higher-priority submission.
    Shed,
    /// Picked up by a worker (once per attempt).
    Running,
    /// The run wrote a checkpoint.
    Checkpointed,
    /// The attempt died to a worker panic; the job re-queues.
    Retried,
    /// The watchdog flagged the running attempt.
    Stalled,
    /// The durable key was quarantined.
    Quarantined,
    /// The job's result and timings are about to publish.
    Completed(&'a Result<RunOutput, PgsError>, &'a JobTimings),
}

/// The one account of job lifecycles: pre-bound handles over the
/// metrics [`Registry`], the [`EventJournal`] and the per-tenant
/// [`TenantStats`], written only by [`Ledger::transition`] so the three
/// cannot disagree (DESIGN.md §14). Counter names are part of the
/// public metric surface.
struct Ledger {
    registry: Registry,
    jobs_submitted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_errors: Arc<Counter>,
    jobs_rejected: Arc<Counter>,
    jobs_shed: Arc<Counter>,
    jobs_retried: Arc<Counter>,
    jobs_quarantined: Arc<Counter>,
    jobs_stalled: Arc<Counter>,
    jobs_replayed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    running_jobs: Arc<Gauge>,
    wait_us: Arc<Histogram>,
    run_us: Arc<Histogram>,
    engine: EngineMetrics,
    events: EventJournal,
    /// A leaf lock: nothing else is taken while it is held.
    /// `breaker_trips` is read from the breakers instead.
    stats: Mutex<BTreeMap<String, TenantStats>>,
}

/// The engine-side counters the per-iteration observer publishes into
/// (cloned into each run's observer closure — cheap `Arc` bumps).
#[derive(Clone)]
struct EngineMetrics {
    iterations: Arc<Counter>,
    merges: Arc<Counter>,
    evals: Arc<Counter>,
    candidates_us: Arc<Counter>,
    evaluate_us: Arc<Counter>,
    commit_us: Arc<Counter>,
    sparsify_us: Arc<Counter>,
}

impl EngineMetrics {
    /// Adds the work done between `prev` and `now` (saturating, so a
    /// stale `prev` never subtracts) and advances `prev` to `now`.
    fn publish(&self, prev: &mut RunStats, now: &RunStats) {
        let us = |now: f64, before: f64| ((now - before).max(0.0) * 1e6) as u64;
        self.iterations
            .add(now.iterations.saturating_sub(prev.iterations) as u64);
        self.merges
            .add(now.merges.saturating_sub(prev.merges) as u64);
        self.evals.add(now.evals.saturating_sub(prev.evals));
        self.candidates_us
            .add(us(now.phases.candidates, prev.phases.candidates));
        self.evaluate_us
            .add(us(now.phases.evaluate, prev.phases.evaluate));
        self.commit_us
            .add(us(now.phases.commit, prev.phases.commit));
        self.sparsify_us
            .add(us(now.phases.sparsify, prev.phases.sparsify));
        *prev = *now;
    }
}

impl Ledger {
    fn new(events: EventJournal) -> Self {
        let registry = Registry::new();
        Ledger {
            jobs_submitted: registry.counter("serve.jobs.submitted"),
            jobs_completed: registry.counter("serve.jobs.completed"),
            jobs_errors: registry.counter("serve.jobs.errors"),
            jobs_rejected: registry.counter("serve.jobs.rejected"),
            jobs_shed: registry.counter("serve.jobs.shed"),
            jobs_retried: registry.counter("serve.jobs.retried"),
            jobs_quarantined: registry.counter("serve.jobs.quarantined"),
            jobs_stalled: registry.counter("serve.jobs.stalled"),
            jobs_replayed: registry.counter("serve.jobs.replayed"),
            cache_hits: registry.counter("serve.cache.hits"),
            cache_misses: registry.counter("serve.cache.misses"),
            queue_depth: registry.gauge("serve.queue.depth"),
            running_jobs: registry.gauge("serve.jobs.running"),
            wait_us: registry.histogram("serve.latency.wait_us", LATENCY_BOUNDS_US),
            run_us: registry.histogram("serve.latency.run_us", LATENCY_BOUNDS_US),
            engine: EngineMetrics {
                iterations: registry.counter("engine.iterations"),
                merges: registry.counter("engine.merges"),
                evals: registry.counter("engine.evals"),
                candidates_us: registry.counter("engine.phase.candidates_us"),
                evaluate_us: registry.counter("engine.phase.evaluate_us"),
                commit_us: registry.counter("engine.phase.commit_us"),
                sparsify_us: registry.counter("engine.phase.sparsify_us"),
            },
            registry,
            events,
            stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// Accounts one lifecycle step of `job` (or [`NO_JOB`]): stats and
    /// counters under the `stats` lock, then the event(s) after it.
    /// Callers hold no scheduler, cache or job-state lock, and account
    /// a job before its handle turns `Done`.
    fn transition(&self, job: u64, tenant: &str, attempt: u32, step: Transition<'_>) {
        let (kind, stop) = {
            let mut stats = self.stats.lock().unwrap();
            let s = stats
                .entry(tenant.to_string())
                .or_insert_with(|| TenantStats {
                    tenant: tenant.to_string(),
                    ..TenantStats::default()
                });
            // Every lookup is counted, whatever admission then decides,
            // so these agree with the cache's own counters.
            let count_lookup = |s: &mut TenantStats, cache_hit: Option<bool>| match cache_hit {
                Some(true) => {
                    s.cache_hits += 1;
                    self.cache_hits.inc();
                }
                Some(false) => {
                    s.cache_misses += 1;
                    self.cache_misses.inc();
                }
                None => {}
            };
            match step {
                Transition::Rejected(reason, cache_hit) => {
                    count_lookup(s, cache_hit);
                    s.rejected += 1;
                    if reason == Rejection::Breaker {
                        s.breaker_rejected += 1;
                    }
                    self.jobs_rejected.inc();
                    let token = match reason {
                        Rejection::Quarantined => "quarantined",
                        Rejection::Overloaded | Rejection::Breaker => "overloaded",
                    };
                    (EventKind::Rejected, Some(token))
                }
                Transition::Admitted(cache_hit) | Transition::Replayed(cache_hit) => {
                    count_lookup(s, cache_hit);
                    s.submitted += 1;
                    self.jobs_submitted.inc();
                    if let Transition::Replayed(_) = step {
                        self.jobs_replayed.inc();
                        (EventKind::Replayed, None)
                    } else {
                        (EventKind::Admitted, None)
                    }
                }
                Transition::Shed => {
                    s.shed += 1;
                    self.jobs_shed.inc();
                    (EventKind::Shed, None)
                }
                Transition::Running => {
                    self.running_jobs.add(1);
                    (EventKind::Running, None)
                }
                Transition::Checkpointed => (EventKind::Checkpointed, None),
                Transition::Retried => {
                    s.retries += 1;
                    self.jobs_retried.inc();
                    self.running_jobs.add(-1);
                    (EventKind::Retried, Some("panic"))
                }
                Transition::Stalled => (EventKind::Stalled, None),
                Transition::Quarantined => {
                    s.quarantined += 1;
                    self.jobs_quarantined.inc();
                    (EventKind::Quarantined, None)
                }
                Transition::Completed(result, timings) => {
                    self.running_jobs.add(-1);
                    self.wait_us.record((timings.wait_secs * 1e6) as u64);
                    self.run_us.record((timings.run_secs * 1e6) as u64);
                    s.wait_secs += timings.total_wait_secs;
                    s.run_secs += timings.total_run_secs;
                    s.backoff_secs += timings.backoff_secs;
                    match result {
                        Ok(out) => {
                            // A resumed retry carries its earlier
                            // attempts' stats, so these span the job.
                            s.phases += out.stats.phases;
                            s.evals += out.stats.evals;
                            s.merges += out.stats.merges as u64;
                            s.completed += 1;
                            self.jobs_completed.inc();
                            match out.stop {
                                StopReason::BudgetMet => s.budget_met += 1,
                                StopReason::MaxIters => s.max_iters += 1,
                                StopReason::Cancelled => s.cancelled += 1,
                                StopReason::DeadlineExceeded => s.deadline_exceeded += 1,
                                StopReason::RetriesExhausted => s.retries_exhausted += 1,
                                StopReason::Stalled => {
                                    s.stalled += 1;
                                    self.jobs_stalled.inc();
                                }
                            }
                            (EventKind::Completed, Some(out.stop.as_str()))
                        }
                        Err(_) => {
                            s.errors += 1;
                            self.jobs_errors.inc();
                            (EventKind::Completed, Some("error"))
                        }
                    }
                }
            }
        };
        self.events.record(job, tenant, attempt, kind, stop);
        if matches!(kind, EventKind::Admitted | EventKind::Replayed) {
            self.events
                .record(job, tenant, attempt, EventKind::Queued, None);
        }
    }
}

/// One stall-forensics capture — the "second tier" between the
/// watchdog's frozen-heartbeat verdict and the run's cancellation
/// unwind: the lifecycle-event tail snapshotted at the moment the
/// watchdog flagged the job, before the cancel is observed anywhere
/// and before later events can rotate the evidence out of the ring.
#[derive(Clone, Debug)]
pub struct StallReport {
    /// The flagged job.
    pub job_id: u64,
    /// Its tenant.
    pub tenant: String,
    /// The retained event tail at escalation time (oldest first).
    pub events: Vec<Event>,
}

/// One coherent point-in-time read of everything the service exposes
/// about itself: scheduler state, registry values, cache and journal
/// counters, and per-tenant stats. The JSON rendering's key shape is
/// stable — the CI smoke step fails when a key is renamed or dropped.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Requests queued but not yet picked up.
    pub queued: usize,
    /// Jobs currently held by workers.
    pub running: i64,
    /// Resolved worker-pool size.
    pub workers: usize,
    /// Weight-cache counters (authoritative — the cache, not the
    /// registry, owns these).
    pub cache: CacheStats,
    /// Jobs replayed from the admission journal at startup.
    pub journal_replayed: u64,
    /// Durable keys currently quarantined.
    pub journal_quarantined: u64,
    /// Lifecycle events recorded so far (monotone).
    pub event_seq: u64,
    /// Registry values: counters, gauges, histograms.
    pub values: MetricsValues,
    /// Per-tenant counters, in tenant order.
    pub tenants: Vec<TenantStats>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as one JSON object (hand-rolled — the
    /// workspace is offline and serde-free).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"queued\": {}, \"running\": {}, \"workers\": {}, ",
            self.queued, self.running, self.workers
        );
        let _ = write!(
            out,
            "\"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"epoch_invalidations\": {}, \"entries\": {}}}, ",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.epoch_invalidations,
            self.cache.entries
        );
        let _ = write!(
            out,
            "\"journal\": {{\"replayed\": {}, \"quarantined\": {}}}, ",
            self.journal_replayed, self.journal_quarantined
        );
        let _ = write!(out, "\"event_seq\": {}, ", self.event_seq);
        out.push_str("\"metrics\": ");
        out.push_str(&self.values.to_json());
        out.push_str(", \"tenants\": [");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"tenant\": ");
            push_json_string(&mut out, &t.tenant);
            let _ = write!(
                out,
                ", \"submitted\": {}, \"completed\": {}, \"budget_met\": {}, \
                 \"max_iters\": {}, \"cancelled\": {}, \"deadline_exceeded\": {}, \
                 \"retries_exhausted\": {}, \"stalled\": {}, \"errors\": {}, \
                 \"shed\": {}, \"rejected\": {}, \"breaker_rejected\": {}, \
                 \"breaker_trips\": {}, \"quarantined\": {}, \"retries\": {}, \
                 \"cache_hits\": {}, \"cache_misses\": {}, \"wait_secs\": {:.6}, \
                 \"run_secs\": {:.6}, \"backoff_secs\": {:.6}, \"evals\": {}, \
                 \"merges\": {}, \"phase_secs\": {{\"candidates\": {:.6}, \
                 \"evaluate\": {:.6}, \"commit\": {:.6}, \"sparsify\": {:.6}}}}}",
                t.submitted,
                t.completed,
                t.budget_met,
                t.max_iters,
                t.cancelled,
                t.deadline_exceeded,
                t.retries_exhausted,
                t.stalled,
                t.errors,
                t.shed,
                t.rejected,
                t.breaker_rejected,
                t.breaker_trips,
                t.quarantined,
                t.retries,
                t.cache_hits,
                t.cache_misses,
                t.wait_secs,
                t.run_secs,
                t.backoff_secs,
                t.evals,
                t.merges,
                t.phases.candidates,
                t.phases.evaluate,
                t.phases.commit,
                t.phases.sparsify,
            );
        }
        out.push_str("]}");
        out
    }
}

struct Inner {
    algorithm: SharedSummarizer,
    cfg: ServiceConfig,
    /// Resolved worker count (for the overload retry hint).
    workers: usize,
    graphs: Mutex<GraphTable>,
    cache: Mutex<WeightCache>,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    completed_seq: AtomicU64,
    /// Checkpoint blobs recovered from [`ServiceConfig::checkpoint_dir`]
    /// at startup, keyed by file name. Each entry is consumed by the
    /// first submission whose durable key maps to it.
    recovered: Mutex<BTreeMap<String, Arc<Vec<u8>>>>,
    /// Write-ahead admission journal (`Some` iff a checkpoint directory
    /// is configured).
    journal: Option<Journal>,
    /// Durable keys currently quarantined: submissions for them are
    /// rejected with [`PgsError::Quarantined`] until released.
    quarantined: Mutex<BTreeSet<String>>,
    /// Crash simulation ([`SummaryService::crash`]): when set, workers
    /// stop picking up work and all journal/checkpoint retirement is
    /// skipped, freezing on-disk state the way a process death would.
    abandon: AtomicBool,
    /// Jobs currently held by a worker: swept by
    /// [`SummaryService::crash`], scanned by the stall watchdog.
    running: Mutex<BTreeMap<u64, RunningJob>>,
    /// Handles of jobs replayed from the journal at startup.
    replayed: Mutex<Vec<SummaryHandle>>,
    /// Counters, lifecycle events and per-tenant stats (see [`Ledger`]).
    ledger: Arc<Ledger>,
    /// Stall-forensics captures appended by the watchdog (see
    /// [`StallReport`]).
    stall_reports: Mutex<Vec<StallReport>>,
}

/// A typed handle to one submitted request.
#[derive(Clone)]
pub struct SummaryHandle {
    job: Arc<Job>,
}

impl SummaryHandle {
    /// Service-unique request id (submission order).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// The tenant this request was submitted for.
    pub fn tenant(&self) -> &str {
        &self.job.tenant
    }

    /// Non-blocking status check.
    pub fn poll(&self) -> JobStatus {
        match *self.job.state.lock().unwrap() {
            JobState::Queued(_) => JobStatus::Queued,
            JobState::Running => JobStatus::Running,
            JobState::Done(_) => JobStatus::Done,
        }
    }

    /// Requests cooperative cancellation. A running job stops at its
    /// next commit boundary with [`StopReason::Cancelled`] and a valid
    /// partial summary; a still-queued job short-circuits to an
    /// identity summary with the same stop reason (skipping even
    /// request validation — cancellation wins). Idempotent.
    pub fn cancel(&self) {
        self.job.cancel.store(true, Ordering::Relaxed);
    }

    /// Blocks until the request finishes and returns (a clone of) its
    /// result. Callable from any thread, any number of times.
    pub fn wait(&self) -> Result<RunOutput, PgsError> {
        let mut state = self.job.state.lock().unwrap();
        loop {
            if let JobState::Done(done) = &*state {
                return done.result.clone();
            }
            state = self.job.done_cv.wait(state).unwrap();
        }
    }

    /// [`SummaryHandle::wait`] bounded by `timeout`; `None` if the
    /// request is still pending when it elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<RunOutput, PgsError>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.job.state.lock().unwrap();
        loop {
            if let JobState::Done(done) = &*state {
                return Some(done.result.clone());
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self.job.done_cv.wait_timeout(state, remaining).unwrap();
            state = guard;
        }
    }

    /// Latency breakdown, available once the request is done.
    pub fn timings(&self) -> Option<JobTimings> {
        match &*self.job.state.lock().unwrap() {
            JobState::Done(done) => Some(done.timings),
            _ => None,
        }
    }
}

/// The multi-tenant serving front end. See the module docs for the
/// scheduling and caching policy, and DESIGN.md §9 for the guarantees.
pub struct SummaryService {
    inner: Arc<Inner>,
    pool: Vec<JoinHandle<()>>,
    /// The stall watchdog thread (`Some` iff
    /// [`ServiceConfig::stall_timeout`] is set) and the sender whose
    /// drop stops it.
    watchdog: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
}

impl SummaryService {
    /// Spawns a service over `graph` dispatching to `algorithm`. The
    /// worker count is `cfg.workers` resolved by [`Exec`]'s thread
    /// policy (`0` = hardware threads); each worker is a dedicated OS
    /// thread — never a task on a shared executor pool, so a parked
    /// (idle or long-running) worker cannot starve unrelated parallel
    /// work in the process. Workers live until the service drops.
    pub fn new(graph: Arc<Graph>, algorithm: SharedSummarizer, cfg: ServiceConfig) -> Self {
        let workers = Exec::new(cfg.workers).threads();
        // Startup recovery scan (see `crate::durable`): decodable blobs
        // wait for a matching durable-key submission; corrupt files are
        // deleted here and the affected runs start fresh.
        let recovered = match &cfg.checkpoint_dir {
            Some(dir) => recover_checkpoints(dir),
            None => BTreeMap::new(),
        };
        let journal = cfg.checkpoint_dir.as_deref().map(Journal::new);
        let events = match &cfg.events_path {
            Some(path) => EventJournal::with_sink(cfg.event_capacity, path).unwrap_or_else(|e| {
                // Degrade, don't die: a broken sink path must not take
                // the serving layer down with it.
                eprintln!(
                    "pgs-serve: events sink {} unavailable ({e}); keeping ring only",
                    path.display()
                );
                EventJournal::new(cfg.event_capacity)
            }),
            None => EventJournal::new(cfg.event_capacity),
        };
        let ledger = Arc::new(Ledger::new(events));
        // Journal replay (see `crate::journal`): records of jobs that
        // were admitted but never finished. A record whose key is
        // already quarantined is what a crash between quarantine's
        // write and its retire leaves behind: it is retired, never
        // replayed (the quarantine copy stays for forensics). Ones
        // whose persisted attempt count already exhausts the retry
        // allowance are poisoned — a deterministically-crashing job
        // must not re-burn its full budget on every restart — and are
        // quarantined here; the rest are resubmitted below, in original
        // admission order.
        let quarantine_after = u64::from(cfg.retry_budget).saturating_add(1).max(2) as u32;
        let mut quarantined: BTreeSet<String> = journal
            .iter()
            .flat_map(|j| j.quarantined())
            .map(|r| r.key)
            .collect();
        let mut live = Vec::new();
        if let Some(j) = &journal {
            for rec in j.replay() {
                if quarantined.contains(&rec.key) {
                    j.retire(&rec.key);
                } else if rec.attempts >= quarantine_after {
                    // A failed write keeps the live record, which the
                    // next start finds poisoned again; this process
                    // refuses the key either way.
                    let _ = j.quarantine(&rec);
                    ledger.transition(NO_JOB, &rec.tenant, rec.attempts, Transition::Quarantined);
                    quarantined.insert(rec.key);
                } else {
                    live.push(rec);
                }
            }
        }
        let inner = Arc::new(Inner {
            algorithm,
            cache: Mutex::new(WeightCache::new(cfg.cache_capacity)),
            cfg,
            workers,
            graphs: Mutex::new(GraphTable {
                default: (graph, 0),
                overrides: BTreeMap::new(),
                next_epoch: 0,
            }),
            sched: Mutex::new(Sched {
                tenants: BTreeMap::new(),
                queued: 0,
                total_attempt_secs: 0.0,
                total_attempts: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            completed_seq: AtomicU64::new(0),
            recovered: Mutex::new(recovered),
            journal,
            quarantined: Mutex::new(quarantined),
            abandon: AtomicBool::new(false),
            running: Mutex::new(BTreeMap::new()),
            replayed: Mutex::new(Vec::new()),
            ledger,
            stall_reports: Mutex::new(Vec::new()),
        });
        // Re-admit the survivors before the pool spawns: they only
        // queue here, and bypass admission bounds — the journal record
        // *is* their admission. The rebuilt request is bit-identical to
        // the original wire form, so combined with a recovered
        // checkpoint (consumed inside `do_submit` via the durable key)
        // the finished summary matches the uninterrupted run exactly.
        let mut handles = Vec::with_capacity(live.len());
        for rec in live {
            let mut request =
                SummarizeRequest::new(rec.budget).personalization(rec.personalization);
            if let Some(d) = rec.deadline {
                request = request.deadline(d);
            }
            let sub = SubmitRequest {
                tenant: rec.tenant,
                request,
                priority: rec.priority,
                durable_key: Some(rec.key),
            };
            if let Ok(h) = do_submit(&inner, sub, Some(rec.attempts)) {
                handles.push(h);
            }
        }
        *inner.replayed.lock().unwrap() = handles;
        #[expect(
            clippy::expect_used,
            reason = "OS thread exhaustion at construction is unrecoverable"
        )]
        let pool = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("pgs-serve-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning service worker")
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "OS thread exhaustion at construction is unrecoverable"
        )]
        let watchdog = inner.cfg.stall_timeout.map(|timeout| {
            let (stop, stopped) = mpsc::channel();
            let inner = Arc::clone(&inner);
            let thread = std::thread::Builder::new()
                .name("pgs-watchdog".into())
                .spawn(move || watchdog_loop(&inner, &stopped, timeout))
                .expect("spawning watchdog");
            (stop, thread)
        });
        SummaryService {
            inner,
            pool,
            watchdog,
        }
    }

    /// Enqueues one request and returns its handle, or rejects it with
    /// [`PgsError::Overloaded`] when admission control says no (see
    /// the module docs — the error carries a load-derived hint for how
    /// long the caller should back off before resubmitting). A durable
    /// submission whose admission-journal record cannot be written is
    /// refused with [`PgsError::JournalWriteFailed`].
    ///
    /// If the algorithm personalizes (see
    /// [`Summarizer::personalization_alpha`]) and the request carries
    /// [`Personalization::Targets`], the weight cache is consulted
    /// *here, on the caller's thread*: a miss resolves the Eq.-2 BFS
    /// synchronously and caches it, a hit reuses the cached vector —
    /// either way the request proceeds as
    /// [`Personalization::Weights`], bitwise-identical to resolving in
    /// the run. Requests whose targets fail validation are enqueued
    /// untouched so the worker surfaces the typed error.
    ///
    /// [`Personalization::Targets`]: pgs_core::api::Personalization::Targets
    /// [`Personalization::Weights`]: pgs_core::api::Personalization::Weights
    pub fn submit(&self, sub: SubmitRequest) -> Result<SummaryHandle, PgsError> {
        do_submit(&self.inner, sub, None)
    }

    /// Handles of the jobs replayed from the admission journal at
    /// startup, in original admission order. Empty when no journal is
    /// configured or nothing needed replay.
    pub fn recovered_handles(&self) -> Vec<SummaryHandle> {
        self.inner.replayed.lock().unwrap().clone()
    }

    /// Durable keys currently quarantined (retry allowance exhausted
    /// across restarts). Submissions for these keys are rejected with
    /// [`PgsError::Quarantined`].
    pub fn quarantined_keys(&self) -> Vec<String> {
        self.inner
            .quarantined
            .lock()
            .unwrap()
            .iter()
            .cloned()
            .collect()
    }

    /// Releases a quarantined durable key so it can be resubmitted
    /// (an explicit operator decision — quarantine never lifts by
    /// itself). Returns whether the key was quarantined.
    pub fn release_quarantined(&self, key: &str) -> bool {
        let present = self.inner.quarantined.lock().unwrap().remove(key);
        let on_disk = self.inner.journal.as_ref().is_some_and(|j| j.release(key));
        present || on_disk
    }

    /// Simulated process death (crash tests): workers stop picking up
    /// work, running jobs are cancelled at their next commit boundary,
    /// and — unlike a graceful [`Drop`] — **no** journal record or
    /// durable checkpoint is retired, freezing on-disk state exactly as
    /// a `kill -9` would. A new service over the same directories then
    /// exercises the real recovery path.
    pub fn crash(mut self) {
        // SeqCst pairs with the post-registration load in `run_job`:
        // every in-flight job is either in the registry for the sweep
        // below, or observes the flag and freezes itself.
        self.inner.abandon.store(true, Ordering::SeqCst);
        {
            let mut sched = self.inner.sched.lock().unwrap();
            sched.shutdown = true;
        }
        for running in self.inner.running.lock().unwrap().values() {
            running.job.cancel.store(true, Ordering::Relaxed);
        }
        self.inner.work_cv.notify_all();
        for worker in self.pool.drain(..) {
            let _ = worker.join();
        }
        // `Drop` still runs: it finds shutdown set and an empty pool,
        // and stops the watchdog.
    }

    /// Swaps the graph for **one tenant** only. Future submissions by
    /// `tenant` run against `graph` (at a fresh epoch); every other
    /// tenant — and the weight cache entries they have warmed — is
    /// untouched. Only `tenant`'s cache entries are invalidated.
    /// Returns the new epoch.
    pub fn swap_tenant_graph(&self, tenant: &str, graph: Arc<Graph>) -> u64 {
        let epoch = {
            let mut gt = self.inner.graphs.lock().unwrap();
            gt.next_epoch += 1;
            let epoch = gt.next_epoch;
            gt.overrides.insert(tenant.to_string(), (graph, epoch));
            epoch
        };
        self.inner.cache.lock().unwrap().invalidate_tenant(tenant);
        epoch
    }

    /// Removes `tenant`'s graph override, returning them to the
    /// service default, and invalidates their cache entries. No-op for
    /// a tenant without an override.
    pub fn clear_tenant_graph(&self, tenant: &str) {
        let had = self
            .inner
            .graphs
            .lock()
            .unwrap()
            .overrides
            .remove(tenant)
            .is_some();
        if had {
            self.inner.cache.lock().unwrap().invalidate_tenant(tenant);
        }
    }

    /// The graph `tenant`'s next submission would run against (their
    /// override if one is set, the service default otherwise).
    pub fn tenant_graph(&self, tenant: &str) -> Arc<Graph> {
        self.inner.graphs.lock().unwrap().effective(tenant).0
    }

    /// Swaps the **default** graph future submissions run against and
    /// bumps the cache epoch. Cache entries for tenants on the default
    /// graph are dropped eagerly — weight vectors sized to the old
    /// graph should not sit in memory waiting for LRU pressure — but
    /// entries of tenants pinned to their own graph (via
    /// [`SummaryService::swap_tenant_graph`]) are *retained*: their
    /// graph did not change, so their warmed weights stay bitwise
    /// valid. The epoch stamp remains the correctness mechanism either
    /// way: any entry carrying a stale epoch is dropped on lookup,
    /// never served. Requests already submitted keep the graph they
    /// were submitted with. Returns the new epoch.
    pub fn swap_graph(&self, graph: Arc<Graph>) -> u64 {
        let (epoch, overridden): (u64, Vec<String>) = {
            let mut gt = self.inner.graphs.lock().unwrap();
            gt.next_epoch += 1;
            gt.default = (graph, gt.next_epoch);
            (gt.next_epoch, gt.overrides.keys().cloned().collect())
        };
        self.inner
            .cache
            .lock()
            .unwrap()
            .retain_where(|k| overridden.iter().any(|t| t == k.tenant()));
        epoch
    }

    /// The default graph submissions currently run against (tenants
    /// with an override run against [`SummaryService::tenant_graph`]).
    pub fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.inner.graphs.lock().unwrap().default.0)
    }

    /// The default graph's epoch (starts at 0; every swap — default or
    /// tenant-scoped — consumes the next epoch).
    pub fn graph_epoch(&self) -> u64 {
        self.inner.graphs.lock().unwrap().default.1
    }

    /// Weight-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.lock().unwrap().stats()
    }

    /// Per-tenant counters, in tenant order.
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let mut stats: Vec<TenantStats> = self
            .inner
            .ledger
            .stats
            .lock()
            .unwrap()
            .values()
            .cloned()
            .collect();
        let sched = self.inner.sched.lock().unwrap();
        for s in &mut stats {
            s.breaker_trips = sched
                .tenants
                .get(&s.tenant)
                .and_then(|t| t.breaker.as_ref())
                .map_or(0, |b| b.trips);
        }
        stats
    }

    /// Requests queued but not yet picked up.
    pub fn pending(&self) -> usize {
        self.inner.sched.lock().unwrap().queued
    }

    /// One observability snapshot: scheduler state, registry values,
    /// cache/journal counters, and per-tenant stats. Safe to call from
    /// any thread at any rate — it takes each lock briefly, one at a
    /// time, and never blocks the hot submit/run paths on anything
    /// slow.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let tenants = self.tenant_stats();
        // One lock per statement: each guard is a statement temporary
        // that dies at its `;`, so no two of these are ever held at
        // once (a struct-literal's temporaries would live to the end
        // of the whole expression — and violate the lock order).
        let queued = self.pending();
        let cache = self.inner.cache.lock().unwrap().stats();
        let journal_replayed = self.inner.replayed.lock().unwrap().len() as u64;
        let journal_quarantined = self.inner.quarantined.lock().unwrap().len() as u64;
        let ledger = &self.inner.ledger;
        MetricsSnapshot {
            queued,
            running: ledger.running_jobs.get(),
            workers: self.inner.workers,
            cache,
            journal_replayed,
            journal_quarantined,
            event_seq: ledger.events.seq(),
            values: ledger.registry.snapshot(),
            tenants,
        }
    }

    /// The retained lifecycle-event tail (oldest first). Empty when
    /// [`ServiceConfig::event_capacity`] is 0.
    pub fn events_tail(&self) -> Vec<Event> {
        self.inner.ledger.events.tail()
    }

    /// Stall-forensics captures recorded so far (see [`StallReport`]),
    /// in escalation order.
    pub fn stall_reports(&self) -> Vec<StallReport> {
        self.inner.stall_reports.lock().unwrap().clone()
    }
}

impl Drop for SummaryService {
    /// Graceful drain: workers finish every queued and running request
    /// (cancelled ones short-circuit), then the pool joins. The
    /// watchdog stops only after that, since a run can stall during the
    /// drain.
    fn drop(&mut self) {
        {
            let mut sched = self.inner.sched.lock().unwrap();
            sched.shutdown = true;
        }
        self.inner.work_cv.notify_all();
        for worker in self.pool.drain(..) {
            let _ = worker.join();
        }
        if let Some((stop, thread)) = self.watchdog.take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

/// The submission path shared by [`SummaryService::submit`] and the
/// startup journal replay. `replayed_attempts` is `Some` for a replay:
/// the job's prior attempt count is seeded from the persisted record and
/// admission bounds (quarantine, queue depths, breaker) are bypassed —
/// the journal record *is* the job's admission; re-judging it could
/// silently drop a job the service already accepted.
fn do_submit(
    inner: &Arc<Inner>,
    sub: SubmitRequest,
    replayed_attempts: Option<u32>,
) -> Result<SummaryHandle, PgsError> {
    let SubmitRequest {
        tenant,
        mut request,
        priority,
        durable_key,
    } = sub;
    let replayed = replayed_attempts.is_some();
    let first_attempt = replayed_attempts.unwrap_or(0);
    let (graph, epoch) = inner.graphs.lock().unwrap().effective(&tenant);
    let journal_key = match (&inner.journal, &durable_key) {
        (Some(journal), Some(key)) => Some((journal, key)),
        _ => None,
    };

    // Quarantine gate first: a poisoned durable key is rejected before
    // any other work (or side effect) happens on its behalf.
    if let (Some((_, key)), false) = (journal_key, replayed) {
        if inner.quarantined.lock().unwrap().contains(key) {
            let step = Transition::Rejected(Rejection::Quarantined, None);
            inner.ledger.transition(NO_JOB, &tenant, 0, step);
            return Err(PgsError::Quarantined { key: key.clone() });
        }
    }

    // Write-ahead journal: persist the admission before the job can be
    // observed by a worker, so a crash after this point replays it, and
    // before the weight cache rewrites the personalization: the journal
    // stores what the caller asked for (|T| target ids, not |V|
    // floats), and replaying it through this same path re-resolves
    // identically. A replay skips the write — its record is already on
    // disk (attempt bumps at pickup refresh it). A torn write (injected
    // fault) leaves a half-record that replay discards: the crash-window
    // contract is "journaled fully or not admitted", and the caller
    // still holds the submit error/handle to know which.
    let seq = inner.next_seq.fetch_add(1, Ordering::Relaxed);
    let journal_rec = journal_key.map(|(_, key)| JobRecord {
        tenant: tenant.clone(),
        key: key.clone(),
        priority,
        seq,
        attempts: first_attempt,
        budget: request.budget(),
        personalization: request.personalization_ref().clone(),
        deadline: request.control_ref().deadline,
    });
    if let (Some((journal, key)), Some(rec), false) = (journal_key, &journal_rec, replayed) {
        let torn = request
            .control_ref()
            .fault_plan
            .as_ref()
            .is_some_and(|plan| plan.journal_write_torn(seq));
        if let Err(e) = journal.append(rec, torn) {
            // A journal that cannot be written voids the durability
            // contract — reject rather than silently degrade. The
            // record may already sit at its final path (the directory
            // sync failed after the rename): retire it, or a restart
            // would run a job whose submission the caller saw fail.
            journal.retire(key);
            return Err(PgsError::JournalWriteFailed {
                reason: e.to_string(),
            });
        }
    }

    // Durable checkpoints: bind the sink for this key, and seed the
    // request with a blob recovered at startup (first submission for
    // the key wins it). A caller-supplied resume always takes
    // precedence; a recovered blob for a different-sized graph is
    // discarded — the run starts fresh rather than erroring.
    let durable = match (&inner.cfg.checkpoint_dir, &durable_key) {
        (Some(dir), Some(key)) => {
            let sink = FileCheckpointSink::new(dir, key);
            if request.control_ref().resume.is_none() {
                let blob = inner.recovered.lock().unwrap().remove(&ckpt_filename(key));
                if let Some(blob) = blob {
                    let fits = RunCheckpoint::decode(&blob)
                        .is_ok_and(|ck| ck.num_nodes as usize == graph.num_nodes());
                    if fits {
                        request = request.resume_from(blob);
                    }
                }
            }
            Some(sink)
        }
        _ => None,
    };

    // Weight cache: tenant-scoped, epoch-stamped, submit-side. The
    // lock covers only lookup/insert, never the BFS itself, so one
    // tenant's slow resolution cannot stall other submitters; the
    // price is that two *concurrent* submissions of the same key
    // may both resolve (last insert wins — identical bits either
    // way). Sequential submitters, the sweep case, always hit.
    let mut cache_hit: Option<bool> = None;
    if inner.cfg.cache_capacity > 0 {
        if let Some(alpha) = inner.algorithm.personalization_alpha() {
            if let Some(key) = WeightKey::new(&tenant, request.personalization_ref(), alpha) {
                // Cheap pre-validation (the checks `resolve_weights`
                // would fail on, minus the BFS): an invalid request
                // bypasses the cache entirely — its counters then
                // track actual BFS work, not doomed submissions —
                // and the worker surfaces the typed error.
                let valid = alpha.is_finite()
                    && alpha >= 1.0
                    && key
                        .targets()
                        .iter()
                        .all(|&t| (t as usize) < graph.num_nodes());
                if valid {
                    let hit = inner.cache.lock().unwrap().lookup(&key, epoch);
                    if let Some(w) = hit {
                        request = request.weights(w);
                        cache_hit = Some(true);
                    } else if let Ok(w) = request.resolve_weights(&graph, alpha) {
                        inner.cache.lock().unwrap().insert(key, w.clone(), epoch);
                        request = request.weights(w);
                        cache_hit = Some(false);
                    }
                }
            }
        }
    }

    // One cancel flag shared between the handle and the run: reuse
    // the request's own flag if the caller attached one.
    let cancel = match &request.control_ref().cancel {
        Some(flag) => Arc::clone(flag),
        None => Arc::new(AtomicBool::new(false)),
    };
    request = request.cancel_flag(Arc::clone(&cancel));

    let submitted_at = Instant::now();
    let job = Arc::new(Job {
        id: inner.next_id.fetch_add(1, Ordering::Relaxed),
        tenant,
        priority,
        seq,
        submitted: submitted_at,
        graph,
        cancel,
        stalled: AtomicBool::new(false),
        prior_attempts: first_attempt,
        runs: AtomicU32::new(0),
        clock: Mutex::new(AttemptClock {
            ready_at: submitted_at,
            prior_wait_secs: 0.0,
            prior_run_secs: 0.0,
            backoff_secs: 0.0,
        }),
        journal_rec: Mutex::new(journal_rec),
        last_checkpoint: Mutex::new(None),
        durable,
        state: Mutex::new(JobState::Queued(Box::new(request))),
        done_cv: Condvar::new(),
    });

    // Admission and enqueue are one critical section: the bounds
    // checked are exactly the queues the job lands in. A shed victim
    // is collected under the lock but accounted and resolved (state
    // flip + wakeup) after it, keeping lock order job-free, as is a
    // rejection, whose journal record written above must be retired.
    // `hint` is the retry hint either carries: the breaker's remaining
    // cooldown, or the load-derived overload hint.
    let hint;
    let admitted: Result<Option<Arc<Job>>, Rejection> = 'adm: {
        let mut sched = inner.sched.lock().unwrap();
        let now = Instant::now();
        // Circuit breaker, phase 1 (pure): a tripped tenant is
        // fast-rejected before queue bounds are even consulted.
        if !replayed && inner.cfg.breaker_window > 0 {
            let breaker = sched
                .tenants
                .get(&job.tenant)
                .and_then(|t| t.breaker.as_ref());
            if let Some(Err(wait)) = breaker.map(|b| b.check(now, inner.cfg.breaker_cooldown)) {
                hint = wait.max(Duration::from_millis(1));
                break 'adm Err(Rejection::Breaker);
            }
        }
        hint = overload_hint(&sched, inner.workers);
        let mut shed_victim = None;
        if !replayed {
            let tenant_depth = inner.cfg.tenant_queue_depth;
            let queue_len = sched.tenants.get(&job.tenant).map_or(0, |t| t.queue.len());
            if tenant_depth > 0 && queue_len >= tenant_depth {
                break 'adm Err(Rejection::Overloaded);
            }
            if inner.cfg.global_queue_depth > 0 && sched.queued >= inner.cfg.global_queue_depth {
                // Over the global bound: shed the lowest-priority queued
                // job if the newcomer strictly outranks it; otherwise
                // the newcomer is the lowest and is itself rejected.
                match shed_lowest_queued(&mut sched, priority) {
                    Some(victim) => shed_victim = Some(victim),
                    None => break 'adm Err(Rejection::Overloaded),
                }
            }
        }
        let t = sched.tenants.entry(job.tenant.clone()).or_default();
        // Circuit breaker, phase 2 (mutating): only a submission that
        // actually enqueues may claim the half-open probe slot.
        if !replayed && inner.cfg.breaker_window > 0 {
            t.breaker
                .get_or_insert_with(|| Breaker::new(inner.cfg.breaker_window))
                .note_admitted(now, inner.cfg.breaker_cooldown);
        }
        t.queue.push_back(QueuedEntry {
            job: Arc::clone(&job),
            not_before: None,
        });
        sched.queued += 1;
        inner.ledger.queue_depth.set(sched.queued as i64);
        Ok(shed_victim)
    };
    let shed_victim = match admitted {
        Ok(victim) => victim,
        Err(reason) => {
            // The job never entered a queue: its write-ahead record is
            // an orphan — retire it or replay would resurrect a job the
            // service rejected.
            if let Some((journal, key)) = journal_key {
                journal.retire(key);
            }
            let step = Transition::Rejected(reason, cache_hit);
            inner.ledger.transition(job.id, &job.tenant, 0, step);
            return Err(PgsError::Overloaded {
                retry_after_hint: hint,
            });
        }
    };
    let step = if replayed {
        Transition::Replayed(cache_hit)
    } else {
        Transition::Admitted(cache_hit)
    };
    inner
        .ledger
        .transition(job.id, &job.tenant, first_attempt, step);
    if let Some(victim) = shed_victim {
        // A shed durable job resolves Overloaded — it is finished as
        // far as its handle is concerned, so its admission record must
        // not resurrect it at the next restart.
        if let Some(journal) = &inner.journal {
            if let Some(rec) = victim.journal_rec.lock().unwrap().as_ref() {
                journal.retire(&rec.key);
            }
        }
        let attempt = victim.runs.load(Ordering::Relaxed);
        inner
            .ledger
            .transition(victim.id, &victim.tenant, attempt, Transition::Shed);
        resolve_shed(&victim, hint);
    }
    inner.work_cv.notify_one();
    Ok(SummaryHandle { job })
}

/// How long an overloaded caller should back off: the service-wide
/// mean run time scaled by queue depth per worker (plus one for the
/// incoming request), floored at [`MIN_RETRY_HINT`] — an empty
/// completion history, or one whose runs were too fast to measure,
/// must still hint a non-trivial pause.
const MIN_RETRY_HINT: Duration = Duration::from_millis(50);

fn overload_hint(sched: &Sched, workers: usize) -> Duration {
    let avg = if sched.total_attempts > 0 {
        sched.total_attempt_secs / sched.total_attempts as f64
    } else {
        0.0
    };
    let depth_per_worker = sched.queued / workers.max(1) + 1;
    Duration::from_secs_f64(avg * depth_per_worker as f64).max(MIN_RETRY_HINT)
}

/// Removes the globally lowest-priority *queued* job strictly below
/// `incoming_priority` (youngest submission among equals — the least
/// sunk wait time). Running jobs are never candidates. Adjusts queue
/// counters; the caller accounts the shed and resolves the victim's
/// handle outside the sched lock.
fn shed_lowest_queued(sched: &mut Sched, incoming_priority: u8) -> Option<Arc<Job>> {
    let mut victim: Option<(u8, u64, String, usize)> = None;
    for (name, t) in &sched.tenants {
        for (idx, entry) in t.queue.iter().enumerate() {
            let (p, s) = (entry.job.priority, entry.job.seq);
            if p >= incoming_priority {
                continue;
            }
            let better = match &victim {
                None => true,
                Some((vp, vs, _, _)) => p < *vp || (p == *vp && s > *vs),
            };
            if better {
                victim = Some((p, s, name.clone(), idx));
            }
        }
    }
    let (_, _, tenant, idx) = victim?;
    #[expect(
        clippy::expect_used,
        reason = "victim was found in this map under this same lock"
    )]
    let t = sched
        .tenants
        .get_mut(&tenant)
        .expect("victim tenant exists");
    #[expect(
        clippy::expect_used,
        reason = "idx came from this queue under this same lock"
    )]
    let entry = t.queue.remove(idx).expect("victim still queued");
    sched.queued -= 1;
    Some(entry.job)
}

/// Publishes `Err(Overloaded)` to a shed job's handle. The job was
/// already removed from its queue; its timing row records queue wait
/// only (measured from the current attempt's ready instant — a job
/// shed while parked in backoff charges nothing to queue wait).
fn resolve_shed(job: &Job, hint: Duration) {
    let ready_at = job.clock.lock().unwrap().ready_at;
    let wait = Instant::now().saturating_duration_since(ready_at);
    // Never ran: out of completion order.
    let timings = job.timings(wait.as_secs_f64(), 0.0, u64::MAX);
    let result = Err(PgsError::Overloaded {
        retry_after_hint: hint,
    });
    job.publish(result, timings);
}

/// Frees `tenant`'s in-flight slot after an attempt that held a worker
/// for `secs`, and feeds those seconds to the overload hint (a failed
/// attempt held its worker just like a completed one).
fn end_attempt<'s>(sched: &'s mut Sched, tenant: &str, secs: f64) -> &'s mut TenantSched {
    sched.total_attempt_secs += secs;
    sched.total_attempts += 1;
    #[expect(
        clippy::expect_used,
        reason = "tenant entries are created at submit and never removed"
    )]
    let t = sched
        .tenants
        .get_mut(tenant)
        .expect("tenant registered at submit");
    t.inflight -= 1;
    t
}

/// Backoff before retry attempt `attempt` (1-based): exponential in
/// the base with deterministic jitter in `[0, delay/2]` derived from
/// the job's sequence number — reproducible, but de-synchronized
/// across jobs.
fn retry_delay(base: Duration, seq: u64, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(10));
    let jitter_ns = if exp.is_zero() {
        0
    } else {
        // `as_nanos` is u128; a plain `as u64` cast *wraps* once the
        // scaled base passes ~584 years, collapsing (or exploding) the
        // jitter range. Clamp at the type boundary instead — the u64
        // ceiling already exceeds any meaningful backoff.
        let exp_ns = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        iteration_seed(seq, attempt as u64) % (exp_ns / 2 + 1)
    };
    exp.saturating_add(Duration::from_nanos(jitter_ns))
}

/// Picks the next runnable job: among head-of-queue jobs of tenants
/// under their in-flight cap whose backoff (if any) has elapsed, the
/// highest priority wins, earliest submission breaking ties. Returns
/// `None` when nothing is runnable (empty queues, every queued tenant
/// at its cap, *or* every head still backing off).
fn pop_next(sched: &mut Sched, per_tenant_inflight: usize, now: Instant) -> Option<Arc<Job>> {
    let cap = per_tenant_inflight.max(1);
    let best_tenant = sched
        .tenants
        .iter()
        .filter(|(_, t)| t.inflight < cap)
        .filter_map(|(name, t)| {
            let entry = t.queue.front()?;
            match entry.not_before {
                Some(nb) if nb > now => None,
                _ => Some((name, entry.job.priority, entry.job.seq)),
            }
        })
        .max_by(|a, b| a.1.cmp(&b.1).then(b.2.cmp(&a.2)))
        .map(|(name, _, _)| name.clone())?;
    #[expect(
        clippy::expect_used,
        reason = "best_tenant was selected from this map under this same lock"
    )]
    let t = sched.tenants.get_mut(&best_tenant).expect("tenant exists");
    #[expect(
        clippy::expect_used,
        reason = "selection required a non-empty queue under this same lock"
    )]
    let entry = t.queue.pop_front().expect("non-empty queue");
    t.inflight += 1;
    sched.queued -= 1;
    Some(entry.job)
}

/// Earliest `not_before` among head entries of under-cap tenants —
/// the moment a sleeping worker should re-check the queues.
fn next_ready_at(sched: &Sched, per_tenant_inflight: usize) -> Option<Instant> {
    let cap = per_tenant_inflight.max(1);
    sched
        .tenants
        .values()
        .filter(|t| t.inflight < cap)
        .filter_map(|t| t.queue.front().and_then(|e| e.not_before))
        .min()
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut sched = inner.sched.lock().unwrap();
            loop {
                // A crashing service stops dead — no drain; the check
                // precedes the pop so no further job is even picked up.
                if sched.shutdown && (sched.queued == 0 || inner.abandon.load(Ordering::Relaxed)) {
                    break None;
                }
                let now = Instant::now();
                if let Some(job) = pop_next(&mut sched, inner.cfg.per_tenant_inflight, now) {
                    inner.ledger.queue_depth.set(sched.queued as i64);
                    break Some(job);
                }
                if sched.shutdown && sched.queued == 0 {
                    break None;
                }
                // If a head is only blocked by backoff, sleep exactly
                // until it ripens; otherwise wait for a signal.
                match next_ready_at(&sched, inner.cfg.per_tenant_inflight) {
                    Some(at) => {
                        let timeout = at.saturating_duration_since(now);
                        let (guard, _) = inner
                            .work_cv
                            .wait_timeout(sched, timeout.max(Duration::from_micros(50)))
                            .unwrap();
                        sched = guard;
                    }
                    None => sched = inner.work_cv.wait(sched).unwrap(),
                }
            }
        };
        match job {
            Some(job) => run_job(inner, &job),
            None => return,
        }
    }
}

/// The stall watchdog thread (DESIGN.md §12), until `stop`'s sender
/// drops. Cancellation is cooperative: a run that stops ticking its
/// commit boundaries (a wedged evaluator, the injected
/// [`FaultKind::StallForever`](pgs_core::fault::FaultKind::StallForever))
/// holds its worker forever without a deadline, and a deadline cannot
/// tell *slow* from *stuck*. A heartbeat can: engines stamp it at group
/// granularity (through [`RunControl::beat`]), so a value unchanged for
/// `stall_timeout` means the run is wedged, however long its iterations
/// are. Every quarter timeout this scans the running set's open
/// windows and flags each frozen run once: `stalled` set, then
/// `cancel` raised, so the worker publishes [`StopReason::Stalled`].
fn watchdog_loop(inner: &Inner, stop: &mpsc::Receiver<()>, stall_timeout: Duration) {
    let tick = (stall_timeout / 4).max(Duration::from_millis(1));
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(tick) {
        let now = Instant::now();
        let mut flagged = Vec::new();
        for RunningJob { job, watch } in inner.running.lock().unwrap().values_mut() {
            let Some(watch) = watch else { continue };
            let value = watch.heartbeat.load(Ordering::Relaxed);
            if value != watch.last_value {
                watch.last_value = value;
                watch.last_change = now;
            } else if now.duration_since(watch.last_change) >= stall_timeout
                && !job.stalled.swap(true, Ordering::Relaxed)
            {
                // Mark first, then cancel: the worker that observes the
                // cancel must already see the verdict.
                job.cancel.store(true, Ordering::Relaxed);
                flagged.push(Arc::clone(job));
            }
        }
        // Stall forensics, after the running-set lock is released:
        // snapshot the event-ring tail before later lifecycle events
        // rotate the evidence out of the bounded ring.
        for job in flagged {
            // Finished inside the race window: the publish path already
            // told the full story.
            if !inner.running.lock().unwrap().contains_key(&job.id) {
                continue;
            }
            let attempt = job.runs.load(Ordering::Relaxed).saturating_sub(1);
            let step = Transition::Stalled;
            inner.ledger.transition(job.id, &job.tenant, attempt, step);
            let report = StallReport {
                job_id: job.id,
                tenant: job.tenant.clone(),
                events: inner.ledger.events.tail(),
            };
            inner.stall_reports.lock().unwrap().push(report);
        }
    }
}

/// What a worker decided to do with a popped job.
enum Outcome {
    /// Publish this result to the handle (the job is finished).
    Publish(Box<Result<RunOutput, PgsError>>),
    /// The run died but has retry budget left: re-enqueue this request
    /// (already re-armed with the last checkpoint) after backoff. The
    /// count is the job's deaths so far.
    Retry(Box<SummarizeRequest>, u32),
}

/// Runs one job end to end: take the request, shape its deadline from
/// the tenant budget, run (or short-circuit a pre-run cancellation or
/// an expired-in-queue deadline), then either publish the result —
/// updating the tenant's counters and releasing its in-flight slot —
/// or, when the run panicked with retry budget remaining, re-enqueue
/// it at the front of its tenant queue with backoff.
fn run_job(inner: &Inner, job: &Arc<Job>) {
    let picked = Instant::now();
    // Per-attempt queue wait: measured from the instant this attempt
    // became runnable (submission, or backoff expiry for a retry) —
    // *not* from the original submission, which would silently fold
    // prior attempts and backoff sleeps into "queue wait". The
    // tenant-deadline budget below still charges from submission, by
    // its documented contract.
    let wait = {
        let clock = job.clock.lock().unwrap();
        picked.saturating_duration_since(clock.ready_at)
    };
    let request = {
        let mut state = job.state.lock().unwrap();
        match std::mem::replace(&mut *state, JobState::Running) {
            JobState::Queued(req) => req,
            other => {
                // Unreachable by construction (one worker pops a job
                // exactly once); restore and bail defensively.
                *state = other;
                return;
            }
        }
    };
    // Register in the running set *before* the abandon check: `crash`
    // stores `abandon` (SeqCst) and then sweeps this registry, so a job
    // is either registered in time to be swept, or its load below sees
    // the flag — never neither (which would leave a worker running a
    // job the crash can no longer cancel, wedging the pool join).
    let entry = RunningJob {
        job: Arc::clone(job),
        watch: None,
    };
    inner.running.lock().unwrap().insert(job.id, entry);
    if inner.abandon.load(Ordering::SeqCst) {
        // Crashing: freeze — put the request back and walk away. The
        // scheduler counters are left inconsistent on purpose (the
        // process is "dead"); the job's journal record replays it.
        inner.running.lock().unwrap().remove(&job.id);
        *job.state.lock().unwrap() = JobState::Queued(request);
        return;
    }
    // Persist the pickup before running: the attempt count must reach
    // disk while the job can still die, or a restart loop re-burns the
    // full retry allowance on every incarnation.
    if let Some(journal) = &inner.journal {
        let mut rec = job.journal_rec.lock().unwrap();
        if let Some(rec) = rec.as_mut() {
            rec.attempts += 1;
            let _ = journal.append(rec, false);
        }
    }
    let attempt = job.runs.fetch_add(1, Ordering::Relaxed);
    inner
        .ledger
        .transition(job.id, &job.tenant, attempt, Transition::Running);

    // The valid "no work done" result every engine returns when
    // interrupted before its first commit.
    let identity = |stop| RunOutput {
        summary: Summary::identity(&job.graph),
        stats: RunStats::default(),
        stop,
    };
    let outcome = if job.cancel.load(Ordering::Relaxed) {
        // Cancelled while queued: never start the engine.
        Outcome::Publish(Box::new(Ok(identity(StopReason::Cancelled))))
    } else {
        let mut request = *request;
        let mut expired_in_queue = false;
        if let Some(budget) = inner.cfg.tenant_deadline {
            // All wall clock since submission — queue wait, prior
            // attempts, backoff — is charged against the tenant
            // budget; the remainder (possibly zero — the engines treat
            // a zero deadline as already expired) bounds the run
            // itself, tightened further by any deadline the caller
            // set.
            let remaining = budget.saturating_sub(picked.duration_since(job.submitted));
            // A request whose whole budget burned in the queue never
            // reaches the engine: its answer is the identity summary
            // with DeadlineExceeded, by definition, and skipping the
            // dispatch keeps an overloaded pool from paying engine
            // setup for doomed work. (A retry resuming a checkpoint is
            // exempt — the engine restores the partial summary, which
            // the identity shortcut would throw away.)
            expired_in_queue = remaining.is_zero() && request.control_ref().resume.is_none();
            let effective = match request.control_ref().deadline {
                Some(own) => own.min(remaining),
                None => remaining,
            };
            request = request.deadline(effective);
        }
        if expired_in_queue {
            Outcome::Publish(Box::new(Ok(identity(StopReason::DeadlineExceeded))))
        } else {
            // Retryable and durable runs checkpoint into the job's slot
            // (unless the caller attached their own sink — theirs wins,
            // and retry then restarts from scratch or the caller's
            // resume blob). A durable job also writes each blob to its
            // file; the in-memory slot is updated first, so a file
            // write failure (surfaced as WriteFailed, absorbed by the
            // engine) still leaves panic-retry on the freshest state.
            // The sink holds the job weakly: the job owns the request
            // that owns the sink.
            if (inner.cfg.retry_budget > 0 || job.durable.is_some())
                && request.control_ref().checkpoint.is_none()
            {
                let weak = Arc::downgrade(job);
                let ledger = Arc::clone(&inner.ledger);
                let sink: CheckpointSink = Arc::new(move |_t, blob| {
                    let Some(job) = weak.upgrade() else {
                        return Ok(());
                    };
                    let blob = Arc::new(blob);
                    *job.last_checkpoint.lock().unwrap() = Some(Arc::clone(&blob));
                    let result = match &job.durable {
                        Some(file) => file.write(&blob),
                        None => Ok(()),
                    };
                    if result.is_ok() {
                        let attempt = job.runs.load(Ordering::Relaxed).saturating_sub(1);
                        ledger.transition(job.id, &job.tenant, attempt, Transition::Checkpointed);
                    }
                    result
                });
                request = request.checkpoint(inner.cfg.checkpoint_every.max(1), sink);
            }
            // Engine telemetry: wrap the caller's observer (if any)
            // with a delta publisher into the engine counters. Deltas
            // are taken against the previous notification, seeded from
            // the resume checkpoint's stats so a retried run never
            // re-publishes work its prior incarnation already counted.
            // Strictly write-only from the engine's perspective — the
            // determinism boundary of DESIGN.md §14.
            let caller_obs = request.control_ref().observer.clone();
            let seeded = request
                .control_ref()
                .resume
                .as_deref()
                .and_then(|b| RunCheckpoint::decode(b).ok())
                .map(|ck| ck.stats)
                .unwrap_or_default();
            let prev = Arc::new(Mutex::new(seeded));
            {
                let engine = inner.ledger.engine.clone();
                let (prev, caller_obs) = (Arc::clone(&prev), caller_obs.clone());
                request = request.observer(move |stats: &RunStats| {
                    engine.publish(&mut prev.lock().unwrap(), stats);
                    if let Some(obs) = &caller_obs {
                        obs(stats);
                    }
                });
            }
            // Stall supervision: give the run a fresh heartbeat and open
            // a fresh window on it in the running set for the duration
            // of the engine call. The watchdog escalates a frozen
            // heartbeat to the job's cancel flag (marking `stalled`
            // first), so the engine unwinds through its normal
            // cancellation path and the worker is free again within one
            // stall timeout plus one commit.
            let watched = inner.cfg.stall_timeout.is_some();
            if watched {
                let heartbeat = Arc::new(AtomicU64::new(0));
                request = request.heartbeat(Arc::clone(&heartbeat));
                if let Some(entry) = inner.running.lock().unwrap().get_mut(&job.id) {
                    entry.watch = Some(Watch {
                        heartbeat,
                        last_value: 0,
                        last_change: Instant::now(),
                    });
                }
            }
            // Panic isolation: an algorithm bug or a panicking user
            // observer must not unwind the worker — that would leak the
            // tenant's in-flight slot, hang the handle's `wait`, and
            // deadlock the drain on drop. The panic payload still
            // reaches stderr via the default hook.
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                inner.algorithm.run(&job.graph, &request)
            }));
            if watched {
                if let Some(entry) = inner.running.lock().unwrap().get_mut(&job.id) {
                    entry.watch = None;
                }
            }
            // The engine notifies only inside its loop, so work after
            // the last iteration (sparsification) reaches the counters
            // here, once, without another call to the caller's observer.
            if let Ok(Ok(out)) = &run {
                inner
                    .ledger
                    .engine
                    .publish(&mut prev.lock().unwrap(), &out.stats);
            }
            match run {
                Ok(result) => {
                    // A cancellation the *watchdog* initiated is not the
                    // caller's: surface it as Stalled. Completions that
                    // raced the verdict (budget met on the same commit)
                    // keep their honest stop reason.
                    let result = match result {
                        Ok(out)
                            if out.stop == StopReason::Cancelled
                                && job.stalled.load(Ordering::Relaxed) =>
                        {
                            Ok(RunOutput {
                                stop: StopReason::Stalled,
                                ..out
                            })
                        }
                        other => other,
                    };
                    Outcome::Publish(Box::new(result))
                }
                Err(_) => {
                    // Each pickup in this process died before the next
                    // one started, so every pickup so far is a death.
                    let deaths = job.prior_attempts + attempt + 1;
                    if deaths <= inner.cfg.retry_budget {
                        // Re-queue with the caller's own observer: the
                        // next pickup wraps it afresh, so no layer of
                        // publishers stacks up across attempts.
                        let control = RunControl {
                            observer: caller_obs,
                            ..request.control_ref().clone()
                        };
                        let mut retry = request.control(control);
                        let last = job.last_checkpoint.lock().unwrap().clone();
                        if let Some(blob) = last {
                            retry = retry.resume_from(blob);
                        }
                        Outcome::Retry(Box::new(retry), deaths)
                    } else if inner.cfg.retry_budget > 0 {
                        // Budget exhausted: degrade to the last good
                        // checkpoint (or identity if none) — a valid
                        // partial summary with its own stop reason,
                        // never a hung or error-only handle.
                        let last = job.last_checkpoint.lock().unwrap().clone();
                        let out = match last.as_deref().map(|b| RunCheckpoint::decode(b)) {
                            Some(Ok(ck)) => RunOutput {
                                summary: ck.partial_summary(),
                                stats: ck.stats,
                                stop: StopReason::RetriesExhausted,
                            },
                            _ => identity(StopReason::RetriesExhausted),
                        };
                        Outcome::Publish(Box::new(Ok(out)))
                    } else {
                        Outcome::Publish(Box::new(Err(PgsError::RunPanicked)))
                    }
                }
            }
        }
    };

    inner.running.lock().unwrap().remove(&job.id);
    let result = match outcome {
        Outcome::Retry(retry, deaths) => {
            let delay = retry_delay(inner.cfg.retry_backoff, job.seq, deaths);
            let attempt_run_secs = picked.elapsed().as_secs_f64();
            // Roll this attempt into the job's cumulative clock and
            // re-arm `ready_at` at backoff expiry: the next pickup's
            // queue wait starts there, not at submission.
            {
                let mut clock = job.clock.lock().unwrap();
                clock.prior_wait_secs += wait.as_secs_f64();
                clock.prior_run_secs += attempt_run_secs;
                clock.backoff_secs += delay.as_secs_f64();
                clock.ready_at = picked + delay;
            }
            // State back to Queued *before* the queue push: once the
            // entry is visible a worker may pop it immediately — which
            // is also why the retry is accounted first.
            *job.state.lock().unwrap() = JobState::Queued(retry);
            inner
                .ledger
                .transition(job.id, &job.tenant, attempt, Transition::Retried);
            {
                let mut sched = inner.sched.lock().unwrap();
                // Front of the tenant queue: a retry must not let the
                // tenant's younger submissions overtake it (FIFO), and
                // `not_before` keeps the backoff honest.
                end_attempt(&mut sched, &job.tenant, attempt_run_secs)
                    .queue
                    .push_front(QueuedEntry {
                        job: Arc::clone(job),
                        not_before: Some(picked + delay),
                    });
                sched.queued += 1;
                inner.ledger.queue_depth.set(sched.queued as i64);
            }
            inner.work_cv.notify_all();
            return;
        }
        Outcome::Publish(result) => *result,
    };

    let timings = job.timings(
        wait.as_secs_f64(),
        picked.elapsed().as_secs_f64(),
        inner.completed_seq.fetch_add(1, Ordering::Relaxed),
    );
    let outcome = result.as_ref().map(|out| out.stop).map_err(|_| ());
    let abandoned = inner.abandon.load(Ordering::Relaxed);
    // Journal bookkeeping before the accounting and publish sections: a
    // finished job's admission record retires (any outcome — even a
    // typed error must not replay forever); the one exception is a
    // durable job that exhausted its retries, which is *quarantined*
    // instead — moved aside, surfaced in stats, never re-admitted until
    // released. Under a simulated crash nothing on disk moves.
    let mut quarantined = false;
    if let (false, Some(journal)) = (abandoned, &inner.journal) {
        if let Some(rec) = job.journal_rec.lock().unwrap().as_ref() {
            if outcome == Ok(StopReason::RetriesExhausted) {
                // On a failed write the live record stays, and its
                // persisted attempt count quarantines it at the next
                // start.
                let _ = journal.quarantine(rec);
                inner.quarantined.lock().unwrap().insert(rec.key.clone());
                quarantined = true;
            } else {
                journal.retire(&rec.key);
            }
        }
    }
    {
        let mut sched = inner.sched.lock().unwrap();
        let t = end_attempt(&mut sched, &job.tenant, timings.run_secs);
        // The breaker judges every completion: hard failures are typed
        // errors, watchdog stalls, and exhausted retries. Cancellation
        // and deadline expiry are *caller* verdicts, not tenant health.
        if inner.cfg.breaker_window > 0 {
            let failure = matches!(
                outcome,
                Err(()) | Ok(StopReason::Stalled | StopReason::RetriesExhausted)
            );
            t.breaker
                .get_or_insert_with(|| Breaker::new(inner.cfg.breaker_window))
                .record(
                    failure,
                    Instant::now(),
                    inner.cfg.breaker_threshold,
                    inner.cfg.breaker_cooldown,
                );
        }
    }
    // Accounting first, completion second: anyone woken by the handle's
    // condvar must already see this job in the counters and stats.
    if quarantined {
        inner
            .ledger
            .transition(job.id, &job.tenant, attempt, Transition::Quarantined);
    }
    let step = Transition::Completed(&result, &timings);
    inner.ledger.transition(job.id, &job.tenant, attempt, step);
    // A run that truly finished has nothing left to resume: retire its
    // durable checkpoint file before the result becomes visible (a
    // crash between remove and publish merely replays the finished run
    // from its last checkpoint). Interrupted outcomes — cancel,
    // deadline, retries exhausted — keep the file so a resubmission of
    // the same durable key can pick the work back up. A simulated crash
    // retires nothing.
    if !abandoned && matches!(outcome, Ok(StopReason::BudgetMet | StopReason::MaxIters)) {
        if let Some(file) = &job.durable {
            file.remove();
        }
    }
    job.publish(result, timings);
    // The blob only ever fed panic-retry, which is over; a held handle
    // would otherwise pin it for its whole lifetime. Freed after the
    // result is visible, so the waiter never pays for the drop.
    job.last_checkpoint.lock().unwrap().take();
    // A freed in-flight slot (or drained queue) may unblock any worker.
    inner.work_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgs_core::api::{Budget, Pegasus};
    use pgs_graph::gen::barabasi_albert;

    fn service(workers: usize) -> SummaryService {
        let g = Arc::new(barabasi_albert(200, 3, 7));
        SummaryService::new(
            g,
            Arc::new(Pegasus::default()),
            ServiceConfig {
                workers,
                ..Default::default()
            },
        )
    }

    #[test]
    fn submit_wait_roundtrip() {
        let svc = service(2);
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[0, 1]);
        let h = svc.submit(SubmitRequest::new("alice", req)).unwrap();
        let out = h.wait().unwrap();
        assert_eq!(out.stop, StopReason::BudgetMet);
        assert_eq!(h.poll(), JobStatus::Done);
        assert!(h.timings().unwrap().total_secs() >= 0.0);
        let stats = svc.tenant_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].tenant, "alice");
        assert_eq!(stats[0].submitted, 1);
        assert_eq!(stats[0].completed, 1);
        assert_eq!(stats[0].budget_met, 1);
    }

    #[test]
    fn published_durable_job_holds_no_checkpoint_blob() {
        let dir = std::env::temp_dir().join(format!("pgs-service-blob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = SummaryService::new(
            Arc::new(barabasi_albert(300, 3, 7)),
            Arc::new(Pegasus::default()),
            ServiceConfig {
                workers: 1,
                checkpoint_every: 1,
                checkpoint_dir: Some(dir.clone()),
                ..Default::default()
            },
        );
        let req = SummarizeRequest::new(Budget::Ratio(0.3)).targets(&[0, 1]);
        let h = svc
            .submit(SubmitRequest::new("alice", req).durable("blob-job"))
            .unwrap();
        let out = h.wait().unwrap();
        assert!(out.stats.checkpoints > 0, "the run must have checkpointed");
        // Dropping the service joins its worker, so the publish that
        // woke `wait` has fully returned.
        drop(svc);
        assert!(
            h.job.last_checkpoint.lock().unwrap().is_none(),
            "a held handle must not pin the finished job's last blob"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_sweep_hits_the_weight_cache() {
        let svc = service(1);
        let handles: Vec<SummaryHandle> = [0.8, 0.6, 0.4]
            .iter()
            .map(|&ratio| {
                let req = SummarizeRequest::new(Budget::Ratio(ratio)).targets(&[3, 9]);
                svc.submit(SubmitRequest::new("alice", req)).unwrap()
            })
            .collect();
        for h in &handles {
            h.wait().unwrap();
        }
        let cache = svc.cache_stats();
        assert_eq!(cache.misses, 1, "one BFS for the whole sweep");
        assert_eq!(cache.hits, 2);
        let stats = svc.tenant_stats();
        assert_eq!(stats[0].cache_hits, 2);
        assert_eq!(stats[0].cache_misses, 1);
    }

    #[test]
    fn invalid_requests_surface_typed_errors_through_the_handle() {
        let svc = service(1);
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[100_000]);
        let h = svc.submit(SubmitRequest::new("bob", req)).unwrap();
        assert!(matches!(h.wait(), Err(PgsError::TargetOutOfRange { .. })));
        assert_eq!(svc.tenant_stats()[0].errors, 1);
        // Doomed submissions bypass the cache: service-wide and
        // per-tenant cache counters agree (both zero).
        let cache = svc.cache_stats();
        assert_eq!((cache.hits, cache.misses), (0, 0));
        assert_eq!(svc.tenant_stats()[0].cache_misses, 0);
    }

    #[test]
    fn invalid_alpha_surfaces_as_typed_error_not_a_submit_panic() {
        // Submit-side weight resolution runs before the algorithm's own
        // config validation; an invalid α must come back through the
        // handle, never panic the caller's thread.
        let g = Arc::new(barabasi_albert(100, 3, 5));
        let bad = Pegasus(pgs_core::pegasus::PegasusConfig {
            alpha: 0.5,
            ..Default::default()
        });
        let svc = SummaryService::new(g, Arc::new(bad), ServiceConfig::default());
        let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[0, 1]);
        let h = svc.submit(SubmitRequest::new("t", req)).unwrap();
        assert!(matches!(h.wait(), Err(PgsError::InvalidAlpha(a)) if a == 0.5));
        assert_eq!(svc.cache_stats().misses, 0, "no BFS was attempted");
    }

    #[test]
    fn swap_graph_bumps_epoch_and_invalidates_cache() {
        let svc = service(1);
        let req = || SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[0]);
        svc.submit(SubmitRequest::new("a", req()))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(svc.cache_stats().misses, 1);
        assert_eq!(svc.graph_epoch(), 0);
        let g2 = Arc::new(barabasi_albert(150, 3, 8));
        assert_eq!(svc.swap_graph(Arc::clone(&g2)), 1);
        assert_eq!(
            svc.cache_stats().entries,
            0,
            "swap clears old-graph entries eagerly"
        );
        let out = svc
            .submit(SubmitRequest::new("a", req()))
            .unwrap()
            .wait()
            .unwrap();
        // Ran against the new graph with freshly resolved weights.
        assert_eq!(out.summary.num_nodes(), 150);
        assert_eq!(svc.cache_stats().misses, 2, "old epoch never served");
    }

    #[test]
    fn overload_hint_is_floored_on_empty_and_zero_cost_history() {
        // No run has ever completed: the hint must still be a sane,
        // non-zero backoff — not 0 ns and not an arbitrary per-call
        // guess that vanishes the moment total_completed turns 1.
        let empty = Sched {
            tenants: BTreeMap::new(),
            queued: 0,
            total_attempt_secs: 0.0,
            total_attempts: 0,
            shutdown: false,
        };
        assert_eq!(overload_hint(&empty, 4), MIN_RETRY_HINT);
        // Completions exist but were too fast to measure: same floor
        // (this was the bug — a ~0 s average yielded a ~0 ns hint).
        let fast = Sched {
            tenants: BTreeMap::new(),
            queued: 7,
            total_attempt_secs: 0.0,
            total_attempts: 10,
            shutdown: false,
        };
        assert!(overload_hint(&fast, 2) >= MIN_RETRY_HINT);
        // A real average still dominates once it clears the floor.
        let slow = Sched {
            tenants: BTreeMap::new(),
            queued: 4,
            total_attempt_secs: 10.0,
            total_attempts: 10,
            shutdown: false,
        };
        assert_eq!(overload_hint(&slow, 2), Duration::from_secs_f64(3.0));
    }

    #[test]
    fn overload_hint_is_monotone_in_queue_pressure() {
        // At a fixed per-attempt average, deeper queues must never
        // hint a *shorter* backoff — the hint is the caller-facing
        // congestion signal.
        let mut prev = Duration::ZERO;
        for queued in 0..64 {
            let sched = Sched {
                tenants: BTreeMap::new(),
                queued,
                total_attempt_secs: 5.0,
                total_attempts: 10,
                shutdown: false,
            };
            let hint = overload_hint(&sched, 4);
            assert!(
                hint >= prev,
                "hint shrank as the queue grew: {prev:?} -> {hint:?} at depth {queued}"
            );
            prev = hint;
        }
    }

    #[test]
    fn retry_delay_jitter_survives_huge_backoffs() {
        // Regression: `exp.as_nanos() as u64` wrapped for large
        // base × 2^attempt, collapsing the jitter modulus to an
        // arbitrary (sometimes tiny) value. With the clamped modulus
        // the jitter range is [0, u64::MAX/2]; some seed in a small
        // sweep must land in the top half of it, which the wrapped
        // modulus (≈ 6.43e18 for this base, capping jitter below
        // ≈ 3.2e18) made unreachable.
        let base = Duration::from_secs(1u64 << 35);
        let max_jitter_ns = (0..64)
            .map(|seq| {
                let d = retry_delay(base, seq, 10);
                d.saturating_sub(base.saturating_mul(1 << 10)).as_nanos() as u64
            })
            .max()
            .unwrap();
        assert!(
            max_jitter_ns >= u64::MAX / 4,
            "jitter never reached the upper half of the clamped range \
             (max {max_jitter_ns}) — the u128→u64 wrap is back"
        );
        // Normal regime: jitter stays within the documented [0, exp/2].
        let base = Duration::from_millis(10);
        for attempt in 1..=6u32 {
            for seq in 0..32 {
                let exp = base.saturating_mul(1 << attempt.min(10));
                let d = retry_delay(base, seq, attempt);
                assert!(d >= exp, "delay below the exponential floor");
                assert!(
                    d <= exp + exp / 2 + Duration::from_nanos(1),
                    "jitter exceeded exp/2: {d:?} vs exp {exp:?}"
                );
            }
        }
    }

    #[test]
    fn drop_and_crash_leave_no_thread_holding_the_service() {
        for crash in [false, true] {
            let svc = SummaryService::new(
                Arc::new(barabasi_albert(200, 3, 7)),
                Arc::new(Pegasus::default()),
                ServiceConfig {
                    workers: 1,
                    stall_timeout: Some(Duration::from_millis(20)),
                    ..Default::default()
                },
            );
            let inner = Arc::downgrade(&svc.inner);
            if crash {
                svc.crash();
            } else {
                drop(svc);
            }
            assert!(
                inner.upgrade().is_none(),
                "a worker or the watchdog still holds the service (crash: {crash})"
            );
        }
    }

    #[test]
    fn drop_drains_outstanding_work() {
        let svc = service(2);
        let handles: Vec<SummaryHandle> = (0..6)
            .map(|i| {
                let req = SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[i]);
                svc.submit(SubmitRequest::new(format!("t{}", i % 3), req))
                    .unwrap()
            })
            .collect();
        drop(svc);
        for h in handles {
            assert_eq!(h.poll(), JobStatus::Done, "drop drains, not discards");
            h.wait().unwrap();
        }
    }
}
