//! # pgs-serve — multi-tenant summary serving
//!
//! The serving layer the paper's applications section implies but never
//! builds: personalized summaries are per-user artifacts ("millions of
//! users"), so production needs something that multiplexes many tenants
//! over the one fallible, cancellable [`Summarizer`] request path —
//! with fairness, deadlines, and shared per-tenant preprocessing.
//!
//! * [`SummaryService`] — bounded worker pool (dedicated threads,
//!   sized by [`pgs_core::exec::Exec`]'s thread policy), per-tenant
//!   FIFO + cross-tenant priority
//!   scheduling, per-tenant in-flight caps and wall-clock deadlines,
//!   typed [`SummaryHandle`]s (`poll` / `wait` / `cancel`).
//! * [`WeightCache`] — epoch-stamped LRU cache of Eq.-2
//!   [`NodeWeights`](pgs_core::NodeWeights) keyed by
//!   `(tenant, targets, α)`, so one BFS serves a tenant's whole budget
//!   sweep.
//!
//! Results are byte-identical to running the same requests serially
//! through the same [`Summarizer`] — at any worker count, scheduling
//! order, or cache state (pinned by `tests/service_stress.rs`).
//! DESIGN.md §9 documents the architecture and exactly which
//! guarantees are per-handle vs cross-tenant.
//!
//! On top sits a resilience layer (DESIGN.md §10): bounded queues with
//! priority-aware load shedding (typed
//! [`PgsError::Overloaded`](pgs_core::api::PgsError::Overloaded)
//! rejections carrying a retry hint), checkpoint/resume-based retry of
//! runs killed by worker panics (byte-identical to an uninterrupted
//! run), graceful degradation to a partial summary when the retry
//! budget runs out, and per-tenant graph overrides whose cache
//! invalidation is scoped to the tenant that changed.
//!
//! The supervision layer (DESIGN.md §12) extends durability from
//! checkpoints to *admission*: a write-ahead [`Journal`] records every
//! durable submission before it is admitted, so a process crash at any
//! point loses no job — a rebuilt service replays admitted-but-
//! unfinished records (seeding from recovered checkpoints) and finishes
//! them byte-identically. A [`Supervisor`] watchdog flags runs whose
//! heartbeat freezes for longer than the stall timeout
//! ([`StopReason::Stalled`](pgs_core::api::StopReason::Stalled)), so a
//! wedged evaluator can never hold a worker forever; per-tenant
//! [`Breaker`]s fast-reject tenants whose recent completions keep
//! failing; and a job that exhausts its retry allowance across restarts
//! is quarantined rather than re-admitted.
//!
//! The observability layer (DESIGN.md §14) makes all of the above
//! visible without perturbing it: a lock-light metrics registry (queue
//! depth, per-tenant outcomes, cache and engine counters, latency
//! histograms) surfaced as one coherent
//! [`MetricsSnapshot`](service::MetricsSnapshot) with a stable JSON
//! shape; a bounded [`EventJournal`](pgs_observe::EventJournal) of
//! job-lifecycle events (admitted → queued → running → checkpointed →
//! retried / stalled / completed) with an optional NDJSON sink; and
//! stall forensics — the watchdog snapshots the event tail into a
//! [`StallReport`](service::StallReport) at the moment it flags a job,
//! before the cancellation unwinds.
//!
//! ```
//! use std::sync::Arc;
//! use pgs_core::api::{Budget, Pegasus, StopReason, SummarizeRequest};
//! use pgs_serve::{ServiceConfig, SubmitRequest, SummaryService};
//! use pgs_graph::gen::barabasi_albert;
//!
//! let g = Arc::new(barabasi_albert(300, 3, 7));
//! let svc = SummaryService::new(g, Arc::new(Pegasus::default()), ServiceConfig::default());
//!
//! // One tenant sweeping budgets: the first request resolves the
//! // Eq.-2 BFS, the rest hit the weight cache.
//! let handles: Vec<_> = [0.8, 0.5, 0.3]
//!     .iter()
//!     .map(|&r| {
//!         let req = SummarizeRequest::new(Budget::Ratio(r)).targets(&[0, 1]);
//!         svc.submit(SubmitRequest::new("alice", req)).unwrap()
//!     })
//!     .collect();
//! for h in &handles {
//!     assert_eq!(h.wait().unwrap().stop, StopReason::BudgetMet);
//! }
//! assert_eq!(svc.cache_stats().misses, 1); // one BFS for the sweep
//! assert_eq!(svc.cache_stats().hits, 2);
//! ```
//!
//! [`Summarizer`]: pgs_core::api::Summarizer

// Panic policy (DESIGN.md §13): `clippy.toml` exempts lock-poisoning
// unwraps; every other site carries an `#[expect(..., reason = ...)]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

// Lock-order manifest (rule PGS003, checked in tier-1 by
// `crates/analysis/tests/serve_lock_order.rs`): when two of these locks
// are held at once, the left one must be taken first. Today's only
// multi-lock path is `run_job`'s quarantine bookkeeping — it holds the
// job's `journal_rec` while inserting into the service-wide
// `quarantined` set; the rest of the chain documents the intended
// hierarchy (admission state before scheduler state before caches) so
// new nestings land in a consistent direction.
// pgs-lock-order: graphs -> journal_rec -> quarantined -> sched -> cache

pub mod cache;
pub mod durable;
pub mod journal;
pub mod service;
pub mod supervise;

pub use cache::{CacheStats, WeightCache, WeightKey};
pub use durable::FileCheckpointSink;
pub use journal::{JobRecord, Journal};
pub use service::{
    JobStatus, JobTimings, MetricsSnapshot, ServiceConfig, SharedSummarizer, StallReport,
    SubmitRequest, SummaryHandle, SummaryService, TenantStats,
};
pub use supervise::{Breaker, OnStall, Supervisor};
