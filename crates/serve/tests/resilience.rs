//! The serving layer's resilience contract (DESIGN.md §10):
//!
//! * A run killed mid-flight by an injected worker panic and retried
//!   from its checkpoint returns a summary **byte-identical** to the
//!   uninterrupted run — at 1, 2, and 8 workers, across fault seeds.
//! * An overloaded service sheds only *queued*, strictly
//!   lower-priority jobs (never running ones), and every shed or
//!   rejected handle resolves with typed [`PgsError::Overloaded`] —
//!   no handle ever hangs.
//! * Retry-budget exhaustion degrades to a valid partial summary with
//!   [`StopReason::RetriesExhausted`], not an error or a hang.
//! * A request whose tenant deadline fully expired while queued is
//!   answered without invoking the engine at all.
//! * A multi-tenant budget sweep with one injected worker panic still
//!   finishes every job, error-free, with exactly one weight BFS per
//!   tenant.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pgs_core::api::{
    Budget, Pegasus, PgsError, RunOutput, StopReason, SummarizeRequest, Summarizer,
};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::{FaultPlan, Summary};
use pgs_graph::gen::{barabasi_albert, planted_partition};
use pgs_graph::Graph;
use pgs_serve::{JobStatus, ServiceConfig, SubmitRequest, SummaryHandle, SummaryService};

fn graph() -> Arc<Graph> {
    Arc::new(planted_partition(400, 8, 1600, 250, 3))
}

/// Inner parallelism pinned to 1 so `workers` is the only concurrency
/// axis; `seed` keys the engine's per-iteration RNG streams.
fn algorithm(seed: u64) -> Arc<Pegasus> {
    Arc::new(Pegasus(PegasusConfig {
        num_threads: 1,
        seed,
        ..Default::default()
    }))
}

fn assert_identical(a: &Summary, b: &Summary, context: &str) {
    assert_eq!(a.num_nodes(), b.num_nodes(), "{context}: |V|");
    for u in 0..a.num_nodes() as u32 {
        assert_eq!(a.supernode_of(u), b.supernode_of(u), "{context}: node {u}");
    }
    let edges = |s: &Summary| {
        let mut e: Vec<(u32, u32, u32)> = s
            .superedges()
            .map(|(x, y, w)| (x, y, w.to_bits()))
            .collect();
        e.sort_unstable();
        e
    };
    assert_eq!(edges(a), edges(b), "{context}: superedges");
    assert_eq!(
        a.size_bits().to_bits(),
        b.size_bits().to_bits(),
        "{context}: size bits"
    );
}

/// The acceptance criterion: for a fixed seed and fault plan, a run
/// killed at iteration k and resumed from its checkpoint is
/// byte-identical to the uninterrupted run — through the *service*, at
/// 1, 2, and 8 workers.
#[test]
fn injected_panic_is_retried_to_a_byte_identical_result() {
    let g = graph();
    for workers in [1usize, 2, 8] {
        for fault_seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
            let alg = algorithm(fault_seed);
            let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0, 7]);
            let direct: &dyn Summarizer = &*alg;
            let clean = direct.run(&g, &req).expect("direct run");
            let kill_before = (clean.stats.iterations as u64).max(1);

            let svc = SummaryService::new(
                Arc::clone(&g),
                alg.clone(),
                ServiceConfig {
                    workers,
                    retry_budget: 2,
                    retry_backoff: Duration::from_millis(1),
                    checkpoint_every: 1,
                    ..Default::default()
                },
            );
            let plan = Arc::new(FaultPlan::seeded_panic(fault_seed, kill_before));
            let doomed = req.clone().fault_plan(Arc::clone(&plan));
            let h = svc
                .submit(SubmitRequest::new("victim", doomed))
                .expect("admitted");
            let out = h.wait().expect("retried to completion");
            assert_eq!(plan.armed(), 0, "the fault fired");
            assert_eq!(out.stop, clean.stop, "workers={workers} seed={fault_seed}");
            assert_identical(
                &clean.summary,
                &out.summary,
                &format!("workers={workers} seed={fault_seed}"),
            );
            let stats = &svc.tenant_stats()[0];
            assert_eq!(stats.retries, 1, "exactly one death, one retry");
            assert_eq!(stats.completed, 1);
            assert_eq!(stats.errors, 0);
        }
    }
}

/// A request whose observer parks its worker until `released`.
fn blocker(released: &Arc<AtomicBool>) -> SummarizeRequest {
    let gate = Arc::clone(released);
    SummarizeRequest::new(Budget::Ratio(0.4))
        .targets(&[0])
        .observer(move |_| {
            while !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
}

fn spin_until_running(h: &SummaryHandle) {
    while h.poll() != JobStatus::Running {
        assert_ne!(h.poll(), JobStatus::Done, "blocker finished prematurely");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn overload_sheds_only_queued_lowest_priority_jobs() {
    let g = graph();
    let svc = SummaryService::new(
        Arc::clone(&g),
        algorithm(0),
        ServiceConfig {
            workers: 1,
            global_queue_depth: 2,
            ..Default::default()
        },
    );
    let released = Arc::new(AtomicBool::new(false));
    // Deliberately priority 0 — *running* jobs are exempt from
    // shedding no matter how low their priority.
    let running = svc
        .submit(SubmitRequest::new("runner", blocker(&released)).priority(0))
        .expect("admitted");
    spin_until_running(&running);

    let mk = |t: u32| SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[t]);
    let low = svc
        .submit(SubmitRequest::new("low", mk(1)).priority(1))
        .expect("admitted");
    let mid = svc
        .submit(SubmitRequest::new("mid", mk(2)).priority(5))
        .expect("admitted");
    assert_eq!(svc.pending(), 2, "queue at its global bound");

    // An equal-priority newcomer cannot shed anyone: rejected.
    let Err(err) = svc.submit(SubmitRequest::new("equal", mk(3)).priority(1)) else {
        panic!("no strictly lower victim at equal priority — must reject");
    };
    match err {
        PgsError::Overloaded { retry_after_hint } => {
            assert!(retry_after_hint > Duration::ZERO, "hint must be actionable")
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // A higher-priority newcomer sheds the lowest-priority queued job.
    let high = svc
        .submit(SubmitRequest::new("vip", mk(4)).priority(9))
        .expect("admitted by shedding");
    // The shed handle resolves immediately with the typed error — this
    // wait would hang forever if shedding leaked the handle.
    let shed_result = low
        .wait_timeout(Duration::from_secs(10))
        .expect("shed handle must resolve");
    assert!(matches!(shed_result, Err(PgsError::Overloaded { .. })));

    released.store(true, Ordering::Release);
    assert_eq!(
        running.wait().expect("running job unaffected").stop,
        StopReason::BudgetMet
    );
    mid.wait().expect("survivor completes");
    high.wait().expect("vip completes");

    let stats = svc.tenant_stats();
    let by_name = |n: &str| stats.iter().find(|s| s.tenant == n).unwrap().clone();
    assert_eq!(by_name("low").shed, 1);
    assert_eq!(by_name("equal").rejected, 1);
    assert_eq!(by_name("runner").shed, 0, "running jobs are never shed");
    assert_eq!(by_name("mid").completed, 1);
}

#[test]
fn tenant_queue_depth_rejects_at_the_door() {
    let g = graph();
    let svc = SummaryService::new(
        Arc::clone(&g),
        algorithm(0),
        ServiceConfig {
            workers: 1,
            tenant_queue_depth: 1,
            ..Default::default()
        },
    );
    let released = Arc::new(AtomicBool::new(false));
    let running = svc
        .submit(SubmitRequest::new("a", blocker(&released)))
        .expect("admitted");
    spin_until_running(&running);

    let mk = |t: u32| SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[t]);
    let queued = svc.submit(SubmitRequest::new("a", mk(1))).expect("depth 1");
    assert!(matches!(
        svc.submit(SubmitRequest::new("a", mk(2))),
        Err(PgsError::Overloaded { .. })
    ));
    // A cache hit (the blocker resolved target 0) rejected just the same.
    assert!(matches!(
        svc.submit(SubmitRequest::new("a", mk(0))),
        Err(PgsError::Overloaded { .. })
    ));
    // The bound is per-tenant: another tenant is unaffected.
    let other = svc
        .submit(SubmitRequest::new("b", mk(3)))
        .expect("admitted");

    released.store(true, Ordering::Release);
    for h in [&running, &queued, &other] {
        h.wait().expect("admitted work completes");
    }
    let stats = svc.tenant_stats();
    assert_eq!(stats[0].rejected, 2, "tenant a");
    assert_eq!(stats[1].rejected, 0, "tenant b");
    // A rejected submission's lookup counts like any other: the cache,
    // the registry and the tenants agree on hits and on misses.
    let cache = svc.cache_stats();
    let snap = svc.metrics_snapshot();
    let counter = |k: &str| *snap.values.counters.get(k).unwrap_or(&0);
    let tenant_hits: u64 = stats.iter().map(|s| s.cache_hits).sum();
    let tenant_misses: u64 = stats.iter().map(|s| s.cache_misses).sum();
    assert_eq!(cache.hits, 1);
    assert_eq!((counter("serve.cache.hits"), tenant_hits), (1, 1));
    assert_eq!(cache.misses, 4);
    assert_eq!((counter("serve.cache.misses"), tenant_misses), (4, 4));
}

/// A summarizer that panics unconditionally: every attempt dies, so
/// the retry budget must run dry and degrade gracefully.
struct AlwaysPanics;

impl Summarizer for AlwaysPanics {
    fn name(&self) -> &'static str {
        "always-panics"
    }
    fn run(&self, _g: &Graph, _req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        panic!("injected: unrecoverable worker bug");
    }
}

#[test]
fn retry_budget_exhaustion_degrades_to_a_valid_partial_summary() {
    let g = graph();
    let svc = SummaryService::new(
        Arc::clone(&g),
        Arc::new(AlwaysPanics),
        ServiceConfig {
            workers: 2,
            retry_budget: 3,
            retry_backoff: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);
    let h = svc
        .submit(SubmitRequest::new("doomed", req))
        .expect("admitted");
    let out = h.wait().expect("degraded result, not an error");
    assert_eq!(out.stop, StopReason::RetriesExhausted);
    // No checkpoint ever succeeded, so the partial summary is the
    // identity partition — still structurally valid.
    assert_eq!(out.summary.num_nodes(), g.num_nodes());
    assert_eq!(out.summary.num_supernodes(), g.num_nodes());
    let stats = &svc.tenant_stats()[0];
    assert_eq!(stats.retries, 3, "every budgeted retry was attempted");
    assert_eq!(stats.retries_exhausted, 1);
    assert_eq!(stats.completed, 1, "degradation still counts as completion");
    assert_eq!(stats.errors, 0);
}

#[test]
fn zero_retry_budget_keeps_the_legacy_panic_error() {
    let g = graph();
    let svc = SummaryService::new(
        Arc::clone(&g),
        Arc::new(AlwaysPanics),
        ServiceConfig::default(),
    );
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);
    let h = svc.submit(SubmitRequest::new("t", req)).expect("admitted");
    assert!(matches!(h.wait(), Err(PgsError::RunPanicked)));
    assert_eq!(svc.tenant_stats()[0].retries, 0);
}

/// A summarizer that counts invocations before delegating.
struct Counting {
    inner: Pegasus,
    calls: AtomicU64,
}

impl Summarizer for Counting {
    fn name(&self) -> &'static str {
        "counting"
    }
    fn personalization_alpha(&self) -> Option<f64> {
        self.inner.personalization_alpha()
    }
    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.run(g, req)
    }
}

/// A request whose whole tenant budget burned in the queue never
/// reaches the engine: the service answers with the identity summary
/// and `DeadlineExceeded` directly.
#[test]
fn fully_expired_queue_wait_skips_the_engine() {
    let g = graph();
    let counting = Arc::new(Counting {
        inner: Pegasus(PegasusConfig {
            num_threads: 1,
            ..Default::default()
        }),
        calls: AtomicU64::new(0),
    });
    let svc = SummaryService::new(
        Arc::clone(&g),
        Arc::clone(&counting) as _,
        ServiceConfig {
            workers: 1,
            tenant_deadline: Some(Duration::from_nanos(1)),
            cache_capacity: 0,
            ..Default::default()
        },
    );
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);
    let h = svc
        .submit(SubmitRequest::new("late", req))
        .expect("admitted");
    let out = h.wait().expect("expired request still answers");
    assert_eq!(out.stop, StopReason::DeadlineExceeded);
    assert_eq!(out.summary.num_supernodes(), g.num_nodes(), "identity");
    assert_eq!(
        counting.calls.load(Ordering::Relaxed),
        0,
        "the engine must never have been invoked"
    );
    assert_eq!(svc.tenant_stats()[0].deadline_exceeded, 1);
}

/// Checkpoint-write faults and stalls pass through the service
/// harmlessly: the run completes identically, failed writes only
/// show up in the stats.
#[test]
fn checkpoint_write_faults_and_stalls_are_harmless_through_the_service() {
    let g = graph();
    let alg = algorithm(7);
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[3]);
    let direct: &dyn Summarizer = &*alg;
    let clean = direct.run(&g, &req).expect("direct run");

    let svc = SummaryService::new(
        Arc::clone(&g),
        alg.clone(),
        ServiceConfig {
            workers: 2,
            retry_budget: 1,
            retry_backoff: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let plan = Arc::new(
        FaultPlan::new()
            .fail_checkpoint_at(1)
            .stall_at(2, Duration::from_millis(2)),
    );
    let h = svc
        .submit(SubmitRequest::new("t", req.fault_plan(plan)))
        .expect("admitted");
    let out = h.wait().expect("completes");
    assert_identical(&clean.summary, &out.summary, "faulty checkpoints");
    assert_eq!(out.stats.checkpoint_failures, 1);
    assert_eq!(svc.tenant_stats()[0].retries, 0, "nothing actually died");
}

/// Per-tenant graph overrides: the overridden tenant runs on its own
/// graph at a fresh epoch, everyone else keeps the default — and a
/// default-graph swap spares the overridden tenant's cache entries.
#[test]
fn tenant_graph_overrides_scope_swaps_and_cache_invalidation() {
    let g = graph();
    let svc = SummaryService::new(Arc::clone(&g), algorithm(0), ServiceConfig::default());
    let mk = |t: u32| SummarizeRequest::new(Budget::Ratio(0.5)).targets(&[t]);

    // Warm both tenants' cache entries on the default graph.
    svc.submit(SubmitRequest::new("a", mk(1)))
        .unwrap()
        .wait()
        .unwrap();
    svc.submit(SubmitRequest::new("b", mk(2)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(svc.cache_stats().entries, 2);

    // Pin tenant b to its own (smaller) graph.
    let gb = Arc::new(planted_partition(120, 4, 400, 80, 9));
    let epoch_b = svc.swap_tenant_graph("b", Arc::clone(&gb));
    assert!(epoch_b > 0, "tenant swap consumes a fresh epoch");
    assert_eq!(svc.cache_stats().entries, 1, "only b's entry invalidated");
    assert_eq!(svc.tenant_graph("b").num_nodes(), 120);
    assert_eq!(svc.graph().num_nodes(), g.num_nodes(), "default untouched");

    let out_b = svc
        .submit(SubmitRequest::new("b", mk(2)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out_b.summary.num_nodes(), 120, "b runs on its override");
    let out_a = svc
        .submit(SubmitRequest::new("a", mk(1)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out_a.summary.num_nodes(), g.num_nodes(), "a on the default");

    // Swapping the *default* graph spares b's warmed entry.
    let entries_before = svc.cache_stats().entries;
    assert!(entries_before >= 2, "both tenants warmed again");
    let g3 = Arc::new(planted_partition(200, 4, 700, 120, 11));
    svc.swap_graph(g3);
    let after = svc.cache_stats().entries;
    assert_eq!(after, 1, "b's override entry survives the default swap");
    let out_b2 = svc
        .submit(SubmitRequest::new("b", mk(2)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out_b2.summary.num_nodes(), 120, "b still pinned");
    let hits_before = svc.cache_stats().hits;
    assert!(hits_before >= 1, "b's retained entry serves the hit");

    // Clearing the override returns b to the (new) default.
    svc.clear_tenant_graph("b");
    let out_b3 = svc
        .submit(SubmitRequest::new("b", mk(2)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(out_b3.summary.num_nodes(), 200, "b back on the default");
}

/// The chaos smoke: 3 tenants each sweep budgets 0.6 then 0.4 over
/// their own targets on a 1,200-node BA graph, submitted budget-major
/// so adjacent submissions belong to different tenants. The first
/// submission panics its worker (fault seed 42) and is retried from its
/// checkpoint. Every job still completes without an error, and each
/// tenant's sweep resolves one BFS and hits the cache for its second
/// budget.
#[test]
fn tenant_sweep_survives_an_injected_worker_panic() {
    const NODES: usize = 1_200;
    const TENANTS: usize = 3;
    const BUDGETS: [f64; 2] = [0.6, 0.4];
    let g = Arc::new(barabasi_albert(NODES, 5, 42));
    let svc = SummaryService::new(
        Arc::clone(&g),
        algorithm(0),
        ServiceConfig {
            retry_budget: 2,
            retry_backoff: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let handles: Vec<SummaryHandle> = BUDGETS
        .iter()
        .flat_map(|&ratio| (0..TENANTS).map(move |t| (ratio, t)))
        .map(|(ratio, t)| {
            let targets: Vec<u32> = (0..3)
                .map(|k| ((t * 131 + k * 17) % NODES) as u32)
                .collect();
            let mut req = SummarizeRequest::new(Budget::Ratio(ratio)).targets(&targets);
            if t == 0 && ratio == BUDGETS[0] {
                req = req.fault_plan(Arc::new(FaultPlan::seeded_panic(42, 6)));
            }
            svc.submit(SubmitRequest::new(format!("tenant-{t:02}"), req))
                .expect("unbounded queues admit everything")
        })
        .collect();
    for h in &handles {
        h.wait().expect("every job completes");
    }
    let stats = svc.tenant_stats();
    assert_eq!(stats.len(), TENANTS);
    for s in &stats {
        assert_eq!(s.completed, BUDGETS.len() as u64, "{} terminated", s.tenant);
        assert_eq!(s.errors, 0, "{} must not surface errors", s.tenant);
    }
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    assert!(retries >= 1, "fault seed 42 must force at least one retry");
    let cache = svc.cache_stats();
    assert_eq!(cache.misses, TENANTS as u64, "one BFS per tenant");
    assert_eq!(
        cache.hits,
        (TENANTS * (BUDGETS.len() - 1)) as u64,
        "every later budget in a sweep must hit"
    );
}
