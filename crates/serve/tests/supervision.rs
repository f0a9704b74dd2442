//! Runtime supervision (DESIGN.md §12): the stall watchdog frees a
//! worker whose engine heartbeat freezes, and per-tenant circuit
//! breakers fast-reject tenants whose recent runs keep failing — then
//! recover through a half-open probe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pgs_core::api::{
    Budget, Pegasus, PgsError, RunOutput, StopReason, SummarizeRequest, Summarizer,
};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::{FaultPlan, Summary};
use pgs_graph::gen::planted_partition;
use pgs_graph::Graph;
use pgs_serve::{ServiceConfig, SubmitRequest, SummaryService, TenantStats};

fn graph() -> Arc<Graph> {
    Arc::new(planted_partition(400, 8, 1600, 250, 3))
}

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
    assert_eq!(
        a.size_bits().to_bits(),
        b.size_bits().to_bits(),
        "{context}: size bits"
    );
}

fn stats_for(stats: &[TenantStats], tenant: &str) -> TenantStats {
    stats
        .iter()
        .find(|t| t.tenant == tenant)
        .cloned()
        .unwrap_or_else(|| panic!("no stats for tenant {tenant}"))
}

/// A `stall_forever` fault wedges the engine mid-iteration. The
/// watchdog flags the frozen heartbeat, cancels the run, and the worker
/// is back in service long before the fault's 30 s safety cap — the
/// stalled run degrades to a valid partial summary tagged `Stalled`.
#[test]
fn stall_forever_never_holds_a_worker_past_the_timeout() {
    let g = graph();
    let alg = algorithm(3);
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);
    let direct: &dyn Summarizer = &*alg;
    let clean = direct.run(&g, &req).expect("direct run");

    let svc = SummaryService::new(
        Arc::clone(&g),
        alg.clone(),
        ServiceConfig {
            workers: 1,
            stall_timeout: Some(Duration::from_millis(100)),
            ..Default::default()
        },
    );
    let plan = Arc::new(FaultPlan::new().stall_forever_at(2));
    let t0 = Instant::now();
    let stuck = svc
        .submit(SubmitRequest::new(
            "stuck",
            req.clone().fault_plan(Arc::clone(&plan)),
        ))
        .expect("admitted");
    let out = stuck.wait().expect("stalled run still publishes");
    let waited = t0.elapsed();
    assert_eq!(out.stop, StopReason::Stalled);
    assert_eq!(plan.armed(), 0, "the stall actually fired");
    assert!(
        waited < Duration::from_secs(10),
        "watchdog freed the worker in {waited:?}, not the 30s safety cap"
    );
    // The partial summary is a valid assignment over the whole graph.
    assert_eq!(out.summary.num_nodes(), g.num_nodes());

    // The single worker is free again: a healthy job on the same pool
    // completes normally and byte-identically to a direct run.
    let healthy = svc
        .submit(SubmitRequest::new("healthy", req.clone()))
        .expect("admitted");
    let ok = healthy.wait().expect("healthy run");
    assert_eq!(ok.stop, StopReason::BudgetMet);
    assert_identical(&clean.summary, &ok.summary, "after a stalled neighbor");

    let stats = svc.tenant_stats();
    assert_eq!(stats_for(&stats, "stuck").stalled, 1);
    assert_eq!(stats_for(&stats, "healthy").stalled, 0);
}

/// The watchdog outlives the pool: a run that stalls while a dropped
/// service drains is still flagged, so the drop returns within about
/// one stall timeout rather than the fault's 30 s safety cap, and the
/// handle resolves `Stalled`.
#[test]
fn dropping_a_service_drains_a_stalled_run() {
    let svc = SummaryService::new(
        graph(),
        algorithm(3),
        ServiceConfig {
            workers: 1,
            stall_timeout: Some(Duration::from_millis(100)),
            ..Default::default()
        },
    );
    let plan = Arc::new(FaultPlan::new().stall_forever_at(2));
    let req = SummarizeRequest::new(Budget::Ratio(0.4))
        .targets(&[0])
        .fault_plan(Arc::clone(&plan));
    let stuck = svc
        .submit(SubmitRequest::new("stuck", req))
        .expect("admitted");
    let t0 = Instant::now();
    drop(svc);
    let drained = t0.elapsed();
    assert!(
        drained < Duration::from_secs(10),
        "drain took {drained:.2?}"
    );
    assert_eq!(plan.armed(), 0, "the stall actually fired");
    let out = stuck.wait().expect("stalled run still publishes");
    assert_eq!(out.stop, StopReason::Stalled);
}

/// Seeded stall sweep: wherever the fault lands in the run, every job
/// resolves (the stalled one as `Stalled`, the healthy one untouched)
/// and the pool never wedges.
#[test]
fn seeded_stall_sweep_always_frees_the_pool() {
    let g = graph();
    for seed in [1u64, 7, 19, 33] {
        let alg = algorithm(seed);
        let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[seed as u32 % 10]);
        let direct: &dyn Summarizer = &*alg;
        let clean = direct.run(&g, &req).expect("direct run");
        let max_iter = clean.stats.iterations.max(1) as u64;

        let svc = SummaryService::new(
            Arc::clone(&g),
            alg.clone(),
            ServiceConfig {
                workers: 2,
                stall_timeout: Some(Duration::from_millis(80)),
                ..Default::default()
            },
        );
        let plan = Arc::new(FaultPlan::seeded_stall_forever(seed, max_iter));
        let stuck = svc
            .submit(SubmitRequest::new(
                "stuck",
                req.clone().fault_plan(Arc::clone(&plan)),
            ))
            .expect("admitted");
        let healthy = svc
            .submit(SubmitRequest::new("healthy", req.clone()))
            .expect("admitted");

        let s = stuck.wait().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(s.stop, StopReason::Stalled, "seed {seed}");
        assert_eq!(plan.armed(), 0, "seed {seed}: stall consumed");
        let h = healthy
            .wait()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(h.stop, StopReason::BudgetMet, "seed {seed}");
        assert_identical(
            &clean.summary,
            &h.summary,
            &format!("seed {seed}: healthy lane"),
        );
    }
}

/// A slow run whose heartbeat keeps ticking is never flagged: the
/// watchdog watches heartbeat *progress*, not wall-clock runtime.
#[test]
fn slow_but_live_runs_are_never_flagged() {
    let g = graph();
    let alg = algorithm(13);
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[1]);
    let direct: &dyn Summarizer = &*alg;
    let clean = direct.run(&g, &req).expect("direct run");

    let svc = SummaryService::new(
        Arc::clone(&g),
        alg.clone(),
        ServiceConfig {
            workers: 1,
            stall_timeout: Some(Duration::from_millis(150)),
            ..Default::default()
        },
    );
    // Each iteration dawdles for a third of the stall timeout — total
    // runtime blows far past the timeout, but the heartbeat advances
    // every iteration so the run is demonstrably alive.
    let slow = req.clone().observer(|_| {
        std::thread::sleep(Duration::from_millis(50));
    });
    let out = svc
        .submit(SubmitRequest::new("slow", slow))
        .expect("admitted")
        .wait()
        .expect("slow run completes");
    assert_eq!(out.stop, StopReason::BudgetMet);
    assert_identical(&clean.summary, &out.summary, "slow but live");
    assert_eq!(stats_for(&svc.tenant_stats(), "slow").stalled, 0);
}

/// Fails its first `fail_remaining` calls with `RunPanicked`, then
/// delegates to a real engine — a tenant that is sick for a while and
/// then recovers.
struct Flaky {
    fail_remaining: AtomicU64,
    inner: Pegasus,
}

impl Summarizer for Flaky {
    fn name(&self) -> &'static str {
        "flaky"
    }
    fn personalization_alpha(&self) -> Option<f64> {
        self.inner.personalization_alpha()
    }
    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        if self
            .fail_remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(PgsError::RunPanicked);
        }
        self.inner.run(g, req)
    }
}

/// Two straight failures fill the window and trip the tenant's breaker:
/// the next submission is fast-rejected with `Overloaded` (no worker
/// touched), other tenants are unaffected, and after the cooldown a
/// half-open probe succeeds and closes the breaker again.
#[test]
fn breaker_trips_fast_rejects_and_recovers_via_probe() {
    let g = graph();
    let flaky = Arc::new(Flaky {
        fail_remaining: AtomicU64::new(2),
        inner: Pegasus(PegasusConfig {
            num_threads: 1,
            seed: 5,
            ..Default::default()
        }),
    });
    let cooldown = Duration::from_millis(150);
    let svc = SummaryService::new(
        Arc::clone(&g),
        flaky,
        ServiceConfig {
            workers: 1,
            retry_budget: 0,
            breaker_window: 2,
            breaker_threshold: 0.5,
            breaker_cooldown: cooldown,
            ..Default::default()
        },
    );
    let mk = || SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);

    // Two failed completions fill the window past the threshold.
    for i in 0..2 {
        let h = svc
            .submit(SubmitRequest::new("sick", mk()))
            .expect("still admitted while closed");
        assert!(h.wait().is_err(), "injected failure {i}");
    }

    // Tripped: the very next submission is rejected before admission.
    match svc.submit(SubmitRequest::new("sick", mk())) {
        Err(PgsError::Overloaded { retry_after_hint }) => {
            assert!(retry_after_hint > Duration::ZERO);
            assert!(retry_after_hint <= cooldown + Duration::from_secs(1));
        }
        Err(other) => panic!("expected Overloaded fast-reject, got {other:?}"),
        Ok(_) => panic!("expected Overloaded fast-reject, got an admitted handle"),
    }

    // The breaker is per-tenant: a neighbor sails through (the fault
    // budget is spent, so the engine now behaves).
    let ok = svc
        .submit(SubmitRequest::new("well", mk()))
        .expect("other tenant admitted")
        .wait()
        .expect("other tenant completes");
    assert_eq!(ok.stop, StopReason::BudgetMet);

    // After the cooldown the half-open probe is admitted; its success
    // closes the breaker, and the tenant is back to normal admission.
    std::thread::sleep(cooldown + Duration::from_millis(50));
    let probe = svc
        .submit(SubmitRequest::new("sick", mk()))
        .expect("half-open probe admitted");
    assert_eq!(probe.wait().expect("probe run").stop, StopReason::BudgetMet);
    let after = svc
        .submit(SubmitRequest::new("sick", mk()))
        .expect("breaker closed again");
    assert_eq!(
        after.wait().expect("normal run").stop,
        StopReason::BudgetMet
    );

    let stats = svc.tenant_stats();
    let sick = stats_for(&stats, "sick");
    assert_eq!(sick.breaker_trips, 1, "one trip, not re-counted");
    assert_eq!(sick.breaker_rejected, 1);
    assert_eq!(sick.rejected, 1, "breaker rejections count as rejections");
    let well = stats_for(&stats, "well");
    assert_eq!(well.breaker_rejected, 0);
    assert_eq!(well.breaker_trips, 0);
}
