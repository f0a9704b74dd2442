//! The live observability layer (DESIGN.md §14): metrics snapshots
//! stay coherent while hammered from a reader thread, lifecycle events
//! tell each job's story in order, the NDJSON sink and the snapshot
//! round-trip through the bundled JSON parser with exactly the
//! documented keys, stall forensics capture the event tail at
//! escalation, retried jobs report honest per-attempt timings (the
//! conflated-wait bugfix), and instrumentation never perturbs
//! byte-identity.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pgs_core::api::{Budget, Pegasus, StopReason, SummarizeRequest, Summarizer};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::{FaultPlan, Summary};
use pgs_graph::gen::planted_partition;
use pgs_graph::Graph;
use pgs_observe::{EventKind, Json};
use pgs_serve::{ServiceConfig, SubmitRequest, SummaryService};

/// The stable metric key sets of DESIGN.md §14. Renaming or adding a
/// key without updating these lists (and the docs) fails this suite.
const EXPECTED_COUNTERS: &[&str] = &[
    "engine.evals",
    "engine.iterations",
    "engine.merges",
    "engine.phase.candidates_us",
    "engine.phase.commit_us",
    "engine.phase.evaluate_us",
    "engine.phase.sparsify_us",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.jobs.completed",
    "serve.jobs.errors",
    "serve.jobs.quarantined",
    "serve.jobs.rejected",
    "serve.jobs.replayed",
    "serve.jobs.retried",
    "serve.jobs.shed",
    "serve.jobs.stalled",
    "serve.jobs.submitted",
];
const EXPECTED_GAUGES: &[&str] = &["serve.jobs.running", "serve.queue.depth"];
const EXPECTED_HISTOGRAMS: &[&str] = &["serve.latency.run_us", "serve.latency.wait_us"];
const EXPECTED_SNAPSHOT_KEYS: &[&str] = &[
    "cache",
    "event_seq",
    "journal",
    "metrics",
    "queued",
    "running",
    "tenants",
    "workers",
];
const EVENT_KINDS: &[&str] = &[
    "admitted",
    "replayed",
    "queued",
    "running",
    "checkpointed",
    "retried",
    "shed",
    "rejected",
    "stalled",
    "quarantined",
    "completed",
];

fn graph() -> Arc<Graph> {
    Arc::new(planted_partition(400, 8, 1600, 250, 3))
}

/// Exact-set key check: unknown keys are as fatal as missing ones, so a
/// metric rename fails here instead of silently forking the schema
/// consumers depend on.
fn assert_exact_keys(section: &Json, expected: &[&str], what: &str) {
    let mut keys: Vec<&str> = section.keys();
    keys.sort_unstable();
    let missing: Vec<&&str> = expected.iter().filter(|k| !keys.contains(k)).collect();
    let unknown: Vec<&&str> = keys.iter().filter(|k| !expected.contains(k)).collect();
    assert!(
        missing.is_empty() && unknown.is_empty(),
        "{what}: schema drift — missing {missing:?}, unknown {unknown:?} \
         (update DESIGN.md §14 and the EXPECTED_* lists if intentional)"
    );
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

/// The ISSUE's concurrency criterion: a reader thread hammers
/// `metrics_snapshot()` throughout an 8-worker fault-seeded sweep.
/// Counters must be monotone snapshot-over-snapshot, gauges must stay
/// within physical bounds, and the event sequence must never step
/// backwards; afterwards the retained tail's seqs are strictly
/// increasing.
#[test]
fn snapshots_stay_coherent_under_concurrent_load() {
    let g = graph();
    let svc = Arc::new(SummaryService::new(
        Arc::clone(&g),
        algorithm(5),
        ServiceConfig {
            workers: 8,
            retry_budget: 2,
            retry_backoff: Duration::from_millis(1),
            checkpoint_every: 1,
            event_capacity: 4096,
            ..Default::default()
        },
    ));

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let svc = Arc::clone(&svc);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut prev_counters = std::collections::BTreeMap::new();
            let mut prev_seq = 0u64;
            let mut reads = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = svc.metrics_snapshot();
                for (key, &value) in &snap.values.counters {
                    if let Some(&old) = prev_counters.get(key) {
                        assert!(
                            value >= old,
                            "counter {key} went backwards: {old} -> {value}"
                        );
                    }
                }
                prev_counters = snap.values.counters.clone();
                assert!(
                    (0..=8).contains(&snap.running),
                    "running gauge out of bounds: {}",
                    snap.running
                );
                assert!(
                    snap.event_seq >= prev_seq,
                    "event seq went backwards: {prev_seq} -> {}",
                    snap.event_seq
                );
                prev_seq = snap.event_seq;
                reads += 1;
            }
            reads
        })
    };

    let faulted = 6usize;
    let handles: Vec<_> = (0..24)
        .map(|i| {
            let mut req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[(i % 10) as u32]);
            if i < faulted {
                // Fires once at iteration 0; the retry resumes clean.
                req = req.fault_plan(Arc::new(FaultPlan::seeded_panic(i as u64 + 1, 1)));
            }
            svc.submit(SubmitRequest::new(format!("t{}", i % 3), req))
                .expect("admitted")
        })
        .collect();
    for h in &handles {
        h.wait().expect("every job resolves");
    }
    done.store(true, Ordering::Release);
    let reads = reader.join().expect("reader thread clean");
    assert!(reads > 0, "the reader actually observed the sweep");

    let snap = svc.metrics_snapshot();
    let counter = |k: &str| *snap.values.counters.get(k).unwrap_or(&0);
    assert_eq!(counter("serve.jobs.submitted"), 24);
    assert_eq!(counter("serve.jobs.completed"), 24);
    assert_eq!(counter("serve.jobs.errors"), 0);
    assert_eq!(counter("serve.jobs.retried"), faulted as u64);
    assert!(counter("engine.evals") > 0, "engine telemetry flowed");
    assert_eq!(snap.running, 0, "sweep drained");
    assert_eq!(snap.queued, 0);

    let tail = svc.events_tail();
    assert!(!tail.is_empty());
    for pair in tail.windows(2) {
        assert!(
            pair[1].seq > pair[0].seq,
            "ring order must equal seq order: {} then {}",
            pair[0].seq,
            pair[1].seq
        );
    }
}

/// Each job's retained events appear in lifecycle order, and a
/// completed job's terminal event carries its stop-reason token.
#[test]
fn events_tell_each_jobs_story_in_order() {
    let g = graph();
    let svc = SummaryService::new(
        Arc::clone(&g),
        algorithm(3),
        ServiceConfig {
            workers: 2,
            event_capacity: 1024,
            ..Default::default()
        },
    );
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[i]);
            svc.submit(SubmitRequest::new("alice", req))
                .expect("admitted")
        })
        .collect();
    for h in &handles {
        assert_eq!(h.wait().expect("run").stop, StopReason::BudgetMet);
    }
    let tail = svc.events_tail();
    for h in &handles {
        let job: Vec<_> = tail.iter().filter(|e| e.job_id == h.id()).collect();
        let position = |kind: EventKind| {
            job.iter()
                .position(|e| e.kind == kind)
                .unwrap_or_else(|| panic!("job {} missing {kind:?}", h.id()))
        };
        let (admitted, queued) = (position(EventKind::Admitted), position(EventKind::Queued));
        let (running, completed) = (position(EventKind::Running), position(EventKind::Completed));
        assert!(admitted < queued && queued < running && running < completed);
        assert_eq!(job[completed].stop, Some("budget-met"));
        assert_eq!(job[completed].tenant, "alice");
    }
}

/// The NDJSON sink writes one parseable object per line with the
/// documented keys and a known kind, in seq order, and the snapshot's
/// JSON rendering parses with exactly the §14 key sets.
#[test]
fn event_sink_and_snapshot_json_round_trip() {
    let dir = std::env::temp_dir().join(format!("pgs-observe-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("events.ndjson");
    let g = graph();
    let svc = SummaryService::new(
        Arc::clone(&g),
        algorithm(3),
        ServiceConfig {
            workers: 1,
            events_path: Some(path.clone()),
            ..Default::default()
        },
    );
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);
    svc.submit(SubmitRequest::new("alice", req))
        .expect("admitted")
        .wait()
        .expect("run");
    let snapshot_json = svc.metrics_snapshot().to_json();
    drop(svc);

    let parsed = Json::parse(&snapshot_json).expect("snapshot JSON parses");
    assert_exact_keys(&parsed, EXPECTED_SNAPSHOT_KEYS, "snapshot");
    let metrics = parsed.get("metrics").expect("snapshot.metrics");
    let counters = metrics.get("counters").expect("metrics.counters");
    assert_exact_keys(counters, EXPECTED_COUNTERS, "counters");
    let gauges = metrics.get("gauges").expect("metrics.gauges");
    assert_exact_keys(gauges, EXPECTED_GAUGES, "gauges");
    let hists = metrics.get("histograms").expect("metrics.histograms");
    assert_exact_keys(hists, EXPECTED_HISTOGRAMS, "histograms");
    for key in EXPECTED_HISTOGRAMS {
        let h = hists.get(key).expect("histogram entry");
        let bounds = h.get("bounds").and_then(Json::as_arr).expect("bounds");
        let counts = h.get("counts").and_then(Json::as_arr).expect("counts");
        assert_eq!(
            counts.len(),
            bounds.len() + 1,
            "{key}: counts must carry one overflow bucket"
        );
    }
    let tenants = parsed
        .get("tenants")
        .and_then(Json::as_arr)
        .expect("tenants");
    assert!(!tenants.is_empty(), "the submitting tenant is listed");
    for t in tenants {
        for key in ["tenant", "submitted", "completed", "wait_secs", "run_secs"] {
            assert!(t.get(key).is_some(), "tenant entry missing {key:?}");
        }
    }

    let text = std::fs::read_to_string(&path).expect("sink written");
    let mut prev_seq = 0.0;
    let mut lines = 0;
    for line in text.lines() {
        let ev = Json::parse(line).expect("event line parses");
        let seq = ev.get("seq").and_then(Json::as_f64).expect("seq");
        assert!(seq > prev_seq, "sink lines out of seq order");
        prev_seq = seq;
        for key in ["job", "tenant", "attempt", "kind"] {
            assert!(ev.get(key).is_some(), "event missing key {key}");
        }
        let kind = ev.get("kind").and_then(Json::as_str).expect("kind");
        assert!(EVENT_KINDS.contains(&kind), "unknown event kind {kind:?}");
        lines += 1;
    }
    assert!(lines >= 4, "admitted/queued/running/completed at minimum");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The retry-timing bugfix: a retried job's final-attempt wait must
/// not include the prior run or the backoff sleep (pre-fix, `wait_secs`
/// was measured from submission and silently swallowed both), and the
/// backoff itself is reported in its own field.
#[test]
fn retried_jobs_report_per_attempt_timings() {
    let g = graph();
    let alg = algorithm(7);
    let backoff = Duration::from_millis(200);
    let svc = SummaryService::new(
        Arc::clone(&g),
        alg,
        ServiceConfig {
            workers: 1,
            retry_budget: 1,
            retry_backoff: backoff,
            checkpoint_every: 1,
            ..Default::default()
        },
    );
    let plan = Arc::new(FaultPlan::seeded_panic(7, 1));
    let req = SummarizeRequest::new(Budget::Ratio(0.4))
        .targets(&[0])
        .fault_plan(Arc::clone(&plan));
    let h = svc
        .submit(SubmitRequest::new("alice", req))
        .expect("admitted");
    h.wait().expect("retried to completion");
    assert_eq!(plan.armed(), 0, "the fault fired");
    let t = h.timings().expect("done");
    assert_eq!(t.attempts, 2, "one death, one surviving attempt");
    // Attempt 1 backs off for at least base × 2¹ (jitter adds more).
    let min_backoff = (backoff * 2).as_secs_f64();
    assert!(
        t.backoff_secs >= min_backoff * 0.99,
        "backoff under-reported: {} < {min_backoff}",
        t.backoff_secs
    );
    // The final attempt was picked up shortly after its backoff
    // ripened: its wait must be far below the backoff it followed.
    // Pre-fix this was >= the backoff, because the wait clock still
    // started at submission.
    assert!(
        t.wait_secs < min_backoff / 2.0,
        "final-attempt wait {} swallowed the backoff ({min_backoff})",
        t.wait_secs
    );
    assert!(
        t.total_secs() >= t.backoff_secs,
        "total latency must cover the backoff"
    );
    assert!(t.total_wait_secs >= t.wait_secs);
    assert!(t.total_run_secs >= t.run_secs);
    let stats = &svc.tenant_stats()[0];
    assert_eq!(stats.retries, 1);
    assert!(
        stats.backoff_secs >= min_backoff * 0.99,
        "tenant backoff aggregate missing"
    );
    assert!(stats.evals > 0, "engine totals accumulated per tenant");
}

/// Stall forensics: when the watchdog flags a frozen run, the event
/// tail is snapshotted into a `StallReport` before the cancellation
/// unwinds, and the report names the victim.
#[test]
fn watchdog_snapshot_lands_in_stall_reports() {
    let g = graph();
    let svc = SummaryService::new(
        Arc::clone(&g),
        algorithm(3),
        ServiceConfig {
            workers: 1,
            stall_timeout: Some(Duration::from_millis(100)),
            event_capacity: 256,
            ..Default::default()
        },
    );
    let plan = Arc::new(FaultPlan::new().stall_forever_at(2));
    let req = SummarizeRequest::new(Budget::Ratio(0.4))
        .targets(&[0])
        .fault_plan(Arc::clone(&plan));
    let h = svc
        .submit(SubmitRequest::new("stuck", req))
        .expect("admitted");
    let out = h.wait().expect("stalled run still publishes");
    assert_eq!(out.stop, StopReason::Stalled);

    let reports = svc.stall_reports();
    assert_eq!(reports.len(), 1, "exactly one escalation");
    let report = &reports[0];
    assert_eq!(report.job_id, h.id());
    assert_eq!(report.tenant, "stuck");
    let stalled = report
        .events
        .iter()
        .find(|e| e.kind == EventKind::Stalled)
        .expect("tail contains the Stalled event");
    assert_eq!(stalled.job_id, h.id());
    assert!(
        report.events.iter().any(|e| e.kind == EventKind::Running),
        "tail shows the run that froze"
    );
    let snap = svc.metrics_snapshot();
    assert_eq!(*snap.values.counters.get("serve.jobs.stalled").unwrap(), 1);
}

/// Instrumentation is outside the byte-identity contract: with the
/// event ring, an NDJSON sink, and a caller observer all attached, the
/// summary is still byte-identical to a bare direct run — at 1 and 4
/// workers.
#[test]
fn instrumentation_never_perturbs_byte_identity() {
    let g = graph();
    let alg = algorithm(11);
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0, 7]);
    let direct: &dyn Summarizer = &*alg;
    let clean = direct.run(&g, &req).expect("direct run");

    let dir = std::env::temp_dir().join(format!("pgs-observe-ident-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for workers in [1usize, 4] {
        let svc = SummaryService::new(
            Arc::clone(&g),
            alg.clone(),
            ServiceConfig {
                workers,
                event_capacity: 512,
                events_path: Some(dir.join(format!("events-{workers}.ndjson"))),
                ..Default::default()
            },
        );
        let observed = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&observed);
        let instrumented = req.clone().observer(move |_| {
            seen.store(true, Ordering::Relaxed);
        });
        let out = svc
            .submit(SubmitRequest::new("alice", instrumented))
            .expect("admitted")
            .wait()
            .expect("run");
        assert_eq!(out.stop, clean.stop);
        assert_identical(&clean.summary, &out.summary, &format!("workers={workers}"));
        assert!(
            observed.load(Ordering::Relaxed),
            "caller observer still fires behind the metrics wrapper"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
