//! Admission-journal lifecycle edge cases (DESIGN.md §12): poisoned
//! records quarantine instead of replaying, torn (half-written) records
//! are discarded rather than crashing recovery, and rejected
//! submissions never leave orphan records behind.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pgs_core::api::{
    Budget, Pegasus, Personalization, PgsError, RunOutput, StopReason, SummarizeRequest, Summarizer,
};
use pgs_core::pegasus::PegasusConfig;
use pgs_core::FaultPlan;
use pgs_graph::gen::planted_partition;
use pgs_graph::Graph;
use pgs_observe::EventKind;
use pgs_serve::{
    JobRecord, JobStatus, Journal, ServiceConfig, SubmitRequest, SummaryHandle, SummaryService,
};

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pgs-journal-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        retry_budget: 1,
        retry_backoff: Duration::from_millis(1),
        checkpoint_every: 1,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..Default::default()
    }
}

fn job_files(dir: &Path) -> usize {
    match fs::read_dir(dir.join("journal")) {
        Ok(entries) => entries
            .flatten()
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("job"))
            .count(),
        Err(_) => 0,
    }
}

fn blocker(gate: &Arc<AtomicBool>, cancel: &Arc<AtomicBool>) -> SummarizeRequest {
    let gate = Arc::clone(gate);
    let seen = Arc::clone(cancel);
    SummarizeRequest::new(Budget::Ratio(0.4))
        .targets(&[0])
        .cancel_flag(Arc::clone(cancel))
        .observer(move |_| {
            while !gate.load(Ordering::Acquire) && !seen.load(Ordering::Acquire) {
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

/// A record whose persisted attempt count shows the job dying over and
/// over is quarantined at startup — not replayed, not re-admittable —
/// and the quarantine survives further restarts until an operator
/// releases the key.
#[test]
fn high_attempt_record_is_quarantined_at_startup_until_released() {
    let g = graph();
    let dir = temp_dir("poison");
    // Fabricate the on-disk aftermath of a job that took the process
    // down seven times: no service ever saw this record being written.
    let journal = Journal::new(&dir);
    let rec = JobRecord {
        tenant: "t".into(),
        key: "poison".into(),
        priority: 0,
        seq: 0,
        attempts: 7,
        budget: Budget::Ratio(0.4),
        personalization: Personalization::Targets(vec![0]),
        deadline: None,
    };
    journal.append(&rec, false).expect("fabricated record");

    let svc = SummaryService::new(Arc::clone(&g), algorithm(1), config(&dir));
    assert!(
        svc.recovered_handles().is_empty(),
        "poisoned record must not replay"
    );
    assert_eq!(svc.quarantined_keys(), vec!["poison".to_string()]);
    let stats = svc.tenant_stats();
    let t = stats.iter().find(|s| s.tenant == "t").expect("tenant seen");
    assert_eq!(t.quarantined, 1);
    assert_eq!(job_files(&dir), 0, "record moved out of the live journal");
    // The counter and the event stream tell the same story as the
    // tenant's stats.
    let snap = svc.metrics_snapshot();
    assert_eq!(snap.values.counters.get("serve.jobs.quarantined"), Some(&1));
    let events: Vec<_> = svc
        .events_tail()
        .into_iter()
        .filter(|e| e.kind == EventKind::Quarantined)
        .collect();
    assert_eq!(events.len(), 1, "one quarantined event");
    assert_eq!(events[0].tenant, "t");
    assert_eq!(events[0].job_id, u64::MAX, "no job exists for the record");

    // Re-admission under the same durable key is refused outright.
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[0]);
    match svc.submit(SubmitRequest::new("t", req.clone()).durable("poison")) {
        Err(PgsError::Quarantined { key }) => assert_eq!(key, "poison"),
        Err(other) => panic!("expected Quarantined, got {other:?}"),
        Ok(_) => panic!("expected Quarantined, got an admitted handle"),
    }

    // The quarantine is durable: a fresh service over the same
    // directory still refuses the key.
    drop(svc);
    let svc2 = SummaryService::new(Arc::clone(&g), algorithm(1), config(&dir));
    assert_eq!(svc2.quarantined_keys(), vec!["poison".to_string()]);
    assert!(matches!(
        svc2.submit(SubmitRequest::new("t", req.clone()).durable("poison")),
        Err(PgsError::Quarantined { .. })
    ));

    // Operator release: the key is admittable again and completes.
    assert!(svc2.release_quarantined("poison"));
    assert!(
        !svc2.release_quarantined("poison"),
        "second release is a no-op"
    );
    let out = svc2
        .submit(SubmitRequest::new("t", req).durable("poison"))
        .expect("released key admitted")
        .wait()
        .expect("released key completes");
    assert_eq!(out.stop, StopReason::BudgetMet);
    let _ = fs::remove_dir_all(&dir);
}

/// A quarantine that cannot be written must not lose the job: with a
/// plain file squatting on `<dir>/quarantine`, the poisoned record
/// stays in the live journal (this process still refuses the key), and
/// once the obstruction is gone the next start quarantines it for good.
#[test]
fn failed_quarantine_write_keeps_the_live_record() {
    let g = graph();
    let dir = temp_dir("quarantine-blocked");
    let journal = Journal::new(&dir);
    let rec = JobRecord {
        tenant: "t".into(),
        key: "poison".into(),
        priority: 0,
        seq: 0,
        attempts: 7,
        budget: Budget::Ratio(0.4),
        personalization: Personalization::Targets(vec![0]),
        deadline: None,
    };
    journal.append(&rec, false).expect("fabricated record");
    let blocker = dir.join("quarantine");
    fs::write(&blocker, b"not a directory").expect("blocking file");

    let svc = SummaryService::new(Arc::clone(&g), algorithm(1), config(&dir));
    assert!(svc.recovered_handles().is_empty());
    assert_eq!(svc.quarantined_keys(), vec!["poison".to_string()]);
    assert_eq!(job_files(&dir), 1, "the unquarantined record stays live");
    drop(svc);

    fs::remove_file(&blocker).expect("unblock");
    let svc2 = SummaryService::new(Arc::clone(&g), algorithm(1), config(&dir));
    assert!(
        svc2.recovered_handles().is_empty(),
        "poisoned record must not replay"
    );
    assert_eq!(svc2.quarantined_keys(), vec!["poison".to_string()]);
    assert_eq!(job_files(&dir), 0, "record moved out of the live journal");
    assert_eq!(journal.quarantined().len(), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A crash between quarantine's write and its retire leaves the record
/// in both places. Replay skips the live copy of a quarantined key and
/// retires it, keeping the quarantine copy for forensics: the job is
/// never re-admitted.
#[test]
fn live_record_of_a_quarantined_key_is_retired_not_replayed() {
    let g = graph();
    let dir = temp_dir("quarantined-live");
    let journal = Journal::new(&dir);
    let rec = JobRecord {
        tenant: "d".into(),
        key: "cursed".into(),
        priority: 0,
        seq: 0,
        attempts: 1,
        budget: Budget::Ratio(0.4),
        personalization: Personalization::Targets(vec![3]),
        deadline: None,
    };
    journal.append(&rec, false).expect("fabricated record");
    journal.quarantine(&rec).expect("quarantine copy");
    journal.append(&rec, false).expect("live copy again");
    assert_eq!(job_files(&dir), 1);

    let svc = SummaryService::new(Arc::clone(&g), algorithm(1), config(&dir));
    assert!(
        svc.recovered_handles().is_empty(),
        "a quarantined key must not replay"
    );
    assert_eq!(svc.quarantined_keys(), vec!["cursed".to_string()]);
    assert_eq!(job_files(&dir), 0, "the live copy is retired");
    assert_eq!(journal.quarantined().len(), 1, "the quarantine copy stays");
    drop(svc);
    let _ = fs::remove_dir_all(&dir);
}

/// Panics on every call — a deterministically poisonous workload.
struct AlwaysPanics;

impl Summarizer for AlwaysPanics {
    fn name(&self) -> &'static str {
        "always-panics"
    }
    fn run(&self, _g: &Graph, _req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        panic!("injected: unrecoverable worker bug");
    }
}

/// A durable job that exhausts its in-process retry budget is
/// quarantined at completion time: the same key is refused immediately,
/// stays refused across a restart, and only an explicit release (plus a
/// healthier engine) lets it through.
#[test]
fn retries_exhausted_quarantines_the_durable_key() {
    let g = graph();
    let dir = temp_dir("exhausted");
    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[3]);

    let svc = SummaryService::new(Arc::clone(&g), Arc::new(AlwaysPanics), config(&dir));
    let out = svc
        .submit(SubmitRequest::new("d", req.clone()).durable("cursed"))
        .expect("admitted")
        .wait()
        .expect("degrades to a partial summary");
    assert_eq!(out.stop, StopReason::RetriesExhausted);
    assert_eq!(svc.quarantined_keys(), vec!["cursed".to_string()]);
    let stats = svc.tenant_stats();
    let d = stats.iter().find(|s| s.tenant == "d").expect("tenant seen");
    assert_eq!(d.quarantined, 1);
    assert!(matches!(
        svc.submit(SubmitRequest::new("d", req.clone()).durable("cursed")),
        Err(PgsError::Quarantined { .. })
    ));

    drop(svc);
    // Restart with a healthy engine: the quarantine still holds (the
    // key looked poisonous, and nothing has vouched for it since).
    let svc2 = SummaryService::new(Arc::clone(&g), algorithm(9), config(&dir));
    assert!(svc2.recovered_handles().is_empty());
    assert_eq!(svc2.quarantined_keys(), vec!["cursed".to_string()]);
    assert!(matches!(
        svc2.submit(SubmitRequest::new("d", req.clone()).durable("cursed")),
        Err(PgsError::Quarantined { .. })
    ));
    assert!(svc2.release_quarantined("cursed"));
    let out = svc2
        .submit(SubmitRequest::new("d", req).durable("cursed"))
        .expect("released")
        .wait()
        .expect("healthy engine finishes the released key");
    assert_eq!(out.stop, StopReason::BudgetMet);
    let _ = fs::remove_dir_all(&dir);
}

/// A torn (half-written) journal record — the write died mid-`write` —
/// is discarded at replay: recovery never panics, the intact neighbor
/// record replays normally, and the torn file is cleaned off disk.
#[test]
fn torn_journal_record_is_discarded_at_replay() {
    let g = graph();
    let alg = algorithm(21);
    let dir = temp_dir("torn");
    let good_req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[6]);
    let direct: &dyn Summarizer = &*alg;
    let clean = direct.run(&g, &good_req).expect("direct run");

    let svc = SummaryService::new(Arc::clone(&g), alg.clone(), config(&dir));
    // Occupy the worker so neither durable job starts running.
    let gate = Arc::new(AtomicBool::new(false));
    let cancel = Arc::new(AtomicBool::new(false));
    let b = svc
        .submit(SubmitRequest::new("gate", blocker(&gate, &cancel)))
        .expect("blocker admitted");
    spin_until_running(&b);
    // Job seq 1: its admission record is torn mid-write by the fault.
    let torn_plan = Arc::new(FaultPlan::new().torn_journal_write_at(1));
    svc.submit(
        SubmitRequest::new("t", good_req.clone().fault_plan(Arc::clone(&torn_plan)))
            .durable("torn-job"),
    )
    .expect("admitted — the tear is silent, like a real crash");
    assert_eq!(torn_plan.armed(), 0, "tear consumed at append time");
    // Job seq 2: a fully intact record.
    svc.submit(SubmitRequest::new("t", good_req.clone()).durable("good-job"))
        .expect("admitted");
    assert_eq!(job_files(&dir), 2, "both files exist, one half-written");
    svc.crash();

    let svc2 = SummaryService::new(Arc::clone(&g), alg.clone(), config(&dir));
    let recovered = svc2.recovered_handles();
    assert_eq!(recovered.len(), 1, "only the intact record replays");
    assert!(svc2.quarantined_keys().is_empty(), "torn != poisoned");
    let out = recovered[0].wait().expect("intact job finishes");
    assert_eq!(out.stop, StopReason::BudgetMet);
    assert_eq!(
        out.summary.supernode_of(0),
        clean.summary.supernode_of(0),
        "replayed from the intact record's own request"
    );
    for u in 0..clean.summary.num_nodes() as u32 {
        assert_eq!(
            clean.summary.supernode_of(u),
            out.summary.supernode_of(u),
            "node {u}"
        );
    }
    drop(svc2);
    assert_eq!(job_files(&dir), 0, "torn file scrubbed, good file retired");
    let _ = fs::remove_dir_all(&dir);
}

/// Admission rejections retire their journal record immediately: a
/// durable submission bounced by the queue-depth cap leaves nothing on
/// disk, so a later restart cannot resurrect a job the caller was told
/// was never accepted.
#[test]
fn rejected_submission_leaves_no_orphan_record() {
    let g = graph();
    let alg = algorithm(27);
    let dir = temp_dir("orphan");
    let cfg = ServiceConfig {
        tenant_queue_depth: 1,
        ..config(&dir)
    };
    let svc = SummaryService::new(Arc::clone(&g), alg.clone(), cfg);
    let gate = Arc::new(AtomicBool::new(false));
    let cancel = Arc::new(AtomicBool::new(false));
    let b = svc
        .submit(SubmitRequest::new("a", blocker(&gate, &cancel)))
        .expect("blocker admitted");
    spin_until_running(&b);

    let req = SummarizeRequest::new(Budget::Ratio(0.4)).targets(&[2]);
    let kept = svc
        .submit(SubmitRequest::new("a", req.clone()).durable("k1"))
        .expect("fills the tenant queue");
    assert_eq!(job_files(&dir), 1);
    // Queue full: this admission is refused — its record must not
    // outlive the rejection.
    assert!(matches!(
        svc.submit(SubmitRequest::new("a", req.clone()).durable("k2")),
        Err(PgsError::Overloaded { .. })
    ));
    assert_eq!(job_files(&dir), 1, "only the admitted job is journaled");

    gate.store(true, Ordering::Release);
    assert_eq!(
        kept.wait().expect("queued job runs").stop,
        StopReason::BudgetMet
    );
    drop(svc);
    assert_eq!(job_files(&dir), 0, "nothing left to replay");
    // A restart finds a genuinely empty journal.
    let svc2 = SummaryService::new(Arc::clone(&g), alg, config(&dir));
    assert!(svc2.recovered_handles().is_empty());
    let _ = fs::remove_dir_all(&dir);
}
