//! The `PgsError` surface: public calls across core, baselines and
//! serve produce every variant, and each variant renders a non-empty
//! `Display` message unlike every other variant's. `variants!` names
//! each variant in a `match` with no `_` arm, so a new variant does not
//! compile here until it is named, and once named it fails the test
//! until a public call below produces it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pegasus_summary::prelude::*;
use pegasus_summary::serve::{JobRecord, JobStatus, Journal};

macro_rules! variants {
    ($($pat:pat => $name:literal,)*) => {
        /// Every variant's name, in declaration order.
        const VARIANTS: &[&str] = &[$($name),*];

        /// The name of `e`'s variant.
        fn variant(e: &PgsError) -> &'static str {
            match e {
                $($pat => $name,)*
            }
        }
    };
}

variants! {
    PgsError::EmptyGraph => "EmptyGraph",
    PgsError::InvalidBudgetBits(_) => "InvalidBudgetBits",
    PgsError::InvalidBudgetRatio(_) => "InvalidBudgetRatio",
    PgsError::ZeroSupernodeBudget => "ZeroSupernodeBudget",
    PgsError::TargetOutOfRange { .. } => "TargetOutOfRange",
    PgsError::EmptyTargets => "EmptyTargets",
    PgsError::InvalidAlpha(_) => "InvalidAlpha",
    PgsError::InvalidBeta(_) => "InvalidBeta",
    PgsError::WeightLengthMismatch { .. } => "WeightLengthMismatch",
    PgsError::NodeCountMismatch { .. } => "NodeCountMismatch",
    PgsError::Unsupported { .. } => "Unsupported",
    PgsError::RunPanicked => "RunPanicked",
    PgsError::Overloaded { .. } => "Overloaded",
    PgsError::CheckpointInvalid { .. } => "CheckpointInvalid",
    PgsError::Quarantined { .. } => "Quarantined",
}

fn ratio() -> SummarizeRequest {
    SummarizeRequest::new(Budget::Ratio(0.5))
}

/// Invalid requests to the core summarizers and the baselines, and an
/// error evaluator given a summary of another graph.
fn request_errors() -> Vec<PgsError> {
    let g = barabasi_albert(60, 3, 7);
    let empty = GraphBuilder::new(0).build();
    let pegasus = Pegasus::default();
    let runs = [
        pegasus.run(&empty, &ratio()),
        pegasus.run(&g, &SummarizeRequest::new(Budget::Bits(-1.0))),
        KGrass::default().run(&g, &SummarizeRequest::new(Budget::Ratio(f64::NAN))),
        KGrass::default().run(&g, &SummarizeRequest::new(Budget::Supernodes(0))),
        pegasus.run(&g, &ratio().targets(&[1_000])),
        pegasus.run(
            &g,
            &ratio().personalization(Personalization::Targets(Vec::new())),
        ),
        Pegasus(PegasusConfig {
            alpha: 0.5,
            ..Default::default()
        })
        .run(&g, &ratio()),
        Pegasus(PegasusConfig {
            beta: 1.5,
            ..Default::default()
        })
        .run(&g, &ratio()),
        pegasus.run(&g, &ratio().weights(NodeWeights::uniform(5))),
        S2l::default().run(&g, &ratio().targets(&[0])),
        pegasus.run(&g, &ratio().resume_from(Arc::new(vec![0xde, 0xad]))),
    ];
    let other = Summary::new(30, (0..30).collect(), &[]);
    let mut errors: Vec<PgsError> = runs.into_iter().filter_map(Result::err).collect();
    errors.extend(reconstruction_error(&g, &other).err());
    errors
}

/// A summarizer whose every run panics.
struct Panics;

impl Summarizer for Panics {
    fn name(&self) -> &'static str {
        "panics"
    }

    fn run(&self, _g: &Graph, _req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        panic!("injected: a run that always panics");
    }
}

/// Errors the service returns from `submit` and `wait`: a run that
/// panics, a full tenant queue and a quarantined durable key.
fn service_errors() -> Vec<PgsError> {
    let g = Arc::new(barabasi_albert(200, 3, 7));
    let mut errors = Vec::new();

    let svc = SummaryService::new(Arc::clone(&g), Arc::new(Panics), ServiceConfig::default());
    let h = svc.submit(SubmitRequest::new("t", ratio().targets(&[0])));
    errors.extend(h.and_then(|h| h.wait()).err());

    // One worker held inside its first iteration and a tenant queue of
    // depth 1: the second queued submission is refused.
    let svc = SummaryService::new(
        Arc::clone(&g),
        Arc::new(Pegasus::default()),
        ServiceConfig {
            workers: 1,
            tenant_queue_depth: 1,
            ..Default::default()
        },
    );
    let open = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&open);
    let blocker = ratio().targets(&[0]).observer(move |_| {
        while !gate.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let running = svc
        .submit(SubmitRequest::new("t", blocker))
        .expect("admitted");
    while running.poll() != JobStatus::Running {
        assert_ne!(running.poll(), JobStatus::Done, "blocker finished early");
        std::thread::sleep(Duration::from_millis(1));
    }
    let queued = svc
        .submit(SubmitRequest::new("t", ratio().targets(&[1])))
        .expect("fills the tenant queue");
    errors.extend(
        svc.submit(SubmitRequest::new("t", ratio().targets(&[2])))
            .err(),
    );
    open.store(true, Ordering::Release);
    for h in [running, queued] {
        h.wait().expect("admitted work completes");
    }

    // A journal record that exhausted its attempts across restarts
    // quarantines its key at startup.
    let dir = std::env::temp_dir().join(format!("pgs-error-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rec = JobRecord {
        tenant: "t".into(),
        key: "poison".into(),
        priority: 0,
        seq: 0,
        attempts: 7,
        budget: Budget::Ratio(0.5),
        personalization: Personalization::Targets(vec![0]),
        deadline: None,
    };
    Journal::new(&dir)
        .append(&rec, false)
        .expect("writes the record");
    let svc = SummaryService::new(
        g,
        Arc::new(Pegasus::default()),
        ServiceConfig {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        },
    );
    let durable = SubmitRequest::new("t", ratio().targets(&[0])).durable("poison");
    errors.extend(svc.submit(durable).err());
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    errors
}

#[test]
fn every_variant_is_produced_and_renders_a_distinct_message() {
    let mut messages: BTreeMap<&str, String> = BTreeMap::new();
    for e in request_errors().into_iter().chain(service_errors()) {
        messages.entry(variant(&e)).or_insert_with(|| e.to_string());
    }
    let missing: Vec<&&str> = VARIANTS
        .iter()
        .filter(|v| !messages.contains_key(*v))
        .collect();
    assert!(missing.is_empty(), "no public call produced {missing:?}");

    for (name, msg) in &messages {
        assert!(!msg.trim().is_empty(), "{name} renders an empty message");
    }
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    for (name, msg) in &messages {
        if let Some(other) = seen.insert(msg.as_str(), name) {
            panic!("{name} and {other} render the same message: {msg:?}");
        }
    }
}
