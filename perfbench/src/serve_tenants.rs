//! `serve-tenants`: the multi-tenant `SummaryService` under independent
//! users. The only workload that reaches admission, queueing, the
//! weight cache and persistence; it runs the engine as many small
//! single-thread jobs with durable checkpoints.
//!
//! Sixteen tenants share a social graph (the LA stand-in's generator at
//! half size, reseeded). Eight sweep tenants reuse one target set
//! across the budget ratios and hit the weight cache after their first
//! job; eight explore tenants send a fresh set every time, miss, and
//! pay the BFS on the submit path. Every job carries a durable key, so
//! it journals at submit and at pickup and checkpoints into a directory
//! inside the checkout.
//!
//! Phase 1 is an open loop: jobs arrive on a seeded jittered schedule
//! at about a quarter of the drain capacity, each timed from when it
//! was due, and each handle is dropped once its result is read. Phase 2 is
//! a burst submitted at once whose handles are held until the queue
//! drains. Outputs are checked after the drain, so no check competes
//! with a running job for the CPU.

use std::fs;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pgs_core::pegasus::RunStats;
use pgs_core::{Budget, Pegasus, PgsError, RunOutput, SummarizeRequest, Summarizer};
use pgs_graph::{Graph, NodeId};
use pgs_serve::{
    JobTimings, MetricsSnapshot, ServiceConfig, SharedSummarizer, SubmitRequest, SummaryService,
};

use crate::common::{self, Ctx, EngineWork};
use crate::inputs::{Schedule, ScheduleShape};
use crate::report::{Checks, Report, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile, supports_p90, tail};
use crate::sys::{self, CpuTimes};
use crate::trace::Tracer;

/// Loads per set-up; the load takes a few ms, so many repetitions.
const LOAD_REPS: usize = 31;
/// Service constructions per set-up.
const SERVICE_REPS: usize = 5;
/// Service workers; each job runs the engine on one thread.
const WORKERS: usize = 2;
/// Phase-1 arrival rate, jobs per second: about a quarter of the drain
/// rate. At half of it, on a shared 2-vCPU VM whose speed drifts by a
/// fifth over minutes, slow spells pushed the queue into second-long
/// waits.
const RATE: f64 = 4.0;
/// Phase-1 jobs at least: enough for a p90 with ten samples beyond it.
const MIN_OPEN_JOBS: usize = 100;
/// Phase-2 jobs: about ten seconds of drain, so that the drain rate
/// averages over more than a short slow spell.
const BURST_JOBS: usize = 160;
/// Iterations between durable checkpoints. Every fsync goes to the
/// disk holding the checkout; on a shared 2-vCPU VM with a virtio disk,
/// checkpointing every iteration let flush latency swing the p50 by a
/// fifth between runs.
const CHECKPOINT_EVERY: u64 = 4;
/// Delay from starting the phase-1 clock to the first due time.
const LEAD: Duration = Duration::from_millis(50);

fn shape(seconds: f64) -> ScheduleShape {
    ScheduleShape {
        sweep_tenants: 8,
        explore_tenants: 8,
        targets: 10,
        open_jobs: ((seconds * RATE).round() as usize).max(MIN_OPEN_JOBS),
        rate: RATE,
        burst_jobs: BURST_JOBS,
    }
}

fn config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServiceConfig::default()
    }
}

/// One engine run as seen from inside the worker.
#[derive(Clone, Copy)]
struct EngineRun {
    start: Instant,
    end: Instant,
    stats: RunStats,
}

/// PeGaSus behind a recorder: the service calls `run` on its worker
/// thread, and the recorder keeps that call's interval and stats.
struct TracedPegasus {
    inner: Pegasus,
    runs: Mutex<Vec<EngineRun>>,
}

impl Summarizer for TracedPegasus {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn personalization_alpha(&self) -> Option<f64> {
        self.inner.personalization_alpha()
    }

    fn run(&self, g: &Graph, req: &SummarizeRequest) -> Result<RunOutput, PgsError> {
        let start = Instant::now();
        let out = self.inner.run(g, req);
        let end = Instant::now();
        if let Ok(o) = &out {
            self.runs
                .lock()
                .expect("recorder lock poisoned")
                .push(EngineRun {
                    start,
                    end,
                    stats: o.stats,
                });
        }
        out
    }
}

/// Whether two runs reported identical statistics (phase times are
/// wall-clock readings, so equality identifies the run).
fn same_run(a: &RunStats, b: &RunStats) -> bool {
    a.evals == b.evals
        && a.merges == b.merges
        && a.iterations == b.iterations
        && a.phases == b.phases
}

/// What the benchmark observed of one job.
struct JobObs {
    /// Index into the schedule.
    index: usize,
    /// A phase-2 (burst) job.
    burst: bool,
    /// When the job was due (the burst start for phase-2 jobs).
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    /// When the benchmark read the result.
    done: Instant,
    timings: Option<JobTimings>,
    stats: Option<RunStats>,
    fault: Option<String>,
    quality: Option<f64>,
}

/// One pass over the schedule against a fresh service.
struct Pass {
    jobs: Vec<JobObs>,
    drain_s: f64,
    snapshot: MetricsSnapshot,
    /// Tenant totals: errors, rejected, shed, retries.
    tenant_faults: [u64; 4],
    leftover: Vec<String>,
    engine_runs: Vec<EngineRun>,
}

impl Pass {
    /// Phase-1 jobs that ran.
    fn open(&self) -> impl Iterator<Item = &JobObs> {
        self.jobs.iter().filter(|j| j.timings.is_some() && !j.burst)
    }

    fn open_latencies(&self) -> Vec<f64> {
        self.open().map(JobObs::latency_s).collect()
    }
}

impl JobObs {
    fn latency_s(&self) -> f64 {
        (self.done - self.due).as_secs_f64()
    }
}

/// A submission as the generator saw it.
#[derive(Clone, Copy)]
struct Submitted {
    index: usize,
    due: Instant,
    start: Instant,
    end: Instant,
}

/// A finished job before its checks: the submission, when the
/// benchmark read the result, the handle's timings, and the result.
type Finished = (
    Submitted,
    Instant,
    Option<JobTimings>,
    Result<RunOutput, PgsError>,
);

/// Checks a finished job and records what the benchmark saw of it.
fn observe(
    g: &Graph,
    sched: &Schedule,
    targets: &[Vec<NodeId>],
    sub: Submitted,
    done: Instant,
    timings: Option<JobTimings>,
    out: Result<RunOutput, PgsError>,
) -> JobObs {
    let index = sub.index;
    let budget_bits = sched.jobs[index].ratio * g.size_bits();
    let (stats, fault, quality) = match out {
        Ok(out) => match common::summary_fault(&out, budget_bits) {
            Some(f) => (Some(out.stats), Some(f), None),
            None => match common::quality_error(g, &out.summary, &targets[index]) {
                Ok(q) => (Some(out.stats), None, Some(q)),
                Err(e) => (Some(out.stats), Some(e), None),
            },
        },
        Err(e) => (None, Some(e.to_string()), None),
    };
    JobObs {
        index,
        burst: sched.jobs[index].burst,
        due: sub.due,
        submit_start: sub.start,
        submit_end: sub.end,
        done,
        timings,
        stats,
        fault,
        quality,
    }
}

fn submit_request(sched: &Schedule, index: usize, targets: &[NodeId]) -> SubmitRequest {
    let spec = &sched.jobs[index];
    let kind = if spec.tenant < 8 { "sweep" } else { "explore" };
    let req = SummarizeRequest::new(Budget::Ratio(spec.ratio)).targets(targets);
    SubmitRequest::new(format!("{kind}-{}", spec.tenant), req).durable(format!("job-{index}"))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Every regular file left under `dir`.
fn files_under(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            out.extend(files_under(&p));
        } else {
            out.push(p.display().to_string());
        }
    }
    out
}

/// Runs the schedule against a fresh service with its durable state
/// in `dir`. `between_phases` runs once every phase-1 job has finished
/// and before the burst, while the service is idle.
fn pass(
    g: &Arc<Graph>,
    sched: &Schedule,
    targets: &[Vec<NodeId>],
    dir: &Path,
    traced: bool,
    between_phases: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let recorder = traced.then(|| {
        Arc::new(TracedPegasus {
            inner: common::pegasus(1),
            runs: Mutex::new(Vec::new()),
        })
    });
    let algorithm: SharedSummarizer = match &recorder {
        Some(r) => Arc::clone(r) as SharedSummarizer,
        None => Arc::new(common::pegasus(1)),
    };
    let svc = SummaryService::new(Arc::clone(g), algorithm, config(dir));
    let finished: Mutex<Vec<Finished>> = Mutex::new(Vec::new());
    let push = |f: Finished| finished.lock().expect("job log lock poisoned").push(f);

    // Phase 1: open loop. A waiter thread per job reads its result and
    // drops the handle.
    let start = Instant::now() + LEAD;
    std::thread::scope(|scope| {
        for (i, spec) in sched.jobs.iter().enumerate().filter(|(_, j)| !j.burst) {
            let due = start + Duration::from_secs_f64(spec.due_s);
            sleep_until(due);
            let req = submit_request(sched, i, &targets[i]);
            let start = Instant::now();
            let res = svc.submit(req);
            let sub = Submitted {
                index: i,
                due,
                start,
                end: Instant::now(),
            };
            match res {
                Ok(h) => {
                    let push = &push;
                    scope.spawn(move || {
                        let out = h.wait();
                        let done = Instant::now();
                        let timings = h.timings();
                        drop(h);
                        push((sub, done, timings, out));
                    });
                }
                Err(e) => push((sub, sub.end, None, Err(e))),
            }
        }
    });

    // Every phase-1 job has finished: the service is idle.
    between_phases()?;

    // Phase 2: the burst, handles held until the queue drains.
    let b0 = Instant::now();
    let held: Vec<_> = sched
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.burst)
        .map(|(i, _)| {
            let req = submit_request(sched, i, &targets[i]);
            let start = Instant::now();
            let res = svc.submit(req);
            let sub = Submitted {
                index: i,
                due: b0,
                start,
                end: Instant::now(),
            };
            (sub, res)
        })
        .collect();
    let mut outs = Vec::with_capacity(held.len());
    for (_, res) in &held {
        outs.push(match res {
            Ok(h) => (h.wait(), Instant::now(), h.timings()),
            Err(e) => (Err(e.clone()), b0, None),
        });
    }
    let drain_s = b0.elapsed().as_secs_f64();
    for ((sub, _), (out, done, timings)) in held.iter().zip(outs) {
        push((*sub, done, timings, out));
    }

    let snapshot = svc.metrics_snapshot();
    let mut tenant_faults = [0u64; 4];
    for t in svc.tenant_stats() {
        tenant_faults[0] += t.errors;
        tenant_faults[1] += t.rejected + t.breaker_rejected;
        tenant_faults[2] += t.shed;
        tenant_faults[3] += t.retries;
    }
    drop(held);
    drop(svc);
    let engine_runs = recorder.map_or_else(Vec::new, |r| {
        std::mem::take(&mut *r.runs.lock().expect("recorder lock poisoned"))
    });
    let mut jobs: Vec<JobObs> = finished
        .into_inner()
        .expect("job log lock poisoned")
        .into_iter()
        .map(|(sub, done, timings, out)| observe(g, sched, targets, sub, done, timings, out))
        .collect();
    jobs.sort_by_key(|j| j.index);
    Ok(Pass {
        jobs,
        drain_s,
        snapshot,
        tenant_faults,
        leftover: files_under(dir),
        engine_runs,
    })
}

/// Checks one pass: every job met its budget, nothing was refused or
/// lost, the cache hit exactly as designed, the live counters equal the
/// benchmark's own sums, and no journal record or checkpoint outlived
/// its job. Returns `(attempted, failed, engine work)`.
fn check_pass(
    p: &Pass,
    sched: &Schedule,
    tag: &str,
    checks: &mut Checks,
) -> (u64, u64, EngineWork) {
    let attempted = sched.jobs.len() as u64;
    let mut work = EngineWork::default();
    let mut failed = attempted - p.jobs.len() as u64;
    for j in &p.jobs {
        if let Some(s) = &j.stats {
            work.add(s);
        }
        if let Some(f) = &j.fault {
            failed += 1;
            checks.fail(format!("{tag} job {}: {f}", j.index));
        }
    }
    let [errors, rejected, shed, _] = p.tenant_faults;
    checks.expect(errors == 0 && rejected == 0 && shed == 0, || {
        format!("{tag}: {errors} errors, {rejected} rejections, {shed} sheds")
    });
    let (hits, misses) = (sched.designed_hits(), sched.designed_misses());
    let cache = &p.snapshot.cache;
    checks.expect(cache.hits == hits && cache.misses == misses, || {
        format!(
            "{tag}: cache {}/{} hits/misses, designed {hits}/{misses}",
            cache.hits, cache.misses
        )
    });
    // Live metrics against outside measurement: the registry's
    // counters must equal the sums over handles and RunStats.
    let counters = &p.snapshot.values.counters;
    for (name, own) in [
        ("engine.evals", work.evals),
        ("engine.merges", work.merges),
        ("serve.jobs.submitted", attempted),
        ("serve.jobs.completed", attempted),
        ("serve.cache.hits", hits),
        ("serve.cache.misses", misses),
    ] {
        let live = counters.get(name).copied().unwrap_or(0);
        checks.expect(live == own, || {
            format!("{tag}: live {name} = {live}, measured {own}")
        });
    }
    checks.expect(p.leftover.is_empty(), || {
        format!("{tag}: records left after the drain: {:?}", p.leftover)
    });
    (attempted, failed, work)
}

/// One traced job's spans in tracer seconds, laid end to end inside
/// the op: the submit call, the queue wait (empty when the job did not
/// wait) and the worker's hold on the job.
#[derive(Debug, PartialEq)]
struct JobSpans {
    submit: (f64, f64),
    wait: (f64, f64),
    run: (f64, f64),
}

/// Lays out one job's spans from the submit call's interval, the
/// handle's wait and run times, when the engine started, and when the
/// result was read. The worker picked the job up `wait_s` after it
/// became ready inside the submit call, and no later than the engine
/// started. The worker can pick the job up before the call returns;
/// the rest of the call then runs alongside the job, off the op's
/// critical path, so the submit span ends at the pickup.
fn job_spans(
    submit: (f64, f64),
    wait_s: f64,
    run_s: f64,
    engine_start: f64,
    done: f64,
) -> JobSpans {
    let pickup = (submit.1 + wait_s).min(engine_start);
    let submit_end = submit.1.min(pickup);
    let wait_start = (pickup - wait_s).max(submit_end);
    JobSpans {
        submit: (submit.0, submit_end),
        wait: (wait_start, pickup),
        run: (pickup, (pickup + run_s).min(done)),
    }
}

/// Builds the span tree of every traced phase-1 job: the submit call,
/// the queue wait and worker time from the handle's timings, and the
/// engine run the recorder saw on the worker. Every recorded engine run
/// must belong to exactly one job.
fn trace_jobs(p: &Pass, tracer: &mut Tracer, checks: &mut Checks) {
    let mut pool = p.engine_runs.clone();
    let mut take = |stats: &RunStats| {
        let k = pool.iter().position(|r| same_run(&r.stats, stats))?;
        Some(pool.swap_remove(k))
    };
    for j in &p.jobs {
        let (Some(t), Some(stats)) = (j.timings, j.stats) else {
            continue;
        };
        let Some(run) = take(&stats) else {
            checks.fail(format!("traced job {}: no engine run recorded", j.index));
            continue;
        };
        if j.burst {
            continue;
        }
        let op = j.index as u32;
        let root = tracer.record("op", op, None, tracer.at(j.due), tracer.at(j.done));
        let s = job_spans(
            (tracer.at(j.submit_start), tracer.at(j.submit_end)),
            t.wait_secs,
            t.run_secs,
            tracer.at(run.start),
            tracer.at(j.done),
        );
        tracer.record("serve.submit", op, Some(root), s.submit.0, s.submit.1);
        if s.wait.1 > s.wait.0 {
            tracer.record("serve.wait", op, Some(root), s.wait.0, s.wait.1);
        }
        let worker = tracer.record("serve.run", op, Some(root), s.run.0, s.run.1);
        common::record_engine(tracer, worker, run.start, run.end, &run.stats);
    }
    checks.expect(pool.is_empty(), || {
        format!("{} engine runs matched no job", pool.len())
    });
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let cpu0 = CpuTimes::now();
    let loaded = common::load(ctx, LOAD_REPS)?;
    let mut load = loaded.load;
    let (g, ids) = (Arc::new(loaded.graph), loaded.ids);
    let mut new_s = Vec::with_capacity(SERVICE_REPS);
    for k in 0..SERVICE_REPS {
        let dir = ctx.work.join(format!("setup-{k}"));
        let t = Instant::now();
        let svc = SummaryService::new(Arc::clone(&g), Arc::new(common::pegasus(1)), config(&dir));
        new_s.push(t.elapsed().as_secs_f64());
        drop(svc);
    }
    let rss_setup = sys::rss_mib();

    let sched = Schedule::new(ctx.seed, ids.len(), shape(ctx.seconds));
    let targets: Vec<Vec<NodeId>> = sched
        .jobs
        .iter()
        .map(|j| ids.map(&j.targets))
        .collect::<Result<_, _>>()?;
    let mut checks = Checks::default();
    let mut values = Values::default();

    if !ctx.trace {
        let p = pass(
            &g,
            &sched,
            &targets,
            &ctx.work.join("durable"),
            false,
            &mut || load.sample(),
        )?;
        load.sample()?;
        let (attempted, failed, _) = check_pass(&p, &sched, "run", &mut checks);
        let lat = p.open_latencies();
        checks.expect(supports_p90(lat.len()), || {
            format!("{} phase-1 latencies cannot support a p90", lat.len())
        });
        let quality: Vec<f64> = p.jobs.iter().filter_map(|j| j.quality).collect();
        values.set("setup_s", load.median_s() + median(&new_s));
        values.set("op_p50_ms", median(&lat) * 1e3);
        values.set("op_p90_ms", quantile(&lat, 0.9) * 1e3);
        values.set("ops_per_s", BURST_JOBS as f64 / p.drain_s);
        values.set("peak_rss_mb", sys::peak_rss_mib());
        values.set(
            "quality_error",
            quality.iter().sum::<f64>() / quality.len() as f64,
        );
        let metrics = values.emit(END_TO_END, false, &mut checks);
        return Ok(Report {
            checks,
            attempted,
            failed,
            metrics,
        });
    }

    // Traced run: the schedule once untraced, then once against a
    // service whose engine calls are recorded.
    let plain = pass(
        &g,
        &sched,
        &targets,
        &ctx.work.join("durable-plain"),
        false,
        &mut || Ok(()),
    )?;
    let mut tracer = Tracer::new();
    let traced = pass(
        &g,
        &sched,
        &targets,
        &ctx.work.join("durable-traced"),
        true,
        &mut || Ok(()),
    )?;
    let (a1, f1, plain_work) = check_pass(&plain, &sched, "untraced", &mut checks);
    let (a2, f2, work) = check_pass(&traced, &sched, "traced", &mut checks);
    checks.expect(plain_work.counts() == work.counts(), || {
        format!(
            "traced engine work {:?} differs from untraced {:?}",
            work.counts(),
            plain_work.counts()
        )
    });
    trace_jobs(&traced, &mut tracer, &mut checks);
    let spans = tracer.spans();
    common::check_closure(&mut checks, spans);

    let ms = |xs: Vec<f64>| xs.into_iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    let submit = |hit: Option<bool>| {
        ms(traced
            .jobs
            .iter()
            .filter(|j| hit.is_none_or(|h| sched.jobs[j.index].cache_hit == h))
            .map(|j| (j.submit_end - j.submit_start).as_secs_f64())
            .collect())
    };
    let open_t: Vec<JobTimings> = traced.open().filter_map(|j| j.timings).collect();
    let wait = ms(open_t.iter().map(|t| t.wait_secs).collect());
    let all_t: Vec<JobTimings> = traced.jobs.iter().filter_map(|j| j.timings).collect();
    let run_s: Vec<f64> = all_t.iter().map(|t| t.run_secs).collect();
    let late = ms(traced
        .open()
        .map(|j| (j.submit_start - j.due).as_secs_f64())
        .collect());
    let cache = &traced.snapshot.cache;

    values.set("graph.load_ms", load.median_s() * 1e3);
    common::emit_engine(&mut values, spans, &work);
    common::emit_memory(&mut values, &g, rss_setup);
    let all = submit(None);
    values.set("serve.submit_ms", median(&all));
    values.set("serve.submit_p90_ms", quantile(&all, 0.9));
    let hit = submit(Some(true));
    values.set("serve.submit_hit_ms", median(&hit));
    values.set("serve.submit_hit_tail_ms", tail(&hit));
    let miss = submit(Some(false));
    values.set("serve.submit_miss_ms", median(&miss));
    values.set("serve.submit_miss_tail_ms", tail(&miss));
    values.set("serve.wait_ms", median(&wait));
    values.set("serve.wait_p90_ms", quantile(&wait, 0.9));
    values.set("serve.run_ms", median(&run_s) * 1e3);
    values.set(
        "serve.other_frac",
        1.0 - work.phases_s / run_s.iter().sum::<f64>(),
    );
    values.set(
        "serve.cache_hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    values.set("serve.checkpoints", work.checkpoints as f64);
    values.set("serve.checkpoint_failures", work.checkpoint_failures as f64);
    let [errors, rejected, shed, retried] = traced.tenant_faults;
    values.set("serve.errors", errors as f64);
    values.set("serve.rejected", rejected as f64);
    values.set("serve.shed", shed as f64);
    values.set("serve.retried", retried as f64);
    values.set("bench.late_ms", quantile(&late, 0.9));
    let overhead = median(&traced.open_latencies()) / median(&plain.open_latencies()) - 1.0;
    common::emit_bench(&mut values, spans, &cpu0, overhead);
    let metrics = values.emit(PER_LAYER, true, &mut checks);
    Ok(Report {
        checks,
        attempted: a1 + a2,
        failed: f1 + f2,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    /// Records a job's spans under a root from `due` to `done`, with an
    /// engine run inside the worker span, and returns the op's wall time
    /// and the sum of its self times.
    fn closure_of(due: f64, done: f64, s: &JobSpans, engine: (f64, f64)) -> (f64, f64) {
        let mut t = Tracer::new();
        let root = t.record("op", 0, None, due, done);
        t.record("serve.submit", 0, Some(root), s.submit.0, s.submit.1);
        if s.wait.1 > s.wait.0 {
            t.record("serve.wait", 0, Some(root), s.wait.0, s.wait.1);
        }
        let worker = t.record("serve.run", 0, Some(root), s.run.0, s.run.1);
        t.record("engine.run", 0, Some(worker), engine.0, engine.1);
        let (_, wall, sum) = trace::closure(t.spans())[0];
        (wall, sum)
    }

    #[test]
    fn a_queued_job_waits_between_submit_and_run() {
        // Ready at 1.000 in a call of [0.999, 1.001]; picked up 50 ms
        // later; the engine ran [1.051, 1.150]; read at 1.152.
        let s = job_spans((0.999, 1.001), 0.050, 0.1, 1.051, 1.152);
        assert_eq!(s.submit, (0.999, 1.001));
        assert!((s.wait.0 - 1.001).abs() < 1e-12 && (s.wait.1 - 1.051).abs() < 1e-12);
        assert_eq!(s.run, (s.wait.1, s.wait.1 + 0.1));
        let (wall, sum) = closure_of(0.999, 1.152, &s, (1.051, 1.150));
        assert!((sum - wall).abs() < 1e-12, "{sum} against {wall}");
    }

    #[test]
    fn a_job_picked_up_before_submit_returns_keeps_its_spans_disjoint() {
        // Ready at 1.000 in a call of [0.999, 1.010]: the worker took
        // the job 2 ms after it became ready and started the engine at
        // 1.003, while the call still ran for 7 ms.
        let s = job_spans((0.999, 1.010), 0.002, 0.1, 1.003, 1.104);
        assert_eq!(s.submit, (0.999, 1.003));
        assert!(s.wait.1 <= s.wait.0, "no wait after the pickup");
        assert_eq!(s.run, (1.003, 1.103));
        let (wall, sum) = closure_of(0.999, 1.104, &s, (1.003, 1.102));
        assert!((sum - wall).abs() < 1e-12, "{sum} against {wall}");
    }
}
