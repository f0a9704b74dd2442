//! `summarize-ba`: offline personalized summarization in the paper's
//! scalability setting (Sect. V-C). Each op is one `Pegasus::run` on a
//! 200k-node Barabási–Albert graph at ratio 0.25, personalized to a
//! fresh seeded set of 10 targets, on 2 threads. Stresses the weight
//! BFS and every engine phase; bypasses the service and the queries.

use std::time::Instant;

use pgs_core::pegasus::RunStats;
use pgs_core::{Budget, NodeWeights, PgsError, RunOutput, SummarizeRequest, Summarizer};
use pgs_graph::{Graph, NodeId};

use crate::common::{self, Ctx, EngineWork, ALPHA};
use crate::inputs::{draw_ids, stream, IdMap};
use crate::report::{Checks, Report, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};
use crate::sys::{self, CpuTimes};
use crate::trace::{self, Tracer};

/// Loads in each set-up process (see `common::load`); one takes about
/// a quarter of a second.
const LOAD_REPS: usize = 3;
/// Targets per op.
const TARGETS: usize = 10;
/// Budget as a compression ratio.
const RATIO: f64 = 0.25;
/// Evaluate threads.
const THREADS: usize = 2;
/// Seconds of `--seconds` per untraced + traced op pair in a traced
/// run. The pair count depends only on `--seconds`, so the traced
/// counts repeat exactly.
const TRACE_PAIR_S: f64 = 20.0;

fn targets(ctx: &Ctx, ids: &IdMap, op: u64) -> Result<Vec<NodeId>, String> {
    ids.map(&draw_ids(ctx.seed, stream::TARGETS, op, ids.len(), TARGETS))
}

fn request() -> SummarizeRequest {
    SummarizeRequest::new(Budget::Ratio(RATIO))
}

/// One untimed-checks op: the run and its wall time.
fn untraced_op(g: &Graph, t: &[NodeId]) -> (f64, Result<RunOutput, PgsError>) {
    let req = request().targets(t);
    let start = Instant::now();
    let out = common::pegasus(THREADS).run(g, &req);
    (start.elapsed().as_secs_f64(), out)
}

/// Checks a finished op. Returns its stats and quality error when it
/// counts, and records why when it does not.
fn judge(
    g: &Graph,
    t: &[NodeId],
    op: u64,
    out: Result<RunOutput, PgsError>,
    checks: &mut Checks,
) -> Option<(RunStats, f64)> {
    let budget_bits = RATIO * g.size_bits();
    let fault = match &out {
        Ok(out) => common::summary_fault(out, budget_bits),
        Err(e) => Some(e.to_string()),
    };
    if let Some(f) = fault {
        checks.fail(format!("op {op}: {f}"));
        return None;
    }
    let out = out.ok()?;
    match common::quality_error(g, &out.summary, t) {
        Ok(q) => Some((out.stats, q)),
        Err(e) => {
            checks.fail(format!("op {op}: quality: {e}"));
            None
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let cpu0 = CpuTimes::now();
    let mut loaded = common::load(ctx, LOAD_REPS)?;
    let rss_setup = sys::rss_mib();
    let g = &loaded.graph;
    let mut checks = Checks::default();
    let mut values = Values::default();
    let (mut attempted, mut failed) = (0u64, 0u64);

    if !ctx.trace {
        // Timed phase: the checks between ops are not timed.
        let (mut lat, mut quality) = (Vec::new(), Vec::new());
        while wants_another(&lat, ctx.seconds) {
            let op = attempted;
            let t = targets(ctx, &loaded.ids, op)?;
            let (wall, out) = untraced_op(g, &t);
            attempted += 1;
            lat.push(wall);
            loaded.load.sample()?;
            match judge(g, &t, op, out, &mut checks) {
                Some((s, q)) => {
                    eprintln!(
                        "op {op}: {wall:.3} s, {} evals, {} merges, {} iterations",
                        s.evals, s.merges, s.iterations
                    );
                    quality.push(q);
                }
                None => failed += 1,
            }
        }
        values.set("setup_s", loaded.load.median_s());
        values.set("op_p50_ms", median(&lat) * 1e3);
        values.set("op_p90_ms", quantile(&lat, 0.9) * 1e3);
        values.set("ops_per_s", lat.len() as f64 / lat.iter().sum::<f64>());
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

    // Traced run: each op runs untraced, then traced on the same
    // targets. The traced op resolves the weights first and runs with
    // them, so the BFS and the engine get separate spans.
    let pairs = ((ctx.seconds / TRACE_PAIR_S) as u64).max(1);
    let mut tracer = Tracer::new();
    let mut work = EngineWork::default();
    let (mut plain_lat, mut traced_lat) = (Vec::new(), Vec::new());
    for op in 0..pairs {
        let t = targets(ctx, &loaded.ids, op)?;
        let (wall, out) = untraced_op(g, &t);
        attempted += 1;
        plain_lat.push(wall);
        let plain = judge(g, &t, op, out, &mut checks);

        let start = Instant::now();
        let w = NodeWeights::personalized(g, &t, ALPHA);
        let bfs_end = Instant::now();
        let out = common::pegasus(THREADS).run(g, &request().weights(w));
        let end = Instant::now();
        attempted += 1;
        traced_lat.push((end - start).as_secs_f64());
        let root = tracer.record("op", op as u32, None, tracer.at(start), tracer.at(end));
        tracer.record(
            "weights.bfs",
            op as u32,
            Some(root),
            tracer.at(start),
            tracer.at(bfs_end),
        );
        if let Ok(out) = &out {
            common::record_engine(&mut tracer, root, bfs_end, end, &out.stats);
        }
        let traced = judge(g, &t, op, out, &mut checks);
        match (plain, traced) {
            (Some((ps, pq)), Some((ts, tq))) => {
                work.add(&ts);
                let (pc, tc) = (work_of(&ps).counts(), work_of(&ts).counts());
                checks.expect(pc == tc && pq == tq, || {
                    format!("op {op}: traced {tc:?}/{tq} differs from untraced {pc:?}/{pq}")
                });
            }
            (plain, traced) => failed += u64::from(plain.is_none()) + u64::from(traced.is_none()),
        }
    }

    let spans = tracer.spans();
    common::check_closure(&mut checks, spans);
    values.set("graph.load_ms", loaded.load.median_s() * 1e3);
    values.set("weights.bfs_ms", trace::median_ms(spans, "weights.bfs"));
    values.set(
        "weights.bfs_calls",
        trace::count(spans, "weights.bfs") as f64,
    );
    common::emit_engine(&mut values, spans, &work);
    common::emit_memory(&mut values, g, rss_setup);
    let overhead = median(&traced_lat) / median(&plain_lat) - 1.0;
    common::emit_bench(&mut values, spans, &cpu0, overhead);
    let metrics = values.emit(PER_LAYER, true, &mut checks);
    Ok(Report {
        checks,
        attempted,
        failed,
        metrics,
    })
}

/// Whether one more op brings the timed phase nearer to `seconds`: the
/// ops so far plus half a mean op still fall short of it.
fn wants_another(lat: &[f64], seconds: f64) -> bool {
    let sum: f64 = lat.iter().sum();
    lat.is_empty() || sum + 0.5 * sum / (lat.len() as f64) < seconds
}

fn work_of(stats: &RunStats) -> EngineWork {
    let mut w = EngineWork::default();
    w.add(stats);
    w
}
