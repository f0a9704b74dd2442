//! `query-cluster`: Alg. 3, communication-free multi-query answering
//! (the Fig. 12 setting). Set-up builds an 8-machine PeGaSus cluster
//! over a collaboration graph (the DB stand-in's generator parameters,
//! reseeded); each op answers one batch of seeded query nodes for RWR,
//! then PHP, then HOP, on one thread. The only workload whose timed ops
//! run the query layer; the engine runs only inside set-up.

use std::time::Instant;

use pgs_core::exec::Exec;
use pgs_core::{Budget, NodeWeights, PegasusConfig, SummarizeRequest, Summarizer};
use pgs_distributed::{Backend, BatchQuery, Cluster, MachineStore};
use pgs_graph::{Graph, NodeId};
use pgs_partition::Method;
use pgs_queries::{rwr_exact, smape, QueryEngine, PHP_DECAY, RWR_RESTART};

use crate::common::{self, Ctx, EngineWork, ALPHA};
use crate::inputs::{draw_ids, stream, IdMap, Rng};
use crate::report::{Checks, Report, Values, END_TO_END, PER_LAYER};
use crate::stats::{median, quantile};
use crate::sys::{self, CpuTimes};
use crate::trace::{self, Tracer};

/// Loads per set-up.
const LOAD_REPS: usize = 9;
/// Cluster builds per set-up; set-up time takes their median.
const BUILD_REPS: usize = 3;
/// Machines.
const MACHINES: usize = 8;
/// Per-machine budget as a share of the input's size in bits.
const MACHINE_RATIO: f64 = 0.4;
/// Threads for the cluster build.
const BUILD_THREADS: usize = 2;
/// Query nodes per batch.
const BATCH: usize = 4;
/// Untimed ops before timing starts.
const WARMUP_OPS: u64 = 3;
/// Timed ops at least, so the p90 has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Query nodes in the fixed quality sample.
const QUALITY_SAMPLE: usize = 8;
/// Untraced + traced op pairs per second of `--seconds` in a traced run
/// (fixed, so `queries.answered` repeats exactly).
const TRACE_PAIRS_PER_S: f64 = 1.5;

/// The three query types of one op, in the order they run.
const QUERIES: [(&str, BatchQuery); 3] = [
    ("queries.rwr", BatchQuery::Rwr(RWR_RESTART)),
    ("queries.php", BatchQuery::Php(PHP_DECAY)),
    ("queries.hop", BatchQuery::Hop),
];

fn engine_config(threads: usize) -> PegasusConfig {
    PegasusConfig {
        alpha: ALPHA,
        num_threads: threads,
        ..PegasusConfig::default()
    }
}

fn budget_bits(g: &Graph) -> f64 {
    MACHINE_RATIO * g.size_bits()
}

fn cluster_seed(ctx: &Ctx) -> u64 {
    Rng::new(ctx.seed, stream::GRAPH, 1).next_u64()
}

fn build(ctx: &Ctx, g: &Graph) -> Result<Cluster, String> {
    let backend = Backend::Pegasus(engine_config(BUILD_THREADS));
    Cluster::try_build(g, MACHINES, budget_bits(g), &backend, cluster_seed(ctx))
        .map_err(|e| format!("cluster build: {e}"))
}

fn batch(ctx: &Ctx, ids: &IdMap, stream: u64, index: u64, k: usize) -> Result<Vec<NodeId>, String> {
    ids.map(&draw_ids(ctx.seed, stream, index, ids.len(), k))
}

/// Checks one op's answers: RWR and PHP give |V| finite scores per
/// query, HOP gives |V| distances. Returns the answers that passed.
fn check_answers(n: usize, answers: &[Vec<Vec<f64>>; 3], op: u64, checks: &mut Checks) -> u64 {
    let mut ok = 0;
    for ((name, query), per_type) in QUERIES.iter().zip(answers) {
        for a in per_type {
            let finite = matches!(query, BatchQuery::Hop) || a.iter().all(|x| x.is_finite());
            if a.len() == n && finite {
                ok += 1;
            } else {
                checks.fail(format!(
                    "op {op}: {name} answer of {} entries is malformed",
                    a.len()
                ));
            }
        }
    }
    ok
}

/// One op: the batch through `query_batch` for each query type, each
/// call reported to `on_call` with its interval.
fn op(
    cluster: &Cluster,
    qs: &[NodeId],
    exec: &Exec,
    mut on_call: impl FnMut(&'static str, Instant, Instant),
) -> [Vec<Vec<f64>>; 3] {
    QUERIES.map(|(name, query)| {
        let start = Instant::now();
        let out = cluster.query_batch(qs, query, exec);
        on_call(name, start, Instant::now());
        out
    })
}

/// Mean RWR SMAPE of the cluster against exact RWR on a fixed sample.
fn quality(
    ctx: &Ctx,
    g: &Graph,
    ids: &IdMap,
    cluster: &Cluster,
    exec: &Exec,
) -> Result<f64, String> {
    let sample = batch(ctx, ids, stream::QUALITY, 0, QUALITY_SAMPLE)?;
    let approx = cluster.query_batch(&sample, BatchQuery::Rwr(RWR_RESTART), exec);
    let total: f64 = sample
        .iter()
        .zip(&approx)
        .map(|(&q, a)| smape(&rwr_exact(g, q, RWR_RESTART), a))
        .sum();
    Ok(total / sample.len() as f64)
}

/// Replays the cluster build standalone, one machine at a time, with a
/// span around each public call: the Louvain partition, each machine's
/// weight BFS and engine run, and each machine's query-plan compile.
/// Checks that the replay reproduces the cluster.
fn trace_setup(
    ctx: &Ctx,
    g: &Graph,
    cluster: &Cluster,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> EngineWork {
    let mut work = EngineWork::default();
    let op = u32::MAX;
    let start = Instant::now();
    let root = tracer.record("op", op, None, tracer.at(start), tracer.at(start));
    let span = |tracer: &mut Tracer, name, a: Instant, b: Instant| {
        tracer.record(name, op, Some(root), tracer.at(a), tracer.at(b))
    };

    let t = Instant::now();
    let part = Method::Louvain.partition(g, MACHINES, cluster_seed(ctx));
    span(tracer, "partition.louvain", t, Instant::now());
    checks.expect(
        part.iter()
            .enumerate()
            .all(|(u, &p)| cluster.route(u as NodeId) == p as usize),
        || "standalone Louvain partition differs from the cluster's routing".into(),
    );
    let mut subsets: Vec<Vec<NodeId>> = vec![Vec::new(); MACHINES];
    for (u, &p) in part.iter().enumerate() {
        subsets[p as usize].push(u as NodeId);
    }

    let engine = pgs_core::Pegasus(engine_config(1));
    for (i, subset) in subsets.iter().enumerate() {
        let t = Instant::now();
        let w = NodeWeights::personalized(g, subset, ALPHA);
        let bfs_end = Instant::now();
        span(tracer, "weights.bfs", t, bfs_end);
        let req = SummarizeRequest::new(Budget::Bits(budget_bits(g))).weights(w);
        let out = engine.run(g, &req);
        let end = Instant::now();
        match out {
            Ok(out) => {
                common::record_engine(tracer, root, bfs_end, end, &out.stats);
                work.add(&out.stats);
                let same = out.summary.size_bits() == cluster.machine(i).size_bits();
                checks.expect(same, || format!("machine {i}: standalone summary differs"));
            }
            Err(e) => checks.fail(format!("machine {i}: standalone run: {e}")),
        }
    }
    for i in 0..cluster.num_machines() {
        if let MachineStore::Summary(s) = cluster.machine(i) {
            let t = Instant::now();
            let plan = QueryEngine::new(s);
            span(tracer, "queries.plan", t, Instant::now());
            std::hint::black_box(&plan);
        }
    }
    tracer.close(root, tracer.at(Instant::now()));
    work
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let cpu0 = CpuTimes::now();
    let loaded = common::load(ctx, LOAD_REPS)?;
    let load_s = loaded.load.median_s();
    let g = &loaded.graph;
    let mut build_s = Vec::with_capacity(BUILD_REPS);
    let mut cluster = None;
    for _ in 0..BUILD_REPS {
        drop(cluster.take());
        let t = Instant::now();
        let c = build(ctx, g)?;
        build_s.push(t.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let cluster = cluster.ok_or("no cluster was built")?;
    let setup_s = load_s + median(&build_s);
    let rss_setup = sys::rss_mib();

    let n = g.num_nodes();
    let mut checks = Checks::default();
    let max_bits = cluster.max_machine_bits();
    checks.expect(max_bits <= budget_bits(g) * (1.0 + 1e-9), || {
        format!(
            "largest machine holds {max_bits:.0} bits, budget {:.0}",
            budget_bits(g)
        )
    });
    let exec = Exec::new(1);
    let queries = |i: u64| batch(ctx, &loaded.ids, stream::QUERIES, i, BATCH);
    for i in 0..WARMUP_OPS {
        std::hint::black_box(op(&cluster, &queries(i)?, &exec, |_, _, _| {}));
    }
    let mut values = Values::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut answered = 0u64;
    let mut judge = |answers: &[Vec<Vec<f64>>; 3], op: u64, checks: &mut Checks| {
        attempted += 1;
        let ok = check_answers(n, answers, op, checks);
        answered += ok;
        if ok != (3 * BATCH) as u64 {
            failed += 1;
        }
    };

    if !ctx.trace {
        let mut lat = Vec::new();
        let mut i = WARMUP_OPS;
        while lat.len() < MIN_OPS || lat.iter().sum::<f64>() < ctx.seconds {
            let qs = queries(i)?;
            let start = Instant::now();
            let answers = op(&cluster, &qs, &exec, |_, _, _| {});
            lat.push(start.elapsed().as_secs_f64());
            judge(&answers, i, &mut checks);
            i += 1;
        }
        values.set("setup_s", setup_s);
        values.set("op_p50_ms", median(&lat) * 1e3);
        values.set("op_p90_ms", quantile(&lat, 0.9) * 1e3);
        values.set("ops_per_s", lat.len() as f64 / lat.iter().sum::<f64>());
        values.set("peak_rss_mb", sys::peak_rss_mib());
        values.set(
            "quality_error",
            quality(ctx, g, &loaded.ids, &cluster, &exec)?,
        );
        let metrics = values.emit(END_TO_END, false, &mut checks);
        return Ok(Report {
            checks,
            attempted,
            failed,
            metrics,
        });
    }

    // Traced run: the set-up replayed with spans, then op pairs, each
    // batch answered untraced and then traced.
    let mut tracer = Tracer::new();
    let work = trace_setup(ctx, g, &cluster, &mut tracer, &mut checks);
    let pairs = ((ctx.seconds * TRACE_PAIRS_PER_S) as u64).max(1);
    let (mut plain_lat, mut traced_lat, mut plans) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..pairs {
        let i = WARMUP_OPS + k;
        let qs = queries(i)?;
        let start = Instant::now();
        let answers = op(&cluster, &qs, &exec, |_, _, _| {});
        plain_lat.push(start.elapsed().as_secs_f64());
        judge(&answers, i, &mut checks);

        let mut calls = Vec::with_capacity(3);
        let start = Instant::now();
        let traced = op(&cluster, &qs, &exec, |name, a, b| calls.push((name, a, b)));
        let end = Instant::now();
        traced_lat.push((end - start).as_secs_f64());
        let root = tracer.record("op", i as u32, None, tracer.at(start), tracer.at(end));
        for (name, a, b) in calls {
            tracer.record(name, i as u32, Some(root), tracer.at(a), tracer.at(b));
        }
        checks.expect(traced == answers, || {
            format!("op {i}: traced answers differ")
        });
        judge(&traced, i, &mut checks);
        let mut machines: Vec<usize> = qs.iter().map(|&q| cluster.route(q)).collect();
        machines.sort_unstable();
        machines.dedup();
        plans.push((3 * machines.len()) as f64);
    }

    let spans = tracer.spans();
    common::check_closure(&mut checks, spans);
    values.set("graph.load_ms", load_s * 1e3);
    values.set("weights.bfs_ms", trace::median_ms(spans, "weights.bfs"));
    values.set(
        "weights.bfs_calls",
        trace::count(spans, "weights.bfs") as f64,
    );
    common::emit_engine(&mut values, spans, &work);
    common::emit_memory(&mut values, g, rss_setup);
    values.set(
        "partition.louvain_ms",
        trace::median_ms(spans, "partition.louvain"),
    );
    values.set("distributed.build_ms", median(&build_s) * 1e3);
    values.set("distributed.plans_per_op", median(&plans));
    for (name, metric) in [
        ("queries.rwr", "queries.rwr_ms"),
        ("queries.php", "queries.php_ms"),
        ("queries.hop", "queries.hop_ms"),
        ("queries.plan", "queries.plan_ms"),
    ] {
        values.set(metric, trace::median_ms(spans, name));
    }
    values.set("queries.answered", answered as f64);
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
