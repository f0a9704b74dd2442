//! What the three workloads share: the run context, the timed graph
//! load, the engine configuration, and the output checks on summaries.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use pgs_core::error::personalized_error;
use pgs_core::pegasus::RunStats;
use pgs_core::{NodeWeights, Pegasus, PegasusConfig, RunOutput, StopReason, Summary};
use pgs_graph::{FxHashMap, Graph, NodeId};

use crate::inputs::IdMap;
use crate::report::{Checks, Values};
use crate::stats::median;
use crate::sys::{self, CpuTimes};
use crate::trace::{self, Span, Tracer};

/// Degree of personalization used throughout (paper default).
pub const ALPHA: f64 = 1.25;

/// Arguments of one measuring run.
pub struct Ctx {
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Traced run: print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The edge list written before timing started.
    pub graph: PathBuf,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
}

/// The loaded input and how long loading took.
pub struct Loaded {
    pub graph: Graph,
    pub ids: IdMap,
    pub load: LoadTimes,
}

/// Set-up load times, one median per timed process. A load's time
/// depends on when it runs: on a 2-vCPU VM, the medians of the same
/// 14k-edge load ranged from 1.7 to 2.7 ms between processes a second
/// apart, while repeats inside one process stayed within a few
/// percent. So set-up is timed in several short-lived processes, at
/// points spread over the run where nothing else is timed, and
/// set-up time is the median over them.
pub struct LoadTimes {
    path: PathBuf,
    reps: usize,
    medians: Vec<f64>,
}

impl LoadTimes {
    /// Times `reps` loads in a fresh copy of the benchmark (`pgs-perfbench
    /// load`) and waits for it to end.
    pub fn sample(&mut self) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("benchmark binary: {e}"))?;
        let out = Command::new(exe)
            .arg("load")
            .arg("--graph")
            .arg(&self.path)
            .args(["--reps", &self.reps.to_string()])
            .output()
            .map_err(|e| format!("starting a load process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "load process exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        let median_s = text
            .trim()
            .parse()
            .map_err(|_| format!("load process printed {:?}", text.trim()))?;
        self.medians.push(median_s);
        Ok(())
    }

    /// Set-up load time: the median over every process timed so far.
    pub fn median_s(&self) -> f64 {
        median(&self.medians)
    }
}

/// Loads the edge list `reps` times (the load is idempotent) in this
/// process, keeps the last copy, and times `reps` more loads in one
/// fresh process. Workloads take further samples later in the run
/// with [`LoadTimes::sample`].
pub fn load(ctx: &Ctx, reps: usize) -> Result<Loaded, String> {
    let (graph, map, load_s) = time_loads(&ctx.graph, reps)?;
    let mut load = LoadTimes {
        path: ctx.graph.clone(),
        reps,
        medians: vec![load_s],
    };
    load.sample()?;
    Ok(Loaded {
        graph,
        ids: IdMap::new(map),
        load,
    })
}

/// Loads `path` `reps` times in this process. Returns the last copy,
/// its id map, and the median seconds per load.
pub fn time_loads(
    path: &Path,
    reps: usize,
) -> Result<(Graph, FxHashMap<u64, NodeId>, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let loaded = pgs_graph::io::read_edge_list(path)
            .map_err(|e| format!("loading {}: {e}", path.display()))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(loaded);
    }
    let (graph, map) = last.ok_or("no load ran")?;
    Ok((graph, map, median(&times)))
}

/// PeGaSus at the paper's defaults on `threads` evaluate threads.
pub fn pegasus(threads: usize) -> Pegasus {
    Pegasus(PegasusConfig {
        alpha: ALPHA,
        num_threads: threads,
        ..PegasusConfig::default()
    })
}

/// Eq.-1 personalized error of `s` under the weights of `targets`,
/// normalized by the weighted edge mass (the error of dropping every
/// edge), so 0 is lossless and values are comparable across graphs.
pub fn quality_error(g: &Graph, s: &Summary, targets: &[NodeId]) -> Result<f64, String> {
    let w = NodeWeights::personalized(g, targets, ALPHA);
    let err = personalized_error(g, s, &w).map_err(|e| e.to_string())?;
    let mass: f64 = g.edges().map(|(u, v)| w.pair(u, v)).sum();
    Ok(err / (2.0 * mass))
}

/// Records a `Summarizer::run` call as an `engine.run` span under
/// `parent`, with the engine's four phases (durations from
/// `RunStats.phases`) as its children. The run's self time is
/// `engine.other`: init, the signature bank, freeze and checkpoint I/O.
pub fn record_engine(
    tracer: &mut Tracer,
    parent: usize,
    start: Instant,
    end: Instant,
    stats: &RunStats,
) -> usize {
    let op = tracer.spans()[parent].op;
    let run = tracer.record(
        "engine.run",
        op,
        Some(parent),
        tracer.at(start),
        tracer.at(end),
    );
    let p = stats.phases;
    tracer.record_sequence(
        run,
        &[
            ("engine.candidates", p.candidates),
            ("engine.evaluate", p.evaluate),
            ("engine.commit", p.commit),
            ("engine.sparsify", p.sparsify),
        ],
    );
    run
}

/// Engine work summed over traced runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineWork {
    pub evals: u64,
    pub merges: u64,
    pub iterations: u64,
    pub groups: u64,
    pub checkpoints: u64,
    pub checkpoint_failures: u64,
    /// Seconds in the evaluate phase.
    pub evaluate_s: f64,
    /// Seconds in all four phases.
    pub phases_s: f64,
}

impl EngineWork {
    /// Adds one run's statistics.
    pub fn add(&mut self, s: &RunStats) {
        self.evals += s.evals;
        self.merges += s.merges as u64;
        self.iterations += s.iterations as u64;
        self.groups += s.groups;
        self.checkpoints += s.checkpoints;
        self.checkpoint_failures += s.checkpoint_failures;
        self.evaluate_s += s.phases.evaluate;
        self.phases_s += s.phases.total();
    }

    /// The counts that must repeat exactly for the same inputs.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        (self.evals, self.merges, self.iterations, self.groups)
    }
}

/// Sets the engine layer's metrics from the traced spans and work.
pub fn emit_engine(values: &mut Values, spans: &[Span], work: &EngineWork) {
    values.set("engine.run_ms", trace::median_ms(spans, "engine.run"));
    values.set(
        "engine.candidates_ms",
        trace::median_ms(spans, "engine.candidates"),
    );
    values.set(
        "engine.evaluate_ms",
        trace::median_ms(spans, "engine.evaluate"),
    );
    values.set("engine.commit_ms", trace::median_ms(spans, "engine.commit"));
    values.set(
        "engine.sparsify_ms",
        trace::median_ms(spans, "engine.sparsify"),
    );
    values.set(
        "engine.other_ms",
        trace::median_self_ms(spans, "engine.run"),
    );
    values.set("engine.evals", work.evals as f64);
    values.set("engine.merges", work.merges as f64);
    values.set("engine.iterations", work.iterations as f64);
    values.set("engine.groups", work.groups as f64);
    if work.evals > 0 {
        values.set("engine.eval_us", work.evaluate_s * 1e6 / work.evals as f64);
        values.set(
            "engine.accept_ratio",
            work.merges as f64 / work.evals as f64,
        );
    }
}

/// Sets the memory metrics: resident size after set-up, and the peak
/// above it that the run's working state added.
pub fn emit_memory(values: &mut Values, g: &Graph, rss_after_setup_mb: f64) {
    let state_mb = (sys::peak_rss_mib() - rss_after_setup_mb).max(0.0);
    values.set("graph.rss_mb", rss_after_setup_mb);
    values.set("engine.state_mb", state_mb);
    values.set(
        "engine.state_bytes_per_edge",
        state_mb * 1024.0 * 1024.0 / g.num_edges().max(1) as f64,
    );
}

/// Sets the diagnostics every traced run reports.
pub fn emit_bench(values: &mut Values, spans: &[Span], cpu0: &CpuTimes, overhead: f64) {
    values.set("bench.steal_frac", CpuTimes::now().steal_since(cpu0));
    values.set("bench.trace_overhead_frac", overhead);
    values.set("bench.closure_err_frac", trace::max_closure_error(spans));
    values.set("bench.nproc", sys::nproc() as f64);
}

/// Fails the run if any traced op's self times miss its wall time by
/// more than [`trace::CLOSURE_TOLERANCE`].
pub fn check_closure(checks: &mut Checks, spans: &[Span]) {
    for (op, wall, sum) in trace::closure(spans) {
        let err = if wall > 0.0 {
            (sum - wall).abs() / wall
        } else {
            0.0
        };
        checks.expect(err <= trace::CLOSURE_TOLERANCE, || {
            format!("op {op}: self times sum to {sum:.6} s against a wall time of {wall:.6} s")
        });
    }
}

/// Why a finished summarization does not count, if it does not: it
/// must have met its bit budget by merging (`StopReason::BudgetMet`).
pub fn summary_fault(out: &RunOutput, budget_bits: f64) -> Option<String> {
    if out.stop != StopReason::BudgetMet {
        return Some(format!("stopped with {} instead of budget-met", out.stop));
    }
    let bits = out.summary.size_bits();
    if bits > budget_bits * (1.0 + 1e-9) {
        return Some(format!(
            "summary of {bits:.0} bits exceeds its budget of {budget_bits:.0}"
        ));
    }
    None
}
