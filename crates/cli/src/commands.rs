//! Subcommand implementations and minimal flag parsing.

use pgs_baselines::{KGrass, KGrassConfig, S2l, S2lConfig, Saags, SaagsConfig};
use pgs_core::api::{Budget, Pegasus, Ssumm, SummarizeRequest, Summarizer};
use pgs_core::exec::Exec;
use pgs_core::pegasus::PegasusConfig;
use pgs_core::summary_io::{read_summary, write_summary};
use pgs_core::SsummConfig;
use pgs_graph::io::read_edge_list;
use pgs_graph::traverse::effective_diameter;
use pgs_graph::Graph;
use pgs_partition::Method;
use pgs_queries as q;
use pgs_serve::{ServiceConfig, SubmitRequest, SummaryService};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// CLI usage text.
pub const USAGE: &str = "\
pgs — personalized graph summarization (PeGaSus, ICDE 2022)

USAGE:
  pgs info <edges.txt>
  pgs summarize <edges.txt> -o <out.summary>
                [--algorithm pegasus|ssumm|kgrass|s2l|saags]   (default pegasus)
                [--budget-ratio 0.5 | --budget-bits K | --budget-supernodes S]
                [--targets 1,2,3] [--alpha 1.25] [--beta 0.1] [--seed 0]
                [--deadline-secs T]   (stop at the next commit boundary past T)
                [--threads N]   (0 = all hardware threads; same output at any N)
  pgs query <out.summary> --type rwr|hop|php|pagerank --node <q> [--top 10]
            [--truth <edges.txt>]
  pgs query <out.summary> --type rwr|hop|php (--nodes <ids.txt> | --sample <k>)
            [--top 10] [--seed 0] [--truth <edges.txt>]
            [--threads N]   (0 = all hardware threads; same output at any N)
  pgs partition <edges.txt> -m 8 [--method louvain|blp|shpi|shpii|shpkl]
  pgs serve <edges.txt> --requests <reqs.txt>
            [--algorithm pegasus|ssumm|kgrass|s2l|saags]   (default pegasus)
            [--workers N]   (pool size; 0 = all hardware threads)
            [--inflight K]   (per-tenant concurrent runs, default 1)
            [--tenant-deadline-ms T]   (wall clock per request, from submission)
            [--cache C]   (weight-cache entries, default 256; 0 disables)
            [--metrics-dump <m.json>]   (write a MetricsSnapshot after the run)
            [--events <e.ndjson>]   (stream lifecycle events to an NDJSON sink)
            [--event-capacity N]   (in-memory event ring size, default 256)
            [--alpha 1.25] [--beta 0.1] [--seed 0] [--threads N]
  pgs top <metrics.json>   (one-shot text report from a --metrics-dump file)

All five algorithms dispatch through the unified Summarizer request API:
pegasus/ssumm take bit budgets (--budget-bits, or --budget-ratio of the
input size; --ratio/--bits remain as aliases), the kgrass/s2l/saags
baselines take supernode counts (--budget-supernodes; ratios map to
ceil(ratio·|V|)). --targets personalizes PeGaSus; the others reject it
with a typed error. Every run prints iterations/merges/merge-evals and
the stop reason (budget-met | max-iters | cancelled | deadline-exceeded).

Query batch mode compiles the summary into one reusable QueryEngine plan,
answers all nodes (from the --nodes id file, or --sample k nodes drawn with
--seed) in parallel over --threads workers, and prints TSV rows
`query  rank  node  score` (top --top nodes per query; accuracy vs --truth
goes to stderr). Answers are byte-identical at any --threads value.

Every subcommand rejects a flag it does not read (`unknown flag --X`).

serve replays a request file through the multi-tenant SummaryService
(bounded worker pool, per-tenant FIFO + priority scheduling, shared-BFS
weight cache). Request file: one `tenant budget targets priority
durable-key` line per request, where budget is a ratio (0.5), `bits:K`,
or `sn:S`; targets is a comma list of node ids or `-` for uniform;
priority (optional, default 0, `-` = 0) runs higher first across
tenants; durable-key (optional, needs --checkpoint-dir) journals the
admission and checkpoints the run, so a crashed process replays and
finishes the job on the next start. --stall-timeout-ms arms a watchdog
that frees workers whose runs stop making progress (stop reason
`stalled`); --breaker-window/--breaker-threshold/--breaker-cooldown-ms
fast-reject tenants whose recent runs keep failing until a cooldown
probe succeeds. Completed requests stream out as TSV `tenant  id  stop
supernodes  ratio  wait_ms  run_ms`; per-tenant stats (incl. stalled /
breaker / quarantined counts) and the cache hit rate go to stderr.
--metrics-dump writes the service's full MetricsSnapshot (DESIGN.md
§14: counters, gauges, latency histograms, per-tenant stats) as JSON
when the run drains; --events streams every job-lifecycle event
(admitted → queued → running → checkpointed → retried / stalled /
completed) as NDJSON. `pgs top` renders a --metrics-dump file as a
human-readable report: queue/jobs/cache/latency/engine sections plus a
per-tenant table.

Edge lists: one `u v` pair per line, `#`/`%` comments (SNAP/KONECT style).
";

/// Minimal flag parser: positionals plus `--flag value` pairs.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

/// The flags [`build_algorithm`] reads, accepted by every subcommand
/// that calls it.
const ALGORITHM_FLAGS: &[&str] = &[
    "algorithm",
    "method",
    "alpha",
    "beta",
    "tmax",
    "seed",
    "threads",
    "c",
    "iterations",
];

impl Args {
    /// Parses `raw`, accepting only the flag names listed in `accepted`
    /// (a subcommand's own list, plus [`ALGORITHM_FLAGS`] where it
    /// builds an algorithm), so a misspelled or retired flag is an error
    /// rather than silently ignored.
    fn parse(raw: &[String], accepted: &[&[&str]]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--").or_else(|| tok.strip_prefix('-')) {
                if !accepted.iter().any(|list| list.contains(&name)) {
                    return Err(format!("unknown flag {tok}"));
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            } else {
                positional.push(tok.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {v:?}")),
        }
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let (g, _) = read_edge_list(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(g)
}

/// `pgs info <edges.txt>`.
pub fn info(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pgs info <edges.txt>")?;
    let g = load_graph(path)?;
    println!("nodes:              {}", g.num_nodes());
    println!("edges:              {}", g.num_edges());
    println!("max degree:         {}", g.max_degree());
    println!("size (Eq. 4):       {:.0} bits", g.size_bits());
    println!(
        "effective diameter: {:.2} (sampled)",
        effective_diameter(&g, 16, 1)
    );
    Ok(())
}

/// `pgs summarize <edges.txt> -o out [--algorithm a] [budget flags] ...`:
/// every algorithm dispatches through `dyn Summarizer`.
pub fn summarize(raw: &[String]) -> Result<(), String> {
    const FLAGS: &[&str] = &[
        "o",
        "out",
        "budget-supernodes",
        "budget-bits",
        "bits",
        "budget-ratio",
        "ratio",
        "targets",
        "deadline-secs",
    ];
    let args = Args::parse(raw, &[FLAGS, ALGORITHM_FLAGS])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pgs summarize <edges.txt> -o <out.summary> [flags]")?;
    let out = args
        .get("o")
        .or_else(|| args.get("out"))
        .ok_or("missing -o <out.summary>")?;
    let g = load_graph(path)?;

    // Budget: explicit supernode count > explicit bits > ratio (0.5
    // default). --ratio and --bits stay as aliases of --budget-*.
    let budget = if args.get("budget-supernodes").is_some() {
        Budget::Supernodes(args.get_parse("budget-supernodes", 0usize)?)
    } else if args.get("budget-bits").is_some() || args.get("bits").is_some() {
        let bits: f64 = args.get_parse("budget-bits", args.get_parse("bits", 0.0)?)?;
        Budget::Bits(bits)
    } else {
        let ratio: f64 = args.get_parse("budget-ratio", args.get_parse("ratio", 0.5)?)?;
        Budget::Ratio(ratio)
    };

    let targets: Vec<u32> = match args.get("targets") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map_err(|_| format!("bad target id {t:?}"))
            })
            .collect::<Result<_, _>>()?,
    };
    let mut req = SummarizeRequest::new(budget).targets(&targets);
    if args.get("deadline-secs").is_some() {
        let secs: f64 = args.get_parse("deadline-secs", 0.0)?;
        let deadline = std::time::Duration::try_from_secs_f64(secs)
            .map_err(|_| format!("--deadline-secs must be non-negative seconds, got {secs}"))?;
        req = req.deadline(deadline);
    }

    let summarizer = build_algorithm(&args)?;
    let run = summarizer.run(&g, &req).map_err(|e| e.to_string())?;
    let summary = &run.summary;
    write_summary(summary, out).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: |S|={} |P|={} {:.0} bits (ratio {:.3}); algorithm {}, {} iterations, \
         {} merges, {} merge-evals, stop {}{}",
        summary.num_supernodes(),
        summary.num_superedges(),
        summary.size_bits(),
        summary.size_bits() / g.size_bits(),
        summarizer.name(),
        run.stats.iterations,
        run.stats.merges,
        run.stats.evals,
        run.stop,
        if run.stats.sparsified {
            ", sparsified"
        } else {
            ""
        }
    );
    Ok(())
}

/// Builds the `--algorithm` summarizer from the shared flag set
/// ([`ALGORITHM_FLAGS`]: `--alpha`, `--beta`, `--tmax`, `--seed`,
/// `--threads`, `--c`, `--iterations`; `--method` stays as an alias of
/// `--algorithm`). Shared by `summarize` and `serve`.
fn build_algorithm(args: &Args) -> Result<Box<dyn Summarizer + Send + Sync>, String> {
    let seed: u64 = args.get_parse("seed", 0)?;
    let num_threads: usize = args.get_parse("threads", 0)?;
    let algorithm = args
        .get("algorithm")
        .or_else(|| args.get("method"))
        .unwrap_or("pegasus");
    Ok(match algorithm {
        "pegasus" => Box::new(Pegasus(PegasusConfig {
            alpha: args.get_parse("alpha", 1.25)?,
            beta: args.get_parse("beta", 0.1)?,
            t_max: args.get_parse("tmax", 20)?,
            seed,
            num_threads,
            ..Default::default()
        })),
        "ssumm" => Box::new(Ssumm(SsummConfig {
            t_max: args.get_parse("tmax", 20)?,
            seed,
            num_threads,
        })),
        "kgrass" => Box::new(KGrass(KGrassConfig {
            c: args.get_parse("c", 1.0)?,
            seed,
        })),
        "s2l" => Box::new(S2l(S2lConfig {
            iterations: args.get_parse("iterations", 5)?,
            seed,
        })),
        "saags" => Box::new(Saags(SaagsConfig { seed })),
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (pegasus|ssumm|kgrass|s2l|saags)"
            ))
        }
    })
}

/// Top-k node indices (ascending scores for hop distances, descending
/// otherwise).
fn top_k(scores: &[f64], qtype: &str, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    if qtype == "hop" {
        idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    } else {
        idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    }
    idx.truncate(k);
    idx
}

/// Parses a query-node id file: whitespace-separated ids, `#`/`%`
/// comment lines (same conventions as edge lists).
fn read_node_ids(path: &str, num_nodes: usize) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        for tok in line.split_whitespace() {
            let id: u32 = tok
                .parse()
                .map_err(|_| format!("{path}: bad node id {tok:?}"))?;
            if (id as usize) >= num_nodes {
                return Err(format!(
                    "{path}: node {id} out of range (|V| = {num_nodes})"
                ));
            }
            out.push(id);
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no query nodes found"));
    }
    Ok(out)
}

/// Exact answers on the truth graph for accuracy reporting.
fn exact_scores(g: &Graph, qtype: &str, node: u32) -> Result<Vec<f64>, String> {
    match qtype {
        "rwr" => Ok(q::rwr_exact(g, node, q::RWR_RESTART)),
        "hop" => Ok(q::hops_to_f64(&q::hops_exact(g, node))),
        "php" => Ok(q::php_exact(g, node, q::PHP_DECAY)),
        "pagerank" => Ok(q::pagerank_exact(g, 0.85)),
        other => Err(format!("unknown query type {other:?}")),
    }
}

/// `pgs query <out.summary> --type rwr [--node q | --nodes file | --sample k]`.
pub fn query(raw: &[String]) -> Result<(), String> {
    const QUERY_USAGE: &str = "usage: pgs query <out.summary> --type rwr|hop|php|pagerank \
         (--node <q> | --nodes <ids.txt> | --sample <k>) \
         [--top 10] [--seed 0] [--threads N] [--truth <edges.txt>]";
    const FLAGS: &[&str] = &[
        "type", "node", "nodes", "sample", "top", "seed", "threads", "truth",
    ];
    let args = Args::parse(raw, &[FLAGS])?;
    let path = args.positional.first().ok_or(QUERY_USAGE)?;
    let s = read_summary(path).map_err(|e| format!("reading {path}: {e}"))?;
    let qtype = args
        .get("type")
        .ok_or("missing --type rwr|hop|php|pagerank")?;
    if !matches!(qtype, "rwr" | "hop" | "php" | "pagerank") {
        return Err(format!(
            "unknown query type {qtype:?} (rwr|hop|php|pagerank)"
        ));
    }
    let top: usize = args.get_parse("top", 10)?;
    let truth: Option<Graph> = match args.get("truth") {
        None => None,
        Some(truth_path) => {
            let g = load_graph(truth_path)?;
            if g.num_nodes() != s.num_nodes() {
                return Err("truth graph node count differs from summary".into());
            }
            Some(g)
        }
    };

    // Batch mode: an id file or a seeded sample of query nodes.
    let batch: Option<Vec<u32>> = if let Some(nodes_path) = args.get("nodes") {
        Some(read_node_ids(nodes_path, s.num_nodes())?)
    } else if args.get("sample").is_some() {
        let k: usize = args.get_parse("sample", 0)?;
        if k == 0 || k > s.num_nodes() {
            return Err(format!(
                "--sample must be in 1..={} (|V|), got {k}",
                s.num_nodes()
            ));
        }
        let seed: u64 = args.get_parse("seed", 0)?;
        let mut ids: Vec<u32> = (0..s.num_nodes() as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        ids.shuffle(&mut rng);
        ids.truncate(k);
        Some(ids)
    } else {
        None
    };

    let Some(queries) = batch else {
        // Single-node mode (pagerank ignores --node: it is global).
        let node: u32 = args.get_parse("node", 0)?;
        if (node as usize) >= s.num_nodes() && qtype != "pagerank" {
            return Err(format!(
                "node {node} out of range (|V| = {})",
                s.num_nodes()
            ));
        }
        let engine = q::QueryEngine::new(&s);
        let scores: Vec<f64> = match qtype {
            "rwr" => engine.rwr(node, q::RWR_RESTART),
            "hop" => q::hops_to_f64(&engine.hops(node)),
            "php" => engine.php(node, q::PHP_DECAY),
            "pagerank" => engine.pagerank(0.85),
            other => return Err(format!("unknown query type {other:?}")),
        };
        println!("top {top} nodes by {qtype} (from the summary):");
        for &u in &top_k(&scores, qtype, top) {
            println!("  node {u:>8}  score {:.6}", scores[u]);
        }
        if let Some(g) = &truth {
            let exact = exact_scores(g, qtype, node)?;
            println!(
                "accuracy vs exact: SMAPE {:.4}, Spearman {:.4}",
                q::smape(&exact, &scores),
                q::spearman(&exact, &scores)
            );
        }
        return Ok(());
    };

    // Batch mode: one engine plan, queries fanned out over --threads.
    if qtype == "pagerank" {
        return Err("--type pagerank is query-independent; use single-node mode (--node)".into());
    }
    let threads: usize = args.get_parse("threads", 0)?;
    let exec = Exec::new(threads);
    let engine = q::QueryEngine::new(&s);
    let answers: Vec<Vec<f64>> = match qtype {
        "rwr" => engine.rwr_batch(&queries, q::RWR_RESTART, &exec),
        "hop" => engine
            .hops_batch(&queries, &exec)
            .iter()
            .map(|h| q::hops_to_f64(h))
            .collect(),
        "php" => engine.php_batch(&queries, q::PHP_DECAY, &exec),
        other => return Err(format!("unknown query type {other:?}")),
    };
    println!(
        "# pgs query batch: type {qtype}, {} queries, top {top}",
        queries.len()
    );
    println!("# query\trank\tnode\tscore");
    for (qi, scores) in queries.iter().zip(&answers) {
        for (rank, &u) in top_k(scores, qtype, top).iter().enumerate() {
            println!("{qi}\t{}\t{u}\t{:.6}", rank + 1, scores[u]);
        }
    }
    if let Some(g) = &truth {
        let (mut sm, mut sc) = (0.0, 0.0);
        for (&node, scores) in queries.iter().zip(&answers) {
            let exact = exact_scores(g, qtype, node)?;
            sm += q::smape(&exact, scores);
            sc += q::spearman(&exact, scores);
        }
        let n = queries.len() as f64;
        eprintln!(
            "accuracy vs exact over {} queries: mean SMAPE {:.4}, mean Spearman {:.4}",
            queries.len(),
            sm / n,
            sc / n
        );
    }
    Ok(())
}

/// One line of a `pgs serve` request file: budget token (`0.5` ratio,
/// `bits:K`, `sn:S`).
fn parse_budget_token(tok: &str) -> Result<Budget, String> {
    if let Some(bits) = tok.strip_prefix("bits:") {
        let b: f64 = bits
            .parse()
            .map_err(|_| format!("bad bit budget {bits:?}"))?;
        Ok(Budget::Bits(b))
    } else if let Some(sn) = tok.strip_prefix("sn:") {
        let k: usize = sn
            .parse()
            .map_err(|_| format!("bad supernode budget {sn:?}"))?;
        Ok(Budget::Supernodes(k))
    } else {
        let r: f64 = tok
            .parse()
            .map_err(|_| format!("bad budget ratio {tok:?} (ratio, bits:K, or sn:S)"))?;
        Ok(Budget::Ratio(r))
    }
}

/// Parses a serve request file: `tenant budget targets [priority]
/// [durable-key]` per line, `#`/`%` comments. Targets are a comma list
/// of node ids or `-`; priority `-` means 0; a durable key enrolls the
/// job in the admission journal + checkpoint store (requires
/// `--checkpoint-dir`).
fn parse_request_file(path: &str, num_nodes: usize) -> Result<Vec<SubmitRequest>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let at = |msg: String| format!("{path}:{}: {msg}", lineno + 1);
        let toks: Vec<&str> = line.split_whitespace().collect();
        if !(3..=5).contains(&toks.len()) {
            return Err(at(format!(
                "expected `tenant budget targets [priority] [durable-key]`, got {} fields",
                toks.len()
            )));
        }
        let budget = parse_budget_token(toks[1]).map_err(at)?;
        let mut req = SummarizeRequest::new(budget);
        if toks[2] != "-" {
            let targets: Vec<u32> = toks[2]
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<u32>()
                        .map_err(|_| at(format!("bad target id {t:?}")))
                })
                .collect::<Result<_, _>>()?;
            if let Some(&bad) = targets.iter().find(|&&t| (t as usize) >= num_nodes) {
                return Err(at(format!("target {bad} out of range (|V| = {num_nodes})")));
            }
            req = req.targets(&targets);
        }
        let priority: u8 = match toks.get(3) {
            None => 0,
            Some(&"-") => 0,
            Some(p) => p
                .parse()
                .map_err(|_| at(format!("bad priority {p:?} (0-255)")))?,
        };
        let mut sub = SubmitRequest::new(toks[0], req).priority(priority);
        if let Some(&key) = toks.get(4) {
            if key != "-" {
                sub = sub.durable(key);
            }
        }
        out.push(sub);
    }
    if out.is_empty() {
        return Err(format!("{path}: no requests found"));
    }
    Ok(out)
}

/// `pgs serve <edges.txt> --requests <reqs.txt> [flags]`: replay a
/// request file through the multi-tenant `SummaryService`.
pub fn serve(raw: &[String]) -> Result<(), String> {
    const SERVE_USAGE: &str =
        "usage: pgs serve <edges.txt> --requests <reqs.txt> [--algorithm a] [--workers N] \
         [--inflight K] [--tenant-deadline-ms T] [--cache C] [--queue-depth Q] \
         [--global-queue G] [--retries R] [--retry-backoff-ms B] [--checkpoint-every E] \
         [--checkpoint-dir D] [--stall-timeout-ms S] [--breaker-window W] \
         [--breaker-threshold F] [--breaker-cooldown-ms C] [--metrics-dump M] \
         [--events E] [--event-capacity N] [flags]";
    const FLAGS: &[&str] = &[
        "requests",
        "workers",
        "inflight",
        "tenant-deadline-ms",
        "cache",
        "queue-depth",
        "global-queue",
        "retries",
        "retry-backoff-ms",
        "checkpoint-every",
        "checkpoint-dir",
        "stall-timeout-ms",
        "breaker-window",
        "breaker-threshold",
        "breaker-cooldown-ms",
        "metrics-dump",
        "events",
        "event-capacity",
    ];
    let args = Args::parse(raw, &[FLAGS, ALGORITHM_FLAGS])?;
    let path = args.positional.first().ok_or(SERVE_USAGE)?;
    let reqs_path = args.get("requests").ok_or(SERVE_USAGE)?;
    let g = load_graph(path)?;
    let size_g = g.size_bits();
    let submissions = parse_request_file(reqs_path, g.num_nodes())?;
    let total = submissions.len();

    let tenant_deadline = match args.get("tenant-deadline-ms") {
        None => None,
        Some(_) => {
            let ms: f64 = args.get_parse("tenant-deadline-ms", 0.0)?;
            Some(
                std::time::Duration::try_from_secs_f64(ms / 1000.0)
                    .map_err(|_| format!("--tenant-deadline-ms must be non-negative, got {ms}"))?,
            )
        }
    };
    let retry_backoff_ms: f64 = args.get_parse("retry-backoff-ms", 10.0)?;
    let stall_timeout = match args.get("stall-timeout-ms") {
        None => None,
        Some(_) => {
            let ms: f64 = args.get_parse("stall-timeout-ms", 0.0)?;
            Some(
                std::time::Duration::try_from_secs_f64(ms / 1000.0)
                    .map_err(|_| format!("--stall-timeout-ms must be non-negative, got {ms}"))?,
            )
        }
    };
    let breaker_cooldown_ms: f64 = args.get_parse("breaker-cooldown-ms", 1000.0)?;
    let cfg = ServiceConfig {
        workers: args.get_parse("workers", 0)?,
        per_tenant_inflight: args.get_parse("inflight", 1)?,
        tenant_deadline,
        cache_capacity: args.get_parse("cache", 256)?,
        tenant_queue_depth: args.get_parse("queue-depth", 0)?,
        global_queue_depth: args.get_parse("global-queue", 0)?,
        retry_budget: args.get_parse("retries", 0)?,
        retry_backoff: std::time::Duration::try_from_secs_f64(retry_backoff_ms / 1000.0).map_err(
            |_| format!("--retry-backoff-ms must be non-negative, got {retry_backoff_ms}"),
        )?,
        checkpoint_every: args.get_parse("checkpoint-every", 1)?,
        checkpoint_dir: args.get("checkpoint-dir").map(std::path::PathBuf::from),
        stall_timeout,
        breaker_window: args.get_parse("breaker-window", 0)?,
        breaker_threshold: args.get_parse("breaker-threshold", 0.5)?,
        breaker_cooldown: std::time::Duration::try_from_secs_f64(breaker_cooldown_ms / 1000.0)
            .map_err(|_| {
                format!("--breaker-cooldown-ms must be non-negative, got {breaker_cooldown_ms}")
            })?,
        event_capacity: args.get_parse("event-capacity", 256)?,
        events_path: args.get("events").map(std::path::PathBuf::from),
    };
    let svc = SummaryService::new(
        std::sync::Arc::new(g),
        std::sync::Arc::from(build_algorithm(&args)?),
        cfg,
    );

    let started = std::time::Instant::now();
    // Journal replay: jobs admitted by a previous (crashed) process
    // come back first, ahead of this run's request file.
    let recovered = svc.recovered_handles();
    if !recovered.is_empty() {
        eprintln!(
            "# replayed {} journaled job(s) from a previous run",
            recovered.len()
        );
    }
    let quarantined = svc.quarantined_keys();
    if !quarantined.is_empty() {
        eprintln!(
            "# quarantined (poisoned, not replayed): {}",
            quarantined.join(", ")
        );
    }
    // Overload is an expected, per-request outcome under bounded
    // queues — it gets a TSV row, not a process failure. Only
    // infrastructure errors (bad files, bad flags) exit non-zero.
    let handles: Vec<_> = recovered
        .into_iter()
        .map(Ok)
        .chain(submissions.into_iter().map(|sub| {
            let tenant = sub.tenant.clone();
            svc.submit(sub).map_err(|e| (tenant, e))
        }))
        .collect();
    println!("# tenant\tid\tstop\tsupernodes\tratio\twait_ms\trun_ms");
    for h in &handles {
        let h = match h {
            Ok(h) => h,
            Err((tenant, e)) => {
                println!("{tenant}\t-\trejected\t-\t-\t-\t-\t# {e}");
                continue;
            }
        };
        match h.wait() {
            Ok(out) => {
                #[expect(
                    clippy::expect_used,
                    reason = "wait() returned Ok, so the service recorded timings"
                )]
                let t = h.timings().expect("finished");
                println!(
                    "{}\t{}\t{}\t{}\t{:.4}\t{:.2}\t{:.2}",
                    h.tenant(),
                    h.id(),
                    out.stop,
                    out.summary.num_supernodes(),
                    out.summary.size_bits() / size_g,
                    t.wait_secs * 1e3,
                    t.run_secs * 1e3,
                );
            }
            Err(e) => println!("{}\t{}\terror\t-\t-\t-\t-\t# {e}", h.tenant(), h.id()),
        }
    }
    let wall = started.elapsed().as_secs_f64();
    for s in svc.tenant_stats() {
        eprintln!(
            "# tenant {}: {} submitted, {} completed ({} budget-met, {} max-iters, \
             {} cancelled, {} deadline-exceeded, {} retries-exhausted, {} stalled), \
             {} errors, {} shed, {} rejected ({} breaker, {} trips), {} quarantined, \
             {} retries, cache {}h/{}m, wait {:.2}s, run {:.2}s",
            s.tenant,
            s.submitted,
            s.completed,
            s.budget_met,
            s.max_iters,
            s.cancelled,
            s.deadline_exceeded,
            s.retries_exhausted,
            s.stalled,
            s.errors,
            s.shed,
            s.rejected,
            s.breaker_rejected,
            s.breaker_trips,
            s.quarantined,
            s.retries,
            s.cache_hits,
            s.cache_misses,
            s.wait_secs,
            s.run_secs,
        );
    }
    let c = svc.cache_stats();
    eprintln!(
        "# {total} requests in {wall:.2}s ({:.1} req/s) on {} worker(s); \
         weight cache: {} hits / {} misses (hit rate {:.2})",
        total as f64 / wall.max(1e-12),
        Exec::new(args.get_parse("workers", 0)?).threads(),
        c.hits,
        c.misses,
        c.hit_rate(),
    );
    for r in svc.stall_reports() {
        eprintln!(
            "# stall report: job {} tenant {} ({} trailing events)",
            r.job_id,
            r.tenant,
            r.events.len()
        );
    }
    if let Some(dump) = args.get("metrics-dump") {
        std::fs::write(dump, svc.metrics_snapshot().to_json())
            .map_err(|e| format!("writing {dump}: {e}"))?;
        eprintln!("# metrics snapshot written to {dump}");
    }
    Ok(())
}

/// `pgs top <metrics.json>`: render a `--metrics-dump` file as a
/// one-shot text report.
pub fn top(raw: &[String]) -> Result<(), String> {
    use pgs_observe::Json;
    let args = Args::parse(raw, &[])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pgs top <metrics.json>   (written by pgs serve --metrics-dump)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let root = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let metrics = root.get("metrics").ok_or(format!(
        "{path}: missing \"metrics\" — not a pgs metrics dump?"
    ))?;
    let counter = |k: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };

    println!("pgs top — {path}");
    println!(
        "queue:   {:.0} queued, {:.0} running, {:.0} workers; {:.0} events recorded",
        num(&root, "queued"),
        num(&root, "running"),
        num(&root, "workers"),
        num(&root, "event_seq"),
    );
    println!(
        "jobs:    {:.0} submitted, {:.0} completed, {:.0} errors, {:.0} rejected, \
         {:.0} shed, {:.0} retried, {:.0} stalled, {:.0} quarantined, {:.0} replayed",
        counter("serve.jobs.submitted"),
        counter("serve.jobs.completed"),
        counter("serve.jobs.errors"),
        counter("serve.jobs.rejected"),
        counter("serve.jobs.shed"),
        counter("serve.jobs.retried"),
        counter("serve.jobs.stalled"),
        counter("serve.jobs.quarantined"),
        counter("serve.jobs.replayed"),
    );
    if let Some(cache) = root.get("cache") {
        let (h, m) = (num(cache, "hits"), num(cache, "misses"));
        println!(
            "cache:   {h:.0} hits / {m:.0} misses (hit rate {:.2}); {:.0} entries, \
             {:.0} evictions, {:.0} epoch invalidations",
            h / (h + m).max(1.0),
            num(cache, "entries"),
            num(cache, "evictions"),
            num(cache, "epoch_invalidations"),
        );
    }
    if let Some(j) = root.get("journal") {
        println!(
            "journal: {:.0} replayed, {:.0} quarantined",
            num(j, "replayed"),
            num(j, "quarantined"),
        );
    }
    if let Some(hists) = metrics.get("histograms") {
        for (label, key) in [
            ("wait", "serve.latency.wait_us"),
            ("run ", "serve.latency.run_us"),
        ] {
            if let Some(h) = hists.get(key) {
                let (p50, p95) = histogram_quantiles(h);
                let n = num(h, "count");
                let mean_ms = if n > 0.0 {
                    num(h, "sum") / n / 1e3
                } else {
                    0.0
                };
                println!("latency: {label} p50 {p50}  p95 {p95}  mean {mean_ms:.2}ms  (n={n:.0})");
            }
        }
    }
    println!(
        "engine:  {:.0} iterations, {:.0} merges, {:.0} evals",
        counter("engine.iterations"),
        counter("engine.merges"),
        counter("engine.evals"),
    );
    println!(
        "         phases: candidates {:.3}s, evaluate {:.3}s, commit {:.3}s, sparsify {:.3}s",
        counter("engine.phase.candidates_us") / 1e6,
        counter("engine.phase.evaluate_us") / 1e6,
        counter("engine.phase.commit_us") / 1e6,
        counter("engine.phase.sparsify_us") / 1e6,
    );
    if let Some(tenants) = root.get("tenants").and_then(Json::as_arr) {
        if !tenants.is_empty() {
            println!(
                "tenants: {:<12} {:>6} {:>6} {:>5} {:>5} {:>6} {:>9} {:>9} {:>9}",
                "tenant", "subm", "done", "err", "shed", "retry", "wait_s", "run_s", "backoff_s"
            );
            for t in tenants {
                println!(
                    "         {:<12} {:>6.0} {:>6.0} {:>5.0} {:>5.0} {:>6.0} {:>9.3} {:>9.3} {:>9.3}",
                    t.get("tenant").and_then(Json::as_str).unwrap_or("?"),
                    num(t, "submitted"),
                    num(t, "completed"),
                    num(t, "errors"),
                    num(t, "shed"),
                    num(t, "retries"),
                    num(t, "wait_secs"),
                    num(t, "run_secs"),
                    num(t, "backoff_secs"),
                );
            }
        }
    }
    Ok(())
}

/// Estimate p50/p95 from a serialized histogram (`bounds` are upper
/// edges in µs, `counts` has one trailing overflow bucket), rendered
/// as short strings so the overflow bucket can say so.
fn histogram_quantiles(h: &pgs_observe::Json) -> (String, String) {
    use pgs_observe::Json;
    let bounds: Vec<f64> = h
        .get("bounds")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let counts: Vec<f64> = h
        .get("counts")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    let total: f64 = counts.iter().sum();
    let at = |q: f64| -> String {
        if total == 0.0 {
            return "-".to_string();
        }
        let target = q * total;
        let mut cum = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return match bounds.get(i) {
                    Some(&b) if b >= 1e6 => format!("≤{:.1}s", b / 1e6),
                    Some(&b) if b >= 1e3 => format!("≤{:.1}ms", b / 1e3),
                    Some(&b) => format!("≤{b:.0}µs"),
                    // Overflow bucket: all we know is it is past the
                    // last finite bound.
                    None => match bounds.last() {
                        Some(&b) if b >= 1e6 => format!(">{:.1}s", b / 1e6),
                        Some(&b) => format!(">{:.1}ms", b / 1e3),
                        None => ">?".to_string(),
                    },
                };
            }
        }
        "-".to_string()
    };
    (at(0.50), at(0.95))
}

/// `pgs partition <edges.txt> -m 8 [--method louvain]`.
pub fn partition(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[&["m", "method", "seed"]])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: pgs partition <edges.txt> -m <parts> [--method louvain]")?;
    let g = load_graph(path)?;
    let m: usize = args.get_parse("m", 8)?;
    let seed: u64 = args.get_parse("seed", 0)?;
    let method = match args.get("method").unwrap_or("louvain") {
        "louvain" => Method::Louvain,
        "blp" => Method::Blp,
        "shpi" => Method::ShpI,
        "shpii" => Method::ShpII,
        "shpkl" => Method::ShpKL,
        other => return Err(format!("unknown method {other:?}")),
    };
    let labels = method.partition(&g, m, seed);
    let cut = pgs_partition::edge_cut_fraction(&g, &labels);
    let mut sizes = vec![0usize; m];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    println!(
        "# method {} m {m} cut {:.4} sizes {:?}",
        method.name(),
        cut,
        sizes
    );
    for (u, l) in labels.iter().enumerate() {
        println!("{u} {l}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_flags_and_positionals() {
        let a = Args::parse(
            &strs(&["file.txt", "--ratio", "0.4", "-o", "out"]),
            &[&["ratio", "o", "missing"]],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["file.txt"]);
        assert_eq!(a.get("ratio"), Some("0.4"));
        assert_eq!(a.get("o"), Some("out"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn args_missing_value_errors() {
        assert!(Args::parse(&strs(&["--ratio"]), &[&["ratio"]]).is_err());
    }

    #[test]
    fn get_parse_defaults_and_errors() {
        let a = Args::parse(&strs(&["--x", "nope"]), &[&["x", "y"]]).unwrap();
        assert_eq!(a.get_parse("y", 7usize).unwrap(), 7);
        assert!(a.get_parse::<f64>("x", 0.0).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // A typo and the two retired engine selectors all fail before
        // any file is read, with the flag named.
        for (flag, value) in [
            ("--treads", "2"),
            ("--evaluator", "legacy"),
            ("--candidate-gen", "recompute"),
        ] {
            let argv = strs(&["g.txt", "-o", "out.summary", flag, value]);
            assert_eq!(summarize(&argv), Err(format!("unknown flag {flag}")));
            let argv = strs(&["g.txt", "--requests", "reqs.txt", flag, value]);
            assert_eq!(serve(&argv), Err(format!("unknown flag {flag}")));
        }
        // Every subcommand checks against its own list: a flag another
        // subcommand reads is still unknown here.
        let bad = |cmd: fn(&[String]) -> Result<(), String>, argv: &[&str], flag: &str| {
            assert_eq!(cmd(&strs(argv)), Err(format!("unknown flag {flag}")));
        };
        bad(info, &["g.txt", "--threads", "2"], "--threads");
        bad(top, &["m.json", "--top", "3"], "--top");
        bad(partition, &["g.txt", "--threads", "2"], "--threads");
        bad(query, &["s.summary", "--type", "rwr", "-o", "x"], "-o");
    }

    #[test]
    fn end_to_end_summarize_and_query() {
        // Write a small edge list, summarize it, query the summary.
        let dir = std::env::temp_dir().join("pgs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let out = dir.join("g.summary");
        let g = pgs_graph::gen::planted_partition(300, 6, 1200, 200, 3);
        pgs_graph::io::write_edge_list(&g, &edges).unwrap();

        summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--ratio",
            "0.5",
            "--targets",
            "0,1",
        ]))
        .unwrap();
        assert!(out.exists());

        query(&strs(&[
            out.to_str().unwrap(),
            "--type",
            "rwr",
            "--node",
            "0",
            "--truth",
            edges.to_str().unwrap(),
        ]))
        .unwrap();

        info(&strs(&[edges.to_str().unwrap()])).unwrap();
        partition(&strs(&[edges.to_str().unwrap(), "-m", "4"])).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_query_from_sample_and_file() {
        let dir = std::env::temp_dir().join("pgs_cli_batch");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let out = dir.join("g.summary");
        let g = pgs_graph::gen::planted_partition(200, 4, 800, 120, 5);
        pgs_graph::io::write_edge_list(&g, &edges).unwrap();
        summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--ratio",
            "0.4",
        ]))
        .unwrap();

        // Sampled batch, explicit thread count, with accuracy scoring.
        query(&strs(&[
            out.to_str().unwrap(),
            "--type",
            "rwr",
            "--sample",
            "6",
            "--threads",
            "2",
            "--truth",
            edges.to_str().unwrap(),
        ]))
        .unwrap();

        // Batch from an id file (with comments), hop + php.
        let ids = dir.join("ids.txt");
        std::fs::write(&ids, "# query nodes\n0 3\n17\n").unwrap();
        for qtype in ["hop", "php"] {
            query(&strs(&[
                out.to_str().unwrap(),
                "--type",
                qtype,
                "--nodes",
                ids.to_str().unwrap(),
            ]))
            .unwrap();
        }

        // Error paths: pagerank has no batch mode; bad ids are rejected.
        let err = query(&strs(&[
            out.to_str().unwrap(),
            "--type",
            "pagerank",
            "--sample",
            "4",
        ]))
        .unwrap_err();
        assert!(err.contains("query-independent"), "{err}");
        std::fs::write(&ids, "999999\n").unwrap();
        let err = query(&strs(&[
            out.to_str().unwrap(),
            "--type",
            "rwr",
            "--nodes",
            ids.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = query(&strs(&[
            out.to_str().unwrap(),
            "--type",
            "rwr",
            "--sample",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--sample"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_five_algorithms_run_via_algorithm_flag() {
        let dir = std::env::temp_dir().join("pgs_cli_algorithms");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let g = pgs_graph::gen::planted_partition(200, 4, 800, 120, 9);
        pgs_graph::io::write_edge_list(&g, &edges).unwrap();

        for (alg, budget_flags) in [
            ("pegasus", &["--budget-ratio", "0.5"][..]),
            ("ssumm", &["--budget-ratio", "0.5"][..]),
            ("kgrass", &["--budget-supernodes", "40"][..]),
            ("s2l", &["--budget-supernodes", "40"][..]),
            ("saags", &["--budget-supernodes", "40"][..]),
        ] {
            let out = dir.join(format!("{alg}.summary"));
            let mut argv = vec![
                edges.to_str().unwrap().to_string(),
                "-o".into(),
                out.to_str().unwrap().to_string(),
                "--algorithm".into(),
                alg.to_string(),
            ];
            argv.extend(budget_flags.iter().map(|s| s.to_string()));
            summarize(&argv).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(out.exists(), "{alg}");
        }

        // A supernode budget on a bit-budgeted algorithm is a typed error.
        let err = summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            dir.join("x").to_str().unwrap(),
            "--algorithm",
            "pegasus",
            "--budget-supernodes",
            "40",
        ]))
        .unwrap_err();
        assert!(err.contains("does not support"), "{err}");

        // Personalizing a baseline is a typed error too.
        let err = summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            dir.join("x").to_str().unwrap(),
            "--algorithm",
            "kgrass",
            "--budget-supernodes",
            "40",
            "--targets",
            "0,1",
        ]))
        .unwrap_err();
        assert!(err.contains("does not support"), "{err}");

        // Unknown algorithms are rejected with the token list.
        let err = summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            dir.join("x").to_str().unwrap(),
            "--algorithm",
            "frobnicate",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown algorithm"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_flag_is_validated_and_honored() {
        let dir = std::env::temp_dir().join("pgs_cli_deadline");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let g = pgs_graph::gen::planted_partition(200, 4, 800, 120, 1);
        pgs_graph::io::write_edge_list(&g, &edges).unwrap();
        let out = dir.join("g.summary");

        // A zero deadline still returns a valid (identity) summary.
        summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--deadline-secs",
            "0",
        ]))
        .unwrap();
        assert!(out.exists());

        let err = summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--deadline-secs",
            "-1",
        ]))
        .unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_replays_a_request_file() {
        let dir = std::env::temp_dir().join("pgs_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let g = pgs_graph::gen::planted_partition(200, 4, 800, 120, 13);
        pgs_graph::io::write_edge_list(&g, &edges).unwrap();

        // Two tenants, mixed budgets/priorities; alice's sweep shares
        // one cached BFS.
        let reqs = dir.join("reqs.txt");
        std::fs::write(
            &reqs,
            "# tenant budget targets priority\n\
             alice 0.6 0,1 1\n\
             alice 0.4 0,1 1\n\
             bob   0.5 7\n\
             bob   bits:20000 -  2\n",
        )
        .unwrap();
        serve(&strs(&[
            edges.to_str().unwrap(),
            "--requests",
            reqs.to_str().unwrap(),
            "--workers",
            "2",
        ]))
        .unwrap();

        // Count-budgeted algorithms serve too.
        std::fs::write(&reqs, "carol sn:40 - 0\n").unwrap();
        serve(&strs(&[
            edges.to_str().unwrap(),
            "--requests",
            reqs.to_str().unwrap(),
            "--algorithm",
            "kgrass",
        ]))
        .unwrap();

        // Malformed lines are rejected with the line number.
        std::fs::write(&reqs, "alice nonsense 0,1\n").unwrap();
        let err = serve(&strs(&[
            edges.to_str().unwrap(),
            "--requests",
            reqs.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains(":1:"), "{err}");
        std::fs::write(&reqs, "alice 0.5 999999\n").unwrap();
        let err = serve(&strs(&[
            edges.to_str().unwrap(),
            "--requests",
            reqs.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        std::fs::write(&reqs, "# only comments\n").unwrap();
        let err = serve(&strs(&[
            edges.to_str().unwrap(),
            "--requests",
            reqs.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("no requests"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_budget_token_forms() {
        assert_eq!(parse_budget_token("0.5").unwrap(), Budget::Ratio(0.5));
        assert_eq!(
            parse_budget_token("bits:1234").unwrap(),
            Budget::Bits(1234.0)
        );
        assert_eq!(parse_budget_token("sn:40").unwrap(), Budget::Supernodes(40));
        assert!(parse_budget_token("sn:x").is_err());
        assert!(parse_budget_token("frob").is_err());
    }

    #[test]
    fn query_rejects_bad_type() {
        let dir = std::env::temp_dir().join("pgs_cli_badtype");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("s.summary");
        let g = pgs_graph::gen::erdos_renyi(20, 40, 1);
        let s = pgs_core::Summary::identity(&g);
        pgs_core::summary_io::write_summary(&s, &out).unwrap();
        let err = query(&strs(&[
            out.to_str().unwrap(),
            "--type",
            "frobnicate",
            "--node",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown query type"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_rejects_malformed_summary_files() {
        let dir = std::env::temp_dir().join("pgs_cli_malformed");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.summary");
        for body in [
            "pgs-summary v1 2 2 1\nn 0 0\nn 1 1\ne 0 7 1\n",
            "pgs-summary v1 2 2 1\nn 0 0\nn 1 1\ne 0 1 -1\n",
            "pgs-summary v1 2 2 18446744073709551615\nn 0 0\nn 1 1\n",
            "pgs-summary v1 18446744073709551615 0 0\n",
            "pgs-summary v1 1000000000 1 0\nn 0 0\n",
            "pgs-summary v1 2 1 0\nn 0 0\nn 0 1\nn 1 1\n",
            "pgs-summary v1 2 1 1\nn 0 0\nn 1 0\ne 0 0 1\ne 0 0 5\n",
        ] {
            std::fs::write(&path, body).unwrap();
            let err = query(&strs(&[
                path.to_str().unwrap(),
                "--type",
                "rwr",
                "--node",
                "0",
            ]))
            .unwrap_err();
            assert!(err.contains("format error"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summarize_rejects_out_of_range_target() {
        let dir = std::env::temp_dir().join("pgs_cli_badtarget");
        std::fs::create_dir_all(&dir).unwrap();
        let edges = dir.join("g.txt");
        let g = pgs_graph::gen::erdos_renyi(10, 20, 2);
        pgs_graph::io::write_edge_list(&g, &edges).unwrap();
        let err = summarize(&strs(&[
            edges.to_str().unwrap(),
            "-o",
            dir.join("o").to_str().unwrap(),
            "--targets",
            "999",
        ]))
        .unwrap_err();
        assert!(err.contains("out of range"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
