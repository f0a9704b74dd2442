//! `pgs` — command-line personalized graph summarization.
//!
//! ```text
//! pgs info <edges.txt>
//! pgs summarize <edges.txt> -o <out.summary>
//!               [--algorithm pegasus|ssumm|kgrass|s2l|saags]
//!               [--budget-ratio 0.5 | --budget-bits K | --budget-supernodes S]
//!               [--targets 1,2,3] [--alpha 1.25] [--beta 0.1] [--seed 0]
//!               [--deadline-secs T] [--threads N]
//! pgs query <out.summary> --type rwr|hop|php|pagerank --node <q> [--top 10]
//!           [--truth <edges.txt>]
//! pgs query <out.summary> --type rwr|hop|php (--nodes <ids.txt> | --sample <k>)
//!           [--top 10] [--seed 0] [--threads N] [--truth <edges.txt>]
//! pgs partition <edges.txt> -m 8 [--method louvain|blp|shpi|shpii|shpkl]
//! pgs serve <edges.txt> --requests <reqs.txt> [--workers N] [--inflight K]
//!           [--tenant-deadline-ms T] [--cache C]
//!           [--metrics-dump <m.json>] [--events <e.ndjson>]
//! pgs top <metrics.json>
//! ```
//!
//! `summarize` serves all five algorithms through the unified
//! `pgs_core::api::Summarizer` request path: typed validation errors,
//! per-run stop reasons, and an optional wall-clock deadline.
//!
//! The second `query` form serves a whole batch: the summary is compiled
//! once into a `pgs_queries::QueryEngine` plan, the independent query
//! nodes fan out over `--threads` workers (0 = all hardware threads,
//! byte-identical answers at any setting), and results stream out as
//! `query  rank  node  score` TSV rows.
//!
//! Edge lists are whitespace-separated pairs per line (`#`/`%` comments),
//! the SNAP/KONECT convention; summaries use the `pgs-summary v1` format
//! of `pgs_core::summary_io`.

// Panic policy (DESIGN.md §13): `clippy.toml` exempts lock-poisoning
// unwraps; every other site carries an `#[expect(..., reason = ...)]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => commands::info(&args[1..]),
        Some("summarize") => commands::summarize(&args[1..]),
        Some("query") => commands::query(&args[1..]),
        Some("partition") => commands::partition(&args[1..]),
        Some("serve") => commands::serve(&args[1..]),
        Some("top") => commands::top(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("pgs: {msg}");
            ExitCode::FAILURE
        }
    }
}
