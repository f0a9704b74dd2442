//! The pegasus-summary benchmark.
//!
//! ```text
//! pgs-perfbench gen --workload W --seed N --out GRAPH
//! pgs-perfbench run --workload W --seed N --seconds S --trace 0|1 --graph GRAPH --work DIR
//! pgs-perfbench load --graph GRAPH --reps R
//! ```
//!
//! `gen` writes the workload's seeded input graph as an edge list; it
//! runs in its own process so that generation leaves no trace in the
//! measuring process's memory or allocator. `run` loads that edge list
//! (set-up), measures the workload for `S` seconds, checks every
//! output, and prints one JSON result line: end-to-end metrics, or with
//! `--trace 1` the per-layer metrics from spans recorded around calls
//! into each crate. `perfbench/run.py` drives both steps. `load` is
//! what `run` starts to time set-up in fresh processes: it loads the
//! edge list `R` times and prints the median seconds per load.

#![forbid(unsafe_code)]

mod common;
mod inputs;
mod query_cluster;
mod report;
mod serve_tenants;
mod stats;
mod summarize_ba;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;

/// Parsed `--flag value` pairs.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse().map_err(|_| format!("bad --{name} {v}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("pgs-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let (cmd, rest) = raw
        .split_first()
        .ok_or("usage: pgs-perfbench gen|run ...")?;
    let args = Args::parse(rest)?;
    if cmd == "load" {
        let reps: usize = args.parsed("reps")?;
        let (_, _, median_s) = common::time_loads(&PathBuf::from(args.get("graph")?), reps)?;
        println!("{median_s:?}");
        return Ok(ExitCode::SUCCESS);
    }
    let workload = args.workload()?;
    let seed: u64 = args.parsed("seed")?;
    match cmd.as_str() {
        "gen" => {
            let out = PathBuf::from(args.get("out")?);
            inputs::write_graph(workload, seed, &out)
                .map_err(|e| format!("writing {}: {e}", out.display()))?;
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let seconds: f64 = args.parsed("seconds")?;
            if !(seconds > 0.0 && seconds.is_finite()) {
                return Err(format!("--seconds must be positive, got {seconds}"));
            }
            let ctx = common::Ctx {
                seed,
                seconds,
                trace: args.parsed::<u8>("trace")? != 0,
                graph: PathBuf::from(args.get("graph")?),
                work: PathBuf::from(args.get("work")?),
            };
            let report = match workload {
                Workload::SummarizeBa => summarize_ba::run(&ctx),
                Workload::ServeTenants => serve_tenants::run(&ctx),
                Workload::QueryCluster => query_cluster::run(&ctx),
            }?;
            for f in report.checks.failures() {
                eprintln!("check failed: {f}");
            }
            println!("{}", report.to_json());
            let ok = report.checks.passed() && report.failed == 0;
            Ok(if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown command {other}")),
    }
}
