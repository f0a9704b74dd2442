//! `pgs-analysis` — invariant-checking static analysis for the
//! PeGaSus workspace.
//!
//! The engine's headline guarantees — byte-identical summaries at any
//! thread count, deterministic replay from a seed, a serving layer
//! that degrades instead of dying — are invariants the compiler cannot
//! see. This crate checks them lexically, with zero dependencies
//! beyond `std`, so the gate runs anywhere the toolchain does:
//!
//! * **PGS001** — unordered `HashMap`/`HashSet` iteration in engine
//!   crates (determinism).
//! * **PGS002** — entropy-seeded RNG construction in engine crates
//!   (replayability).
//! * **PGS003** — lock acquisition order in `crates/serve` against the
//!   declared `// pgs-lock-order:` manifest (deadlock freedom).
//! * **PGS005** — `PgsError` variants that are never constructed or
//!   never rendered by `Display` (error-surface completeness).
//!
//! Sites that are intentional carry an inline
//! `// pgs-allow: PGS00X <reason>` pragma on the same or preceding
//! line; the reason is mandatory and is echoed in reports. The binary
//! exits non-zero only on *undocumented* violations.
//!
//! The pass is lexical, not semantic: it lexes real Rust (nested
//! comments, raw strings, lifetimes vs. char literals) and tracks
//! brace structure, but does not resolve types or names. Known
//! approximations are listed in each rule's module docs and in
//! DESIGN.md §13. Panic freedom needs types (a `LockResult` unwrap is
//! policy, an `Option` unwrap is not), so clippy checks it instead:
//! see the crate roots of `core`, `serve` and `cli` and `clippy.toml`.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scope;
pub mod workspace;

use report::{Finding, Report};
use rules::{FileCtx, RuleSet};
use std::path::Path;

/// Checks the whole workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let files = workspace::load(root)?;
    Ok(Report::new(rules::check_all(&files)))
}

/// Checks a set of standalone files with every rule enabled — the
/// fixture / ad-hoc mode (`--file`).
pub fn check_files(named: &[(String, String)]) -> Report {
    let files: Vec<FileCtx> = named
        .iter()
        .map(|(rel, text)| FileCtx::new(rel, text, RuleSet::all()))
        .collect();
    Report::new(rules::check_all(&files))
}

/// Convenience for tests: all findings (documented and not) for one
/// source string under every rule.
pub fn check_source(rel: &str, text: &str) -> Vec<Finding> {
    check_files(&[(rel.to_string(), text.to_string())])
        .findings
        .clone()
}
