//! `pgs-analysis` — the lock-order check for the serving layer.
//!
//! `crates/serve` holds several mutexes, and one out-of-order nesting
//! is a latent deadlock that no example-based test reliably
//! reproduces. No compiler check sees lock order, so this crate reads
//! it lexically, with zero dependencies beyond `std`:
//!
//! * **PGS003** — every lock nesting in `crates/serve/src` is legal
//!   under the declared `// pgs-lock-order:` manifest (see
//!   [`rules::pgs003`]).
//!
//! `tests/serve_lock_order.rs` runs the check over the serve sources in
//! tier-1. The other invariants the engine relies on are compiler
//! checks (DESIGN.md §13): clippy's `iter_over_hash_type` for
//! hash-order iteration, the vendored `rand`'s missing entropy
//! constructors for RNG seeding, an exhaustive `match` plus
//! `tests/error_surface.rs` for the `PgsError` surface, and the
//! crate-root clippy lints for panic freedom.
//!
//! The pass is lexical, not semantic: it lexes real Rust (nested
//! comments, raw strings, lifetimes vs. char literals) and tracks
//! brace structure, but does not resolve types or names. Known
//! approximations are listed in [`rules::pgs003`] and DESIGN.md §13.

pub mod lexer;
pub mod rules;
pub mod scope;

use rules::FileCtx;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lexes and scopes every `.rs` file under `dir`, in path order. Paths
/// in the returned contexts are relative to `dir`, with `/` separators.
pub fn load_dir(dir: &Path) -> io::Result<Vec<FileCtx>> {
    let mut paths = Vec::new();
    collect_rs(dir, &mut paths)?;
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path)?;
            let rel = path
                .strip_prefix(dir)
                .unwrap_or(path)
                .to_string_lossy()
                .replace('\\', "/");
            Ok(FileCtx::new(&rel, &text))
        })
        .collect()
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
