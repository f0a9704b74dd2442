//! Workspace discovery: which files to scan and with which rules.
//!
//! The mapping is by crate, following the invariants each crate
//! carries (DESIGN.md §13):
//!
//! | crate                                  | rules                       |
//! |----------------------------------------|-----------------------------|
//! | `core`                                 | PGS001, PGS002, PGS004      |
//! | `baselines`, `partition`, `queries`    | PGS001, PGS002              |
//! | `serve`                                | PGS003, PGS004              |
//! | `cli`                                  | PGS004                      |
//! | `graph`, `distributed`                 | (PGS005 occurrence scan)    |
//!
//! Everything first-party is still *loaded* so the cross-file PGS005
//! scan sees every `PgsError::` occurrence. Excluded entirely:
//! `vendor/` (third-party), `crates/bench` (experiment binaries, not
//! library code), and `crates/analysis` itself (its fixtures and rule
//! tables are full of deliberate violations).

use crate::rules::{FileCtx, RuleSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates never scanned, not even for PGS005 occurrences.
const SKIP_CRATES: &[&str] = &["bench", "analysis"];

/// Per-crate rule mapping.
fn rules_for(crate_name: &str) -> RuleSet {
    match crate_name {
        "core" => RuleSet {
            hash_iteration: true,
            rng_discipline: true,
            panic_freedom: true,
            ..RuleSet::default()
        },
        "baselines" | "partition" | "queries" => RuleSet {
            hash_iteration: true,
            rng_discipline: true,
            ..RuleSet::default()
        },
        "serve" => RuleSet {
            lock_discipline: true,
            panic_freedom: true,
            ..RuleSet::default()
        },
        "cli" => RuleSet {
            panic_freedom: true,
            ..RuleSet::default()
        },
        _ => RuleSet::default(),
    }
}

/// Loads every first-party source file under `root` (the workspace
/// root) as a [`FileCtx`], rules assigned per crate. Paths in findings
/// are workspace-relative with `/` separators.
pub fn load(root: &Path) -> io::Result<Vec<FileCtx>> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if SKIP_CRATES.contains(&name.as_str()) {
            continue;
        }
        let rules = rules_for(&name);
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for path in files {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(FileCtx::new(&rel, &text, rules));
        }
    }
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_mapping_matches_design() {
        assert!(rules_for("core").hash_iteration);
        assert!(rules_for("core").panic_freedom);
        assert!(!rules_for("core").lock_discipline);
        assert!(rules_for("serve").lock_discipline);
        assert!(rules_for("serve").panic_freedom);
        assert!(!rules_for("serve").hash_iteration);
        assert!(rules_for("cli").panic_freedom);
        assert_eq!(rules_for("graph"), RuleSet::default());
    }
}
