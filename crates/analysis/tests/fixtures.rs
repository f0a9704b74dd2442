//! Rule self-test over the fixture files: the positive fixture nests
//! two locks against its manifest and must produce a violation; the
//! negative fixture follows the manifest and must be clean.

use pgs_analysis::rules::{pgs003, FileCtx};

fn fixture(name: &str) -> FileCtx {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    FileCtx::new(name, &text)
}

#[test]
fn pgs003_lock_discipline() {
    let findings = pgs003::check(&[fixture("pgs003_pos.rs")]);
    assert!(
        findings.iter().any(|f| f.category == "lock-order"),
        "pgs003_pos.rs should violate the lock order; findings: {findings:#?}"
    );
    let findings = pgs003::check(&[fixture("pgs003_neg.rs")]);
    assert!(
        findings.is_empty(),
        "pgs003_neg.rs should be clean; findings: {findings:#?}"
    );
}
