//! Rule self-tests over the fixture files: every rule has one positive
//! fixture (must produce an undocumented violation) and one negative
//! fixture (must be clean), plus a pragma-suppression check. These are
//! the same entry points the binary uses (`check_files`), so they also
//! pin the exit-code contract's `violation_count` source of truth.

use pgs_analysis::check_files;

fn fixture(name: &str) -> (String, String) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    (name.to_string(), text)
}

/// The positive fixture for `code` yields at least one undocumented
/// violation of that rule; the negative fixture yields none at all.
fn assert_rule(code: &str, pos: &str, neg: &str) {
    let report = check_files(&[fixture(pos)]);
    assert!(
        report.violations().any(|f| f.code == code),
        "{pos} should violate {code}; findings: {:#?}",
        report.findings
    );

    let report = check_files(&[fixture(neg)]);
    assert!(
        !report.violations().any(|f| f.code == code),
        "{neg} should not violate {code}; findings: {:#?}",
        report.findings
    );
}

#[test]
fn pgs001_hash_iteration() {
    assert_rule("PGS001", "pgs001_pos.rs", "pgs001_neg.rs");
}

#[test]
fn pgs002_rng_discipline() {
    assert_rule("PGS002", "pgs002_pos.rs", "pgs002_neg.rs");
}

#[test]
fn pgs003_lock_discipline() {
    assert_rule("PGS003", "pgs003_pos.rs", "pgs003_neg.rs");
}

#[test]
fn pgs005_error_surface() {
    assert_rule("PGS005", "pgs005_pos.rs", "pgs005_neg.rs");
}

#[test]
fn pragma_downgrades_a_violation_to_documented() {
    let src = "
        fn f(m: FxHashSet<u32>) -> usize {
            // pgs-allow: PGS001 order-insensitive count
            m.iter().count()
        }
    ";
    let report = check_files(&[("pragma.rs".to_string(), src.to_string())]);
    assert_eq!(report.violation_count(), 0, "{:#?}", report.findings);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(
        report.findings[0].allowed.as_deref(),
        Some("order-insensitive count")
    );
}

#[test]
fn pragma_without_reason_does_not_suppress() {
    let src = "
        fn f(m: FxHashSet<u32>) -> usize {
            // pgs-allow: PGS001
            m.iter().count()
        }
    ";
    let report = check_files(&[("pragma.rs".to_string(), src.to_string())]);
    assert_eq!(report.violation_count(), 1, "{:#?}", report.findings);
}

#[test]
fn json_report_is_well_formed_enough_for_ci() {
    let report = check_files(&[fixture("pgs001_pos.rs")]);
    let json = report.render_json();
    assert!(json.contains("\"version\": 1"), "{json}");
    assert!(json.contains("\"code\": \"PGS001\""), "{json}");
    assert!(json.contains("\"violations\""), "{json}");
}
