//! PGS003 over the serving layer's real sources: every lock nesting in
//! `crates/serve/src` is legal under the manifest in its `lib.rs`.

use std::path::Path;

use pgs_analysis::rules::pgs003;

#[test]
fn serve_nests_locks_only_in_declared_order() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../serve/src");
    let files = pgs_analysis::load_dir(&dir).expect("reading crates/serve/src");
    let findings = pgs003::check(&files);
    assert!(
        findings.is_empty(),
        "lock-order violations in crates/serve/src: {findings:#?}"
    );

    // The check reads real code: it sees `run_job` hold the job's
    // journal record while it inserts into the quarantined set.
    let nestings: Vec<(String, String)> = files
        .iter()
        .flat_map(|f| {
            f.scopes
                .functions
                .iter()
                .flat_map(move |span| pgs003::nesting_edges(f, span))
        })
        .map(|e| (e.outer, e.inner))
        .collect();
    assert!(
        nestings.contains(&("journal_rec".into(), "quarantined".into())),
        "{nestings:?}"
    );
}
