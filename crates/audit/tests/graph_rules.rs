//! Pins the graph-rule fixtures: every rule in the cross-file family
//! has at least one firing and one passing construct under
//! `tests/fixtures/graph/`, and the clean fixture stays clean.
//!
//! The firing pins are exact `(file, line, rule)` triples so a drifting
//! span (an extractor regression, say) fails loudly rather than merely
//! moving a finding to a neighbouring line.

use std::path::Path;

use darklight_audit::driver;

fn fixture_root(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn graph_fixture_fires_every_rule_at_pinned_spans() {
    let report = driver::run(&fixture_root("graph")).expect("fixture tree is readable");
    assert_eq!(report.files_checked, 5);

    let errors: Vec<(String, usize, String)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule.clone()))
        .collect();
    let s = |v: &str| v.to_string();
    assert_eq!(
        errors,
        vec![
            (s("crates/core/src/batch.rs"), 9, s("deadline-cooperation")),
            (s("crates/core/src/batch.rs"), 13, s("deadline-cooperation")),
            (
                s("crates/core/src/dataset.rs"),
                11,
                s("estimate-bytes-coverage")
            ),
            (
                s("crates/core/src/fingerprint.rs"),
                7,
                s("fingerprint-purity")
            ),
            (s("crates/par/src/lib.rs"), 7, s("crate-layering")),
        ]
    );

    // The passing constructs stay silent: no finding on the
    // deadline-aware map (line 11), the polled loop (line 17), the
    // covered Record impl, the pure fingerprint, or the downward
    // `darklight_obs` edge (line 8 of the par fixture).
    assert!(!errors
        .iter()
        .any(|(f, l, _)| f == "crates/core/src/batch.rs" && (*l == 11 || *l >= 17)));
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("Record -> SideCar")),
        "coverage finding shows the reachability path: {messages:?}"
    );
    assert!(
        messages.iter().any(|m| m
            .contains("run_fingerprint -> mix -> stamp -> `resolve_threads` (thread-count read)")),
        "purity finding shows the contamination chain: {messages:?}"
    );
}

#[test]
fn clean_fixture_is_clean() {
    let report = driver::run(&fixture_root("clean")).expect("fixture tree is readable");
    assert_eq!(report.files_checked, 1);
    assert!(report.findings.is_empty());
}
