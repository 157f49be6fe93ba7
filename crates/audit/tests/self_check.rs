//! The audit must pass on its own workspace — this is the acceptance
//! criterion (`cargo run -p darklight-audit -- check` exits 0) in test
//! form, plus proof that a seeded violation *would* fail the build
//! without having to break the tree.

use std::path::Path;

use darklight_audit::{check_source, driver};

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_tree_is_clean() {
    let report = driver::run(&workspace_root()).expect("audit walk");
    assert!(report.files_checked > 50, "walk found the workspace");
    let errors: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}:{} [{}] {}", f.file, f.line, f.col, f.rule, f.message))
        .collect();
    assert!(
        errors.is_empty(),
        "audit findings in the tree:\n{}",
        errors.join("\n")
    );
}

#[test]
fn seeded_violation_fails_the_check() {
    // The CI job fails on any finding; demonstrate with a seeded
    // violation instead of breaking the tree. The `.unwrap()` is
    // clippy's to flag (`clippy::unwrap_used`), not the audit's.
    let findings = check_source(
        "crates/core/src/seeded.rs",
        "fn f(s: &mut [f64]) { s.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
    );
    let rules: Vec<&str> = findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, ["nan-safe-ordering"]);
    let report = darklight_audit::Report {
        findings,
        files_checked: 1,
    };
    assert!(report
        .render_human()
        .ends_with("audit: 1 file(s) checked, 1 error(s)\n"));
}

#[test]
fn rule_listing_names_exactly_the_kept_rules() {
    let listing = driver::rule_listing();
    let ids: Vec<&str> = listing
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        ids,
        [
            "crate-layering",
            "deadline-cooperation",
            "deterministic-iteration",
            "estimate-bytes-coverage",
            "fingerprint-purity",
            "metric-name-registry",
            "nan-safe-ordering",
        ]
    );
}
