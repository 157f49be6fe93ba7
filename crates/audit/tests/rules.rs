//! Fixture-driven golden tests: each fixture file under
//! `tests/fixtures/` carries deliberate violations and string/comment
//! false-positive traps; the expected findings are pinned here as
//! `(rule, line)` pairs.

use darklight_audit::check_source;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

/// Runs a fixture as if it lived at `rel_path`, returning
/// `(rule, line)` pairs sorted by line.
fn pairs(rel_path: &str, name: &str) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = check_source(rel_path, &fixture(name))
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect();
    out.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
    out
}

fn s(x: &str) -> String {
    x.to_string()
}

#[test]
fn nan_ordering_fixture() {
    assert_eq!(
        pairs("crates/eval/src/nan_ordering.rs", "nan_ordering.rs"),
        vec![(s("nan-safe-ordering"), 5), (s("nan-safe-ordering"), 15)]
    );
    // The blessed home is exempt.
    assert!(pairs("crates/order/src/lib.rs", "nan_ordering.rs")
        .iter()
        .all(|(rule, _)| rule != "nan-safe-ordering"));
}

#[test]
fn iteration_fixture() {
    // Only the HashMap inside the fingerprint fn fires; the `use` line,
    // the ordinary fn, and the BTreeMap fingerprint fn stay silent.
    assert_eq!(
        pairs("crates/core/src/iteration.rs", "iteration.rs"),
        vec![(s("deterministic-iteration"), 6)]
    );
}

#[test]
fn designated_snapshot_files_flag_hashmaps_anywhere() {
    let src = "fn helper() { let m: std::collections::HashMap<u8, u8> = Default::default(); }";
    let findings = check_source("crates/obs/src/json.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "deterministic-iteration");
}

#[test]
fn metrics_fixture() {
    assert_eq!(
        pairs("crates/core/src/metrics.rs", "metrics.rs"),
        vec![
            (s("metric-name-registry"), 4),
            (s("metric-name-registry"), 5),
            (s("metric-name-registry"), 17),
        ]
    );
}
