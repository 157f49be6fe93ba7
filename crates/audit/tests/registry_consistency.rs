//! The metric-name registry must stay in lockstep with reality in both
//! directions: every name the golden schema test pins must be
//! registered, and every registered name must be anchored to a string
//! literal somewhere in the workspace. CI runs this as the
//! registry-consistency leg of the audit job.

use std::path::{Path, PathBuf};

use darklight_audit::metric_registry::{is_registered, METRIC_REGISTRY};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Pulls every `"dotted.metric.name"` literal out of a source string.
fn quoted_metric_names(source: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = source;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let Some(len) = tail.find('"') else { break };
        let candidate = &tail[..len];
        if candidate.contains('.')
            && !candidate.is_empty()
            && candidate
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
        {
            names.push(candidate.to_string());
        }
        rest = &tail[len + 1..];
    }
    names
}

#[test]
fn golden_schema_names_are_all_registered() {
    let parity = workspace_root().join("tests/metrics_parity.rs");
    let source = std::fs::read_to_string(&parity).expect("tests/metrics_parity.rs exists");
    let pinned = source
        .split("fn snapshot_schema_is_pinned")
        .nth(1)
        .expect("golden schema test present");
    let names: Vec<String> = quoted_metric_names(pinned)
        .into_iter()
        .filter(|n| n != "forum_a" && n != "forum_b")
        .collect();
    assert!(
        names.len() > 40,
        "schema extraction looks broken: {names:?}"
    );
    let missing: Vec<&String> = names.iter().filter(|n| !is_registered(n)).collect();
    assert!(
        missing.is_empty(),
        "golden-schema metrics absent from METRIC_REGISTRY: {missing:?}"
    );
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "vendor" && name != "fixtures" && !name.starts_with('.')
            {
                collect_rs(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_registered_name_is_anchored_in_source() {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "src", "tests"] {
        collect_rs(&root.join(top), &mut files);
    }
    // Skip the registry itself: it must not count as its own anchor.
    let registry_path = root.join("crates/audit/src/metric_registry.rs");
    let mut corpus = String::new();
    for file in &files {
        if *file == registry_path {
            continue;
        }
        corpus.push_str(&std::fs::read_to_string(file).expect("readable source"));
    }
    let orphans: Vec<&&str> = METRIC_REGISTRY
        .iter()
        .filter(|name| !corpus.contains(&format!("\"{name}\"")))
        .collect();
    assert!(
        orphans.is_empty(),
        "registry entries with no source anchor (stale?): {orphans:?}"
    );
}

#[test]
fn store_family_is_registered_and_anchored_in_the_store_crate() {
    // The durable-artifact counters are recorded inside darklight-store
    // (crates/store/src/epoch.rs), not through the usual pipeline crates;
    // this pins the family in both directions so a renamed counter there
    // cannot silently fork the time series.
    let epoch = workspace_root().join("crates/store/src/epoch.rs");
    let source = std::fs::read_to_string(&epoch).expect("crates/store/src/epoch.rs exists");
    // Only `counter("…")` call sites count: the store crate also names
    // fault-injection *sites* with dotted store.* literals, and those are
    // not metrics.
    let recorded: Vec<String> = source
        .lines()
        .filter(|l| l.contains(".counter("))
        .flat_map(quoted_metric_names)
        .filter(|n| n.starts_with("store."))
        .collect();
    assert!(
        !recorded.is_empty(),
        "store crate records no store.* metrics — anchor extraction broken?"
    );
    for name in &recorded {
        assert!(
            is_registered(name),
            "store crate records unregistered metric {name:?}"
        );
    }
    let registered: Vec<&&str> = METRIC_REGISTRY
        .iter()
        .filter(|n| n.starts_with("store."))
        .collect();
    assert_eq!(registered.len(), 4, "store family drifted: {registered:?}");
    for name in &registered {
        assert!(
            recorded.iter().any(|r| r == **name),
            "registered metric {name:?} is not recorded by the store crate"
        );
    }
}
