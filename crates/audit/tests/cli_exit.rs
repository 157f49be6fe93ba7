//! Pins the CLI contract of `darklight-audit`: exit codes (0 clean,
//! 1 findings, 2 usage), the dynamic rule listing, and the `--format`
//! renderers CI consumes.

use std::path::Path;
use std::process::{Command, Output};

fn audit(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_darklight-audit"))
        .args(args)
        .output()
        .expect("spawn darklight-audit")
}

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_str()
        .expect("utf-8 path")
        .to_string()
}

#[test]
fn clean_tree_exits_zero() {
    let out = audit(&["check", "--root", &fixture("clean")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 error(s)"), "stdout: {stdout}");
}

#[test]
fn findings_exit_one_in_every_format() {
    for format in ["human", "github"] {
        let out = audit(&["check", "--root", &fixture("graph"), "--format", format]);
        assert_eq!(out.status.code(), Some(1), "format {format}: {out:?}");
    }
    // GitHub annotations name every firing rule in their title and carry
    // file/line so CI can anchor them.
    let out = audit(&["check", "--root", &fixture("graph"), "--format", "github"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "crate-layering",
        "estimate-bytes-coverage",
        "deadline-cooperation",
        "fingerprint-purity",
    ] {
        assert!(
            stdout.contains(&format!("title=audit {rule}::")),
            "github output names {rule}: {stdout}"
        );
    }
    assert!(
        stdout.contains("::error file=crates/par/src/lib.rs,line=7,"),
        "stdout: {stdout}"
    );
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["frobnicate"][..],
        &["check", "--format", "xml"][..],
        &["check", "--format", "json"][..],
        &["check", "--json"][..],
        &["check", "--unknown-flag"][..],
    ] {
        let out = audit(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {out:?}");
    }
}

#[test]
fn rules_listing_is_dynamic_and_in_help() {
    let out = audit(&["rules"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let listing = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "nan-safe-ordering",
        "crate-layering",
        "metric-name-registry",
    ] {
        assert!(listing.contains(rule), "listing names {rule}: {listing}");
    }
    // The rules clippy enforces are gone from the catalog.
    for rule in [
        "no-naked-unwrap",
        "no-ambient-time-or-rand",
        "spawn-through-par",
        "bad-suppression",
        "stale-suppression",
    ] {
        assert!(!listing.contains(rule), "listing drops {rule}: {listing}");
    }
    // The usage text embeds the same listing, so help can never go
    // stale against the catalog.
    let usage = audit(&["frobnicate"]);
    let stderr = String::from_utf8_lossy(&usage.stderr);
    assert!(stderr.contains("crate-layering"), "stderr: {stderr}");
}
