//! CLI for the workspace static-analysis pass.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O
//! error (matching the darklight CLI's convention; pinned by
//! `tests/cli_exit.rs`).

use std::path::PathBuf;
use std::process::ExitCode;

use darklight_audit::driver;

/// Output renderings for `check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Github,
}

/// The usage text, with the rule catalog appended dynamically so the
/// help can never drift from the code the way a hand-maintained list
/// would.
fn usage() -> String {
    format!(
        "\
darklight-audit — workspace static analysis

USAGE:
    darklight-audit check [--format <human|github>] [--root <path>]
    darklight-audit rules

COMMANDS:
    check    Audit every workspace .rs file; nonzero exit on findings
    rules    List the rule catalog

OPTIONS:
    --format <fmt>  Output: human (default) or github (::error
                    annotations for CI)
    --root <path>   Workspace root (default: nearest [workspace] above cwd)

RULES:
{}",
        driver::rule_listing()
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("rules") => {
            print!("{}", driver::rule_listing());
            ExitCode::SUCCESS
        }
        _ => {
            eprint!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn check(args: &[String]) -> ExitCode {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                Some("github") => format = Format::Github,
                Some(other) => {
                    eprintln!("error: unknown format {other:?} (human, github)\n");
                    eprint!("{}", usage());
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --format requires a value\n");
                    eprint!("{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(path) => root = Some(PathBuf::from(path)),
                None => {
                    eprintln!("error: --root requires a path\n");
                    eprint!("{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?}\n");
                eprint!("{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| driver::find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("error: no [workspace] Cargo.toml above the current directory; use --root");
            return ExitCode::from(2);
        }
    };

    let report = match driver::run(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: audit walk failed: {e}");
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Human => print!("{}", report.render_human()),
        Format::Github => print!("{}", report.render_github()),
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
