//! The audit driver: the shared two-phase engine behind both rule
//! families.
//!
//! **Phase 1** scrubs every file ([`crate::lexer::Scrubbed`]), extracts
//! its items ([`crate::items::extract_items`]), and runs the per-file
//! lexical catalog ([`crate::rules::catalog`]) outside test code.
//! **Phase 2** assembles the workspace item graph
//! ([`crate::graph::ItemGraph`]) and runs the cross-file graph catalog
//! ([`crate::graph_rules::catalog`]).
//!
//! There is no suppression syntax: every finding fails the check. Code
//! that legitimately trips a rule is restructured so it no longer does
//! (a literal metric name per `match` arm, a zero-returning
//! `EstimateBytes` impl whose doc comment says why). Rules that clippy
//! can express live in `clippy.toml` and the workspace lint table
//! instead, where `#[expect(lint, reason = "…")]` is the one way to
//! suppress (DESIGN.md §10).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::graph::{FileView, ItemGraph};
use crate::graph_rules;
use crate::items::{extract_items, Item};
use crate::lexer::Scrubbed;
use crate::rules::{catalog, FileCtx, RawFinding};

/// A fully resolved finding.
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Rule id.
    pub rule: String,
    /// Explanation.
    pub message: String,
}

/// The outcome of one audit run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, in path/line order. Each one fails the check.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
}

impl Report {
    fn summary(&self) -> String {
        format!(
            "audit: {} file(s) checked, {} error(s)\n",
            self.files_checked,
            self.findings.len()
        )
    }

    /// Human-readable rendering, one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}:{}: error[{}]: {}\n",
                f.file, f.line, f.col, f.rule, f.message
            ));
        }
        out.push_str(&self.summary());
        out
    }

    /// GitHub Actions workflow-command rendering: one `::error`
    /// annotation per finding (shown inline on the PR diff), then the
    /// human summary line.
    pub fn render_github(&self) -> String {
        fn escape(msg: &str) -> String {
            msg.replace('%', "%25")
                .replace('\r', "%0D")
                .replace('\n', "%0A")
        }
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "::error file={},line={},col={},title=audit {}::{}\n",
                f.file,
                f.line,
                f.col,
                f.rule,
                escape(&f.message)
            ));
        }
        out.push_str(&self.summary());
        out
    }
}

/// Phase-1 state for one file.
struct AnalyzedFile {
    rel_path: String,
    scrubbed: Scrubbed,
    items: Vec<Item>,
    test_spans: Vec<(usize, usize)>,
    file_is_test: bool,
}

/// Audits a set of files as one workspace: both phases, findings sorted
/// by file, line, column and rule. `sources` are `(rel_path, source)`
/// pairs.
pub fn check_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let files: Vec<AnalyzedFile> = sources
        .iter()
        .map(|(rel_path, source)| {
            let scrubbed = Scrubbed::new(source);
            let items = extract_items(&scrubbed);
            let test_spans = scrubbed.test_spans();
            let file_is_test = rel_path
                .split('/')
                .any(|part| part == "tests" || part == "benches" || part == "examples");
            AnalyzedFile {
                rel_path: rel_path.clone(),
                scrubbed,
                items,
                test_spans,
                file_is_test,
            }
        })
        .collect();

    // (file index, offset, rule, message) before line/column resolution.
    let mut raw: Vec<(usize, usize, &'static str, String)> = Vec::new();

    // Phase 1: per-file lexical rules, production code only.
    for (file_idx, file) in files.iter().enumerate() {
        if file.file_is_test {
            continue;
        }
        let ctx = FileCtx {
            rel_path: &file.rel_path,
            scrubbed: &file.scrubbed,
        };
        for rule in catalog() {
            if !rule.applies(&ctx) {
                continue;
            }
            let mut found: Vec<RawFinding> = Vec::new();
            rule.check(&ctx, &mut found);
            for rf in found {
                if !file
                    .test_spans
                    .iter()
                    .any(|&(s, e)| rf.offset >= s && rf.offset < e)
                {
                    raw.push((file_idx, rf.offset, rule.id(), rf.message));
                }
            }
        }
    }

    // Phase 2: the item graph and the cross-file rules.
    let views: Vec<FileView> = files
        .iter()
        .enumerate()
        .map(|(idx, f)| FileView {
            idx,
            rel_path: &f.rel_path,
            scrubbed: &f.scrubbed,
            items: &f.items,
            file_is_test: f.file_is_test,
            test_spans: &f.test_spans,
        })
        .collect();
    let graph = ItemGraph::build(&views);
    for rule in graph_rules::catalog() {
        let mut found: Vec<graph_rules::GraphFinding> = Vec::new();
        rule.check(&views, &graph, &mut found);
        for gf in found {
            raw.push((gf.file_idx, gf.offset, rule.id(), gf.message));
        }
    }

    // Offset order within a file is line/column order.
    raw.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
    raw.into_iter()
        .map(|(file_idx, offset, rule, message)| {
            let file = &files[file_idx];
            let (line, col) = file.scrubbed.line_col(offset);
            Finding {
                file: file.rel_path.clone(),
                line,
                col,
                rule: rule.to_string(),
                message,
            }
        })
        .collect()
}

/// Audits one file's source. Public so fixture tests can drive rules
/// against synthetic paths without touching the filesystem. The file is
/// treated as a one-file workspace: graph rules run over it too.
pub fn check_source(rel_path: &str, source: &str) -> Vec<Finding> {
    check_sources(&[(rel_path.to_string(), source.to_string())])
}

/// Walks the workspace at `root` and audits every Rust source file.
///
/// # Errors
///
/// Returns the first I/O error encountered while walking or reading.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    for top in ["crates", "src", "tests"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();

    let mut sources: Vec<(String, String)> = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    Ok(Report {
        findings: check_sources(&sources),
        files_checked: sources.len(),
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` trees hold deliberate violations for the audit's
            // own tests; `vendor` and `target` are not ours to police.
            if name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// The rule catalog as `id — description` lines (for `darklight-audit
/// rules` and the CLI usage text), assembled dynamically from the
/// lexical and graph catalogs so it can never drift from the code.
pub fn rule_listing() -> String {
    let mut by_id: BTreeMap<String, String> = BTreeMap::new();
    for rule in catalog() {
        by_id.insert(rule.id().to_string(), rule.description().to_string());
    }
    for rule in graph_rules::catalog() {
        by_id.insert(rule.id().to_string(), rule.description().to_string());
    }
    let mut out = String::new();
    for (id, desc) in by_id {
        out.push_str(&format!("{id:<26} {desc}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_files_and_cfg_test_spans_are_exempt() {
        let src = "fn prod() { a.partial_cmp(&b); }\n\
                   #[cfg(test)]\nmod tests {\n  fn t() { c.partial_cmp(&d); }\n}\n";
        let findings = check_source("crates/eval/src/a.rs", src);
        assert_eq!(findings.len(), 1, "only the production site: {findings:?}");
        assert_eq!(findings[0].line, 1);
        assert!(check_source("tests/integration.rs", src).is_empty());
    }

    #[test]
    fn check_sources_sees_across_files() {
        let files = vec![
            (
                "crates/core/src/dataset.rs".to_string(),
                "pub struct Record { w: Widget }\n\
                 impl EstimateBytes for Record { fn estimate_bytes(&self) -> u64 { 0 } }\n\
                 pub struct Widget { n: u64 }\n"
                    .to_string(),
            ),
            (
                "crates/features/src/sizes.rs".to_string(),
                "impl EstimateBytes for Widget { fn estimate_bytes(&self) -> u64 { 8 } }\n"
                    .to_string(),
            ),
        ];
        // The impl in the *other* file satisfies coverage.
        let findings = check_sources(&files);
        assert!(
            !findings.iter().any(|f| f.rule == "estimate-bytes-coverage"),
            "{findings:?}"
        );
    }

    #[test]
    fn human_report_shape() {
        let report = Report {
            findings: check_source("crates/eval/src/a.rs", "fn f() { a.partial_cmp(&b); }"),
            files_checked: 1,
        };
        let human = report.render_human();
        assert!(
            human.contains("crates/eval/src/a.rs:1:12: error[nan-safe-ordering]"),
            "{human}"
        );
        assert!(human.ends_with("audit: 1 file(s) checked, 1 error(s)\n"));
    }

    #[test]
    fn github_report_shape() {
        let report = Report {
            findings: check_source(
                "crates/eval/src/a.rs",
                "fn f() { a.partial_cmp(&b); } // % literal\n",
            ),
            files_checked: 1,
        };
        let gh = report.render_github();
        assert!(
            gh.contains(
                "::error file=crates/eval/src/a.rs,line=1,col=12,title=audit nan-safe-ordering::"
            ),
            "{gh}"
        );
        assert!(gh.contains("1 error(s)"));
    }

    #[test]
    fn rule_listing_is_dynamic_and_complete() {
        let listing = rule_listing();
        for rule in catalog() {
            assert!(listing.contains(rule.id()), "missing {}", rule.id());
        }
        for rule in graph_rules::catalog() {
            assert!(listing.contains(rule.id()), "missing {}", rule.id());
        }
        assert_eq!(listing.lines().count(), 7, "{listing}");
    }
}
