//! Phase-2 rules over the workspace item graph.
//!
//! Unlike the lexical rules, which see one file at a time, graph rules
//! see every production file at once: who defines which type, which
//! crate references which, which functions call which. Each rule
//! reports `(file, offset)` pairs the driver resolves to line/column,
//! exactly like the lexical catalog.
//!
//! Adding a graph rule: implement [`GraphRule`], add it to
//! [`catalog`], give it a firing and a passing fixture under
//! `tests/fixtures/graph/`, and document it in DESIGN.md §13.

use std::collections::{BTreeMap, VecDeque};

use crate::graph::{crate_refs, layer_of, FileView, ItemGraph};

/// A graph-rule violation before line/column resolution.
#[derive(Debug)]
pub struct GraphFinding {
    /// Index into the driver's file list.
    pub file_idx: usize,
    /// Byte offset of the offending token or definition.
    pub offset: usize,
    /// Human explanation, including how to fix it.
    pub message: String,
}

/// One cross-file rule.
pub trait GraphRule {
    /// Stable kebab-case id, used in output.
    fn id(&self) -> &'static str;
    /// One-line description for `darklight-audit rules`.
    fn description(&self) -> &'static str;
    /// Scans the graph, pushing raw findings.
    fn check(&self, files: &[FileView], graph: &ItemGraph, out: &mut Vec<GraphFinding>);
}

/// The graph-rule catalog, in reporting order.
pub fn catalog() -> Vec<Box<dyn GraphRule>> {
    vec![
        Box::new(CrateLayering),
        Box::new(EstimateBytesCoverage),
        Box::new(DeadlineCooperation),
        Box::new(FingerprintPurity),
    ]
}

/// `crate-layering`: the dependency order in [`crate::graph::LAYERS`]
/// is law. A `darklight_*` reference from a crate at layer L to a crate
/// at layer ≥ L is an upward (or sideways) edge the build may tolerate
/// today but the architecture does not.
struct CrateLayering;

impl GraphRule for CrateLayering {
    fn id(&self) -> &'static str {
        "crate-layering"
    }
    fn description(&self) -> &'static str {
        "darklight_* references must point strictly down the pinned layer table"
    }
    fn check(&self, files: &[FileView], _graph: &ItemGraph, out: &mut Vec<GraphFinding>) {
        for file in files {
            let Some(own) = file.crate_name() else {
                continue;
            };
            if file.file_is_test {
                continue;
            }
            let Some(own_layer) = layer_of(own) else {
                out.push(GraphFinding {
                    file_idx: file.idx,
                    offset: 0,
                    message: format!(
                        "crate `{own}` is not in the layering table \
                         (crates/audit/src/graph.rs LAYERS) — add a row pinning its layer"
                    ),
                });
                continue;
            };
            for (offset, referenced) in crate_refs(file) {
                if referenced == own {
                    continue;
                }
                match layer_of(&referenced) {
                    None => out.push(GraphFinding {
                        file_idx: file.idx,
                        offset,
                        message: format!(
                            "reference to `darklight_{referenced}`, which is not in the \
                             layering table (crates/audit/src/graph.rs LAYERS) — add a row \
                             pinning its layer"
                        ),
                    }),
                    Some(ref_layer) if ref_layer >= own_layer => out.push(GraphFinding {
                        file_idx: file.idx,
                        offset,
                        message: format!(
                            "upward dependency: crate `{own}` (layer {own_layer}) references \
                             `darklight_{referenced}` (layer {ref_layer}); the layering table \
                             only admits strictly-downward edges — invert the dependency or \
                             move the shared code below both crates"
                        ),
                    }),
                    Some(_) => {}
                }
            }
        }
    }
}

/// `estimate-bytes-coverage`: every struct/enum holding per-record or
/// per-run resident state in `core`/`features` must implement
/// `EstimateBytes`, or govern's budget math silently under-counts it.
/// "Resident state" is the transitive field closure of the seed types.
struct EstimateBytesCoverage;

/// Roots of the resident-state closure: the per-record containers plus
/// the fitted feature space every round keeps alive.
const ESTIMATE_SEEDS: &[&str] = &["Dataset", "Record", "PreparedDoc", "FeatureSpace"];

/// Crates whose type definitions participate in the closure.
const ESTIMATE_CRATES: &[&str] = &["core", "features"];

impl GraphRule for EstimateBytesCoverage {
    fn id(&self) -> &'static str {
        "estimate-bytes-coverage"
    }
    fn description(&self) -> &'static str {
        "types reachable from per-record state in core/features must impl EstimateBytes"
    }
    fn check(&self, _files: &[FileView], graph: &ItemGraph, out: &mut Vec<GraphFinding>) {
        let in_domain = |name: &str| {
            graph
                .types
                .get(name)
                .is_some_and(|t| ESTIMATE_CRATES.contains(&t.crate_name.as_str()))
        };
        // BFS over field types, remembering how each type was reached so
        // the finding can show the path.
        let mut parent: BTreeMap<String, Option<String>> = BTreeMap::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        for &seed in ESTIMATE_SEEDS {
            if in_domain(seed) {
                parent.insert(seed.to_string(), None);
                queue.push_back(seed.to_string());
            }
        }
        while let Some(name) = queue.pop_front() {
            for field_type in &graph.types[&name].field_types {
                if in_domain(field_type) && !parent.contains_key(field_type) {
                    parent.insert(field_type.clone(), Some(name.clone()));
                    queue.push_back(field_type.clone());
                }
            }
        }
        for name in parent.keys() {
            if graph
                .impls
                .contains(&("EstimateBytes".to_string(), name.clone()))
            {
                continue;
            }
            let mut path = vec![name.clone()];
            while let Some(Some(p)) = parent.get(path.last().map(String::as_str).unwrap_or("")) {
                path.push(p.clone());
            }
            path.reverse();
            let def = &graph.types[name];
            out.push(GraphFinding {
                file_idx: def.file_idx,
                offset: def.offset,
                message: format!(
                    "`{name}` holds resident state (reached via {}) but has no \
                     `impl EstimateBytes` — implement it so the memory governor can \
                     count this state (returning 0, with a doc comment saying why, \
                     if its size is not budget-relevant)",
                    path.join(" -> ")
                ),
            });
        }
    }
}

/// `deadline-cooperation`: the governed stages must stay interruptible.
/// Iterating work in `core::batch` / `core::twostage` through a bare
/// `par_map` or an unpolled `for … .chunks(…)` loop can overrun a
/// deadline by a whole stage.
struct DeadlineCooperation;

/// Files containing the governed stage loops.
const GOVERNED_FILES: &[&str] = &["crates/core/src/batch.rs", "crates/core/src/twostage.rs"];

/// Tokens that count as polling a deadline inside a loop body.
const POLL_TOKENS: &[&str] = &["is_expired(", "deadline.check("];

impl GraphRule for DeadlineCooperation {
    fn id(&self) -> &'static str {
        "deadline-cooperation"
    }
    fn description(&self) -> &'static str {
        "governed stage loops must use par_map_deadline/try_par_map or poll a Deadline"
    }
    fn check(&self, files: &[FileView], _graph: &ItemGraph, out: &mut Vec<GraphFinding>) {
        for file in files {
            if !GOVERNED_FILES.contains(&file.rel_path) || file.file_is_test {
                continue;
            }
            let text = &file.scrubbed.text;
            let bytes = text.as_bytes();
            for pattern in ["par_map(", "par_map_chunks("] {
                for offset in file.scrubbed.find_all(pattern) {
                    let bare = offset == 0
                        || !(bytes[offset - 1].is_ascii_alphanumeric()
                            || bytes[offset - 1] == b'_');
                    if !bare || file.in_test_span(offset) {
                        continue;
                    }
                    out.push(GraphFinding {
                        file_idx: file.idx,
                        offset,
                        message: format!(
                            "bare `{}` in a governed stage cannot be interrupted: use \
                             `par_map_deadline` (deadline-aware) or `try_par_map` \
                             (panic-isolating) so the stage stays cooperative",
                            pattern.trim_end_matches('(')
                        ),
                    });
                }
            }
            for offset in file.scrubbed.find_all("for ") {
                let boundary = offset == 0
                    || !(bytes[offset - 1].is_ascii_alphanumeric() || bytes[offset - 1] == b'_');
                if !boundary || file.in_test_span(offset) {
                    continue;
                }
                let Some(open_rel) = text[offset..].find('{') else {
                    continue;
                };
                let open = offset + open_rel;
                if !text[offset..open].contains(".chunks(") {
                    continue;
                }
                let mut depth = 0usize;
                let mut close = open;
                while close < bytes.len() {
                    match bytes[close] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    close += 1;
                }
                let body = &text[open..close.min(bytes.len())];
                if !POLL_TOKENS.iter().any(|t| body.contains(t)) {
                    out.push(GraphFinding {
                        file_idx: file.idx,
                        offset,
                        message: "chunked loop in a governed stage never polls its deadline: \
                                  call `deadline.is_expired()` / `deadline.check(..)` inside \
                                  the loop, or route the work through `par_map_deadline`"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// `fingerprint-purity`: checkpoint fingerprints must be pure functions
/// of config + data. A fingerprint that reads metrics, the clock, the
/// environment, or the thread count forks resume identity across runs.
struct FingerprintPurity;

impl GraphRule for FingerprintPurity {
    fn id(&self) -> &'static str {
        "fingerprint-purity"
    }
    fn description(&self) -> &'static str {
        "*fingerprint* fns may not reach metrics, clock, env, or thread-count reads"
    }
    fn check(&self, _files: &[FileView], graph: &ItemGraph, out: &mut Vec<GraphFinding>) {
        // Fixpoint: a fn is impure if it has direct evidence or any
        // same-crate bare callee resolves (by name) to an impure fn.
        // `why[i]` holds the index of the callee that contaminated fn i
        // (or its own direct evidence).
        #[derive(Clone)]
        enum Why {
            Direct(String, &'static str),
            Via(usize),
        }
        let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (i, f) in graph.fns.iter().enumerate() {
            by_name
                .entry((f.crate_name.as_str(), f.name.as_str()))
                .or_default()
                .push(i);
        }
        let mut why: Vec<Option<Why>> = graph
            .fns
            .iter()
            .map(|f| {
                f.impure
                    .first()
                    .map(|(_, token, category)| Why::Direct(token.clone(), category))
            })
            .collect();
        loop {
            let mut changed = false;
            for (i, f) in graph.fns.iter().enumerate() {
                if why[i].is_some() {
                    continue;
                }
                let contaminated = f.callees.iter().find_map(|callee| {
                    by_name
                        .get(&(f.crate_name.as_str(), callee.as_str()))
                        .and_then(|idxs| idxs.iter().find(|&&j| why[j].is_some()))
                        .copied()
                });
                if let Some(j) = contaminated {
                    why[i] = Some(Why::Via(j));
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let describe = |mut i: usize| -> String {
            let mut chain = vec![graph.fns[i].name.clone()];
            loop {
                match &why[i] {
                    Some(Why::Via(j)) => {
                        chain.push(graph.fns[*j].name.clone());
                        i = *j;
                    }
                    Some(Why::Direct(token, category)) => {
                        return format!("{} -> `{token}` ({category})", chain.join(" -> "));
                    }
                    None => return chain.join(" -> "),
                }
            }
        };
        for (i, f) in graph.fns.iter().enumerate() {
            if !f.name.contains("fingerprint") || why[i].is_none() {
                continue;
            }
            out.push(GraphFinding {
                file_idx: f.file_idx,
                offset: f.offset,
                message: format!(
                    "fingerprint fn `{}` is impure: {} — fingerprints must be pure \
                     functions of config and data, or resume identity forks across runs",
                    f.name,
                    describe(i)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract_items;
    use crate::lexer::Scrubbed;

    struct TestFile {
        rel_path: String,
        scrubbed: Scrubbed,
        items: Vec<crate::items::Item>,
        test_spans: Vec<(usize, usize)>,
    }

    fn analyze(sources: &[(&str, &str)]) -> (Vec<TestFile>, ItemGraph) {
        let files: Vec<TestFile> = sources
            .iter()
            .map(|(rel_path, src)| {
                let scrubbed = Scrubbed::new(src);
                let items = extract_items(&scrubbed);
                let test_spans = scrubbed.test_spans();
                TestFile {
                    rel_path: rel_path.to_string(),
                    scrubbed,
                    items,
                    test_spans,
                }
            })
            .collect();
        let views: Vec<FileView> = files
            .iter()
            .enumerate()
            .map(|(idx, f)| FileView {
                idx,
                rel_path: &f.rel_path,
                scrubbed: &f.scrubbed,
                items: &f.items,
                file_is_test: false,
                test_spans: &f.test_spans,
            })
            .collect();
        let graph = ItemGraph::build(&views);
        (files, graph)
    }

    fn run_rule(rule_id: &str, sources: &[(&str, &str)]) -> Vec<GraphFinding> {
        let (files, graph) = analyze(sources);
        let views: Vec<FileView> = files
            .iter()
            .enumerate()
            .map(|(idx, f)| FileView {
                idx,
                rel_path: &f.rel_path,
                scrubbed: &f.scrubbed,
                items: &f.items,
                file_is_test: false,
                test_spans: &f.test_spans,
            })
            .collect();
        let mut out = Vec::new();
        for rule in catalog() {
            if rule.id() == rule_id {
                rule.check(&views, &graph, &mut out);
            }
        }
        out
    }

    #[test]
    fn layering_flags_upward_and_unknown_edges() {
        let up = run_rule(
            "crate-layering",
            &[(
                "crates/par/src/lib.rs",
                "use darklight_core::batch::BatchConfig;\n",
            )],
        );
        assert_eq!(up.len(), 1);
        assert!(
            up[0].message.contains("upward dependency"),
            "{}",
            up[0].message
        );
        let down = run_rule(
            "crate-layering",
            &[("crates/par/src/lib.rs", "use darklight_obs::Metrics;\n")],
        );
        assert!(down.is_empty(), "{down:?}");
        let unknown = run_rule(
            "crate-layering",
            &[("crates/core/src/x.rs", "use darklight_mystery::Thing;\n")],
        );
        assert_eq!(unknown.len(), 1);
        assert!(unknown[0].message.contains("not in the layering table"));
    }

    #[test]
    fn estimate_bytes_reaches_through_fields() {
        let findings = run_rule(
            "estimate-bytes-coverage",
            &[(
                "crates/core/src/dataset.rs",
                "pub struct Record { side: SideCar }\n\
                 pub struct SideCar { n: u64 }\n\
                 impl EstimateBytes for Record { fn estimate_bytes(&self) -> u64 { 0 } }\n",
            )],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`SideCar`"));
        assert!(findings[0].message.contains("Record -> SideCar"));
    }

    #[test]
    fn estimate_bytes_ignores_types_outside_core_and_features() {
        let findings = run_rule(
            "estimate-bytes-coverage",
            &[(
                "crates/corpus/src/model.rs",
                "pub struct Record { side: SideCar }\npub struct SideCar { n: u64 }\n",
            )],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn deadline_rule_wants_cooperative_loops() {
        let src = "fn round() {\n\
                   let a = darklight_par::par_map(&xs, t, f);\n\
                   let b = darklight_par::try_par_map(&xs, t, s, f);\n\
                   let c = darklight_par::par_map_deadline(&xs, t, d, f);\n\
                   for batch in pool.chunks(n) { process(batch); }\n\
                   for batch in pool.chunks(n) { if deadline.is_expired() { break; } }\n\
                   for x in items { plain(x); }\n\
                   }\n";
        let findings = run_rule("deadline-cooperation", &[("crates/core/src/batch.rs", src)]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("bare `par_map`")));
        assert!(findings.iter().any(|f| f.message.contains("never polls")));
        // The same source outside the governed files is out of scope.
        assert!(run_rule(
            "deadline-cooperation",
            &[("crates/core/src/attrib.rs", src)]
        )
        .is_empty());
    }

    #[test]
    fn purity_is_transitive_within_a_crate() {
        let findings = run_rule(
            "fingerprint-purity",
            &[(
                "crates/core/src/batch.rs",
                "fn run_fingerprint(x: u64) -> u64 { mix(x) }\n\
                 fn mix(x: u64) -> u64 { stamp(x) }\n\
                 fn stamp(x: u64) -> u64 { let t = Instant::now(); x }\n\
                 fn pure_fingerprint(x: u64) -> u64 { x ^ 7 }\n",
            )],
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .message
                .contains("run_fingerprint -> mix -> stamp -> `Instant::now` (clock read)"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn purity_does_not_cross_crates_via_bare_names() {
        let findings = run_rule(
            "fingerprint-purity",
            &[
                (
                    "crates/core/src/a.rs",
                    "fn run_fingerprint(x: u64) -> u64 { mix(x) }\n",
                ),
                (
                    "crates/text/src/b.rs",
                    "fn mix(x: u64) -> u64 { let t = Instant::now(); x }\n",
                ),
            ],
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
