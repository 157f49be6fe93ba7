//! # darklight-audit — repo-native static analysis
//!
//! The workspace rests on a few load-bearing invariants: byte-identical
//! serial/parallel parity, NaN-tolerant total orders, layered crates,
//! an honest memory estimate for resident state, and a golden metrics
//! schema. Those that clippy can express are enforced by clippy
//! (`clippy.toml` plus the workspace lint table: no naked
//! `unwrap`/`expect` in core and features, no ambient clock reads, no
//! raw threads outside darklight-par, and `#[expect(lint, reason = "…")]`
//! as the only suppression). This crate machine-checks the rest.
//!
//! It is a dependency-free (no `syn`, no crates.io) two-phase static
//! analyzer. Phase 1 is per-file: a comment/string-aware lexer
//! ([`lexer::Scrubbed`]), a brace-matched item extractor
//! ([`items::extract_items`]), and the lexical rule catalog
//! ([`rules::catalog`]: NaN-safe ordering, deterministic iteration,
//! registered metric names). Phase 2 is cross-file: the extracted items
//! are assembled into a workspace item graph ([`graph::ItemGraph`] —
//! who defines what, which crate references which, which types get
//! which trait impls) and the graph rules ([`graph_rules::catalog`])
//! enforce the invariants no single file can witness: crate layering,
//! `EstimateBytes` coverage of resident state, deadline cooperation in
//! governed stages, and fingerprint purity. Findings are span-accurate
//! and there is no suppression syntax: every finding fails the build.
//!
//! ```text
//! cargo run -p darklight-audit -- check                  # human output
//! cargo run -p darklight-audit -- check --format github  # PR annotations
//! cargo run -p darklight-audit -- rules                  # the catalog
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod graph;
pub mod graph_rules;
pub mod items;
pub mod lexer;
pub mod metric_registry;
pub mod rules;

pub use driver::{check_source, check_sources, run, Finding, Report};
