//! # darklight
//!
//! A from-scratch Rust implementation of the alias-linking pipeline of
//! *"A Light in the Dark Web: Linking Dark Web Aliases to Real Internet
//! Identities"* (Arabnezhad, La Morgia, Mei, Nemmi, Stefa — ICDCS 2020):
//! linking forum aliases across the Dark Web and the open web by combining
//! **stylometry** (TF-IDF-weighted word/char n-grams and char-class
//! frequencies) with **daily activity profiles** (24-bin posting-hour
//! histograms), through a two-stage *k-attribution → re-fit → threshold*
//! pipeline.
//!
//! The workspace is organized as one crate per subsystem, re-exported here:
//!
//! * [`activity`] — civil time, holiday calendars, activity profiles;
//! * [`text`] — tokenizer, lemmatizer, normalization, language detection;
//! * [`features`] — sparse vectors, n-grams, TF-IDF, the Table II pipeline;
//! * [`corpus`] — the forum data model, the 12 polishing steps, refinement
//!   and alter-ego generation, statistics, TSV I/O;
//! * [`synth`] — the synthetic three-forum world used in place of the
//!   paper's (non-public) scraped datasets;
//! * [`core`] — k-attribution, the two-stage algorithm, baselines, batch
//!   mode, and the high-level [`Linker`](core::linker::Linker);
//! * [`eval`] — precision/recall curves, AUC, accuracy@k, verdict
//!   simulation, and personal-profile aggregation;
//! * [`obs`] — opt-in pipeline metrics (counters, gauges, stage timers,
//!   latency histograms) with a dependency-free JSON snapshot;
//! * [`govern`] — the resource governor: memory-budgeted batch sizing,
//!   cooperative stage deadlines, and deterministic retrying I/O;
//! * [`par`] — the shared scoped-thread worker-pool helpers every parallel
//!   stage routes through (deterministic indexed parallel map);
//! * [`store`] — durable fit artifacts: a versioned, checksummed,
//!   epoch-swapped container for persisted pipeline state (DESIGN.md §14);
//! * [`bench`] — the experiment harness behind the `repro` binary and the
//!   `bench-matrix` scenario-matrix benchmark (DESIGN.md §12).
//!
//! # Quickstart
//!
//! ```
//! use darklight::core::linker::{Linker, LinkerConfig};
//! use darklight::corpus::model::{Corpus, Post, User};
//!
//! // Two forums where the same person posts under different aliases.
//! let mut forum_a = Corpus::new("forum_a");
//! let mut forum_b = Corpus::new("forum_b");
//! let base = 1_486_375_200; // Monday 2017-02-06, 10:00 UTC
//! for (corpus, alias) in [(&mut forum_a, "night_gardener"), (&mut forum_b, "moss_witch")] {
//!     let mut user = User::new(alias, Some(1));
//!     for i in 0..95i64 {
//!         let ts = base + (i / 5) * 7 * 86_400 + (i % 5) * 86_400;
//!         user.posts.push(Post::new(
//!             format!("my orchid greenhouse log entry {i}: the phalaenopsis cuttings rooted \
//!                      nicely and the terrarium humidity sensors read steady again"),
//!             ts,
//!         ));
//!     }
//!     corpus.users.push(user);
//! }
//!
//! let mut config = LinkerConfig::default();
//! config.two_stage.threshold = 0.5;
//! let matches = Linker::new(config).try_link(&forum_a, &forum_b)?;
//! assert_eq!(matches[0].known_alias, "night_gardener");
//! assert_eq!(matches[0].unknown_alias, "moss_witch");
//! # Ok::<(), darklight::core::batch::BatchError>(())
//! ```

#![forbid(unsafe_code)]

pub use darklight_activity as activity;
pub use darklight_bench as bench;
pub use darklight_core as core;
pub use darklight_corpus as corpus;
pub use darklight_eval as eval;
pub use darklight_features as features;
pub use darklight_govern as govern;
pub use darklight_obs as obs;
pub use darklight_par as par;
pub use darklight_store as store;
pub use darklight_synth as synth;
pub use darklight_text as text;

/// Commonly used types, importable in one line.
pub mod prelude {
    pub use darklight_activity::profile::{DailyActivityProfile, ProfileBuilder, ProfilePolicy};
    pub use darklight_core::dataset::{Dataset, DatasetBuilder, Record};
    pub use darklight_core::linker::{AliasMatch, Linker, LinkerConfig};
    pub use darklight_core::twostage::{RankedMatch, TwoStage, TwoStageConfig};
    pub use darklight_corpus::model::{Corpus, Fact, FactKind, Post, User};
    pub use darklight_corpus::polish::{PolishConfig, Polisher};
    pub use darklight_eval::curve::PrCurve;
    pub use darklight_eval::verdict::{judge_pair, Verdict};
    pub use darklight_features::pipeline::{FeatureConfig, FeatureExtractor};
    pub use darklight_obs::PipelineMetrics;
    pub use darklight_synth::scenario::{Scenario, ScenarioBuilder, ScenarioConfig};
}
