//! Stylometric feature extraction for the `darklight` pipeline.
//!
//! Implements the feature families of Table II of the paper:
//!
//! | family | space reduction | final stage |
//! |---|---|---|
//! | word n-grams, n = 1–3 | top 60,000 | top 50,000 |
//! | char n-grams, n = 1–5 | top 30,000 | top 15,000 |
//! | punctuation frequencies | 11 | 11 |
//! | digit frequencies | 10 | 10 |
//! | special-char frequencies | 21 | 21 |
//! | daily activity profile | 24 | 24 |
//!
//! N-grams are ranked by corpus frequency, the top N selected, and weighted
//! with TF-IDF; the fixed-slot char-class frequencies and the activity
//! profile are concatenated after the n-gram block. All vectors are sparse
//! and L2-normalized so that a dot product *is* the cosine similarity the
//! attribution stage ranks by.
//!
//! Modules:
//! * [`sparse`] — sorted sparse vectors with dot/cosine/concat;
//! * [`ngram`] — word and character n-gram extraction (including the
//!   space-free char 4-grams of the standard baseline);
//! * [`vocab`] — corpus-frequency counting and top-N vocabulary selection;
//! * [`tfidf`] — smoothed TF-IDF weighting;
//! * [`charfreq`] — the 42 fixed char-class frequency slots;
//! * [`pipeline`] — the end-to-end extractor with the two Table II presets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod charfreq;
pub mod ngram;
pub mod pipeline;
pub mod sparse;
pub mod tfidf;
pub mod vocab;

pub use pipeline::{CountedDoc, FeatureConfig, FeatureExtractor, FeatureSpace, PreparedDoc};
pub use sparse::SparseVector;
pub use tfidf::TfIdf;
pub use vocab::Vocabulary;
