//! Property-based tests for the feature substrate.

use darklight_features::ngram::{char_ngrams_free_space, char_ngrams_up_to, word_ngrams_up_to};
use darklight_features::pipeline::{CountedDoc, FeatureConfig, FeatureExtractor, PreparedDoc};
use darklight_features::sparse::SparseVector;
use darklight_features::vocab::{count_terms, VocabBuilder};
use proptest::prelude::*;

fn sparse_strategy() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..500, -10.0f32..10.0), 0..40).prop_map(SparseVector::from_pairs)
}

fn nonneg_sparse_strategy() -> impl Strategy<Value = SparseVector> {
    proptest::collection::vec((0u32..500, 0.01f32..10.0), 0..40).prop_map(SparseVector::from_pairs)
}

proptest! {
    /// Sparse indices are strictly increasing after construction.
    #[test]
    fn sparse_indices_sorted(v in sparse_strategy()) {
        let idx: Vec<u32> = v.iter().map(|(i, _)| i).collect();
        for w in idx.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Dot product is symmetric.
    #[test]
    fn dot_symmetric(a in sparse_strategy(), b in sparse_strategy()) {
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-6);
    }

    /// Cosine of non-negative vectors is in [0, 1]; self-cosine is 1 for
    /// non-empty vectors.
    #[test]
    fn cosine_nonneg_bounds(a in nonneg_sparse_strategy(), b in nonneg_sparse_strategy()) {
        let c = a.cosine(&b);
        prop_assert!((-1e-9..=1.0 + 1e-6).contains(&c), "cosine {c}");
        if !a.is_empty() {
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-6);
        }
    }

    /// Normalization yields unit norm (or keeps the zero vector zero).
    #[test]
    fn l2_normalized_unit(v in sparse_strategy()) {
        let u = v.l2_normalized();
        if v.is_empty() {
            prop_assert!(u.is_empty());
        } else {
            prop_assert!((u.norm() - 1.0).abs() < 1e-4);
        }
    }

    /// Word n-gram count matches the closed form Σ_{n=1..N} (L - n + 1)⁺.
    #[test]
    fn word_ngram_count_closed_form(words in proptest::collection::vec("[a-z]{1,6}", 0..30), max_n in 1usize..5) {
        let toks: Vec<String> = words;
        let expected: usize = (1..=max_n)
            .map(|n| toks.len().saturating_sub(n - 1))
            .sum();
        prop_assert_eq!(word_ngrams_up_to(&toks, max_n).count(), expected);
    }

    /// Free-space char n-grams never contain whitespace.
    #[test]
    fn free_space_has_no_whitespace(s in "\\PC{0,100}", n in 1usize..6) {
        for g in char_ngrams_free_space(&s, n) {
            prop_assert!(!g.chars().any(|c| c.is_whitespace()));
            prop_assert_eq!(g.chars().count(), n);
        }
    }

    /// Every char n-gram has exactly n chars.
    #[test]
    fn char_ngram_lengths(s in "\\PC{0,100}", max_n in 1usize..6) {
        for g in char_ngrams_up_to(&s, max_n) {
            let l = g.chars().count();
            prop_assert!(l >= 1 && l <= max_n);
        }
    }

    /// Top-N selection returns at most N terms and is stable across calls.
    #[test]
    fn top_n_bounded_and_deterministic(
        docs in proptest::collection::vec(proptest::collection::vec("[a-c]{1,2}", 1..20), 1..8),
        n in 1usize..10,
    ) {
        let mut b = VocabBuilder::new();
        for d in &docs {
            b.add_doc_counts(&count_terms(d.iter().cloned()));
        }
        let v1 = b.select_top(n);
        let v2 = b.select_top(n);
        prop_assert!(v1.len() <= n);
        let mut t1: Vec<(String, u32)> = v1.iter().map(|(t, i)| (t.to_string(), i)).collect();
        let mut t2: Vec<(String, u32)> = v2.iter().map(|(t, i)| (t.to_string(), i)).collect();
        t1.sort();
        t2.sort();
        prop_assert_eq!(t1, t2);
    }

    /// Pipeline vectors are unit-norm and vectorization is deterministic.
    #[test]
    fn pipeline_vectors_unit_and_deterministic(texts in proptest::collection::vec("[a-z !.,]{10,80}", 2..5)) {
        let docs: Vec<CountedDoc> = texts
            .iter()
            .map(|t| CountedDoc::from_prepared(&PreparedDoc::prepare(t, None), 3, 5))
            .collect();
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit_counted(&docs);
        for d in &docs {
            let v1 = space.vectorize_counted(d, None);
            let v2 = space.vectorize_counted(d, None);
            prop_assert_eq!(&v1, &v2);
            if !v1.is_empty() {
                prop_assert!((v1.norm() - 1.0).abs() < 1e-4);
            }
        }
    }

    /// Truncating a document never increases its word count and preserves a
    /// prefix.
    #[test]
    fn truncation_is_prefix(text in "[a-z ]{0,200}", budget in 0usize..40) {
        let d = PreparedDoc::prepare(&text, None);
        let t = d.truncate_words(budget);
        prop_assert!(t.word_len() <= budget.max(d.word_len().min(budget)));
        prop_assert_eq!(t.words(), &d.words()[..t.word_len()]);
    }
}
