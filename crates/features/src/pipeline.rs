//! The end-to-end feature extractor (Table II).
//!
//! [`PreparedDoc`] performs the per-user work that does not depend on the
//! candidate set (tokenize, lemmatize, char-class counts), and
//! [`CountedDoc`] counts its n-grams once. A [`FeatureExtractor`] is then
//! *fitted* on a set of counted documents — ranking n-grams by corpus
//! frequency, selecting the top N per family, and computing IDF —
//! producing a [`FeatureSpace`] that vectorizes any counted document into
//! the concatenated, L2-normalized feature vector:
//!
//! ```text
//! [ word 1–3-grams | char 1–5-grams | 42 char-class slots | 24-bin activity ]
//! ```
//!
//! The paper's *two-stage* trick (§IV-I) — refitting the space on just the
//! k surviving candidates, which re-ranks the selected n-grams and changes
//! the IDF weights — is expressed by simply fitting a second
//! `FeatureExtractor` on the candidate subset.
//!
//! Block weighting: each block is L2-normalized and scaled by a
//! configurable weight before concatenation, then the whole vector is
//! normalized. The cosine of two such vectors is the weight-averaged cosine
//! of the blocks; the defaults favour the text blocks with the activity
//! profile as the behavioural side-channel, matching the relative boosts
//! reported in Fig. 4 of the paper.

use crate::charfreq::{char_class_frequencies, NUM_SLOTS};
use crate::ngram::{char_ngrams_up_to, word_ngrams_up_to};
use crate::sparse::SparseVector;
use crate::tfidf::TfIdf;
use crate::vocab::{count_terms, VocabBuilder, Vocabulary};
use darklight_activity::profile::{DailyActivityProfile, HOURS};
use darklight_govern::EstimateBytes;
use darklight_obs::{Counter, PipelineMetrics, Timer};
use darklight_text::lemma::Lemmatizer;
use darklight_text::token::{TokenKind, Tokenizer};

/// Configuration of the feature families (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureConfig {
    /// Maximum word n-gram length (paper: 3).
    pub max_word_n: usize,
    /// Maximum char n-gram length (paper: 5).
    pub max_char_n: usize,
    /// Word n-grams kept after corpus-frequency ranking.
    pub top_word_ngrams: usize,
    /// Char n-grams kept after corpus-frequency ranking.
    pub top_char_ngrams: usize,
    /// Weight of the word n-gram block.
    pub word_weight: f32,
    /// Weight of the char n-gram block.
    pub char_weight: f32,
    /// Weight of the 42 char-class slots (0 disables the block).
    pub char_class_weight: f32,
    /// Weight of the 24-bin activity profile (0 disables the block).
    pub activity_weight: f32,
}

impl FeatureConfig {
    /// The search-space-reduction preset: 60,000 word + 30,000 char n-grams
    /// (Table II, "Space Reduction" column).
    pub fn space_reduction() -> FeatureConfig {
        FeatureConfig {
            max_word_n: 3,
            max_char_n: 5,
            top_word_ngrams: 60_000,
            top_char_ngrams: 30_000,
            word_weight: 1.0,
            char_weight: 1.0,
            char_class_weight: 0.25,
            activity_weight: 0.2,
        }
    }

    /// The final-classification preset: 50,000 word + 15,000 char n-grams
    /// (Table II, "Final" column).
    pub fn final_stage() -> FeatureConfig {
        FeatureConfig {
            top_word_ngrams: 50_000,
            top_char_ngrams: 15_000,
            ..FeatureConfig::space_reduction()
        }
    }

    /// Returns a copy with the activity block disabled — the "text features
    /// only" configuration of Table III and Fig. 4.
    pub fn without_activity(mut self) -> FeatureConfig {
        self.activity_weight = 0.0;
        self
    }
}

impl Default for FeatureConfig {
    fn default() -> FeatureConfig {
        FeatureConfig::space_reduction()
    }
}

impl EstimateBytes for FeatureConfig {
    fn estimate_bytes(&self) -> u64 {
        // Four usize knobs plus four f32 weights, all inline.
        4 * 8 + 4 * 4
    }
}

/// A document after per-user preprocessing: lemmatized word tokens, the
/// whitespace-normalized character stream, and char-class frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedDoc {
    words: Vec<String>,
    char_text: String,
    char_class: [f64; NUM_SLOTS],
}

impl PreparedDoc {
    /// Prepares a document: tokenizes, lowercases, lemmatizes (when a
    /// lemmatizer is supplied), and computes char-class frequencies.
    ///
    /// ```
    /// use darklight_features::pipeline::PreparedDoc;
    /// use darklight_text::lemma::Lemmatizer;
    /// let l = Lemmatizer::new();
    /// let d = PreparedDoc::prepare("The wolves were running fast!", Some(&l));
    /// assert_eq!(d.words(), ["the", "wolf", "be", "run", "fast"]);
    /// ```
    pub fn prepare(text: &str, lemmatizer: Option<&Lemmatizer>) -> PreparedDoc {
        let mut words = Vec::new();
        for t in Tokenizer::new(text) {
            match t.kind {
                TokenKind::Word => {
                    let lower = t.text.to_lowercase();
                    let lemma = match lemmatizer {
                        Some(l) => l.lemma_owned(&lower),
                        None => lower,
                    };
                    words.push(lemma);
                }
                TokenKind::Number => words.push(t.text.to_string()),
                _ => {}
            }
        }
        PreparedDoc {
            words,
            char_text: text.to_string(),
            char_class: char_class_frequencies(text),
        }
    }

    /// The lemmatized word/number tokens.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Number of word/number tokens — the paper's "number of words per
    /// user" knob (Table III).
    pub fn word_len(&self) -> usize {
        self.words.len()
    }

    /// The raw character stream used for char n-grams.
    pub fn char_text(&self) -> &str {
        &self.char_text
    }

    /// Truncates the document to its first `max_words` word tokens, also
    /// truncating the character stream proportionally. Used by the
    /// word-budget sweep of Table III.
    pub fn truncate_words(&self, max_words: usize) -> PreparedDoc {
        if max_words >= self.words.len() {
            return self.clone();
        }
        let words: Vec<String> = self.words[..max_words].to_vec();
        let keep_ratio = max_words as f64 / self.words.len() as f64;
        let keep_chars = (self.char_text.chars().count() as f64 * keep_ratio) as usize;
        let char_text: String = self.char_text.chars().take(keep_chars).collect();
        let char_class = char_class_frequencies(&char_text);
        PreparedDoc {
            words,
            char_text,
            char_class,
        }
    }
}

/// A document with its n-gram counts precomputed at the maximum n-gram
/// lengths. Counting is the expensive part of vectorization; the two-stage
/// algorithm refits a feature space per unknown user, so counting once per
/// document (instead of once per refit) is a large win.
#[derive(Debug, Clone, PartialEq)]
pub struct CountedDoc {
    word_counts: std::collections::HashMap<String, u32>,
    char_counts: std::collections::HashMap<String, u32>,
    char_class: [f64; NUM_SLOTS],
    word_len: usize,
}

impl CountedDoc {
    /// Counts a prepared document's n-grams up to the given maxima (use the
    /// largest `max_word_n`/`max_char_n` of any config you will fit).
    pub fn from_prepared(doc: &PreparedDoc, max_word_n: usize, max_char_n: usize) -> CountedDoc {
        CountedDoc {
            word_counts: count_terms(word_ngrams_up_to(&doc.words, max_word_n)),
            char_counts: count_terms(char_ngrams_up_to(&doc.char_text, max_char_n)),
            char_class: doc.char_class,
            word_len: doc.words.len(),
        }
    }

    /// Number of word tokens in the underlying document.
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// The word n-gram counts.
    pub fn word_counts(&self) -> &std::collections::HashMap<String, u32> {
        &self.word_counts
    }

    /// The char n-gram counts.
    pub fn char_counts(&self) -> &std::collections::HashMap<String, u32> {
        &self.char_counts
    }
}

/// Rough bytes of one counting map: string payload plus a flat per-entry
/// charge for the `String` header, the `u32`, and bucket overhead. A sum
/// over entries is order-independent, so the estimate is deterministic
/// even though the map itself is not.
fn count_map_bytes(map: &std::collections::HashMap<String, u32>) -> u64 {
    map.keys().map(|k| k.len() as u64 + 48).sum::<u64>() + 48
}

impl EstimateBytes for PreparedDoc {
    fn estimate_bytes(&self) -> u64 {
        self.words.iter().map(|w| w.len() as u64 + 24).sum::<u64>()
            + self.char_text.len() as u64
            + (NUM_SLOTS as u64) * 8
            + 64
    }
}

impl EstimateBytes for CountedDoc {
    fn estimate_bytes(&self) -> u64 {
        count_map_bytes(&self.word_counts)
            + count_map_bytes(&self.char_counts)
            + (NUM_SLOTS as u64) * 8
            + 64
    }
}

/// Pre-resolved instruments for the vectorization hot path; all no-ops
/// unless the extractor was given an enabled [`PipelineMetrics`].
#[derive(Debug, Clone, Default)]
struct SpaceInstruments {
    /// Wall-clock per `vectorize_counted` call.
    vectorize: Timer,
    /// Documents vectorized in this space.
    vectors: Counter,
    /// Total non-zero entries across produced vectors.
    nnz: Counter,
}

impl EstimateBytes for SpaceInstruments {
    /// Zero: these are shared metric handles, not per-record data, so
    /// the governor never counts them.
    fn estimate_bytes(&self) -> u64 {
        0
    }
}

/// A fitted feature space: frozen vocabularies, IDF weights, and the block
/// layout.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    config: FeatureConfig,
    word_vocab: Vocabulary,
    word_tfidf: TfIdf,
    char_vocab: Vocabulary,
    char_tfidf: TfIdf,
    instruments: SpaceInstruments,
}

impl EstimateBytes for FeatureSpace {
    fn estimate_bytes(&self) -> u64 {
        self.config.estimate_bytes()
            + self.word_vocab.estimate_bytes()
            + self.word_tfidf.estimate_bytes()
            + self.char_vocab.estimate_bytes()
            + self.char_tfidf.estimate_bytes()
            + self.instruments.estimate_bytes()
    }
}

/// Fits [`FeatureSpace`]s on document collections.
#[derive(Debug, Clone, Default)]
pub struct FeatureExtractor {
    config: FeatureConfig,
    metrics: PipelineMetrics,
    /// Worker threads for fitting (0/1 = serial). Callers pass an already
    /// resolved count; the two-stage engine's per-unknown refits stay
    /// serial to avoid nesting pools inside its own worker threads.
    threads: usize,
}

impl FeatureExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: FeatureConfig) -> FeatureExtractor {
        FeatureExtractor {
            config,
            metrics: PipelineMetrics::disabled(),
            threads: 1,
        }
    }

    /// Records fit and vectorization activity into `metrics`; spaces
    /// fitted afterwards inherit the handle.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> FeatureExtractor {
        self.metrics = metrics;
        self
    }

    /// Fits on up to `threads` worker threads (map-reduce over document
    /// shards; the fitted vocabulary is identical to a serial fit for
    /// every thread count). `0` is treated as 1 (serial).
    pub fn with_threads(mut self, threads: usize) -> FeatureExtractor {
        self.threads = threads.max(1);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Records the shape of a freshly fitted space and wires up the
    /// hot-path instruments it will carry.
    fn finish_space(&self, word_vocab: Vocabulary, char_vocab: Vocabulary) -> FeatureSpace {
        let word_tfidf = TfIdf::fit(&word_vocab);
        let char_tfidf = TfIdf::fit(&char_vocab);
        let space = FeatureSpace {
            config: self.config.clone(),
            word_vocab,
            word_tfidf,
            char_vocab,
            char_tfidf,
            instruments: SpaceInstruments {
                vectorize: self.metrics.timer("features.vectorize"),
                vectors: self.metrics.counter("features.vectors"),
                nnz: self.metrics.counter("features.vector_nnz"),
            },
        };
        self.metrics.counter("features.fits").incr();
        self.metrics
            .gauge("features.word_vocab")
            .set(space.word_vocab_len() as i64);
        self.metrics
            .gauge("features.char_vocab")
            .set(space.char_vocab_len() as i64);
        self.metrics.gauge("features.dim").set(space.dim() as i64);
        space
    }

    /// The map-reduce core of the fit: each worker accumulates a
    /// private pair of [`VocabBuilder`]s over its contiguous document
    /// shard, and the shards are merged serially in shard order. Term
    /// totals, document frequencies, and document counts all sum, and
    /// top-N selection ranks by (total, term) alone, so the fitted
    /// vocabularies are identical to a serial pass for every thread count.
    fn accumulate<D, F>(&self, docs: &[D], add: F) -> (VocabBuilder, VocabBuilder)
    where
        D: Sync,
        F: Fn(&D, &mut VocabBuilder, &mut VocabBuilder) + Sync,
    {
        let threads = self.threads.max(1).min(docs.len().max(1));
        self.metrics
            .gauge("features.fit_threads")
            .set(threads as i64);
        let shards = darklight_par::par_map_chunks(docs, threads, |shard| {
            let mut wb = VocabBuilder::new();
            let mut cb = VocabBuilder::new();
            for doc in shard {
                add(doc, &mut wb, &mut cb);
            }
            (wb, cb)
        });
        let mut word_builder = VocabBuilder::new();
        let mut char_builder = VocabBuilder::new();
        for (wb, cb) in shards {
            word_builder.merge(wb);
            char_builder.merge(cb);
        }
        (word_builder, char_builder)
    }

    /// Fits the vocabularies and IDF weights on precomputed
    /// [`CountedDoc`]s (the paper fits on the *known* author set, then
    /// vectorizes knowns and unknowns in that space). The counts must have
    /// been produced with n-gram maxima at least as large as this config's
    /// (counting at larger maxima only adds longer grams, which simply
    /// compete in the frequency ranking exactly as the paper's do).
    pub fn fit_counted<'a, I>(&self, docs: I) -> FeatureSpace
    where
        I: IntoIterator<Item = &'a CountedDoc>,
    {
        let _fit = self.metrics.timer("features.fit").start();
        let docs: Vec<&CountedDoc> = docs.into_iter().collect();
        let (word_builder, char_builder) = self.accumulate(&docs, |doc, wb, cb| {
            wb.add_doc_counts(&doc.word_counts);
            cb.add_doc_counts(&doc.char_counts);
        });
        let word_vocab = word_builder.select_top(self.config.top_word_ngrams);
        let char_vocab = char_builder.select_top(self.config.top_char_ngrams);
        self.finish_space(word_vocab, char_vocab)
    }
}

impl FeatureSpace {
    /// Reassembles a space from its frozen parts — the configuration and
    /// the two fitted vocabularies. The IDF weights are *recomputed* from
    /// the vocabularies' document frequencies ([`TfIdf::fit`] is a pure
    /// function of the vocabulary), so a space rebuilt from a persisted
    /// artifact vectorizes bit-identically to the original fit. The
    /// rebuilt space carries disabled instruments; artifact loads are not
    /// a fit and record no `features.*` metrics.
    pub fn from_parts(
        config: FeatureConfig,
        word_vocab: Vocabulary,
        char_vocab: Vocabulary,
    ) -> FeatureSpace {
        let word_tfidf = TfIdf::fit(&word_vocab);
        let char_tfidf = TfIdf::fit(&char_vocab);
        FeatureSpace {
            config,
            word_vocab,
            word_tfidf,
            char_vocab,
            char_tfidf,
            instruments: SpaceInstruments::default(),
        }
    }

    /// The configuration the space was fitted with.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// The fitted word n-gram vocabulary.
    pub fn word_vocab(&self) -> &Vocabulary {
        &self.word_vocab
    }

    /// The fitted char n-gram vocabulary.
    pub fn char_vocab(&self) -> &Vocabulary {
        &self.char_vocab
    }

    /// Dense offset of the char n-gram block.
    fn char_offset(&self) -> u32 {
        self.word_vocab.len() as u32
    }

    /// Dense offset of the char-class block.
    fn class_offset(&self) -> u32 {
        self.char_offset() + self.char_vocab.len() as u32
    }

    /// Dense offset of the activity block.
    fn activity_offset(&self) -> u32 {
        self.class_offset() + NUM_SLOTS as u32
    }

    /// Total dimensionality of the space.
    pub fn dim(&self) -> usize {
        self.activity_offset() as usize + HOURS
    }

    /// Number of selected word n-grams.
    pub fn word_vocab_len(&self) -> usize {
        self.word_vocab.len()
    }

    /// Number of selected char n-grams.
    pub fn char_vocab_len(&self) -> usize {
        self.char_vocab.len()
    }

    /// Vectorizes a precounted document (optionally with its activity
    /// profile) into the unit-norm concatenated feature vector. With
    /// `activity_weight == 0` or `activity == None` the activity block is
    /// all zeros.
    pub fn vectorize_counted(
        &self,
        doc: &CountedDoc,
        activity: Option<&DailyActivityProfile>,
    ) -> SparseVector {
        let _vec = self.instruments.vectorize.start();
        let mut v = self
            .word_tfidf
            .transform(&self.word_vocab, &doc.word_counts);
        v = v.l2_normalized();
        v.scale(self.config.word_weight);

        let mut cv = self
            .char_tfidf
            .transform(&self.char_vocab, &doc.char_counts);
        cv = cv.l2_normalized();
        cv.scale(self.config.char_weight);
        v.concat(&cv, self.char_offset());

        if self.config.char_class_weight > 0.0 {
            let mut ccv = SparseVector::from_pairs(
                doc.char_class
                    .iter()
                    .enumerate()
                    .filter(|&(_, &f)| f > 0.0)
                    .map(|(i, &f)| (i as u32, f as f32)),
            );
            ccv = ccv.l2_normalized();
            ccv.scale(self.config.char_class_weight);
            v.concat(&ccv, self.class_offset());
        }

        if self.config.activity_weight > 0.0 {
            if let Some(profile) = activity {
                let mut av = SparseVector::from_pairs(
                    profile
                        .shares()
                        .iter()
                        .enumerate()
                        .filter(|&(_, &s)| s > 0.0)
                        .map(|(h, &s)| (h as u32, s as f32)),
                );
                av = av.l2_normalized();
                av.scale(self.config.activity_weight);
                v.concat(&av, self.activity_offset());
            }
        }
        let v = v.l2_normalized();
        self.instruments.vectors.incr();
        self.instruments.nnz.add(v.nnz() as u64);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darklight_activity::profile::DailyActivityProfile;

    fn prep(text: &str) -> PreparedDoc {
        let l = Lemmatizer::new();
        PreparedDoc::prepare(text, Some(&l))
    }

    fn counted(text: &str) -> CountedDoc {
        CountedDoc::from_prepared(&prep(text), 3, 5)
    }

    fn profile(hour: usize) -> DailyActivityProfile {
        let mut counts = [0u32; HOURS];
        counts[hour] = 10;
        DailyActivityProfile::from_counts(counts).unwrap()
    }

    #[test]
    fn prepare_lemmatizes_and_counts_classes() {
        let d = prep("Wolves were running!! 42 times");
        assert_eq!(d.words(), ["wolf", "be", "run", "42", "time"]);
        assert!(d.char_class.iter().any(|&f| f > 0.0)); // '!' and digits
        assert_eq!(d.word_len(), 5);
    }

    #[test]
    fn prepare_without_lemmatizer() {
        let d = PreparedDoc::prepare("Wolves running", None);
        assert_eq!(d.words(), ["wolves", "running"]);
    }

    #[test]
    fn truncate_words_limits_budget() {
        let d = prep("one two three four five six seven eight nine ten");
        let t = d.truncate_words(4);
        assert_eq!(t.word_len(), 4);
        assert!(t.char_text().len() < d.char_text().len());
        // Truncating beyond length is identity.
        assert_eq!(d.truncate_words(100).word_len(), d.word_len());
    }

    #[test]
    fn vectors_are_unit_norm() {
        let docs = [
            counted("i always ship with tracking and stealth is great"),
            counted("never had a problem with this vendor, top quality"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit_counted(&docs);
        let v = space.vectorize_counted(&docs[0], Some(&profile(9)));
        assert!((v.norm() - 1.0).abs() < 1e-5);
        assert!(v.nnz() > 0);
    }

    #[test]
    fn same_doc_has_cosine_one() {
        let docs = [counted("repeat the very same words again and again")];
        let space = FeatureExtractor::new(FeatureConfig::final_stage()).fit_counted(&docs);
        let a = space.vectorize_counted(&docs[0], Some(&profile(10)));
        let b = space.vectorize_counted(&docs[0], Some(&profile(10)));
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similar_docs_score_higher_than_dissimilar() {
        let docs = [
            counted("i love psychedelic mushrooms and trip reports from the garden"),
            counted("i love psychedelic mushrooms and reading trip reports here"),
            counted("bitcoin fees are insane today the mempool is backed up badly"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit_counted(&docs);
        let v: Vec<SparseVector> = docs
            .iter()
            .map(|d| space.vectorize_counted(d, None))
            .collect();
        assert!(v[0].cosine(&v[1]) > v[0].cosine(&v[2]));
    }

    #[test]
    fn activity_block_influences_similarity() {
        let docs = [
            counted("completely different words about one topic entirely"),
            counted("utterly distinct vocabulary concerning another theme"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit_counted(&docs);
        let same_hours = space
            .vectorize_counted(&docs[0], Some(&profile(9)))
            .cosine(&space.vectorize_counted(&docs[1], Some(&profile(9))));
        let diff_hours = space
            .vectorize_counted(&docs[0], Some(&profile(9)))
            .cosine(&space.vectorize_counted(&docs[1], Some(&profile(21))));
        assert!(same_hours > diff_hours);
    }

    #[test]
    fn without_activity_ignores_profile() {
        let docs = [counted("text that stays exactly the same every time here")];
        let cfg = FeatureConfig::space_reduction().without_activity();
        let space = FeatureExtractor::new(cfg).fit_counted(&docs);
        let a = space.vectorize_counted(&docs[0], Some(&profile(3)));
        let b = space.vectorize_counted(&docs[0], Some(&profile(15)));
        assert!((a.cosine(&b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn refit_on_subset_changes_space() {
        let docs: Vec<CountedDoc> = [
            "alpha beta gamma delta epsilon zeta",
            "alpha beta gamma something else entirely",
            "unrelated words that share nothing at all",
        ]
        .iter()
        .map(|s| counted(s))
        .collect();
        let full = FeatureExtractor::new(FeatureConfig::space_reduction()).fit_counted(&docs);
        let sub = FeatureExtractor::new(FeatureConfig::final_stage()).fit_counted(&docs[..2]);
        // The subset space reflects only the two first docs' vocabulary.
        assert!(sub.word_vocab_len() < full.word_vocab_len());
    }

    #[test]
    fn dims_account_for_all_blocks() {
        let docs = [counted("just a few words to fit on")];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit_counted(&docs);
        assert_eq!(
            space.dim(),
            space.word_vocab_len() + space.char_vocab_len() + NUM_SLOTS + HOURS
        );
    }

    #[test]
    fn metrics_capture_fit_shape_and_vector_activity() {
        let metrics = PipelineMetrics::enabled();
        let docs = [
            counted("some words to fit the space on"),
            counted("other words for the second document"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction())
            .with_metrics(metrics.clone())
            .fit_counted(&docs);
        let v = space.vectorize_counted(&docs[0], None);
        assert_eq!(metrics.counter("features.fits").get(), 1);
        assert_eq!(metrics.timer("features.fit").count(), 1);
        assert_eq!(metrics.gauge("features.dim").get() as usize, space.dim());
        assert_eq!(
            metrics.gauge("features.word_vocab").get() as usize,
            space.word_vocab_len()
        );
        assert_eq!(metrics.counter("features.vectors").get(), 1);
        assert_eq!(metrics.counter("features.vector_nnz").get(), v.nnz() as u64);
        assert_eq!(metrics.timer("features.vectorize").count(), 1);
    }

    #[test]
    fn threaded_fit_matches_serial_exactly() {
        let texts = [
            "alpha beta gamma delta epsilon zeta eta theta",
            "alpha beta something else entirely different here",
            "unrelated words that share nothing at all today",
            "beta gamma delta words appearing again and again",
            "a fifth document so shards stay ragged on two threads",
        ];
        let docs: Vec<CountedDoc> = texts.iter().map(|t| counted(t)).collect();
        let cfg = FeatureConfig::space_reduction();
        let serial = FeatureExtractor::new(cfg.clone()).fit_counted(&docs);
        for threads in [2, 3, 7] {
            let par = FeatureExtractor::new(cfg.clone())
                .with_threads(threads)
                .fit_counted(&docs);
            assert_eq!(par.dim(), serial.dim(), "threads = {threads}");
            // Identical vocabularies ⇒ identical vectors for any doc.
            for (i, c) in docs.iter().enumerate() {
                let a = serial.vectorize_counted(c, None);
                let b = par.vectorize_counted(c, None);
                assert!((a.cosine(&b) - 1.0).abs() < 1e-9, "doc {i}");
            }
        }
    }

    #[test]
    fn from_parts_rebuilds_a_bit_identical_space() {
        let docs = [
            counted("i always ship with tracking and stealth is great"),
            counted("never had a problem with this vendor, top quality"),
            counted("bitcoin fees are insane today the mempool is backed up"),
        ];
        let space = FeatureExtractor::new(FeatureConfig::space_reduction()).fit_counted(&docs);
        let rebuilt = FeatureSpace::from_parts(
            space.config().clone(),
            space.word_vocab().clone(),
            space.char_vocab().clone(),
        );
        assert_eq!(rebuilt.dim(), space.dim());
        for d in &docs {
            let a = space.vectorize_counted(d, Some(&profile(9)));
            let b = rebuilt.vectorize_counted(d, Some(&profile(9)));
            assert_eq!(a.nnz(), b.nnz());
            for ((ia, va), (ib, vb)) in a.iter().zip(b.iter()) {
                assert_eq!(ia, ib);
                assert_eq!(va.to_bits(), vb.to_bits(), "index {ia}");
            }
        }
    }

    #[test]
    fn table_ii_presets() {
        let sr = FeatureConfig::space_reduction();
        assert_eq!((sr.top_word_ngrams, sr.top_char_ngrams), (60_000, 30_000));
        let fin = FeatureConfig::final_stage();
        assert_eq!((fin.top_word_ngrams, fin.top_char_ngrams), (50_000, 15_000));
        assert_eq!(fin.max_word_n, 3);
        assert_eq!(fin.max_char_n, 5);
    }
}
