//! The twelve polishing steps (§III-C of the paper).
//!
//! Raw forum data is noisy: bot accounts, crossposted duplicates, spam,
//! quotes, PGP keys, non-English chatter. The paper cleans it with twelve
//! steps before any feature extraction; [`Polisher::polish`] applies them
//! in order and returns both the cleaned corpus and a [`PolishReport`]
//! counting what each step removed:
//!
//!  1. drop accounts whose nickname starts/ends with `bot`;
//!  2. drop duplicate messages (vendors repost showcases; redditors
//!     crosspost);
//!  3. normalize URLs to their hostname;
//!  4. remove emoji;
//!  5. drop messages shorter than 10 words;
//!  6. drop messages whose distinct-word ratio is below 0.5 (spam);
//!  7. keep only English messages;
//!  8. remove quoted text (someone else's words);
//!  9. remove `Edit by <user>` platform tags;
//! 10. replace e-mail addresses with `_mail_`;
//! 11. remove PGP key blocks;
//! 12. drop "words" longer than 34 characters.
//!
//! Text transforms (3, 4, 8–12) run before the filters (5–7) so that word
//! counts and language detection see the text the feature extractor will.

use crate::model::{Corpus, User};
use darklight_obs::PipelineMetrics;
use darklight_text::langdetect::LanguageDetector;
use darklight_text::normalize;
use darklight_text::token::word_count;
use std::collections::HashSet;
use std::time::Instant;

/// Configuration of the polishing pipeline. The defaults are the paper's
/// settings; each step can be disabled for ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PolishConfig {
    /// Step 1: drop `bot`-named accounts.
    pub drop_bots: bool,
    /// Step 2: drop duplicate messages per user.
    pub dedup: bool,
    /// Steps 3, 4, 8–12: apply the text transforms.
    pub transforms: bool,
    /// Step 5: minimum words per message (paper: 10; 0 disables).
    pub min_words: usize,
    /// Step 6: minimum distinct-word ratio (paper: 0.5; 0.0 disables).
    pub min_diversity: f64,
    /// Step 7: keep only messages detected as English.
    pub english_only: bool,
    /// Drop users left with zero posts after polishing.
    pub drop_empty_users: bool,
}

impl Default for PolishConfig {
    fn default() -> PolishConfig {
        PolishConfig {
            drop_bots: true,
            dedup: true,
            transforms: true,
            min_words: 10,
            min_diversity: 0.5,
            english_only: true,
            drop_empty_users: true,
        }
    }
}

impl PolishConfig {
    /// A no-op configuration (every step disabled) — the "polishing off"
    /// ablation baseline.
    pub fn disabled() -> PolishConfig {
        PolishConfig {
            drop_bots: false,
            dedup: false,
            transforms: false,
            min_words: 0,
            min_diversity: 0.0,
            english_only: false,
            drop_empty_users: false,
        }
    }
}

/// What each polishing step removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolishReport {
    /// Accounts dropped by the bot-name rule (step 1).
    pub bot_accounts: usize,
    /// Duplicate messages dropped (step 2).
    pub duplicate_messages: usize,
    /// Messages dropped for having fewer than `min_words` words (step 5).
    pub short_messages: usize,
    /// Messages dropped by the diversity-ratio spam rule (step 6).
    pub low_diversity_messages: usize,
    /// Messages dropped as non-English (step 7).
    pub non_english_messages: usize,
    /// Users dropped because no posts survived.
    pub emptied_users: usize,
    /// Users dropped because their polishing worker panicked (the panic
    /// is caught and quarantined rather than killing the run).
    pub panicked_users: usize,
    /// Messages surviving all steps.
    pub kept_messages: usize,
}

impl PolishReport {
    /// Total messages dropped by the per-message filters.
    pub fn dropped_messages(&self) -> usize {
        self.duplicate_messages
            + self.short_messages
            + self.low_diversity_messages
            + self.non_english_messages
    }

    /// Sums another report into this one. Every field is a count, so the
    /// fold over per-user partial reports is order-independent — the
    /// merged report is identical for any worker count.
    fn absorb(&mut self, other: &PolishReport) {
        self.bot_accounts += other.bot_accounts;
        self.duplicate_messages += other.duplicate_messages;
        self.short_messages += other.short_messages;
        self.low_diversity_messages += other.low_diversity_messages;
        self.non_english_messages += other.non_english_messages;
        self.emptied_users += other.emptied_users;
        self.panicked_users += other.panicked_users;
        self.kept_messages += other.kept_messages;
    }
}

/// Locally accumulated per-step nanoseconds, flushed to the metrics
/// registry once per [`Polisher::polish`] call so the per-message loop
/// never touches shared state.
#[derive(Debug, Default)]
struct StepNanos {
    dedup: u64,
    transforms: u64,
    length: u64,
    diversity: u64,
    language: u64,
}

impl StepNanos {
    /// Sums another accumulator into this one (total CPU-time per step
    /// across workers, like the serial accumulation it generalizes).
    fn absorb(&mut self, other: &StepNanos) {
        self.dedup += other.dedup;
        self.transforms += other.transforms;
        self.length += other.length;
        self.diversity += other.diversity;
        self.language += other.language;
    }
}

/// Runs `f`, adding its wall-clock to `acc` when `enabled`. Compiles to
/// a plain call when metrics are off — the clock is never read.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock feeds obs step timers only; metrics are never read back by pipeline logic"
)]
fn timed<T>(enabled: bool, acc: &mut u64, f: impl FnOnce() -> T) -> T {
    if enabled {
        let start = Instant::now();
        let out = f();
        *acc += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        out
    } else {
        f()
    }
}

/// Applies the polishing pipeline. Holds the language detector so repeated
/// corpora share the profile tables.
#[derive(Debug)]
pub struct Polisher {
    config: PolishConfig,
    metrics: PipelineMetrics,
    detector: LanguageDetector,
    /// Worker threads for per-user polishing (0 = auto).
    threads: usize,
}

impl Polisher {
    /// Creates a polisher with the given configuration.
    pub fn new(config: PolishConfig) -> Polisher {
        Polisher {
            config,
            metrics: PipelineMetrics::disabled(),
            detector: LanguageDetector::new(),
            threads: 0,
        }
    }

    /// Records per-step message counts and durations into `metrics`.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Polisher {
        self.metrics = metrics;
        self
    }

    /// Polishes on up to `threads` worker threads (0 = auto-detect; see
    /// [`darklight_par::resolve_threads`]). Users are independent — the
    /// only stateful step, deduplication, is scoped per user — so the
    /// polished corpus and report are identical for every thread count.
    pub fn with_threads(mut self, threads: usize) -> Polisher {
        self.threads = threads;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PolishConfig {
        &self.config
    }

    /// Returns `true` when `alias` triggers the bot-name rule (step 1).
    pub fn is_bot_name(alias: &str) -> bool {
        let lower = alias.to_lowercase();
        lower.starts_with("bot") || lower.ends_with("bot")
    }

    /// Applies all twelve steps, returning the cleaned corpus and the
    /// removal report.
    ///
    /// Users are polished in parallel on the configured worker pool (the
    /// per-message steps are independent across users; deduplication, the
    /// only stateful step, is scoped per user). Kept users stay in corpus
    /// order and the report is a sum of per-user counts, so output is
    /// identical for every thread count.
    ///
    /// Polishing is a *skip-tolerant* stage: a panic while polishing one
    /// user (a poisoned record tripping a bug deep in a text transform) is
    /// caught by [`darklight_par::try_par_map`], that user alone is
    /// dropped — counted in [`PolishReport::panicked_users`] and the
    /// `par.worker_panics` counter — and every other user completes.
    /// Whether a user panics depends only on the user, so degraded output
    /// is still identical for every thread count.
    pub fn polish(&self, corpus: &Corpus) -> (Corpus, PolishReport) {
        let _total = self.metrics.timer("polish.total").start();
        let threads = darklight_par::resolve_threads(self.threads);
        self.metrics.gauge("polish.threads").set(threads as i64);
        let per_user =
            darklight_par::try_par_map(&corpus.users, threads, &self.metrics, |i, user| {
                darklight_par::fault::maybe_panic("polish.user", i);
                let mut report = PolishReport::default();
                let mut steps = StepNanos::default();
                if self.config.drop_bots && Self::is_bot_name(&user.alias) {
                    report.bot_accounts = 1;
                    return (None, report, steps);
                }
                let cleaned = self.polish_user(user, &mut report, &mut steps);
                if self.config.drop_empty_users && cleaned.posts.is_empty() {
                    report.emptied_users = 1;
                    return (None, report, steps);
                }
                (Some(cleaned), report, steps)
            });
        let mut report = PolishReport::default();
        let mut steps = StepNanos::default();
        let mut out = Corpus::new(corpus.name.clone());
        let input_messages: u64 = corpus.users.iter().map(|u| u.posts.len() as u64).sum();
        for slot in per_user {
            match slot {
                Ok((cleaned, user_report, user_steps)) => {
                    report.absorb(&user_report);
                    steps.absorb(&user_steps);
                    if let Some(user) = cleaned {
                        out.users.push(user);
                    }
                }
                Err(_) => report.panicked_users += 1,
            }
        }
        self.flush_metrics(&report, &steps, input_messages);
        (out, report)
    }

    /// One registry write per polish run: per-step message counts from the
    /// report and per-step durations from the local accumulators.
    fn flush_metrics(&self, report: &PolishReport, steps: &StepNanos, input_messages: u64) {
        if !self.metrics.is_enabled() {
            return;
        }
        let m = &self.metrics;
        m.counter("polish.input_messages").add(input_messages);
        m.counter("polish.kept_messages")
            .add(report.kept_messages as u64);
        m.counter("polish.dropped.bot_accounts")
            .add(report.bot_accounts as u64);
        m.counter("polish.dropped.duplicates")
            .add(report.duplicate_messages as u64);
        m.counter("polish.dropped.short")
            .add(report.short_messages as u64);
        m.counter("polish.dropped.low_diversity")
            .add(report.low_diversity_messages as u64);
        m.counter("polish.dropped.non_english")
            .add(report.non_english_messages as u64);
        m.counter("polish.dropped.emptied_users")
            .add(report.emptied_users as u64);
        m.counter("polish.dropped.panicked_users")
            .add(report.panicked_users as u64);
        m.timer("polish.step.dedup").record_ns(steps.dedup);
        m.timer("polish.step.transforms")
            .record_ns(steps.transforms);
        m.timer("polish.step.length_filter").record_ns(steps.length);
        m.timer("polish.step.diversity_filter")
            .record_ns(steps.diversity);
        m.timer("polish.step.language_filter")
            .record_ns(steps.language);
    }

    fn polish_user(&self, user: &User, report: &mut PolishReport, steps: &mut StepNanos) -> User {
        let timing = self.metrics.is_enabled();
        let mut cleaned = User::new(user.alias.clone(), user.persona);
        cleaned.facts = user.facts.clone();
        let mut seen: HashSet<String> = HashSet::new();
        for post in &user.posts {
            // Step 2: duplicates (on the raw text, as the paper does during
            // collection).
            if self.config.dedup {
                let duplicate = timed(timing, &mut steps.dedup, || {
                    let key = post.text.trim().to_lowercase();
                    !seen.insert(key)
                });
                if duplicate {
                    report.duplicate_messages += 1;
                    continue;
                }
            }
            let text = if self.config.transforms {
                timed(timing, &mut steps.transforms, || {
                    self.transform_text(&post.text)
                })
            } else {
                post.text.clone()
            };
            // Step 5: length filter.
            if self.config.min_words > 0
                && timed(timing, &mut steps.length, || word_count(&text)) < self.config.min_words
            {
                report.short_messages += 1;
                continue;
            }
            // Step 6: diversity filter.
            if self.config.min_diversity > 0.0
                && timed(timing, &mut steps.diversity, || {
                    normalize::diversity_ratio(&text)
                }) < self.config.min_diversity
            {
                report.low_diversity_messages += 1;
                continue;
            }
            // Step 7: language filter.
            if self.config.english_only
                && !timed(timing, &mut steps.language, || {
                    self.detector.is_english(&text)
                })
            {
                report.non_english_messages += 1;
                continue;
            }
            report.kept_messages += 1;
            let mut p = post.clone();
            p.text = text;
            cleaned.posts.push(p);
        }
        cleaned
    }

    /// Steps 3, 4, 8–12 in a sensible composition order: structural
    /// removals first (quotes, PGP, edit tags), then token rewrites (URLs,
    /// e-mails), then character cleanups (emoji, long words).
    fn transform_text(&self, text: &str) -> String {
        let t = normalize::remove_quotes(text);
        let t = normalize::remove_pgp_blocks(&t);
        let t = normalize::remove_edit_tags(&t);
        let t = normalize::normalize_urls_and_emails(&t);
        let t = normalize::strip_emojis(&t);
        normalize::drop_long_words(&t)
    }
}

impl Default for Polisher {
    fn default() -> Polisher {
        Polisher::new(PolishConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Post;

    const GOOD: &str =
        "this is a perfectly normal english message with plenty of distinct words in it";

    fn corpus_with(posts: Vec<Post>) -> Corpus {
        let mut c = Corpus::new("test");
        let mut u = User::new("normal_user", Some(1));
        u.posts = posts;
        c.users.push(u);
        c
    }

    #[test]
    fn bot_accounts_dropped() {
        let mut c = Corpus::new("test");
        for name in ["botfarm", "tipBot", "legit_user", "robotics_fan"] {
            let mut u = User::new(name, None);
            u.posts.push(Post::new(GOOD, 1));
            c.users.push(u);
        }
        let (out, report) = Polisher::default().polish(&c);
        assert_eq!(report.bot_accounts, 2); // botfarm, tipBot
        let names: Vec<&str> = out.users.iter().map(|u| u.alias.as_str()).collect();
        assert_eq!(names, ["legit_user", "robotics_fan"]);
    }

    #[test]
    fn duplicates_dropped() {
        let c = corpus_with(vec![
            Post::new(GOOD, 1),
            Post::new(GOOD, 2),
            Post::new(format!("{GOOD} "), 3), // trims to the same key
        ]);
        let (out, report) = Polisher::default().polish(&c);
        assert_eq!(report.duplicate_messages, 2);
        assert_eq!(out.users[0].posts.len(), 1);
    }

    #[test]
    fn short_messages_dropped() {
        let c = corpus_with(vec![Post::new("too short", 1), Post::new(GOOD, 2)]);
        let (out, report) = Polisher::default().polish(&c);
        assert_eq!(report.short_messages, 1);
        assert_eq!(out.users[0].posts.len(), 1);
    }

    #[test]
    fn spam_dropped_by_diversity() {
        let spam = "buy now buy now buy now buy now buy now buy now";
        let c = corpus_with(vec![Post::new(spam, 1), Post::new(GOOD, 2)]);
        let (_, report) = Polisher::default().polish(&c);
        assert_eq!(report.low_diversity_messages, 1);
    }

    #[test]
    fn non_english_dropped() {
        let es = "me gustaría saber si alguien puede ayudarme con este problema porque no encuentro solución";
        let c = corpus_with(vec![Post::new(es, 1), Post::new(GOOD, 2)]);
        let (_, report) = Polisher::default().polish(&c);
        assert_eq!(report.non_english_messages, 1);
    }

    #[test]
    fn transforms_applied_to_kept_messages() {
        let raw = format!("{GOOD} see https://www.example.com/page and mail me at x@y.io 😀");
        let c = corpus_with(vec![Post::new(raw, 1)]);
        let (out, _) = Polisher::default().polish(&c);
        let text = &out.users[0].posts[0].text;
        assert!(text.contains("example.com"));
        assert!(!text.contains("https://"));
        assert!(text.contains("_mail_"));
        assert!(!text.contains('😀'));
    }

    #[test]
    fn emptied_users_dropped() {
        let c = corpus_with(vec![Post::new("tiny", 1)]);
        let (out, report) = Polisher::default().polish(&c);
        assert!(out.is_empty());
        assert_eq!(report.emptied_users, 1);
    }

    #[test]
    fn disabled_config_is_identity() {
        let mut c = corpus_with(vec![Post::new("x", 1), Post::new("x", 2)]);
        c.users.push(User::new("spambot", None));
        let (out, report) = Polisher::new(PolishConfig::disabled()).polish(&c);
        assert_eq!(out, c);
        assert_eq!(report.dropped_messages(), 0);
        assert_eq!(report.bot_accounts, 0);
    }

    #[test]
    fn report_totals_consistent() {
        let c = corpus_with(vec![
            Post::new(GOOD, 1),
            Post::new(GOOD, 2),        // dup
            Post::new("short one", 3), // short
        ]);
        let (_, report) = Polisher::default().polish(&c);
        assert_eq!(report.kept_messages, 1);
        assert_eq!(report.dropped_messages(), 2);
    }

    #[test]
    fn metrics_mirror_report_counts() {
        let metrics = PipelineMetrics::enabled();
        let c = corpus_with(vec![
            Post::new(GOOD, 1),
            Post::new(GOOD, 2),        // duplicate
            Post::new("short one", 3), // short
        ]);
        let (_, report) = Polisher::default().with_metrics(metrics.clone()).polish(&c);
        assert_eq!(metrics.counter("polish.input_messages").get(), 3);
        assert_eq!(
            metrics.counter("polish.kept_messages").get(),
            report.kept_messages as u64
        );
        assert_eq!(metrics.counter("polish.dropped.duplicates").get(), 1);
        assert_eq!(metrics.counter("polish.dropped.short").get(), 1);
        // Step timers observed once per polish() call.
        assert_eq!(metrics.timer("polish.step.dedup").count(), 1);
        assert_eq!(metrics.timer("polish.total").count(), 1);
    }

    #[test]
    fn metrics_do_not_change_polish_output() {
        let c = corpus_with(vec![
            Post::new(GOOD, 1),
            Post::new(GOOD, 2),
            Post::new("short one", 3),
        ]);
        let (plain_out, plain_report) = Polisher::default().polish(&c);
        let (metered_out, metered_report) = Polisher::default()
            .with_metrics(PipelineMetrics::enabled())
            .polish(&c);
        assert_eq!(plain_out, metered_out);
        assert_eq!(plain_report, metered_report);
    }

    #[test]
    fn parallel_polish_identical_to_serial() {
        let mut c = Corpus::new("mixed");
        for (i, name) in ["alice", "spambot", "bob", "carol", "dave", "erin", "frank"]
            .iter()
            .enumerate()
        {
            let mut u = User::new(*name, Some(i as u64));
            u.posts.push(Post::new(GOOD, i as i64));
            u.posts.push(Post::new(GOOD, i as i64 + 1)); // duplicate
            u.posts.push(Post::new("too short", i as i64 + 2));
            u.posts
                .push(Post::new(format!("{GOOD} variant {i}"), i as i64 + 3));
            c.users.push(u);
        }
        let (serial_out, serial_report) = Polisher::default().with_threads(1).polish(&c);
        for threads in [2, 3, 7] {
            let (out, report) = Polisher::default().with_threads(threads).polish(&c);
            assert_eq!(out, serial_out, "threads = {threads}");
            assert_eq!(report, serial_report, "threads = {threads}");
        }
    }

    #[test]
    fn facts_and_persona_preserved() {
        let mut c = corpus_with(vec![Post::new(GOOD, 1)]);
        c.users[0]
            .facts
            .push(crate::model::Fact::new(crate::model::FactKind::Age, "27"));
        let (out, _) = Polisher::default().polish(&c);
        assert_eq!(out.users[0].persona, Some(1));
        assert_eq!(out.users[0].facts.len(), 1);
    }
}
