//! Dataset refinement and alter-ego generation (§IV-D of the paper).
//!
//! After polishing, the paper keeps only users with enough signal — at
//! least 30 usable timestamps (for the activity profile) and 1,500 words —
//! and manufactures ground truth by splitting rich users (at least 3,000
//! words and 60 usable timestamps) into an *original* and an *alter-ego*:
//! disjoint random halves of their messages, with timestamps evenly
//! divided in a randomized way. Text budgets are then met by taking
//! messages longest-first.
//!
//! Splitting needs randomness; to keep this crate dependency-free it uses a
//! small embedded SplitMix64 generator seeded explicitly, so every
//! refinement is reproducible.

use crate::model::{Corpus, User};
use darklight_activity::profile::ProfileBuilder;
use darklight_text::token::word_count;

/// A tiny deterministic PRNG (SplitMix64) for reproducible splits.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`. `n` must be positive.
    pub(crate) fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }
}

/// Thresholds for keeping a user in a refined dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineConfig {
    /// Minimum usable (weekday, non-holiday) timestamps — paper: 30.
    pub min_timestamps: usize,
    /// Minimum total words — paper: 1,500.
    pub min_words: usize,
}

impl Default for RefineConfig {
    fn default() -> RefineConfig {
        RefineConfig {
            min_timestamps: 30,
            min_words: 1_500,
        }
    }
}

/// Thresholds for alter-ego eligibility — paper: > 3,000 words and > 60
/// usable timestamps, i.e. both halves independently satisfy
/// [`RefineConfig`]'s defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlterEgoConfig {
    /// Minimum words a user needs before splitting (paper: 3,000).
    pub min_words: usize,
    /// Minimum usable timestamps before splitting (paper: 60).
    pub min_timestamps: usize,
    /// Seed for the reproducible random split.
    pub seed: u64,
}

impl Default for AlterEgoConfig {
    fn default() -> AlterEgoConfig {
        AlterEgoConfig {
            min_words: 3_000,
            min_timestamps: 60,
            seed: 0xDA_2C_11_67,
        }
    }
}

/// Keeps only the users meeting the refinement thresholds. The profile
/// builder supplies the usable-timestamp rule (weekends/holidays excluded).
pub fn refine(corpus: &Corpus, config: RefineConfig, profiles: &ProfileBuilder) -> Corpus {
    let mut out = Corpus::new(corpus.name.clone());
    out.users = corpus
        .users
        .iter()
        .filter(|u| {
            profiles.usable_count(&u.timestamps()) >= config.min_timestamps
                && u.total_words() >= config.min_words
        })
        .cloned()
        .collect();
    out
}

/// The outcome of an alter-ego split: the reduced original plus the new
/// alter-ego alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitUser {
    /// The original alias with half the posts.
    pub original: User,
    /// The alter-ego alias (named `<alias>__ae`) with the other half.
    pub alter_ego: User,
}

/// Splits one user into original + alter-ego: posts are shuffled and dealt
/// into two equal halves, so the message sets are disjoint and the
/// timestamps are evenly divided in a randomized way, exactly as in §IV-D.
/// Returns `None` when the user does not meet the eligibility thresholds.
pub fn split_user(
    user: &User,
    config: &AlterEgoConfig,
    profiles: &ProfileBuilder,
) -> Option<SplitUser> {
    if user.total_words() <= config.min_words
        || profiles.usable_count(&user.timestamps()) <= config.min_timestamps
    {
        return None;
    }
    // Seed per user so splits are independent of corpus ordering.
    let mut rng = SplitMix64::new(config.seed ^ hash_alias(&user.alias));
    let mut order: Vec<usize> = (0..user.posts.len()).collect();
    rng.shuffle(&mut order);
    let half = order.len() / 2;
    let mut original = User::new(user.alias.clone(), user.persona);
    original.facts = user.facts.clone();
    let mut alter = User::new(format!("{}__ae", user.alias), user.persona);
    alter.facts = user.facts.clone();
    for (rank, &idx) in order.iter().enumerate() {
        let post = user.posts[idx].clone();
        if rank < half {
            alter.posts.push(post);
        } else {
            original.posts.push(post);
        }
    }
    Some(SplitUser {
        original,
        alter_ego: alter,
    })
}

/// Splits every eligible user of `corpus`, producing the pair of datasets
/// of Table IV: the originals corpus (all users, with eligible ones
/// halved) and the alter-ego corpus (named `ae_<name>`).
pub fn build_alter_egos(
    corpus: &Corpus,
    config: &AlterEgoConfig,
    profiles: &ProfileBuilder,
) -> (Corpus, Corpus) {
    let mut originals = Corpus::new(corpus.name.clone());
    let mut alter = Corpus::new(format!("ae_{}", corpus.name));
    for user in &corpus.users {
        match split_user(user, config, profiles) {
            Some(split) => {
                originals.users.push(split.original);
                alter.users.push(split.alter_ego);
            }
            None => originals.users.push(user.clone()),
        }
    }
    (originals, alter)
}

/// Selects a user's text longest-message-first until `word_budget` words
/// are reached (§IV-D: "we sort the messages by length and select the
/// messages from the longest to the shortest until we reach the limit of
/// 1,500 words").
pub fn select_text(user: &User, word_budget: usize) -> String {
    let mut by_len: Vec<(usize, &str)> = user
        .posts
        .iter()
        .map(|p| (word_count(&p.text), p.text.as_str()))
        .collect();
    by_len.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    let mut out = String::new();
    let mut words = 0usize;
    for (wc, text) in by_len {
        if words >= word_budget {
            break;
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(text);
        words += wc;
    }
    out
}

/// Per-alias split seed. FNV-1a in shape, but its multiplier is
/// `0x1000_0000_01b3`, not the FNV prime `0x100_0000_01b3` that
/// `darklight_govern::Fnv1a` uses, so it cannot call that hasher: every
/// alter-ego split (Table IV and everything refined from it) is seeded
/// from this digest, and changing it re-splits every user.
fn hash_alias(alias: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in alias.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Post;
    use darklight_activity::profile::{ProfileBuilder, ProfilePolicy};

    /// Weekday timestamps spread across 2017: Monday–Friday of consecutive
    /// weeks, starting Monday 2017-02-06 (a handful land on holidays).
    fn weekday_ts(n: usize) -> Vec<i64> {
        let base = 1_486_375_200; // 2017-02-06T10:00:00Z, a Monday
        (0..n)
            .map(|i| base + (i as i64 / 5) * 7 * 86_400 + (i as i64 % 5) * 86_400)
            .collect()
    }

    fn rich_user(alias: &str, posts: usize, words_per_post: usize) -> User {
        let mut u = User::new(alias, Some(1));
        let text = vec!["word"; words_per_post].join(" ");
        for (i, ts) in weekday_ts(posts).into_iter().enumerate() {
            u.posts.push(Post::new(format!("{text} {i}"), ts));
        }
        u
    }

    fn builder() -> ProfileBuilder {
        ProfileBuilder::new(ProfilePolicy::default())
    }

    #[test]
    fn refine_drops_thin_users() {
        let mut c = Corpus::new("x");
        c.users.push(rich_user("rich", 80, 40)); // 80*41 words, 80 ts
        c.users.push(rich_user("few_ts", 10, 200)); // words ok, 10 ts
        c.users.push(rich_user("few_words", 80, 2)); // ts ok, 240 words
        let refined = refine(&c, RefineConfig::default(), &builder());
        let names: Vec<&str> = refined.users.iter().map(|u| u.alias.as_str()).collect();
        assert_eq!(names, ["rich"]);
    }

    #[test]
    fn split_preserves_and_partitions_posts() {
        let u = rich_user("splitme", 100, 40);
        let split = split_user(&u, &AlterEgoConfig::default(), &builder()).unwrap();
        assert_eq!(
            split.original.posts.len() + split.alter_ego.posts.len(),
            u.posts.len()
        );
        // Disjoint: no shared texts.
        let a: std::collections::HashSet<&String> =
            split.original.posts.iter().map(|p| &p.text).collect();
        assert!(split.alter_ego.posts.iter().all(|p| !a.contains(&p.text)));
        // Roughly even.
        let diff = split.original.posts.len() as i64 - split.alter_ego.posts.len() as i64;
        assert!(diff.abs() <= 1);
        assert_eq!(split.alter_ego.alias, "splitme__ae");
        assert_eq!(split.alter_ego.persona, Some(1));
    }

    #[test]
    fn split_rejects_thin_users() {
        let thin = rich_user("thin", 50, 40); // 50 ts ≤ 60
        assert!(split_user(&thin, &AlterEgoConfig::default(), &builder()).is_none());
        let wordless = rich_user("wordless", 100, 10); // 100*11 = 1100 words
        assert!(split_user(&wordless, &AlterEgoConfig::default(), &builder()).is_none());
    }

    #[test]
    fn split_is_deterministic() {
        let u = rich_user("det", 100, 40);
        let cfg = AlterEgoConfig::default();
        let s1 = split_user(&u, &cfg, &builder()).unwrap();
        let s2 = split_user(&u, &cfg, &builder()).unwrap();
        assert_eq!(s1, s2);
        // A different seed produces a different split.
        let s3 = split_user(&u, &AlterEgoConfig { seed: 99, ..cfg }, &builder()).unwrap();
        assert_ne!(s1, s3);
    }

    #[test]
    fn build_alter_egos_shapes() {
        let mut c = Corpus::new("dm");
        c.users.push(rich_user("eligible", 100, 40));
        c.users.push(rich_user("too_thin", 40, 40));
        let (orig, ae) = build_alter_egos(&c, &AlterEgoConfig::default(), &builder());
        assert_eq!(orig.name, "dm");
        assert_eq!(ae.name, "ae_dm");
        assert_eq!(orig.len(), 2);
        assert_eq!(ae.len(), 1);
    }

    #[test]
    fn select_text_longest_first() {
        let mut u = User::new("sel", None);
        u.posts.push(Post::new("short message here", 1));
        u.posts.push(Post::new(
            "this is a much longer message with many more words than the others combined",
            2,
        ));
        u.posts
            .push(Post::new("mid sized message with six words", 3));
        let text = select_text(&u, 15);
        assert!(text.starts_with("this is a much longer"));
        // Budget reached after the long (14 words) + mid (6 words) messages.
        assert!(text.contains("mid sized"));
        assert!(!text.contains("short message"));
    }

    #[test]
    fn select_text_budget_zero() {
        let mut u = User::new("none", None);
        u.posts.push(Post::new("anything", 1));
        assert_eq!(select_text(&u, 0), "");
    }

    #[test]
    fn alias_hash_is_pinned() {
        // Splits are seeded from this digest; changing it would re-split
        // every alter-ego and move every refined-dataset result.
        assert_eq!(hash_alias("alice"), 0x0168_e0bb_65a0_3907);
    }

    #[test]
    fn splitmix_shuffle_is_permutation() {
        let mut rng = SplitMix64::new(42);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(v, sorted); // astronomically unlikely to be identity
    }
}
