//! Corpus statistics: the words-per-user CDF of Fig. 1 and the topic
//! composition of Table I.

use crate::model::Corpus;
use std::collections::BTreeMap;

/// A point of an empirical CDF: `fraction` of users have at most `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdfPoint {
    /// The x value (e.g. words per user).
    pub value: u64,
    /// Cumulative fraction of users at or below `value`, in `[0, 1]`.
    pub fraction: f64,
}

/// The empirical CDF of words-per-user (Fig. 1 of the paper). Returns one
/// point per distinct user word count, in increasing order; empty corpus
/// gives an empty CDF.
pub fn words_per_user_cdf(corpus: &Corpus) -> Vec<CdfPoint> {
    let mut counts: Vec<u64> = corpus
        .users
        .iter()
        .map(|u| u.total_words() as u64)
        .collect();
    counts.sort_unstable();
    cdf_of_sorted(&counts)
}

/// The empirical CDF of an arbitrary pre-sorted sample.
pub fn cdf_of_sorted(sorted: &[u64]) -> Vec<CdfPoint> {
    let n = sorted.len();
    if n == 0 {
        return Vec::new();
    }
    let mut out: Vec<CdfPoint> = Vec::new();
    for (i, &v) in sorted.iter().enumerate() {
        let frac = (i + 1) as f64 / n as f64;
        match out.last_mut() {
            Some(last) if last.value == v => last.fraction = frac,
            _ => out.push(CdfPoint {
                value: v,
                fraction: frac,
            }),
        }
    }
    out
}

/// Evaluates a CDF at `x` (fraction of users with value ≤ x).
pub fn cdf_at(cdf: &[CdfPoint], x: u64) -> f64 {
    match cdf.binary_search_by_key(&x, |p| p.value) {
        Ok(i) => cdf[i].fraction,
        Err(0) => 0.0,
        Err(i) => cdf[i - 1].fraction,
    }
}

/// Per-topic composition of a corpus (Table I of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct TopicStat {
    /// Topic label.
    pub topic: String,
    /// Distinct sub-communities (subreddits) carrying the topic.
    pub communities: usize,
    /// Number of messages in the topic.
    pub messages: usize,
    /// Share of all messages, in `[0, 1]`.
    pub message_share: f64,
    /// Distinct users who posted in the topic.
    pub users: usize,
    /// Share of users who posted in the topic (a user counts once per
    /// topic they touch — the paper's "subscriptions").
    pub user_share: f64,
    /// The single sub-community with the most messages.
    pub top_community: String,
    /// Messages in that top sub-community.
    pub top_community_messages: usize,
}

/// Groups posts by topic via `topic_of` (mapping a sub-community name to a
/// topic label; return `None` to skip a post) and computes Table I-style
/// statistics, sorted by topic label.
pub fn topic_composition(
    corpus: &Corpus,
    mut topic_of: impl FnMut(&str) -> Option<String>,
) -> Vec<TopicStat> {
    struct Acc {
        communities: BTreeMap<String, usize>,
        messages: usize,
        users: std::collections::HashSet<usize>,
    }
    let mut acc: BTreeMap<String, Acc> = BTreeMap::new();
    let mut total_messages = 0usize;
    for (uid, user) in corpus.users.iter().enumerate() {
        for post in &user.posts {
            let Some(topic) = topic_of(&post.topic) else {
                continue;
            };
            total_messages += 1;
            let a = acc.entry(topic).or_insert_with(|| Acc {
                communities: BTreeMap::new(),
                messages: 0,
                users: std::collections::HashSet::new(),
            });
            *a.communities.entry(post.topic.clone()).or_insert(0) += 1;
            a.messages += 1;
            a.users.insert(uid);
        }
    }
    let total_users = corpus.len().max(1);
    acc.into_iter()
        .map(|(topic, a)| {
            let (top_community, top_community_messages) = a
                .communities
                .iter()
                .max_by_key(|&(name, &count)| (count, std::cmp::Reverse(name.clone())))
                .map(|(n, &c)| (n.clone(), c))
                .unwrap_or_default();
            TopicStat {
                topic,
                communities: a.communities.len(),
                messages: a.messages,
                message_share: a.messages as f64 / total_messages.max(1) as f64,
                users: a.users.len(),
                user_share: a.users.len() as f64 / total_users as f64,
                top_community,
                top_community_messages,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Post, User};

    fn corpus() -> Corpus {
        let mut c = Corpus::new("t");
        let mut u1 = User::new("a", None);
        u1.posts.push(Post::with_topic("one two three", 1, "r1"));
        u1.posts.push(Post::with_topic("four five", 2, "r2"));
        let mut u2 = User::new("b", None);
        u2.posts.push(Post::with_topic("six", 3, "r1"));
        c.users.push(u1);
        c.users.push(u2);
        c
    }

    #[test]
    fn cdf_shape() {
        let c = corpus();
        let cdf = words_per_user_cdf(&c);
        // User word counts: a=5, b=1.
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf[0].value, 1);
        assert!((cdf[0].fraction - 0.5).abs() < 1e-12);
        assert_eq!(cdf[1].value, 5);
        assert!((cdf[1].fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_evaluation() {
        let cdf = cdf_of_sorted(&[10, 10, 20, 40]);
        assert_eq!(cdf_at(&cdf, 5), 0.0);
        assert!((cdf_at(&cdf, 10) - 0.5).abs() < 1e-12);
        assert!((cdf_at(&cdf, 25) - 0.75).abs() < 1e-12);
        assert!((cdf_at(&cdf, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_duplicates_merged() {
        let cdf = cdf_of_sorted(&[3, 3, 3]);
        assert_eq!(cdf.len(), 1);
        assert!((cdf[0].fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cdf() {
        assert!(cdf_of_sorted(&[]).is_empty());
        assert!(words_per_user_cdf(&Corpus::new("e")).is_empty());
    }

    #[test]
    fn topic_composition_aggregates() {
        let c = corpus();
        let stats = topic_composition(&c, |community| {
            Some(if community == "r2" { "other" } else { "drugs" }.to_string())
        });
        assert_eq!(stats.len(), 2);
        let drugs = stats.iter().find(|s| s.topic == "drugs").unwrap();
        assert_eq!(drugs.communities, 1);
        assert_eq!(drugs.messages, 2);
        assert_eq!(drugs.users, 2);
        assert_eq!(drugs.top_community, "r1");
        assert_eq!(drugs.top_community_messages, 2);
        assert!((drugs.message_share - 2.0 / 3.0).abs() < 1e-12);
        assert!((drugs.user_share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn topic_mapping_can_skip() {
        let c = corpus();
        let stats = topic_composition(&c, |community| {
            (community == "r1").then(|| "only".to_string())
        });
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].messages, 2);
        assert!((stats[0].message_share - 1.0).abs() < 1e-12);
    }
}
