//! The forum data model.
//!
//! A [`Corpus`] is one forum's worth of users; a [`User`] is an alias with
//! its posts and — for synthetic corpora — ground-truth metadata: the
//! `persona` id tying different aliases of the same (synthetic) person
//! together, and the identity [`Fact`]s the person leaked in their posts.
//! The attribution pipeline never reads the ground-truth fields; they exist
//! so the evaluation layer can score matches exactly the way the authors
//! scored theirs (by inspecting leaked facts, §V-A).

use std::fmt;

/// One forum post.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Post {
    /// The cleaned (or raw) message text.
    pub text: String,
    /// Posting time, unix seconds UTC.
    pub timestamp: i64,
    /// The sub-community the post belongs to (a subreddit on Reddit, a
    /// board/section on the dark-web forums). Empty when unknown.
    pub topic: String,
}

impl Post {
    /// Creates a post with an empty topic.
    pub fn new(text: impl Into<String>, timestamp: i64) -> Post {
        Post {
            text: text.into(),
            timestamp,
            topic: String::new(),
        }
    }

    /// Creates a post within a topic.
    pub fn with_topic(text: impl Into<String>, timestamp: i64, topic: impl Into<String>) -> Post {
        Post {
            text: text.into(),
            timestamp,
            topic: topic.into(),
        }
    }
}

/// The kind of an identity fact a user leaked (§V-A/V-C of the paper:
/// ages, cities, religions, political views, drug habits, vendor
/// complaints, hobbies, devices, self-referenced aliases, reposted links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(missing_docs, reason = "variant names are the fact kinds of §V-A")]
pub enum FactKind {
    Age,
    City,
    Country,
    Religion,
    Politics,
    Drug,
    VendorComplaint,
    Hobby,
    Device,
    AliasRef,
    Link,
    Job,
    Language,
}

impl FactKind {
    /// Facts that can hold only one value per person: two different values
    /// of an exclusive kind are *contradictory* (the paper's **False**
    /// evidence: "one match declares to be 20 years old on the Dark Web and
    /// to be 34 on Reddit").
    pub fn is_exclusive(self) -> bool {
        matches!(
            self,
            FactKind::Age
                | FactKind::City
                | FactKind::Country
                | FactKind::Religion
                | FactKind::Politics
        )
    }

    /// Facts distinctive enough that sharing one is strong evidence two
    /// aliases are the same person (the paper's **True** evidence: alias
    /// self-references, unique links, specific vendor complaints).
    pub fn is_strong(self) -> bool {
        matches!(
            self,
            FactKind::AliasRef | FactKind::Link | FactKind::VendorComplaint
        )
    }

    /// Short stable name used in TSV serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            FactKind::Age => "age",
            FactKind::City => "city",
            FactKind::Country => "country",
            FactKind::Religion => "religion",
            FactKind::Politics => "politics",
            FactKind::Drug => "drug",
            FactKind::VendorComplaint => "vendor_complaint",
            FactKind::Hobby => "hobby",
            FactKind::Device => "device",
            FactKind::AliasRef => "alias_ref",
            FactKind::Link => "link",
            FactKind::Job => "job",
            FactKind::Language => "language",
        }
    }

    /// Parses a serialized kind name.
    pub fn parse(s: &str) -> Option<FactKind> {
        Some(match s {
            "age" => FactKind::Age,
            "city" => FactKind::City,
            "country" => FactKind::Country,
            "religion" => FactKind::Religion,
            "politics" => FactKind::Politics,
            "drug" => FactKind::Drug,
            "vendor_complaint" => FactKind::VendorComplaint,
            "hobby" => FactKind::Hobby,
            "device" => FactKind::Device,
            "alias_ref" => FactKind::AliasRef,
            "link" => FactKind::Link,
            "job" => FactKind::Job,
            "language" => FactKind::Language,
            _ => return None,
        })
    }
}

impl fmt::Display for FactKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An identity fact a user disclosed somewhere in their posts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fact {
    /// What kind of fact.
    pub kind: FactKind,
    /// Its value, normalized lowercase (e.g. `"edmonton"`, `"27"`).
    pub value: String,
}

impl Fact {
    /// Creates a fact, lowercasing the value.
    pub fn new(kind: FactKind, value: impl Into<String>) -> Fact {
        Fact {
            kind,
            value: value.into().to_lowercase(),
        }
    }
}

/// One alias on one forum.
#[derive(Debug, Clone, PartialEq)]
pub struct User {
    /// The alias (nickname) as it appears on the forum.
    pub alias: String,
    /// Ground truth: the synthetic persona behind the alias, if any.
    /// Aliases sharing a persona id belong to the same person. `None` for
    /// noise accounts (bots, spam) with no cross-forum identity.
    pub persona: Option<u64>,
    /// The user's posts.
    pub posts: Vec<Post>,
    /// Ground truth: identity facts leaked in this alias's posts.
    pub facts: Vec<Fact>,
}

impl User {
    /// Creates a user with no posts or facts.
    pub fn new(alias: impl Into<String>, persona: Option<u64>) -> User {
        User {
            alias: alias.into(),
            persona,
            posts: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// All post timestamps, in post order.
    pub fn timestamps(&self) -> Vec<i64> {
        self.posts.iter().map(|p| p.timestamp).collect()
    }

    /// Total word-token count across posts.
    pub fn total_words(&self) -> usize {
        self.posts
            .iter()
            .map(|p| darklight_text::token::word_count(&p.text))
            .sum()
    }

    /// Concatenates all post texts, newline-separated, in post order.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.posts.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&p.text);
        }
        out
    }
}

/// One forum's corpus.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Corpus {
    /// Forum name (`"reddit"`, `"tmg"`, `"dm"`, …).
    pub name: String,
    /// The users.
    pub users: Vec<User>,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new(name: impl Into<String>) -> Corpus {
        Corpus {
            name: name.into(),
            users: Vec::new(),
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// `true` when there are no users.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Total number of posts across users.
    pub fn total_posts(&self) -> usize {
        self.users.iter().map(|u| u.posts.len()).sum()
    }

    /// Finds a user by alias.
    pub fn user(&self, alias: &str) -> Option<&User> {
        self.users.iter().find(|u| u.alias == alias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_user() -> User {
        let mut u = User::new("acid_queen", Some(7));
        u.posts
            .push(Post::with_topic("first post about stuff", 100, "drugs"));
        u.posts.push(Post::new("second post has five words", 200));
        u.facts.push(Fact::new(FactKind::City, "Miami"));
        u
    }

    #[test]
    fn user_aggregates() {
        let u = sample_user();
        assert_eq!(u.timestamps(), [100, 200]);
        assert_eq!(u.total_words(), 9);
        assert_eq!(
            u.full_text(),
            "first post about stuff\nsecond post has five words"
        );
    }

    #[test]
    fn facts_lowercase_values() {
        let f = Fact::new(FactKind::City, "Edmonton");
        assert_eq!(f.value, "edmonton");
    }

    #[test]
    fn fact_kind_round_trip() {
        for kind in [
            FactKind::Age,
            FactKind::City,
            FactKind::Country,
            FactKind::Religion,
            FactKind::Politics,
            FactKind::Drug,
            FactKind::VendorComplaint,
            FactKind::Hobby,
            FactKind::Device,
            FactKind::AliasRef,
            FactKind::Link,
            FactKind::Job,
            FactKind::Language,
        ] {
            assert_eq!(FactKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FactKind::parse("nonsense"), None);
    }

    #[test]
    fn exclusive_and_strong_kinds() {
        assert!(FactKind::Age.is_exclusive());
        assert!(!FactKind::Drug.is_exclusive());
        assert!(FactKind::AliasRef.is_strong());
        assert!(!FactKind::Hobby.is_strong());
    }

    #[test]
    fn corpus_lookup() {
        let mut c = Corpus::new("tmg");
        c.users.push(sample_user());
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert_eq!(c.total_posts(), 2);
        assert!(c.user("acid_queen").is_some());
        assert!(c.user("nobody").is_none());
    }
}
